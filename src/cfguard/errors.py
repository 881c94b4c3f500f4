"""Shared exception types."""


class CfguardError(Exception):
    pass


class InstanceTooLargeError(CfguardError):
    """Raised when a brute-force routine would exceed its enumeration budget."""


class FormatError(CfguardError):
    """Raised on malformed graph/terrain/report files."""


class InternalConsistencyError(CfguardError):
    """Raised when a solver breaks its own guarantee.

    A minimum-k search exhausts a color budget that always suffices, or
    witness extraction meets a true table entry that no child state produces.
    """
