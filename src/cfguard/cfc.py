"""Dynamic program for k-conflict-free coloring over a nice tree decomposition.

Each bag vertex carries a triple (c, gamma, p): its assigned color c (0 = no
color), the color gamma that must occur exactly once in its closed
neighborhood, and a pending bit p, set while gamma has not yet occurred there
in the partial graph below the current node.  A vertex with c == gamma sees
gamma at itself, so it is never pending.  No recurrence changes c or gamma:
an introduced edge clears the bit of an endpoint whose gamma is the other
endpoint's color (a second occurrence kills the state), a join keeps a bit
only where both children still wait for gamma, and a vertex is forgotten
only with its bit clear.

Tables are sparse (only true states are stored) and a whole bag state is
packed into a single integer, one fixed-width field per sorted-bag position.
"""

from __future__ import annotations

import time
from itertools import product
from typing import Callable, Optional

from .decomposition import NiceTreeDecomposition, make_nice, min_fill_decomposition
from .graph import Coloring, Graph, degeneracy
from .treedp import TreeDP, min_k, solve


class _Codec:
    """Bit layout of one bag position: c | gamma-1 | p."""

    def __init__(self, k: int):
        self.k = k
        self.cbits = max(k.bit_length(), 1)
        self.gbits = (k - 1).bit_length()
        self.pofs = self.cbits + self.gbits
        self.vbits = self.pofs + 1
        self.cmask = (1 << self.cbits) - 1
        self.gmask = (1 << self.gbits) - 1
        self.cgmask = (1 << self.pofs) - 1

    def code(self, c: int, gm: int, p: int) -> int:
        return c | (gm - 1) << self.cbits | p << self.pofs


def _group(table: set[int], keymask: int) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for s in table:
        groups.setdefault(s & keymask, []).append(s)
    return groups


class CfcSolver(TreeDP):
    codec = _Codec

    def intro_codes(self) -> tuple[int, ...]:
        cd = self.cd
        codes = []
        for gm in range(1, cd.k + 1):
            codes.append(cd.code(gm, gm, 0))  # isolated vertex must dominate itself
            codes.append(cd.code(0, gm, 1))
            for c in range(1, cd.k + 1):
                if c != gm:
                    codes.append(cd.code(c, gm, 1))
        return tuple(codes)

    def forget_codes(self) -> list[tuple[int, int]]:
        """Uncolored first, then colored."""
        cd = self.cd
        codes = [(cd.code(0, gm, 0), 0) for gm in range(1, cd.k + 1)]
        for gm in range(1, cd.k + 1):
            for c in range(1, cd.k + 1):
                codes.append((cd.code(c, gm, 0), c))
        return codes

    def _forget(self, nd) -> set[int]:
        child = self.tables[nd.children[0]]
        vb = self.cd.vbits
        pos = self.ntd.nodes[nd.children[0]].bag.index(nd.vertex)
        pbit = 1 << pos * vb + self.cd.pofs
        lowmask = (1 << pos * vb) - 1
        out = set()
        add = out.add
        for s in child:
            if not s & pbit:
                add(((s >> (pos + 1) * vb) << pos * vb) | (s & lowmask))
        return out

    def _edge_hit(self, nd) -> Callable[[int], int]:
        """For edge uv: a function from a state to the pending bits it clears.

        u's bit is hit when v's color is u's gamma, and v's likewise.
        """
        cd = self.cd
        cmask, gmask = cd.cmask, cd.gmask
        ushift, vshift = (nd.bag.index(x) * cd.vbits for x in nd.edge)
        ugshift, vgshift = ushift + cd.cbits, vshift + cd.cbits
        upbit, vpbit = 1 << ushift + cd.pofs, 1 << vshift + cd.pofs

        def hit(s: int) -> int:
            return (upbit if (s >> vshift) & cmask == ((s >> ugshift) & gmask) + 1 else 0) | (
                vpbit if (s >> ushift) & cmask == ((s >> vgshift) & gmask) + 1 else 0
            )

        return hit

    def _introduce_edge(self, nd) -> set[int]:
        child = self.tables[nd.children[0]]
        hit = self._edge_hit(nd)
        out = set()
        add = out.add
        for s in child:
            h = hit(s)
            if not h:
                add(s)  # the child's own int; s ^ 0 would allocate a copy
            elif s & h == h:
                add(s ^ h)
        return out

    def _join(self, nd) -> set[int]:
        """Each pair of child states with equal (c, gamma) fields gives their bitwise and.

        The parent is pending where both children are.  A vertex with
        c != gamma must be pending in at least one child, or gamma occurs
        twice in its neighborhood.
        """
        t1 = self.tables[nd.children[0]]
        t2 = self.tables[nd.children[1]]
        cd = self.cd
        nbag = len(nd.bag)
        keymask = self._spread(cd.cgmask, nbag)
        groups = _group(t2, keymask)
        out = set()
        add = out.add
        for key, bucket1 in _group(t1, keymask).items():
            bucket2 = groups.get(key)
            if bucket2:
                need = self._needs_pending(key, nbag)
                for s1 in bucket1:
                    miss = need & ~s1
                    for s2 in bucket2:
                        if s2 & miss == miss:
                            add(s1 & s2)
        return out

    def _needs_pending(self, key: int, nbag: int) -> int:
        """The pending bits of the positions of ``key`` whose c is not gamma."""
        cd = self.cd
        mask = 0
        for pos in range(nbag):
            shift = pos * cd.vbits
            if (key >> shift) & cd.cmask != ((key >> shift + cd.cbits) & cd.gmask) + 1:
                mask |= 1 << shift + cd.pofs
        return mask

    # -- witness extraction -------------------------------------------------

    def _extract_edge(self, nd, state):
        q = state | self._edge_hit(nd)(state)
        if q in self.tables[nd.children[0]]:
            return q
        raise AssertionError("true edge entry without a producing child state")

    def _extract_join(self, nd, state):
        """Try each split of the parent's clear pending bits between the children.

        A clear bit comes from (clear, set), (set, clear), or, where
        c == gamma, (clear, clear), tried in that order with the first bag
        position varying slowest.
        """
        t1 = self.tables[nd.children[0]]
        t2 = self.tables[nd.children[1]]
        cd = self.cd
        needs = self._needs_pending(state, len(nd.bag))
        opts = []
        for pos in range(len(nd.bag)):
            pbit = 1 << pos * cd.vbits + cd.pofs
            if not state & pbit:
                opts.append(((0, pbit), (pbit, 0)) + (() if needs & pbit else ((0, 0),)))
        for choice in product(*opts):
            s1 = state + sum(b1 for b1, _ in choice)
            s2 = state + sum(b2 for _, b2 in choice)
            if s1 in t1 and s2 in t2:
                return s1, s2
        raise AssertionError("true join entry without consistent child states")


def solve_cfc(
    g: Graph,
    k: int,
    ntd: Optional[NiceTreeDecomposition] = None,
    stats: Optional[dict] = None,
) -> Optional[Coloring]:
    """Decide and construct a conflict-free coloring with at most k colors."""
    start = time.perf_counter()
    if ntd is None:
        ntd = make_nice(g, min_fill_decomposition(g))
    return solve(CfcSolver(g, k, ntd), start, stats)


def cf_number(g: Graph, stats: Optional[dict] = None) -> tuple[int, Coloring]:
    """Smallest k admitting a conflict-free coloring, with a witness.

    The search is capped at degeneracy+1, where a proper coloring always works.
    """
    start = time.perf_counter()
    d, _ = degeneracy(g)
    ntd = make_nice(g, min_fill_decomposition(g))
    return min_k(solve_cfc, g, ntd, d + 1, start, stats)
