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

Renaming the colors 1..k maps true states to true states, so a table keeps
one state per orbit: the one whose colors are numbered 1, 2, ... in order
of first appearance over the (c, gamma) fields, c before gamma, in bag
order.  A renaming leaves the pending bits alone, so the canonical form
depends on the (c, gamma) key only and is memoized per key (``treedp``
holds the memos); introduce-edge and join keep the key and so stay
canonical.  Introduce-edge looks up the bits an edge hits in one list,
indexed by the two endpoints' (c, gamma) fields and built once per solver.
"""

from __future__ import annotations

import time
from functools import partial
from itertools import product
from typing import Optional

from .decomposition import NiceTreeDecomposition, make_nice, min_fill_decomposition
from .errors import InternalConsistencyError
from .graph import Coloring, Graph, degeneracy
from .treedp import Codec, Memo, TreeDP, min_k, solve


class _Codec(Codec):
    """Bit layout of one bag position: c | gamma-1 | p; the key is c | gamma-1."""

    def __init__(self, k: int):
        self.k = k
        self.cbits = max(k.bit_length(), 1)
        self.gbits = (k - 1).bit_length()
        self.pofs = self.cbits + self.gbits
        self.vbits = self.pofs + 1
        self.cmask = (1 << self.cbits) - 1
        self.gmask = (1 << self.gbits) - 1
        self.cgmask = (1 << self.pofs) - 1
        # with one color no renaming is nontrivial
        self.canonfield = self.cgmask if k > 1 else 0
        # (c, gamma) by the c | gamma-1 bits of a field
        self.fields = [(f & self.cmask, (f >> self.cbits) + 1) for f in range(1 << self.pofs)]
        # for an edge uv, indexed by u's c | gamma-1 bits shifted above v's:
        # bit 0 set when v's color is u's gamma (u's pending bit is hit), bit 1 for v
        self.hit = [(vc == ug) | (uc == vg) << 1 for uc, ug in self.fields for vc, vg in self.fields]

    def code(self, c: int, gm: int, p: int) -> int:
        return c | (gm - 1) << self.cbits | p << self.pofs

    def canon_key(self, key: int, nbag: int) -> int:
        """Colors renamed 1, 2, ... in order of first appearance, c before gamma, position by position."""
        label = [0] * (self.k + 1)  # label[0] stays 0: uncolored is no color
        used = 0
        out = 0
        for shift in range(0, nbag * self.vbits, self.vbits):
            c, gm = self.fields[(key >> shift) & self.cgmask]
            if c and not label[c]:
                used += 1
                label[c] = used
            if not label[gm]:
                used += 1
                label[gm] = used
            out |= (label[c] | (label[gm] - 1) << self.cbits) << shift
        return out

    def needs_pending(self, key: int, nbag: int) -> int:
        """The pending bits of the positions of ``key`` whose c is not gamma."""
        mask = 0
        for shift in range(0, nbag * self.vbits, self.vbits):
            c, gm = self.fields[(key >> shift) & self.cgmask]
            if c != gm:
                mask |= 1 << shift + self.pofs
        return mask


def _group(table: set[int], keymask: int) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for s in table:
        groups.setdefault(s & keymask, []).append(s)
    return groups


class CfcSolver(TreeDP):
    codec = _Codec

    def __init__(self, g: Graph, k: int, ntd: NiceTreeDecomposition):
        super().__init__(g, k, ntd)
        cd = self.cd
        self._joinmasks = Memo(partial(cd.spread, cd.cgmask))
        self._needs = Memo(lambda nbag: Memo(partial(cd.needs_pending, nbag=nbag)))

    def _edge(self, nd) -> tuple[int, int, tuple[int, int, int, int]]:
        """The shifts of edge uv's endpoints and its pending bits by ``hit`` pattern."""
        cd = self.cd
        ushift, vshift = (nd.bag.index(x) * cd.vbits for x in nd.edge)
        upbit, vpbit = 1 << ushift + cd.pofs, 1 << vshift + cd.pofs
        return ushift, vshift, (0, upbit, vpbit, upbit | vpbit)

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
        nbag = len(nd.bag) + 1
        pos = self.ntd.nodes[nd.children[0]].bag.index(nd.vertex)
        shift = pos * self.cd.vbits
        up = shift + self.cd.vbits
        pbit = 1 << shift + self.cd.pofs
        lowmask = (1 << shift) - 1
        keymask = self._keymasks[nbag]
        dropped = self._drops[nbag, pos]
        out = set()
        add = out.add
        for s in child:
            if not s & pbit:
                key = s & keymask
                rest = s ^ key
                add(dropped[key] | ((rest >> up) << shift) | (rest & lowmask))
        return out

    def _introduce_edge(self, nd) -> set[int]:
        child = self.tables[nd.children[0]]
        ushift, vshift, bits = self._edge(nd)
        hit, pofs, cgmask = self.cd.hit, self.cd.pofs, self.cd.cgmask
        out = set()
        add = out.add
        for s in child:
            h = hit[((s >> ushift) & cgmask) << pofs | (s >> vshift) & cgmask]
            if not h:
                add(s)  # the child's own int; s ^ 0 would allocate a copy
            else:
                h = bits[h]
                if s & h == h:
                    add(s ^ h)
        return out

    def _join(self, nd) -> set[int]:
        """Each pair of child states with equal (c, gamma) fields gives their bitwise and.

        The parent is pending where both children are.  A vertex with
        c != gamma must be pending in at least one child, or gamma occurs
        twice in its neighborhood.
        """
        nbag = len(nd.bag)
        keymask = self._joinmasks[nbag]
        needs = self._needs[nbag]
        t1, t2 = self.tables[nd.children[0]], self.tables[nd.children[1]]
        if len(t1) < len(t2):
            t1, t2 = t2, t1  # the condition is symmetric: group the smaller table
        groups = _group(t2, keymask)
        out = set()
        add = out.add
        for s1 in t1:
            key = s1 & keymask
            bucket = groups.get(key)
            if bucket:
                miss = needs[key] & ~s1
                for s2 in bucket:
                    if s2 & miss == miss:
                        add(s1 & s2)
        return out

    # -- witness extraction -------------------------------------------------

    def _extract_edge(self, nd, state):
        cd = self.cd
        ushift, vshift, bits = self._edge(nd)
        q = state | bits[cd.hit[((state >> ushift) & cd.cgmask) << cd.pofs | (state >> vshift) & cd.cgmask]]
        if q ^ self._flip(state, len(nd.bag)) in self.tables[nd.children[0]]:
            return q
        raise InternalConsistencyError("true edge entry without a producing child state")

    def _extract_join(self, nd, state):
        """Try each split of the parent's clear pending bits between the children.

        A clear bit comes from (clear, set), (set, clear), or, where
        c == gamma, (clear, clear), tried in that order with the first bag
        position varying slowest.
        """
        t1 = self.tables[nd.children[0]]
        t2 = self.tables[nd.children[1]]
        cd = self.cd
        nbag = len(nd.bag)
        flip = self._flip(state, nbag)
        needs = self._needs[nbag][state & self._joinmasks[nbag]]
        opts = []
        for pos in range(nbag):
            pbit = 1 << pos * cd.vbits + cd.pofs
            if not state & pbit:
                opts.append(((0, pbit), (pbit, 0)) + (() if needs & pbit else ((0, 0),)))
        for choice in product(*opts):
            s1 = state + sum(b1 for b1, _ in choice)
            s2 = state + sum(b2 for _, b2 in choice)
            if s1 ^ flip in t1 and s2 ^ flip in t2:
                return s1, s2
        raise InternalConsistencyError("true join entry without consistent child states")


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
