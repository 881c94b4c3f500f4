"""Dynamic program for k-strong-conflict-free coloring over a nice tree decomposition.

Each bag vertex carries (c, S): its color c (0 = uncolored) and the set S of
colors realized so far in its closed neighborhood.  Strong conflict-freeness
means S never receives the same color twice (edge introductions fail on a
duplicate) and S is nonempty when the vertex is forgotten.  "Future
domination" needs no explicit bookkeeping: a color absent from S so far is
simply a color that may still arrive, so tracking a separate promise marker
per color would only multiply the table by a factor of up to 2^k per bag
vertex without distinguishing any realizable coloring.

Tables are sparse (only true states are stored) and a whole bag state is
packed into a single integer, one (c, S) field pair per sorted-bag position.
"""

from __future__ import annotations

import time
from typing import Optional

from .decomposition import NiceTreeDecomposition, make_nice, min_fill_decomposition
from .graph import Coloring, Graph
from .treedp import TreeDP, min_k, solve


class _Codec:
    """Bit layout of one bag position: c | S (one bit per color)."""

    def __init__(self, k: int):
        self.k = k
        self.cbits = max(k.bit_length(), 1)
        self.vbits = self.cbits + k
        self.cmask = (1 << self.cbits) - 1
        self.smask = ((1 << k) - 1) << self.cbits
        self.vmask = (1 << self.vbits) - 1

    def code(self, c: int, sset: int) -> int:
        return c | sset << self.cbits

    def sbit(self, color: int) -> int:
        return 1 << (self.cbits + color - 1)


class ScfcSolver(TreeDP):
    codec = _Codec

    def intro_codes(self) -> tuple[int, ...]:
        """Uncolored, or colored and dominating itself."""
        return (0, *(c | self.cd.sbit(c) for c in range(1, self.k + 1)))

    def forget_codes(self) -> list[tuple[int, int]]:
        """Every nonempty S, uncolored first, then by color; a color lies in its own S."""
        cd = self.cd
        return [
            (cd.code(c, sset), c)
            for c in range(cd.k + 1)
            for sset in range(1, 1 << cd.k)
            if not c or sset >> (c - 1) & 1
        ]

    def _forget(self, nd) -> set[int]:
        child = self.tables[nd.children[0]]
        cd = self.cd
        vb = cd.vbits
        pos = self.ntd.nodes[nd.children[0]].bag.index(nd.vertex)
        shift = pos * vb
        smask = cd.smask << shift
        lowmask = (1 << shift) - 1
        out = set()
        add = out.add
        for s in child:
            if s & smask:  # forgotten vertex must be dominated
                add(((s >> (pos + 1) * vb) << shift) | (s & lowmask))
        return out

    def _introduce_edge(self, nd) -> set[int]:
        """Image of the child table: each endpoint's color joins the other's
        neighborhood set, and a duplicate color kills the state."""
        child = self.tables[nd.children[0]]
        cd = self.cd
        vb = cd.vbits
        u, v = nd.edge
        pu, pv = nd.bag.index(u), nd.bag.index(v)
        ushift, vshift = pu * vb, pv * vb
        cmask = cd.cmask
        out = set()
        add = out.add
        for s in child:
            cu = (s >> ushift) & cmask
            cv = (s >> vshift) & cmask
            t = s
            if cu:
                bit = cd.sbit(cu) << vshift
                if t & bit:
                    continue
                t |= bit
            if cv:
                bit = cd.sbit(cv) << ushift
                if t & bit:
                    continue
                t |= bit
            add(t)
        return out

    def _join(self, nd) -> set[int]:
        t1 = self.tables[nd.children[0]]
        t2 = self.tables[nd.children[1]]
        cd = self.cd
        vb = cd.vbits
        nbag = len(nd.bag)
        keymask = self._spread(cd.cmask, nbag)
        allsmask = self._spread(cd.smask, nbag)
        groups: dict[int, list[int]] = {}
        for s in t2:
            groups.setdefault(s & keymask, []).append(s)
        out = set()
        add = out.add
        for s1 in t1:
            key = s1 & keymask
            bucket = groups.get(key)
            if not bucket:
                continue
            # only the vertex's own color may be realized in both branches
            selfmask = 0
            for pos in range(nbag):
                c = (key >> pos * vb) & cd.cmask
                if c:
                    selfmask |= cd.sbit(c) << pos * vb
            for s2 in bucket:
                if s1 & s2 & allsmask == selfmask:
                    add(s1 | s2)
        return out

    # -- witness extraction -------------------------------------------------

    def _extract_edge(self, nd, state):
        cd = self.cd
        vb = cd.vbits
        table = self.tables[nd.children[0]]
        u, v = nd.edge
        pu, pv = nd.bag.index(u), nd.bag.index(v)
        cu = (state >> pu * vb) & cd.cmask
        cv = (state >> pv * vb) & cd.cmask
        s = state
        if cu:
            s &= ~(cd.sbit(cu) << pv * vb)
        if cv:
            s &= ~(cd.sbit(cv) << pu * vb)
        if s not in table:
            raise AssertionError("true edge entry without a producing child state")
        return s

    def _extract_join(self, nd, state):
        cd = self.cd
        vb = cd.vbits
        t1 = self.tables[nd.children[0]]
        t2 = self.tables[nd.children[1]]
        nbag = len(nd.bag)
        keymask = self._spread(cd.cmask, nbag)
        allsmask = self._spread(cd.smask, nbag)
        key = state & keymask
        selfmask = 0
        for pos in range(nbag):
            c = (key >> pos * vb) & cd.cmask
            if c:
                selfmask |= cd.sbit(c) << pos * vb
        for s1 in t1:
            if s1 & keymask != key:
                continue
            if s1 & allsmask & ~state:
                continue  # left branch realizes a color the parent never saw
            s2 = key | (state & ~s1 & allsmask) | selfmask
            if s2 in t2:
                return s1, s2
        raise AssertionError("true join entry without consistent child states")


def solve_scfc(
    g: Graph,
    k: int,
    ntd: Optional[NiceTreeDecomposition] = None,
    stats: Optional[dict] = None,
) -> Optional[Coloring]:
    """Decide and construct a strong conflict-free coloring with at most k colors."""
    start = time.perf_counter()
    if ntd is None:
        ntd = make_nice(g, min_fill_decomposition(g))
    return solve(ScfcSolver(g, k, ntd), start, stats)


def scf_number(g: Graph, stats: Optional[dict] = None) -> tuple[int, Coloring]:
    """Smallest k admitting a strong conflict-free coloring, with a witness.

    Searches k = 1, 2, ...; degeneracy+1 colors have sufficed on every graph
    tested, but since that bound is only empirical the search continues up to
    n, where a rainbow coloring (all vertices distinct) always succeeds.
    """
    start = time.perf_counter()
    ntd = make_nice(g, min_fill_decomposition(g))
    return min_k(solve_scfc, g, ntd, max(g.n, 1), start, stats)
