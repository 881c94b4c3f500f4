"""Dynamic program for k-conflict-free coloring over a nice tree decomposition.

Each bag vertex carries a triple (c, gamma, f): its assigned color c (0 = no
color), the color gamma that must dominate it exactly once, and a partition
flag f.  B = colored and already dominated, C = colored but dominated only
above the current node, W = uncolored and dominated, R = uncolored and
dominated only above.

Tables are sparse (only true states are stored) and a whole bag state is
packed into a single integer, one fixed-width field per sorted-bag position.
"""

from __future__ import annotations

import time
from typing import Optional

from .decomposition import NiceTreeDecomposition, make_nice, min_fill_decomposition
from .graph import Coloring, Graph, degeneracy
from .treedp import TreeDP, min_k, solve

B, C, W, R = 0, 1, 2, 3

# f-combination at a join; (B, B) additionally requires c == gamma
_JOIN_F = {
    (B, C): B,
    (C, B): B,
    (B, B): B,
    (C, C): C,
    (R, R): R,
    (W, R): W,
    (R, W): W,
}


class _Codec:
    """Bit layout of one bag position: c | gamma-1 | f."""

    def __init__(self, k: int):
        self.k = k
        self.cbits = max(k.bit_length(), 1)
        self.gbits = (k - 1).bit_length()
        self.fofs = self.cbits + self.gbits
        self.vbits = self.fofs + 2
        self.cmask = (1 << self.cbits) - 1
        self.gmask = (1 << self.gbits) - 1
        self.cgmask = (1 << self.fofs) - 1
        self.vmask = (1 << self.vbits) - 1

    def code(self, c: int, gm: int, f: int) -> int:
        return c | (gm - 1) << self.cbits | f << self.fofs

    def split(self, code: int) -> tuple[int, int, int]:
        return (
            code & self.cmask,
            ((code >> self.cbits) & self.gmask) + 1,
            code >> self.fofs,
        )


class CfcSolver(TreeDP):
    codec = _Codec

    def intro_codes(self) -> tuple[int, ...]:
        cd = self.cd
        codes = []
        for gm in range(1, cd.k + 1):
            codes.append(cd.code(gm, gm, B))  # isolated vertex must dominate itself
            codes.append(cd.code(0, gm, R))
            for c in range(1, cd.k + 1):
                if c != gm:
                    codes.append(cd.code(c, gm, C))
        return tuple(codes)

    def forget_codes(self) -> list[tuple[int, int]]:
        """Uncolored first, then colored."""
        cd = self.cd
        codes = [(cd.code(0, gm, W), 0) for gm in range(1, cd.k + 1)]
        for gm in range(1, cd.k + 1):
            for c in range(1, cd.k + 1):
                codes.append((cd.code(c, gm, B), c))
        return codes

    def _forget(self, nd) -> set[int]:
        child = self.tables[nd.children[0]]
        cd = self.cd
        vb = cd.vbits
        pos = self.ntd.nodes[nd.children[0]].bag.index(nd.vertex)
        fofs = pos * vb + cd.fofs
        lowmask = (1 << pos * vb) - 1
        out = set()
        add = out.add
        for s in child:
            f = (s >> fofs) & 3
            if f == B or f == W:
                add(((s >> (pos + 1) * vb) << pos * vb) | (s & lowmask))
        return out

    def _introduce_edge(self, nd) -> set[int]:
        """Parent table as the preimage of the child table.

        Each parent state maps to exactly one child query (the recurrence
        cases are mutually exclusive), so the parent table is the union of
        the per-case inverse rewrites plus the unmatched (copy) states.
        """
        child = self.tables[nd.children[0]]
        cd = self.cd
        vb = cd.vbits
        u, v = nd.edge
        pu, pv = nd.bag.index(u), nd.bag.index(v)
        ushift, vshift = pu * vb, pv * vb
        ufofs, vfofs = ushift + cd.fofs, vshift + cd.fofs
        split = cd.split
        out = set()
        add = out.add
        for s in child:
            cu, gu, fu = split((s >> ushift) & cd.vmask)
            cv, gv, fv = split((s >> vshift) & cd.vmask)
            if fu == C and fv == C and cv == gu and cu == gv:
                add(s - (1 << ufofs) - (1 << vfofs))  # both C -> B
            for ca, ga, fa, cb, gb, fb, bfofs in (
                (cu, gu, fu, cv, gv, fv, vfofs),
                (cv, gv, fv, cu, gu, fu, ufofs),
            ):
                if fa <= C and ca == gb:
                    if (fb == C and cb != ga) or fb == R:
                        add(s - (1 << bfofs))  # C -> B, or R -> W
            # copy survives only when no recurrence case touches the state
            matched = (
                (fu == B and fv == B and cv == gu and cu == gv)
                or (fu <= C and cu == gv and not (fv == B and cv == gu))
                or (fv <= C and cv == gu and not (fu == B and cu == gv))
            )
            if not matched:
                add(s)
        return out

    def _join(self, nd) -> set[int]:
        t1 = self.tables[nd.children[0]]
        t2 = self.tables[nd.children[1]]
        cd = self.cd
        vb = cd.vbits
        nbag = len(nd.bag)
        keymask = self._spread(cd.cgmask, nbag)
        fofss = [pos * vb + cd.fofs for pos in range(nbag)]
        cofss = [pos * vb for pos in range(nbag)]
        groups: dict[int, list[int]] = {}
        for s in t2:
            groups.setdefault(s & keymask, []).append(s)
        join_f = _JOIN_F
        out = set()
        add = out.add
        for s1 in t1:
            key = s1 & keymask
            bucket = groups.get(key)
            if not bucket:
                continue
            for s2 in bucket:
                parent = key
                for pos in range(nbag):
                    fo = fofss[pos]
                    f1, f2 = (s1 >> fo) & 3, (s2 >> fo) & 3
                    f = join_f.get((f1, f2))
                    if f is None:
                        break
                    if f1 == B and f2 == B:
                        c, gm, _ = cd.split((s1 >> cofss[pos]) & cd.vmask)
                        if c != gm:
                            break
                    parent |= f << fo
                else:
                    add(parent)
        return out

    # -- witness extraction -------------------------------------------------

    def _extract_edge(self, nd, state):
        cd = self.cd
        vb = cd.vbits
        table = self.tables[nd.children[0]]
        u, v = nd.edge
        pu, pv = nd.bag.index(u), nd.bag.index(v)
        ufofs, vfofs = pu * vb + cd.fofs, pv * vb + cd.fofs
        cu, gu, fu = cd.split((state >> pu * vb) & cd.vmask)
        cv, gv, fv = cd.split((state >> pv * vb) & cd.vmask)
        if fu == B and fv == B and cv == gu and cu == gv:
            q = state + (1 << ufofs) + (1 << vfofs)  # both B -> C
            if q in table:
                return q
        for ca, ga, fa, cb, gb, fb, bfofs in (
            (cu, gu, fu, cv, gv, fv, vfofs),
            (cv, gv, fv, cu, gu, fu, ufofs),
        ):
            if fa <= C and ca == gb:
                if fb == B and cb != ga:
                    q = state + (1 << bfofs)  # B -> C
                    if q in table:
                        return q
                elif fb == W:
                    q = state + (1 << bfofs)  # W -> R
                    if q in table:
                        return q
        if state in table:
            return state
        raise AssertionError("true edge entry without a producing child state")

    def _extract_join(self, nd, state):
        cd = self.cd
        vb = cd.vbits
        t1 = self.tables[nd.children[0]]
        t2 = self.tables[nd.children[1]]
        nbag = len(nd.bag)
        opts = []
        for pos in range(nbag):
            c, gm, f = cd.split((state >> pos * vb) & cd.vmask)
            if f == B:
                pairs = [(B, C), (C, B)] + ([(B, B)] if c == gm else [])
            elif f == C:
                pairs = [(C, C)]
            elif f == R:
                pairs = [(R, R)]
            else:
                pairs = [(W, R), (R, W)]
            opts.append(pairs)
        key = state & self._spread(cd.cgmask, nbag)

        def search(pos, s1, s2):
            if pos == nbag:
                if s1 in t1 and s2 in t2:
                    return s1, s2
                return None
            fo = pos * vb + cd.fofs
            for f1, f2 in opts[pos]:
                hit = search(pos + 1, s1 | f1 << fo, s2 | f2 << fo)
                if hit:
                    return hit
            return None

        hit = search(0, key, key)
        if hit is None:
            raise AssertionError("true join entry without consistent child states")
        return hit


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
