"""The skeleton both coloring DPs share over a nice tree decomposition.

A bag state is one integer holding one fixed-width field per sorted-bag
position.  A solver subclass supplies the field layout (its codec), the
states of a freshly introduced vertex, the states a vertex may be forgotten
in, and the forget, introduce-edge and join recurrences with their witness
inverses; this module runs the bottom-up table pass, the top-down witness
extraction, the timed decision call and the search for the smallest k.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from .decomposition import FORGET, INTRODUCE, INTRODUCE_EDGE, LEAF, NiceTreeDecomposition
from .errors import InternalConsistencyError
from .graph import Coloring, Graph


class TreeDP:
    """Sparse-table DP over ``ntd``; a table holds only the true states of its node.

    A subclass sets ``codec`` (built from k, with the field width ``vbits``)
    and defines ``intro_codes()``, the field codes of a freshly introduced
    (isolated) vertex; ``forget_codes()``, the (field code, color) pairs a
    vertex may be forgotten in, in witness preference order; the
    ``_forget``, ``_introduce_edge`` and ``_join`` recurrences; and their
    inverses ``_extract_edge`` and ``_extract_join``.
    """

    codec: type

    def __init__(self, g: Graph, k: int, ntd: NiceTreeDecomposition):
        if k < 1:
            raise ValueError("k must be positive")
        self.g = g
        self.k = k
        self.ntd = ntd
        self.cd = self.codec(k)
        self.tables: dict[int, set[int]] = {}
        self.states_evaluated = 0

    def _spread(self, field: int, nbag: int) -> int:
        """``field`` repeated at each of the first ``nbag`` bag positions."""
        vb = self.cd.vbits
        mask = 0
        for pos in range(nbag):
            mask |= field << pos * vb
        return mask

    def run(self) -> bool:
        for i in self.ntd.postorder():
            nd = self.ntd.nodes[i]
            if nd.kind == LEAF:
                table = {0}
            elif nd.kind == INTRODUCE:
                table = self._introduce(nd)
            elif nd.kind == FORGET:
                table = self._forget(nd)
            elif nd.kind == INTRODUCE_EDGE:
                table = self._introduce_edge(nd)
            else:
                table = self._join(nd)
            self.tables[i] = table
            self.states_evaluated += len(table)
        return 0 in self.tables[self.ntd.root]

    def _introduce(self, nd) -> set[int]:
        child = self.tables[nd.children[0]]
        vb = self.cd.vbits
        pos = nd.bag.index(nd.vertex)
        lowmask = (1 << pos * vb) - 1
        shifted = [code << pos * vb for code in self.intro_codes()]
        out = set()
        add = out.add
        for s in child:
            base = ((s >> pos * vb) << (pos + 1) * vb) | (s & lowmask)
            for sc in shifted:
                add(base | sc)
        return out

    # -- witness extraction -------------------------------------------------

    def extract(self) -> Coloring:
        col = [0] * self.g.n
        forget_codes = self.forget_codes()
        vb = self.cd.vbits
        stack = [(self.ntd.root, 0)]
        while stack:
            node, state = stack.pop()
            nd = self.ntd.nodes[node]
            if nd.kind == LEAF:
                continue
            if nd.kind == INTRODUCE:
                pos = nd.bag.index(nd.vertex)
                lowmask = (1 << pos * vb) - 1
                child_state = ((state >> (pos + 1) * vb) << pos * vb) | (state & lowmask)
                stack.append((nd.children[0], child_state))
            elif nd.kind == FORGET:
                stack.append(self._extract_forget(nd, state, col, forget_codes))
            elif nd.kind == INTRODUCE_EDGE:
                stack.append((nd.children[0], self._extract_edge(nd, state)))
            else:
                s1, s2 = self._extract_join(nd, state)
                stack.append((nd.children[0], s1))
                stack.append((nd.children[1], s2))
        return Coloring(self.k, col)

    def _extract_forget(self, nd, state, col, forget_codes):
        vb = self.cd.vbits
        child = nd.children[0]
        pos = self.ntd.nodes[child].bag.index(nd.vertex)
        lowmask = (1 << pos * vb) - 1
        base = ((state >> pos * vb) << (pos + 1) * vb) | (state & lowmask)
        table = self.tables[child]
        for code, c in forget_codes:
            s = base | code << pos * vb
            if s in table:
                col[nd.vertex] = c
                return child, s
        raise AssertionError("true forget entry without a producing child state")


def solve(solver: TreeDP, start: float, stats: Optional[dict]) -> Optional[Coloring]:
    """Decide with ``solver`` and extract a witness when feasible.

    ``stats`` receives the node count, the states evaluated, the width and
    the milliseconds since ``start``.
    """
    feasible = solver.run()
    result = solver.extract() if feasible else None
    if stats is not None:
        stats.update(
            nodes=len(solver.ntd.nodes),
            states_evaluated=solver.states_evaluated,
            width=solver.ntd.width,
            millis=round((time.perf_counter() - start) * 1000, 3),
        )
    return result


def min_k(
    solve_k: Callable[..., Optional[Coloring]],
    g: Graph,
    ntd: NiceTreeDecomposition,
    budget: int,
    start: float,
    stats: Optional[dict],
) -> tuple[int, Coloring]:
    """Smallest k in 1..budget for which ``solve_k`` colors ``g``, with its witness.

    Every k is solved on the one decomposition ``ntd``.  ``stats`` receives
    the fields of the last solve, except that ``states_evaluated`` sums the
    states of every k tried and ``millis`` runs from ``start``.
    """
    states = 0
    last: dict = {}
    for k in range(1, budget + 1):
        col = solve_k(g, k, ntd=ntd, stats=last)
        states += last["states_evaluated"]
        if col is not None:
            if stats is not None:
                stats.update(
                    last,
                    states_evaluated=states,
                    millis=round((time.perf_counter() - start) * 1000, 3),
                )
            return k, col
    raise InternalConsistencyError(f"{solve_k.__name__} found no coloring within the budget of {budget} colors")
