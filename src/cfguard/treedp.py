"""The skeleton both coloring DPs share over a nice tree decomposition.

A bag state is one integer holding one fixed-width field per sorted-bag
position.  A solver subclass supplies the field layout (its codec), the
states of a freshly introduced vertex, the states a vertex may be forgotten
in, and the forget, introduce-edge and join recurrences with their witness
inverses; this module runs the bottom-up table pass, the top-down witness
extraction, the timed decision call and the search for the smallest k.

Renaming colors commutes with every recurrence, so every true table is
closed under renamings and need store only one state per orbit.  A solver's
codec names the bits of a position's field that a renaming rewrites
(``canonfield``, the key) and ``canon_key(key, nbag)``, the key of its
orbit's representative; the other bits stay as they are.  All states
with one key share its canonical form, so it is memoized per key, not
computed per state.  Introduce-edge and join never change the key, so their
outputs stay canonical; introduce and forget move positions, so their
outputs are canonicalized through memos, per (bag size, position), from a
child key to its canonical outputs.  Witness extraction keeps real colors
and canonicalizes only its table lookups.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Optional

from .decomposition import FORGET, INTRODUCE, INTRODUCE_EDGE, LEAF, NiceTreeDecomposition
from .errors import InternalConsistencyError
from .graph import Coloring, Graph


class Memo(dict):
    """A dict that fills a missing entry with ``fill(key)``."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class Codec:
    """Bit layout of one bag position: ``vbits`` bits per position.

    ``canonfield`` holds the bits of a field that a color renaming rewrites,
    the key; ``canon_key(key, nbag)`` gives the key of the representative of
    ``key``'s orbit.  By default no renaming is exploited: the key is empty
    and every state is its own representative.
    """

    vbits: int
    canonfield = 0

    def spread(self, field: int, nbag: int) -> int:
        """``field`` repeated at each of the first ``nbag`` bag positions."""
        mask = 0
        for pos in range(nbag):
            mask |= field << pos * self.vbits
        return mask

    def canon_key(self, key: int, nbag: int) -> int:
        return key


def _intro_memo(cd: Codec, codes: tuple[int, ...], keymasks: Memo, canons: Memo, shape: tuple[int, int]) -> Memo:
    """From a child key to the canonical states it gives with each intro code inserted at position ``pos``."""
    nbag, pos = shape
    shift = pos * cd.vbits
    up = shift + cd.vbits
    lowmask = (1 << shift) - 1
    shifted = [code << shift for code in codes]
    keymask, canon = keymasks[nbag], canons[nbag]

    def outputs(key: int) -> tuple[int, ...]:
        base = ((key >> shift) << up) | (key & lowmask)
        out = {}
        for code in shifted:
            s = base | code
            skey = s & keymask
            out[canon[skey] | (s ^ skey)] = None
        return tuple(out)

    return Memo(outputs)


def _drop_memo(cd: Codec, canons: Memo, shape: tuple[int, int]) -> Memo:
    """From a key over ``nbag`` positions to the canonical key without position ``pos``."""
    nbag, pos = shape
    shift = pos * cd.vbits
    up = shift + cd.vbits
    lowmask = (1 << shift) - 1
    canon = canons[nbag - 1]
    return Memo(lambda key: canon[((key >> up) << shift) | (key & lowmask)])


class TreeDP:
    """Sparse-table DP over ``ntd``; a table holds the canonical true states of its node.

    A subclass sets ``codec``, a ``Codec`` built from k, and defines
    ``intro_codes()``, the field codes of a freshly introduced (isolated)
    vertex; ``forget_codes()``, the (field code, color) pairs a vertex may be
    forgotten in, in witness preference order; the ``_forget``,
    ``_introduce_edge`` and ``_join`` recurrences; and their inverses
    ``_extract_edge`` and ``_extract_join``.
    """

    codec: type

    def __init__(self, g: Graph, k: int, ntd: NiceTreeDecomposition):
        if k < 1:
            raise ValueError("k must be positive")
        self.g = g
        self.k = k
        self.ntd = ntd
        self.cd = cd = self.codec(k)
        self.tables: dict[int, set[int]] = {}
        self.states_evaluated = 0
        # by bag size nbag, or by (nbag, position), then by key; no memo refers
        # to the solver, whose tables are then freed as soon as it is dropped
        self._keymasks = Memo(partial(cd.spread, cd.canonfield))
        self._canon = Memo(lambda nbag: Memo(partial(cd.canon_key, nbag=nbag)))
        self._intros = Memo(partial(_intro_memo, cd, self.intro_codes(), self._keymasks, self._canon))
        self._drops = Memo(partial(_drop_memo, cd, self._canon))

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
        nbag = len(nd.bag)
        pos = nd.bag.index(nd.vertex)
        shift = pos * self.cd.vbits
        up = shift + self.cd.vbits
        lowmask = (1 << shift) - 1
        keymask = self._keymasks[nbag - 1]
        outputs = self._intros[nbag, pos]
        out = set()
        add = out.add
        for s in child:
            key = s & keymask
            rest = s ^ key
            if rest:
                rest = ((rest >> shift) << up) | (rest & lowmask)
            for t in outputs[key]:
                add(t | rest)
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

    def _flip(self, state: int, nbag: int) -> int:
        """The mask whose xor takes any state with ``state``'s key to its representative."""
        key = state & self._keymasks[nbag]
        return key ^ self._canon[nbag][key]

    def _extract_forget(self, nd, state, col, forget_codes):
        child = nd.children[0]
        pos = self.ntd.nodes[child].bag.index(nd.vertex)
        nbag = len(nd.bag) + 1
        shift = pos * self.cd.vbits
        lowmask = (1 << shift) - 1
        base = ((state >> shift) << shift + self.cd.vbits) | (state & lowmask)
        table = self.tables[child]
        keymask, canon = self._keymasks[nbag], self._canon[nbag]
        for code, c in forget_codes:
            s = base | code << shift
            key = s & keymask
            if canon[key] | (s ^ key) in table:
                col[nd.vertex] = c
                return child, s
        raise InternalConsistencyError("true forget entry without a producing child state")


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
