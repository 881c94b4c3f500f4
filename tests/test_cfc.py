import random

import pytest
from hypothesis import given, settings, strategies as st

from cfguard.cfc import CfcSolver, cf_number, solve_cfc
from cfguard.decomposition import make_nice, min_fill_decomposition
from cfguard.graph import (
    Graph,
    degeneracy,
    oracle_cfc,
    random_graph,
    verify_conflict_free,
)

C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
P6 = Graph(6, [(i, i + 1) for i in range(5)])


def graphs(max_n=7):
    return st.tuples(
        st.integers(1, max_n), st.integers(0, 10), st.integers(0, 10**6)
    ).map(lambda t: random_graph(t[0], t[1] / 10, t[2]))


class TestSolve:
    def test_c4_k1_absent(self):
        assert solve_cfc(C4, 1) is None

    def test_c4_k2_witness(self):
        col = solve_cfc(C4, 2)
        assert col is not None
        assert verify_conflict_free(C4, col) is None

    def test_edgeless_all_self_colored(self):
        g = Graph(5)
        col = solve_cfc(g, 1)
        assert col.assignment == (1, 1, 1, 1, 1)

    def test_k2_pair(self):
        g = Graph(2, [(0, 1)])
        assert solve_cfc(g, 1) is not None

    def test_stats_fields(self):
        stats = {}
        solve_cfc(C4, 2, stats=stats)
        assert set(stats) == {"nodes", "states_evaluated", "width", "millis"}
        assert stats["width"] == 2

    @settings(max_examples=40, deadline=None)
    @given(graphs(), st.integers(1, 3))
    def test_matches_oracle(self, g, k):
        mine = solve_cfc(g, k)
        ref = oracle_cfc(g, k)
        assert (mine is None) == (ref is None)
        if mine is not None:
            assert verify_conflict_free(g, mine) is None
            assert max(mine.assignment) <= k

    @settings(max_examples=25, deadline=None)
    @given(graphs(6), st.integers(1, 2))
    def test_monotone_in_k(self, g, k):
        if solve_cfc(g, k) is not None:
            assert solve_cfc(g, k + 1) is not None

    @settings(max_examples=25, deadline=None)
    @given(graphs(6), st.integers(0, 10**6))
    def test_relabeling_invariance(self, g, seed):
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        for k in (1, 2):
            assert (solve_cfc(g, k) is None) == (solve_cfc(h, k) is None)


# witnesses pinned across rewrites of the DP tables; every decomposition here
# has joins, so they also pin the order in which a join's child states are tried
GOLDEN_SOLVES = [
    ((12, 0.2, 4), 2, (1, 0, 0, 1, 0, 0, 1, 2, 2, 1, 2, 0)),
    ((12, 0.2, 4), 3, (1, 0, 0, 1, 0, 0, 1, 2, 2, 1, 2, 0)),
    ((8, 0.4, 5), 2, (1, 1, 0, 2, 0, 2, 0, 0)),
    ((8, 0.4, 5), 3, (1, 1, 3, 0, 2, 2, 0, 0)),
    ((10, 0.35, 6), 2, (0, 2, 2, 0, 1, 0, 0, 1, 2, 0)),
    ((10, 0.35, 6), 3, (2, 2, 3, 0, 1, 0, 0, 1, 2, 0)),
    ((12, 0.3, 7), 2, (1, 1, 0, 1, 0, 0, 2, 0, 0, 2, 0, 0)),
    ((12, 0.3, 7), 3, (1, 1, 0, 1, 0, 0, 2, 0, 0, 2, 0, 0)),
]


class TestGoldenWitnesses:
    @pytest.mark.parametrize("params,k,expected", GOLDEN_SOLVES)
    def test_solve(self, params, k, expected):
        assert solve_cfc(random_graph(*params), k).assignment == expected

    @pytest.mark.parametrize("params,k,expected", [
        ((8, 0.4, 5), 2, (1, 1, 0, 2, 0, 2, 0, 0)),
        ((10, 0.35, 6), 2, (0, 2, 2, 0, 1, 0, 0, 1, 2, 0)),
    ])
    def test_cf_number(self, params, k, expected):
        kk, col = cf_number(random_graph(*params))
        assert (kk, col.assignment) == (k, expected)


def first_appearance(cd, state: int, nbag: int) -> int:
    """``state`` with colors renamed 1, 2, ... by first appearance, c before gamma, in bag order."""
    label = {0: 0}
    out = 0
    for pos in range(nbag):
        field = state >> pos * cd.vbits
        c, gm, p = field & cd.cmask, ((field >> cd.cbits) & cd.gmask) + 1, (field >> cd.pofs) & 1
        label.setdefault(c, len(label))
        label.setdefault(gm, len(label))
        out |= cd.code(label[c], label[gm], p) << pos * cd.vbits
    return out


class TestOrbits:
    @pytest.mark.parametrize("params,k", [((12, 0.2, 4), 3), ((8, 0.4, 5), 3), ((10, 0.35, 6), 2), ((9, 0.5, 2), 3)])
    def test_tables_hold_only_representatives(self, params, k):
        g = random_graph(*params)
        solver = CfcSolver(g, k, make_nice(g, min_fill_decomposition(g)))
        solver.run()
        for i, table in solver.tables.items():
            nbag = len(solver.ntd.nodes[i].bag)
            for s in table:
                assert first_appearance(solver.cd, s, nbag) == s

    def test_one_state_per_orbit(self):
        # at the parent of this layout the full tables held 11,167,569 states;
        # 1,861,624 orbits of the 3! color renamings
        stats = {}
        col = solve_cfc(random_graph(8, 0.5, 94), 3, stats=stats)
        assert stats["states_evaluated"] == 1861624
        assert col.assignment == (0, 1, 0, 0, 2, 0, 0, 0)


class TestCfNumber:
    def test_singleton(self):
        k, col = cf_number(Graph(1))
        assert k == 1 and col.assignment == (1,)

    def test_c4(self):
        assert cf_number(C4)[0] == 2

    def test_p6_equals_oracle_minimum(self):
        k, col = cf_number(P6)
        ref = next(kk for kk in range(1, 7) if oracle_cfc(P6, kk) is not None)
        assert k == ref
        assert verify_conflict_free(P6, col) is None

    @settings(max_examples=30, deadline=None)
    @given(graphs())
    def test_within_degeneracy_bound(self, g):
        k, col = cf_number(g)
        assert k <= degeneracy(g)[0] + 1
        assert verify_conflict_free(g, col) is None
