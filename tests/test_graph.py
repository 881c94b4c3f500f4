import pytest
from hypothesis import given, settings, strategies as st

from cfguard.errors import FormatError, InstanceTooLargeError
from cfguard.graph import (
    Coloring,
    Graph,
    closed_neighborhood,
    degeneracy,
    greedy_color_bound,
    oracle_cfc,
    oracle_scfc,
    parse_graph,
    random_graph,
    verify_conflict_free,
    verify_strong_conflict_free,
    write_graph,
)

P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def graphs(max_n=7):
    def build(draw_n_seed):
        n, p10, seed = draw_n_seed
        return random_graph(n, p10 / 10, seed)

    return st.tuples(
        st.integers(1, max_n), st.integers(0, 10), st.integers(0, 10**6)
    ).map(build)


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_deduplicates_edges(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert g.m == 1
        assert g.adj[0] == (1,)

    def test_closed_neighborhood(self):
        assert closed_neighborhood(P4, 1) == {0, 1, 2}
        assert closed_neighborhood(P4, 0) == {0, 1}

    def test_coloring_bounds(self):
        with pytest.raises(ValueError):
            Coloring(1, [2])
        with pytest.raises(ValueError):
            Coloring(0, [])


class TestVerifiers:
    def test_cf_ok(self):
        assert verify_conflict_free(P4, Coloring(1, [1, 0, 0, 1])) is None

    def test_cf_violation_vertex(self):
        # vertex 1 is the first whose closed neighborhood sees two 1s and no
        # other nonzero color
        assert verify_conflict_free(P4, Coloring(1, [0, 1, 1, 0])) == 1

    def test_all_zero_rejected(self):
        assert verify_conflict_free(P4, Coloring(1, [0, 0, 0, 0])) == 0
        assert verify_strong_conflict_free(P4, Coloring(1, [0, 0, 0, 0])) == 0

    def test_strong_duplicate_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert verify_strong_conflict_free(g, Coloring(1, [1, 0, 1])) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            verify_conflict_free(P4, Coloring(1, [1]))

    @settings(max_examples=60, deadline=None)
    @given(graphs(6), st.integers(1, 3), st.integers(0, 10**6))
    def test_strong_implies_weak(self, g, k, seed):
        import random

        rng = random.Random(seed)
        col = Coloring(k, [rng.randint(0, k) for _ in range(g.n)])
        if verify_strong_conflict_free(g, col) is None:
            assert verify_conflict_free(g, col) is None


class TestDegeneracy:
    def test_path(self):
        assert degeneracy(P4)[0] == 1

    def test_clique(self):
        assert degeneracy(K4)[0] == 3

    def test_cycle(self):
        assert degeneracy(C4)[0] == 2

    @pytest.mark.parametrize("n, p", [(30, 0.1), (60, 0.05), (40, 0.3), (200, 0.02)])
    def test_matches_min_scan(self, n, p):
        """Order and value equal those of a ``min`` over the remaining vertices, ties by smallest id."""
        for seed in range(20):
            g = random_graph(n, p, seed)
            remaining = set(range(g.n))
            deg = [len(g.adj[v]) for v in range(g.n)]
            order, d = [], 0
            while remaining:
                v = min(remaining, key=lambda u: (deg[u], u))
                d = max(d, deg[v])
                order.append(v)
                remaining.discard(v)
                for u in g.adj[v]:
                    if u in remaining:
                        deg[u] -= 1
            assert degeneracy(g) == (d, order)

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_greedy_bound_is_conflict_free(self, g):
        col = greedy_color_bound(g)
        assert col.k <= degeneracy(g)[0] + 1
        assert verify_conflict_free(g, col) is None


class TestOracles:
    def test_p4_k1(self):
        col = oracle_cfc(P4, 1)
        assert col is not None and verify_conflict_free(P4, col) is None

    def test_c4_k1_absent(self):
        assert oracle_cfc(C4, 1) is None

    def test_c4_k2(self):
        assert oracle_cfc(C4, 2) is not None
        assert oracle_scfc(C4, 2) is not None

    def test_k1(self):
        g = Graph(1)
        assert oracle_cfc(g, 1).assignment == (1,)
        assert oracle_scfc(g, 1).assignment == (1,)

    def test_star_scfc_k1(self):
        star = Graph(5, [(0, i) for i in range(1, 5)])
        assert oracle_scfc(star, 1) is not None

    def test_budget_guard(self):
        with pytest.raises(InstanceTooLargeError):
            oracle_cfc(random_graph(30, 0.5, 1), 3)

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            oracle_cfc(P4, 0)

    @settings(max_examples=25, deadline=None)
    @given(graphs(5), st.integers(1, 2))
    def test_monotone_in_k(self, g, k):
        if oracle_cfc(g, k) is not None:
            assert oracle_cfc(g, k + 1) is not None
        if oracle_scfc(g, k) is not None:
            assert oracle_scfc(g, k + 1) is not None


class TestRandomAndFormat:
    def test_random_graph_deterministic(self):
        assert random_graph(8, 0.5, 7) == random_graph(8, 0.5, 7)
        assert random_graph(8, 0.5, 7) != random_graph(8, 0.5, 8)

    def test_round_trip(self):
        g = random_graph(9, 0.4, 3)
        assert parse_graph(write_graph(g)) == g

    def test_parse_errors(self):
        with pytest.raises(FormatError):
            parse_graph("")
        with pytest.raises(FormatError):
            parse_graph("p 2 1\nx 1 2\n")
        with pytest.raises(FormatError):
            parse_graph("p 2 2\ne 1 2\n")
        with pytest.raises(FormatError):
            parse_graph("e 1 2\np 2 1\n")
        with pytest.raises(FormatError):
            parse_graph("p 2 1\ne 1 3\n")
        with pytest.raises(FormatError):
            parse_graph("p 2 1\ne 1 1\n")
        with pytest.raises(FormatError):
            parse_graph("p -1 0\n")
