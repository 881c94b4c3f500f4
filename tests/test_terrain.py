from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from cfguard.errors import FormatError
from cfguard.graph import Coloring, verify_conflict_free, verify_strong_conflict_free
from cfguard.terrain import (
    GuardColoring,
    Terrain,
    cf_guard,
    onion_peeling,
    orientation,
    parse_terrain,
    pipeline,
    random_terrain,
    sees,
    strong_guard,
    terrain_svg,
    verify_guarding,
    visibility_graph,
    write_terrain,
)


def figure_terrain() -> Terrain:
    text = resources.files("cfguard").joinpath("data/figure_terrain.txt").read_text()
    return parse_terrain(text)


def terrains(max_n=20):
    return st.tuples(st.integers(2, max_n), st.integers(0, 10**6)).map(
        lambda t: random_terrain(t[0], 0, 15, t[1])
    )


class TestBasics:
    def test_orientation_signs(self):
        assert orientation((0, 0), (2, 0), (1, 1)) == 1
        assert orientation((0, 0), (2, 0), (1, -1)) == -1
        assert orientation((0, 0), (2, 0), (1, 0)) == 0

    def test_terrain_validation(self):
        with pytest.raises(ValueError):
            Terrain(())
        with pytest.raises(ValueError):
            Terrain(((0, 0), (0, 1)))
        with pytest.raises(ValueError):
            Terrain(((0, 1 << 50),))

    def test_consecutive_vertices_see_each_other(self):
        t = random_terrain(15, 0, 10, 3)
        assert all(sees(t, i, i + 1) for i in range(t.n - 1))

    def test_peak_blocks(self):
        t = Terrain(((0, 0), (1, 5), (2, 0)))
        assert not sees(t, 0, 2)
        assert sees(t, 0, 1)

    def test_collinear_point_does_not_block(self):
        t = Terrain(((0, 0), (1, 1), (2, 2)))
        assert sees(t, 0, 2)

    @pytest.mark.parametrize("n, y_hi", [(40, 3), (40, 15), (120, 1), (120, 40)])
    def test_sweep_matches_pairwise_sees(self, n, y_hi):
        # y in 0..1 or 0..3 makes long collinear runs, where a tie decides visibility
        for seed in range(25):
            t = random_terrain(n, 0, y_hi, seed)
            want = {(i, j) for i in range(n) for j in range(i + 1, n) if sees(t, i, j)}
            assert set(visibility_graph(t).edges) == want

    def test_sweep_on_collinear_and_flat_runs(self):
        t = Terrain(((0, 0), (1, 1), (2, 2), (3, 2), (4, 2), (6, 0), (7, 3), (8, 6)))
        want = {(i, j) for i in range(t.n) for j in range(i + 1, t.n) if sees(t, i, j)}
        assert set(visibility_graph(t).edges) == want

    @settings(max_examples=30, deadline=None)
    @given(terrains(12))
    def test_visibility_symmetric_and_chain(self, t):
        g = visibility_graph(t)
        for i in range(t.n - 1):
            assert g.has_edge(i, i + 1)
        for i, j in g.edges:
            assert sees(t, j, i)


class TestOnionPeeling:
    def test_figure_layers(self):
        peel = onion_peeling(figure_terrain())
        assert peel.p == 4
        assert peel.layers == (
            (0, 1, 9, 11, 17, 19, 20),
            (2, 3, 7, 13, 15, 18),
            (4, 5, 8, 14, 16),
            (6, 10, 12),
        )

    def test_convex_terrain_single_layer(self):
        t = Terrain(((0, 0), (1, 3), (2, 5), (3, 6), (4, 5), (5, 3), (6, 0)))
        assert onion_peeling(t).p == 1

    @settings(max_examples=40, deadline=None)
    @given(terrains())
    def test_layers_partition_vertices(self, t):
        peel = onion_peeling(t)
        seen = [v for layer in peel.layers for v in layer]
        assert sorted(seen) == list(range(t.n))
        assert len(seen) == len(set(seen))


class TestGuarding:
    def test_figure_strong_colors(self):
        gc = strong_guard(figure_terrain())
        assert gc.colors == [0, 2, 4, 0, 0, 5, 0, 3, 0, 0, 3, 1, 0, 3, 5, 0, 4, 0, 3, 2, 0]

    def test_figure_cf_colors(self):
        gc = cf_guard(figure_terrain())
        assert gc.colors == [0, 2, 3, 0, 0, 3, 0, 2, 0, 0, 2, 1, 0, 2, 3, 0, 3, 0, 2, 2, 0]

    def test_figure_apex_and_flanks(self):
        gc = strong_guard(figure_terrain())
        assert gc.colors[11] == 1  # highest first-layer vertex
        assert gc.colors[1] == 2 and gc.colors[19] == 2

    @settings(max_examples=40, deadline=None)
    @given(terrains())
    def test_budgets_and_domination(self, t):
        p = onion_peeling(t).p
        g = visibility_graph(t)
        stats: dict = {}
        for gc, budget in ((strong_guard(t, stats=stats), 2 * p), (cf_guard(t), p + 1)):
            assert 0 < gc.K <= budget
            for v in range(t.n):
                assert any(gc.colors[u] for u in (v, *g.adj[v]))
        assert stats["p"] == p
        assert not stats["depth_exceeded_p"]

    def test_single_layer_terrain_verifies(self):
        # on one convex layer the construction is exact: the visibility graph
        # is a path and alternating guards satisfy both verifiers
        t = Terrain(((0, 0), (1, 3), (2, 5), (3, 6), (4, 5), (5, 3), (6, 0)))
        assert verify_guarding(t, strong_guard(t), "strong") is None
        assert verify_guarding(t, cf_guard(t), "cf") is None

    def test_deep_convex_valley(self):
        # each layer's hull is the two rims, so the gaps nest 1050 deep:
        # deeper than the interpreter's recursion limit
        t = Terrain(tuple((x, (x - 1050) ** 2) for x in range(2100)))
        stats: dict = {}
        gc = strong_guard(t, stats=stats)
        assert stats == {"max_depth": 1050, "p": 1050, "depth_exceeded_p": False}
        # one guard per layer, the higher rim, in colors 1, 3, 5, ...
        assert gc.K == 2 * 1050 - 1
        assert sum(1 for c in gc.colors if c) == 1050

    def test_verify_guarding_modes(self):
        t = figure_terrain()
        gc = GuardColoring([0] * t.n)
        assert verify_guarding(t, gc, "strong") == 0
        with pytest.raises(ValueError):
            verify_guarding(t, gc, "weak")


class TestPipeline:
    def test_two_vertex_terrain(self):
        t = Terrain(((0, 0), (1, 1)))
        k, gc, stats = pipeline(t, "scfc")
        assert k == 1
        assert stats["p"] == 1

    def test_figure_scfc_within_budget(self):
        t = figure_terrain()
        k, gc, stats = pipeline(t, "scfc")
        assert k <= 2 * stats["p"]
        g = visibility_graph(t)
        assert verify_strong_conflict_free(g, Coloring(k, gc.colors)) is None

    @settings(max_examples=15, deadline=None)
    @given(terrains(10))
    def test_cfc_witness_verifies_within_budget(self, t):
        k, gc, stats = pipeline(t, "cfc")
        assert k <= stats["p"] + 1
        g = visibility_graph(t)
        assert verify_conflict_free(g, Coloring(k, gc.colors)) is None

    def test_rejects_unknown_problem(self):
        with pytest.raises(ValueError):
            pipeline(Terrain(((0, 0),)), "chromatic")


class TestFormatsAndSvg:
    def test_round_trip(self):
        t = random_terrain(12, 0, 9, 5)
        assert parse_terrain(write_terrain(t)) == t

    def test_random_terrain_deterministic(self):
        assert random_terrain(10, 0, 9, 2) == random_terrain(10, 0, 9, 2)

    def test_parse_errors(self):
        with pytest.raises(FormatError):
            parse_terrain("")
        with pytest.raises(FormatError):
            parse_terrain("1 2 3\n")
        with pytest.raises(FormatError):
            parse_terrain("0 0\n0 1\n")
        with pytest.raises(FormatError):
            parse_terrain("a b\n")

    def test_comments_ignored(self):
        t = parse_terrain("# heights\n0 1 # start\n\n2 3\n")
        assert t.points == ((0, 1), (2, 3))

    def test_svg_contains_layers_and_guards(self):
        t = figure_terrain()
        svg = terrain_svg(t, peel=onion_peeling(t), gc=strong_guard(t))
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 1 + 4  # terrain + one chain per layer
        assert "<circle" in svg and "</svg>" in svg
