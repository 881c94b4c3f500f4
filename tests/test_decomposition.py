import pytest
from hypothesis import given, settings, strategies as st

from cfguard.cfc import cf_number
from cfguard.decomposition import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    TreeDecomposition,
    dump_nice,
    exact_treewidth,
    make_nice,
    min_fill_decomposition,
    validate,
    validate_nice,
)
from cfguard.errors import InstanceTooLargeError
from cfguard.graph import Graph, random_graph, verify_conflict_free


def graphs(max_n=9):
    return st.tuples(
        st.integers(1, max_n), st.integers(0, 10), st.integers(0, 10**6)
    ).map(lambda t: random_graph(t[0], t[1] / 10, t[2]))


# make_nice on the 7-vertex complete binary tree; pins the order of the nodes
BINARY_TREE_DUMP = """\
node 0 leaf - children= bag=
node 1 introduce 1 children=0 bag=1
node 2 introduce 4 children=1 bag=1,4
node 3 introduce_edge 1-4 children=2 bag=1,4
node 4 forget 4 children=3 bag=1
node 5 introduce 0 children=4 bag=0,1
node 6 leaf - children= bag=
node 7 introduce 2 children=6 bag=2
node 8 introduce 5 children=7 bag=2,5
node 9 introduce_edge 2-5 children=8 bag=2,5
node 10 forget 5 children=9 bag=2
node 11 introduce 6 children=10 bag=2,6
node 12 leaf - children= bag=
node 13 introduce 6 children=12 bag=6
node 14 introduce 2 children=13 bag=2,6
node 15 join - children=11,14 bag=2,6
node 16 introduce_edge 2-6 children=15 bag=2,6
node 17 forget 6 children=16 bag=2
node 18 introduce 0 children=17 bag=0,2
node 19 introduce_edge 0-2 children=18 bag=0,2
node 20 forget 2 children=19 bag=0
node 21 introduce 1 children=20 bag=0,1
node 22 join - children=5,21 bag=0,1
node 23 introduce_edge 0-1 children=22 bag=0,1
node 24 forget 0 children=23 bag=1
node 25 introduce 3 children=24 bag=1,3
node 26 introduce_edge 1-3 children=25 bag=1,3
node 27 forget 1 children=26 bag=3
node 28 forget 3 children=27 bag=
"""


class TestMinFill:
    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_decomposition_is_valid(self, g):
        td = min_fill_decomposition(g)
        assert validate(g, td) is None

    def test_tree_width_one(self):
        g = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        assert min_fill_decomposition(g).width == 1

    def test_cycle_width_two(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert min_fill_decomposition(g).width == 2

    def test_empty_graph(self):
        td = min_fill_decomposition(Graph(0))
        assert validate(Graph(0), td) is None


class TestValidate:
    def test_detects_missing_vertex(self):
        td = TreeDecomposition(((0,),), frozenset())
        assert validate(Graph(2), td) == ("vertex-coverage", 1)

    def test_detects_missing_edge(self):
        td = TreeDecomposition(((0,), (1,)), frozenset({(0, 1)}))
        assert validate(Graph(2, [(0, 1)]), td) == ("edge-coverage", (0, 1))

    def test_detects_broken_connectivity(self):
        td = TreeDecomposition(((0, 1), (1,), (0,)), frozenset({(0, 1), (1, 2)}))
        g = Graph(2, [(0, 1)])
        assert validate(g, td) == ("connectivity", 0)

    # each case covers every vertex and edge, so only the tree axiom fails
    TREE_CASES = [
        ("forest", Graph(2), TreeDecomposition(((0,), (1,)), frozenset())),
        ("cycle", Graph(3), TreeDecomposition(((0,), (1,), (2,)), frozenset({(0, 1), (1, 2), (0, 2)}))),
        # n - 1 edges, but a cycle leaves bag 3 unreached
        ("cycle-and-isolated-bag", Graph(4), TreeDecomposition(((0,), (1,), (2,), (3,)), frozenset({(0, 1), (1, 2), (0, 2)}))),
        ("out-of-range", Graph(2), TreeDecomposition(((0,), (1,)), frozenset({(0, 5)}))),
        ("empty", Graph(0), TreeDecomposition((), frozenset())),
    ]

    @pytest.mark.parametrize("name,g,td", TREE_CASES, ids=[c[0] for c in TREE_CASES])
    def test_detects_non_tree(self, name, g, td):
        assert validate(g, td) == ("tree", len(td.bags))
        with pytest.raises(ValueError):
            make_nice(g, td)

    def test_tree_checked_before_connectivity(self):
        # bags 0 and 2 hold vertex 0 but are not joined; the forest verdict comes first
        td = TreeDecomposition(((0,), (1,), (0,)), frozenset({(0, 1)}))
        assert validate(Graph(2), td) == ("tree", 3)


class TestMakeNice:
    def test_single_vertex_shape(self):
        ntd = make_nice(Graph(1), min_fill_decomposition(Graph(1)))
        kinds = [ntd.nodes[i].kind for i in ntd.postorder()]
        assert kinds == [LEAF, INTRODUCE, FORGET]
        assert ntd.nodes[ntd.root].bag == ()

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_nice_invariants(self, g):
        ntd = make_nice(g, min_fill_decomposition(g))
        assert validate_nice(g, ntd) is None

    @settings(max_examples=30, deadline=None)
    @given(graphs())
    def test_width_preserved(self, g):
        td = min_fill_decomposition(g)
        assert make_nice(g, td).width == td.width

    def test_rejects_invalid_input(self):
        with pytest.raises(ValueError):
            make_nice(Graph(2, [(0, 1)]), TreeDecomposition(((0,), (1,)), frozenset({(0, 1)})))

    def test_deep_path_decomposition(self):
        # 5000 bags in a path: deeper than the interpreter's recursion limit
        n = 5000
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        bags = tuple((i, i + 1) for i in range(n - 1)) + ((n - 1,),)
        td = TreeDecomposition(bags, frozenset((i, i + 1) for i in range(n - 1)))
        assert validate(g, td) is None
        assert validate_nice(g, make_nice(g, td)) is None

    def test_dump_golden_binary_tree(self):
        g = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        ntd = make_nice(g, min_fill_decomposition(g))
        assert dump_nice(ntd) == BINARY_TREE_DUMP
        assert len(ntd.nodes) == 29
        assert sum(nd.kind == JOIN for nd in ntd.nodes) == 2

    def test_dump_round_shape(self):
        g = Graph(2, [(0, 1)])
        text = dump_nice(make_nice(g, min_fill_decomposition(g)))
        lines = text.strip().splitlines()
        assert all(line.startswith("node ") for line in lines)
        assert sum(" introduce_edge " in line for line in lines) == 1


class TestDeepInstances:
    def test_cf_number_on_long_path(self):
        n = 1500
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        k, col = cf_number(g)
        assert k == 1
        assert verify_conflict_free(g, col) is None


class TestExactTreewidth:
    def test_known_values(self):
        assert exact_treewidth(Graph(1)) == 0
        assert exact_treewidth(Graph(4, [(0, 1), (1, 2), (2, 3)])) == 1
        assert exact_treewidth(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])) == 2
        k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert exact_treewidth(k4) == 3

    def test_size_guard(self):
        with pytest.raises(InstanceTooLargeError):
            exact_treewidth(Graph(16))

    @settings(max_examples=30, deadline=None)
    @given(graphs(8))
    def test_min_fill_upper_bounds_exact(self, g):
        assert min_fill_decomposition(g).width >= exact_treewidth(g)
