"""The shared tree-DP code: minimum-k search statistics and the benchmark's tracing hooks."""

import gc
import os
import sys
import weakref

import pytest

import cfguard
from cfguard.cfc import CfcSolver, cf_number, solve_cfc
from cfguard.decomposition import FORGET, INTRODUCE_EDGE, JOIN, make_nice, min_fill_decomposition
from cfguard.errors import InternalConsistencyError
from cfguard.graph import random_graph
from cfguard.scfc import ScfcSolver, scf_number, solve_scfc

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("search, solve", [(cf_number, solve_cfc), (scf_number, solve_scfc)])
@pytest.mark.parametrize("n, p, seed", [(1, 0.0, 0), (9, 0.5, 1), (14, 0.3, 3)])
def test_min_k_stats_sum_every_k(search, solve, n, p, seed):
    g = random_graph(n, p, seed)
    stats: dict = {}
    k, _ = search(g, stats=stats)
    ntd = make_nice(g, min_fill_decomposition(g))
    total = 0
    for kk in range(1, k + 1):
        sub: dict = {}
        solve(g, kk, ntd=ntd, stats=sub)
        total += sub["states_evaluated"]
    assert stats["states_evaluated"] == total
    assert set(stats) == {"nodes", "states_evaluated", "width", "millis"}


@pytest.mark.parametrize("solver_class", [CfcSolver, ScfcSolver])
@pytest.mark.parametrize("kind", [FORGET, INTRODUCE_EDGE, JOIN])
def test_extraction_reports_a_missing_child_state(solver_class, kind):
    """Extraction walks every node, so a node whose child table lost its states cannot be traced back."""
    g = random_graph(12, 0.2, 4)
    solver = solver_class(g, 3, make_nice(g, min_fill_decomposition(g)))
    assert solver.run()
    node = next(nd for nd in solver.ntd.nodes if nd.kind == kind)
    solver.tables[node.children[0]].clear()
    with pytest.raises(InternalConsistencyError):
        solver.extract()


@pytest.mark.parametrize("solver_class", [CfcSolver, ScfcSolver])
def test_solver_freed_without_cycle_collection(solver_class):
    """No memo refers back to the solver, so its tables go when the last reference does."""
    g = random_graph(10, 0.35, 6)
    solver = solver_class(g, 2, make_nice(g, min_fill_decomposition(g)))
    if solver.run():
        solver.extract()
    ref = weakref.ref(solver)
    gc.disable()
    try:
        del solver
        assert ref() is None
    finally:
        gc.enable()


def test_benchmark_tracer_hooks():
    """perfbench/tracer.py replaces functions by name; a renamed or bypassed hook shows here."""
    sys.path.insert(0, PERFBENCH)
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(PERFBENCH)
    original = cfguard.cfc.cf_number
    tracer = Tracer(cfguard)
    tracer.install()
    try:
        k, _ = cfguard.cfc.cf_number(random_graph(8, 0.4, 1))
    finally:
        tracer.uninstall()
    assert cfguard.cfc.cf_number is original
    spans = tracer.spans
    names = [span[0] for span in spans]
    search = names.index("cfc.cf_number")
    assert spans[search][3] == -1
    for name in ("graph.degeneracy", "decomposition.min_fill_decomposition", "decomposition.make_nice",
                 "cfc.solve_cfc", "cfc.extract"):
        assert name in names
    runs = [i for i, name in enumerate(names) if name == "cfc.run"]
    assert len(runs) == k
    for i in runs:
        a = spans[i][3]
        while a >= 0 and a != search:
            a = spans[a][3]
        assert a == search
