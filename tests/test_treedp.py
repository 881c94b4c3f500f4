"""The shared tree-DP code: minimum-k search statistics and the benchmark's tracing hooks."""

import os
import sys

import pytest

import cfguard
from cfguard.cfc import cf_number, solve_cfc
from cfguard.decomposition import make_nice, min_fill_decomposition
from cfguard.graph import random_graph
from cfguard.scfc import scf_number, solve_scfc

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
