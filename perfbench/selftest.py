"""Self-test of the reference checkers: they accept right outputs and reject corrupted ones.

    python3 perfbench/selftest.py

Every benchmark run calls ``run_all`` as part of its correctness check.  The
cases are small and fixed and need no cfguard: each reference computation is
compared with a slower definition-level one, and each workload check is fed
right outputs (built by brute force) and then corrupted ones (a flipped
witness colour, a dropped visibility edge, a wrong feasibility verdict, a
misplaced onion vertex, an unguarded vertex, a wrong state count) that it must
reject.
"""

from __future__ import annotations

import random
import sys

import checkers as ck
import tracer as tr
import workloads as wl


def _sees(points, i, j) -> bool:
    """Definition of visibility: no vertex strictly between lies above the segment."""
    (xa, ya), (xb, yb) = points[i], points[j]
    return all((xb - xa) * (y - ya) - (yb - ya) * (x - xa) <= 0 for x, y in points[i + 1:j])


def _checker(cls, instances):
    """A workload object holding only the given instances, for its ``check``."""
    w = cls.__new__(cls)
    w.instances = instances
    return w


def _valid(adj, colors, strong) -> bool:
    """Definition of a (strong) conflict-free colouring, written out plainly."""
    for v in range(len(adj)):
        seen = [colors[u] for u in adj[v] | {v} if colors[u]]
        if strong and (not seen or len(seen) != len(set(seen))):
            return False
        if not strong and all(seen.count(c) != 1 for c in seen):
            return False
    return True


def _flip(adj, colors, strong):
    """The witness with one vertex's colour changed so that it is no longer valid."""
    k = max(max(colors), 1)
    for v in range(len(colors)):
        for c in range(k + 1):
            out = list(colors)
            out[v] = c
            if not _valid(adj, out, strong):
                return tuple(out)
    raise AssertionError("no single-colour corruption breaks this witness")


def _ladder_records(adj, inst, problem, cap):
    """What a correct ``ladder`` run records for one instance."""
    strong = problem == "scfc"
    best = ck.min_colors_bruteforce(adj, strong, cap)
    records = []
    for k in range(1, cap + 1):
        if best and k >= best[0]:
            records.append(wl.Record(inst, f"solve_{problem}", k, tuple(best[1])))
            if k >= 2:
                break
        else:
            records.append(wl.Record(inst, f"solve_{problem}", k, None))
    return records


def run_all() -> list[str]:
    errs = []

    def expect(cond, what):
        if not cond:
            errs.append(f"self-test: {what}")

    # colouring verifiers: a valid witness passes, a flipped colour fails
    p3 = ck.adjacency(3, [(0, 1), (1, 2)])
    expect(ck.cf_violation(p3, [0, 1, 0]) is None, "CF verifier rejects a perfect code of P3")
    expect(ck.cf_violation(p3, [1, 1, 0]) == 0, "CF verifier accepts a flipped colour")
    expect(ck.scf_violation(p3, [1, 2, 0]) is None, "strong verifier rejects a valid colouring")
    expect(ck.scf_violation(p3, [1, 1, 0]) == 0, "strong verifier accepts a repeated colour")
    expect(ck.witness_problem(p3, [0, 3, 0], 2, False) is not None, "witness check accepts colour > k")

    # brute-force minima against known values
    for n in range(3, 10):
        best = ck.min_colors_bruteforce(ck.adjacency(n, wl.cycle(n)), False, 3)
        expect(best and best[0] == (1 if n % 3 == 0 else 2), f"brute-force CF minimum of C{n}")
    k4 = ck.adjacency(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    expect(ck.min_colors_bruteforce(k4, True, 4)[0] == 1, "strong CF minimum of K4 is 1")
    expect(ck.min_colors_bruteforce(ck.adjacency(3, [(0, 1), (1, 2), (0, 2)]), False, 1)[0] == 1,
           "CF minimum of a triangle is 1")

    # perfect-code DP against brute force; degeneracy against a known value
    rng = random.Random("selftest/trees")
    for trial in range(40):
        n = rng.randint(2, 10)
        if trial % 3 == 0:
            edges = wl.perfect_code_tree(rng, n)
        elif trial % 3 == 1 and n >= 3:
            edges = wl.random_forest(rng, n, rng.randint(2, 3))
        else:
            edges = wl.random_tree(rng, n)
        adj = ck.adjacency(n, edges)
        brute = ck.min_colors_bruteforce(adj, False, 1) is not None
        expect(ck.has_perfect_code(adj) == brute, f"perfect-code DP on {edges}")
        expect(trial % 3 or ck.has_perfect_code(adj), f"star tree without a perfect code: {edges}")
    three_tree = wl.partial_ktree(random.Random("selftest/deg"), 8, 3, drop=0)
    expect(ck.degeneracy(ck.adjacency(8, three_tree)) == 3, "degeneracy of a 3-tree is 3")

    # visibility, onion peeling and guards on small random terrains
    for trial in range(12):
        pts = wl.random_terrain_points(random.Random(f"selftest/terrain/{trial}"), 14)
        vis = ck.slope_sweep_visibility(pts)
        want = {(i, j) for i in range(14) for j in range(i + 1, 14) if _sees(pts, i, j)}
        expect(vis == want, f"slope sweep differs from the definition on terrain {trial}")
        layers = ck.onion_layers(pts)
        expect(ck.onion_problem(pts, layers) is None, f"onion check rejects a right peeling ({trial})")
        if len(layers) >= 2:
            moved = [list(layer) for layer in layers]
            moved[1].append(moved[0].pop(len(moved[0]) // 2))
            moved[1].sort()
            expect(ck.onion_problem(pts, moved) is not None, "a misplaced onion vertex goes unnoticed")
        expect(ck.onion_problem(pts, layers[:-1]) is not None, "a missing onion layer goes unnoticed")
        adj = ck.adjacency(14, vis)
        expect(ck.guard_problem(adj, [1] * 14, 1) is None, "guard check rejects full guarding")
        expect(ck.guard_problem(adj, [1] * 14, 0) is not None, "guard budget overrun goes unnoticed")
        lonely = next((v for v in range(14) if len(adj[v]) < 13), None)
        if lonely is not None:
            blind = [0 if u in adj[lonely] or u == lonely else 1 for u in range(14)]
            expect(ck.guard_problem(adj, blind, 1) is not None, "an unguarded vertex goes unnoticed")

    # ktree-decide's check: right records pass; a flipped colour or a wrong verdict fails
    c6, small_edges = wl.cycle(6), wl.partial_ktree(random.Random("selftest/small"), 7, 2, drop=0.3)
    insts = [wl.Instance("cycle", 6, c6), wl.Instance("small", 7, small_edges)]
    good = []
    for i, inst in enumerate(insts):
        good += _ladder_records(inst.adj, i, "cfc", 3) + _ladder_records(inst.adj, i, "scfc", 4)
    kd = _checker(wl.KtreeDecide, insts)
    expect(not kd.check(good), f"ktree check rejects right records: {kd.check(good)}")
    for pos, r in enumerate(good):
        bad = list(good)
        if r.result is not None:
            flipped = _flip(insts[r.inst].adj, r.result, r.func == "solve_scfc")
            bad[pos] = wl.Record(r.inst, r.func, r.k, flipped)
            expect(kd.check(bad), f"ktree check accepts a flipped colour at {r}")
        if r.func == "solve_cfc" and r.k == 1 and r.inst == 0:
            bad[pos] = wl.Record(r.inst, r.func, r.k, None)
            expect(kd.check(bad), "ktree check accepts a wrong C6 verdict")

    # large-sparse's check on a small tree and terrain
    tree = wl.perfect_code_tree(random.Random("selftest/code"), 9)
    pts = wl.random_terrain_points(random.Random("selftest/large"), 16)
    lsi = [wl.Instance("code-tree", 9, tree), wl.Instance("terrain", 16, points=pts)]
    adj_t, adj_v = lsi[0].adj, lsi[1].adj
    cf1, scf = ck.min_colors_bruteforce(adj_t, False, 1), ck.min_colors_bruteforce(adj_t, True, 9)
    layers = ck.onion_layers(pts)
    p, full = len(layers), tuple([1] * 16)
    good = [wl.Record(0, "cf_number", None, (cf1[0], tuple(cf1[1]))),
            wl.Record(0, "scf_number", None, (scf[0], tuple(scf[1]))),
            wl.Record(1, "visibility_graph", None, frozenset(ck.slope_sweep_visibility(pts))),
            wl.Record(1, "onion_peeling", None, tuple(map(tuple, layers))),
            wl.Record(1, "strong_guard", None, full), wl.Record(1, "cf_guard", None, full),
            wl.Record(1, "verify_guarding", "strong", ck.scf_violation(adj_v, full)),
            wl.Record(1, "verify_guarding", "cf", ck.cf_violation(adj_v, full))]
    ls = _checker(wl.LargeSparse, lsi)
    expect(not ls.check(good), f"large-sparse check rejects right records: {ls.check(good)}")
    wrong = {0: (2, tuple(scf[1])) if scf[0] <= 2 else (2, tuple(cf1[1])),
             2: frozenset(sorted(ck.slope_sweep_visibility(pts))[1:]),
             3: tuple(map(tuple, layers[:-1])),
             4: tuple([0] * 16),
             6: None if ck.scf_violation(adj_v, full) is not None else 0}
    for pos, value in wrong.items():
        bad = list(good)
        bad[pos] = wl.Record(good[pos].inst, good[pos].func, good[pos].k, value)
        expect(ls.check(bad), f"large-sparse check accepts a corrupted {good[pos].func}")

    # terrain-min's check: a colouring over budget or a wrong p fails
    tm = _checker(wl.TerrainMin, [wl.Instance("terrain", 16, points=pts)])
    cf_best = ck.min_colors_bruteforce(adj_v, False, p + 1)
    good = [wl.Record(0, "pipeline", "cfc", (cf_best[0], tuple(cf_best[1]), 1, p))]
    expect(not tm.check(good), f"terrain-min check rejects right records: {tm.check(good)}")
    for value in ((p + 2, tuple(cf_best[1]), 1, p), (cf_best[0], _flip(adj_v, cf_best[1], False), 1, p),
                  (cf_best[0], tuple(cf_best[1]), 1, p + 1)):
        expect(tm.check([wl.Record(0, "pipeline", "cfc", value)]), f"terrain-min check accepts {value}")

    # results of a relabelled round are mapped back to the original labels
    class Relabelled:
        assignment = (7, 8, 9)  # round vertex x has colour 7 + x

    expect(wl.normalise("solve_cfc", Relabelled, [2, 0, 1]) == (9, 7, 8),
           "a relabelled witness is not mapped back to the original vertices")

    # the pipeline state-count check
    spans = [["terrain.pipeline", 0, 3, -1, 0, {"problem": "cfc", "states": 7}],
             ["cfc.solve_cfc", 0, 1, 0, 0, None], ["cfc.run", 0, 1, 1, 0, {"states": 3, "feasible": False}],
             ["cfc.solve_cfc", 1, 2, 0, 0, None], ["cfc.run", 1, 2, 3, 0, {"states": 4, "feasible": True}]]
    expect(not tr.pipeline_state_mismatches(spans), "state-count check rejects a right sum")
    spans[0][5]["states"] = 8
    expect(tr.pipeline_state_mismatches(spans), "a wrong pipeline state count goes unnoticed")
    return errs


if __name__ == "__main__":
    problems = run_all()
    for p in problems:
        print(p)
    print("self-test:", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)
