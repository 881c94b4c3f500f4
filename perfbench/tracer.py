"""Span tracing around cfguard's public functions, from the benchmark's side.

``Tracer.install`` replaces each traced function at every name its callers
look it up by (for example ``cfguard.cfc.make_nice`` as well as
``cfguard.decomposition.make_nice``) and ``Tracer.uninstall`` puts the
originals back, so the program's files stay untouched and untraced rounds pay
nothing.  A span is ``[name, start, end, parent, op, info]``; ``info`` holds
counts read from the call's arguments or result after the span has ended.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter


def _nice_info(args, kwargs, ntd):
    return {"width": ntd.width, "nodes": len(ntd.nodes)}


def _run_info(args, kwargs, feasible):
    return {"states": args[0].states_evaluated, "feasible": bool(feasible)}


def _pipeline_info(args, kwargs, result):
    return {"problem": args[1], "states": result[2]["states_evaluated"]}


def targets(cf):
    """(span name, owners, attribute, info probe) for every traced function.

    ``cf`` is the imported cfguard package; owners are the modules or classes
    whose attribute is replaced.
    """
    g, d, c, s, t = cf.graph, cf.decomposition, cf.cfc, cf.scfc, cf.terrain
    return [
        ("graph.degeneracy", (g, c), "degeneracy", None),
        ("graph.verify_conflict_free", (g, t), "verify_conflict_free", None),
        ("graph.verify_strong_conflict_free", (g, t), "verify_strong_conflict_free", None),
        ("decomposition.min_fill_decomposition", (d, c, s, t), "min_fill_decomposition", None),
        ("decomposition.make_nice", (d, c, s, t), "make_nice", _nice_info),
        ("decomposition.validate", (d,), "validate", None),
        ("cfc.solve_cfc", (c, t), "solve_cfc", None),
        ("cfc.cf_number", (c,), "cf_number", None),
        ("cfc.run", (c.CfcSolver,), "run", _run_info),
        ("cfc.extract", (c.CfcSolver,), "extract", None),
        ("scfc.solve_scfc", (s, t), "solve_scfc", None),
        ("scfc.scf_number", (s,), "scf_number", None),
        ("scfc.run", (s.ScfcSolver,), "run", _run_info),
        ("scfc.extract", (s.ScfcSolver,), "extract", None),
        ("terrain.visibility_graph", (t,), "visibility_graph", None),
        ("terrain.onion_peeling", (t,), "onion_peeling", None),
        ("terrain.strong_guard", (t,), "strong_guard", None),
        ("terrain.cf_guard", (t,), "cf_guard", None),
        ("terrain.verify_guarding", (t,), "verify_guarding", None),
        ("terrain.pipeline", (t,), "pipeline", _pipeline_info),
    ]


class Tracer:
    def __init__(self, cf):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._targets = targets(cf)

    def _wrap(self, name, fn, probe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if probe is not None:
                rec[5] = probe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, owners, attr, probe in self._targets:
            original = getattr(owners[0], attr)
            traced = self._wrap(name, original, probe)
            for owner in owners:
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not the same object as "
                                       f"{owners[0].__name__}.{attr}; update perfbench/tracer.py")
                self._saved.append((owner, attr, original))
                setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "info": info}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, rounds: list[tuple[int, int]]) -> dict:
    """Per-layer metrics from the spans of the traced rounds.

    ``rounds`` holds each traced round's [begin, end) span index range.  Counts
    are the first traced round's, whose inputs depend on the seed alone; times
    are medians, per call for a function and per round for a layer's self time.
    """
    own = self_times(spans)
    calls: dict[str, list[float]] = {}
    for b, e in rounds:
        for name, start, end, _, _, _ in spans[b:e]:
            calls.setdefault(name, []).append(end - start)

    def per_call(name):
        return _median(calls.get(name, []))

    def per_round_self(pred):
        return _median([sum((own[i] for i in range(b, e) if pred(spans[i][0])), 0.0) for b, e in rounds])

    m = {
        "graph.degeneracy.s": (per_call("graph.degeneracy"), "s"),
        "graph.self_s": (per_round_self(lambda n: n.startswith("graph.")), "s"),
        "decomposition.min_fill_decomposition.s": (per_call("decomposition.min_fill_decomposition"), "s"),
        "decomposition.make_nice.s": (per_call("decomposition.make_nice"), "s"),
        "decomposition.validate.s": (per_call("decomposition.validate"), "s"),
        "decomposition.self_s": (per_round_self(lambda n: n.startswith("decomposition.")), "s"),
        "terrain.visibility_graph.s": (per_call("terrain.visibility_graph"), "s"),
        "terrain.onion_peeling.s": (per_call("terrain.onion_peeling"), "s"),
        "terrain.guard.s": (_median(calls.get("terrain.strong_guard", []) + calls.get("terrain.cf_guard", [])), "s"),
        "terrain.verify_guarding.s": (per_call("terrain.verify_guarding"), "s"),
        "terrain.pipeline.self_s": (_median([own[i] for b, e in rounds for i in range(b, e)
                                             if spans[i][0] == "terrain.pipeline"]), "s"),
        "terrain.self_s": (per_round_self(lambda n: n.startswith("terrain.")), "s"),
    }
    for layer in ("cfc", "scfc"):
        m[f"{layer}.run.s"] = (per_call(f"{layer}.run"), "s")
        m[f"{layer}.extract.s"] = (per_call(f"{layer}.extract"), "s")
        m[f"{layer}.self_s"] = (per_round_self(lambda n, p=layer + ".": n.startswith(p)), "s")
    for key, value in round_counts(spans, *rounds[0]).items():
        m[key] = (value, "share" if key.endswith("_share") else "count")
    return m


SEARCHES = {"cfc.cf_number": "cfc", "scfc.scf_number": "scfc"}


def round_counts(spans, begin: int, end: int) -> dict:
    """Work counts of one round's spans; identical inputs give identical counts."""
    c = {
        "graph.degeneracy.calls": 0,
        "decomposition.calls": 0,
        "decomposition.width_max": 0,
        "decomposition.nice_nodes": 0,
        "terrain.visibility_graph.calls": 0,
    }
    for layer in ("cfc", "scfc"):
        c.update({f"{layer}.solves": 0, f"{layer}.states": 0, f"{layer}.table_peak_states": 0,
                  f"{layer}.search_states": 0, f"{layer}.final_k_states": 0})
    search_of: dict[int, str] = {}  # span index of an open k-search -> its layer
    runs_in: dict[int, list[int]] = {}
    for i in range(begin, end):
        name, _, _, parent, _, info = spans[i]
        if name == "graph.degeneracy":
            c["graph.degeneracy.calls"] += 1
        elif name == "decomposition.min_fill_decomposition":
            c["decomposition.calls"] += 1
        elif name == "decomposition.make_nice":
            c["decomposition.width_max"] = max(c["decomposition.width_max"], info["width"])
            c["decomposition.nice_nodes"] += info["nodes"]
        elif name == "terrain.visibility_graph":
            c["terrain.visibility_graph.calls"] += 1
        if name in SEARCHES:
            search_of[i] = SEARCHES[name]
        elif name == "terrain.pipeline":
            search_of[i] = "cfc" if spans[i][5]["problem"] == "cfc" else "scfc"
        if name in ("cfc.run", "scfc.run"):
            layer = name.split(".")[0]
            c[f"{layer}.solves"] += 1
            c[f"{layer}.states"] += info["states"]
            c[f"{layer}.table_peak_states"] = max(c[f"{layer}.table_peak_states"], info["states"])
            a = parent
            while a >= begin and a not in search_of:
                a = spans[a][3]
            if a >= begin:
                runs_in.setdefault(a, []).append(i)
    for s, runs in runs_in.items():
        layer = search_of[s]
        c[f"{layer}.search_states"] += sum(spans[r][5]["states"] for r in runs)
        c[f"{layer}.final_k_states"] += spans[runs[-1]][5]["states"]
    for layer in ("cfc", "scfc"):
        base = c[f"{layer}.search_states"]
        final = c.pop(f"{layer}.final_k_states")
        c[f"{layer}.final_k_state_share"] = final / base if base else 0.0
    c["tracing.spans"] = end - begin
    return c


def pipeline_state_mismatches(spans) -> list[str]:
    """Pipelines whose reported states_evaluated differ from the sum over their traced solves."""
    total: dict[int, int] = {}
    for i, (name, _, _, parent, _, info) in enumerate(spans):
        if name in ("cfc.run", "scfc.run"):
            a = parent
            while a >= 0 and spans[a][0] != "terrain.pipeline":
                a = spans[a][3]
            if a >= 0:
                total[a] = total.get(a, 0) + info["states"]
    out = []
    for i, (name, _, _, _, op, info) in enumerate(spans):
        if name == "terrain.pipeline" and total.get(i, 0) != info["states"]:
            out.append(f"op {op}: pipeline reports {info['states']} states, traced solves sum to {total.get(i, 0)}")
    return out
