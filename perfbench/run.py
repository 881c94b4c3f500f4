"""cfguard benchmark: one workload, one process, one caller making one library call at a time.

    python3 perfbench/run.py --workload ktree-decide --seed 1 --seconds 30 --trace 0

Run from the root of a cfguard source tree; cfguard is imported from its
``src`` directory, never from an installed copy, and before anything else so
that the import is a cold one.  The inputs come from ``--seed``.  The calls
run in whole rounds, as many as fill ``--seconds``; each round after the
first gets relabelled copies of the inputs, and every round's outputs are
checked against the benchmark's own reference computations.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end metrics
when ``--trace 0`` and the per-layer metrics of a traced run when ``--trace 1``.
"""

import importlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Library:
    """The cfguard modules the workloads call into, imported from ROOT/src."""

    def __init__(self):
        src = os.path.join(ROOT, "src")
        if not os.path.isfile(os.path.join(src, "cfguard", "__init__.py")):
            raise SystemExit(f"perfbench: no cfguard sources under {src}; run from a cfguard checkout")
        sys.path.insert(0, src)
        self.package = importlib.import_module("cfguard")
        if os.path.dirname(os.path.realpath(self.package.__file__)) != os.path.realpath(os.path.join(src, "cfguard")):
            raise SystemExit(f"perfbench: imported cfguard from {self.package.__file__}, not {src}")
        for name in ("graph", "decomposition", "cfc", "scfc", "terrain"):
            setattr(self, name, importlib.import_module(f"cfguard.{name}"))


_start = time.perf_counter()
LIB = Library()
IMPORT_S = time.perf_counter() - _start  # the first part of setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import selftest  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, Record, normalise, verdict  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"
SAMPLED = 7  # rounds the timings are taken from


class Runner:
    """Times each call of a round and keeps its result, normalised to the original labels."""

    def __init__(self, workload):
        self.workload = workload
        self.records: list[Record] = []
        self.durations: list[float] = []
        self.failed = 0
        self.tracer = None

    def call(self, inst, module, func, args, k):
        if self.tracer is not None:
            self.tracer.op = len(self.durations)
        fn = getattr(module, func)
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a failed operation is counted, and the run goes on
            self.durations.append(time.perf_counter() - start)
            self.failed += 1
            traceback.print_exc()
            self.records.append(Record(inst, func, k, "FAILED"))
            return None
        self.durations.append(time.perf_counter() - start)
        perm = self.workload.instances[inst].perm
        self.records.append(Record(inst, func, k, normalise(func, result, perm)))
        return result


class Round(NamedTuple):
    seconds: float
    first: int  # its records are runner.records[first:end]
    end: int
    traced: bool
    span_first: int
    span_end: int


def run(args) -> dict:
    workload = WORKLOADS[args.workload](args.seed)  # the inputs, outside set-up
    start = time.perf_counter()
    workload.build(LIB)
    setup_s = IMPORT_S + time.perf_counter() - start

    runner = Runner(workload)
    tracer = tr.Tracer(LIB.package) if args.trace else None
    rounds: list[Round] = []
    spent = 0.0
    # whole rounds, at least SAMPLED, ending as near to --seconds as the round length allows
    while len(rounds) < SAMPLED or spent + rounds[-1].seconds / 2 < args.seconds:
        if rounds:
            workload.start_round(len(rounds))
        traced = tracer is not None and len(rounds) % 2 == 1
        first, span_first = len(runner.records), len(tracer.spans) if tracer else 0
        if traced:
            tracer.install()
            runner.tracer = tracer
        start = time.perf_counter()
        try:
            workload.run_round(runner.call)
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
                runner.tracer = None
        rounds.append(Round(elapsed, first, len(runner.records), traced, span_first,
                            len(tracer.spans) if tracer else 0))
        spent += elapsed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    per_round = rounds[0].end
    errors = selftest.run_all()
    if runner.failed:
        errors.append(f"{runner.failed} operations raised")
    else:
        first = [verdict(x) for x in runner.records[:per_round]]
        for n, r in enumerate(rounds):
            part = runner.records[r.first:r.end]
            if n and [verdict(x) for x in part] != first:
                errors.append(f"round {n}: verdicts differ from the first round's")
            errors += [f"round {n}: {e}" for e in workload.check(part)]

    if tracer is None:
        # the timings are those of the fastest of SAMPLED rounds spread evenly
        # over the run: the machine's speed swings for seconds at a time, the
        # fastest round is the one least disturbed, and a fixed count keeps a
        # faster program, which fits more rounds into a run, from getting more
        # chances at a fast stretch
        picked = [rounds[round(j * (len(rounds) - 1) / (SAMPLED - 1))] for j in range(SAMPLED)]
        best = min(picked, key=lambda r: r.seconds)
        call_s = runner.durations[best.first:best.end]
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (per_round / sum(call_s), "1/s"),
            "op_s.p50": (statistics.median(call_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        errors += tr.pipeline_state_mismatches(tracer.spans)
        span_ranges = [(r.span_first, r.span_end) for r in rounds if r.traced]
        counts = [tr.round_counts(tracer.spans, b, e) for b, e in span_ranges]
        # relabelling may change a decomposition and its state counts, but not
        # how many calls a round makes
        calls = [{k: v for k, v in c.items() if k.endswith((".calls", ".solves"))} for c in counts]
        if any(c != calls[0] for c in calls[1:]):
            errors.append("per-layer call counts differ between traced rounds")
        metrics = tr.layer_metrics(tracer.spans, span_ranges)
        overhead = (statistics.median(r.seconds for r in rounds if r.traced)
                    / statistics.median(r.seconds for r in rounds if not r.traced) - 1)
        metrics["tracing.overhead"] = (overhead, "share")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds of {per_round} calls, "
          f"round times {[round(r.seconds, 3) for r in rounds]}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": len(runner.durations),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["ktree-decide", "terrain-min", "large-sparse"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
