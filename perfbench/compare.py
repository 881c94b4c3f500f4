"""Run two sets of benchmark runs of the same tree and say whether they agree.

    python3 perfbench/compare.py                      # 2 sets x 10 seeds, every workload
    python3 perfbench/compare.py --workload terrain-min --runs 5

Run from the root of a cfguard source tree.  Each run is a separate process,
``run.py --workload W --seed S --seconds <run_seconds> --trace 0``, started
one at a time; the first set uses seeds 1 ... runs, the second
runs + 1 ... 2 * runs.  For every workload and end-to-end metric the report
gives each set's median, quartiles and spread (quartile distance over median,
as ``statistics.quantiles(values, n=4)`` gives them), the same over all the
runs of both sets, and checks them against the metric's ``bound`` in
BENCHMARK.json: every spread within the bound, except that of ``setup_s``,
the second median not worse than the first by more than the bound, and the
same share of failed operations in both sets.  Raw results go to
``perfbench/out/compare-<time>.json``.  Exit status 0 when everything agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    raw: dict = {}
    agree = True
    for w in workloads:
        sets = []
        for j in range(2):
            results = []
            for seed in range(1 + j * args.runs, 1 + (j + 1) * args.runs):
                r = one_run(w, seed, spec["run_seconds"])
                print(f"{w} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                      f"failed={r['failed']} wall={r['wall_s']:.1f}s "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
                agree &= r["correct"]
                results.append(r)
            sets.append(results)
        raw[w] = sets
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        if len(set(shares)) > 1:
            print(f"{w}: failed shares differ between sets: {shares}")
            agree = False
        for metric in spec["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            stats = [spread([r["metrics"][name]["value"] for r in s]) for s in sets]
            stats.append(spread([r["metrics"][name]["value"] for s in sets for r in s]))
            line = " | ".join(f"{label} median {m:.6g} q1 {a:.6g} q3 {b:.6g} spread {sp:.3f}"
                              for label, (m, a, b, sp) in zip(("set 1", "set 2", "all"), stats))
            (m1, *_), (m2, *_) = stats[:2]
            worse = (m2 - m1) / m1 if lower else (m1 - m2) / m1
            line += f" | second worse by {worse:+.3f}"
            # setup_s is one cold set-up of 25-40 ms per run, which follows the
            # machine's speed of the moment; only its median over runs is judged
            ok = (name == "setup_s" or all(sp <= bound for *_, sp in stats[:2])) and worse <= bound
            agree &= ok
            print(f"{w:13s} {name:12s} bound {bound:.2f}: {line} -> {'agree' if ok else 'DISAGREE'}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(json.dumps(raw, indent=1))
    print("all sets agree" if agree else "sets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
