"""Command-line front end: solve, oracle, terrain, gen, verify.

Exit codes: 0 = decision true / verified, 1 = decision false / violation,
2 = usage or parse error.  Every run emits a report (JSON by default) with
the command, an input digest, parameters, the decision, any witness, and
timing/state statistics, so batch runs are reproducible and diffable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .errors import FormatError, InstanceTooLargeError
from .graph import (
    Coloring,
    oracle_cfc,
    oracle_scfc,
    parse_graph,
    random_graph,
    verify_conflict_free,
    verify_strong_conflict_free,
    write_graph,
)
from .cfc import cf_number, solve_cfc
from .scfc import scf_number, solve_scfc
from .terrain import (
    GuardColoring,
    cf_guard,
    onion_peeling,
    parse_terrain,
    pipeline,
    random_terrain,
    strong_guard,
    terrain_svg,
    verify_guarding,
    visibility_graph,
    write_terrain,
)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _write_out(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_colors(text: str) -> list[int]:
    try:
        colors = [int(tok) for tok in text.split()]
    except ValueError:
        raise FormatError("coloring file must contain whitespace-separated integers") from None
    if not colors:
        raise FormatError("empty coloring file")
    if min(colors) < 0:
        raise FormatError("colors must be non-negative")
    return colors


def _emit(report: dict, args) -> None:
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for key, value in report.items():
        print(f"{key}: {json.dumps(value)}")


def _graph_dot(g) -> str:
    lines = ["graph G {"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in sorted(g.edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- subcommands ------------------------------------------------------------


def cmd_solve(args) -> int:
    text = _read_file(args.graph)
    g = parse_graph(text)
    stats: dict = {}
    if args.min:
        fn = cf_number if args.problem == "cfc" else scf_number
        k, col = fn(g, stats=stats)
    else:
        solve = solve_cfc if args.problem == "cfc" else solve_scfc
        k = args.k
        col = solve(g, k, stats=stats)
    decision = col is not None
    report = {
        "command": "solve",
        "problem": args.problem,
        "input": args.graph,
        "digest": _digest(text),
        "n": g.n,
        "k": k,
        "decision": decision,
        "colors": list(col.assignment) if col else None,
        "stats": stats,
    }
    _emit(report, args)
    if col and args.out:
        _write_out(args.out, "\n".join(str(c) for c in col.assignment) + "\n")
    return 0 if decision else 1


def cmd_oracle(args) -> int:
    text = _read_file(args.graph)
    g = parse_graph(text)
    start = time.perf_counter()
    fn = oracle_cfc if args.problem == "cfc" else oracle_scfc
    col = fn(g, args.k)
    report = {
        "command": "oracle",
        "problem": args.problem,
        "input": args.graph,
        "digest": _digest(text),
        "n": g.n,
        "k": args.k,
        "decision": col is not None,
        "colors": list(col.assignment) if col else None,
        "stats": {"millis": round((time.perf_counter() - start) * 1000, 3)},
    }
    _emit(report, args)
    return 0 if col is not None else 1


def cmd_terrain(args) -> int:
    text = _read_file(args.terrain)
    t = parse_terrain(text)
    report = {
        "command": f"terrain {args.sub}",
        "input": args.terrain,
        "digest": _digest(text),
        "n": t.n,
    }
    code = 0
    peel = gc = None
    if args.sub == "vis-graph":
        g = visibility_graph(t)
        report["edges"] = sorted(g.edges)
        if args.dot:
            _write_out(args.dot, _graph_dot(g))
        if args.out:
            _write_out(args.out, write_graph(g))
    elif args.sub == "peel":
        peel = onion_peeling(t)
        report["p"] = peel.p
        report["layers"] = [list(layer) for layer in peel.layers]
    elif args.sub in ("strong-guard", "cf-guard"):
        stats: dict = {}
        mode = "strong" if args.sub == "strong-guard" else "cf"
        gc = (strong_guard if mode == "strong" else cf_guard)(t, stats=stats)
        bad = verify_guarding(t, gc, mode)
        report.update(p=stats["p"], K=gc.K, colors=gc.colors, stats=stats)
        report["verified"] = bad is None
        if bad is not None:
            report["violation_vertex"] = bad
            code = 1
        if args.out:
            _write_out(args.out, "\n".join(str(c) for c in gc.colors) + "\n")
    else:  # pipeline
        k, gc, stats = pipeline(t, args.problem)
        report.update(problem=args.problem, k=k, p=stats["p"], colors=gc.colors, stats=stats)
        if args.out:
            _write_out(args.out, "\n".join(str(c) for c in gc.colors) + "\n")
    if args.svg:
        if peel is None:
            peel = onion_peeling(t)
        _write_out(args.svg, terrain_svg(t, peel=peel, gc=gc))
    _emit(report, args)
    return code


def cmd_gen(args) -> int:
    if args.kind == "graph":
        g = random_graph(args.n, args.p, args.seed)
        out = write_graph(g)
    else:
        t = random_terrain(args.n, args.y_lo, args.y_hi, args.seed)
        out = write_terrain(t)
    if args.out:
        _write_out(args.out, out)
    else:
        sys.stdout.write(out)
    return 0


def cmd_verify(args) -> int:
    colors = _parse_colors(_read_file(args.coloring))
    if args.kind == "coloring":
        text = _read_file(args.graph)
        g = parse_graph(text)
        if len(colors) != g.n:
            raise FormatError(f"coloring has {len(colors)} entries for {g.n} vertices")
        k = max(max(colors), 1)
        fn = verify_strong_conflict_free if args.mode == "strong" else verify_conflict_free
        bad = fn(g, Coloring(k, colors))
        digest = _digest(text)
        n = g.n
    else:
        text = _read_file(args.terrain)
        t = parse_terrain(text)
        if len(colors) != t.n:
            raise FormatError(f"coloring has {len(colors)} entries for {t.n} vertices")
        bad = verify_guarding(t, GuardColoring(colors), args.mode)
        digest = _digest(text)
        n = t.n
    report = {
        "command": f"verify {args.kind}",
        "digest": digest,
        "n": n,
        "mode": args.mode,
        "verified": bad is None,
    }
    if bad is not None:
        report["violation_vertex"] = bad
    _emit(report, args)
    return 0 if bad is None else 1


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cfguard",
        description="Conflict-free coloring of graphs and chromatic terrain guarding.",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("solve", parents=[fmt], help="run the treewidth DP on a graph file")
    sp.add_argument("problem", choices=("cfc", "scfc"))
    sp.add_argument("graph")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--k", type=int)
    grp.add_argument("--min", action="store_true", help="search for the smallest feasible k")
    sp.add_argument("--out", help="write the witness coloring (one color per line)")
    sp.set_defaults(fn=cmd_solve)

    op = sub.add_parser("oracle", parents=[fmt], help="brute-force reference decision")
    op.add_argument("problem", choices=("cfc", "scfc"))
    op.add_argument("graph")
    op.add_argument("--k", type=int, required=True)
    op.set_defaults(fn=cmd_oracle)

    tp = sub.add_parser("terrain", parents=[fmt], help="terrain geometry and guarding")
    tp.add_argument("sub", choices=("vis-graph", "peel", "strong-guard", "cf-guard", "pipeline"))
    tp.add_argument("terrain")
    tp.add_argument("--problem", choices=("cfc", "scfc"), default="scfc",
                    help="DP used by the pipeline subcommand")
    tp.add_argument("--out", help="write the edge list / guard coloring")
    tp.add_argument("--svg", help="write an SVG rendering")
    tp.add_argument("--dot", help="write the visibility graph in DOT (vis-graph only)")
    tp.set_defaults(fn=cmd_terrain)

    gp = sub.add_parser("gen", parents=[fmt], help="deterministic instance generators")
    gp.add_argument("kind", choices=("graph", "terrain"))
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--p", type=float, default=0.5, help="edge probability (graphs)")
    gp.add_argument("--y-lo", type=int, default=0, help="minimum height (terrains)")
    gp.add_argument("--y-hi", type=int, default=20, help="maximum height (terrains)")
    gp.add_argument("--seed", type=int, required=True)
    gp.add_argument("--out")
    gp.set_defaults(fn=cmd_gen)

    vp = sub.add_parser("verify", parents=[fmt], help="check a coloring file against an instance")
    vsub = vp.add_subparsers(dest="kind", required=True)
    vc = vsub.add_parser("coloring", parents=[fmt])
    vc.add_argument("graph")
    vc.add_argument("coloring")
    vc.add_argument("--mode", choices=("cf", "strong"), required=True)
    vc.set_defaults(fn=cmd_verify)
    vg = vsub.add_parser("guarding", parents=[fmt])
    vg.add_argument("terrain")
    vg.add_argument("coloring")
    vg.add_argument("--mode", choices=("cf", "strong"), required=True)
    vg.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.cmd == "solve" and not args.min and args.k < 1:
        ap.error("--k must be at least 1")
    if args.cmd == "oracle" and args.k < 1:
        ap.error("--k must be at least 1")
    try:
        return args.fn(args)
    except (FormatError, InstanceTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
