"""Command-line driver: analyze MTIR programs, dump internals, benchmark.

Exit status: 0 when every assertion is verified, 1 when any is left
unproven, 2 on bad input or analysis failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .analysis import MODES, AnalysisConfig, AnalysisResult, analyze
from .cfg import build_model
from .domain import render_env
from .errors import MtirError
from .facts import FeasibilityEngine, dump_mhb
from .parser import parse
from .pdg import backward_slices, build_pdg, dot_dump

REPORT_SCHEMA = {
    "type": "object",
    "required": ["assertions", "stats"],
    "properties": {
        "assertions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["thread", "line", "status"],
                "properties": {
                    "thread": {"type": "string"},
                    "line": {"type": "integer", "minimum": 1},
                    "status": {"enum": ["verified", "unproven"]},
                },
            },
        },
        "stats": {
            "type": "object",
            "required": ["outer_iters", "runs", "combos", "infeasible",
                         "pruned_loads", "clusters", "wall_ms"],
            "properties": {
                key: {"type": "number", "minimum": 0}
                for key in ("outer_iters", "runs", "interp_runs", "combos",
                            "infeasible", "pruned_loads", "clusters",
                            "wall_ms")
            },
        },
        "envs": {"type": "object"},
    },
}


def build_report(result: AnalysisResult, wall_ms: float,
                 include_envs: bool = False) -> dict:
    model = result.model
    assertions = []
    for node in sorted(result.verdicts,
                       key=lambda n: (model.thread(model.node(n).tid).name,
                                      model.node(n).line, n)):
        assertions.append({
            "thread": model.thread(model.node(node).tid).name,
            "line": model.node(node).line,
            "status": "verified" if result.verdicts[node] else "unproven",
        })
    stats = result.stats
    report = {
        "assertions": assertions,
        "stats": {
            "outer_iters": stats.outer_iters,
            "runs": stats.runs,
            "interp_runs": stats.interp_runs,
            "combos": stats.combos,
            "infeasible": stats.infeasible,
            "pruned_loads": stats.pruned_loads,
            "clusters": stats.clusters,
            "wall_ms": round(wall_ms, 3),
        },
    }
    if include_envs:
        report["envs"] = {model.node_name(n): render_env(env)
                          for n, env in sorted(result.te.items())}
    return report


def render_text(report: dict) -> str:
    lines = []
    for item in report["assertions"]:
        lines.append("%-9s %s line %d"
                     % (item["status"].upper(), item["thread"], item["line"]))
    verified = sum(1 for a in report["assertions"]
                   if a["status"] == "verified")
    lines.append("%d/%d assertions verified" % (verified,
                                                len(report["assertions"])))
    s = report["stats"]
    lines.append("outer_iters=%d runs=%d interp_runs=%d combos=%d "
                 "infeasible=%d pruned_loads=%d clusters=%d wall_ms=%.1f"
                 % (s["outer_iters"], s["runs"], s["interp_runs"],
                    s["combos"], s["infeasible"], s["pruned_loads"],
                    s["clusters"], s["wall_ms"]))
    for name, env in report.get("envs", {}).items():
        lines.append("  %s: %s" % (name, env))
    return "\n".join(lines)


@functools.cache  # argparse's objects form reference cycles: build once
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtir",
        description="Assertion checker for fixed-thread-count MTIR programs")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("analyze", help="analyze one program")
    run.add_argument("file")
    run.add_argument("--mode", choices=MODES, default=AnalysisConfig.mode)
    for flag in ("--widening-delay", "--narrowing-passes", "--outer-budget",
                 "--combo-cap"):
        run.add_argument(flag, type=int, default=getattr(
            AnalysisConfig, flag[2:].replace("-", "_")))
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument("--dump-envs", action="store_true")
    run.add_argument("--dump-facts", action="store_true")
    run.add_argument("--dump-pdg", action="store_true")

    bench = sub.add_parser("bench", help="scaling micro-benchmark, CSV out")
    bench.add_argument("--family", default="watchdog")
    bench.add_argument("--sizes", default="2,4,8")
    bench.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_analyze(args):
    """Returns the exit status and the output, produced as it is written."""
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2, ()
    except UnicodeDecodeError as err:
        print(f"error: {args.file}: not UTF-8 text (byte {err.start})",
              file=sys.stderr)
        return 2, ()

    if args.widening_delay < 0 or args.narrowing_passes < 0 \
            or args.outer_budget <= 0 or args.combo_cap <= 0:
        print("error: budgets must be non-negative (--widening-delay, "
              "--narrowing-passes) or positive (--outer-budget, --combo-cap)",
              file=sys.stderr)
        return 2, ()

    try:
        model = build_model(parse(text))
        config = AnalysisConfig(
            mode=args.mode,
            widening_delay=args.widening_delay,
            narrowing_passes=args.narrowing_passes,
            outer_budget=args.outer_budget,
            combo_cap=args.combo_cap)
        start = time.perf_counter()
        result = analyze(model, config)
        wall_ms = (time.perf_counter() - start) * 1000.0
    except MtirError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2, ()
    except RecursionError:
        # the parser and the lowering recurse once per nesting level
        print(f"error: {args.file}: program nests too deeply",
              file=sys.stderr)
        return 2, ()

    return (0 if result.all_verified() else 1,
            _analysis_output(args, model, result, wall_ms))


def _analysis_output(args, model, result, wall_ms):
    report = build_report(result, wall_ms, include_envs=args.dump_envs)
    if args.format == "json":
        yield json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        yield render_text(report) + "\n"

    if args.dump_facts:
        lines = dump_mhb(model, FeasibilityEngine(model).rows)
        yield next(lines, "") + "\n"
        yield from (line + "\n" for line in lines)
    if args.dump_pdg:
        graph = build_pdg(model)
        yield dot_dump(graph, model, backward_slices(graph, model)) + "\n"


def _cmd_bench(args):
    from .bench import bench_csv, run_bench
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
        if not sizes:
            raise ValueError("no sizes given")
        if any(size < 1 for size in sizes):
            raise ValueError("sizes must be at least 1")
        rows = run_bench(args.family, sizes, args.seed)
    except (ValueError, MtirError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2, ()
    except RecursionError:
        print("error: a generated program nests too deeply", file=sys.stderr)
        return 2, ()
    return 0, (bench_csv(rows),)


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    command = _cmd_analyze if args.command == "analyze" else _cmd_bench
    status, output = command(args)
    try:
        sys.stdout.writelines(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): send the rest, and
        # the flush at exit, to /dev/null; the status stays the verdict
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
