"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  Checks, at small sizes:
  * the analytic verdicts (chain depth 4: fi=fs=2, fsc=fso=4; watchdog 2:
    everything verified) with the exit codes they imply;
  * that span self times add up to the traced wall time of each pass;
  * that per-layer counts repeat exactly across two traced passes;
  * that BENCHMARK.json and layer_map.json name exactly the metrics the
    benchmark prints.
Exits 1 if any group fails, 0 when all pass.
"""

from __future__ import annotations

import json
import os
import sys

import run
from run import layers, speed, workloads

SEEDS = (0, 1, 2)


def small_programs(seed):
    return [workloads.chain(4, seed), workloads.watchdog(2, seed)]


def check_verdicts(cli):
    tally = run.Tally()
    for seed in SEEDS:
        programs = small_programs(seed)
        paths = run.write_programs(programs, run.own_work_dir())
        run.run_round(cli, programs, paths, run.Checker(tally),
                      speed.WallClock())
    return tally.reasons if tally.failed else []


def check_trace(cli):
    programs = small_programs(0)
    paths = run.write_programs(programs, run.own_work_dir())
    checker = run.Checker(run.Tally())
    problems = []
    passes = []
    for _ in range(2):
        times, traces = run.run_round(cli, programs, paths, checker,
                                      speed.WallClock(), layers.Tracer)
        counts = {}
        for mode, (tracer, reports) in traces.items():
            selves = tracer.self_times()
            roots = sum(end - start for _, start, end, parent in tracer.spans
                        if parent is None)
            if any(own < -1e-6 for own in selves):
                problems.append("%s: negative self time" % mode)
            # the cli spans wrap the timed calls, so their sum bounds the
            # pass wall time from above, by the span bookkeeping only
            if abs(sum(selves) - roots) > 1e-6 \
                    or not times[mode] <= roots <= times[mode] * 1.05 + 1e-3:
                problems.append("%s: self times %.6f, roots %.6f, wall %.6f"
                                % (mode, sum(selves), roots, times[mode]))
            units = dict(layers.per_layer_names())
            counts.update({name: value for name, value
                           in layers.mode_metrics(mode, tracer,
                                                  reports).items()
                           if units[name] == "count"})
        passes.append(counts)
    if passes[0] != passes[1]:
        problems.append("counts differ between traced passes: %s"
                        % sorted(name for name in passes[0]
                                 if passes[0][name] != passes[1][name]))
    if checker.tally.failed:
        problems += checker.tally.reasons
    return problems


def check_declarations():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    with open(os.path.join(run.HERE, "layer_map.json")) as handle:
        layer_map = json.load(handle)
    problems = []
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared != dict(layers.per_layer_names()):
        problems.append("per_layer differs from layers.per_layer_names()")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        problems.append("end_to_end differs from run.END_TO_END_UNITS")
    names = [w["name"] for w in bench["workloads"]]
    if names != list(workloads.WORKLOADS):
        problems.append("workloads differ: %s" % names)
    for entry in layer_map["layers"]:
        for metric in entry["metrics"]:
            full = ["%s.%s" % (mode, metric) for mode in entry["modes"]] \
                or [metric]
            if not any(name in declared for name in full):
                problems.append("layer map names unknown metric %s" % metric)
        for pair in entry["moves"] + entry["flat"]:
            if pair["metric"] not in list(e2e) + ["*"] \
                    or pair["workload"] not in names + ["*"]:
                problems.append("layer map names unknown pair %s" % pair)
    return problems


def main():
    cli = run.load_checker()
    groups = [("analytic verdicts", check_verdicts),
              ("trace self times and counts", check_trace)]
    failed = False
    try:
        for label, check in groups:
            problems = check(cli)
            failed |= bool(problems)
            print("%s %s%s" % ("FAIL" if problems else "ok  ", label,
                               "".join("\n  " + p for p in problems)))
    finally:
        run.remove_work_dir()
    problems = check_declarations()
    failed |= bool(problems)
    print("%s declarations%s" % ("FAIL" if problems else "ok  ",
                                 "".join("\n  " + p for p in problems)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
