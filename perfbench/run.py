"""Benchmark of the mtir checker: time to verdict per analysis mode.

    python3 perfbench/run.py --workload watchdog --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the checker is imported from
`src/`.  One process, one thread, closed loop: each analysis starts when
the previous one has returned.  Every call is `mtir.cli.main(["analyze",
FILE, "--mode=M", "--format=json"])` in-process with stdout captured, so
it covers read, parse, CFG, analysis and report.

A round runs, for each mode, passes over the workload's timed programs
until the mode has had SAMPLE_S, and keeps the median pass.  Rounds
repeat until `--seconds` have passed; `<mode>_s` is the median over
rounds, in seconds rescaled to a reference host speed (see speed.py).
`setup_s` is the median of SETUP_REPEATS set-ups, each in a fresh
process: import, workload generation and one warm-up pass per mode.
With `--trace 1` untraced and traced rounds alternate and the per-layer
metrics of the traced rounds are printed instead (see layers.py).

Every call's exit code, verdict counts and report (apart from `wall_ms`)
are checked against the workload's reference; on `soundness`, random
programs are also cross-checked against the exhaustive interleaving
oracle after the timed rounds.  `python3 perfbench/selfcheck.py` checks
the benchmark itself.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
MIN_ROUNDS = 3
SAMPLE_S = 0.3
END_TO_END_UNITS = {"fi_s": "s", "fs_s": "s", "fsc_s": "s", "fso_s": "s",
                    "setup_s": "s", "verified": "count", "peak_rss_mb": "MB"}

sys.path.insert(0, HERE)
import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


class Tally:
    """Checks attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)
        return ok


def load_checker():
    """Import the checker from this checkout's `src/`, and only there."""
    if not os.path.isfile(os.path.join(SRC, "mtir", "__init__.py")):
        sys.exit("error: no checker sources at %s; run from the root of a "
                 "source checkout" % SRC)
    sys.path.insert(0, SRC)
    import mtir.cli
    if not os.path.abspath(mtir.cli.__file__).startswith(SRC + os.sep):
        sys.exit("error: imported mtir from %s, not %s"
                 % (mtir.cli.__file__, SRC))
    return mtir.cli


def own_work_dir():
    return os.path.join(WORK, str(os.getpid()))


def remove_work_dir():
    shutil.rmtree(own_work_dir(), ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(WORK)  # only once no other run is using it


def write_programs(programs, directory):
    os.makedirs(directory, exist_ok=True)
    paths = []
    for program in programs:
        path = os.path.join(directory, program.name + ".mtir")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(program.text)
        paths.append(path)
    return paths


def analyze_once(cli, path, mode, clock):
    """One time to verdict; returns (seconds, exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code, elapsed = clock.time(lambda: cli.main(
            ["analyze", path, "--mode=" + mode, "--format=json"]))
    return elapsed, code, out.getvalue()


def verdict_report(stdout):
    """The JSON report without `wall_ms`, or None if it does not parse."""
    try:
        report = json.loads(stdout)
        report["stats"].pop("wall_ms")
    except (ValueError, KeyError, TypeError):
        return None
    return report


class Checker:
    """Judges each analysis against the workload's expected verdicts and
    the first report seen for the same program and mode."""

    def __init__(self, tally):
        self.tally = tally
        self.reference = {}

    def judge(self, program, mode, code, stdout):
        report = verdict_report(stdout)
        label = "%s/%s" % (program.name, mode)
        if not self.tally.check(report is not None,
                                "%s: no JSON report" % label):
            return None
        verified = sum(1 for a in report["assertions"]
                       if a["status"] == "verified")
        reference = self.reference.setdefault((program.name, mode), report)
        self.tally.check(
            code == program.exit_code(mode)
            and len(report["assertions"]) == program.assertions
            and verified == program.verified[mode]
            and report == reference,
            "%s: exit %s, %d/%d verified, expected exit %s, %d/%d%s"
            % (label, code, verified, len(report["assertions"]),
               program.exit_code(mode), program.verified[mode],
               program.assertions,
               "" if report == reference else ", report changed"))
        return report


def run_round(cli, programs, paths, checker, clock, tracer_for=None,
              sample_s=0.0):
    """Each mode: the program set, repeated until the mode has run for
    `sample_s` (once when traced).  Returns (mode -> median seconds of
    one pass over the set, mode -> (tracer, reports) when traced)."""
    times, traces = {}, {}
    for mode in workloads.MODES:
        tracer = tracer_for() if tracer_for else None
        passes = []
        deadline = time.perf_counter() + sample_s
        with (layers.instrument(tracer) if tracer
              else contextlib.nullcontext()):
            while True:
                total = 0.0
                reports = []
                for program, path in zip(programs, paths):
                    if tracer:
                        index = tracer.open("cli")
                    elapsed, code, stdout = analyze_once(cli, path, mode,
                                                         clock)
                    if tracer:
                        tracer.close(index)
                        tracer.end_analysis()
                    total += elapsed
                    reports.append(checker.judge(program, mode, code, stdout))
                passes.append(total)
                if tracer or time.perf_counter() >= deadline:
                    break
        times[mode] = statistics.median(passes)
        if tracer:
            traces[mode] = (tracer, reports)
    return times, traces


class Setup:
    """Import the checker, generate the workload, write its files and run
    one round: the warm-up also fixes each program's reference report.
    `seconds` is how long that took on `clock`."""

    def __init__(self, workload, seed, tally, clock):
        self.clock = clock
        _, self.seconds = clock.time(
            lambda: self._build(workload, seed, tally))

    def _build(self, workload, seed, tally):
        self.cli = load_checker()
        self.programs = workloads.timed_programs(workload, seed, ROOT)
        self.paths = write_programs(self.programs, own_work_dir())
        self.checker = Checker(tally)
        self.round()

    def round(self, tracer_for=None, sample_s=0.0):
        return run_round(self.cli, self.programs, self.paths, self.checker,
                         self.clock, tracer_for, sample_s)

    def verified(self):
        """Assertions verified, summed over programs and modes."""
        return sum(a["status"] == "verified"
                   for report in self.checker.reference.values()
                   for a in report["assertions"])


def setup_probe(workload, seed):
    """One set-up in this fresh process; prints its time and checks."""
    tally = Tally()
    try:
        with speed.SpeedProbe() as clock:
            seconds = Setup(workload, seed, tally, clock).seconds
    finally:
        remove_work_dir()
    print(json.dumps({"setup_s": seconds, "failed": tally.failed,
                      "reasons": tally.reasons}))


def measure_setup(workload, seed, tally, first):
    """Median set-up time: this process's own, `first`, and the set-ups
    of fresh processes."""
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                cwd=ROOT, capture_output=True, text=True, timeout=150)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, ValueError, IndexError) as err:
            tally.check(False, "set-up probe failed: %r" % err)
            continue
        if tally.check(proc.returncode == 0 and result["failed"] == 0,
                       "set-up probe failed: %s %s"
                       % (result["reasons"], proc.stderr[-300:])):
            samples.append(result["setup_s"])
    return statistics.median(samples)


def oracle_cross_check(seed, tally, tracer):
    """Exhaustive-oracle soundness check of random programs in all modes,
    plus fi <= fs <= fsc on their verified assertions.  Programs the
    oracle cannot finish within its bounds are skipped and counted."""
    from mtir import AnalysisConfig, analyze, build_model, parse
    from mtir.errors import OracleBudgetExceeded
    from mtir.facts import FeasibilityEngine
    from mtir.oracle import (
        OracleBounds, check_abstraction, enumerate_executions,
        static_rejections,
    )

    bounds = OracleBounds(max_steps=workloads.ORACLE_MAX_STEPS,
                          schedule_cap=workloads.ORACLE_SCHEDULE_CAP)
    checked = skipped = executions = 0
    for program_seed, text in workloads.oracle_candidates(seed):
        if checked == workloads.ORACLE_PROGRAMS:
            break
        model = build_model(parse(text))
        index = tracer.open("oracle.enumerate")
        try:
            records = enumerate_executions(model, bounds)
        except OracleBudgetExceeded:
            # kept out of oracle.enumerate_s
            tracer.spans[index][0] = "oracle.skipped"
            skipped += 1
            continue
        finally:
            tracer.close(index)
        checked += 1
        executions += len(records)
        results = {mode: analyze(model, AnalysisConfig(mode=mode))
                   for mode in workloads.MODES}
        with tracer.span("oracle.check"):
            rejected = static_rejections(model, FeasibilityEngine(model))
            reports = {mode: check_abstraction(records, results[mode], model,
                                               rejected=rejected)
                       for mode in workloads.MODES}
        for mode, report in reports.items():
            tally.check(report.ok, "random program %d unsound in %s: %s %s %s"
                        % (program_seed, mode, report.state_misses[:1],
                           report.verdict_misses[:1],
                           report.feasibility_misses[:1]))
        fi, fs, fsc = (results[m].verified_assertions()
                       for m in ("fi", "fs", "fsc"))
        tally.check(fi <= fs <= fsc, "random program %d: verified sets not "
                    "monotone across fi, fs, fsc" % program_seed)

    spent = {"oracle.enumerate": 0.0, "oracle.check": 0.0}
    for (name, start, end, _) in tracer.spans:
        if name in spent:
            spent[name] += end - start
    return {"oracle.enumerate_s": spent["oracle.enumerate"],
            "oracle.check_s": spent["oracle.check"],
            "oracle.executions": executions,
            "oracle.skipped": skipped}


def timed_rounds(setup, seconds, traced):
    """Rounds until `seconds` have passed (at least MIN_ROUNDS).  Returns
    untraced round times per mode and, when traced, the traced passes."""
    untraced = {mode: [] for mode in workloads.MODES}
    traced_passes = []
    deadline = time.perf_counter() + seconds
    while True:
        times, _ = setup.round(sample_s=SAMPLE_S)
        for mode, value in times.items():
            untraced[mode].append(value)
        if traced:
            traced_passes.append(setup.round(layers.Tracer))
        if len(untraced["fi"]) >= MIN_ROUNDS \
                and time.perf_counter() >= deadline:
            return untraced, traced_passes


def layer_metrics(untraced, traced_passes, tally):
    """Medians of the traced passes' per-layer metrics; counts must repeat
    exactly from pass to pass."""
    per_pass = []
    traced_walls = []
    for times, traces in traced_passes:
        values = {}
        for mode, (tracer, reports) in traces.items():
            values.update(layers.mode_metrics(mode, tracer, reports))
        per_pass.append(values)
        traced_walls.append(sum(times.values()))
    first = per_pass[0]
    units = dict(layers.per_layer_names())
    for values in per_pass[1:]:
        for name, value in values.items():
            if units[name] == "count":
                tally.check(value == first[name],
                            "count %s changed: %s then %s"
                            % (name, first[name], value))
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in first}
    untraced_walls = [sum(vals) for vals in zip(*untraced.values())]
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(untraced_walls))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    tally = Tally()
    try:
        with (speed.WallClock() if args.trace
              else speed.SpeedProbe()) as clock:
            setup = Setup(args.workload, args.seed, tally, clock)
            untraced, traced_passes = timed_rounds(setup, args.seconds,
                                                   args.trace)
        if not args.trace:
            setup_s = measure_setup(args.workload, args.seed, tally,
                                    setup.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        oracle = {"oracle.enumerate_s": 0.0, "oracle.check_s": 0.0,
                  "oracle.executions": 0, "oracle.skipped": 0}
        if args.workload == "soundness":
            oracle = oracle_cross_check(args.seed, tally, layers.Tracer())
    finally:
        remove_work_dir()

    if args.trace:
        metrics = layer_metrics(untraced, traced_passes, tally)
        metrics.update(oracle)
        units = dict(layers.per_layer_names())
    else:
        metrics = {"%s_s" % mode: statistics.median(untraced[mode])
                   for mode in workloads.MODES}
        metrics.update(setup_s=setup_s, verified=setup.verified(),
                       peak_rss_mb=peak_rss_mb)
        units = END_TO_END_UNITS
    for reason in tally.reasons:
        print("FAILED: " + reason)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
