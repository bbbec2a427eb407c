"""Long-running soundness hunt, not part of the pytest suite.

Usage: python3 tests/stress_soundness.py [n_flat] [n_loopy] [n_repeated]

Runs many random programs (the suite's loop-free family, a bounded-loop
family and a family of repeated instances of one routine, which share
interpreter runs) through every mode and cross-checks against the
oracle.  Prints any violation; exits nonzero if one is found.
"""

import random
import sys
import time

sys.path.insert(0, "tests")
from conftest import random_program, repeated_program, _Body  # noqa: E402

from mtir import AnalysisConfig, analyze, build_model, parse  # noqa: E402
from mtir.errors import OracleBudgetExceeded  # noqa: E402
from mtir.facts import FeasibilityEngine  # noqa: E402
from mtir.oracle import (  # noqa: E402
    OracleBounds, check_abstraction, enumerate_executions, static_rejections,
)

MODES = ("fi", "fs", "fsc", "fso")


def loopy_program(seed: int) -> str:
    """Two threads where one runs a bounded counting loop containing a
    shared read and write: exercises merged loop sources, widening and
    narrowing, and ordering facts on cyclic graphs."""
    rng = random.Random(seed + 77_000)
    bound = rng.randint(1, 2)
    lines = ["int g = %d;" % rng.randint(0, 1)]
    lines.append("thread w() {")
    body = _Body(rng, ["g"], rng.randint(1, 3), "w", [1])
    lines += ["  " + s for s in body.emit()]
    lines.append("}")
    lines.append("thread main() {")
    lines.append("  create(w);")
    lines.append("  int i = 0;")
    lines.append("  while (i < %d) {" % bound)
    lines.append("    int t = g;")
    if rng.random() < 0.6:
        lines.append("    g = t + 1;")
    lines.append("    i = i + 1;")
    lines.append("  }")
    lines.append("  assert(i <= %d);" % bound)
    if rng.random() < 0.5:
        lines.append("  int u = g;")
        lines.append("  assert(u >= -99);")
    lines.append("}")
    return "\n".join(lines) + "\n"


def run_family(label, generator, count, start_seed):
    bad = 0
    done = 0
    seed = start_seed
    t0 = time.perf_counter()
    while done < count:
        seed += 1
        try:
            model = build_model(parse(generator(seed)))
            records = enumerate_executions(
                model, OracleBounds(max_steps=200, schedule_cap=60_000))
        except OracleBudgetExceeded:
            continue
        feas = FeasibilityEngine(model)
        rejected = static_rejections(model, feas)
        for mode in MODES:
            result = analyze(model, AnalysisConfig(mode=mode))
            rep = check_abstraction(records, result, model, rejected=rejected)
            if not rep.ok:
                bad += 1
                print("VIOLATION", label, seed, mode,
                      rep.state_misses[:2], rep.verdict_misses[:2],
                      rep.feasibility_misses[:2])
                print(generator(seed))
        done += 1
        if done % 50 == 0:
            print("%s: %d/%d (%.0fs)" % (label, done, count,
                                         time.perf_counter() - t0))
    print("%s family: %d programs, %d violations (%.0fs)"
          % (label, done, bad, time.perf_counter() - t0))
    return bad


def main():
    n_flat = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    n_loopy = int(sys.argv[2]) if len(sys.argv) > 2 else 120
    n_repeated = int(sys.argv[3]) if len(sys.argv) > 3 else 120
    bad = run_family("flat", random_program, n_flat, 100_000)
    bad += run_family("loopy", loopy_program, n_loopy, 0)
    bad += run_family("repeated", repeated_program, n_repeated, 100_000)
    print("TOTAL violations:", bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
