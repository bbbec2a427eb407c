"""Parametric program families and the scaling micro-benchmark.

The watchdog family spawns N identical worker threads that each do some
local arithmetic (a bounded counter loop), read and bump one shared
counter, and assert a property about their own parameter.  The shared
counter makes the flow-insensitive interference table grow for several
outer iterations, while the property never depends on it, so slicing
removes all of that work in the optimized mode.

The chain family is a creation chain c1 -> c2 -> ... of the given depth.
Each link reads a shared variable, asserts it holds at least the value
its creator stored, then stores its own value.  Only ordering rules out
the later links' stores, so the constrained modes verify every assertion
and the unconstrained ones only the first two; its time is the ordering
layer's scaling curve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .analysis import AnalysisConfig, analyze
from .cfg import build_model
from .errors import MtirError
from .parser import parse


def watchdog_program(threads: int, seed: int = 0) -> str:
    lines = ["int g = 0;"]
    lines.append("thread dog(int v) {")
    lines.append("  int t1 = v * 3;")
    lines.append("  int i = 0;")
    lines.append("  while (i < 12) {")
    lines.append("    i = i + 1;")
    lines.append("  }")
    lines.append("  int t2 = g;")
    lines.append("  g = t2 + 1;")
    lines.append("  assert(t1 >= 0);")
    lines.append("}")
    lines.append("thread main() {")
    for k in range(threads):
        lines.append("  create(dog, %d);" % (1 + (seed + k) % 7))
    lines.append("}")
    return "\n".join(lines) + "\n"


def chain_program(depth: int, seed: int = 0) -> str:
    lines = ["int x = %d;" % seed]
    for k in range(1, depth + 1):
        lines.append("thread c%d() {" % k)
        lines.append("  int t = x;")
        lines.append("  assert(t >= %d);" % (seed + k - 1))
        lines.append("  x = %d;" % (seed + k))
        if k < depth:
            lines.append("  create(c%d);" % (k + 1))
        lines.append("}")
    lines.append("thread main() {")
    lines.append("  create(c1);")
    lines.append("}")
    return "\n".join(lines) + "\n"


FAMILIES = {"watchdog": watchdog_program, "chain": chain_program}


@dataclass
class BenchRow:
    threads: int
    mode: str
    time_s: float
    verified: int
    total: int

    def csv(self) -> str:
        return "%d,%s,%.4f,%d,%d" % (self.threads, self.mode, self.time_s,
                                     self.verified, self.total)


def run_bench(family: str, sizes, seed: int = 0,
              modes=("fi", "fs", "fsc", "fso")) -> list[BenchRow]:
    if family not in FAMILIES:
        raise MtirError(f"unknown generator {family!r}; "
                        f"known: {', '.join(sorted(FAMILIES))}")
    generator = FAMILIES[family]
    rows = []
    for size in sizes:
        model = build_model(parse(generator(size, seed)))
        for mode in modes:
            config = AnalysisConfig(mode=mode)
            start = time.perf_counter()
            result = analyze(model, config)
            elapsed = time.perf_counter() - start
            rows.append(BenchRow(size, mode, elapsed,
                                 len(result.verified_assertions()),
                                 len(result.verdicts)))
    return rows


def bench_csv(rows) -> str:
    return "\n".join(["threads,mode,time_s,verified,total"]
                     + [row.csv() for row in rows]) + "\n"
