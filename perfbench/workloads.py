"""Frozen program generators and the reference verdicts they must give.

The generators are copies, not imports, of the shapes the checker's own
bench and test suite use, so an edit under `src/` or `tests/` cannot
change what the benchmark measures.  Every generator is a pure function
of its seed.
"""

from __future__ import annotations

import json
import os
import random

MODES = ("fi", "fs", "fsc", "fso")

WATCHDOG_THREADS = 16
CHAIN_DEPTH = 10
CORPUS = ("flag_sync", "loop_reader", "paired_loads", "param_guard",
          "disjoint_chains", "inc_read")
# random programs the exhaustive oracle cross-checks on `soundness`
ORACLE_PROGRAMS = 6
ORACLE_MAX_STEPS = 150
ORACLE_SCHEDULE_CAP = 20_000


class Program:
    """One input file plus the verdict counts every mode must reach."""

    def __init__(self, name, text, assertions, verified):
        self.name = name
        self.text = text
        self.assertions = assertions
        self.verified = verified  # mode -> expected verified count

    def exit_code(self, mode):
        return 0 if self.verified[mode] == self.assertions else 1


# --- watchdog: interpreter-bound, heavy repeat inputs -------------------------

def watchdog_program(threads: int, seed: int) -> str:
    lines = ["int g = 0;",
             "thread dog(int v) {",
             "  int t1 = v * 3;",
             "  int i = 0;",
             "  while (i < 12) {",
             "    i = i + 1;",
             "  }",
             "  int t2 = g;",
             "  g = t2 + 1;",
             "  assert(t1 >= 0);",
             "}",
             "thread main() {"]
    for k in range(threads):
        lines.append("  create(dog, %d);" % (1 + (seed + k) % 7))
    lines.append("}")
    return "\n".join(lines) + "\n"


def watchdog(threads: int, seed: int) -> Program:
    # every parameter is positive, so each `t1 >= 0` holds in every mode
    return Program("watchdog%d" % threads, watchdog_program(threads, seed),
                   threads, {mode: threads for mode in MODES})


# --- chain: feasibility-bound, most combinations refuted ----------------------

def chain_program(depth: int, base: int) -> str:
    lines = ["int x = %d;" % base]
    for k in range(1, depth + 1):
        lines.append("thread c%d() {" % k)
        lines.append("  int t = x;")
        lines.append("  assert(t >= %d);" % (base + k - 1))
        lines.append("  x = %d;" % (base + k))
        if k < depth:
            lines.append("  create(c%d);" % (k + 1))
        lines.append("}")
    lines.append("thread main() {")
    lines.append("  create(c1);")
    lines.append("}")
    return "\n".join(lines) + "\n"


def chain(depth: int, seed: int) -> Program:
    # c_k may only read c_{k-1}'s store once ordering is used, so the
    # constrained modes verify all `depth` assertions; without ordering
    # every load also sees later stores and only c1 and c2 stay verified
    base = random.Random(seed).randint(-20, 20)
    return Program("chain%d" % depth, chain_program(depth, base), depth,
                   {"fi": 2, "fs": 2, "fsc": depth, "fso": depth})


# --- soundness: small random loop-free programs -------------------------------
# Statements are emitted already in normal form (one CFG node each, except
# `if` which costs two), so the per-thread node budget bounds the
# interleaving count the oracle has to enumerate.

_OPS = ("+", "-", "*")
_CMP = ("<", "<=", ">", ">=", "==", "!=")


def _local_expr(rng, names):
    if names and rng.random() < 0.7:
        a = rng.choice(names)
        if rng.random() < 0.6:
            return "%s %s %d" % (a, rng.choice(_OPS), rng.randint(-3, 4))
        return "%s %s %s" % (a, rng.choice(_OPS), rng.choice(names))
    return str(rng.randint(-3, 5))


def _body(rng, globals_, budget, prefix, nondet_budget):
    locals_, lines = [], []

    def fresh():
        locals_.append("%sv%d" % (prefix, len(locals_)))
        return locals_[-1]

    while budget > 0:
        kind = rng.choice(("local", "load", "store", "store", "if",
                           "assert", "nondet"))
        if kind == "local":
            expr = _local_expr(rng, locals_)
            lines.append("int %s = %s;" % (fresh(), expr))
        elif kind == "load":
            lines.append("int %s = %s;" % (fresh(), rng.choice(globals_)))
        elif kind == "store":
            value = (rng.choice(locals_) if locals_ and rng.random() < 0.7
                     else str(rng.randint(-2, 4)))
            lines.append("%s = %s;" % (rng.choice(globals_), value))
        elif kind == "nondet":
            if nondet_budget[0] <= 0:
                continue
            nondet_budget[0] -= 1
            lines.append("int %s = *;" % fresh())
        elif kind == "if":
            if not locals_ or budget < 2:
                continue
            cond = "%s %s %d" % (rng.choice(locals_), rng.choice(_CMP),
                                 rng.randint(-2, 4))
            value = (rng.choice(locals_) if rng.random() < 0.6
                     else str(rng.randint(-2, 4)))
            lines.append("if (%s) { %s = %s; }"
                         % (cond, rng.choice(globals_), value))
            budget -= 1
        else:
            if not locals_:
                continue
            cond = "%s %s %d" % (rng.choice(locals_), rng.choice(_CMP),
                                 rng.randint(-4, 8))
            lines.append("assert(%s);" % cond)
        budget -= 1
    return lines


def random_program(seed: int) -> str:
    """Two or three threads, loop-free; sometimes the entry thread stores
    before creating, sometimes a worker creates the second worker."""
    rng = random.Random(seed)
    globals_ = ["g%d" % i for i in range(rng.randint(1, 2))]
    n_workers = rng.randint(1, 2)
    worker_nodes = 6 if n_workers == 1 else 4
    nondet_budget = [1 if n_workers == 2 else 2]
    nested = n_workers == 2 and rng.random() < 0.3

    lines = ["int %s = %d;" % (g, rng.randint(0, 1)) for g in globals_]
    for w in range(n_workers):
        lines.append("thread w%d() {" % w)
        if nested and w == 0:
            lines.append("  create(w1);")
        lines += ["  " + s for s in _body(rng, globals_,
                                          rng.randint(2, worker_nodes),
                                          "w%d" % w, nondet_budget)]
        if nested and w == 0 and rng.random() < 0.5:
            lines.append("  join(w1);")
        lines.append("}")
    lines.append("thread main() {")
    if rng.random() < 0.3:
        lines.append("  %s = %d;" % (rng.choice(globals_), rng.randint(2, 5)))
    for w in range(n_workers):
        if not (nested and w == 1):
            lines.append("  create(w%d);" % w)
    main_nodes = rng.randint(1, 3 if n_workers == 2 else 5)
    lines += ["  " + s for s in _body(rng, globals_, main_nodes, "m",
                                      nondet_budget)]
    if rng.random() < 0.4:
        lines.append("  join(w0);")
        if rng.random() < 0.5:
            lines.append("  int mj = %s;" % rng.choice(globals_))
            lines.append("  assert(mj >= -9);")
    lines.append("}")
    return "\n".join(lines) + "\n"


def corpus(root: str) -> list:
    """The bundled corpus with its expected verdicts from the sidecars."""
    out = []
    for name in CORPUS:
        base = os.path.join(root, "src", "mtir", "corpus", name)
        with open(base + ".mtir", encoding="utf-8") as handle:
            text = handle.read()
        with open(base + ".expect.json", encoding="utf-8") as handle:
            expect = json.load(handle)
        out.append(Program(name, text, expect["assertions"],
                           expect["verified"]))
    return out


def oracle_candidates(seed: int):
    """Endless stream of (program seed, text) for the oracle cross-check;
    the caller takes programs until enough fit the oracle's bounds."""
    rng = random.Random(seed)
    while True:
        program_seed = rng.randrange(1 << 30)
        yield program_seed, random_program(program_seed)


def timed_programs(workload: str, seed: int, root: str) -> list:
    """The programs whose time to verdict the workload reports."""
    if workload == "watchdog":
        return [watchdog(WATCHDOG_THREADS, seed)]
    if workload == "chain":
        return [chain(CHAIN_DEPTH, seed)]
    if workload == "soundness":
        return corpus(root)
    raise ValueError("unknown workload %r" % workload)


WORKLOADS = ("watchdog", "chain", "soundness")
