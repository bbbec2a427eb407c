import random

import pytest

from mtir import AnalysisConfig, analyze, build_model, loads_of, parse
from mtir.corpus import PROGRAMS, source
from mtir.interp import PerLoad, SelfSource

MODES = ("fi", "fs", "fsc", "fso")


@pytest.fixture(scope="session")
def corpus_models():
    return {name: build_model(parse(source(name))) for name in PROGRAMS}


@pytest.fixture(scope="session")
def corpus_results(corpus_models):
    out = {}
    for name, model in corpus_models.items():
        out[name] = {mode: analyze(model, AnalysisConfig(mode=mode))
                     for mode in MODES}
    return out


def node_ids(model):
    """Stable-name -> node id lookup."""
    return {model.node_name(node.id): node.id for node in model.all_nodes()}


def find_nodes(model, predicate):
    return [node.id for node in model.all_nodes() if predicate(node)]


def self_only(cfg):
    """The sequential policy: every load reads the thread-local value."""
    return PerLoad({load: SelfSource() for load in loads_of(cfg)})


# --- random loop-free program generation -------------------------------------
# Statements are emitted already in normal form (one CFG node each, except
# `if` which costs two), so the per-thread node budget directly bounds the
# interleaving count for the oracle.

_OPS = ("+", "-", "*")
_CMP = ("<", "<=", ">", ">=", "==", "!=")


def _local_expr(rng, names):
    if names and rng.random() < 0.7:
        a = rng.choice(names)
        if rng.random() < 0.6:
            return "%s %s %d" % (a, rng.choice(_OPS), rng.randint(-3, 4))
        return "%s %s %s" % (a, rng.choice(_OPS), rng.choice(names))
    return str(rng.randint(-3, 5))


class _Body:
    def __init__(self, rng, globals_, budget, prefix, nondet_budget):
        self.rng = rng
        self.globals = globals_
        self.budget = budget
        self.prefix = prefix
        self.nondet_budget = nondet_budget
        self.locals = []
        self.lines = []

    def fresh(self):
        name = f"{self.prefix}v{len(self.locals)}"
        self.locals.append(name)
        return name

    def emit(self, allow_assert=True):
        rng = self.rng
        while self.budget > 0:
            kind = rng.choice(("local", "load", "store", "store", "if",
                               "assert", "nondet"))
            if kind == "local":
                expr = _local_expr(rng, self.locals)
                self.lines.append("int %s = %s;" % (self.fresh(), expr))
            elif kind == "load":
                self.lines.append("int %s = %s;"
                                  % (self.fresh(), rng.choice(self.globals)))
            elif kind == "store":
                value = (rng.choice(self.locals)
                         if self.locals and rng.random() < 0.7
                         else str(rng.randint(-2, 4)))
                self.lines.append("%s = %s;" % (rng.choice(self.globals),
                                                value))
            elif kind == "nondet":
                if self.nondet_budget[0] <= 0:
                    continue
                self.nondet_budget[0] -= 1
                self.lines.append("int %s = *;" % self.fresh())
            elif kind == "if":
                if not self.locals or self.budget < 2:
                    continue
                cond = "%s %s %d" % (rng.choice(self.locals),
                                     rng.choice(_CMP), rng.randint(-2, 4))
                value = (rng.choice(self.locals) if rng.random() < 0.6
                         else str(rng.randint(-2, 4)))
                self.lines.append("if (%s) { %s = %s; }"
                                  % (cond, rng.choice(self.globals), value))
                self.budget -= 1
            else:
                if not (allow_assert and self.locals):
                    continue
                cond = "%s %s %d" % (rng.choice(self.locals),
                                     rng.choice(_CMP), rng.randint(-4, 8))
                self.lines.append("assert(%s);" % cond)
            self.budget -= 1
        return self.lines


def random_single_thread_program(seed: int) -> str:
    """Loop-free single-thread program (globals still go through
    load/store nodes)."""
    rng = random.Random(seed ^ 0x5EED)
    globals_ = [f"g{i}" for i in range(rng.randint(1, 2))]
    lines = ["int %s = %d;" % (g, rng.randint(0, 1)) for g in globals_]
    lines.append("thread main() {")
    body = _Body(rng, globals_, rng.randint(4, 9), "m", [2])
    lines += ["  " + s for s in body.emit()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def random_program(seed: int) -> str:
    """Small loop-free concurrent program: two or three threads with
    per-thread node budgets chosen so exhaustive interleaving enumeration
    stays in the tens of thousands.  Sometimes the entry thread stores
    before creating (so children start from a non-initial state), and
    sometimes a worker creates the second worker itself (a two-level
    creation chain)."""
    rng = random.Random(seed)
    globals_ = [f"g{i}" for i in range(rng.randint(1, 2))]
    n_workers = rng.randint(1, 2)
    worker_nodes = 6 if n_workers == 1 else 4
    nondet_budget = [1 if n_workers == 2 else 2]
    nested = n_workers == 2 and rng.random() < 0.3

    lines = ["int %s = %d;" % (g, rng.randint(0, 1)) for g in globals_]
    for w in range(n_workers):
        lines.append("thread w%d() {" % w)
        if nested and w == 0:
            lines.append("  create(w1);")
        body = _Body(rng, globals_, rng.randint(2, worker_nodes),
                     "w%d" % w, nondet_budget)
        lines += ["  " + s for s in body.emit()]
        if nested and w == 0 and rng.random() < 0.5:
            lines.append("  join(w1);")
        lines.append("}")
    lines.append("thread main() {")
    if rng.random() < 0.3:
        lines.append("  %s = %d;" % (rng.choice(globals_),
                                     rng.randint(2, 5)))
    for w in range(n_workers):
        if not (nested and w == 1):
            lines.append("  create(w%d);" % w)
    main_nodes = rng.randint(1, 3 if n_workers == 2 else 5)
    body = _Body(rng, globals_, main_nodes, "m", nondet_budget)
    lines += ["  " + s for s in body.emit()]
    if rng.random() < 0.4:
        lines.append("  join(w0);")
        if rng.random() < 0.5:
            lines.append("  int mj = %s;" % rng.choice(globals_))
            lines.append("  assert(mj >= -9);")
    lines.append("}")
    return "\n".join(lines) + "\n"


def repeated_program(seed: int) -> str:
    """Two or three instances of one worker routine with a parameter.
    Arguments come from a small set, so some repeat, and the entry thread
    creates the instances around a store, so equal arguments can still
    start from different states.  Sometimes it joins the first instance
    and then reads, so ordering tells that instance's stores apart from
    its siblings'."""
    rng = random.Random(seed + 91_000)
    globals_ = [f"g{i}" for i in range(rng.randint(1, 2))]
    instances = rng.randint(2, 3)
    lines = ["int %s = %d;" % (g, rng.randint(0, 1)) for g in globals_]
    lines.append("thread w(int p) {")
    # three instances of a longer worker overrun the oracle's schedule cap
    body = _Body(rng, globals_, 1 if instances == 3 else rng.randint(2, 3),
                 "w", [1])
    body.locals.append("p")
    lines += ["  " + s for s in body.emit()]
    lines.append("}")
    lines.append("thread main() {")
    store_at = rng.randint(0, instances)
    for k in range(instances + 1):
        if k == store_at:
            lines.append("  %s = %d;" % (rng.choice(globals_),
                                         rng.randint(2, 5)))
        if k < instances:
            lines.append("  create(w, %d);" % rng.randint(0, 2))
    if rng.random() < 0.4:
        lines.append("  join(w);")
        lines.append("  int mj = %s;" % rng.choice(globals_))
        lines.append("  assert(mj >= %d);" % rng.randint(-1, 2))
    lines.append("}")
    return "\n".join(lines) + "\n"


# a routine whose body starts with a loop, so its entry is a synthetic nop,
# instantiated three times with different arguments by two routines
LOOP_HEADED = """int g = 0;
thread spin(int k) { while (g < k) { g = g + 1; } assert(k >= 3); }
thread boss() { create(spin, 3); create(spin, 5); join(spin); }
thread main() { create(boss); create(spin, 7); int v = g; assert(v <= 7); }
"""


def instance_programs():
    """Programs whose routines run as several instances: the corpus,
    watchdog/4, `random_program` seeds 0-59, `repeated_program` seeds 0-39
    and a loop-headed routine."""
    from mtir.bench import watchdog_program
    yield from (source(name) for name in PROGRAMS)
    yield watchdog_program(4)
    yield from (random_program(seed) for seed in range(60))
    yield from (repeated_program(seed) for seed in range(40))
    yield LOOP_HEADED
