import copy
import random

import pytest

from conftest import MODES, XINST, instance_programs, node_ids, \
    one_cluster, policy_of, random_program, repeated_program, run_thread, \
    self_only
from stress_soundness import loopy_program
from mtir.analysis import AnalysisConfig, analyze
from mtir.cfg import SLocal, build_model, loads_of
from mtir.domain import AbstractEnv, const, interval
from mtir.errors import AnalysisBudgetExceeded
from mtir.interp import (
    VISIT_BUDGET, MergedSource, SelfSource, StepTable, StoreSource, ThreadRun,
    _node_out, analyze_thread,
)
from mtir.oracle import OracleBounds, enumerate_executions
from mtir.parser import parse
from mtir.bench import chain_program
from mtir.corpus import PROGRAMS, source


@pytest.fixture(scope="module")
def flag_sync():
    return build_model(parse(source("flag_sync")))


def init_env(model):
    return AbstractEnv({name: const(v) for name, v in model.globals.items()})


def is_stable(cfg, run, policy, init, table=None):
    """Fixpoint check: one more sweep must change nothing.  Like the run,
    it walks the step table (the routine unsliced by default) by relative
    node id."""
    table = StepTable(cfg) if table is None else table
    if not init.leq(run.envs[table.entry]):
        return False
    for n, edges in enumerate(table.succs):
        out = _node_out(table, n, run.envs[n], policy)
        for dst, filt in edges:
            if not (out if filt is None else filt(out)).leq(run.envs[dst]):
                return False
    return True


def env_at(cfg, run, node):
    """The run's state before the node with absolute id `node`."""
    return run.envs[node - cfg.first_node]


def merged(cfg, summary):
    """Every load joins its local value with the summary interval of its
    variable: the flow-insensitive read."""
    return tuple(MergedSource(summary[cfg.nodes[load].stmt.var])
                 for load in loads_of(cfg))


def test_writer_thread_self_only(flag_sync):
    model = flag_sync
    t1 = model.thread_named("thread1")
    run = run_thread(t1, init_env(model), self_only(t1))
    ids = node_ids(model)
    # before the flag store: both earlier stores have landed
    env = env_at(t1, run, ids["t1.6"])
    assert env.get("x") == interval(5, 5)
    assert env.get("flag") == interval(0, 0)


def test_reader_with_joined_interference(flag_sync):
    model = flag_sync
    t2 = model.thread_named("thread2")
    policy = merged(t2, {"x": interval(4, 5), "flag": interval(1, 1)})
    run = run_thread(t2, init_env(model), policy)
    ids = node_ids(model)
    env = env_at(t2, run, ids["t2.12"])  # guard on t1, in the taken branch
    assert not env.bottom
    assert env.get("t1") == interval(0, 5)
    # the guarded failure point stays reachable: the false alarm
    assert not env_at(t2, run, ids["t2.13"]).bottom
    assert ids["t2.13"] - t2.first_node in run.violable


def test_reader_with_pinned_sources(flag_sync):
    model = flag_sync
    ids = node_ids(model)
    t1 = model.thread_named("thread1")
    t2 = model.thread_named("thread2")
    writer = run_thread(t1, init_env(model), self_only(t1))
    steps, base = StepTable(t1).transfer, t1.first_node
    post_l5 = steps[ids["t1.5"] - base](env_at(t1, writer, ids["t1.5"]))
    post_l6 = steps[ids["t1.6"] - base](env_at(t1, writer, ids["t1.6"]))
    # flag from its store, x from the final store: consistent snapshot
    policy = policy_of(t2, {
        ids["t2.9"]: StoreSource(ids["t1.6"], post_l6.get("flag")),
        ids["t2.11"]: StoreSource(ids["t1.5"], post_l5.get("x"))})
    run = run_thread(t2, init_env(model), policy)
    assert env_at(t2, run, ids["t2.12"]).get("t1") == interval(5, 5)
    assert env_at(t2, run, ids["t2.13"]).bottom
    assert not run.violable


def test_self_source_reads_local(flag_sync):
    model = flag_sync
    ids = node_ids(model)
    t2 = model.thread_named("thread2")
    policy = policy_of(t2, {ids["t2.9"]: SelfSource(),
                            ids["t2.11"]: SelfSource()})
    run = run_thread(t2, init_env(model), policy)
    # flag is never set by this thread, so the branch cannot be taken
    assert env_at(t2, run, ids["t2.11"]).bottom
    assert not run.violable


def test_sources_compare_by_the_value_read():
    # only feasibility asks which store a source reads, so store sources of
    # equal values are one source; a merged source joins with the local
    # binding, so it stays apart from a store source of its value
    five, local = interval(5, 5), interval(0, 1)
    assert StoreSource(3, five) == StoreSource(8, five)
    assert hash(StoreSource(3, five)) == hash(StoreSource(8, five))
    assert len({StoreSource(3, five), StoreSource(8, five)}) == 1
    assert StoreSource(3, five) != StoreSource(3, interval(5, 6))
    assert StoreSource(3, five) != MergedSource(five)
    assert MergedSource(five) != SelfSource() == SelfSource()
    assert [source.read(local) for source in
            (SelfSource(), StoreSource(3, five), MergedSource(five))] \
        == [local, five, interval(0, 5)]
    # the store is kept and printed, but sources cannot be changed
    assert StoreSource(3, five).store == 3
    assert repr(StoreSource(3, five)) == "StoreSource(store=3, value=[5,5])"
    assert repr(SelfSource()) == "SelfSource()"
    with pytest.raises(AttributeError):
        StoreSource(3, five).store = 8
    with pytest.raises(AttributeError):
        MergedSource(five).value = local


def test_thread_runs_compare_without_resumption():
    # whether a run resumed a stored prefix is not part of its result
    envs = [AbstractEnv({"x": interval(0, 1)}), AbstractEnv.bot()]
    assert ThreadRun(envs, {1}, resumed=True) == ThreadRun(list(envs), {1})
    assert ThreadRun(envs, {1}) != ThreadRun(envs, {0})
    assert ThreadRun(envs) != ThreadRun(envs[:1])
    with pytest.raises(TypeError):
        hash(ThreadRun(envs))
    # each run gets its own set of violable assertions
    assert ThreadRun([]).violable is not ThreadRun([]).violable


def test_policy_must_cover_every_load(flag_sync):
    # a policy holds one source per load of the table, in its load order
    t2 = flag_sync.thread_named("thread2")
    policy = self_only(t2)
    assert len(policy) == len(StepTable(t2).loads) == 2
    for wrong in (policy[1:], policy + (SelfSource(),)):
        with pytest.raises(ValueError):
            run_thread(t2, init_env(flag_sync), wrong)


def test_bottom_init_short_circuits(flag_sync):
    t2 = flag_sync.thread_named("thread2")
    run = run_thread(t2, AbstractEnv.bot(), self_only(t2))
    assert all(env.bottom for env in run.envs)


def test_widening_terminates_unbounded_loop():
    model = build_model(parse(
        "int x = 0;\nthread main() { int i = 0; while (*) { i = i + 1; } }"))
    cfg = model.thread(0)
    run = run_thread(cfg, init_env(model), self_only(cfg))
    assert env_at(cfg, run, cfg.exit).get("i") == interval(0, None)


def test_narrowing_recovers_loop_bound():
    model = build_model(parse(
        "thread main() { int i = 0; while (i < 8) { i = i + 1; } }"))
    cfg = model.thread(0)
    run = run_thread(cfg, AbstractEnv({}), self_only(cfg))
    assert env_at(cfg, run, cfg.exit).get("i") == interval(8, 8)


def test_narrowing_only_after_widening(monkeypatch):
    # with no widening the ascending fixpoint is already the join of each
    # node's final incoming edges: the descending sweep is skipped
    from mtir.bench import watchdog_program
    calls = []
    original = AbstractEnv.narrow
    monkeypatch.setattr(AbstractEnv, "narrow",
                        lambda self, other: calls.append(1)
                        or original(self, other))
    analyze(build_model(parse(chain_program(10))), AnalysisConfig(mode="fs"))
    assert not calls
    analyze(build_model(parse(watchdog_program(4))),
            AnalysisConfig(mode="fs"))
    assert calls


def test_visit_budget(monkeypatch):
    model = build_model(parse(
        "thread main() { int i = 0; while (i < 100) { i = i + 1; } }"))
    monkeypatch.setattr("mtir.interp.VISIT_BUDGET", 50)
    with pytest.raises(AnalysisBudgetExceeded):
        run_thread(model.thread(0), AbstractEnv({}),
                   self_only(model.thread(0)), widening_delay=10 ** 9)


# main's first shared read is in its loop, after the loop head's first
# updates: a resumed run goes on mid-ascent and must widen the head at the
# same update as a fresh run (`k != 3` does not narrow it back)
READ_IN_LOOP = """int g = 0;
thread bump() { int b = g; g = b + 2; }
thread main() {
  create(bump);
  int acc = 0;
  int k = 0;
  while (k != 3) { k = k + 1; if (k > 1) { int v = g; acc = v; } }
  assert(acc >= 0);
}
"""


# main's two loads of g sit on the two branches of an `if` after a
# widened loop: whichever is popped first consults while the other is
# pending, so what the pending one reaches must be narrowed per run
PENDING_LOAD = """int g = 0;
thread w() { g = 5; g = 9; }
thread main() {
  create(w);
  int i = 0;
  while (i < 4) { i = i + 1; }
  int c = *;
  int s = 0;
  if (c > 0) { int t = g; s = t; } else { int u = g; s = u + 1; }
  assert(s <= 9);
}
"""

# k trails i by three assignments, so the loop narrows over three sweeps;
# the loop settles before the read is popped, and k and l are reset
# between the two, so the nodes after the read stop changing after the
# first sweep: a resumed run must go on sweeping while the recorded
# sweeps of the loop still change
LAGGED = """int g = 0;
thread w() { g = 1; }
thread main() {
  create(w);
  int i = 0;
  int m = 0;
  int l = 0;
  int k = 0;
  while (i < 5) { k = l; l = m; m = i; i = i + 1; }
  k = 0;
  l = 0;
  int a = 1;
  int b = a + 1;
  int c = b + 1;
  int t = g;
  assert(t <= c);
}
"""


def lagged(before: int) -> str:
    """LAGGED with the first `before` of its five statements between the
    loop and the read of g, and the others after the read."""
    head, rest = LAGGED.split("  k = 0;\n")
    middle, tail = ("  k = 0;\n" + rest).split("  int t = g;\n")
    lines = middle.splitlines(keepends=True)
    return head + "".join(lines[:before]) + "  int t = g;\n" \
        + "".join(lines[before:]) + tail


@pytest.mark.parametrize("before", range(5))
def test_prefix_fixes_every_node_before_the_first_read(before):
    # the worklist pops the lowest pending node, so the loop settles before
    # the read of g is popped however few statements lie between them,
    # and the stored prefix fixes every node before the read
    model = build_model(parse(lagged(before)))
    cfg = model.thread_named("main")
    prefixes = {}
    analyze_thread(cfg, init_env(model), self_only(cfg),
                   table=StepTable(cfg), prefixes=prefixes)
    (prefix,) = prefixes.values()
    (load,) = (n - cfg.first_node for n in loads_of(cfg))
    before_read = (1 << load) - 1
    assert prefix.fixed & before_read == before_read


def test_acyclic_table_visits_each_node_once(monkeypatch):
    # without a cycle, node order is a topological order: each node with
    # a state is popped once, branches of unequal length and all
    model = build_model(parse(
        "int g = 0;\nthread main() { int c = *; int s = 0;"
        " if (c > 0) { s = 1; s = s + 1; s = s + 2; } else { s = 2; }"
        " if (s > 1) { if (c > 3) { s = 4; } else { s = 5; s = 6; } }"
        " else { s = 7; } int t = g; assert(s <= 9); }"))
    cfg = model.thread_named("main")
    table, init, policy = StepTable(cfg), init_env(model), self_only(cfg)
    run = analyze_thread(cfg, init, policy, table=table)
    reached = sum(not env.bottom for env in run.envs)
    monkeypatch.setattr("mtir.interp.VISIT_BUDGET", reached)
    analyze_thread(cfg, init, policy, table=table)
    monkeypatch.setattr("mtir.interp.VISIT_BUDGET", reached - 1)
    with pytest.raises(AnalysisBudgetExceeded):
        analyze_thread(cfg, init, policy, table=table)


# routines without a cycle whose first shared read follows local
# statements, so that their one-pass runs store and resume a prefix: a
# path, a routine whose read follows a branch, and a routine created three
# times, twice from equal entry states
ACYCLIC_READS = ["""int g = 0;
thread w() { g = 3; }
thread main() {
  create(w);
  int a = 2;
  int b = a * 3;
  int t = g;
  assert(t + b >= 6);
}
""", """int g = 0;
thread w() { g = 3; g = 8; }
thread main() {
  create(w);
  int a = 1;
  int c = *;
  if (c > 0) { a = a + 1; } else { a = 5; }
  int t = g;
  int s = t + a;
  if (s > 9) { s = 9; }
  assert(s <= 9);
}
""", """int g = 0;
thread r(int p) { int a = p * 2; if (a > 2) { a = 2; } int t = g; g = t + a;
  assert(t >= 0); }
thread main() { create(r, 1); create(r, 1); create(r, 4); }
"""]


def test_resumed_runs_match_fresh_runs(monkeypatch):
    # with a fresh run key per call every combination analyze schedules
    # executes; each run that resumed a stored prefix, and copied the
    # sweeps recorded there, must equal a fresh run of the same thread,
    # entry state and policy, with one to three descending sweeps
    from mtir import analysis as analysis_mod
    resumed = []

    def checked(cfg, init, policy, **kwargs):
        run = analyze_thread(cfg, init, policy, **kwargs)
        if run.resumed:
            fresh = analyze_thread(cfg, init, policy,
                                   **{**kwargs, "prefixes": {}})
            assert not fresh.resumed
            assert run.envs == fresh.envs, cfg.name
            assert run.violable == fresh.violable, cfg.name
            resumed.append(cfg.name)
        return run

    monkeypatch.setattr(analysis_mod, "_run_key", lambda *_: object())
    monkeypatch.setattr(analysis_mod, "analyze_thread", checked)
    texts = list(instance_programs())
    texts += [loopy_program(seed) for seed in range(20)]
    texts += [READ_IN_LOOP, PENDING_LOAD, LAGGED, XINST]
    texts += [lagged(before) for before in range(5)]
    texts += ACYCLIC_READS
    for passes in (1, 2, 3):
        for text in texts:
            model = build_model(parse(text))
            for mode in MODES:
                analyze(model, AnalysisConfig(mode=mode,
                                              narrowing_passes=passes))
    assert len(resumed) > 3000, len(resumed)


def test_one_pass_matches_the_worklist(monkeypatch):
    # a run of a table without a cycle takes one pass in node order;
    # forced through the worklist, with `acyclic` cleared on a copy of its
    # table, it must compute the same states and unproven assertions and
    # give up at the same visit: every run analyze executes, with its
    # stored prefixes, in every mode, on sliced `fso` tables too
    from mtir import analysis as analysis_mod
    acyclic = []  # whether each checked run resumed

    def gives_up(limit, cfg, init, policy, **kwargs):
        monkeypatch.setattr("mtir.interp.VISIT_BUDGET", limit)
        try:
            analyze_thread(cfg, init, policy, **kwargs)
        except AnalysisBudgetExceeded:
            return True
        finally:
            monkeypatch.setattr("mtir.interp.VISIT_BUDGET", VISIT_BUDGET)
        return False

    def checked(cfg, init, policy, *, table, prefixes, **kwargs):
        stored = dict(prefixes)
        run = analyze_thread(cfg, init, policy, table=table,
                             prefixes=prefixes, **kwargs)
        if not table.acyclic:
            return run
        forced = copy.copy(table)
        forced.acyclic = False
        fresh = analyze_thread(cfg, init, policy, table=forced, **kwargs)
        assert run.envs == fresh.envs, cfg.name
        assert run.violable == fresh.violable, cfg.name
        visits = sum(not env.bottom for env in run.envs)
        for limit in (visits - 1, visits) if visits else ():
            expected = limit < visits
            assert gives_up(limit, cfg, init, policy, table=table,
                            prefixes=dict(stored), **kwargs) == expected
            assert gives_up(limit, cfg, init, policy, table=forced,
                            **kwargs) == expected
        acyclic.append(run.resumed)
        return run

    monkeypatch.setattr(analysis_mod, "analyze_thread", checked)
    texts = [source(name) for name in PROGRAMS]
    texts += [random_program(seed) for seed in range(120)]
    texts += [repeated_program(seed) for seed in range(40)]
    texts += [chain_program(depth) for depth in range(1, 13)]
    texts += ACYCLIC_READS
    for text in texts:
        model = build_model(parse(text))
        for mode in MODES:
            analyze(model, AnalysisConfig(mode=mode))
    assert len(acyclic) > 3000 and sum(acyclic) > 30, \
        (len(acyclic), sum(acyclic))


def test_resumed_run_exceeds_budget_at_the_same_visit(monkeypatch):
    # a local loop, then a shared read inside a second loop: the stored
    # prefix ends mid-run, and a run resumed from it must give up at the
    # same visit as a fresh run, whether the budget runs out before the
    # prefix ends or after
    model = build_model(parse(
        "int g = 0;\nthread main() { int i = 0; while (i < 6) { i = i + 1; }"
        " int j = 0; while (j < 30) { int t = g; j = j + 1; } }"))
    cfg, init = model.thread(0), init_env(model)
    table, policy, delay = StepTable(cfg), self_only(cfg), 10 ** 9
    prefixes = {}
    assert not analyze_thread(cfg, init, policy, widening_delay=delay,
                              table=table, prefixes=prefixes).resumed
    (prefix,) = prefixes.values()

    def gives_up(budget, stored):
        monkeypatch.setattr("mtir.interp.VISIT_BUDGET", budget)
        resumes = bool(stored)
        try:
            run = analyze_thread(cfg, init, policy, widening_delay=delay,
                                 table=table, prefixes=stored)
        except AnalysisBudgetExceeded:
            return True
        assert run.resumed == resumes
        return False

    visits = 1
    while gives_up(visits, {}):
        visits += 1
    assert 1 < prefix.visits < visits
    for budget in range(1, visits + 3):
        assert gives_up(budget, {}) == gives_up(budget, prefixes), budget


def test_entry_load_looks_up_but_stores_no_prefix():
    # a thread whose entry is a load consults at its first visit: it looks
    # a prefix up like any run, but has nothing to store; in a table where
    # it is an identity node the load reads nothing, and the prefix ends at
    # the next load
    lookups = []

    class Prefixes(dict):
        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

    model = build_model(parse(
        "int g = 0;\nthread main() { int t = g; int i = 0;"
        " while (i < 5) { i = i + 1; } int u = g; }"))
    cfg, init = model.thread(0), init_env(model)
    full = StepTable(cfg)
    assert full.entry in full.loads
    prefixes = Prefixes()
    for _ in range(2):
        assert not analyze_thread(cfg, init, self_only(cfg), table=full,
                                  prefixes=prefixes).resumed
    assert len(lookups) == 2 and not prefixes
    sliced = StepTable(cfg, 1 << full.entry)
    runs = [analyze_thread(cfg, init, self_only(cfg, sliced), table=sliced,
                           prefixes=prefixes)
            for _ in range(2)]
    assert [run.resumed for run in runs] == [False, True]
    assert len(lookups) == 4 and len(prefixes) == 1


def test_step_table_compiles_identity_nodes_as_no_ops():
    # what an off-slice statement does is decided when its table is built:
    # it keeps its state, filters no out edge and is no load, store or
    # assertion
    model = build_model(parse(
        "int g = 0;\nthread main() { int t = g; int u = g;"
        " if (t > 0) { g = t; } assert(u >= v); }"))
    cfg = model.thread(0)
    full = StepTable(cfg)
    first = min(full.loads)
    identity = frozenset(range(full.size)) - {first}
    sliced = StepTable(cfg, sum(1 << r for r in identity))
    assert len(full.loads) == 2 and full.stores and full.violable
    assert list(sliced.loads) == [first]
    assert not sliced.stores and not sliced.violable
    assert any(filt for edges in full.succs for _, filt in edges)
    env = AbstractEnv({"g": interval(0, 0), "t": interval(1, 2)})
    for r in identity:
        assert sliced.transfer[r](env) is env
        assert all(filt is None for _, filt in sliced.succs[r])


def test_prefixes_are_keyed_on_step_table():
    # one prefixes dict, one routine and entry state, two step tables: with
    # the loop's increment off the slice the loop never exits, so a run of
    # that table must not resume the prefix stored at the read of g
    model = build_model(parse(
        "int g = 0;\nthread main() { int i = 0; while (i < 5) { i = i + 1; }"
        " int t = g; assert(t >= 0); }"))
    cfg, init = model.thread(0), init_env(model)
    _, bump = [r for r, n in enumerate(cfg.node_order())
               if isinstance(cfg.nodes[n].stmt, SLocal)
               and cfg.nodes[n].stmt.target == "i"]
    prefixes, full = {}, StepTable(cfg)
    assert not analyze_thread(cfg, init, self_only(cfg), table=full,
                              prefixes=prefixes).resumed
    assert len(prefixes) == 1
    sliced = StepTable(cfg, 1 << bump)
    run = analyze_thread(cfg, init, self_only(cfg, sliced), table=sliced,
                         prefixes=prefixes)
    fresh = analyze_thread(cfg, init, self_only(cfg, sliced), table=sliced)
    assert not run.resumed
    assert run.envs == fresh.envs and run.violable == fresh.violable
    (load,) = full.loads
    assert fresh.envs[load].bottom  # the read of g is never reached


def test_stabilization_under_pinned_sources(flag_sync):
    from mtir.analysis import compute_combinations
    from mtir.facts import FeasibilityEngine

    model = flag_sync
    result = analyze(model, AnalysisConfig(mode="fs"))
    feas = FeasibilityEngine(model)
    reader = model.thread_named("thread2")
    policies, _, _, _ = compute_combinations(reader, result.interference,
                                             feas, one_cluster(reader))
    init = init_env(model)
    for policy in policies:
        run = run_thread(reader, init, policy)
        assert is_stable(reader, run, policy, init)


@pytest.mark.parametrize("seed", range(8))
def test_stabilization_fixpoint_check(seed):
    model = build_model(parse(random_program(seed)))
    init = init_env(model)
    for cfg in model.threads:
        env = init
        for param, value in cfg.params.items():
            env = env.set(param, const(value))
        run = run_thread(cfg, env, self_only(cfg))
        assert is_stable(cfg, run, self_only(cfg), env)


@pytest.mark.parametrize("seed", range(10))
def test_policy_monotonicity(seed):
    rng = random.Random(seed * 131 + 5)
    model = build_model(parse(random_program(seed)))
    summary = {var: interval(rng.randint(-8, 0), rng.randint(1, 9))
               for var in model.globals}
    for cfg in model.threads:
        base = run_thread(cfg, init_env(model), self_only(cfg))
        fed = run_thread(cfg, init_env(model), merged(cfg, summary))
        for env, fed_env in zip(base.envs, fed.envs):
            assert env.leq(fed_env)


@pytest.mark.parametrize("seed", range(12))
def test_soundness_vs_oracle_single_thread(seed):
    # loop-free single-thread programs: every concrete state is abstracted
    from conftest import random_single_thread_program

    model = build_model(parse(random_single_thread_program(seed)))
    assert len(model.threads) == 1
    records = enumerate_executions(model, OracleBounds())
    result = analyze(model, AnalysisConfig(mode="fi"))
    for record in records:
        for step in record.steps:
            env = result.te[step.node]
            assert not env.bottom
            for name, value in step.locals:
                assert env.get(name).contains(value)
            for name, value in step.globals:
                assert env.get(name).contains(value)
