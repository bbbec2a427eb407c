import random

import pytest

from conftest import MODES, instance_programs, node_ids, random_program, \
    self_only
from stress_soundness import loopy_program
from mtir.analysis import AnalysisConfig, analyze
from mtir.cfg import build_model, loads_of
from mtir.domain import AbstractEnv, const, interval
from mtir.errors import AnalysisBudgetExceeded
from mtir.interp import (
    MergedSource, PerLoad, SelfSource, StoreSource, analyze_thread,
    is_stable,
)
from mtir.oracle import OracleBounds, enumerate_executions
from mtir.parser import parse
from mtir.corpus import source


@pytest.fixture(scope="module")
def flag_sync():
    return build_model(parse(source("flag_sync")))


def init_env(model):
    return AbstractEnv({name: const(v) for name, v in model.globals.items()})


def merged(cfg, summary):
    """Every load joins its local value with the summary interval of its
    variable: the flow-insensitive read."""
    sources = {}
    for load in loads_of(cfg):
        var = cfg.nodes[load].stmt.var
        sources[load] = MergedSource(AbstractEnv({var: summary[var]}))
    return PerLoad(sources)


def test_writer_thread_self_only(flag_sync):
    model = flag_sync
    t1 = model.thread_named("thread1")
    run = analyze_thread(t1, init_env(model), self_only(t1))
    ids = node_ids(model)
    # before the flag store: both earlier stores have landed
    env = run.envs[ids["t1.6"]]
    assert env.get("x") == interval(5, 5)
    assert env.get("flag") == interval(0, 0)


def test_reader_with_joined_interference(flag_sync):
    model = flag_sync
    t2 = model.thread_named("thread2")
    policy = merged(t2, {"x": interval(4, 5), "flag": interval(1, 1)})
    run = analyze_thread(t2, init_env(model), policy)
    ids = node_ids(model)
    env = run.envs[ids["t2.12"]]  # guard on t1, inside the taken branch
    assert not env.bottom
    assert env.get("t1") == interval(0, 5)
    # the guarded failure point stays reachable: the false alarm
    assert not run.envs[ids["t2.13"]].bottom
    assert ids["t2.13"] in run.violable


def test_reader_with_pinned_sources(flag_sync):
    model = flag_sync
    ids = node_ids(model)
    t1 = model.thread_named("thread1")
    t2 = model.thread_named("thread2")
    writer = analyze_thread(t1, init_env(model), self_only(t1))
    steps, base = t1.steps.transfer, t1.first_node
    post_l5 = steps[ids["t1.5"] - base](writer.envs[ids["t1.5"]])
    post_l6 = steps[ids["t1.6"] - base](writer.envs[ids["t1.6"]])
    # flag from its store, x from the final store: consistent snapshot
    policy = PerLoad({ids["t2.9"]: StoreSource(ids["t1.6"], post_l6),
                      ids["t2.11"]: StoreSource(ids["t1.5"], post_l5)})
    run = analyze_thread(t2, init_env(model), policy)
    assert run.envs[ids["t2.12"]].get("t1") == interval(5, 5)
    assert run.envs[ids["t2.13"]].bottom
    assert not run.violable


def test_self_source_reads_local(flag_sync):
    model = flag_sync
    ids = node_ids(model)
    t2 = model.thread_named("thread2")
    policy = PerLoad({ids["t2.9"]: SelfSource(),
                      ids["t2.11"]: SelfSource()})
    run = analyze_thread(t2, init_env(model), policy)
    # flag is never set by this thread, so the branch cannot be taken
    assert run.envs[ids["t2.11"]].bottom
    assert not run.violable


def test_bottom_init_short_circuits(flag_sync):
    t2 = flag_sync.thread_named("thread2")
    run = analyze_thread(t2, AbstractEnv.bot(), self_only(t2))
    assert all(env.bottom for env in run.envs.values())


def test_widening_terminates_unbounded_loop():
    model = build_model(parse(
        "int x = 0;\nthread main() { int i = 0; while (*) { i = i + 1; } }"))
    cfg = model.thread(0)
    run = analyze_thread(cfg, init_env(model), self_only(cfg))
    assert run.envs[cfg.exit].get("i") == interval(0, None)


def test_narrowing_recovers_loop_bound():
    model = build_model(parse(
        "thread main() { int i = 0; while (i < 8) { i = i + 1; } }"))
    cfg = model.thread(0)
    run = analyze_thread(cfg, AbstractEnv({}), self_only(cfg))
    assert run.envs[cfg.exit].get("i") == interval(8, 8)


def test_narrowing_only_after_widening(monkeypatch):
    # with no widening the ascending fixpoint is already the join of each
    # node's final incoming edges: the descending sweep is skipped
    from mtir.bench import chain_program, watchdog_program
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
        analyze_thread(model.thread(0), AbstractEnv({}),
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


def test_resumed_runs_match_fresh_runs(monkeypatch):
    # with a fresh run key per call every combination analyze schedules
    # executes; each run that resumed a stored prefix must equal a fresh
    # run of the same thread, entry state and policy
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
    texts.append(READ_IN_LOOP)
    for text in texts:
        model = build_model(parse(text))
        for mode in MODES:
            analyze(model, AnalysisConfig(mode=mode))
    assert len(resumed) > 1000, len(resumed)


def test_resumed_run_exceeds_budget_at_the_same_visit(monkeypatch):
    # a local loop, then a shared read inside a second loop: the stored
    # prefix ends mid-run, and a run resumed from it must give up at the
    # same visit as a fresh run, whether the budget runs out before the
    # prefix ends or after
    model = build_model(parse(
        "int g = 0;\nthread main() { int i = 0; while (i < 6) { i = i + 1; }"
        " int j = 0; while (j < 30) { int t = g; j = j + 1; } }"))
    cfg, init = model.thread(0), init_env(model)
    policy, delay = self_only(cfg), 10 ** 9
    prefixes = {}
    assert not analyze_thread(cfg, init, policy, widening_delay=delay,
                              prefixes=prefixes).resumed
    (prefix,) = prefixes.values()

    def gives_up(budget, stored):
        monkeypatch.setattr("mtir.interp.VISIT_BUDGET", budget)
        resumes = bool(stored)
        try:
            run = analyze_thread(cfg, init, policy, widening_delay=delay,
                                 prefixes=stored)
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


def test_stabilization_under_pinned_sources(flag_sync):
    from mtir.analysis import compute_combinations
    from mtir.facts import FeasibilityEngine

    model = flag_sync
    result = analyze(model, AnalysisConfig(mode="fs"))
    feas = FeasibilityEngine(model)
    reader = model.thread_named("thread2")
    combos, _, _, _ = compute_combinations(reader, result.interference, model,
                                           feas)
    init = init_env(model)
    for combo in combos:
        run = analyze_thread(reader, init, PerLoad(combo))
        assert is_stable(reader, run, PerLoad(combo), init)


@pytest.mark.parametrize("seed", range(8))
def test_stabilization_fixpoint_check(seed):
    model = build_model(parse(random_program(seed)))
    init = init_env(model)
    for cfg in model.threads:
        env = init
        for param, value in cfg.params.items():
            env = env.set(param, const(value))
        run = analyze_thread(cfg, env, self_only(cfg))
        assert is_stable(cfg, run, self_only(cfg), env)


@pytest.mark.parametrize("seed", range(10))
def test_policy_monotonicity(seed):
    rng = random.Random(seed * 131 + 5)
    model = build_model(parse(random_program(seed)))
    summary = {var: interval(rng.randint(-8, 0), rng.randint(1, 9))
               for var in model.globals}
    for cfg in model.threads:
        base = analyze_thread(cfg, init_env(model), self_only(cfg))
        fed = analyze_thread(cfg, init_env(model), merged(cfg, summary))
        for n in cfg.node_order():
            assert base.envs[n].leq(fed.envs[n])


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
