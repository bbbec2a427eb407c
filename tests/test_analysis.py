import gc
import weakref

import pytest

from conftest import (
    MODES, node_ids, random_program, repeated_program, self_only,
)
from mtir.analysis import AnalysisConfig, analyze, compute_combinations
from mtir.bench import chain_program, watchdog_program
from mtir.cfg import build_model, loads_of, reachable_sets
from mtir.cli import build_report
from mtir.domain import AbstractEnv, interval
from mtir.errors import AnalysisBudgetExceeded, CombinationBudgetExceeded
from mtir.facts import FeasibilityEngine
from mtir.interp import (
    MergedSource, SelfSource, StoreSource, analyze_thread,
)
from mtir.parser import parse
from mtir.pdg import backward_slices, build_pdg, cluster
from mtir.corpus import PROGRAMS, source, expectations


def model_of(text):
    return build_model(parse(text))


def report(result):
    """The JSON report with envs, apart from its wall time."""
    out = build_report(result, 0.0, include_envs=True)
    del out["stats"]["wall_ms"]
    return out


# --- flow-insensitive ------------------------------------------------------------

def test_flow_insensitive_false_alarm(corpus_models, corpus_results):
    model = corpus_models["flag_sync"]
    result = corpus_results["flag_sync"]["fi"]
    assert sum(result.verdicts.values()) == 0
    writer = model.thread_named("thread1")
    published = result.interference_env(writer.tid)
    assert published == AbstractEnv({"flag": interval(1, 1),
                                     "x": interval(4, 5)})
    # one published interference per store node, none bottom
    bucket = result.interference[writer.tid]
    assert [model.node_name(s) for s in sorted(bucket)] \
        == ["t1.4", "t1.5", "t1.6"]
    assert all(not env.bottom for env in bucket.values())


def test_single_thread_matches_sequential():
    model = model_of("int x = 0;\n"
                     "thread main() { int a = x; x = a + 2; int b = x; }")
    result = analyze(model, AnalysisConfig(mode="fi"))
    run = analyze_thread(model.thread(0),
                         AbstractEnv({"x": interval(0, 0)}),
                         self_only(model.thread(0)))
    for n in model.thread(0).node_order():
        assert result.te[n] == run.envs[n]


def test_increment_reader_fixpoint():
    # one thread bumps the counter once, the other samples it: the sample
    # is the hand fixpoint [0,1], within [0,+inf)
    model = model_of(source("inc_read"))
    result = analyze(model, AnalysisConfig(mode="fi"))
    reader = model.thread_named("reader")
    assert result.te[reader.exit].get("tmp") == interval(0, 1)
    assert result.te[reader.exit].get("tmp").leq(interval(0, None))


# --- combinations ----------------------------------------------------------------

def test_two_load_three_store_combinations(corpus_models, corpus_results):
    model = corpus_models["paired_loads"]
    result = corpus_results["paired_loads"]["fs"]
    feas = FeasibilityEngine(model)
    reader = model.thread_named("reader")
    ids = node_ids(model)
    combos, generated, rejected, _ = compute_combinations(
        reader, result.interference, model, feas)
    assert generated == 6 and rejected == 0
    l1, l2 = loads_of(reader)
    s1, s2, s3 = ids["t2.8"], ids["t2.9"], ids["t2.10"]

    def shape(combo, load):
        src = combo[load]
        return src.store if isinstance(src, StoreSource) else "self"

    assert [(shape(c, l1), shape(c, l2)) for c in combos] == [
        (s1, s3), (s2, s3), ("self", s3),
        (s1, "self"), (s2, "self"), ("self", "self"),
    ]


def test_no_loads_single_empty_combination(corpus_models, corpus_results):
    model = corpus_models["paired_loads"]
    result = corpus_results["paired_loads"]["fs"]
    feas = FeasibilityEngine(model)
    writer = model.thread_named("writer")
    combos, generated, rejected, _ = compute_combinations(
        writer, result.interference, model, feas)
    assert combos == [{}]
    assert generated == 1 and rejected == 0


def test_loop_load_merges_surviving_stores(corpus_models, corpus_results):
    model = corpus_models["loop_reader"]
    result = corpus_results["loop_reader"]["fs"]
    feas = FeasibilityEngine(model)
    main = model.thread(0)
    load = loads_of(main)[0]
    combos, generated, _, _ = compute_combinations(
        main, result.interference, model, feas)
    assert generated == 1
    source_ = combos[0][load]
    assert isinstance(source_, MergedSource)
    # both early stores merged, the post-load writer excluded
    assert source_.env.get("x") == interval(1, 2)


def test_self_reachability_is_cycle_membership():
    for name in PROGRAMS:
        model = model_of(source(name))
        for cfg in model.threads:
            reach = reachable_sets(cfg.succs)
            for load in loads_of(cfg):
                on_cycle = bool(reach[load] >> load & 1)
                # naive path search: a nonempty path back to itself
                stack, seen, found = [load], set(), False
                while stack:
                    cur = stack.pop()
                    for dst, _ in cfg.succs[cur]:
                        if dst == load:
                            found = True
                            stack = []
                            break
                        if dst not in seen:
                            seen.add(dst)
                            stack.append(dst)
                assert found == on_cycle


def test_combination_cap():
    model = model_of(source("flag_sync"))
    result = analyze(model, AnalysisConfig(mode="fs"))
    feas = FeasibilityEngine(model)
    reader = model.thread_named("thread2")
    with pytest.raises(CombinationBudgetExceeded):
        compute_combinations(reader, result.interference, model, feas,
                             combo_cap=5)


def test_combination_cap_counts_refuted_sources(tmp_path, capsys):
    # the cap reads the full per-store product: ordering refutes all but
    # two of the deepest chain link's ten sources, and the cap still holds
    from mtir.cli import main
    model = model_of(chain_program(10))
    result = analyze(model, AnalysisConfig(mode="fsc"))
    link = model.thread_named("c10")
    combos, generated, rejected, runs = compute_combinations(
        link, result.interference, model, FeasibilityEngine(model),
        feasibility=True)
    assert (generated, rejected, runs, len(combos)) == (10, 8, 2, 2)
    with pytest.raises(CombinationBudgetExceeded):
        analyze(model, AnalysisConfig(mode="fsc", combo_cap=5))
    prog = tmp_path / "chain.mtir"
    prog.write_text(chain_program(10))
    assert main(["analyze", str(prog), "--mode=fsc", "--combo-cap=5"]) == 2
    assert "interference combinations (cap 5)" in capsys.readouterr().err


# --- flow-sensitive modes ----------------------------------------------------------

def test_flag_sync_constrained_verifies(corpus_results):
    result = corpus_results["flag_sync"]["fsc"]
    assert all(result.verdicts.values())
    final = result.stats.per_iteration[-1]
    reader_tid = 2
    assert final.combos[reader_tid] == 6
    assert final.infeasible[reader_tid] == 2


def test_deep_creation_chain_verdicts():
    # only ordering rules out the later links' stores, so the constrained
    # modes verify every link and the plain modes only the first two
    model = model_of(chain_program(30))
    verified = {mode: len(analyze(model, AnalysisConfig(mode=mode))
                          .verified_assertions())
                for mode in MODES}
    assert verified == {"fi": 2, "fs": 2, "fsc": 30, "fso": 30}


def test_flag_sync_plain_fs_unproven_with_expected_case_split(corpus_models):
    model = corpus_models["flag_sync"]
    result = analyze(model, AnalysisConfig(mode="fs"))
    assert sum(result.verdicts.values()) == 0
    # hand enumeration of the six cases: only flag-from-store combined
    # with a non-final x value can fail the guard
    ids = node_ids(model)
    feas = FeasibilityEngine(model)
    reader = model.thread_named("thread2")
    combos, _, _, _ = compute_combinations(reader, result.interference, model,
                                           feas)
    init = AbstractEnv({"flag": interval(0, 0), "x": interval(0, 0)})
    expected = {
        (ids["t1.6"], ids["t1.4"]): True,   # stale x: false alarm case
        (ids["t1.6"], "self"): True,        # initial x: false alarm case
        (ids["t1.6"], ids["t1.5"]): False,  # consistent snapshot
        ("self", ids["t1.4"]): False,
        ("self", ids["t1.5"]): False,
        ("self", "self"): False,
    }
    from mtir.interp import PerLoad
    for combo in combos:
        key = tuple(src.store if isinstance(src, StoreSource) else "self"
                    for src in (combo[ids["t2.9"]], combo[ids["t2.11"]]))
        run = analyze_thread(reader, init, PerLoad(combo))
        assert bool(run.violable) == expected[key], key


def test_loop_reader_value_excludes_late_store(corpus_models, corpus_results):
    from mtir.interp import PerLoad, _apply_load

    model = corpus_models["loop_reader"]
    result = corpus_results["loop_reader"]["fsc"]
    feas = FeasibilityEngine(model)
    main = model.thread(0)
    load = loads_of(main)[0]
    combos, _, _, _ = compute_combinations(main, result.interference, model,
                                           feas)
    post = _apply_load(load, model.node(load).stmt, result.te[load],
                       PerLoad(combos[0]))
    assert post.get("t1") == interval(0, 2)


def test_param_guard_pruned_runs(corpus_results):
    result = corpus_results["param_guard"]["fso"]
    assert all(result.verdicts.values())
    assert result.stats.pruned_loads == 2
    for iteration in result.stats.per_iteration:
        assert iteration.runs == 3  # one run per thread


def test_param_guard_unpruned_three_combinations(corpus_models,
                                                 corpus_results):
    model = corpus_models["param_guard"]
    result = corpus_results["param_guard"]["fs"]
    feas = FeasibilityEngine(model)
    for name in ("thr#1", "thr#2"):
        combos, generated, rejected, _ = compute_combinations(
            model.thread_named(name), result.interference, model, feas)
        assert generated == 3 and rejected == 0


def test_disjoint_chains_clustering(corpus_models, corpus_results):
    model = corpus_models["disjoint_chains"]
    fs_result = corpus_results["disjoint_chains"]["fs"]
    fso_result = corpus_results["disjoint_chains"]["fso"]
    assert all(fs_result.verdicts.values())
    assert all(fso_result.verdicts.values())
    assert fso_result.stats.clusters == 2
    feas = FeasibilityEngine(model)
    reader = model.thread_named("thread2")
    _, full, _, _ = compute_combinations(reader, fs_result.interference, model,
                                         feas)
    assert full == 4
    graph = build_pdg(model)
    zipped, _, _, _ = compute_combinations(
        reader, fso_result.interference, model, feas,
        plan=cluster(graph, backward_slices(graph, model), model))
    assert len(zipped) == 2


def test_outer_budget():
    model = model_of(source("flag_sync"))
    with pytest.raises(AnalysisBudgetExceeded):
        analyze(model, AnalysisConfig(mode="fsc", outer_budget=1))


def test_republication_monotone():
    # every store's published environment only grows across iterations
    model = model_of(source("inc_read"))
    config = AnalysisConfig(mode="fs")
    snapshots = []

    from mtir import analysis as analysis_mod
    original = analysis_mod._publish

    def spying_publish(*args, **kwargs):
        original(*args, **kwargs)
        table = args[2]
        snapshots.append({tid: dict(bucket) for tid, bucket in table.items()})

    analysis_mod._publish = spying_publish
    try:
        analyze(model, config)
    finally:
        analysis_mod._publish = original

    for before, after in zip(snapshots, snapshots[1:]):
        for tid, bucket in before.items():
            for store, env in bucket.items():
                assert env.leq(after[tid][store])


def test_accuracy_ordering_on_corpus(corpus_results):
    for name, by_mode in corpus_results.items():
        fi = by_mode["fi"].verified_assertions()
        fs = by_mode["fs"].verified_assertions()
        fsc = by_mode["fsc"].verified_assertions()
        fso = by_mode["fso"].verified_assertions()
        assert fi <= fs <= fsc, name
        assert fso == fsc, name


def test_expected_verdicts(corpus_results):
    for name, by_mode in corpus_results.items():
        expect = expectations(name)
        assert len(by_mode["fi"].verdicts) == expect["assertions"], name
        for mode in MODES:
            got = sum(by_mode[mode].verdicts.values())
            assert got == expect["verified"][mode], (name, mode)


def test_termination_within_budget_on_corpus(corpus_results):
    for name, by_mode in corpus_results.items():
        for mode, result in by_mode.items():
            assert result.stats.outer_iters <= 64, (name, mode)
        # fi is one merged combination per thread per iteration, counted
        # as no combination and never filtered
        stats = by_mode["fi"].stats
        assert stats.combos == stats.infeasible == 0, name
        assert stats.runs \
            == len(by_mode["fi"].model.threads) * stats.outer_iters, name


def _full_product(cfg, table, model, facts, feasibility=False, plan=None,
                  identity=frozenset(), combo_cap=None, merged=False,
                  index=None):
    """Reference `compute_combinations`: the whole per-store product of
    each cluster, every combination feasibility-checked on its own, no
    source dropped or merged before the product, clusters zipped."""
    from mtir.analysis import _cartesian, _source_lists, _store_index
    active = [l for l in loads_of(cfg) if l not in identity]
    sources = _source_lists(cfg, _store_index(model, table), facts, active,
                            merged)
    if merged:
        return [{l: options[0] for l, options in sources.items()}], 0, 0, 1
    background = {l: SelfSource() for l in active}
    lists, generated, rejected = [], 0, 0
    groups = [active] if plan is None else plan.get(cfg.tid, [])
    for group in groups:
        group = [l for l in group if l in sources]
        if group:
            every = _cartesian(group, sources)
            kept = [combo for combo in every
                    if not feasibility or facts.is_feasible(combo)]
            generated += len(every)
            rejected += len(every) - len(kept)
            lists.append((group, kept or [{l: SelfSource() for l in group}]))
    zipped = []
    for k in range(max((len(combos) for _, combos in lists), default=1)):
        combo = dict(background)
        for group, combos in lists:
            combo.update(combos[k] if k < len(combos)
                         else {l: SelfSource() for l in group})
        zipped.append(combo)
    return zipped, generated or 1, rejected, len(zipped)


def test_memoized_runs_match_unmemoized(corpus_models, monkeypatch):
    from mtir import analysis as analysis_mod
    cases = dict(corpus_models)
    for seed in range(20):
        cases["random%d" % seed] = model_of(random_program(seed))
        # instances of one routine share runs
        cases["repeated%d" % seed] = model_of(repeated_program(seed))
    for size in (4, 8):
        cases["watchdog%d" % size] = model_of(watchdog_program(size))
    # c's entry state grows across outer iterations, with equal loads
    cases["late_create"] = model_of(
        "int g = 0;\n"
        "thread w() { g = 5; }\n"
        "thread c() { int t = g; assert(t <= 1); }\n"
        "thread main() { create(w); int a = g; g = a + 1; create(c); }\n")
    memoized = {}
    for name, model in cases.items():
        for mode in MODES:
            result = analyze(model, AnalysisConfig(mode=mode))
            assert result.stats.interp_runs <= result.stats.runs
            memoized[name, mode] = result
    # a fresh key per call makes every scheduled run execute, and none is
    # shared between instances; the reference schedules every feasible
    # combination of the per-store product
    monkeypatch.setattr(analysis_mod, "_run_key", lambda *_: object())
    monkeypatch.setattr(analysis_mod, "compute_combinations", _full_product)
    for (name, mode), memo in memoized.items():
        full = analyze(memo.model, AnalysisConfig(mode=mode))
        assert full.stats.interp_runs == full.stats.runs, (name, mode)
        assert full.stats.runs == memo.stats.runs, (name, mode)
        assert full.stats.combos == memo.stats.combos, (name, mode)
        assert full.stats.infeasible == memo.stats.infeasible, (name, mode)
        assert full.te == memo.te, (name, mode)
        assert full.verdicts == memo.verdicts, (name, mode)
        assert full.interference == memo.interference, (name, mode)


def test_watchdog_run_counts():
    # 8 instances of one routine: most scheduled runs repeat an input,
    # their own or another instance's
    model = model_of(watchdog_program(8))
    counts = {}
    for mode in MODES:
        stats = analyze(model, AnalysisConfig(mode=mode)).stats
        counts[mode] = (stats.runs, stats.interp_runs)
    assert counts == {"fi": (54, 36), "fs": (334, 36), "fsc": (334, 36),
                      "fso": (18, 8)}


def test_resumed_run_counts():
    # every dog counts to 12 before it reads g: of the 36 runs fi, fs and
    # fsc execute on watchdog/16, the 28 after the first from each (thread,
    # entry state) resume its stored prefix; under fso the loop is off the
    # slice.  A chain link reads x first, so it stores no prefix.  The
    # counter stays out of the report.
    counts = {}
    for name, text in (("watchdog16", watchdog_program(16)),
                       ("chain10", chain_program(10))):
        model = model_of(text)
        for mode in MODES:
            result = analyze(model, AnalysisConfig(mode=mode))
            counts[name, mode] = (result.stats.interp_runs,
                                  result.stats.resumed_runs)
            assert "resumed_runs" not in report(result)["stats"]
    assert {mode: counts["watchdog16", mode] for mode in MODES} == {
        "fi": (36, 28), "fs": (36, 28), "fsc": (36, 28), "fso": (8, 0)}
    assert all(counts["chain10", mode][1] == 0 for mode in MODES)


def test_one_model_four_modes_in_any_order():
    # `mtir bench` and perfbench analyze one model in every mode, so what a
    # thread caches (its compiled step table) must not carry one mode's
    # identity nodes or interference into the next
    programs = [source(name) for name in PROGRAMS] + [watchdog_program(4)]
    for text in programs:
        fresh = {mode: report(analyze(model_of(text),
                                      AnalysisConfig(mode=mode)))
                 for mode in MODES}
        for order in (("fso", "fi", "fs", "fsc"), ("fsc", "fs", "fi", "fso")):
            model = model_of(text)
            for mode in order:
                got = report(analyze(model, AnalysisConfig(mode=mode)))
                assert got == fresh[mode], (text[:40], order, mode)


def test_instances_share_one_step_table():
    # a routine's statements compile once, whatever its instance count
    model = model_of(watchdog_program(4))
    dogs = [cfg for cfg in model.threads if cfg.routine == "dog"]
    assert len(dogs) == 4
    assert all(cfg.steps is dogs[0].steps for cfg in dogs)
    assert model.threads[0].steps is not dogs[0].steps


def test_chain_run_counts():
    # a creation chain: feasibility rejects most combinations, and every
    # combination of a link's load can be refuted at once
    model = model_of(chain_program(10))
    counts = {}
    for mode in MODES:
        stats = analyze(model, AnalysisConfig(mode=mode)).stats
        counts[mode] = (stats.runs, stats.interp_runs, stats.combos,
                        stats.infeasible)
    assert counts == {"fi": (33, 21, 0, 0), "fs": (213, 101, 213, 0),
                      "fsc": (31, 20, 112, 81), "fso": (31, 20, 112, 81)}


def test_cfg_sets_computed_once_per_routine(monkeypatch):
    # the graph is fixed once build_model returns and later instances are
    # shifted copies: analyses compute each routine's dominators once and
    # its reachability not at all
    from mtir import cfg as cfg_mod
    model = model_of(watchdog_program(8))
    calls = dict.fromkeys(("dominator_sets", "reachable_sets"), 0)
    for name in calls:
        def counting(*args, _name=name, _original=getattr(cfg_mod, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(cfg_mod, name, counting)
    for mode in ("fs", "fi", "fsc"):
        analyze(model, AnalysisConfig(mode=mode))
    # nine threads of two routines
    assert len(model.threads) == 9
    assert len({cfg.routine for cfg in model.threads}) == 2
    assert calls == {"dominator_sets": 2, "reachable_sets": 0}


def test_models_freed_by_reference_counting():
    # a model holds no reference cycle, so it and its threads are freed as
    # soon as the last reference goes, without the cyclic collector
    texts = [source(name) for name in PROGRAMS] + [watchdog_program(4)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for text in texts:
            model = model_of(text)
            for mode in MODES:
                analyze(model, AnalysisConfig(mode=mode))
            refs = [weakref.ref(model)]
            refs += [weakref.ref(cfg) for cfg in model.threads]
            del model
            assert [ref for ref in refs if ref() is not None] == [], text
    finally:
        if enabled:
            gc.enable()
