import gc
import itertools
import random
import weakref
from functools import reduce

import pytest

from conftest import (
    MODES, POLICY_ORDER, SHARED_VALUE, XINST, instance_programs, node_ids,
    one_cluster, random_program, reads_from, repeated_program, run_thread,
    self_only,
)
from stress_soundness import loopy_program
from mtir.analysis import (
    MODE_ROWS, AnalysisConfig, AnalysisStats, IterationStats, Published,
    _merge_te, analyze, compute_combinations,
)
from mtir.bench import chain_program, watchdog_program
from mtir.cfg import build_model, loads_of, reachable_sets
from mtir.cli import build_report, make_parser
from mtir.domain import EMPTY, AbstractEnv, Interval, interval
from mtir.errors import AnalysisBudgetExceeded, CombinationBudgetExceeded
from mtir.facts import FeasibilityEngine
from mtir.interp import (
    MergedSource, SelfSource, StepTable, StoreSource, _node_out,
    analyze_thread,
)
from mtir.oracle import SoundnessReport
from mtir.parser import parse
from mtir.pdg import DependenceGraph, backward_slices, build_pdg, cluster
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
    # one published interference per store node, none empty, each keyed
    # by its store
    stores = [(n, source) for sources in result.interference.values()
              for n, source in sources.sources.items() if n in writer.nodes]
    assert all(n == s.store for n, s in stores)
    assert [model.node_name(n) for n, _ in sorted(stores)] \
        == ["t1.4", "t1.5", "t1.6"]
    assert all(s.value != EMPTY for _, s in stores)


def test_single_thread_matches_sequential():
    model = model_of("int x = 0;\n"
                     "thread main() { int a = x; x = a + 2; int b = x; }")
    result = analyze(model, AnalysisConfig(mode="fi"))
    run = run_thread(model.thread(0),
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
    policies, generated, rejected, _ = compute_combinations(
        reader, result.interference, feas, one_cluster(reader))
    assert generated == 6 and rejected == 0
    s1, s2, s3 = ids["t2.8"], ids["t2.9"], ids["t2.10"]

    def shape(src):
        return src.store if isinstance(src, StoreSource) else "self"

    # a policy lists the reader's two loads in node order
    assert [tuple(map(shape, policy)) for policy in policies] == [
        (s1, s3), (s2, s3), ("self", s3),
        (s1, "self"), (s2, "self"), ("self", "self"),
    ]


def test_no_loads_single_empty_combination(corpus_models, corpus_results):
    model = corpus_models["paired_loads"]
    result = corpus_results["paired_loads"]["fs"]
    feas = FeasibilityEngine(model)
    writer = model.thread_named("writer")
    policies, generated, rejected, _ = compute_combinations(
        writer, result.interference, feas, one_cluster(writer))
    assert policies == [()]
    assert generated == 1 and rejected == 0


def test_load_reads_each_value_from_its_lowest_remote_store():
    # a's own store is the first to publish 1, and b publishes 2 and then
    # 1 twice: a's load reads one of b's stores per value, the lowest, in
    # their node order, then its own value, and the counts keep the
    # per-store product
    model = model_of(SHARED_VALUE)
    a, b = model.thread_named("a"), model.thread_named("b")
    for mode in ("fs", "fsc", "fso"):
        result = analyze(model, AnalysisConfig(mode=mode))
        index = result.interference
        (own,) = [n for n in index["g"].sources if n in a.nodes]
        first, second, third = [n for n in index["g"].sources
                                if n in b.nodes]
        assert own < first < second < third
        assert list(index["g"].values) == [interval(1, 1), interval(2, 2)]
        policies, generated, rejected, runs = compute_combinations(
            a, index, FeasibilityEngine(model), one_cluster(a),
            feasibility=mode != "fs")
        assert [tuple((s.store, s.value) if isinstance(s, StoreSource)
                      else s for s in policy) for policy in policies] == [
            ((first, interval(2, 2)),), ((second, interval(1, 1)),),
            (SelfSource(),)]
        # each read of one value is the table's own source
        assert [policy[0] for policy in policies[:2]] \
            == [index["g"].sources[first], index["g"].sources[second]]
        assert all(policy[0] is index["g"].sources[policy[0].store]
                   for policy in policies[:2])
        assert (generated, rejected, runs) == (4, 0, 4)
        # b's load reads a's store, its one remote one
        policies, generated, _, _ = compute_combinations(
            b, index, FeasibilityEngine(model), one_cluster(b))
        assert [policy[0].store for policy in policies[:-1]] == [own]
        assert generated == 2


def test_fi_merged_sources_join_each_value_once(monkeypatch):
    # fi's merged source joins the distinct values of a load's remote
    # stores, not every store: 64 dogs publish few values, and the joins
    # compute_combinations makes stay within loads x distinct values
    from mtir import analysis as analysis_mod
    combinations, join = analysis_mod.compute_combinations, Interval.join
    counts = {"inside": False, "joins": 0, "bound": 0, "stores": 0}

    def counted_join(self, other):
        counts["joins"] += counts["inside"]
        return join(self, other)

    def counted_combinations(cfg, index, *args, **kwargs):
        loads = len(loads_of(cfg))
        for stores in index.values():
            counts["bound"] += loads * len(stores.values)
            counts["stores"] += loads * len(stores.sources)
        counts["inside"] = True
        try:
            return combinations(cfg, index, *args, **kwargs)
        finally:
            counts["inside"] = False

    monkeypatch.setattr(Interval, "join", counted_join)
    monkeypatch.setattr(analysis_mod, "compute_combinations",
                        counted_combinations)
    result = analyze(model_of(watchdog_program(64)), AnalysisConfig(mode="fi"))
    assert len(result.verified_assertions()) == 64
    assert counts["joins"] <= counts["bound"] < counts["stores"] // 8


def test_loop_load_merges_surviving_stores(corpus_models, corpus_results):
    model = corpus_models["loop_reader"]
    result = corpus_results["loop_reader"]["fs"]
    feas = FeasibilityEngine(model)
    main = model.thread(0)
    policies, generated, _, _ = compute_combinations(
        main, result.interference, feas, one_cluster(main))
    assert generated == 1
    (source_,) = policies[0]
    assert isinstance(source_, MergedSource)
    # both early stores merged, the post-load writer excluded
    assert source_.value == interval(1, 2)


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
        compute_combinations(reader, result.interference, feas,
                             one_cluster(reader), combo_cap=5)


def test_combination_cap_counts_refuted_sources(tmp_path, capsys):
    # the cap reads the full per-store product: ordering refutes all but
    # two of the deepest chain link's ten sources, and the cap still holds
    from mtir.cli import main
    model = model_of(chain_program(10))
    result = analyze(model, AnalysisConfig(mode="fsc"))
    link = model.thread_named("c10")
    policies, generated, rejected, runs = compute_combinations(
        link, result.interference, FeasibilityEngine(model),
        one_cluster(link), feasibility=True)
    assert (generated, rejected, runs, len(policies)) == (10, 8, 2, 2)
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
    policies, _, _, _ = compute_combinations(reader, result.interference,
                                             feas, one_cluster(reader))
    init = AbstractEnv({"flag": interval(0, 0), "x": interval(0, 0)})
    expected = {
        (ids["t1.6"], ids["t1.4"]): True,   # stale x: false alarm case
        (ids["t1.6"], "self"): True,        # initial x: false alarm case
        (ids["t1.6"], ids["t1.5"]): False,  # consistent snapshot
        ("self", ids["t1.4"]): False,
        ("self", ids["t1.5"]): False,
        ("self", "self"): False,
    }
    assert loads_of(reader) == [ids["t2.9"], ids["t2.11"]]
    for policy in policies:
        key = tuple(src.store if isinstance(src, StoreSource) else "self"
                    for src in policy)
        run = run_thread(reader, init, policy)
        assert bool(run.violable) == expected[key], key


def test_loop_reader_value_excludes_late_store(corpus_models, corpus_results):
    model = corpus_models["loop_reader"]
    result = corpus_results["loop_reader"]["fsc"]
    feas = FeasibilityEngine(model)
    main = model.thread(0)
    load = loads_of(main)[0]
    policies, _, _, _ = compute_combinations(main, result.interference, feas,
                                             one_cluster(main))
    post = _node_out(StepTable(main), load - main.first_node, result.te[load],
                     policies[0])
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
        cfg = model.thread_named(name)
        _, generated, rejected, _ = compute_combinations(
            cfg, result.interference, feas, one_cluster(cfg))
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
    _, full, _, _ = compute_combinations(reader, fs_result.interference, feas,
                                         one_cluster(reader))
    assert full == 4
    graph = build_pdg(model)
    zipped, _, _, _ = compute_combinations(
        reader, fso_result.interference, feas,
        plan=cluster(graph, backward_slices(graph, model), model))
    assert len(zipped) == 2


def test_growth_flags_match_snapshots(monkeypatch):
    # the outer loop stops on the flags `_merge_te` returns: each call's
    # flag must say whether the node states differ from before, and each
    # executed iteration's (one `_publish` call each) whether the node
    # states or the published values differ from the last iteration's, as
    # a store's value only grows with its node's state.  The loop stops
    # after an iteration that grew nothing, or accounts one more iteration
    # and stops after one that grew a state, replaced no entry of the
    # table and keeps the feasibility flag for its successor; no earlier
    # iteration is either
    from mtir import analysis as analysis_mod
    merge_te, publish = analysis_mod._merge_te, analysis_mod._publish
    state = {}

    def checked_merge_te(te, envs, base):
        before = dict(te)
        grew = merge_te(te, envs, base)
        assert grew == (te != before)
        state["grew"] |= grew
        return grew

    def checked_publish(model, te, iteration, config, steps, index):
        entries = dict(index)
        replaced = publish(model, te, iteration, config, steps, index)
        after = dict(te), published_values(index)
        state["flags"].append(state["grew"])
        state["changed"].append(after != state["last"])
        state["replaced"].append(index.keys() != entries.keys() or any(
            index[var] is not old for var, old in entries.items()))
        assert replaced == state["replaced"][-1]
        state["last"], state["grew"] = after, False
        return replaced

    monkeypatch.setattr(analysis_mod, "_merge_te", checked_merge_te)
    monkeypatch.setattr(analysis_mod, "_publish", checked_publish)
    texts = [source(name) for name in PROGRAMS]
    texts += [random_program(seed) for seed in range(60)]
    texts += [loopy_program(seed) for seed in range(20)]
    repeats = 0
    for text in texts:
        model = model_of(text)
        for mode in MODES:
            state.update(grew=False, flags=[], changed=[], replaced=[],
                         last=({}, {}))
            result = analyze(model, AnalysisConfig(mode=mode))
            flags, replaced = state["flags"], state["replaced"]
            assert flags == state["changed"], mode
            repeat = [grew and not new
                      and (k > 0 or not MODE_ROWS[mode].feasibility)
                      for k, (grew, new) in enumerate(zip(flags, replaced))]
            assert all(flags[:-1]) and not any(repeat[:-1]), mode
            if flags[-1]:
                assert repeat[-1], mode
                assert len(flags) == result.stats.outer_iters - 1, mode
                repeats += 1
            else:
                assert len(flags) == result.stats.outer_iters, mode
    assert repeats > len(texts)


def test_policy_lists_sources_in_node_order():
    # under fso main's loads form the clusters {a, c} and {b}, so a policy
    # built in cluster order would give b the source of c: every mode must
    # verify all three assertions
    model = model_of(POLICY_ORDER)
    main = model.thread_named("main")
    a, b, c = loads_of(main)
    graph = build_pdg(model)
    plan = cluster(graph, backward_slices(graph, model), model)
    assert plan[main.tid] == [[a, c], [b]]
    for mode in MODES:
        result = analyze(model, AnalysisConfig(mode=mode))
        assert len(result.verified_assertions()) == 3, mode


def test_outer_budget():
    model = model_of(source("flag_sync"))
    with pytest.raises(AnalysisBudgetExceeded):
        analyze(model, AnalysisConfig(mode="fsc", outer_budget=1))


def publish_calls(monkeypatch):
    """A one-item list counting the `_publish` calls from here on, once
    per executed outer iteration; reset it before each analysis."""
    from mtir import analysis as analysis_mod
    publish, calls = analysis_mod._publish, [0]

    def counted(*args):
        calls[0] += 1
        return publish(*args)

    monkeypatch.setattr(analysis_mod, "_publish", counted)
    return calls


def test_outer_budget_counts_the_accounted_iteration(monkeypatch):
    # an iteration the loop accounts as a repeat of the last counts against
    # the budget as an executed one does: a budget one short of the
    # iterations raises, and that many passes
    calls = publish_calls(monkeypatch)
    texts = [source(name) for name in PROGRAMS]
    texts += [random_program(seed) for seed in range(20)]
    texts += [loopy_program(seed) for seed in range(10)]
    repeats = 0
    for text in texts:
        model = model_of(text)
        for mode in MODES:
            calls[0] = 0
            result = analyze(model, AnalysisConfig(mode=mode))
            iters = result.stats.outer_iters
            repeats += calls[0] < iters
            with pytest.raises(AnalysisBudgetExceeded):
                analyze(model, AnalysisConfig(mode=mode,
                                              outer_budget=iters - 1))
            within = analyze(model, AnalysisConfig(mode=mode,
                                                   outer_budget=iters))
            assert within.stats == result.stats, mode
    assert repeats > len(texts)


def test_accounted_iteration_equals_executed(monkeypatch):
    # the loop stops one iteration early when the last grew a state but
    # replaced no entry of the interference table, and accounts the next
    # one.  Rebinding an entry to a value-equal copy after every `_publish`,
    # and saying so, makes that iteration run: it must compute and count
    # what the accounted one says
    from mtir import analysis as analysis_mod
    publish, calls, copying = analysis_mod._publish, [0], [False]

    def copying_publish(model, te, iteration, config, steps, index):
        calls[0] += 1
        replaced = publish(model, te, iteration, config, steps, index)
        if copying[0] and index:
            var = next(iter(index))
            index[var] = Published(index[var].sources.items())
            return True
        return replaced

    monkeypatch.setattr(analysis_mod, "_publish", copying_publish)
    texts = list(instance_programs())
    texts += [loopy_program(seed) for seed in range(20)]
    texts += [chain_program(10), watchdog_program(8)]
    forced = 0
    for text in texts:
        model = model_of(text)
        for mode, delay in itertools.product(MODES, (0, 1, 3)):
            config = AnalysisConfig(mode=mode, widening_delay=delay)
            calls[0], copying[0] = 0, False
            plain = analyze(model, config)
            executed = calls[0]
            calls[0], copying[0] = 0, True
            copied = analyze(model, config)
            forced += calls[0] > executed
            assert copied.te == plain.te, (mode, delay)
            assert copied.verdicts == plain.verdicts, (mode, delay)
            assert sources_by_store(copied) == sources_by_store(plain), \
                (mode, delay)
            assert copied.stats == plain.stats, (mode, delay)
    assert forced > 2 * len(texts)


def test_config_defaults_read_off_the_class():
    # the CLI's flags and `analyze_thread`'s parameters default to the
    # class's values
    defaults = ("fsc", 3, 1, 64, 4096)
    assert (AnalysisConfig.mode, AnalysisConfig.widening_delay,
            AnalysisConfig.narrowing_passes, AnalysisConfig.outer_budget,
            AnalysisConfig.combo_cap) == defaults
    assert AnalysisConfig() == AnalysisConfig(*defaults)
    assert AnalysisConfig() != AnalysisConfig(mode="fs")
    assert repr(AnalysisConfig()) == (
        "AnalysisConfig(mode='fsc', widening_delay=3, narrowing_passes=1, "
        "outer_budget=64, combo_cap=4096)")
    args = make_parser().parse_args(["analyze", "prog.mtir"])
    assert (args.mode, args.widening_delay, args.narrowing_passes,
            args.outer_budget, args.combo_cap) == defaults
    assert analyze_thread.__defaults__[:2] == defaults[1:3]


def test_records_own_their_containers():
    # a record's empty dict, list or set belongs to that record alone
    for make, fields in ((AnalysisStats, ("per_iteration",)),
                         (IterationStats, ("combos", "infeasible")),
                         (DependenceGraph, ("control", "data")),
                         (SoundnessReport, ("state_misses", "verdict_misses",
                                            "feasibility_misses"))):
        a, b = make(), make()
        assert a == b, make
        for name in fields:
            assert getattr(a, name) is not getattr(b, name), (make, name)
        container = getattr(a, fields[0])
        if isinstance(container, list):
            container.append(1)
        else:
            container[0] = 1
        assert a != b, make


def test_republication_monotone(monkeypatch):
    # every store's published value only grows: across iterations, and
    # when republished from smaller node states.  Node states only grow
    # and transfers are monotone, so only the second sees whether a value
    # is joined with the old one.  `_publish` updates the table it is
    # given, a variable's entry by a new `Published`, so the republication
    # gets a copy of the final table.
    from mtir import analysis as analysis_mod
    original = analysis_mod._publish
    calls, snapshots = [], []

    def spying_publish(model, te, iteration, config, steps, index):
        calls.append((dict(te), config, steps))
        replaced = original(model, te, iteration, config, steps, index)
        snapshots.append(published_values(index))
        return replaced

    monkeypatch.setattr(analysis_mod, "_publish", spying_publish)
    grown = 0
    for name in PROGRAMS:
        model = model_of(source(name))
        calls.clear()
        snapshots.clear()
        result = analyze(model, AnalysisConfig(mode="fs"))
        for before, after in zip(snapshots, snapshots[1:]):
            for store, value in before.items():
                assert value.leq(after[store]), name
        # the first iteration's states, republished at an iteration within
        # the widening delay, keep every final value
        final, table = snapshots[-1], dict(result.interference)
        first_te, config, steps = calls[0]
        original(model, first_te, 1, config, steps, table)
        republished = published_values(table)
        assert published_values(result.interference) == final
        for store, value in final.items():
            assert value.leq(republished[store]), name
        grown += any(final[n] != value for n, value in snapshots[0].items())
    assert grown  # some store's value grows after the first iteration


def published_values(index):
    """The value each store publishes in the interference table `index`."""
    return {n: source.value for stores in index.values()
            for n, source in stores.sources.items()}


def reference_publish(model, te, index, iteration, config, steps):
    """The table rebuilt from scratch, every store's entry anew, from the
    old values in `index`: what `_publish` computes in place.  A store's
    value is read off its whole compiled transfer, not its expression."""
    table = {}
    for cfg in model.threads:
        thread_steps, base = steps[cfg.tid], cfg.first_node
        for r, *_ in thread_steps.stores:
            n = r + base
            pre = te.get(n)
            if pre is None or pre.bottom:
                continue
            var = cfg.nodes[n].stmt.var
            value = thread_steps.transfer[r](pre).get(var)
            old = index[var].sources.get(n) if var in index else None
            if old is not None:
                value = old.value.join(value)
                if iteration > config.widening_delay:
                    value = old.value.widen(value)
            stores = table.get(var)
            if stores is None:
                stores = table[var] = Published()
            stores.sources[n] = StoreSource(n, value)
            stores.mask |= 1 << n
            stores.values[value] = stores.values.get(value, 0) | 1 << n
    return table


def index_rows(index):
    """A table as comparable rows: per variable, its ordered (store node,
    source's store, value) list, its mask and its ordered value masks."""
    return {var: ([(n, s.store, s.value) for n, s in stores.sources.items()],
                  stores.mask, list(stores.values.items()))
            for var, stores in index.items()}


def test_incremental_index_matches_rebuild(monkeypatch):
    # at every outer iteration the updated table equals a from-scratch
    # rebuild from the same node states; the guards see variables kept as
    # they were and variables rebuilt with some stores' sources kept.  A
    # rebuilt variable keeps a store's very source exactly when the
    # store's value is the old one.  In `late`, main's store of 1 is first
    # published after its store of 2 and w's, and sorts in before them.
    from mtir import analysis as analysis_mod
    publish = analysis_mod._publish
    seen = {"calls": 0, "kept": 0, "shared": 0, "widened": 0}
    late = ("int g = 0;\n"
            "thread w() { g = 5; }\n"
            "thread main() {\n"
            "  create(w); int t = g; if (t == 5) { g = 1; } g = 2;\n"
            "  int r = g; assert(r <= 5); }\n")
    sorted_in = 0

    def checked_publish(model, te, iteration, config, steps, index):
        nonlocal sorted_in
        before = dict(index)
        rebuilt = reference_publish(model, te, before, iteration, config,
                                    steps)
        replaced = publish(model, te, iteration, config, steps, index)
        assert index_rows(index) == index_rows(rebuilt)
        seen["calls"] += 1
        seen["widened"] += iteration > config.widening_delay
        for var, old in before.items():
            seen["kept"] += index[var] is old
            sorted_in += min(index[var].sources) < min(old.sources)
            if index[var] is not old:
                new = index[var].sources
                kept = [new[n] is s for n, s in old.sources.items()]
                assert kept == [new[n].value is s.value
                                for n, s in old.sources.items()]
                seen["shared"] += any(kept)
        return replaced

    monkeypatch.setattr(analysis_mod, "_publish", checked_publish)
    texts = list(instance_programs())  # the corpus, random and repeated
    texts += [loopy_program(seed) for seed in range(20)] + [late]
    for text in texts:
        model = model_of(text)
        for mode in MODES:
            analyze(model, AnalysisConfig(mode=mode))
    assert min(seen.values()) > 10, seen
    assert sorted_in >= len(MODES)


def test_merge_te_folds_only_what_can_grow():
    x01 = AbstractEnv({"x": interval(0, 1)})
    x23 = AbstractEnv({"x": interval(2, 3)})
    bottom = AbstractEnv.bot()
    envs = [x01, bottom, x23]
    te = {}
    # a first fold stores the run's own objects, bottom included
    assert _merge_te(te, envs, 5) is True
    assert all(te[5 + k] is env for k, env in enumerate(envs))
    # the objects `te` holds add nothing and are kept
    assert _merge_te(te, envs, 5) is False
    assert all(te[5 + k] is env for k, env in enumerate(envs))
    # a bottom state never replaces an entry, nor does an equal state
    assert _merge_te(te, [AbstractEnv(bottom=True)] * 3, 5) is False
    assert _merge_te(te, [AbstractEnv({"x": interval(0, 1)})], 5) is False
    assert all(te[5 + k] is env for k, env in enumerate(envs))
    # a state that grows an entry is joined in, a bottom entry included
    grown = [AbstractEnv({"x": interval(1, 2)}), x23, bottom]
    assert _merge_te(te, grown, 5) is True
    assert te[5] == AbstractEnv({"x": interval(0, 2)})
    assert te[6] is x23 and te[7] is x23


def reference_merge(te, envs, base):
    """`te` with a run's states folded in node by node, each joined with the
    state held: no state shared, no node skipped; and whether a state
    changed."""
    out = dict(te)
    for node, env in enumerate(envs, base):
        old = te.get(node)
        out[node] = env if old is None else old.join(env)
    return out, out != te


def test_merge_te_matches_pairwise_folding():
    # on runs whose states share objects with each other and with `te`,
    # as a run's states do across statements that pass their state on:
    # the fold joins as a node-by-node fold does, and two adjacent nodes
    # whose held states are one object, as their run states are, keep
    # holding one object
    rng = random.Random(7)
    shared = 0
    for _ in range(400):
        pool = [AbstractEnv.bot(), AbstractEnv.top()]
        pool += [AbstractEnv({var: interval(lo, lo + rng.randint(0, 3))
                              for var in rng.sample("xyz", rng.randint(1, 3))
                              for lo in [rng.randint(-3, 3)]})
                 for _ in range(4)]
        size, base = rng.randint(1, 12), rng.randint(0, 5)

        def states():  # runs of one object
            out = []
            while len(out) < size:
                out += [rng.choice(pool)] * rng.randint(1, 4)
            return out[:size]

        te = {node: env for node, env in enumerate(states(), base)
              if rng.random() < 0.8}
        envs = states()
        expected, grew = reference_merge(te, envs, base)
        before = dict(te)
        assert _merge_te(te, envs, base) is grew
        assert te == expected
        for node in range(base, base + size - 1):
            held, run = before.get(node), envs[node - base]
            if held is before.get(node + 1) and run is envs[node + 1 - base]:
                assert te[node] is te[node + 1]
                # a join made once for two nodes
                shared += held is not None and held is not run \
                    and not run.bottom
    assert shared > 200


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


def _full_product(cfg, index, facts, plan, feasibility=False,
                  combo_cap=None, merged=False):
    """Reference `compute_combinations`, built from the sources of the
    table `index` alone: the whole per-store product of each cluster, every
    combination feasibility-checked on its own, no source dropped or
    merged before the product, clusters zipped.  The active loads are
    those of the plan's clusters; a policy lists their sources in node
    order."""
    loads = loads_of(cfg)
    groups = plan[cfg.tid]
    active = [l for l in loads if any(l in group for group in groups)]
    sources = {}
    for l in active:
        var = cfg.nodes[l].stmt.var
        remote = [source for n, source in
                  (index[var].sources if var in index else {}).items()
                  if n not in cfg.nodes]
        if merged or cfg.reach[l] >> l & 1:
            values = [source.value for source in remote if merged
                      or not facts.rows.weak[l] >> source.store & 1]
            sources[l] = [MergedSource(reduce(Interval.join, values))
                          if values else SelfSource()]
        else:
            sources[l] = remote + [SelfSource()]
    if merged:
        return [tuple(sources[l][0] for l in active)], 0, 0, 1
    lists, generated, rejected = [], 0, 0
    for group in groups:
        # the first load varies fastest
        every = [dict(zip(group[::-1], combo)) for combo in
                 itertools.product(*(sources[l] for l in reversed(group)))]
        kept = [combo for combo in every
                if not feasibility
                or facts.is_feasible(reads_from(facts, combo))]
        generated += len(every)
        rejected += len(every) - len(kept)
        lists.append(kept or [{}])  # all refuted: one self-only run
    policies = []
    for k in range(max(map(len, lists), default=1)):
        combo = dict.fromkeys(active, SelfSource())
        for combos in lists:
            if k < len(combos):
                combo.update(combos[k])
        policies.append(tuple(combo[l] for l in active))
    return policies, generated or 1, rejected, len(policies)


def sources_by_store(result):
    """The interference table as (store node, store, value) lists per
    variable: a `StoreSource` compares by its value alone."""
    return {var: [(n, source.store, source.value)
                  for n, source in stores.sources.items()]
            for var, stores in result.interference.items()}


def test_memoized_runs_match_unmemoized(corpus_models, monkeypatch):
    from mtir import analysis as analysis_mod
    cases = dict(corpus_models)
    for seed in range(20):
        cases["random%d" % seed] = model_of(random_program(seed))
        # instances of one routine share runs
        cases["repeated%d" % seed] = model_of(repeated_program(seed))
    for size in (4, 8, 16):
        cases["watchdog%d" % size] = model_of(watchdog_program(size))
    cases["shared_value"] = model_of(SHARED_VALUE)
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
    # combination of the per-store product.  An iteration the loop only
    # accounts, as a repeat of the last, executes nothing, so the executed
    # runs are those of the iterations that called `_publish`
    monkeypatch.setattr(analysis_mod, "_run_key", lambda *_: object())
    monkeypatch.setattr(analysis_mod, "compute_combinations", _full_product)
    executed = publish_calls(monkeypatch)
    for (name, mode), memo in memoized.items():
        executed[0] = 0
        full = analyze(memo.model, AnalysisConfig(mode=mode))
        per_iteration = full.stats.per_iteration
        assert full.stats.interp_runs == sum(
            stats.runs for stats in per_iteration[:executed[0]]), (name, mode)
        assert full.stats.runs == memo.stats.runs, (name, mode)
        assert per_iteration == memo.stats.per_iteration, (name, mode)
        assert full.stats.combos == memo.stats.combos, (name, mode)
        assert full.stats.infeasible == memo.stats.infeasible, (name, mode)
        assert full.te == memo.te, (name, mode)
        assert full.verdicts == memo.verdicts, (name, mode)
        assert sources_by_store(full) == sources_by_store(memo), (name, mode)


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


def test_resumed_run_counts(monkeypatch):
    # every dog counts to 12 before it reads g: of the 36 runs fi, fs and
    # fsc execute on watchdog/16, the 28 after the first from each (routine,
    # entry state) resume its stored prefix; under fso the loop is off the
    # slice.  A chain link reads x first, so it stores no prefix.  Prefixes
    # are shared across instances: under fsc and fso the second `w` of
    # XINST executes one combination the first never ran, and resumes the
    # first's prefix.  No resume count is kept or reported: this counts
    # the runs `analyze_thread` returns marked resumed.
    from mtir import analysis as analysis_mod
    run_thread_of = analysis_mod.analyze_thread
    resumed = []

    def counted_run(*args, **kwargs):
        run = run_thread_of(*args, **kwargs)
        resumed[-1] += run.resumed
        return run

    monkeypatch.setattr(analysis_mod, "analyze_thread", counted_run)
    counts = {}
    for name, text in (("watchdog16", watchdog_program(16)),
                       ("chain10", chain_program(10)), ("xinst", XINST)):
        model = model_of(text)
        for mode in MODES:
            resumed.append(0)
            result = analyze(model, AnalysisConfig(mode=mode))
            counts[name, mode] = (result.stats.interp_runs, resumed[-1])
            assert "resumed_runs" not in report(result)["stats"]
    assert {mode: counts["watchdog16", mode] for mode in MODES} == {
        "fi": (36, 28), "fs": (36, 28), "fsc": (36, 28), "fso": (8, 0)}
    assert all(counts["chain10", mode][1] == 0 for mode in MODES)
    assert {mode: counts["xinst", mode] for mode in MODES} == {
        "fi": (6, 4), "fs": (6, 4), "fsc": (3, 1), "fso": (3, 1)}


def test_entry_state_kept_while_create_site_unchanged(monkeypatch):
    # analyze rebuilds a thread's entry state only when the state object at
    # its create site changes, which `_merge_te` does exactly when that
    # state grows: so every run of a thread whose create-site state is the
    # same object as at an earlier run gets the very same entry object,
    # the entry thread's in every run
    from mtir import analysis as analysis_mod
    entry_env_of, run_thread_of = \
        analysis_mod._entry_env, analysis_mod.analyze_thread
    current, first = {}, {}  # the analysis's te; (tid, site) -> entry
    kept = 0

    def entry_env(model, cfg, te):
        current["te"] = te
        return entry_env_of(model, cfg, te)

    def checked_run(cfg, init, policy, **kwargs):
        nonlocal kept
        site = current["te"].get(cfg.creation_site)
        # holding `site` keeps its id from being reused
        key = cfg.tid, id(site)
        if key in first:
            assert first[key][1] is init, cfg.name
            kept += 1
        else:
            first[key] = site, init
        return run_thread_of(cfg, init, policy, **kwargs)

    monkeypatch.setattr(analysis_mod, "_entry_env", entry_env)
    monkeypatch.setattr(analysis_mod, "analyze_thread", checked_run)
    # a fresh run key per call, so every scheduled run executes
    monkeypatch.setattr(analysis_mod, "_run_key", lambda *_: object())
    texts = [watchdog_program(4), watchdog_program(8), chain_program(5),
             XINST]
    texts += [source(name) for name in PROGRAMS]
    for text in texts:
        model = model_of(text)
        for mode in MODES:
            current.clear()
            first.clear()
            analyze(model, AnalysisConfig(mode=mode))
    assert kept > 400, kept


def test_one_model_four_modes_in_any_order():
    # `mtir bench` and perfbench analyze one model in every mode, so what a
    # thread caches must not carry one mode's identity nodes or
    # interference into the next
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


def compiled_tables(monkeypatch):
    """The (routine, identity nodes) of each step table `analyze` builds,
    in build order."""
    from mtir import analysis as analysis_mod
    built = []

    def counted(cfg, identity=0, _original=StepTable):
        built.append((cfg.routine, identity))
        return _original(cfg, identity)

    monkeypatch.setattr(analysis_mod, "StepTable", counted)
    return built


def test_instances_share_one_step_table(monkeypatch):
    # a routine's statements compile once, whatever its instance count
    model = model_of(watchdog_program(16))
    dogs = [cfg for cfg in model.threads if cfg.routine == "dog"]
    assert len(dogs) == 16
    built = compiled_tables(monkeypatch)
    analyze(model, AnalysisConfig(mode="fs"))
    assert built == [("main", 0), ("dog", 0)]


def test_sliced_instances_share_one_step_table(monkeypatch):
    # under fso the dogs run one table, compiled once with their off-slice
    # statements as identity, and their unsliced table is never built
    from mtir import analysis as analysis_mod
    model = model_of(watchdog_program(16))
    received = {}  # tid -> the tables its runs were keyed on
    current = {}  # the thread whose runs are scheduled
    combinations, run_key = \
        analysis_mod.compute_combinations, analysis_mod._run_key

    def scheduling(cfg, *args, **kwargs):
        current["tid"] = cfg.tid
        return combinations(cfg, *args, **kwargs)

    def keyed(table, init, policy):
        received.setdefault(current["tid"], set()).add(table)
        return run_key(table, init, policy)

    monkeypatch.setattr(analysis_mod, "compute_combinations", scheduling)
    monkeypatch.setattr(analysis_mod, "_run_key", keyed)
    analyze(model, AnalysisConfig(mode="fso"))
    dogs = [cfg for cfg in model.threads if cfg.routine == "dog"]
    assert len(dogs) == 16
    (table,) = set.union(*(received[cfg.tid] for cfg in dogs))
    assert table is not None and table.size == len(dogs[0].nodes)
    built = compiled_tables(monkeypatch)
    analyze(model, AnalysisConfig(mode="fso"))
    assert [routine for routine, _ in built] == ["main", "dog"]
    assert ("dog", 0) not in built


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
    # shifted copies: a routine's reachability is computed once, with the
    # model, and its dominators once, by the analyses; a path routine
    # (here `main`) takes both from its walk and runs neither solver
    from mtir import cfg as cfg_mod
    calls = []  # (solver, the first node of the graph it ran on)
    for name in ("dominator_sets", "reachable_sets"):
        def counting(succs, *args, _name=name,
                     _original=getattr(cfg_mod, name)):
            calls.append((_name, min(succs)))
            return _original(succs, *args)
        monkeypatch.setattr(cfg_mod, name, counting)
    model = model_of(watchdog_program(8))
    for mode in ("fs", "fi", "fsc"):
        analyze(model, AnalysisConfig(mode=mode))
    # nine threads of two routines
    assert len(model.threads) == 9
    assert len({cfg.routine for cfg in model.threads}) == 2
    dog = model.thread_named("dog#1")
    assert dog.first_instance is None and model.thread(0).path is not None
    assert calls == [("reachable_sets", dog.first_node),
                     ("dominator_sets", dog.first_node)]


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
