"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS line once its assertions hold, so a verbose run
reads as a checklist.  Numbers follow the bundled corpus expectations
and the tolerances pinned in the assertions themselves.
"""

import random
import time

import pytest

from conftest import MODES, node_ids, random_program, repeated_program
from mtir.analysis import AnalysisConfig, analyze, compute_combinations
from mtir.cfg import build_model, loads_of
from mtir.domain import AbstractEnv, interval
from mtir.errors import OracleBudgetExceeded
from mtir.facts import (
    FeasibilityEngine, dump_facts, fixpoint, naive_fixpoint,
)
from mtir.interp import MergedSource, PerLoad, StoreSource, _apply_load
from mtir.oracle import (
    OracleBounds, check_abstraction, enumerate_executions, static_rejections,
)
from mtir.parser import parse
from mtir.pdg import backward_slices, build_pdg, cluster
from mtir.corpus import source


def report(criterion, ok, detail):
    print("%s criterion %s: %s" % ("PASS" if ok else "FAIL", criterion,
                                   detail))
    assert ok, detail


# -- criterion 1: flag handshake, exact interference and verification ---------

def test_criterion_1_flag_handshake():
    model = build_model(parse(source("flag_sync")))
    start = time.perf_counter()
    fi = analyze(model, AnalysisConfig(mode="fi"))
    fsc = analyze(model, AnalysisConfig(mode="fsc"))
    elapsed = time.perf_counter() - start

    writer = model.thread_named("thread1")
    expected_env = AbstractEnv({"flag": interval(1, 1), "x": interval(4, 5)})
    final = fsc.stats.per_iteration[-1]
    reader_tid = model.thread_named("thread2").tid
    ok = (sum(fi.verdicts.values()) == 0
          and fi.interference_env(writer.tid) == expected_env
          and all(fsc.verdicts.values())
          and len(fsc.verdicts) == 1
          and final.combos[reader_tid] == 6
          and final.infeasible[reader_tid] == 2
          and elapsed < 1.0)
    report(1, ok,
           "fi 0/1 with interference %s; fsc 1/1 rejecting 2 of 6 (%.2fs)"
           % (fi.interference_env(writer.tid), elapsed))


# -- criterion 2: two-load/three-store combination structure -------------------

def test_criterion_2_combination_structure():
    model = build_model(parse(source("paired_loads")))
    result = analyze(model, AnalysisConfig(mode="fs"))
    feas = FeasibilityEngine(model)
    reader = model.thread_named("reader")
    ids = node_ids(model)
    combos, generated, _, _ = compute_combinations(
        reader, result.interference, model, feas)
    l1, l2 = loads_of(reader)
    s1, s2, s3 = ids["t2.8"], ids["t2.9"], ids["t2.10"]

    def shape(combo, load):
        src = combo[load]
        return src.store if isinstance(src, StoreSource) else "self"

    got = [(shape(c, l1), shape(c, l2)) for c in combos]
    want = [(s1, s3), (s2, s3), ("self", s3),
            (s1, "self"), (s2, "self"), ("self", "self")]
    report(2, generated == 6 and got == want,
           "6 combinations in canonical order: %s" % (got,))


# -- criterion 3: loop load value and late-store exclusion ---------------------

def test_criterion_3_loop_value():
    model = build_model(parse(source("loop_reader")))
    result = analyze(model, AnalysisConfig(mode="fsc"))
    feas = FeasibilityEngine(model)
    ids = node_ids(model)
    main = model.thread(0)
    load = loads_of(main)[0]
    combos, generated, _, _ = compute_combinations(
        main, result.interference, model, feas)
    src = combos[0][load]
    post = _apply_load(load, model.node(load).stmt, result.te[load],
                       PerLoad(combos[0]))
    ok = (generated == 1
          and isinstance(src, MergedSource)
          and post.get("t1") == interval(0, 2)
          and feas.must_happen_before(load, ids["t2.14"])
          and not feas.must_happen_before(load, ids["t1.10"]))
    report(3, ok, "loop read yields t1=%r, late store excluded by ordering"
           % post.get("t1"))


# -- criterion 4: property-guided pruning ---------------------------------------

def test_criterion_4_pruning():
    model = build_model(parse(source("param_guard")))
    fs = analyze(model, AnalysisConfig(mode="fs"))
    feas = FeasibilityEngine(model)
    counts = []
    for name in ("thr#1", "thr#2"):
        _, generated, _, _ = compute_combinations(
            model.thread_named(name), fs.interference, model, feas)
        counts.append(generated)
    fso = analyze(model, AnalysisConfig(mode="fso"))
    runs_per_iter = {it.runs for it in fso.stats.per_iteration}
    ok = (counts == [3, 3]
          and runs_per_iter == {len(model.threads)}
          and all(fso.verdicts.values())
          and len(fso.verdicts) == 2)
    report(4, ok, "3 combinations per worker unpruned; pruned mode runs "
                  "each thread once per iteration and verifies 2/2")


# -- criterion 5: dependence clustering ------------------------------------------

def test_criterion_5_clustering():
    model = build_model(parse(source("disjoint_chains")))
    fs = analyze(model, AnalysisConfig(mode="fs"))
    fsc = analyze(model, AnalysisConfig(mode="fsc"))
    fso = analyze(model, AnalysisConfig(mode="fso"))
    feas = FeasibilityEngine(model)
    reader = model.thread_named("thread2")
    graph = build_pdg(model)
    plan = cluster(graph, backward_slices(graph, model), model)
    _, unclustered, _, _ = compute_combinations(reader, fs.interference, model,
                                                feas)
    zipped, _, _, _ = compute_combinations(reader, fso.interference, model,
                                           feas, plan=plan)
    ok = (unclustered == 4 and len(zipped) == 2
          and all(fs.verdicts.values()) and all(fsc.verdicts.values())
          and all(fso.verdicts.values()) and len(fs.verdicts) == 2)
    report(5, ok, "2*2=4 combinations collapse to max(2,2)=2 zipped runs; "
                  "2/2 verified in every flow-sensitive mode")


# -- criterion 6: ordering-derivation golden test --------------------------------

def test_criterion_6_derivation_dump():
    model = build_model(parse(source("flag_sync")))
    feas = FeasibilityEngine(model)
    ids = node_ids(model)
    rf = [(ids["t2.9"], ids["t1.6"]), (ids["t2.11"], ids["t1.4"])]
    feasible, closed = feas.check_facts(rf)
    dump = dump_facts(model, closed)
    ok = (not feasible
          and "MHB(t2.11, t1.5)" in dump
          and "MHB(t2.9, t1.6)" in dump)
    report(6, ok, "stale-flow query derives MHB(t2.11,t1.5), MHB(t2.9,t1.6) "
                  "and is rejected")


# -- criteria 7 and 8: randomized soundness and accuracy ordering ----------------

def _oracle_checked(text, seed):
    """The program's results and oracle reports in every mode, or None
    when the oracle cannot enumerate it within its bounds."""
    model = build_model(parse(text))
    try:
        records = enumerate_executions(
            model, OracleBounds(max_steps=150, schedule_cap=60_000))
    except OracleBudgetExceeded:
        return None
    feas = FeasibilityEngine(model)
    rejected = static_rejections(model, feas)
    results = {mode: analyze(model, AnalysisConfig(mode=mode))
               for mode in MODES}
    reports = {mode: check_abstraction(records, results[mode], model,
                                       rejected=rejected)
               for mode in MODES}
    return {"seed": seed, "model": model, "results": results,
            "reports": reports}


def _first_checked(generator, count):
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        entry = _oracle_checked(generator(seed), seed)
        if entry is not None:
            out.append(entry)
    return out


@pytest.fixture(scope="module")
def random_suite(corpus_results):
    started = time.perf_counter()
    programs = _first_checked(random_program, 25)
    # instances of one routine, which share interpreter runs
    repeated = _first_checked(repeated_program, 10)
    return {"programs": programs, "repeated": repeated,
            "elapsed": time.perf_counter() - started}


def test_criterion_7_soundness_suite(random_suite):
    bad = []
    for entry in random_suite["programs"] + random_suite["repeated"]:
        for mode, rep in entry["reports"].items():
            if not rep.ok:
                bad.append((entry["seed"], mode, rep.state_misses[:1],
                            rep.verdict_misses[:1],
                            rep.feasibility_misses[:1]))
    elapsed = random_suite["elapsed"]
    ok = not bad and len(random_suite["programs"]) >= 25 \
        and len(random_suite["repeated"]) >= 8 and elapsed < 300
    report(7, ok, "%d random and %d repeated-instance programs, 4 modes, "
                  "zero soundness or feasibility violations (%.1fs)%s"
           % (len(random_suite["programs"]), len(random_suite["repeated"]),
              elapsed, "" if not bad else "; first: %s" % (bad[0],)))


def test_criterion_8_accuracy_ordering(corpus_results, random_suite):
    problems = []
    pools = [("corpus:%s" % name, by_mode)
             for name, by_mode in corpus_results.items()]
    pools += [("random:%d" % entry["seed"], entry["results"])
              for entry in random_suite["programs"]]
    pools += [("repeated:%d" % entry["seed"], entry["results"])
              for entry in random_suite["repeated"]]
    for label, by_mode in pools:
        fi = by_mode["fi"].verified_assertions()
        fs = by_mode["fs"].verified_assertions()
        fsc = by_mode["fsc"].verified_assertions()
        if not (fi <= fs <= fsc):
            problems.append((label, fi, fs, fsc))
    for name, by_mode in corpus_results.items():
        if by_mode["fso"].verified_assertions() \
                != by_mode["fsc"].verified_assertions():
            problems.append(("corpus-opt:%s" % name,))
    report(8, not problems,
           "verified(fi) <= verified(fs) <= verified(fsc) on %d programs; "
           "optimized equals constrained on the corpus%s"
           % (len(pools), "" if not problems else "; %s" % problems[:2]))


# -- criterion 9: lattice, transfer, and fixpoint property suites ----------------

def test_criterion_9_property_suites():
    from test_domain import rand_env, rand_stmt
    from test_facts import random_facts
    from mtir.domain import compile_transfer

    rng = random.Random(90)
    lattice_cases = 0
    for _ in range(1000):
        a, b, c = rand_env(rng), rand_env(rng), rand_env(rng)
        assert a.join(b) == b.join(a)
        assert a.join(b).join(c) == a.join(b.join(c))
        assert a.join(a) == a
        assert a.leq(a.join(b))
        if a.leq(b) and b.leq(a):
            assert a == b
        w = a.widen(b)
        assert a.join(b).leq(w)
        lattice_cases += 1

    transfer_cases = 0
    for _ in range(1000):
        st = rand_stmt(rng, ("x", "y"))
        a = rand_env(rng, ("x", "y"))
        b = rand_env(rng, ("x", "y")).join(a)
        assert compile_transfer(st)(a).leq(compile_transfer(st)(b))
        transfer_cases += 1

    fixpoint_cases = 0
    for _ in range(1000):
        facts = random_facts(rng)
        semi, naive = facts.copy(), facts.copy()
        fixpoint(semi)
        naive_fixpoint(naive)
        assert semi.relations == naive.relations
        fixpoint_cases += 1

    ok = lattice_cases >= 1000 and transfer_cases >= 1000 \
        and fixpoint_cases >= 1000
    report(9, ok, "lattice laws, transfer monotonicity, semi-naive vs "
                  "naive closure: 1000 random cases each, zero failures")


# -- criterion 10: scaling harness ------------------------------------------------

def test_criterion_10_scaling():
    from mtir.bench import run_bench

    started = time.perf_counter()
    rows = run_bench("watchdog", [2, 4, 8, 16, 32])
    elapsed = time.perf_counter() - started
    by = {(row.threads, row.mode): row.time_s for row in rows}
    ratios = {size: by[(size, "fso")] / by[(size, "fi")]
              for size in (2, 4, 8, 16, 32)}
    ok = (all(ratio <= 1.25 for ratio in ratios.values())
          and by[(32, "fso")] <= by[(32, "fsc")]
          and all(row.verified == row.total for row in rows)
          and elapsed < 600)
    report(10, ok, "optimized/insensitive time ratios %s; optimized <= "
                   "constrained at 32 threads (%.0fs total)"
           % ({k: round(v, 2) for k, v in ratios.items()}, elapsed))
