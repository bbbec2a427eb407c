import itertools
import random

import pytest

from conftest import node_ids, random_program, repeated_program
from mtir.analysis import AnalysisConfig, analyze
from mtir.bench import chain_program, watchdog_program
from mtir.cfg import bits, build_model, is_store, loads_of
from mtir.domain import AbstractEnv
from mtir.facts import (
    RULES, FactBase, FeasibilityEngine, build_base_facts,
    contradiction, dump_facts, fixpoint, init_node, initial_value_loads,
    naive_fixpoint,
)
from mtir.interp import SelfSource, StoreSource
from mtir.parser import parse
from mtir.corpus import PROGRAMS, source
from stress_soundness import loopy_program


def model_of(text):
    return build_model(parse(text))


@pytest.fixture(scope="module")
def flag_sync():
    model = model_of(source("flag_sync"))
    return model, FeasibilityEngine(model), node_ids(model)


# --- base facts ----------------------------------------------------------------

def test_program_order_within_writer(flag_sync):
    model, feas, ids = flag_sync
    mhb = feas.base.relations["MHB"]
    assert (ids["t1.4"], ids["t1.5"]) in mhb
    assert (ids["t1.5"], ids["t1.6"]) in mhb
    assert (ids["t1.4"], ids["t1.6"]) in mhb  # transitive


def test_straight_line_dominance():
    model = model_of("int g = 0;\nthread main() { g = 1; g = 2; g = 3; }")
    facts = build_base_facts(model)
    a, b, c = model.thread(0).node_order()[:3]
    dom = facts.relations["Dominates"]
    assert (a, b) in dom and (a, c) in dom and (b, c) in dom
    assert (a, c) in facts.relations["MHB"]


def test_create_chain_orders_load_before_late_store():
    model = model_of(source("loop_reader"))
    facts = build_base_facts(model)
    ids = node_ids(model)
    # the load inside the loop precedes the create of the late writer,
    # hence precedes that writer's store
    assert (ids["t0.5"], ids["t0.7"]) in facts.relations["MHB"]
    assert (ids["t0.5"], ids["t2.14"]) in facts.relations["MHB"]
    # dominance alone cannot say this: the loop body is skippable
    assert (ids["t0.5"], ids["t0.7"]) not in facts.relations["Dominates"]


CREATE_JOIN = ("int g = 0;\n"
               "thread w() { g = 7; }\n"
               "thread main() { create(w); join(w); int t = g; }")


def test_join_orders_child_before_continuation():
    model = model_of(CREATE_JOIN)
    facts = build_base_facts(model)
    ids = node_ids(model)
    mhb = facts.relations["MHB"]
    store = next(n.id for n in model.all_nodes() if is_store(n))
    load = loads_of(model.thread(0))[0]
    assert (store, load) in mhb


def test_initial_store_precedes_everything(flag_sync):
    model, feas, ids = flag_sync
    mhb = feas.base.relations["MHB"]
    for node in model.all_nodes():
        assert (init_node("x"), node.id) in mhb
    assert (init_node("x"), init_node("x")) not in mhb


def _ordering_models():
    """The corpus, seeded random programs (nested creates and joins), a
    short creation chain, a few watchdogs and a create/join pair."""
    texts = [(name, source(name)) for name in PROGRAMS]
    texts += [("random%d" % seed, random_program(seed))
              for seed in range(40)]
    texts += [("chain4", chain_program(4)), ("watchdog4", watchdog_program(4)),
              ("create_join", CREATE_JOIN)]
    return [(name, model_of(text)) for name, text in texts]


def test_base_mhb_strict_partial_order():
    for name, model in _ordering_models():
        mhb = build_base_facts(model).relations["MHB"]
        succ = {}
        for a, b in mhb:
            assert a != b, (name, a)
            succ.setdefault(a, set()).add(b)
        for a, bs in succ.items():
            for b in bs:
                for c in succ.get(b, ()):
                    assert (a, c) in mhb, (name, a, b, c)


def test_base_closure_matches_rule_engine():
    # the ordering rows equal closing the raw relations under the rule set
    for name, model in _ordering_models():
        fast = build_base_facts(model)
        raw = FactBase({k: v for k, v in fast.relations.items()
                        if k not in ("MHB", "MHBS", "MustNotReadFrom")})
        for var in model.globals:
            for node in model.all_nodes():
                raw.add("MHBS", (init_node(var), node.id))
                raw.add("MHB", (init_node(var), node.id))
        fixpoint(raw)
        assert raw.relations["MHBS"] == fast.relations["MHBS"], name
        assert raw.relations["MHB"] == fast.relations["MHB"], name


# --- feasibility ---------------------------------------------------------------

def test_flow_pair_cycle_rejected(flag_sync):
    # flag taken from its store while x comes from the overwritten store
    model, feas, ids = flag_sync
    rf = [(ids["t2.9"], ids["t1.6"]), (ids["t2.11"], ids["t1.4"])]
    feasible, closed = feas.check_facts(rf)
    assert not feasible
    dump = dump_facts(model, closed)
    assert "MHB(t2.11, t1.5)" in dump
    assert "MHB(t2.9, t1.6)" in dump
    assert "MustNotReadFrom(t2.9, t1.6)" in dump


def test_consistent_flow_pair_accepted(flag_sync):
    model, feas, ids = flag_sync
    rf = [(ids["t2.9"], ids["t1.6"]), (ids["t2.11"], ids["t1.5"])]
    feasible, _ = feas.check_facts(rf)
    assert feasible


def test_empty_reads_from_is_feasible(flag_sync):
    model, feas, ids = flag_sync
    feasible, _ = feas.check_facts([])
    assert feasible
    assert feas.is_feasible({}) is True


def test_initial_read_after_flag_rejected(flag_sync):
    # observing the flag store while still reading x's initial value
    model, feas, ids = flag_sync
    combo = {ids["t2.9"]: StoreSource(ids["t1.6"], AbstractEnv.top()),
             ids["t2.11"]: SelfSource()}
    assert ids["t2.11"] in feas.initial_loads
    assert not feas.is_feasible(combo)


def test_initial_value_load_conditions():
    # a load preceded by the thread's own store to the variable is not an
    # initial-value read, nor is one whose parent stored before the create
    model = model_of(
        "int g = 0;\n"
        "thread w() { int t = g; }\n"
        "thread main() { g = 5; create(w); int u = g; }")
    eligible = initial_value_loads(model)
    w_load = loads_of(model.thread_named("w"))[0]
    main_load = loads_of(model.thread(0))[0]
    assert w_load not in eligible      # parent stored before the create
    assert main_load not in eligible   # own store reaches the load


def test_add_remove_symmetry(flag_sync):
    model, feas, ids = flag_sync
    before = {name: set(tuples)
              for name, tuples in feas.base.relations.items()}
    feas.is_feasible({ids["t2.9"]: StoreSource(ids["t1.6"],
                                               AbstractEnv.top()),
                      ids["t2.11"]: StoreSource(ids["t1.4"],
                                                AbstractEnv.top())})
    feas.check_facts([(ids["t2.9"], ids["t1.6"])])
    after = {name: set(tuples) for name, tuples in feas.base.relations.items()}
    assert before == after


def test_rule5_consistency(flag_sync):
    # whenever the base order already places a load before a store, any
    # combination reading that store is rejected
    model, feas, ids = flag_sync
    mhb = feas.base.relations["MHB"]
    loads = [n.id for cfg in model.threads for n in
             (cfg.nodes[i] for i in loads_of(cfg))]
    for load in loads:
        var = model.node(load).stmt.var
        for node in model.all_nodes():
            if is_store(node) and node.stmt.var == var \
                    and (load, node.id) in mhb:
                combo = {load: StoreSource(node.id, AbstractEnv.top())}
                assert not feas.is_feasible(combo)


def _combinations(model, groups):
    """For each group of loads, every way to give each load a remote
    store to its variable or its own thread's value."""
    for loads in groups:
        options = []
        for l in loads:
            load = model.node(l)
            remote = [StoreSource(n.id, AbstractEnv.top())
                      for n in model.all_nodes()
                      if is_store(n) and n.tid != load.tid
                      and n.stmt.var == load.stmt.var]
            options.append(remote + [SelfSource()])
        for pick in itertools.product(*options):
            yield dict(zip(loads, pick))


def _per_thread_combinations(model):
    return _combinations(model, [loads_of(cfg) for cfg in model.threads
                                 if loads_of(cfg)])


# Loads of several threads in one query reach the two contradictions no
# single-thread query of the other inputs needs: the self-loop (store
# buffering: both loads read the initial value) and R6e (`a` and `b` both
# read u's store, but t's store between them overwrites it, and it runs
# because `c` reads it).
CROSS_THREAD = {
    "store_buffering":
        "int x = 0;\nint y = 0;\n"
        "thread a() { x = 1; int r = y; }\n"
        "thread b() { y = 1; int s = x; }\n"
        "thread main() { create(a); create(b); }",
    "stale_reread":
        "int x = 0;\n"
        "thread t() { int a = x; if (a > 5) { x = 2; } int b = x; }\n"
        "thread u() { x = 1; int c = x; }\n"
        "thread main() { create(t); create(u); }",
}


def _chain_combinations(model, depth):
    # the reference closure costs about a second per query at depth 20,
    # so deep chains check three flows: the deepest link reading its
    # creator (feasible), and two refuted ones, the deepest link reading
    # the first store and the first link reading the last store
    link = {cfg.name: cfg for cfg in model.threads}

    def load(k):
        return loads_of(link["c%d" % k])[0]

    def store(k):
        cfg = link["c%d" % k]
        return StoreSource(next(n for n in cfg.node_order()
                                if is_store(cfg.nodes[n])),
                           AbstractEnv.top())

    yield {load(depth): store(depth - 1)}
    yield {load(depth): store(1)}
    yield {load(1): store(depth)}


def test_fast_path_agrees_with_full_closure():
    models = [(name, model_of(source(name))) for name in PROGRAMS]
    models += [("random%d" % seed, model_of(random_program(seed)))
               for seed in range(60)]
    models.append(("chain4", model_of(chain_program(4))))
    cases = [(name, model, _per_thread_combinations(model))
             for name, model in models]
    for name, text in CROSS_THREAD.items():
        model = model_of(text)
        every_load = [l for cfg in model.threads for l in loads_of(cfg)]
        cases.append((name, model, _combinations(model, [every_load])))
    for depth in (10, 20):
        model = model_of(chain_program(depth))
        cases.append(("chain%d" % depth, model,
                      _chain_combinations(model, depth)))
    for name, model, combinations in cases:
        feas = FeasibilityEngine(model)
        for combo in combinations:
            rf = feas.reads_from_facts(combo)
            fast = feas.is_feasible(combo)
            full, _ = feas.check_facts(rf)
            assert fast == full, (name, rf)


def test_refuted_sets_match_single_pair_queries():
    # a load's refuted set holds exactly the stores whose lone ReadsFrom
    # pair the closure refutes, init:<var> included
    texts = [(name, source(name)) for name in PROGRAMS]
    texts += [("random%d" % seed, random_program(seed))
              for seed in range(60)]
    texts += [("repeated%d" % seed, repeated_program(seed))
              for seed in range(40)]
    texts += [("loopy%d" % seed, loopy_program(seed)) for seed in range(20)]
    texts += [("chain%d" % depth, chain_program(depth))
              for depth in (4, 10, 20)]
    texts += [("watchdog4", watchdog_program(4)),
              ("create_join", CREATE_JOIN), *CROSS_THREAD.items()]
    pairs = refuted = 0
    for name, text in texts:
        model = model_of(text)
        feas = FeasibilityEngine(model)
        rows = feas.rows
        for cfg in model.threads:
            for load in loads_of(cfg):
                var = model.node(load).stmt.var
                every = rows.refuted(load, rows.stores[var])
                candidates = set()
                for p in bits(rows.stores[var]):
                    store = rows.nodes[p]
                    alone = rows.feasible(frozenset({(load, store)}))
                    assert bool(every >> p & 1) != alone, (name, load, store)
                    if store == init_node(var):
                        if load in feas.initial_loads:
                            candidates.add(store)
                    elif model.node(store).tid != cfg.tid:
                        candidates.add(store)
                    pairs += 1
                    refuted += not alone
                assert feas.refuted(load) == {
                    store for store in candidates
                    if every >> rows.position.get(store, store) & 1}, name
    assert pairs > 1000 and 0 < refuted < pairs


def test_analyses_build_no_tuple_facts(monkeypatch):
    # analyses read the ordering rows; tuples are only for the reference
    # engine and the dumps
    models = [model_of(source(name)) for name in PROGRAMS]
    models.append(model_of(chain_program(10)))
    modes = ("fs", "fsc", "fso")
    expected = [analyze(model, AnalysisConfig(mode=mode)).verdicts
                for model in models for mode in modes]

    def refuse(*_):
        raise AssertionError("an analysis built tuple facts")

    monkeypatch.setattr("mtir.facts.build_base_facts", refuse)
    got = [analyze(model, AnalysisConfig(mode=mode)).verdicts
           for model in models for mode in modes]
    assert got == expected


def test_must_happen_before_queries():
    model = model_of(source("loop_reader"))
    feas = FeasibilityEngine(model)
    ids = node_ids(model)
    assert feas.must_happen_before(ids["t0.5"], ids["t2.14"])
    assert not feas.must_happen_before(ids["t0.5"], ids["t1.10"])
    assert not feas.must_happen_before(ids["t0.5"], ids["t0.5"])


# --- rule scenarios on hand-built fact bases -------------------------------------

def scenario_base():
    facts = FactBase()
    return facts


def test_overwrite_rule_scenario():
    # two stores to one variable in program order; a remote load pinned to
    # the first store must precede the second
    facts = scenario_base()
    facts.add("IsStore", ("s1", "v"))
    facts.add("IsStore", ("s2", "v"))
    facts.add("IsLoad", ("l", "v"))
    facts.add("MHB", ("s1", "s2"))
    facts.add("ReadsFrom", ("l", "s1"))
    fixpoint(facts)
    assert ("l", "s2") in facts.relations["MHB"]


def test_stale_read_rule_scenario():
    # read an interference, overwrite the location, read again: the second
    # read cannot observe the first interference.  The overwriting store
    # must be forced to run before the second read (strong edge).
    facts = scenario_base()
    facts.add("IsStore", ("s1", "v"))
    facts.add("IsStore", ("s2", "v"))
    facts.add("IsLoad", ("l1", "v"))
    facts.add("IsLoad", ("l2", "v"))
    facts.add("ReadsFrom", ("l1", "s1"))
    facts.add("MHB", ("l1", "s2"))
    facts.add("MHBS", ("s2", "l2"))
    facts.add("MHB", ("s2", "l2"))
    fixpoint(facts)
    assert ("l2", "s1") in facts.relations["MustNotReadFrom"]


def test_stale_read_without_forced_overwrite():
    # if the overwriting store is neither forced before the second read
    # nor known to execute, nothing may be concluded
    facts = scenario_base()
    facts.add("IsStore", ("s1", "v"))
    facts.add("IsStore", ("s2", "v"))
    facts.add("IsLoad", ("l1", "v"))
    facts.add("IsLoad", ("l2", "v"))
    facts.add("ReadsFrom", ("l1", "s1"))
    facts.add("MHB", ("l1", "s2"))
    facts.add("MHB", ("s2", "l2"))  # weak only
    fixpoint(facts)
    assert ("l2", "s1") not in facts.relations["MustNotReadFrom"]


def test_empty_facts_no_rules_fire():
    facts = scenario_base()
    fixpoint(facts)
    assert all(not tuples for tuples in facts.relations.values())


def test_contradiction_detectors():
    facts = scenario_base()
    facts.add("MHB", ("a", "a"))
    assert contradiction(facts) is None  # nothing says `a` ever runs
    facts.add("Executes", ("a",))
    assert contradiction(facts) == ("mhb-cycle", ("a", "a"))
    facts = scenario_base()
    facts.add("ReadsFrom", ("l", "s"))
    facts.add("MustNotReadFrom", ("l", "s"))
    assert contradiction(facts)[0] == "reads-from-conflict"


# --- semi-naive vs naive --------------------------------------------------------

def random_facts(rng):
    nodes = ["n%d" % i for i in range(rng.randint(3, 7))]
    variables = ["v%d" % i for i in range(rng.randint(1, 2))]
    facts = FactBase()
    for _ in range(rng.randint(2, 10)):
        rel = rng.choice(("MHB", "MHBS", "Dominates", "Reaches",
                          "NotReachableFrom", "ThCreates", "ThJoins",
                          "ReadsFrom"))
        facts.add(rel, (rng.choice(nodes), rng.choice(nodes)))
    for node in nodes:
        if rng.random() < 0.5:
            rel = rng.choice(("IsLoad", "IsStore"))
            facts.add(rel, (node, rng.choice(variables)))
        if rng.random() < 0.25:
            facts.add("Executes", (node,))
    return facts


@pytest.mark.parametrize("chunk", range(10))
def test_semi_naive_equals_naive(chunk):
    rng = random.Random(1000 + chunk)
    for _ in range(100):  # 10 chunks x 100 = 1000 cases
        facts = random_facts(rng)
        semi = facts.copy()
        naive = facts.copy()
        fixpoint(semi)
        naive_fixpoint(naive)
        assert semi.relations == naive.relations
        # result independent of seeding order: replay with single-fact deltas
        replay = facts.copy()
        for name, tuples in facts.relations.items():
            for tup in sorted(tuples):
                fixpoint(replay, RULES, delta={name: {tup}})
        assert replay.relations == semi.relations
