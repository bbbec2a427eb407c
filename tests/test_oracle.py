import math
import os
import subprocess
import sys

import pytest

from conftest import node_ids
from mtir.analysis import AnalysisConfig, analyze
from mtir.cfg import build_model, loads_of
from mtir.cli import main as cli_main
from mtir.errors import OracleBudgetExceeded
from mtir.facts import FeasibilityEngine
from mtir.oracle import (
    OracleBounds, check_abstraction, enumerate_executions, eval_concrete,
    static_rejections,
)
from mtir.parser import parse
from mtir.corpus import source


def model_of(text):
    return build_model(parse(text))


def test_increment_reader_final_values():
    # the sampled value is 0 or 1, nothing else
    model = model_of(source("inc_read"))
    records = enumerate_executions(model)
    reader = model.thread_named("reader")
    load = loads_of(reader)[0]
    sampled = set()
    for record in records:
        for step in record.steps:
            if step.node == reader.exit:
                sampled.add(dict(step.locals)["tmp"])
    assert sampled == {0, 1}
    assert {dict(r.final_globals)["x"] for r in records} == {1}


def test_single_thread_deterministic_single_record():
    model = model_of("int x = 0;\nthread main() { x = 2; int a = x; }")
    records = enumerate_executions(model)
    assert len(records) == 1
    assert records[0].final_globals == (("x", 2),)
    assert not records[0].deadlocked


def test_error_point_unreachable_and_flow_pair_absent():
    model = model_of(source("flag_sync"))
    records = enumerate_executions(model)
    ids = node_ids(model)
    for record in records:
        assert not record.violations
        assert all(step.node != ids["t2.13"] for step in record.steps)
        producers: dict = {}
        for load, src in record.reads:
            producers.setdefault(load, []).append(src)
        assert not (producers.get(ids["t2.9"]) == [ids["t1.6"]]
                    and producers.get(ids["t2.11"]) == [ids["t1.4"]])


def test_interleaving_count_two_straight_threads():
    # after the create, p + q payload statements interleave freely
    p, q = 3, 3
    text = ["int x = 0;", "thread w() {"]
    text += ["  x = %d;" % k for k in range(q)]
    text += ["}", "thread main() {", "  create(w);"]
    text += ["  int a%d = %d;" % (k, k) for k in range(p)]
    text.append("}")
    model = model_of("\n".join(text))
    records = enumerate_executions(model)
    payload = {node.id for node in model.all_nodes()
               if node.id not in (model.thread(0).exit,
                                  model.thread(1).exit)
               and not node.id == model.creates[0][0]}
    orders = {tuple(s.node for s in r.steps if s.node in payload)
              for r in records}
    assert len(orders) == math.comb(p + q, p)


def test_read_map_producer_wrote_the_value():
    model = model_of(source("flag_sync"))
    # producer node -> value it writes (all constants here): each store's
    # and each initial store's
    written = {init: model.globals[var]
               for var, init in model.init_nodes.items()}
    from mtir.cfg import SStore
    for node in model.all_nodes():
        if isinstance(node.stmt, SStore):
            written[node.id] = eval_concrete(node.stmt.expr, {})
    for record in enumerate_executions(model):
        observed = {}
        for step in record.steps:
            observed[step.node] = dict(step.globals)
        for load, producer in record.reads:
            var = model.node(load).stmt.var
            assert observed[load][var] == written[producer]


def test_join_blocks_until_child_exits():
    model = model_of("int g = 0;\n"
                     "thread w() { g = 3; }\n"
                     "thread main() { create(w); join(g0); }"
                     .replace("g0", "w"))
    records = enumerate_executions(model)
    for record in records:
        assert not record.deadlocked
        order = [step.node for step in record.steps]
        join_node = model.joins[0][0]
        child_exit = model.thread(1).exit
        assert order.index(child_exit) < order.index(join_node)


def test_nondet_forks_over_domain():
    model = model_of("thread main() { int a = *; assert(a >= 0); }")
    records = enumerate_executions(model, OracleBounds(nondet_domain=(-1, 0, 1)))
    values = {dict(r.steps[-1].locals)["a"] for r in records}
    assert values == {-1, 0, 1}
    assert any(r.violations for r in records)
    assert any(not r.violations for r in records)


def test_budget_guard():
    text = ("int x = 0;\n"
            "thread a() { x = 1; x = 2; x = 3; x = 4; x = 5; x = 6; }\n"
            "thread b() { x = 9; x = 8; x = 7; x = 6; x = 5; x = 4; }\n"
            "thread main() { create(a); create(b); }")
    with pytest.raises(OracleBudgetExceeded):
        enumerate_executions(model_of(text), OracleBounds(schedule_cap=10))


def test_step_bound_truncates_loops():
    model = model_of("int x = 0;\nthread main() { while (*) { x = x + 1; } }")
    records = enumerate_executions(model, OracleBounds(max_steps=30))
    assert records  # the zero-iteration run completes
    assert all(len(r.steps) <= 30 for r in records)


def test_check_abstraction_corpus_program():
    model = model_of(source("disjoint_chains"))
    records = enumerate_executions(model)
    assert {dict(r.final_globals)["x"] for r in records} <= {0, 1}
    assert {dict(r.final_globals)["y"] for r in records} <= {0, 1}
    feas = FeasibilityEngine(model)
    rejected = static_rejections(model, feas)
    for mode in ("fi", "fs", "fsc", "fso"):
        result = analyze(model, AnalysisConfig(mode=mode))
        report = check_abstraction(records, result, model, rejected=rejected)
        assert report.ok, (mode, report.state_misses[:3])
        # published store values cover the concrete finals
        for record in records:
            finals = dict(record.final_globals)
            for var, value in finals.items():
                stores = result.interference.get(var)
                covered = model.globals[var] == value or any(
                    source.value.contains(value)
                    for source in (stores.sources if stores else {}).values())
                assert covered, (mode, var, value)


# `g`, `q`, `h` and `z` are bound by no declaration: each is a local that
# is read but never assigned, so it reads 0, as README says and the
# oracle executes; `w` runs as two instances with different arguments
UNASSIGNED = """thread main() { int u = g; assert(u >= -99); }"""
UNASSIGNED_INSTANCES = """int g = 0;
thread w(int p) { int a = p + q; g = a; assert(a == p); }
thread main() {
  create(w, 2);
  join(w);
  create(w, 3);
  int u = h;
  if (z == 0) { u = u + 1; }
  assert(u == 1);
  int r = g;
  assert(r <= 3);
}
"""


# `x` and `y` are assigned on some paths only: where the paths join,
# each reads its value or 0
PARTLY_ASSIGNED_IF = """thread main() {
  int c = *; if (c > 0) { x = 1; } assert(x >= 0); }"""
PARTLY_ASSIGNED_LOOP = """thread main() {
  int c = *; while (c > 0) { x = c; c = c - 1; } assert(x >= 0); }"""
PARTLY_ASSIGNED_INSTANCES = """int g = 0;
thread w(int p) { int c = g; if (c > 0) { y = p; } assert(y >= 0); }
thread main() { create(w, 2); g = 1; create(w, 3); }"""


@pytest.mark.parametrize("text, thread, unassigned", [
    (UNASSIGNED, "main", ("g",)),
    (UNASSIGNED_INSTANCES, "main", ("h", "z")),
    (PARTLY_ASSIGNED_IF, "main", ("x",)),
    (PARTLY_ASSIGNED_LOOP, "main", ("x",)),
    (PARTLY_ASSIGNED_INSTANCES, "w#2", ("y",)),
], ids=["main", "instances", "if", "loop", "partly-instances"])
def test_never_assigned_local_reads_zero(tmp_path, text, thread, unassigned):
    program = tmp_path / "program.mtir"
    program.write_text(text)
    model = model_of(text)
    assert model.thread_named(thread).unassigned_locals == unassigned
    records = enumerate_executions(model)
    for mode in ("fi", "fs", "fsc", "fso"):
        assert cli_main(["analyze", str(program), "--mode=" + mode]) == 0, \
            mode
        result = analyze(model, AnalysisConfig(mode=mode))
        assert result.all_verified(), mode
        report = check_abstraction(records, result, model)
        assert report.ok, (mode, report.state_misses[:3])


def test_check_abstraction_flags_bogus_verdict():
    model = model_of("int x = 0;\n"
                     "thread w() { x = 5; }\n"
                     "thread main() { create(w); int t = x; assert(t < 3); }")
    records = enumerate_executions(model)
    result = analyze(model, AnalysisConfig(mode="fsc"))
    assert sum(result.verdicts.values()) == 0
    # forge a verdict and make sure the checker notices
    forged = dict(result.verdicts)
    forged[model.assertions[0]] = True
    result.verdicts = forged
    report = check_abstraction(records, result, model)
    assert report.verdict_misses


@pytest.mark.parametrize("name", ["flag_sync", "paired_loads", "inc_read",
                                  "disjoint_chains"])
def test_corpus_states_covered_in_every_mode(name):
    # loop-free corpus programs small enough for complete enumeration;
    # param_guard's interleaving count is astronomical and is covered by
    # the randomized suite instead
    model = model_of(source(name))
    records = enumerate_executions(model)
    feas = FeasibilityEngine(model)
    rejected = static_rejections(model, feas)
    for mode in ("fi", "fs", "fsc", "fso"):
        result = analyze(model, AnalysisConfig(mode=mode))
        report = check_abstraction(records, result, model, rejected=rejected)
        assert report.ok, (name, mode, report.state_misses[:2],
                           report.verdict_misses[:2],
                           report.feasibility_misses[:2])


def test_trivial_assertion_verified_everywhere():
    model = model_of("thread main() { assert(0 == 0); }")
    records = enumerate_executions(model)
    assert not any(r.violations for r in records)
    for mode in ("fi", "fs", "fsc", "fso"):
        result = analyze(model, AnalysisConfig(mode=mode))
        assert all(result.verdicts.values())
        assert check_abstraction(records, result, model).ok


def test_stress_script_runs_from_any_directory(tmp_path):
    # the documented command needs no PYTHONPATH: the script finds the
    # checkout's package and test helpers next to its own file
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "stress_soundness.py")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, script, "1", "1", "1"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "TOTAL violations: 0" in proc.stdout
