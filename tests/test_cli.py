import gc
import json
import os
import re
import subprocess
import sys
import types

import jsonschema
import pytest

from conftest import NEVER_RUNS
import mtir
from mtir import AnalysisConfig, analyze, build_model, parse
from mtir.analysis import MODES
from mtir.bench import FAMILIES
from mtir.cli import REPORT_SCHEMA, main
from mtir.corpus import PROGRAMS, path, source
from mtir.domain import Interval
from mtir.facts import FeasibilityEngine, dump_facts
from mtir.oracle import check_abstraction, enumerate_executions


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_verified_program_exits_zero(capsys):
    status, out, _ = run_cli(capsys, "analyze", path("flag_sync"),
                             "--mode=fsc")
    assert status == 0
    assert "VERIFIED" in out
    assert "1/1 assertions verified" in out
    assert " runs=15 interp_runs=6 " in out


def test_unproven_program_exits_one(capsys):
    status, out, _ = run_cli(capsys, "analyze", path("flag_sync"),
                             "--mode=fi")
    assert status == 1
    assert "UNPROVEN" in out


def test_missing_file_exits_two(capsys):
    status, _, err = run_cli(capsys, "analyze", "no_such_file.mtir")
    assert status == 2
    assert "error" in err


BAD_INPUTS = {
    "syntax": b"thread main() { x = ; }",
    "deep-parens": b"int x = 0;\nthread main() { int t = "
                   + b"(" * 3000 + b"1" + b")" * 3000 + b"; }",
    "not-utf8": b"\xff\xfeint x = 0;",
    "empty": b"",
    "join-before-create": b"int g = 0; thread w() { g = 1; } thread main() "
                          b"{ join(w); create(w); int t = g; "
                          b"assert(t >= 0); }",
    "bool-global-of-5": b"bool b = 5;\nthread main() { int x = b; "
                        b"assert(x == 5); }",
    # source text is ASCII: no Unicode digits or blanks
    "arabic-indic-digit": "int g = \u0663;\nthread main() { int t = g; "
                          "assert(t == 3); }".encode("utf-8"),
    "no-break-space": "thread\u00a0main() { }".encode("utf-8"),
}
NOT_ASCII = {"arabic-indic-digit": "1:9", "no-break-space": "1:7"}


def test_bad_syntax_exits_two(tmp_path, capsys):
    for name, content in BAD_INPUTS.items():
        bad = tmp_path / ("%s.mtir" % name)
        bad.write_bytes(content)
        status, _, err = run_cli(capsys, "analyze", str(bad))
        assert status == 2, name
        assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
        if name in NOT_ASCII:
            assert err.startswith("error: %s: unexpected character "
                                  % NOT_ASCII[name]), (name, err)


BUDGET_ERROR = ("error: budgets must be non-negative (--widening-delay, "
                "--narrowing-passes) or positive (--outer-budget, "
                "--combo-cap)\n")


def test_bad_flag_exits_two(capsys):
    status, _, _ = run_cli(capsys, "analyze", path("flag_sync"),
                           "--mode=warp")
    assert status == 2
    for flag in ("--widening-delay=-1", "--narrowing-passes=-1",
                 "--outer-budget=0", "--combo-cap=0"):
        status, out, err = run_cli(capsys, "analyze", path("flag_sync"), flag)
        assert status == 2, flag
        assert out == "" and err == BUDGET_ERROR, flag


def test_bounds_beyond_float_range(tmp_path, capsys):
    big = "1" + "0" * 309  # above the largest float, about 1.8e308
    prog = tmp_path / "huge.mtir"
    prog.write_text("thread main() { int n = *; int x = %s + n;\n"
                    "  int y = %s * n; assert(x >= 0); }\n" % (big, big))
    status, out, err = run_cli(capsys, "analyze", str(prog), "--dump-envs")
    assert (status, err) == (1, "")
    assert "0/1 assertions verified" in out


def flat_program(count):
    """A `main` of `count` straight-line statements, one CFG node each."""
    return ("thread main() {\n"
            + "".join("  int a%d = %d;\n" % (k, k) for k in range(count))
            + "  assert(a0 == 0);\n}\n")


def test_long_straight_line_thread(tmp_path, capsys):
    # a path longer than Python's default recursion limit, with nothing
    # nested
    prog = tmp_path / "flat.mtir"
    prog.write_text(flat_program(1100))
    for mode in ("fi", "fs", "fsc", "fso"):
        status, out, err = run_cli(capsys, "analyze", str(prog),
                                   "--mode=" + mode)
        assert (status, err) == (0, ""), mode
        assert "1/1 assertions verified" in out, mode


def plus_chain(terms):
    return ("thread main() { int x = 1; int y = " + " + ".join(["x"] * terms)
            + "; assert(y >= 1); }\n")


def not_chain(count):
    return ("thread main() { int x = *; if (" + "!" * count + "(x > 0)) "
            "{ x = 1; } else { x = 2; } assert(x >= 1); }\n")


def paren_chain(levels):
    """`x + (x + (... + (x)))`, each right operand in parentheses."""
    return ("thread main() { int x = 1; int y = " + "x + (" * levels + "x"
            + ")" * levels + "; assert(y >= 1); }\n")


def test_deep_expressions(tmp_path, capsys):
    # compiling and evaluating an expression or a branch condition takes
    # one Python frame per nesting level, and a `!` chain none; parsing a
    # parenthesis takes two
    prog = tmp_path / "deep.mtir"
    for make, size in ((plus_chain, 900), (not_chain, 900),
                       (paren_chain, 250)):
        prog.write_text(make(size))
        for mode in ("fi", "fso"):
            status, out, err = run_cli(capsys, "analyze", str(prog),
                                       "--mode=" + mode)
            assert (status, err) == (0, ""), (make.__name__, mode)
            assert "1/1 assertions verified" in out, (make.__name__, mode)
    for make in (plus_chain, not_chain):
        prog.write_text(make(1200))
        status, out, err = run_cli(capsys, "analyze", str(prog))
        assert status == 2 and out == "", make.__name__
        assert err.endswith("program nests too deeply\n"), make.__name__


def test_bench_recursion_error_exits_two(monkeypatch, capsys):
    def too_deep(*_):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(mtir.bench, "run_bench", too_deep)
    status, out, err = run_cli(capsys, "bench", "--family=chain",
                               "--sizes=3")
    assert (status, out) == (2, "")
    assert err == "error: a generated program nests too deeply\n"


PEAK_RSS = """
import resource, sys
from mtir.cli import main
status = main(["analyze", sys.argv[1], "--mode=fso"])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(status)
"""


def test_long_straight_line_thread_memory(tmp_path):
    # per-node sets of nodes (dominators, post-dominators, reaching
    # definitions) are bit masks, not quadratically many Python objects
    prog = tmp_path / "flat.mtir"
    prog.write_text(flat_program(3000))
    src = os.path.dirname(os.path.dirname(os.path.abspath(mtir.__file__)))
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, str(prog)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr.split()[-1]) < 200 * 1024  # KiB on Linux


def test_long_straight_line_thread_linear_cost(monkeypatch):
    # a transfer checks the one interval it binds, not every binding of
    # the environment, so the checks grow linearly along a path
    model = build_model(parse(flat_program(1100)))
    calls = 0
    is_top = Interval.is_top

    def counted(self):
        nonlocal calls
        calls += 1
        return is_top(self)

    monkeypatch.setattr(Interval, "is_top", counted)
    analyze(model, AnalysisConfig(mode="fi"))
    assert calls <= 4 * len(model.threads[0].nodes)


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_bounds_beyond_int_string_limit(tmp_path, capsys, fmt):
    # 10**5120 has more digits than Python's default int-to-str limit (4300)
    prog = tmp_path / "square.mtir"
    prog.write_text("thread main() { int x = 10000000000;\n"
                    + "  x = x * x;\n" * 9 + "  assert(x >= 0); }\n")
    status, out, err = run_cli(capsys, "analyze", str(prog), "--dump-envs",
                               "--format=%s" % fmt)
    assert (status, err) == (0, "")
    big = "1" + "0" * 5120
    assert "x:[%s,%s]" % (big, big) in out


# a literal of 5001 digits, past Python's int-string limit (4300), in each
# place the parser reads one: a global's initial value, a create argument
# and an operand, each also negated where the grammar allows it
BIG = "1" + "0" * 5000
BIG_LITERALS = {
    "global": ("int g = %s;\nthread main() { int x = g; assert(x >= 0); }"
               % BIG, "x:[%s,%s]" % (BIG, BIG)),
    "negative global": ("int g = -%s;\n"
                        "thread main() { int x = g; assert(x < 0); }" % BIG,
                        "x:[-%s,-%s]" % (BIG, BIG)),
    "create argument": ("thread w(int p) { assert(p > 0); }\n"
                        "thread main() { create(w, %s); }" % BIG,
                        "p:[%s,%s]" % (BIG, BIG)),
    "operand": ("thread main() { int x = %s; assert(x > 0); }" % BIG,
                "x:[%s,%s]" % (BIG, BIG)),
    "negative operand": ("thread main() { int x = -%s; assert(x < 0); }"
                         % BIG, "x:[-%s,-%s]" % (BIG, BIG)),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("place", BIG_LITERALS)
def test_literals_beyond_int_string_limit(tmp_path, capsys, place, mode):
    text, bound = BIG_LITERALS[place]
    prog = tmp_path / "big.mtir"
    prog.write_text(text + "\n")
    status, out, err = run_cli(capsys, "analyze", str(prog), "--dump-envs",
                               "--mode=%s" % mode)
    assert (status, err) == (0, "")
    assert bound in out


@pytest.mark.parametrize("mode", MODES)
def test_created_thread_that_never_runs(tmp_path, capsys, mode):
    # w's entry state is bottom: the analysis reports each of its states
    # as bottom and its assertion verified, and stays sound
    prog = tmp_path / "never_runs.mtir"
    prog.write_text(NEVER_RUNS)
    status, out, err = run_cli(capsys, "analyze", str(prog), "--dump-envs",
                               "--format=json", "--mode=%s" % mode)
    assert (status, err) == (0, "")
    report = json.loads(out)
    assert {"thread": "w", "line": 2, "status": "verified"} \
        in report["assertions"]
    model = build_model(parse(NEVER_RUNS))
    w = {model.node_name(n) for n in model.thread_named("w").nodes}
    assert {name: env for name, env in report["envs"].items()
            if name in w} == dict.fromkeys(w, "⊥")
    result = analyze(model, AnalysisConfig(mode=mode))
    assert check_abstraction(enumerate_executions(model), result, model).ok


@pytest.mark.parametrize("name", PROGRAMS)
@pytest.mark.parametrize("mode", ("fi", "fsc", "fso"))
def test_json_report_schema(name, mode, capsys):
    status, out, _ = run_cli(capsys, "analyze", path(name),
                             "--mode=%s" % mode, "--format=json")
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["stats"]["interp_runs"] <= report["stats"]["runs"]
    assert status in (0, 1)
    unproven = [a for a in report["assertions"] if a["status"] == "unproven"]
    assert (status == 1) == bool(unproven)


def test_json_assertion_location(capsys):
    _, out, _ = run_cli(capsys, "analyze", path("flag_sync"),
                        "--mode=fsc", "--format=json")
    report = json.loads(out)
    assert report["assertions"] == [
        {"thread": "thread2", "line": 13, "status": "verified"}]


def test_dump_envs(capsys):
    _, out, _ = run_cli(capsys, "analyze", path("flag_sync"),
                        "--mode=fsc", "--format=json", "--dump-envs")
    report = json.loads(out)
    assert "envs" in report
    assert "t1.6" in report["envs"]
    jsonschema.validate(report, REPORT_SCHEMA)


def test_dump_facts(capsys):
    _, out, _ = run_cli(capsys, "analyze", path("flag_sync"),
                        "--dump-facts")
    assert "MHB(t1.4, t1.5)" in out
    assert "MHB(init:x, t1.4)" in out


@pytest.mark.parametrize("name", PROGRAMS)
def test_dump_facts_is_the_base_dump(name, capsys):
    # the dump reads the ordering rows; the tuple base must print the same
    model = build_model(parse(source(name)))
    expected = dump_facts(model, FeasibilityEngine(model).base)
    _, out, _ = run_cli(capsys, "analyze", path(name), "--dump-facts")
    assert out.endswith("\n" + expected + "\n")


def test_dump_facts_streamed_in_sorted_order(tmp_path, capsys):
    # names that prefix one another (t0.14, t0.14_2, t1.3, t1.3_2) and
    # nodes on one line: the row-by-row dump keeps the lines' sorted order
    text = ("int g = 0;\nint h = 0;\n"
            "thread w() { g = 1; int a = g; h = a; if (a > 0) { g = 2; } }\n"
            "thread main() {\n" + "  h = 1;\n" * 9
            + "  create(w); create(w); join(w); int b = g;\n}\n")
    model = build_model(parse(text))
    expected = dump_facts(model, FeasibilityEngine(model).base)
    assert "MHB(t1.3, t1.3_2)" in expected and "MHB(t0.10, t0.14)" in expected
    prog = tmp_path / "names.mtir"
    prog.write_text(text)
    _, out, _ = run_cli(capsys, "analyze", str(prog), "--dump-facts")
    assert out.endswith("\n" + expected + "\n")


def test_dump_pdg(capsys):
    _, out, _ = run_cli(capsys, "analyze", path("param_guard"),
                        "--dump-pdg")
    assert "digraph pdg {" in out


def test_python_dash_m(capsys):
    argv = ["analyze", path("flag_sync"), "--mode=fsc"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(mtir.__file__)))
    proc = subprocess.run([sys.executable, "-m", "mtir", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    status, out, _ = run_cli(capsys, *argv)
    assert proc.returncode == status == 0
    assert proc.stdout.splitlines()[:2] == out.splitlines()[:2]


def test_closed_stdout_keeps_the_verdict(tmp_path):
    # a reader that stops early, as `mtir analyze ... | head -1` does:
    # no traceback, and the exit status is still the verdict; the envs
    # of 300 statements are far more than a pipe buffers
    src = os.path.dirname(os.path.dirname(os.path.abspath(mtir.__file__)))
    for verdict, expected in ((0, 0), (1, 1)):
        prog = tmp_path / ("flat%d.mtir" % verdict)
        prog.write_text("thread main() {\n"
                        + "".join("  int a%d = %d;\n" % (k, k)
                                  for k in range(300))
                        + "  assert(a0 == %d);\n}\n" % verdict)
        proc = subprocess.Popen(
            [sys.executable, "-m", "mtir", "analyze", str(prog),
             "--dump-envs"],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        try:
            err = proc.stderr.read()
            proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.stderr.close()
        assert (proc.returncode, err) == (expected, b"")


def test_no_cyclic_garbage(capsys):
    # the front end and a text-format analysis free everything they make
    # by reference counting; the argument parser is built once
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for name in PROGRAMS:
            build_model(parse(source(name)))
        assert gc.collect() == 0
        for name in PROGRAMS:
            for mode in ("fi", "fs", "fsc", "fso"):
                argv = ["analyze", path(name), "--mode=" + mode]
                main(argv)
                gc.collect()
                main(argv)
                assert gc.collect() == 0, (name, mode)
        capsys.readouterr()
    finally:
        if enabled:
            gc.enable()


def test_bench_row_count(capsys):
    for family in FAMILIES:
        status, out, _ = run_cli(capsys, "bench", "--family=%s" % family,
                                 "--sizes=2,3", "--seed=1")
        assert status == 0, family
        lines = out.strip().splitlines()
        assert lines[0] == \
            "threads,mode,time_s,verified,total,median_s,spread_s"
        assert len(lines) == 1 + 2 * 4, family  # sizes x modes


def test_bench_runs_its_calls_in_rounds(monkeypatch):
    # each round analyzes every (size, mode) pair once, and a row takes
    # the fastest, the median and the max minus the min of its pair's
    # calls; a fake clock gives each call its own duration
    clock, durations, calls = [0.0], [], []
    analyze = mtir.bench.analyze

    def timed(model, config):
        calls.append((len(model.threads), config.mode))
        durations.append((len(calls) * 7 % 11 + 1) / 100)
        clock[0] += durations[-1]
        return analyze(model, config)

    monkeypatch.setattr(mtir.bench, "analyze", timed)
    monkeypatch.setattr(mtir.bench, "time",
                        types.SimpleNamespace(perf_counter=lambda: clock[0]))
    rows = mtir.bench.run_bench("watchdog", [1, 2], modes=("fi", "fso"))
    pairs = [(2, "fi"), (2, "fso"), (3, "fi"), (3, "fso")]  # main + dogs
    assert calls == pairs * mtir.bench.CALLS
    assert [(row.threads, row.mode) for row in rows] \
        == [(1, "fi"), (1, "fso"), (2, "fi"), (2, "fso")]
    for k, row in enumerate(rows):
        own = sorted(durations[k::len(pairs)])
        assert len(own) == mtir.bench.CALLS == 3
        assert row.time_s == pytest.approx(own[0])
        assert row.median_s == pytest.approx(own[1])
        assert row.spread_s == pytest.approx(own[2] - own[0])
        assert row.verified == row.total == row.threads
    assert len({row.spread_s for row in rows}) > 1
    assert row.csv().split(",")[5:] == ["%.4f" % own[1],
                                        "%.4f" % (own[2] - own[0])]


def test_bench_unknown_family(capsys):
    status, _, err = run_cli(capsys, "bench", "--family=nope")
    assert status == 2
    assert "unknown generator" in err


def test_bench_rejects_non_positive_sizes(capsys):
    cases = {("--sizes=-4",): "sizes must be at least 1",
             ("--family=chain", "--sizes=0"): "sizes must be at least 1",
             ("--sizes=,",): "no sizes given",
             ("--sizes=1,x",): "--sizes: 'x' is not an integer"}
    for argv, message in cases.items():
        status, out, err = run_cli(capsys, "bench", *argv)
        assert status == 2, argv
        assert out == "" and err == "error: %s\n" % message, argv


def test_bench_verified_counts_monotone_per_size(capsys):
    for family in FAMILIES:
        _, out, _ = run_cli(capsys, "bench", "--family=%s" % family,
                            "--sizes=2,3")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        verified = {(int(t), m): int(v) for t, m, _, v, *_ in rows}
        for size in (2, 3):
            assert verified[(size, "fi")] <= verified[(size, "fs")] \
                <= verified[(size, "fsc")], family


DUMP_CORPUS = """
from mtir.cli import main
from mtir.corpus import PROGRAMS, path
for name in PROGRAMS:
    for mode in ("fi", "fs", "fsc", "fso"):
        status = main(["analyze", path(name), "--mode=" + mode,
                       "--format=json", "--dump-envs", "--dump-facts"])
        print("==", name, mode, status)
"""


def test_output_independent_of_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mtir.__file__)))
    outputs = []
    for seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", DUMP_CORPUS], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(re.sub(r'"wall_ms": [0-9.]+', '"wall_ms": 0',
                              proc.stdout))
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n== ") == 4 * len(PROGRAMS)


UNLOADED = """
import contextlib, io, sys
import mtir, mtir.cli
from mtir.corpus import path
heavy = ("dataclasses", "inspect", "decimal")
print(*[name for name in heavy if name in sys.modules])
with contextlib.redirect_stdout(io.StringIO()):
    mtir.cli.main(["analyze", path("flag_sync"), "--mode=fsc"])
print(*[name for name in heavy if name in sys.modules])
"""


def test_import_leaves_heavy_modules_unloaded():
    # the records are plain classes and only an interval's repr needs
    # `decimal`, so importing the CLI loads none of these modules, and an
    # analysis without --dump-envs still does not
    src = os.path.dirname(os.path.dirname(os.path.abspath(mtir.__file__)))
    proc = subprocess.run([sys.executable, "-c", UNLOADED],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "\n\n"


def test_readme_fso_caveat(tmp_path, capsys):
    # README's example of fso verifying less than fsc: the loop never
    # exits, but its branch is off the slice, so fso reaches `g = 1`
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as handle:
        blocks = re.findall(r"```\n(.*?)```", handle.read(), re.S)
    prog = tmp_path / "caveat.mtir"
    prog.write_text(next(b for b in blocks if "while (i >= 0)" in b))
    status = {mode: run_cli(capsys, "analyze", str(prog), "--mode=" + mode)[0]
              for mode in ("fi", "fs", "fsc", "fso")}
    assert status == {"fi": 0, "fs": 0, "fsc": 0, "fso": 1}


BOOTSTRAP_ALARM = (
    "int g = 0; thread w(int a, int b) { g = a + b; } thread main() "
    "{ create(w, 1, 2); join(w); int t = g; assert(t == 3); }")


def test_bootstrap_false_alarm(tmp_path, capsys):
    # a known false alarm, pinned so that mending it is a deliberate
    # change: t == 3 in every execution, but the first iteration's
    # unfiltered self-only run of main reads init:g, and the violation it
    # finds stays, though fsc rejects that combination from iteration 2
    model = build_model(parse(BOOTSTRAP_ALARM))
    records = enumerate_executions(model)
    assert records and not any(r.violations for r in records)
    prog = tmp_path / "bootstrap.mtir"
    prog.write_text(BOOTSTRAP_ALARM)
    status = {mode: run_cli(capsys, "analyze", str(prog), "--mode=" + mode)[0]
              for mode in MODES}
    assert status == dict.fromkeys(MODES, 1)
    per_iteration = analyze(model, AnalysisConfig(mode="fsc")) \
        .stats.per_iteration
    main_tid = model.thread_named("main").tid
    assert [i.infeasible[main_tid] for i in per_iteration[:2]] == [0, 1]


def test_benchmark_selfcheck():
    # the benchmark patches the checker's entry points by name
    # (perfbench/layers.py): its self-check fails if one goes missing
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
