import gc
import json
import os
import re
import subprocess
import sys

import jsonschema
import pytest

import mtir
from mtir import AnalysisConfig, analyze, build_model, parse
from mtir.bench import FAMILIES
from mtir.cli import REPORT_SCHEMA, main
from mtir.corpus import PROGRAMS, path, source
from mtir.domain import Interval
from mtir.facts import FeasibilityEngine, dump_facts


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
}


def test_bad_syntax_exits_two(tmp_path, capsys):
    for name, content in BAD_INPUTS.items():
        bad = tmp_path / ("%s.mtir" % name)
        bad.write_bytes(content)
        status, _, err = run_cli(capsys, "analyze", str(bad))
        assert status == 2, name
        assert err.startswith("error: ") and err.count("\n") == 1, (name, err)


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


def test_deep_expressions(tmp_path, capsys):
    # compiling and evaluating an expression or a branch condition takes
    # one Python frame per nesting level, and a `!` chain none
    prog = tmp_path / "deep.mtir"
    for make in (plus_chain, not_chain):
        prog.write_text(make(900))
        for mode in ("fi", "fso"):
            status, out, err = run_cli(capsys, "analyze", str(prog),
                                       "--mode=" + mode)
            assert (status, err) == (0, ""), (make.__name__, mode)
            assert "1/1 assertions verified" in out, (make.__name__, mode)
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
        assert lines[0] == "threads,mode,time_s,verified,total"
        assert len(lines) == 1 + 2 * 4, family  # sizes x modes


def test_bench_unknown_family(capsys):
    status, _, err = run_cli(capsys, "bench", "--family=nope")
    assert status == 2
    assert "unknown generator" in err


def test_bench_rejects_non_positive_sizes(capsys):
    cases = {("--sizes=-4",): "sizes must be at least 1",
             ("--family=chain", "--sizes=0"): "sizes must be at least 1",
             ("--sizes=,",): "no sizes given"}
    for argv, message in cases.items():
        status, out, err = run_cli(capsys, "bench", *argv)
        assert status == 2, argv
        assert out == "" and err == "error: %s\n" % message, argv


def test_bench_verified_counts_monotone_per_size(capsys):
    for family in FAMILIES:
        _, out, _ = run_cli(capsys, "bench", "--family=%s" % family,
                            "--sizes=2,3")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        verified = {(int(t), m): int(v) for t, m, _, v, _ in rows}
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


def test_benchmark_selfcheck():
    # the benchmark patches the checker's entry points by name
    # (perfbench/layers.py): its self-check fails if one goes missing
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
