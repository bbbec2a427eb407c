"""Report identity check, not part of the pytest suite.

Usage (from a checkout root): python3 tests/report_identity.py OUT.json

Runs `mtir analyze --format=json --dump-envs --dump-facts --dump-pdg` in
every mode on a fixed set of programs and writes, one JSON line per
program and mode, the exit code, the report without `wall_ms`, the
`--dump-facts` lines, the `--dump-pdg` lines and the error output.  A
change meant to keep the analysis's output is checked by running this
at its parent and at the change and comparing the two files with `cmp`.

The set: the corpus, watchdog 4/16/32, chain 10/20, a thread with two
parameters, a `main` of 400 straight-line statements, one program with
each expression and condition shape the compiled evaluator treats
apart, a 900-term `+` chain and a branch on 900 `!`, a loop-headed
routine created three times from two routines, a `while` in an `if` in
a `while` with declarations, `error;` and a conditional `create`, a
routine that reads a global after a local loop created four times with
three parameters, a thread whose first shared read is inside a loop,
`random_program` seeds 0-119, `repeated_program` seeds 0-39 and
`stress_soundness`'s `loopy_program` seeds 0-19.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

sys.path[:0] = ["src", "tests"]
from conftest import random_program, repeated_program  # noqa: E402
from stress_soundness import loopy_program  # noqa: E402

from mtir.analysis import MODES  # noqa: E402
from mtir.bench import chain_program, watchdog_program  # noqa: E402
from mtir.cli import main as cli_main  # noqa: E402
from mtir.corpus import PROGRAMS, source  # noqa: E402

TWO_PARAMS = """int g = 0;
thread w(int a, int b) { int t = 1; a = t + 1; g = a + b; }
thread main() { create(w, 3, 4); join(w); int r = g; assert(r >= 0); }
"""

FLAT = ("thread main() {\n"
        + "".join("  int a%d = %d;\n" % (k, k) for k in range(400))
        + "  assert(a0 == 0);\n}\n")


SHAPES = """int g = 0;
thread w() { g = 7; g = -3; }
thread main() {
  create(w);
  int a = *;
  int b = *;
  int c = 4;
  int z = 0;
  if (a >= -3 && a <= 7) {
    int q = 10 / a;
    int r = a / 2;
    int s = (a - 1) * (b + 2);
    if (b > 0 || b < -5) { z = b; } else { z = b; }
    if (b >= 2 && b <= 9) { z = b; } else { z = b; }
    if (!(a < 0) && !!(b != 3)) { z = a; } else { z = a; }
    if (!!!(a == 7)) { z = a; } else { z = a; }
    if (!!!!(b < 5)) { z = b; } else { z = b; }
    if (a < b) { z = a; } else { z = b; }
    if (a <= b) { z = a; } else { z = b; }
    if (a > b) { z = a; } else { z = b; }
    if (a >= b) { z = a; } else { z = b; }
    if (a == b) { z = a; } else { z = b; }
    if (a != c) { z = a; } else { z = c; }
    if (c != a) { z = a; } else { z = c; }
    if (a < a) { z = a; } else { z = a; }
    if (a > a) { z = a; } else { z = a; }
    if (3 < a) { z = a; } else { z = a; }
    if (2 >= a) { z = a; } else { z = a; }
    if (-1 == a) { z = a; } else { z = a; }
    if (5 != a) { z = a; } else { z = a; }
    if (a != 7) { z = a; } else { z = a; }
    if (a != -3) { z = a; } else { z = a; }
    if (a != 2) { z = a; } else { z = a; }
    if (true) { z = 1; } else { z = 2; }
    if (false) { z = 3; } else { z = 4; }
    if (!true) { z = 5; }
    if (b) { z = b; } else { z = b; }
    if (!c) { z = c; } else { z = c; }
    if (1 < 2) { z = 6; } else { z = 7; }
    if (a + 1 < b) { z = a; } else { z = b; }
    if (a < b == true) { z = a; }
    int t = !a;
    int u = !!b;
    int v = a < true;
    int x = g;
    if (x != 7 && x > -3) { z = x; } else { z = x; }
    assert(q >= 0);
    assert(z >= -100 || !(z < 100));
    assert(!(a == 8));
  }
  assert(z <= 100);
}
"""

# a routine whose body starts with a loop, so its entry is a synthetic
# nop, instantiated three times with different arguments by two routines,
# one instance joined
LOOP_START = """int g = 0;
int h = 0;
thread spin(int k) {
  while (g < k) { g = g + 1; }
  h = k;
  assert(k >= 3);
}
thread boss(int a) {
  create(spin, 3);
  int t = a + 1;
  create(spin, 5);
  join(spin);
  int r = h;
  assert(r >= t);
}
thread main() {
  create(boss, 2);
  create(spin, 7);
  int v = g;
  assert(v <= 7);
}
"""

# a `while` inside an `if` inside a `while`, both loop conditions
# reading globals, an `else`, `error;`, declarations and a `create`
# inside an `if`
NESTED = """int g = 0;
int h = 3;
thread helper(int k) { g = k; h = h - 1; }
thread main() {
  int i = 0;
  while (i < h) {
    if (g == 0) {
      int j = 0;
      while (j < g + 2) {
        j = j + 1;
      }
      i = i + j;
    } else {
      i = i + 1;
      if (i > 100) { error; }
    }
  }
  if (i >= 0) { create(helper, 2); } else { error; }
  bool done = i >= 2;
  assert(done);
  int r = g;
  assert(r <= 2);
}
"""

# a global read after a local loop, in a routine created four times with
# three parameters: each instance's runs share their loop
LOOP_THEN_READ = """int g = 0;
int h = 0;
thread work(int n) {
  int s = 0;
  int i = 0;
  while (i < n) { s = s + i; i = i + 1; }
  int t = g;
  g = t + s;
  h = n;
  assert(s >= 0);
  assert(t <= 100);
}
thread main() {
  create(work, 2);
  create(work, 4);
  create(work, 4);
  create(work, 6);
  int r = g;
  g = r + 1;
  int q = h;
  assert(q <= 6);
}
"""

# the first shared read sits inside a loop and is reached only once the
# counter passes 3, after the loop head has widened: runs share a prefix
# that stops mid-ascent
READ_IN_LOOP = """int g = 0;
thread bump() { int b = g; g = b + 2; }
thread main() {
  create(bump);
  int acc = 0;
  int k = 0;
  while (k < 5) {
    k = k + 1;
    if (k > 3) {
      int v = g;
      acc = acc + v;
    }
  }
  assert(acc >= 0);
  assert(k == 5);
}
"""

DEEP_PLUS = ("thread main() { int x = *; int y = "
             + " + ".join(["x"] * 900) + "; assert(y >= 0); }\n")

DEEP_NOT = ("thread main() { int x = *; if (" + "!" * 900
            + "(x > 0)) { x = 1; } else { x = 2; } assert(x >= 1); }\n")


def programs():
    for name in PROGRAMS:
        yield name, source(name)
    for size in (4, 16, 32):
        yield "watchdog%d" % size, watchdog_program(size)
    for size in (10, 20):
        yield "chain%d" % size, chain_program(size)
    yield "two_params", TWO_PARAMS
    yield "flat400", FLAT
    yield "shapes", SHAPES
    yield "loop_start", LOOP_START
    yield "nested", NESTED
    yield "loop_then_read", LOOP_THEN_READ
    yield "read_in_loop", READ_IN_LOOP
    yield "deep_plus900", DEEP_PLUS
    yield "deep_not900", DEEP_NOT
    for family, generator, count in (("random", random_program, 120),
                                     ("repeated", repeated_program, 40),
                                     ("loopy", loopy_program, 20)):
        for seed in range(count):
            yield "%s%d" % (family, seed), generator(seed)


def outcome(path, mode):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["analyze", path, "--mode=" + mode, "--format=json",
                         "--dump-envs", "--dump-facts", "--dump-pdg"])
    text = out.getvalue()
    report, end = json.JSONDecoder().raw_decode(text) if text else (None, 0)
    if report is not None:
        del report["stats"]["wall_ms"]
    facts, _, pdg = text[end:].partition("digraph pdg {")
    return {"exit": code, "report": report,
            "facts": facts.strip().splitlines(),
            "pdg": pdg.strip().splitlines(),
            "stderr": err.getvalue().replace(path, "PROGRAM")}


def main():
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp, \
            open(sys.argv[1], "w", encoding="utf-8") as handle:
        path = os.path.join(tmp, "program.mtir")
        for name, text in programs():
            with open(path, "w", encoding="utf-8") as program:
                program.write(text)
            for mode in MODES:
                line = {"program": name, "mode": mode, **outcome(path, mode)}
                handle.write(json.dumps(line, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
