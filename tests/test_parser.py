import copy
import pickle

import pytest

from conftest import random_program, random_single_thread_program
from mtir.ast import (
    Assign, AssertStmt, BinOp, BoolLit, ErrorStmt, If, IntLit, JoinStmt,
    Nondet, Routine, SourceProgram, UnaryOp, Var, While, statements,
    to_source,
)
from mtir.errors import (
    DuplicateGlobalError, MtirSyntaxError, UnknownRoutineError,
)
from mtir.parser import parse
from mtir.corpus import PROGRAMS, source


def test_flag_sync_shape():
    prog = parse(source("flag_sync"))
    assert [r.name for r in prog.routines] == ["thread1", "thread2", "main"]
    assert prog.entry == "main"
    assert [g[0] for g in prog.globals] == ["flag", "x"]
    assert prog.globals[0] == ("flag", "bool", 0)
    assert prog.globals[1] == ("x", "int", 0)


def test_empty_body():
    prog = parse("thread main() { }")
    assert prog.routine("main").body == []


def test_comments_and_whitespace():
    prog = parse("""
      // leading comment
      int x = 3;   // trailing
      thread main() { x = x + 1; }
    """)
    assert prog.globals == [("x", "int", 3)]


def test_precedence():
    prog = parse("thread main() { int a = 1 + 2 * 3 < 7 && 1 || 0; }")
    expr = prog.routine("main").body[0].expr
    # || at the top, && below, comparison below that
    assert expr.op == "||"
    assert expr.left.op == "&&"
    assert expr.left.left.op == "<"
    assert expr.left.left.left.op == "+"
    assert expr.left.left.left.right.op == "*"


def test_nondet_vs_multiplication():
    prog = parse("thread main() { int a = *; int b = a * 2; int c = a * *; }")
    body = prog.routine("main").body
    assert isinstance(body[0].expr, Nondet)
    assert isinstance(body[1].expr, BinOp) and body[1].expr.op == "*"
    assert isinstance(body[2].expr.right, Nondet)


def test_negative_literals():
    prog = parse("int g = -4; thread main() { int a = -1; int b = a - -2; }")
    assert prog.globals[0][2] == -4
    body = prog.routine("main").body
    assert body[0].expr == IntLit(-1)
    assert body[1].expr == BinOp("-", Var("a"), IntLit(-2))


def test_not_and_parens():
    prog = parse("thread main() { bool a = !(1 == 2); }")
    expr = prog.routine("main").body[0].expr
    assert isinstance(expr, UnaryOp) and expr.op == "!"
    assert expr.operand == BinOp("==", IntLit(1), IntLit(2))


def test_if_else_while():
    prog = parse("""
      int x = 0;
      thread main() {
        while (x < 3) { x = x + 1; }
        if (x == 3) { x = 0; } else { x = 1; }
      }
    """)
    body = prog.routine("main").body
    assert isinstance(body[0], While)
    assert isinstance(body[1], If)
    assert len(body[1].else_body) == 1


def test_create_with_args():
    prog = parse(source("param_guard"))
    creates = [s for s in prog.routine("main").body
               if getattr(s, "routine", None) == "thr"]
    assert [s.args for s in creates] == [[5], [10]]


def test_error_statement_line():
    prog = parse(source("flag_sync"))
    # error; sits on line 13 inside the nested if
    outer = prog.routine("thread2").body[1]
    inner = outer.then_body[1]
    assert inner.then_body[0].line == 13


def test_syntax_error_position():
    with pytest.raises(MtirSyntaxError) as err:
        parse("thread main() { x = ; }")
    assert err.value.line == 1
    assert err.value.col == 21


def test_bool_global_takes_only_truth_values():
    # booleans are 0/1: any other initializer would print back as `true`
    for init, value in (("true", 1), ("false", 0), ("0", 0), ("1", 1)):
        prog = parse("bool b = %s; thread main() { }" % init)
        assert prog.globals == [("b", "bool", value)]
    for init in ("5", "-1", "2"):
        with pytest.raises(MtirSyntaxError) as err:
            parse("bool b = %s; thread main() { }" % init)
        assert (err.value.line, err.value.col) == (1, 10), init
        assert "bool global 'b'" in str(err.value)


def test_unexpected_character():
    with pytest.raises(MtirSyntaxError):
        parse("thread main() { x = 1 @ 2; }")
    # source text is ASCII: a Unicode digit is no digit, a no-break space
    # or an ASCII separator no blank
    for text, col, char in (
            ("int g = \u0663;\nthread main() { }", 9, "'\u0663'"),
            ("int g = 1\u0663;\nthread main() { }", 10, "'\u0663'"),
            ("thread\u00a0main() { }", 7, "'\\xa0'"),
            ("thread main() {\x1c}", 16, "'\\x1c'"),
            ("thread m\u00e9() { }", 9, "'\u00e9'")):
        with pytest.raises(MtirSyntaxError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (1, col), text
        assert str(err.value) == "1:%d: unexpected character %s" \
            % (col, char), text


def test_duplicate_global():
    with pytest.raises(DuplicateGlobalError):
        parse("int x = 0; int x = 1; thread main() { }")


def test_unknown_routine():
    with pytest.raises(UnknownRoutineError):
        parse("thread main() { create(ghost); }")


def test_missing_entry():
    with pytest.raises(UnknownRoutineError):
        parse("thread worker() { }")


def test_duplicate_routine():
    with pytest.raises(MtirSyntaxError):
        parse("thread a() { } thread a() { } thread main() { }")


def test_cannot_create_main():
    with pytest.raises(UnknownRoutineError):
        parse("thread main() { create(main); }")


def test_first_reference_error_in_source_order():
    # depth first, `then` before `else`, routines in order
    text = ("thread w() { }\n"
            "thread main() {\n"
            "  if (1) { while (1) { if (0) { join(ghost); } } }\n"
            "  else { create(main); }\n"
            "  create(zombie);\n"
            "}\n"
            "thread v() { create(phantom); }\n")
    with pytest.raises(UnknownRoutineError,
                       match="^line 3: unknown routine 'ghost'$"):
        parse(text)
    with pytest.raises(UnknownRoutineError,
                       match="^line 4: the entry routine cannot be"):
        parse(text.replace("join(ghost)", "join(w)"))
    with pytest.raises(UnknownRoutineError,
                       match="^line 5: unknown routine 'zombie'$"):
        parse(text.replace("join(ghost)", "join(w)")
              .replace("create(main)", "create(w)"))


def test_statements_walk():
    prog = parse("""
      thread main() {
        int a = 1;
        while (a < 3) {
          if (a == 1) { a = 2; } else { while (a < 2) { a = 3; } }
          a = 4;
        }
        if (a > 0) { a = 5; } else { a = 6; }
        a = 7;
      }
    """)
    walk = [(s.line, type(s).__name__, in_loop)
            for s, in_loop in statements(prog.routine("main").body)]
    assert walk == [
        (3, "Assign", False), (4, "While", False), (5, "If", True),
        (5, "Assign", True), (5, "While", True), (5, "Assign", True),
        (6, "Assign", True), (8, "If", False), (8, "Assign", False),
        (8, "Assign", False), (9, "Assign", False)]


def test_statements_walk_deep_nesting():
    # far deeper than the interpreter's recursion limit
    depth = 5000
    body = [Assign("x", IntLit(0), 1)]
    for k in range(depth):
        body = [If(Var("x"), [], body, 1) if k % 2 else While(Var("x"), body, 1)]
    walk = list(statements(body))
    assert len(walk) == depth + 1
    assert walk[0] == (body[0], False)
    assert walk[-1] == (Assign("x", IntLit(0), 1), True)
    assert [in_loop for _, in_loop in walk[:3]] == [False, False, True]


ROUND_TRIP = {name: source(name) for name in PROGRAMS}
# a local declaration that shadows a global is an error, so the printer
# must keep the declaration
ROUND_TRIP["shadowing_decl"] = (
    "int g = 0; thread main() { int g = 1; assert(g == 1); }")
ROUND_TRIP["bool_decl"] = (
    "int g = 0; thread main() { bool b = g > 0; if (b) { bool c = true; } "
    "else { b = false; } assert(!b); }")
ROUND_TRIP.update(("random%d" % seed, random_program(seed))
                  for seed in range(20))
ROUND_TRIP.update(("single%d" % seed, random_single_thread_program(seed))
                  for seed in range(20))


@pytest.mark.parametrize("name", ROUND_TRIP)
def test_round_trip(name):
    prog = parse(ROUND_TRIP[name])
    assert parse(to_source(prog)) == prog


def test_round_trip_nondet_loop():
    text = "int x = 0;\nthread main() { while (*) { x = x - -1; } }\n"
    prog = parse(text)
    assert parse(to_source(prog)) == prog


def test_nodes_compare_without_source_positions():
    # a statement or routine is what it says, wherever it stands
    spread = parse("int x = 0;\nthread main() {\n  x = 1;\n"
                   "  while (x < 3) {\n    x = x + 1;\n  }\n}\n")
    packed = parse("int x = 0; thread main() { x = 1; "
                   "while (x < 3) { x = x + 1; } }")
    a, b = spread.routine("main"), packed.routine("main")
    assert (a.line, a.end_line) != (b.line, b.end_line)
    assert [s.line for s, _ in statements(a.body)] \
        != [s.line for s, _ in statements(b.body)]
    assert a == b and spread == packed
    assert Assign("x", IntLit(1), 3) == Assign("x", IntLit(1), 7)
    assert Assign("x", IntLit(1), 3) != Assign("x", IntLit(1), 3, decl=True)
    assert ErrorStmt(1) == ErrorStmt(2) != JoinStmt("w", 2)
    assert Routine("w", [], [], 1, 2) == Routine("w", [], [], 5, 9)
    assert Routine("w", [], [], 1, 2) != Routine("v", [], [], 1, 2)
    # positions still print, and mutable nodes do not hash
    assert repr(AssertStmt(BoolLit(True), 4)) \
        == "AssertStmt(cond=BoolLit(value=True), line=4)"
    for node in (a, a.body[0], spread):
        with pytest.raises(TypeError):
            hash(node)


def test_expressions_are_values():
    # expressions hash and compare by value, never equal across classes,
    # and cannot be changed
    expr = BinOp("+", Var("x"), IntLit(1))
    assert expr == BinOp("+", Var("x"), IntLit(1))
    assert hash(expr) == hash(BinOp("+", Var("x"), IntLit(1)))
    assert len({expr, BinOp("+", Var("x"), IntLit(1)), Nondet(), Nondet()}) \
        == 2
    assert IntLit(1) != BoolLit(True) and Nondet() != IntLit(0)
    assert UnaryOp("!", Var("b")) != Var("b")
    with pytest.raises(AttributeError):
        expr.op = "-"
    with pytest.raises(AttributeError):
        del expr.left
    assert copy.deepcopy(expr) == pickle.loads(pickle.dumps(expr)) == expr
    assert repr(expr) \
        == "BinOp(op='+', left=Var(name='x'), right=IntLit(value=1))"
    assert SourceProgram([]).routines is not SourceProgram([]).routines
