"""Reference lexer and parser for the differential test of `mtir.parser`.

A frozen copy of the checker's earlier parser: a regex lexer that
matches one token at a time across the whole text, and a
recursive-descent parser that takes one call per precedence level for
every operand.  `test_parser_reference.py` checks that `mtir.parser`
yields the same tokens, syntax trees and syntax errors on every text
it tries.  Unlike `mtir.parser`, this lexer reads Unicode digits and
blanks as digits and blanks, so texts with those are left out.
"""

from __future__ import annotations

import re

from mtir.ast import (
    Assign, AssertStmt, BinOp, BoolLit, CreateStmt, ErrorStmt, If, IntLit,
    JoinStmt, Nondet, Routine, SourceProgram, UnaryOp, Var, While, statements,
)
from mtir.errors import (
    DuplicateGlobalError, MtirSyntaxError, UnknownRoutineError,
)

KEYWORDS = {
    "int", "bool", "thread", "if", "else", "while", "assert", "error",
    "create", "join", "true", "false",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|//[^\n]*)
    | (?P<num>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op><=|>=|==|!=|&&|\|\||[-+*/<>!=;,(){}])
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # "num" | "ident" | keyword text | operator text | "eof"
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r}, {self.line}:{self.col})"


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise MtirSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group()
        if m.lastgroup == "ws":
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                col = len(lexeme) - lexeme.rfind("\n")
            else:
                col += len(lexeme)
        else:
            kind = m.lastgroup
            if kind == "ident" and lexeme in KEYWORDS:
                kind = lexeme
            elif kind == "op":
                kind = lexeme
            tokens.append(Token(kind, lexeme, line, col))
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise MtirSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col)
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def accept(self, kind: str) -> Token | None:
        if self.at(kind):
            return self.next()
        return None

    # -- toplevel ---------------------------------------------------------

    def parse_program(self) -> SourceProgram:
        globals_, seen = [], set()
        while self.at("int") or self.at("bool"):
            typ = self.next().kind
            name_tok = self.expect("ident")
            self.expect("=")
            init_tok = self.peek()
            init = self.parse_literal()
            if typ == "bool" and init not in (0, 1):
                raise MtirSyntaxError(
                    f"bool global {name_tok.text!r} takes true, false, 0 or "
                    f"1, not {init}", init_tok.line, init_tok.col)
            self.expect(";")
            if name_tok.text in seen:
                raise DuplicateGlobalError(
                    f"global {name_tok.text!r} declared twice "
                    f"(line {name_tok.line})")
            seen.add(name_tok.text)
            globals_.append((name_tok.text, typ, init))

        routines = []
        while self.at("thread"):
            routines.append(self.parse_routine())
        self.expect("eof")

        if not routines:
            raise MtirSyntaxError("program has no routines", 1, 1)
        names = [r.name for r in routines]
        for r in routines:
            if names.count(r.name) > 1:
                raise MtirSyntaxError(
                    f"routine {r.name!r} defined twice", r.line, 1)
        if "main" not in names:
            raise UnknownRoutineError("no entry routine named 'main'")
        prog = SourceProgram(globals_, routines, "main")
        self._check_references(prog)
        return prog

    def _check_references(self, prog: SourceProgram):
        names = {r.name for r in prog.routines}
        for r in prog.routines:
            for s, _ in statements(r.body):
                if isinstance(s, (CreateStmt, JoinStmt)):
                    if s.routine not in names:
                        raise UnknownRoutineError(
                            f"line {s.line}: unknown routine {s.routine!r}")
                    if s.routine == "main":
                        raise UnknownRoutineError(
                            f"line {s.line}: the entry routine cannot be "
                            "created or joined")

    def parse_routine(self) -> Routine:
        start = self.expect("thread")
        name = self.expect("ident").text
        self.expect("(")
        params = []
        if self.at("int"):
            self.next()
            params.append(self.expect("ident").text)
            while self.accept(","):
                self.expect("int")
                params.append(self.expect("ident").text)
        if len(set(params)) != len(params):
            raise MtirSyntaxError(
                f"duplicate parameter in routine {name!r}", start.line, start.col)
        self.expect(")")
        body, end_line = self.parse_block()
        return Routine(name, params, body, start.line, end_line)

    def parse_block(self) -> tuple[list, int]:
        self.expect("{")
        stmts = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        close = self.expect("}")
        return stmts, close.line

    # -- statements -------------------------------------------------------

    def parse_stmt(self):
        tok = self.peek()
        if tok.kind in ("int", "bool"):
            self.next()
            name = self.expect("ident")
            self.expect("=")
            expr = self.parse_expr()
            self.expect(";")
            return Assign(name.text, expr, name.line, decl=True)
        if tok.kind == "ident":
            name = self.next()
            self.expect("=")
            expr = self.parse_expr()
            self.expect(";")
            return Assign(name.text, expr, name.line)
        if tok.kind == "if":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then_body, _ = self.parse_block()
            else_body = []
            if self.accept("else"):
                else_body, _ = self.parse_block()
            return If(cond, then_body, else_body, tok.line)
        if tok.kind == "while":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body, _ = self.parse_block()
            return While(cond, body, tok.line)
        if tok.kind == "assert":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return AssertStmt(cond, tok.line)
        if tok.kind == "error":
            self.next()
            self.expect(";")
            return ErrorStmt(tok.line)
        if tok.kind == "create":
            self.next()
            self.expect("(")
            routine = self.expect("ident").text
            args = []
            while self.accept(","):
                args.append(self.parse_literal())
            self.expect(")")
            self.expect(";")
            return CreateStmt(routine, args, tok.line)
        if tok.kind == "join":
            self.next()
            self.expect("(")
            routine = self.expect("ident").text
            self.expect(")")
            self.expect(";")
            return JoinStmt(routine, tok.line)
        raise MtirSyntaxError(
            f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col)

    # -- expressions ------------------------------------------------------

    def parse_literal(self) -> int:
        if self.accept("true"):
            return 1
        if self.accept("false"):
            return 0
        neg = self.accept("-") is not None
        tok = self.expect("num")
        value = int(tok.text)
        return -value if neg else value

    _LEVELS = [
        ("||",),
        ("&&",),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("+", "-"),
        ("*", "/"),
    ]

    def parse_expr(self, level: int = 0):
        if level == len(self._LEVELS):
            return self.parse_unary()
        left = self.parse_expr(level + 1)
        while self.peek().kind in self._LEVELS[level]:
            op = self.next().kind
            right = self.parse_expr(level + 1)
            left = BinOp(op, left, right)
        return left

    def parse_unary(self):
        if self.accept("!"):
            return UnaryOp("!", self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return IntLit(int(tok.text))
        if tok.kind == "-":
            # negative literal in operand position
            self.next()
            num = self.expect("num")
            return IntLit(-int(num.text))
        if tok.kind == "true":
            self.next()
            return BoolLit(True)
        if tok.kind == "false":
            self.next()
            return BoolLit(False)
        if tok.kind == "*":
            self.next()
            return Nondet()
        if tok.kind == "ident":
            self.next()
            return Var(tok.text)
        if tok.kind == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise MtirSyntaxError(
            f"expected an expression, found {tok.text or 'end of input'!r}",
            tok.line, tok.col)


def parse(text: str) -> SourceProgram:
    """Parse MTIR source text into a SourceProgram."""
    return Parser(text).parse_program()
