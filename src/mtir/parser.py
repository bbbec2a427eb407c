"""Lexer and precedence-climbing parser for MTIR source text.

Grammar (whitespace-insensitive, `//` comments):

    program  := global* routine+
    global   := ("int"|"bool") IDENT "=" literal ";"
    routine  := "thread" IDENT "(" params? ")" block
    params   := "int" IDENT ("," "int" IDENT)*
    block    := "{" stmt* "}"
    stmt     := IDENT "=" expr ";" | ("int"|"bool") IDENT "=" expr ";"
              | "if" "(" expr ")" block ("else" block)?
              | "while" "(" expr ")" block
              | "assert" "(" expr ")" ";" | "error" ";"
              | "create" "(" IDENT ("," literal)* ")" ";"
              | "join" "(" IDENT ")" ";"
    expr     := literal | IDENT | "*" | expr binop expr | "!" expr
              | "(" expr ")"

The routine named "main" is the entry thread.  A bare `*` in operand
position is the nondeterministic integer; between operands it is
multiplication.  Binary operators bind as `ast.PRECEDENCE` says.

Source text is ASCII: digits are 0-9, blanks are space, tab, CR, FF and
VT, and lines end at LF; any other character is an error.
"""

from __future__ import annotations

import re

from .ast import (
    PRECEDENCE, Assign, AssertStmt, BinOp, BoolLit, CreateStmt, ErrorStmt,
    If, IntLit, JoinStmt, Nondet, Routine, SourceProgram, UnaryOp, Var,
    While, statements,
)
from .errors import DuplicateGlobalError, MtirSyntaxError, UnknownRoutineError

# a keyword or an operator is its own token kind
_KINDS = {text: text for text in (
    "int", "bool", "thread", "if", "else", "while", "assert", "error",
    "create", "join", "true", "false",
    "<=", ">=", "==", "!=", "&&", "||", *"-+*/<>!=;,(){}")}

# a line's next lexeme after its blanks: a comment, running to the end
# of the line; a number, word or operator; or any other character
_LEXEME_RE = re.compile(
    r"[ \t\r\f\v]*(?:(//)|(\d+|[A-Za-z_]\w*|<=|>=|==|!=|&&|\|\||"
    r"[-+*/<>!=;,(){}])|(\S))", re.ASCII)


def tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The tokens of `text`, each `(kind, text, line, col)`, and then an
    "eof" token.  A kind is "num", "ident", or a keyword or operator's
    own text.  One regex scan per line."""
    tokens = []
    append, kind_of = tokens.append, _KINDS.get
    for line, src in enumerate(text.split("\n"), 1):
        for m in _LEXEME_RE.finditer(src):
            lexeme = m[2]
            if lexeme is None:
                if m[1]:
                    break
                raise MtirSyntaxError(
                    f"unexpected character {m[3]!r}", line, m.end())
            kind = kind_of(lexeme)
            if kind is None:  # digits sort before letters and "_"
                kind = "num" if lexeme[0] <= "9" else "ident"
            append((kind, lexeme, line, m.end() - len(lexeme) + 1))
    append(("eof", "", line, len(src) + 1))
    return tokens


class Parser:
    """Statements by recursive descent, expressions by precedence."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise MtirSyntaxError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                tok[2], tok[3])
        self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def accept(self, kind: str) -> tuple | None:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            return None
        self.pos += 1
        return tok

    # -- toplevel ---------------------------------------------------------

    def parse_program(self) -> SourceProgram:
        globals_, seen = [], set()
        while self.at("int") or self.at("bool"):
            typ = self.next()[0]
            _, name, line, _ = self.expect("ident")
            self.expect("=")
            _, _, init_line, init_col = self.tokens[self.pos]
            init = self.parse_literal()
            if typ == "bool" and init not in (0, 1):
                raise MtirSyntaxError(
                    f"bool global {name!r} takes true, false, 0 or "
                    f"1, not {init}", init_line, init_col)
            self.expect(";")
            if name in seen:
                raise DuplicateGlobalError(
                    f"global {name!r} declared twice (line {line})")
            seen.add(name)
            globals_.append((name, typ, init))

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
        _, _, line, col = self.expect("thread")
        name = self.expect("ident")[1]
        self.expect("(")
        params = []
        if self.accept("int"):
            params.append(self.expect("ident")[1])
            while self.accept(","):
                self.expect("int")
                params.append(self.expect("ident")[1])
        if len(set(params)) != len(params):
            raise MtirSyntaxError(
                f"duplicate parameter in routine {name!r}", line, col)
        self.expect(")")
        body, end_line = self.parse_block()
        return Routine(name, params, body, line, end_line)

    def parse_block(self) -> tuple[list, int]:
        self.expect("{")
        stmts = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        return stmts, self.next()[2]

    def parse_condition(self):
        """`"(" expr ")"`, as `if`, `while` and `assert` take it."""
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        return cond

    # -- statements -------------------------------------------------------

    def parse_stmt(self):
        kind, text, line, col = self.next()
        if kind == "ident" or kind == "int" or kind == "bool":
            decl = kind != "ident"
            if decl:
                text, line = self.expect("ident")[1:3]
            self.expect("=")
            expr = self.parse_expr()
            self.expect(";")
            return Assign(text, expr, line, decl=decl)
        if kind == "if":
            cond = self.parse_condition()
            then_body, _ = self.parse_block()
            else_body = []
            if self.accept("else"):
                else_body, _ = self.parse_block()
            return If(cond, then_body, else_body, line)
        if kind == "while":
            cond = self.parse_condition()
            body, _ = self.parse_block()
            return While(cond, body, line)
        if kind == "assert":
            cond = self.parse_condition()
            self.expect(";")
            return AssertStmt(cond, line)
        if kind == "error":
            self.expect(";")
            return ErrorStmt(line)
        if kind == "create":
            self.expect("(")
            routine = self.expect("ident")[1]
            args = []
            while self.accept(","):
                args.append(self.parse_literal())
            self.expect(")")
            self.expect(";")
            return CreateStmt(routine, args, line)
        if kind == "join":
            self.expect("(")
            routine = self.expect("ident")[1]
            self.expect(")")
            self.expect(";")
            return JoinStmt(routine, line)
        raise MtirSyntaxError(
            f"unexpected {text or 'end of input'!r}", line, col)

    # -- expressions ------------------------------------------------------

    def parse_literal(self) -> int:
        if self.accept("true"):
            return 1
        if self.accept("false"):
            return 0
        neg = self.accept("-") is not None
        value = int(self.expect("num")[1])
        return -value if neg else value

    def parse_expr(self, floor: int = 1):
        """An operand, then each binary operator that binds at least
        `floor` tightly with its right operand: precedence climbing
        (Pratt, POPL 1973), one call per operator rather than one per
        precedence level, so a parenthesis costs two frames."""
        left = self.parse_operand()
        tokens = self.tokens
        while True:
            op = tokens[self.pos][0]
            power = PRECEDENCE.get(op, 0)
            if power < floor:
                return left
            self.pos += 1
            left = BinOp(op, left, self.parse_expr(power + 1))

    def parse_operand(self):
        kind, text, line, col = self.next()
        if kind == "ident":
            return Var(text)
        if kind == "num":
            return IntLit(int(text))
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind == "!":
            return UnaryOp("!", self.parse_operand())
        if kind == "-":  # a negative literal
            return IntLit(-int(self.expect("num")[1]))
        if kind == "true" or kind == "false":
            return BoolLit(kind == "true")
        if kind == "*":
            return Nondet()
        raise MtirSyntaxError(
            f"expected an expression, found {text or 'end of input'!r}",
            line, col)


def parse(text: str) -> SourceProgram:
    """Parse MTIR source text into a SourceProgram."""
    return Parser(text).parse_program()
