"""AST for the MTIR source language, plus a pretty printer.

Expressions are shared with the normalized statement IR: after
normalization they only ever mention locals and constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# --- expressions -----------------------------------------------------------

@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Nondet:
    """The `*` expression: an arbitrary integer."""


@dataclass(frozen=True)
class UnaryOp:
    op: str  # only "!"
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


Expr = IntLit | BoolLit | Var | Nondet | UnaryOp | BinOp


def expr_vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, UnaryOp):
        return expr_vars(e.operand)
    if isinstance(e, BinOp):
        return expr_vars(e.left) | expr_vars(e.right)
    return set()


# --- statements ------------------------------------------------------------

# Source positions (`line`, `end_line`) are not part of a node's value:
# two statements or routines are equal when they say the same thing.

@dataclass
class Assign:
    target: str
    expr: Expr
    line: int = field(compare=False)
    decl: bool = False  # declared with a type at this site


@dataclass
class If:
    cond: Expr
    then_body: list["Stmt"]
    else_body: list["Stmt"]
    line: int = field(compare=False)


@dataclass
class While:
    cond: Expr
    body: list["Stmt"]
    line: int = field(compare=False)


@dataclass
class AssertStmt:
    cond: Expr
    line: int = field(compare=False)


@dataclass
class ErrorStmt:
    """`error;` - sugar for assert(false) at this location."""
    line: int = field(compare=False)


@dataclass
class CreateStmt:
    routine: str
    args: list[int]
    line: int = field(compare=False)


@dataclass
class JoinStmt:
    routine: str
    line: int = field(compare=False)


Stmt = Assign | If | While | AssertStmt | ErrorStmt | CreateStmt | JoinStmt


def statements(body: list[Stmt]):
    """Yield `(stmt, in_loop)` for every statement of `body` and of the
    blocks nested in it, in source order (`then` before `else`), where
    `in_loop` tells whether a `while` encloses it.  Walks an explicit
    stack, not one frame per nesting level."""
    stack = [(s, False) for s in reversed(body)]
    while stack:
        s, in_loop = stack.pop()
        yield s, in_loop
        if isinstance(s, If):
            stack.extend((x, in_loop) for x in reversed(s.else_body))
            stack.extend((x, in_loop) for x in reversed(s.then_body))
        elif isinstance(s, While):
            stack.extend((x, True) for x in reversed(s.body))


@dataclass
class Routine:
    name: str
    params: list[str]
    body: list[Stmt]
    line: int = field(compare=False)
    end_line: int = field(compare=False)


@dataclass
class SourceProgram:
    globals: list[tuple[str, str, int]]  # (name, "int"|"bool", initializer)
    routines: list[Routine] = field(default_factory=list)
    entry: str = "main"

    def routine(self, name: str) -> Routine:
        for r in self.routines:
            if r.name == name:
                return r
        raise KeyError(name)


# --- pretty printer --------------------------------------------------------

_PREC = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6,
}


def expr_to_source(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Nondet):
        return "*"
    if isinstance(e, UnaryOp):
        return "!" + expr_to_source(e.operand, 7)
    prec = _PREC[e.op]
    text = "%s %s %s" % (
        expr_to_source(e.left, prec),
        e.op,
        expr_to_source(e.right, prec + 1),
    )
    return "(%s)" % text if prec < parent_prec else text


def _stmt_lines(s: Stmt, indent: str) -> list[str]:
    if isinstance(s, Assign):
        # the AST keeps no local's type, so a declaration prints as `int`
        decl = "int " if s.decl else ""
        return [f"{indent}{decl}{s.target} = {expr_to_source(s.expr)};"]
    if isinstance(s, If):
        out = [f"{indent}if ({expr_to_source(s.cond)}) {{"]
        for inner in s.then_body:
            out.extend(_stmt_lines(inner, indent + "  "))
        if s.else_body:
            out.append(f"{indent}}} else {{")
            for inner in s.else_body:
                out.extend(_stmt_lines(inner, indent + "  "))
        out.append(f"{indent}}}")
        return out
    if isinstance(s, While):
        out = [f"{indent}while ({expr_to_source(s.cond)}) {{"]
        for inner in s.body:
            out.extend(_stmt_lines(inner, indent + "  "))
        out.append(f"{indent}}}")
        return out
    if isinstance(s, AssertStmt):
        return [f"{indent}assert({expr_to_source(s.cond)});"]
    if isinstance(s, ErrorStmt):
        return [f"{indent}error;"]
    if isinstance(s, CreateStmt):
        args = "".join(", %d" % a for a in s.args)
        return [f"{indent}create({s.routine}{args});"]
    if isinstance(s, JoinStmt):
        return [f"{indent}join({s.routine});"]
    raise TypeError(s)


def to_source(prog: SourceProgram) -> str:
    """Render a program as parseable MTIR text."""
    lines = []
    for name, typ, init in prog.globals:
        if typ == "bool":
            lines.append("bool %s = %s;" % (name, "true" if init else "false"))
        else:
            lines.append("int %s = %d;" % (name, init))
    for r in prog.routines:
        params = ", ".join("int %s" % p for p in r.params)
        lines.append(f"thread {r.name}({params}) {{")
        for s in r.body:
            lines.extend(_stmt_lines(s, "  "))
        lines.append("}")
    return "\n".join(lines) + "\n"

