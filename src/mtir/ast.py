"""AST for the MTIR source language, plus a pretty printer.

Expressions are shared with the normalized statement IR: after
normalization they only ever mention locals and constants.

Nodes are records (see `record`) and compare by value, never equal
across classes.  Expressions are immutable and hashable; statements,
routines and programs are mutable and unhashable.  Source positions
(`line`, `end_line`) are not part of a node's value: two statements or
routines are equal when they say the same thing.
"""

from __future__ import annotations

from .record import Record, Value, set_field


# --- expressions -----------------------------------------------------------

class IntLit(Value):
    __slots__ = ("value",)

    def __init__(self, value: int):
        set_field(self, "value", value)


class BoolLit(Value):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        set_field(self, "value", value)


class Var(Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)


class Nondet(Value):
    """The `*` expression: an arbitrary integer."""
    __slots__ = ()


class UnaryOp(Value):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):  # op is only "!"
        set_field(self, "op", op)
        set_field(self, "operand", operand)


class BinOp(Value):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        set_field(self, "op", op)
        set_field(self, "left", left)
        set_field(self, "right", right)


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

class Assign(Record):
    __slots__ = ("target", "expr", "line", "decl")
    _uncompared = ("line",)

    def __init__(self, target: str, expr: Expr, line: int,
                 decl: bool = False):  # declared with a type at this site
        self.target, self.expr, self.line, self.decl = target, expr, line, decl


class If(Record):
    __slots__ = ("cond", "then_body", "else_body", "line")
    _uncompared = ("line",)

    def __init__(self, cond: Expr, then_body: list[Stmt],
                 else_body: list[Stmt], line: int):
        self.cond, self.then_body, self.else_body = cond, then_body, else_body
        self.line = line


class While(Record):
    __slots__ = ("cond", "body", "line")
    _uncompared = ("line",)

    def __init__(self, cond: Expr, body: list[Stmt], line: int):
        self.cond, self.body, self.line = cond, body, line


class AssertStmt(Record):
    __slots__ = ("cond", "line")
    _uncompared = ("line",)

    def __init__(self, cond: Expr, line: int):
        self.cond, self.line = cond, line


class ErrorStmt(Record):
    """`error;` - sugar for assert(false) at this location."""
    __slots__ = ("line",)
    _uncompared = ("line",)

    def __init__(self, line: int):
        self.line = line


class CreateStmt(Record):
    __slots__ = ("routine", "args", "line")
    _uncompared = ("line",)

    def __init__(self, routine: str, args: list[int], line: int):
        self.routine, self.args, self.line = routine, args, line


class JoinStmt(Record):
    __slots__ = ("routine", "line")
    _uncompared = ("line",)

    def __init__(self, routine: str, line: int):
        self.routine, self.line = routine, line


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


class Routine(Record):
    __slots__ = ("name", "params", "body", "line", "end_line")
    _uncompared = ("line", "end_line")

    def __init__(self, name: str, params: list[str], body: list[Stmt],
                 line: int, end_line: int):
        self.name, self.params, self.body = name, params, body
        self.line, self.end_line = line, end_line


class SourceProgram(Record):
    __slots__ = ("globals", "routines", "entry")

    def __init__(self, globals: list[tuple[str, str, int]],
                 routines: list[Routine] | None = None, entry: str = "main"):
        self.globals = globals  # (name, "int"|"bool", initializer)
        self.routines = [] if routines is None else routines
        self.entry = entry

    def routine(self, name: str) -> Routine:
        for r in self.routines:
            if r.name == name:
                return r
        raise KeyError(name)


# --- pretty printer --------------------------------------------------------

# each binary operator's binding power: higher binds tighter, and all
# associate to the left; the parser climbs the same table
PRECEDENCE = {
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
    prec = PRECEDENCE[e.op]
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

