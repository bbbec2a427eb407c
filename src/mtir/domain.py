"""Interval abstract domain and abstract environments.

Values are mathematical integers; booleans embed as intervals over
{0, 1}.  A bound is an int or, for an unbounded side, the matching
float infinity: -INF as a lower bound, +INF as an upper one, so Python's
own ordering and min/max act on bounds directly.  `+` and `*` never mix
an int with an infinity, which would overflow for ints above ~1.8e308.
The empty interval is the one interval with lo > hi, EMPTY = [+INF, -INF];
an empty operand makes every operator's result EMPTY, and an environment
never binds a variable to EMPTY, it collapses to Bottom instead.
Only the public `AbstractEnv(...)` checks bindings: it drops top ones and
collapses to Bottom on an empty one.  `set`, `join`, `widen`, `narrow`
and `project` wrap their clean bindings with `AbstractEnv._clean`
unchecked, as operations whose bounds are well formed by construction
build intervals with `_make`, and `AbstractEnv.bot()` is one shared Bottom.
"""

from __future__ import annotations

from functools import partial

from .ast import BinOp, BoolLit, Expr, IntLit, UnaryOp, Var
from .cfg import (
    SAssert, SBranch, SCreate, SExit, SJoin, SLoad, SLocal, SNondet, SNop,
    SStore,
)
from .errors import UnknownVariableError

INF = float("inf")


class Interval:
    """[lo, hi], or EMPTY.  Instances are immutable by convention: equal
    and hashed by (lo, hi), and operations return fresh intervals or an
    operand unchanged."""

    # `empty` is stored rather than a property: environments read it once
    # per binding
    __slots__ = ("lo", "hi", "empty")

    def __init__(self, lo: int | float, hi: int | float):
        empty = lo > hi
        if empty:
            if lo != INF or hi != -INF:
                raise ValueError(f"malformed interval [{lo}, {hi}]")
        elif not ((isinstance(lo, int) or lo == -INF)
                  and (isinstance(hi, int) or hi == INF)):
            raise ValueError(f"malformed interval [{lo}, {hi}]")
        self.lo, self.hi, self.empty = lo, hi, empty

    def __eq__(self, other):
        if other.__class__ is not Interval:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        if self.empty:
            return "[]"
        # str(Decimal(b)) is str(b) without the 4300-digit limit on str(int);
        # imported here, as printing intervals is all that needs `decimal`
        from decimal import Decimal
        lo = "-inf" if self.lo == -INF else str(Decimal(self.lo))
        hi = "+inf" if self.hi == INF else str(Decimal(self.hi))
        return f"[{lo},{hi}]"

    def is_top(self):
        return self.lo == -INF and self.hi == INF

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def leq(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def join(self, other: "Interval") -> "Interval":
        if other.leq(self):
            return self
        if self.leq(other):
            return other
        return _make(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        return interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def widen(self, other: "Interval") -> "Interval":
        """Unstable bounds jump to infinity."""
        if self.empty:
            return other
        if other.leq(self):
            return self
        return _make(self.lo if self.lo <= other.lo else -INF,
                     self.hi if other.hi <= self.hi else INF)

    def narrow(self, other: "Interval") -> "Interval":
        """Refine only infinite bounds using the descending iterate."""
        if other.empty:
            return EMPTY
        lo = other.lo if self.lo == -INF else self.lo
        hi = other.hi if self.hi == INF else self.hi
        if lo == self.lo and hi == self.hi:
            return self
        return interval(lo, hi)


def _make(lo, hi) -> Interval:
    """Non-empty [lo, hi], unchecked: bounds well formed by construction."""
    iv = object.__new__(Interval)
    iv.lo, iv.hi, iv.empty = lo, hi, False
    return iv


TOP = Interval(-INF, INF)
EMPTY = Interval(INF, -INF)
_ZERO, _ONE, _BOOL = Interval(0, 0), Interval(1, 1), Interval(0, 1)


def const(value) -> Interval:
    value = int(value)
    return Interval(value, value)


def interval(lo, hi) -> Interval:
    """[lo, hi], with None for an unbounded side; EMPTY when lo > hi."""
    if lo is None:
        lo = -INF
    if hi is None:
        hi = INF
    if lo > hi:
        return EMPTY
    return Interval(lo, hi)


# --- interval arithmetic ------------------------------------------------------

def _product(x, y):
    """Bound product with 0 * inf = 0: a product of sets, not a limit."""
    if x == 0 or y == 0:
        return 0
    if isinstance(x, float) or isinstance(y, float):
        return INF if (x > 0) == (y > 0) else -INF
    return x * y


def _add(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return EMPTY
    lo = -INF if -INF in (a.lo, b.lo) else a.lo + b.lo
    hi = INF if INF in (a.hi, b.hi) else a.hi + b.hi
    return _make(lo, hi)


def _neg(a: Interval) -> Interval:
    return Interval(-a.hi, -a.lo)


def _mul(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return EMPTY
    products = [_product(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return Interval(min(products), max(products))


def _div(a: Interval, b: Interval) -> Interval:
    """Floor division; a divisor interval containing 0 yields top."""
    if a.empty or b.empty:
        return EMPTY
    if b.contains(0):
        return TOP
    quotients = []
    for x in (a.lo, a.hi):
        for y in (b.lo, b.hi):
            if isinstance(x, float):
                if not isinstance(y, float):  # both infinite: covered by others
                    quotients.append(x if y > 0 else -x)
            elif isinstance(y, float):
                # floor of a finite quotient's limit at an infinite divisor
                quotients.append(0 if x == 0 or (x > 0) == (y > 0) else -1)
            else:
                quotients.append(x // y)
    return Interval(min(quotients), max(quotients))


def _truth(a: Interval) -> Interval:
    """Boolean image of an interval: nonzero is true."""
    if a.empty:
        return EMPTY
    if a.lo == a.hi == 0:
        return _ZERO
    if not a.contains(0):
        return _ONE
    return _BOOL


def _not(a: Interval) -> Interval:
    t = _truth(a)
    if t.empty:
        return EMPTY
    if t.lo == t.hi:
        return _ONE if t.lo == 0 else _ZERO
    return _BOOL


def _cmp(op: str, a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return EMPTY
    always = never = False
    if op == "<":
        always = a.hi < b.lo
        never = b.hi <= a.lo
    elif op == "<=":
        always = a.hi <= b.lo
        never = b.hi < a.lo
    elif op == ">":
        return _cmp("<", b, a)
    elif op == ">=":
        return _cmp("<=", b, a)
    elif op == "==":
        always = a.lo == a.hi == b.lo == b.hi
        never = a.meet(b).empty
    elif op == "!=":
        inner = _cmp("==", a, b)
        return _not(inner)
    else:
        raise ValueError(op)
    if always:
        return _ONE
    if never:
        return _ZERO
    return _BOOL


def _and(a: Interval, b: Interval) -> Interval:
    ta, tb = _truth(a), _truth(b)
    if ta.empty or tb.empty:
        return EMPTY
    if ta == _ZERO or tb == _ZERO:
        return _ZERO
    if ta == _ONE and tb == _ONE:
        return _ONE
    return _BOOL


def _or(a: Interval, b: Interval) -> Interval:
    ta, tb = _truth(a), _truth(b)
    if ta.empty or tb.empty:
        return EMPTY
    if ta == _ONE or tb == _ONE:
        return _ONE
    if ta == _ZERO and tb == _ZERO:
        return _ZERO
    return _BOOL


# --- abstract environments ---------------------------------------------------

class AbstractEnv:
    """Total map from variable names to intervals; absent means top.

    Either Bottom (no state) or a finite set of non-top, non-empty
    bindings.  Instances are immutable by convention: operations return
    fresh environments or an operand unchanged.
    """

    __slots__ = ("bottom", "bindings", "_hash")

    def __init__(self, bindings=None, bottom=False):
        self.bottom = bottom
        self._hash = None  # filled on first use: run keys hash envs often
        if bottom:
            self.bindings = {}
            return
        clean = {}
        for name, iv in (bindings or {}).items():
            if iv.empty:
                self.bottom = True
                self.bindings = {}
                return
            if not iv.is_top():
                clean[name] = iv
        self.bindings = clean

    @classmethod
    def _clean(cls, bindings) -> "AbstractEnv":
        """A non-bottom env over bindings with no top or empty interval."""
        env = object.__new__(cls)
        env.bottom, env.bindings, env._hash = False, bindings, None
        return env

    # construction helpers
    @staticmethod
    def top() -> "AbstractEnv":
        return AbstractEnv._clean({})

    @staticmethod
    def bot() -> "AbstractEnv":
        return _BOTTOM

    def get(self, name: str) -> Interval:
        if self.bottom:
            return EMPTY
        return self.bindings.get(name, TOP)

    def set(self, name: str, iv: Interval) -> "AbstractEnv":
        if self.bottom:
            return self
        if iv.empty:
            return _BOTTOM
        new = dict(self.bindings)
        if iv.lo == -INF and iv.hi == INF:
            new.pop(name, None)
        else:
            new[name] = iv
        return AbstractEnv._clean(new)

    def __eq__(self, other):
        if not isinstance(other, AbstractEnv):
            return NotImplemented
        return self.bottom == other.bottom and self.bindings == other.bindings

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                "bot" if self.bottom else frozenset(self.bindings.items()))
        return self._hash

    def __repr__(self):
        return render_env(self)

    def leq(self, other: "AbstractEnv") -> bool:
        if self.bottom:
            return True
        if other.bottom:
            return False
        # pointwise containment; only other's bindings can constrain
        for name, iv in other.bindings.items():
            if not self.get(name).leq(iv):
                return False
        return True

    def join(self, other: "AbstractEnv") -> "AbstractEnv":
        """Self if no binding grows; `Interval.join` per binding, inlined."""
        if self.bottom or other is self:
            return other
        if other.bottom:
            return self
        out, kept, b = {}, 0, other.bindings
        for name, x in self.bindings.items():
            y = b.get(name)
            if y is None:
                continue
            lo, hi = x.lo, x.hi
            if y is x or lo <= y.lo and y.hi <= hi:
                out[name] = x
                kept += 1
            elif y.lo <= lo and hi <= y.hi:
                out[name] = y
            else:
                lo, hi = min(lo, y.lo), max(hi, y.hi)
                if lo != -INF or hi != INF:
                    out[name] = _make(lo, hi)
        return self if kept == len(self.bindings) else AbstractEnv._clean(out)

    def meet(self, other: "AbstractEnv") -> "AbstractEnv":
        if self.bottom or other.bottom:
            return AbstractEnv.bot()
        out = dict(self.bindings)
        for name, iv in other.bindings.items():
            got = out.get(name, TOP).meet(iv)
            if got.empty:
                return AbstractEnv.bot()
            out[name] = got
        return AbstractEnv(out)

    def widen(self, other: "AbstractEnv") -> "AbstractEnv":
        if self.bottom:
            return other
        if other.bottom:
            return self
        out, kept, b = {}, 0, other.bindings
        for name, x in self.bindings.items():
            y = b.get(name)
            if y is not None:
                iv = x if y is x else x.widen(y)
                kept += iv is x
                if iv is x or not iv.is_top():
                    out[name] = iv
        return self if kept == len(self.bindings) else AbstractEnv._clean(out)

    def narrow(self, other: "AbstractEnv") -> "AbstractEnv":
        if self.bottom:
            return self
        if other.bottom:
            return other
        out, kept = dict(self.bindings), 0
        for name, iv in other.bindings.items():
            x = out.get(name, TOP)
            out[name] = y = x.narrow(iv)
            if y.empty:
                return _BOTTOM
            kept += y is x
        return self if kept == len(other.bindings) else AbstractEnv._clean(out)

    def project(self, names) -> "AbstractEnv":
        if self.bottom:
            return self
        return AbstractEnv._clean({n: iv for n, iv in self.bindings.items()
                                   if n in names})


_BOTTOM = AbstractEnv(bottom=True)


def render_env(env: AbstractEnv) -> str:
    if env.bottom:
        return "⊥"
    items = ", ".join(f"{name}:{env.bindings[name]!r}"
                      for name in sorted(env.bindings))
    return "{%s}" % items


# --- compiled evaluation, filtering and transfer ----------------------------
# An expression, a condition with its polarity or a statement compiles once
# to a closure: literals become intervals and the operator or filter shape
# is chosen here.  Compiling and running take one Python frame per nesting
# level and a `!` chain none.  Closures of subexpressions assume a
# non-bottom env; compiled filters and transfers take any.

_BINARY = {"+": _add, "-": lambda a, b: _add(a, _neg(b)), "*": _mul,
           "/": _div, "&&": _and, "||": _or,
           **{op: partial(_cmp, op)
              for op in ("<", "<=", ">", ">=", "==", "!=")}}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


def _lit_value(e: Expr):
    return int(e.value) if isinstance(e, (IntLit, BoolLit)) else None


def compile_expr(e: Expr):
    """Closure mapping a non-bottom env to the interval of e."""
    nots = 0
    while isinstance(e, UnaryOp):  # !!c is the truth value of c
        e, nots = e.operand, nots + 1
    value = _lit_value(e)
    if value is not None:
        value = Interval(value, value)
        inner = lambda env: value  # noqa: E731
    elif isinstance(e, Var):
        name = e.name
        inner = lambda env: env.bindings.get(name, TOP)  # noqa: E731
    elif isinstance(e, BinOp) and e.op in _BINARY:
        op, left, right = _BINARY[e.op], compile_expr(e.left), \
            compile_expr(e.right)
        inner = lambda env: op(left(env), right(env))  # noqa: E731
    else:
        raise UnknownVariableError(f"cannot evaluate {e!r}")
    outer = _not if nots % 2 else _truth
    return (lambda env: outer(inner(env))) if nots else inner


def _keep(env):
    return env


def _trim_ne(iv: Interval, c: int) -> Interval:
    """Remove c from iv when it sits on an endpoint."""
    if not iv.contains(c):
        return iv
    if iv.lo == iv.hi == c:
        return EMPTY
    if iv.lo == c:
        return Interval(c + 1, iv.hi)
    if iv.hi == c:
        return Interval(iv.lo, c - 1)
    return iv


def _bounding(name, bound):
    """Filter meeting name's interval with bound."""
    def step(env):
        iv = env.get(name)
        if iv.leq(bound):
            return env
        got = iv.meet(bound)
        return _BOTTOM if got.empty else env.set(name, got)
    return step


def _trimming(name, c):
    """Filter removing c from an endpoint of name's interval."""
    def step(env):
        iv = env.get(name)
        got = _trim_ne(iv, c)
        if got is iv:
            return env
        return _BOTTOM if got.empty else env.set(name, got)
    return step


def _filter_var_var(env, op, a, b):
    ia, ib = env.get(a), env.get(b)
    off = 1 if op in ("<", ">") else 0
    if op in ("<", "<="):
        na = ia.meet(interval(-INF, ib.hi - off))
        nb = ib.meet(interval(ia.lo + off, INF))
    elif op in (">", ">="):
        na = ia.meet(interval(ib.lo + off, INF))
        nb = ib.meet(interval(-INF, ia.hi - off))
    elif op == "==":
        na = nb = ia.meet(ib)
    else:  # "!="
        na = _trim_ne(ia, ib.lo) if ib.lo == ib.hi else ia
        nb = _trim_ne(ib, ia.lo) if ia.lo == ia.hi else ib
    if na.empty or nb.empty:
        return AbstractEnv.bot()
    return env.set(a, na).set(b, nb)


def compile_filter(cond: Expr, polarity: bool):
    """Closure refining an env by assuming cond evaluates to polarity.
    Bound tightening covers `v op c`, `c op v`, `v op w`, a variable, a
    literal and a splitting `&&`/`||`; any other shape only drops the
    states where cond surely evaluates the other way, which each
    tightening does as well."""
    while isinstance(cond, UnaryOp):  # assume(!c) = assume c is false
        cond, polarity = cond.operand, not polarity
    c = _lit_value(cond)
    if c is not None:
        return _keep if (c != 0) == polarity else lambda env: _BOTTOM
    if isinstance(cond, Var):
        return (_trimming(cond.name, 0) if polarity
                else _bounding(cond.name, _ZERO))
    if isinstance(cond, BinOp) and cond.op in ("&&", "||") \
            and (cond.op == "&&") == polarity:
        # assume(a && b) = assume(a); assume(b), dually for a false or
        first = compile_filter(cond.left, polarity)
        second = compile_filter(cond.right, polarity)
        return lambda env: second(first(env))
    if isinstance(cond, BinOp) and cond.op in _FLIP:
        op = cond.op if polarity else _NEGATE[cond.op]
        left, right = cond.left, cond.right
        if isinstance(right, Var) and _lit_value(left) is not None:
            left, right, op = right, left, _FLIP[op]
        c = _lit_value(right)
        if isinstance(left, Var) and c is not None:
            if op == "!=":
                return _trimming(left.name, c)
            return _bounding(left.name, interval(*{
                "<": (-INF, c - 1), "<=": (-INF, c), ">": (c + 1, INF),
                ">=": (c, INF), "==": (c, c)}[op]))
        if isinstance(left, Var) and isinstance(right, Var):
            a, b = left.name, right.name
            return lambda env: env if env.bottom else \
                _filter_var_var(env, op, a, b)
    value, refuted = compile_expr(cond), (_ZERO if polarity else _ONE)
    return lambda env: env if env.bottom or \
        _truth(value(env)) is not refuted else _BOTTOM


def compile_transfer(stmt):
    """Closure mapping an env to the post-state of one normalized
    statement.  A load reads the thread-local binding (the interpreter's
    load policy layers interference on top), a branch is identity (its
    filters live on the CFG edges) and an assert never assumes its
    condition."""
    if isinstance(stmt, (SLocal, SStore)):
        target = stmt.target if isinstance(stmt, SLocal) else stmt.var
        value = compile_expr(stmt.expr)
        return lambda env: env if env.bottom else env.set(target, value(env))
    if isinstance(stmt, SLoad):
        target, var = stmt.target, stmt.var
        return lambda env: env.set(target, env.get(var))
    if isinstance(stmt, SNondet):
        target = stmt.target
        return lambda env: env.set(target, TOP)
    if isinstance(stmt, (SBranch, SAssert, SCreate, SJoin, SExit, SNop)):
        return _keep
    raise TypeError(stmt)

