import random

import pytest

from conftest import MODES, random_program
from stress_soundness import loopy_program
from mtir import AnalysisConfig, analyze, build_model, parse
from mtir.ast import BinOp, IntLit, UnaryOp, Var
from mtir.bench import watchdog_program
from mtir.cfg import SLoad, SLocal, SNondet, SStore
from mtir.domain import (
    _BINARY, EMPTY, INF, TOP, AbstractEnv, Interval, _add, _cmp, _div, _mul,
    _not, _truth, compile_expr, compile_filter, compile_transfer, interval,
    render_env,
)
from mtir.oracle import eval_concrete

N_CASES = 1000


def iv(lo, hi):
    return interval(lo, hi)


# --- pinned examples ----------------------------------------------------------

def test_join_hull():
    assert iv(0, 5).join(iv(10, 20)) == iv(0, 20)
    assert iv(0, 0).join(iv(10, 10)) == iv(0, 10)


def test_env_join_pointwise():
    a = AbstractEnv({"x": iv(0, 5)})
    b = AbstractEnv({"x": iv(10, 20)})
    assert a.join(b) == AbstractEnv({"x": iv(0, 20)})
    assert AbstractEnv.bot().join(a) == a
    assert a.join(AbstractEnv.bot()) == a


def test_order_examples():
    assert AbstractEnv({"x": iv(0, 2)}).leq(AbstractEnv({"x": iv(0, 5)}))
    e = AbstractEnv({"x": iv(3, 4)})
    assert e.leq(e)
    assert not AbstractEnv({"x": iv(0, 6)}).leq(AbstractEnv({"x": iv(0, 5)}))
    assert AbstractEnv.bot().leq(e)


def test_widen_examples():
    a = AbstractEnv({"x": iv(0, 1)})
    b = AbstractEnv({"x": iv(0, 2)})
    assert a.widen(b) == AbstractEnv({"x": iv(0, None)})
    assert a.widen(a) == a
    assert AbstractEnv({"x": iv(1, 5)}).widen(AbstractEnv({"x": iv(0, 5)})) \
        == AbstractEnv({"x": iv(None, 5)})


def test_transfer_add():
    env = AbstractEnv({"x": iv(0, 5), "y": iv(10, 20)})
    out = compile_transfer(SLocal("x", BinOp("+", Var("x"), Var("y"))))(env)
    assert out == AbstractEnv({"x": iv(10, 25), "y": iv(10, 20)})


def test_transfer_nondet():
    env = AbstractEnv({"t": iv(1, 1), "u": iv(2, 3)})
    out = compile_transfer(SNondet("t"))(env)
    assert out.get("t") == TOP
    assert out.get("u") == iv(2, 3)


def test_filter_negative_guard_empties():
    # the guarded branch of a scaled positive parameter: 5 * [5,5] = [25,25]
    env = AbstractEnv({"v": iv(5, 5)})
    env = compile_transfer(SLocal("t1", BinOp("*", IntLit(5), Var("v"))))(env)
    assert env.get("t1") == iv(25, 25)
    taken = compile_filter(BinOp("<", Var("t1"), IntLit(0)), True)(env)
    assert taken.bottom


def test_filter_not_equal_singleton():
    env = AbstractEnv({"t1": iv(5, 5)})
    assert compile_filter(BinOp("!=", Var("t1"), IntLit(5)), True)(env).bottom
    wide = AbstractEnv({"t1": iv(0, 5)})
    out = compile_filter(BinOp("!=", Var("t1"), IntLit(5)), True)(wide)
    assert out.get("t1") == iv(0, 4)


def test_filter_boolean_variable():
    env = AbstractEnv({"b": iv(0, 1)})
    assert compile_filter(Var("b"), True)(env).get("b") == iv(1, 1)
    assert compile_filter(Var("b"), False)(env).get("b") == iv(0, 0)


def test_filter_var_vs_var():
    env = AbstractEnv({"a": iv(0, 9), "b": iv(4, 5)})
    out = compile_filter(BinOp("<", Var("a"), Var("b")), True)(env)
    assert out.get("a") == iv(0, 4)
    assert out.get("b") == iv(4, 5)


def test_filter_conjunction():
    env = AbstractEnv({"a": iv(0, 9), "b": iv(0, 9)})
    cond = BinOp("&&", BinOp(">", Var("a"), IntLit(3)),
                 BinOp("<", Var("b"), IntLit(2)))
    out = compile_filter(cond, True)(env)
    assert out.get("a") == iv(4, 9)
    assert out.get("b") == iv(0, 1)


def test_division_with_zero_divisor_is_top():
    env = AbstractEnv({"a": iv(1, 10), "d": iv(-1, 1)})
    out = compile_expr(BinOp("/", Var("a"), Var("d")))(env)
    assert out == TOP


def test_division_endpoints():
    env = AbstractEnv({"a": iv(10, 20), "d": iv(2, None)})
    out = compile_expr(BinOp("/", Var("a"), Var("d")))(env)
    assert out == iv(0, 10)


@pytest.mark.parametrize("op, a, b, expected", [
    ("*", (None, -2), (-3, None), "[-inf,+inf]"),
    ("*", (0, None), (0, 0), "[0,0]"),
    ("*", (None, None), (0, 0), "[0,0]"),
    ("*", (-2, 3), (None, 5), "[-inf,+inf]"),
    ("*", (1, None), (1, None), "[1,+inf]"),
    ("*", (None, -1), (None, -1), "[1,+inf]"),
    ("*", (None, 0), (2, 3), "[-inf,0]"),
    ("/", (1, None), (None, -2), "[-inf,-1]"),
    ("/", (None, None), (2, 3), "[-inf,+inf]"),
    ("/", (-7, 5), (2, None), "[-4,2]"),
    ("/", (-7, 5), (None, -3), "[-2,2]"),
    ("/", (0, 0), (None, -1), "[0,0]"),
    ("/", (None, 4), (None, -2), "[-2,+inf]"),
    ("/", (3, 9), (1, None), "[0,9]"),
    ("/", (1, 5), (-1, 1), "[-inf,+inf]"),
])
def test_arithmetic_with_infinite_bounds(op, a, b, expected):
    env = AbstractEnv({"a": iv(*a), "b": iv(*b)})
    assert repr(compile_expr(BinOp(op, Var("a"), Var("b")))(env)) == expected


BIG = 10 ** 400  # beyond float range: int + inf would raise OverflowError


@pytest.mark.parametrize("op, a, b, expected", [
    ("+", (BIG, BIG), (None, None), "[-inf,+inf]"),
    ("+", (BIG, BIG), (0, None), "[BIG,+inf]"),
    ("+", (-BIG, BIG), (None, 0), "[-inf,BIG]"),
    ("-", (BIG, BIG), (None, None), "[-inf,+inf]"),
    ("-", (BIG, BIG), (0, None), "[-inf,BIG]"),
    ("-", (0, None), (BIG, BIG), "[-BIG,+inf]"),
    ("*", (BIG, BIG), (None, None), "[-inf,+inf]"),
    ("*", (BIG, BIG), (0, None), "[0,+inf]"),
    ("*", (-BIG, BIG), (0, None), "[-inf,+inf]"),
    ("*", (-BIG, -BIG), (0, None), "[-inf,0]"),
    ("/", (BIG, BIG), (None, -1), "[-BIG,-1]"),
])
def test_arithmetic_with_huge_bounds(op, a, b, expected):
    env = AbstractEnv({"a": iv(*a), "b": iv(*b)})
    got = repr(compile_expr(BinOp(op, Var("a"), Var("b")))(env))
    assert got.replace(str(BIG), "BIG") == expected


def test_arithmetic_with_empty_operand():
    ops = (_add, _mul, _div, lambda a, b: _cmp("<", a, b),
           lambda a, b: _cmp("!=", a, b))
    for f in ops:
        assert f(EMPTY, TOP) is EMPTY
        assert f(TOP, EMPTY) is EMPTY
        assert f(iv(1, 2), EMPTY) is EMPTY


def test_interval_rejects_non_canonical_bounds():
    for lo, hi in ((0.5, 3), (0, 3.0), (0, float("nan")), (INF, 3),
                   (-3, -INF), (3, 2), (1, 0), (INF, 0), (0, -INF)):
        with pytest.raises(ValueError):
            Interval(lo, hi)
    assert Interval(INF, -INF) == EMPTY and Interval(INF, -INF).empty
    assert Interval(-INF, INF) == TOP and not TOP.empty


def test_assert_judged_not_assumed():
    env = AbstractEnv({"t": iv(0, 5)})
    # an assert can fail when its pre-state meets the negated condition
    can_fail = compile_filter(BinOp("!=", Var("t"), IntLit(5)), False)(env)
    cannot = compile_filter(BinOp(">=", Var("t"), IntLit(0)), False)(env)
    assert not can_fail.bottom and cannot.bottom


def test_render():
    env = AbstractEnv({"x": iv(0, 5), "flag": iv(1, 1)})
    assert render_env(env) == "{flag:[1,1], x:[0,5]}"
    assert render_env(AbstractEnv.bot()) == "⊥"
    assert render_env(AbstractEnv({"x": iv(0, None)})) == "{x:[0,+inf]}"


def test_empty_interval_is_canonical():
    assert iv(3, 2) is EMPTY
    assert iv(3, 2) == iv(10, 1)


def test_env_drops_top_and_collapses_empty():
    assert AbstractEnv({"x": TOP}) == AbstractEnv({})
    assert AbstractEnv({"x": EMPTY}).bottom


# --- randomized lattice laws ----------------------------------------------------

def rand_interval(rng):
    choice = rng.random()
    if choice < 0.1:
        return TOP
    lo = None if rng.random() < 0.15 else rng.randint(-20, 20)
    hi = None if rng.random() < 0.15 else rng.randint(-20, 20)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return interval(lo, hi)


def rand_env(rng, names=("x", "y", "z")):
    if rng.random() < 0.05:
        return AbstractEnv.bot()
    return AbstractEnv({n: rand_interval(rng) for n in names
                        if rng.random() < 0.8})


def test_lattice_laws():
    rng = random.Random(7)
    for _ in range(N_CASES):
        a, b, c = rand_env(rng), rand_env(rng), rand_env(rng)
        assert a.join(b) == b.join(a)
        assert a.join(b).join(c) == a.join(b.join(c))
        assert a.join(a) == a
        assert a.leq(a.join(b)) and b.leq(a.join(b))
        # partial order
        assert a.leq(a)
        if a.leq(b) and b.leq(a):
            assert a == b
        if a.leq(b) and b.leq(c):
            assert a.leq(c)
        # meet is a lower bound
        assert a.meet(b).leq(a) and a.meet(b).leq(b)


def test_widening_above_join_and_stabilizes():
    rng = random.Random(11)
    names = ("x", "y", "z")
    for _ in range(N_CASES):
        a, b = rand_env(rng, names), rand_env(rng, names)
        w = a.widen(b)
        assert a.join(b).leq(w)
        # an ascending chain closed under widening stabilizes within
        # 2 * |vars| + 1 steps
        cur = a
        steps = 0
        while True:
            nxt = cur.widen(cur.join(rand_env(rng, names)))
            steps += 1
            if nxt == cur:
                break
            cur = nxt
            assert steps <= 2 * len(names) + 1


def test_narrowing_bounds():
    rng = random.Random(13)
    for _ in range(N_CASES):
        a = rand_env(rng)
        b = rand_env(rng).meet(a)  # ensure b <= a
        n = a.narrow(b)
        assert b.leq(n) and n.leq(a)


def test_narrowing_returns_its_operand_when_nothing_narrows():
    rng = random.Random(19)
    kept = {"interval": 0, "env": 0}
    for _ in range(N_CASES):
        a, b = rand_interval(rng), rand_interval(rng)
        x = rand_env(rng)
        for kind, lhs, rhs in (("interval", a, b), ("interval", a, a.meet(b)),
                               ("env", x, rand_env(rng)),
                               ("env", x, rand_env(rng).meet(x))):
            got = lhs.narrow(rhs)
            if got == lhs:
                assert got is lhs, (lhs, rhs)
                kept[kind] += 1
    assert min(kept.values()) > N_CASES // 4, kept


def narrow_copying_all(self, other):
    """`AbstractEnv.narrow` as it was defined before it copied on change:
    each binding of `other` narrowed into a copy of `self`'s bindings."""
    if self.bottom:
        return self
    if other.bottom:
        return other
    out, kept = dict(self.bindings), 0
    for name, iv in other.bindings.items():
        x = out.get(name, TOP)
        out[name] = y = x.narrow(iv)
        if y.empty:
            return AbstractEnv.bot()
        kept += y is x
    return self if kept == len(other.bindings) else AbstractEnv._clean(out)


def test_narrowing_matches_copying_every_binding():
    # narrow copies the bindings only at the first that narrows and skips
    # a binding that is the very interval self holds: its results equal
    # the copy-everything definition's, and it returns self exactly when
    # no binding changes
    rng = random.Random(29)
    seen = {"self": 0, "narrowed": 0, "bottom": 0}
    for _ in range(N_CASES):
        a = rand_env(rng)
        shared = AbstractEnv({  # some of a's interval objects, some fresh
            n: a.bindings[n] if n in a.bindings and rng.random() < 0.6
            else rand_interval(rng) for n in ("x", "y", "z")
            if rng.random() < 0.8})
        for b in (rand_env(rng), rand_env(rng).meet(a), shared,
                  shared.meet(a)):
            got, want = a.narrow(b), narrow_copying_all(a, b)
            assert got == want, (a, b)
            assert (got is a) == (want is a) == (got == a), (a, b)
            seen["self" if got is a else
                 "bottom" if got.bottom else "narrowed"] += 1
    assert min(seen.values()) > N_CASES // 20, seen


def rand_stmt(rng, names):
    kind = rng.randrange(5)
    target = rng.choice(names)
    def operand():
        if rng.random() < 0.5:
            return Var(rng.choice(names))
        return IntLit(rng.randint(-5, 5))
    expr = BinOp(rng.choice(("+", "-", "*", "/")), operand(), operand())
    if kind == 0:
        return SLocal(target, expr)
    if kind == 1:
        return SLocal(target, operand())
    if kind == 2:
        return SNondet(target)
    if kind == 3:
        return SLoad(target, rng.choice(names))
    return SStore(target, operand())


def test_transfer_monotone():
    rng = random.Random(17)
    names = ("x", "y")
    for _ in range(N_CASES):
        st = rand_stmt(rng, names)
        a = rand_env(rng, names)
        b = rand_env(rng, names).join(a)  # a <= b by construction
        assert compile_transfer(st)(a).leq(compile_transfer(st)(b)), (st, a, b)


def test_filter_monotone_and_sound():
    rng = random.Random(19)
    names = ("x", "y")
    ops = ("<", "<=", ">", ">=", "==", "!=")
    for _ in range(N_CASES):
        op = rng.choice(ops)
        right = Var("y") if rng.random() < 0.5 else IntLit(rng.randint(-5, 5))
        cond = BinOp(op, Var("x"), right)
        a = rand_env(rng, names)
        b = rand_env(rng, names).join(a)
        pol = rng.random() < 0.5
        fa, fb = compile_filter(cond, pol)(a), compile_filter(cond, pol)(b)
        assert fa.leq(fb)
        assert fa.leq(a)  # filtering only refines


# --- exactness of truth tests on small intervals ----------------------------
# Every finite interval within [-4, 4], brute-forced: a comparison's value
# and a filter's narrowing are the hull of what the concrete values give.

SMALL = range(-4, 5)
SMALL_INTERVALS = [iv(lo, hi) for lo in SMALL for hi in SMALL if lo <= hi]
COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")


def hull(values):
    return iv(min(values), max(values)) if values else EMPTY


def values_of(i):
    return range(i.lo, i.hi + 1) if not i.empty else ()


def concrete_table(expr, names):
    """{values: eval_concrete(expr)} over SMALL for each of names."""
    if len(names) == 1:
        return {(x,): eval_concrete(expr, {names[0]: x}) for x in SMALL}
    return {(x, y): eval_concrete(expr, dict(zip(names, (x, y))))
            for x in SMALL for y in SMALL}


def test_truth_values_are_exact():
    x, y = Var("x"), Var("y")
    binary = [(op, lambda a, b, op=op: _cmp(op, a, b)) for op in COMPARISONS]
    binary += [(op, _BINARY[op]) for op in ("&&", "||")]
    checked = 0
    for op, f in binary:
        table = concrete_table(BinOp(op, x, y), ("x", "y"))
        for a in SMALL_INTERVALS + [EMPTY]:
            for b in SMALL_INTERVALS + [EMPTY]:
                want = hull({table[vx, vy] for vx in values_of(a)
                             for vy in values_of(b)})
                assert f(a, b) == want, (op, a, b)
                checked += 1
    for f, expr in ((_truth, UnaryOp("!", UnaryOp("!", x))),
                    (_not, UnaryOp("!", x))):
        table = concrete_table(expr, ("x",))
        for a in SMALL_INTERVALS + [EMPTY]:
            assert f(a) == hull({table[v,] for v in values_of(a)}), (f, a)
            checked += 1
    assert checked == 8 * 46 * 46 + 2 * 46


def assert_filter_exact(cond, names, table, envs):
    """Under each polarity, each variable narrows to the hull of its
    values over the points where cond takes that polarity; Bottom when
    there are none."""
    for polarity in (True, False):
        step = compile_filter(cond, polarity)
        for parts in envs:
            points = [p for p in table if (table[p] != 0) == polarity
                      and all(i.contains(v) for i, v in zip(parts, p))]
            got = step(AbstractEnv(dict(zip(names, parts))))
            if not points:
                assert got.bottom, (cond, polarity, parts, got)
                continue
            want = [hull({p[k] for p in points}) for k in range(len(names))]
            assert [got.get(n) for n in names] == want, \
                (cond, polarity, parts, got)


def test_filters_narrow_exactly():
    x, y = Var("x"), Var("y")
    pairs = [(a, b) for a in SMALL_INTERVALS for b in SMALL_INTERVALS]
    for op in COMPARISONS:
        cond = BinOp(op, x, y)
        assert_filter_exact(cond, ("x", "y"),
                            concrete_table(cond, ("x", "y")), pairs)
    singles = [(a,) for a in SMALL_INTERVALS]
    conds = [x, UnaryOp("!", x)]
    for op in COMPARISONS:
        for c in range(-5, 6):
            conds += [BinOp(op, x, IntLit(c)), BinOp(op, IntLit(c), x)]
    for cond in conds:
        assert_filter_exact(cond, ("x",), concrete_table(cond, ("x",)),
                            singles)


def test_filter_of_a_variable_against_itself_is_sound():
    # `x op x` keeps the right operand's bound, which is sound, not exact
    for op in COMPARISONS:
        cond = BinOp(op, Var("x"), Var("x"))
        table = concrete_table(cond, ("x",))
        for polarity in (True, False):
            step = compile_filter(cond, polarity)
            for a in SMALL_INTERVALS:
                kept = [v for v in values_of(a)
                        if (table[v,] != 0) == polarity]
                got = step(AbstractEnv({"x": a})).get("x")
                assert all(got.contains(v) for v in kept), (op, polarity, a)
                assert got.leq(a)


def around(rng, value, side):
    """A bound on the given side of value; unbounded one time in five."""
    if rng.random() < 0.2:
        return None
    return value + side * rng.randint(0, 3)


def test_concretization_soundness_vs_concrete_eval():
    # the concrete step of any state within gamma(env) lands in
    # gamma(transfer(env))
    rng = random.Random(23)
    names = ("x", "y")
    for _ in range(N_CASES):
        st = rand_stmt(rng, names)
        if isinstance(st, SNondet):
            continue
        state = {n: rng.randint(-6, 6) for n in names}
        env = AbstractEnv({n: interval(around(rng, state[n], -1),
                                       around(rng, state[n], +1))
                           for n in names})
        out = compile_transfer(st)(env)
        if isinstance(st, (SLocal,)):
            value = eval_concrete(st.expr, state)
            assert out.get(st.target).contains(value), (st, state, env)
        elif isinstance(st, SLoad):
            assert out.get(st.target).contains(state[st.var])
        elif isinstance(st, SStore):
            value = eval_concrete(st.expr, state)
            assert out.get(st.var).contains(value)


# --- bound representation -----------------------------------------------------

def assert_canonical(iv):
    """Every bound is an int or its matching infinity; empty is EMPTY."""
    if iv.empty:
        assert (iv.lo, iv.hi) == (INF, -INF), iv
        return
    assert type(iv.lo) is int or iv.lo == -INF, iv
    assert type(iv.hi) is int or iv.hi == INF, iv


def assert_env_canonical(env):
    for value in env.bindings.values():
        assert_canonical(value)


def rand_expr(rng, names, depth=2):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return Var(rng.choice(names))
        return IntLit(rng.randint(-4, 4))
    if rng.random() < 0.1:
        return UnaryOp("!", rand_expr(rng, names, depth - 1))
    op = rng.choice(("+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=",
                     "&&", "||"))
    return BinOp(op, rand_expr(rng, names, depth - 1),
                 rand_expr(rng, names, depth - 1))


def test_results_keep_canonical_bounds():
    rng = random.Random(29)
    names = ("x", "y")
    for _ in range(N_CASES):
        env = rand_env(rng, names)
        expr = rand_expr(rng, names)
        assert_canonical(compile_expr(expr)(env))
        for polarity in (True, False):
            assert_env_canonical(compile_filter(expr, polarity)(env))
        a, b = rand_interval(rng), rand_interval(rng)
        for got in (a.widen(b), a.narrow(b), a.widen(EMPTY), EMPTY.widen(a),
                    a.narrow(EMPTY), EMPTY.narrow(a)):
            assert_canonical(got)


def rand_huge_interval(rng):
    lo, hi = sorted(rng.sample((-BIG, -1, 0, 2, BIG, BIG * BIG), 2))
    return iv(rng.choice((None, lo)), rng.choice((None, hi)))


def test_huge_bounds_stay_canonical():
    """Bounds beyond float range never meet an infinity in + or *."""
    rng = random.Random(31)
    names = ("x", "y")
    for _ in range(N_CASES):
        env = AbstractEnv({n: rand_huge_interval(rng) for n in names})
        expr = rand_expr(rng, names)
        assert_canonical(compile_expr(expr)(env))
        for polarity in (True, False):
            assert_env_canonical(compile_filter(expr, polarity)(env))


# --- canonical environments -----------------------------------------------------

def assert_env_clean(env):
    """What every environment holds, however it was built: Bottom has no
    bindings, and any other env binds no top and no empty interval."""
    if env.bottom:
        assert env.bindings == {}, env
        return
    for value in env.bindings.values():
        assert not value.empty and not value.is_top(), env
        assert_canonical(value)


def test_env_operations_stay_clean():
    rng = random.Random(37)
    names = ("x", "y", "z")
    assert AbstractEnv.bot() is AbstractEnv.bot()
    for _ in range(N_CASES):
        a, b = rand_env(rng, names), rand_env(rng, names)
        for got in (a.join(b), a.widen(b), a.meet(b), a.narrow(b),
                    a.project({"x", "y"}), a.set("x", rand_interval(rng)),
                    AbstractEnv.top(), AbstractEnv.bot()):
            assert_env_clean(got)
        assert a.join(a) is a


def test_analysis_states_stay_clean():
    programs = ([random_program(seed) for seed in range(60)]
                + [loopy_program(seed) for seed in range(20)]
                + [watchdog_program(4)])
    for text in programs:
        model = build_model(parse(text))
        for mode in MODES:
            result = analyze(model, AnalysisConfig(mode=mode))
            for env in result.te.values():
                assert_env_clean(env)
            for sources in result.interference.values():
                for source in sources.sources.values():
                    assert source.value != EMPTY, source
                    assert_canonical(source.value)


# --- the inlined kernel ---------------------------------------------------------

def pointwise_reference(a, b, op):
    """`op` per variable through the checked constructor: what the inlined
    `AbstractEnv.join` (op = `Interval.join`) and `AbstractEnv.narrow`
    (op = `Interval.narrow`) must equal on non-bottom envs."""
    names = a.bindings.keys() | b.bindings.keys()
    return AbstractEnv({n: op(a.get(n), b.get(n)) for n in names})


def rand_env_sharing(rng, env, names):
    """A random env that binds some of `env`'s interval objects as is."""
    return AbstractEnv({
        n: env.bindings[n] if n in env.bindings and rng.random() < 0.4
        else rand_interval(rng) for n in names if rng.random() < 0.8})


def test_inlined_join_and_narrow_match_pointwise_reference():
    rng = random.Random(41)
    names = ("x", "y", "z")
    seen = dict.fromkeys(("absent", "top", "infinite", "shared", "empty"), 0)
    for _ in range(N_CASES):
        a = rand_env(rng, names)
        if a.bottom:
            continue
        b = rand_env_sharing(rng, a, names)
        if b.bottom:
            continue
        join, ref = a.join(b), pointwise_reference(a, b, Interval.join)
        assert join == ref and not join.bottom, (a, b)
        assert (join is a) == (ref == a), (a, b)
        assert_env_clean(join)
        narrow = a.narrow(b)
        assert narrow == pointwise_reference(a, b, Interval.narrow), (a, b)
        assert_env_clean(narrow)
        seen["absent"] += len(a.bindings) < len(names)
        seen["top"] += any(a.get(n).join(b.get(n)).is_top()
                           for n in a.bindings.keys() & b.bindings.keys())
        seen["infinite"] += any(INF in (abs(v.lo), abs(v.hi))
                                for v in a.bindings.values())
        seen["shared"] += any(b.bindings.get(n) is v
                              for n, v in a.bindings.items())
        seen["empty"] += narrow.bottom
    assert min(seen.values()) > N_CASES // 100, seen


def test_unchecked_intervals_pass_the_checked_constructor(monkeypatch):
    """Every interval `_make` builds, from join, widening and addition of
    random and huge bounds, is one `Interval(lo, hi)` accepts and equals."""
    from mtir import domain
    made = []

    def recording(lo, hi, _make=domain._make):
        made.append(_make(lo, hi))
        return made[-1]

    monkeypatch.setattr(domain, "_make", recording)
    rng = random.Random(43)
    for _ in range(N_CASES):
        for draw in (rand_interval, rand_huge_interval):
            x, y = draw(rng), draw(rng)
            x.join(y), x.widen(y), _add(x, y)
        a = rand_env(rng)
        a.join(rand_env_sharing(rng, a, ("x", "y", "z")))
    assert len(made) > N_CASES
    for got in made:
        checked = Interval(got.lo, got.hi)
        assert checked == got and not checked.empty, got
        assert_canonical(got)
