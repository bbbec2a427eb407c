"""Exhaustive concrete execution of a program model.

Ground truth for the abstraction: enumerates every interleaving (and
every nondet valuation from a finite domain) of a loop-free or
step-bounded program, recording per-step states and which store produced
each loaded value.  Executions longer than the step bound are dropped,
so bounded results only support must-style checks: anything observed
must be covered by the analysis, absence proves nothing.

Semantics notes: integers are unbounded, `/` is floor division and
division by zero yields 0 (the abstract domain maps a 0-containing
divisor to top, which covers this), a failed assert is recorded and
execution continues, mirroring the analysis where asserts are judged
but never assumed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .ast import BinOp, BoolLit, IntLit, UnaryOp, Var
from .cfg import (
    ProgramModel, SAssert, SBranch, SCreate, SExit, SJoin, SLoad, SLocal,
    SNondet, SNop, SStore, is_store,
)
from .domain import AbstractEnv
from .errors import OracleBudgetExceeded
from .facts import init_node


_CONCRETE = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": lambda a, b: a // b if b != 0 else 0,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
    "&&": lambda a, b: a != 0 and b != 0, "||": lambda a, b: a != 0 or b != 0,
}


def eval_concrete(expr, env: dict) -> int:
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, BoolLit):
        return 1 if expr.value else 0
    if isinstance(expr, Var):
        return env.get(expr.name, 0)  # locals read before assignment are 0
    if isinstance(expr, UnaryOp):
        return 0 if eval_concrete(expr.operand, env) != 0 else 1
    if isinstance(expr, BinOp) and expr.op in _CONCRETE:
        # int() turns a comparison's bool into 0/1
        return int(_CONCRETE[expr.op](eval_concrete(expr.left, env),
                                      eval_concrete(expr.right, env)))
    raise TypeError(expr)


DONE = "done"


@dataclass(frozen=True)
class Step:
    tid: int
    node: int
    globals: tuple  # sorted (name, value) pairs before the step
    locals: tuple  # the acting thread's locals before the step


@dataclass(frozen=True)
class ExecutionRecord:
    steps: tuple
    reads: tuple  # (load node, producing store node or init:<var>) per occurrence
    violations: frozenset  # assert nodes observed failing
    final_globals: tuple
    deadlocked: bool = False


class _State:
    __slots__ = ("pcs", "locals", "globals", "writer", "steps", "reads",
                 "violations", "count")

    def __init__(self, pcs, locals_, globals_, writer, steps, reads,
                 violations, count):
        self.pcs = pcs
        self.locals = locals_
        self.globals = globals_
        self.writer = writer
        self.steps = steps
        self.reads = reads
        self.violations = violations
        self.count = count

    def fork(self):
        return _State(dict(self.pcs), {t: dict(l) for t, l in
                                       self.locals.items()},
                      dict(self.globals), dict(self.writer),
                      list(self.steps), list(self.reads),
                      set(self.violations), self.count)


@dataclass
class OracleBounds:
    nondet_domain: tuple = (-1, 0, 1)
    max_steps: int = 200
    schedule_cap: int = 500_000


def enumerate_executions(model: ProgramModel,
                         bounds: OracleBounds | None = None) -> list:
    """All executions consistent with create/join ordering, every nondet
    choice drawn from the finite domain.  Duplicate-free and, for
    programs within the step bound, complete."""
    bounds = bounds or OracleBounds()
    create_child = dict(model.creates)
    join_child = dict(model.joins)

    init = _State(
        pcs={0: model.thread(0).entry},
        locals_={0: {}},
        globals_=dict(model.globals),
        writer={var: init_node(var) for var in model.globals},
        steps=[], reads=[], violations=set(), count=0)

    records = []
    stack = [init]
    while stack:
        state = stack.pop()
        runnable = []
        for tid in sorted(state.pcs):
            pc = state.pcs[tid]
            if pc == DONE:
                continue
            stmt = model.node(pc).stmt
            if isinstance(stmt, SJoin):
                child = join_child[pc]
                if state.pcs.get(child) != DONE:
                    continue  # blocked until the child exits
            runnable.append(tid)

        if not runnable:
            live = [t for t, pc in state.pcs.items() if pc != DONE]
            records.append(ExecutionRecord(
                tuple(state.steps), tuple(state.reads),
                frozenset(state.violations),
                tuple(sorted(state.globals.items())),
                deadlocked=bool(live)))
            if len(records) > bounds.schedule_cap:
                raise OracleBudgetExceeded(
                    f"more than {bounds.schedule_cap} interleavings")
            continue

        if state.count >= bounds.max_steps:
            continue

        for tid in reversed(runnable):
            for succ in _step(model, state, tid, bounds, create_child,
                              join_child):
                stack.append(succ)

    return records


def _advance(model, state, tid, node):
    cfg = model.thread(tid)
    edges = cfg.succs[node]
    state.pcs[tid] = edges[0][0] if edges else DONE


def _step(model, state, tid, bounds, create_child, join_child):
    node_id = state.pcs[tid]
    node = model.node(node_id)
    stmt = node.stmt
    cfg = model.thread(tid)

    base = state.fork()
    base.steps.append(Step(
        tid, node_id,
        tuple(sorted(state.globals.items())),
        tuple(sorted(state.locals[tid].items()))))
    base.count += 1
    env = base.locals[tid]

    if isinstance(stmt, SNondet):
        out = []
        for value in bounds.nondet_domain:
            s = base.fork()
            s.locals[tid][stmt.target] = value
            _advance(model, s, tid, node_id)
            out.append(s)
        return out

    if isinstance(stmt, SLocal):
        env[stmt.target] = eval_concrete(stmt.expr, env)
        _advance(model, base, tid, node_id)
    elif isinstance(stmt, SLoad):
        env[stmt.target] = base.globals[stmt.var]
        base.reads.append((node_id, base.writer[stmt.var]))
        _advance(model, base, tid, node_id)
    elif isinstance(stmt, SStore):
        base.globals[stmt.var] = eval_concrete(stmt.expr, env)
        base.writer[stmt.var] = node_id
        _advance(model, base, tid, node_id)
    elif isinstance(stmt, SBranch):
        taken = eval_concrete(stmt.cond, env) != 0
        for dst, filt in cfg.succs[node_id]:
            if filt is not None and filt[2] == taken:
                base.pcs[tid] = dst
                break
    elif isinstance(stmt, SAssert):
        if eval_concrete(stmt.cond, env) == 0:
            base.violations.add(node_id)
        _advance(model, base, tid, node_id)
    elif isinstance(stmt, SCreate):
        child = create_child[node_id]
        ccfg = model.thread(child)
        base.pcs[child] = ccfg.entry
        base.locals[child] = dict(ccfg.params)
        _advance(model, base, tid, node_id)
    elif isinstance(stmt, (SJoin, SNop)):
        _advance(model, base, tid, node_id)
    elif isinstance(stmt, SExit):
        base.pcs[tid] = DONE
    else:
        raise TypeError(stmt)
    return [base]


# --- abstraction checking ------------------------------------------------------

@dataclass
class SoundnessReport:
    state_misses: list = field(default_factory=list)
    verdict_misses: list = field(default_factory=list)
    feasibility_misses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.state_misses or self.verdict_misses
                    or self.feasibility_misses)


def _authoritative_globals(model: ProgramModel) -> dict:
    """tid -> globals no other thread ever stores.  For those, the
    thread's own environment binding is an actual over-approximation of
    memory; for the rest, it only tracks the thread's own view and
    concrete values flow through interference instead."""
    stored_by = {var: set() for var in model.globals}
    for node in model.all_nodes():
        if is_store(node):
            stored_by[node.stmt.var].add(node.tid)
    out = {}
    for cfg in model.threads:
        out[cfg.tid] = {var for var, tids in stored_by.items()
                        if not (tids - {cfg.tid})}
    return out


def _pruned_variables(model, identity_nodes):
    """Variables whose abstract tracking is declaredly partial under
    property pruning: any defining site got the identity transfer."""
    skip = set()
    for node in model.all_nodes():
        if node.id not in identity_nodes:
            continue
        stmt = node.stmt
        if isinstance(stmt, SStore):
            skip.add(stmt.var)
        elif isinstance(stmt, (SLocal, SLoad, SNondet)):
            skip.add(stmt.target)
    return frozenset(skip)


def check_abstraction(records, result, model: ProgramModel,
                      rejected=None) -> SoundnessReport:
    """Three must-style checks against an analysis result:
    every concretely visited state lies in the node's abstract state
    (thread locals always, globals where the thread is the only writer);
    no assertion marked verified ever fails concretely; no combination
    the constraint engine rejected is realized by any read map.

    With identity nodes (optimized mode), per-state coverage is only
    promised for the property slice: variables with a pruned defining
    site are skipped, verdict and feasibility checks stay full.

    `rejected` is an iterable of (tid, frozenset of ReadsFrom pairs).
    """
    report = SoundnessReport()
    authoritative = _authoritative_globals(model)
    verified = {n for n, ok in result.verdicts.items() if ok}
    pruned_vars = _pruned_variables(model, result.identity_nodes)

    # many interleavings revisit identical per-step states: check each once
    distinct_steps = set()
    distinct_reads = set()
    all_violations = set()
    for record in records:
        distinct_steps.update(record.steps)
        distinct_reads.add(record.reads)
        all_violations |= record.violations

    for step in sorted(distinct_steps,
                       key=lambda s: (s.node, s.locals, s.globals)):
        env = result.te.get(step.node)
        if env is None or env.bottom:
            report.state_misses.append(
                (model.node_name(step.node), "unreachable abstractly"))
            continue
        for name, value in step.locals:
            if name not in pruned_vars and not env.get(name).contains(value):
                report.state_misses.append(
                    (model.node_name(step.node), name, value,
                     repr(env.get(name))))
        for name, value in step.globals:
            if name in authoritative[step.tid] and name not in pruned_vars \
                    and not env.get(name).contains(value):
                report.state_misses.append(
                    (model.node_name(step.node), name, value,
                     repr(env.get(name))))

    for violated in all_violations:
        if violated in verified:
            report.verdict_misses.append(model.node_name(violated))

    if rejected:
        for reads in distinct_reads:
            producers: dict[int, list] = {}
            for load, src in reads:
                producers.setdefault(load, []).append(src)
            for tid, rf_facts in rejected:
                realized = bool(rf_facts)
                for load, src in rf_facts:
                    occ = producers.get(load, [])
                    if len(occ) != 1 or occ[0] != src:
                        realized = False
                        break
                if realized:
                    report.feasibility_misses.append(
                        (tid, tuple(sorted(
                            (model.node_name(l) if isinstance(l, int) else l,
                             model.node_name(s) if isinstance(s, int) else s)
                            for l, s in rf_facts))))
    return report


def static_rejections(model: ProgramModel, feas) -> list:
    """Every total source assignment the constraint engine refutes, built
    from static candidates (all matching remote stores plus self).  Used
    by the soundness suite to cross-check against concrete read maps."""
    from .cfg import loads_of
    from .interp import SelfSource, StoreSource
    import itertools as it

    rejected = []
    for cfg in model.threads:
        loads = loads_of(cfg)
        if not loads:
            continue
        options = []
        for l in loads:
            var = cfg.nodes[l].stmt.var
            sources = [StoreSource(node.id, AbstractEnv.top())
                       for node in model.all_nodes()
                       if is_store(node) and node.tid != cfg.tid
                       and node.stmt.var == var]
            sources.append(SelfSource())
            options.append(sources)
        for choice in it.product(*options):
            combo = dict(zip(loads, choice))
            rf = feas.reads_from_facts(combo)
            if rf and not feas.is_feasible(combo):
                rejected.append((cfg.tid, rf))
    return rejected
