"""Worklist abstract interpreter for one thread CFG.

A run takes a policy: one source per load of its step table, in the
table's load order, each the value that load reads from shared memory:

  * SelfSource   - the thread-local binding
  * StoreSource  - the value one remote store published
  * MergedSource - the local binding joined with a pre-joined merge of
                   remote stores to the variable: all of them under
                   `fi`, or, for a load on a cycle, those not forced
                   after it

A source compares by what a run reads through it alone, so runs whose
policies are equal compute the same states.
"""

from __future__ import annotations

from .cfg import SAssert, SLoad, SNop, SStore, ThreadCfg, bits, flow_masks
from .domain import (
    AbstractEnv, Interval, compile_expr, compile_filter, compile_transfer,
)
from .errors import AnalysisBudgetExceeded
from .record import Record, Value, cached_property, set_field


# --- load sources ---------------------------------------------------------------

class SelfSource(Value):
    """Read the thread-local binding."""
    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is SelfSource

    def __hash__(self):
        return 0

    def read(self, local: Interval) -> Interval:
        return local


class StoreSource(Value):
    """Read the value one remote store published.  Only feasibility asks
    which store, so sources of equal values are equal."""
    __slots__ = ("store", "value")

    def __init__(self, store: int, value: Interval):
        set_field(self, "store", store)
        set_field(self, "value", value)

    def __eq__(self, other):
        return other.__class__ is StoreSource and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def read(self, local: Interval) -> Interval:
        return self.value


class MergedSource(Value):
    """Read the local binding joined with a merge of remote stores."""
    __slots__ = ("value",)

    def __init__(self, value: Interval):
        set_field(self, "value", value)

    def __eq__(self, other):
        return other.__class__ is MergedSource and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def read(self, local: Interval) -> Interval:
        return local.join(self.value)


class StepTable:
    """A routine's statements compiled for one slicing, by node id
    relative to an instance's first node: the `size` nodes, the `entry`,
    the `loop_heads`, each node's transfer (a load's reads the
    thread-local binding; a run's policy picks its source) and out edges
    with their filters (None if unconditional) as lists, each load with
    its slot in a policy (its rank in node order) and statement, the
    stores in node order, each with its variable and its compiled
    expression, and each assertion with the filter of its negated
    condition.  A node in `identity` (off the slice) compiles as
    a no-op whose out edges filter nothing.  `sweep_order` lists the
    nodes a descending sweep narrows (all but the entry) in node order,
    and `unassigned_locals` the locals some path from the entry reads
    before assigning, parameters aside, in name order: each reads 0."""

    def __init__(self, cfg: ThreadCfg, identity: frozenset = frozenset()):
        base = cfg.first_node
        self.size, self.entry = len(cfg.nodes), cfg.entry - base
        self.transfer, self.succs, self.loads, self.violable = [], [], {}, {}
        self.stores = []
        # each local's bit in the per-node masks, none for a parameter
        bit, kills, reads = dict.fromkeys(cfg.params, 0), [], []
        for r, (defs, uses) in enumerate(cfg.defs_uses):
            kill = read = 0
            for v in defs:
                kill |= bit.setdefault(v, 1 << len(bit))
            for v in uses:
                read |= bit.setdefault(v, 1 << len(bit))
            kills.append(kill)
            reads.append(read)
            stmt, edges = cfg.nodes[r + base].stmt, cfg.succs[r + base]
            if r in identity:
                stmt, edges = SNop(), [(dst, None) for dst, _ in edges]
            self.transfer.append(compile_transfer(stmt))
            self.succs.append([(dst - base, None if filt is None
                                else compile_filter(filt[1], filt[2]))
                               for dst, filt in edges])
            kind = stmt.__class__
            if kind is SLoad:
                self.loads[r] = len(self.loads), stmt
            elif kind is SStore:
                self.stores.append((r, stmt.var, compile_expr(stmt.expr)))
            elif kind is SAssert:
                self.violable[r] = compile_filter(stmt.cond, False)
        # a loop head dominates a node with an edge back to it, so it is on
        # a cycle; a routine without one needs no dominators
        reach = cfg.reach
        self.loop_heads = {dst - base for m, edges in cfg.succs.items()
                           for dst, _ in edges
                           if cfg.dominators[m] >> dst & 1} \
            if any(reach[n] >> n & 1 for n in reach) else set()
        self.sweep_order = [r for r in range(self.size) if r != self.entry]
        # the locals some path from the entry reads before assigning: the
        # locals maybe unassigned at each node, all of them at the entry
        unset = [0] * self.size
        unset[self.entry] = sum(bit.values())
        unset = flow_masks(self.succs, range(self.size), unset,
                           [0] * self.size, kills)
        read = 0
        for r in range(self.size):
            read |= reads[r] & unset[r]
        self.unassigned_locals = tuple(sorted(v for v in bit if read & bit[v]))

    @cached_property
    def in_edges(self) -> list:
        """Each node's in edges as `(pred, filter)`, predecessors in node
        order, so that a sweep joins them in that order; built at the
        table's first sweep."""
        in_edges = [[] for _ in range(self.size)]
        for r, edges in enumerate(self.succs):
            for dst, filt in edges:
                in_edges[dst].append((r, filt))
        return in_edges


def _node_out(table, r, env, policy):
    """Post-state of node r from pre-state env."""
    if env.bottom:
        return env
    load = table.loads.get(r)
    if load is None:
        return table.transfer[r](env)
    slot, stmt = load
    return env.set(stmt.target, policy[slot].read(env.get(stmt.var)))


# --- fixpoint engine ------------------------------------------------------------

class ThreadRun(Record):
    """Result of one interpreter run, by relative node id: the state
    before each node and the assertion nodes it could not prove."""
    __slots__ = ("envs", "violable", "resumed")
    _uncompared = ("resumed",)

    def __init__(self, envs: list, violable: set | None = None,
                 resumed: bool = False):  # resumed: from a prefix
        self.envs = envs  # AbstractEnv per node
        self.violable = set() if violable is None else violable
        self.resumed = resumed


class AnalysisConfig(Record):
    """One analysis's mode and budgets; `analyze_thread` defaults to them."""
    _fields = ("mode", "widening_delay", "narrowing_passes", "outer_budget",
               "combo_cap")
    mode = "fsc"
    widening_delay = 3
    narrowing_passes = 1
    outer_budget = 64
    combo_cap = 4096

    def __init__(self, mode: str = mode, widening_delay: int = widening_delay,
                 narrowing_passes: int = narrowing_passes,
                 outer_budget: int = outer_budget, combo_cap: int = combo_cap):
        self.mode, self.widening_delay = mode, widening_delay
        self.narrowing_passes = narrowing_passes
        self.outer_budget, self.combo_cap = outer_budget, combo_cap


VISIT_BUDGET = 200_000  # worklist visits per run before giving up


class _Prefix(Record):
    """A run's ascending state just before its first policy consult, the
    nodes that state fixes and their descending sweeps."""
    __slots__ = ("envs", "updates", "worklist", "visits", "widened",
                 "fixed", "sweeps")

    def __init__(self, envs: list, updates: list, worklist: int,
                 visits: int, widened: bool, fixed: int):
        self.envs, self.updates = envs, updates
        # mask of the pending nodes, the consulting load the lowest
        self.worklist = worklist
        self.visits, self.widened = visits, widened
        self.fixed = fixed  # mask of the nodes no pending node reaches
        # per sweep of the first run from here that swept that far: each fixed
        # node the sweep narrowed, with its new state
        self.sweeps = []


def analyze_thread(cfg: ThreadCfg, init: AbstractEnv, policy,
                   widening_delay: int = AnalysisConfig.widening_delay,
                   narrowing_passes: int = AnalysisConfig.narrowing_passes,
                   *, table: StepTable,
                   prefixes: dict | None = None) -> ThreadRun:
    """Run the worklist fixpoint over one thread from the given entry state.

    The run executes `table`, a `StepTable` of the thread's routine, and
    computes by node id relative to the thread's first node, as does the
    returned `ThreadRun`.  `policy` holds one source per load of the
    table, in its load order.

    Widening fires at loop heads (back-edge targets) once a node has been
    updated more than `widening_delay` times; a bounded descending pass
    then narrows the widened bounds back where the loop body permits.
    Without a widening each node's state is already the join of its final
    incoming edges, so the pass is skipped.

    The worklist is a mask of the pending nodes by relative id, and each
    visit pops the lowest: node order (Bourdoncle, FMPA 1993).  Node ids
    follow the source, so a loop settles before any node after it is
    popped, and a table without a cycle visits each node once.

    A run is resumable.  Until it pops one of the table's loads with a state
    that is not bottom, it has not consulted `policy`, so what it computed
    is a function of the table, `init` and the widening delay alone.  At that
    first consult, unless it is the first visit, the run stores its states,
    update counts and pending mask in `prefixes` under `(table, init)`; a
    later run of any instance with that key copies that state and goes on
    from there, so it visits, widens and exceeds the visit budget exactly
    where a fresh run would.  `prefixes` must belong to one analysis, with a
    fixed widening delay; by default the prefix is stored in a dict of its
    own.  A thread whose entry is one of the table's loads consults at its
    first visit, so it neither looks up nor stores a prefix.

    The descending pass is shared too.  The prefix also holds its fixed
    nodes: those that no pending node (the consulting load among them)
    reaches.  Only nodes popped after the consult update states, so a fixed
    node's state is final at the consult; its predecessors are fixed as
    well, and none of them reads the policy, since every load with a state
    that is not bottom is still pending.  A loop before the consulting load
    has settled, so its nodes are fixed.  So in each sweep a fixed node
    narrows to a value that depends on the prefix and the sweep's number
    alone.  The first run from a prefix that reaches a sweep records the
    fixed nodes that sweep narrowed; a later run walks the same node order,
    copies them, and computes only the other nodes.  These read the same mix
    of this sweep's and the last sweep's states as in a fresh run, and the
    run stops sweeping once neither kind of node changed.
    """
    base = cfg.first_node
    if len(policy) != len(table.loads):
        raise ValueError(f"{cfg.name}: {len(policy)} sources for "
                         f"{len(table.loads)} loads")
    envs = [AbstractEnv.bot()] * table.size
    envs[table.entry] = init
    if init.bottom:
        return ThreadRun(envs)

    widen_points = table.loop_heads
    prefix = None
    if table.entry in table.loads:
        recording = False  # the first visit consults: nothing to store
    else:
        prefixes = {} if prefixes is None else prefixes
        key = table, init
        prefix = prefixes.get(key)
        recording = prefix is None  # until the first consult
    resumed = prefix is not None
    if prefix is None:
        updates = [0] * table.size
        pending = 1 << table.entry  # mask of the nodes to visit
        visits, widened = 0, False
    else:
        envs, updates = list(prefix.envs), list(prefix.updates)
        pending = prefix.worklist
        visits, widened = prefix.visits, prefix.widened
    budget = VISIT_BUDGET

    while pending:
        visits += 1
        if visits > budget:
            raise AnalysisBudgetExceeded(
                f"{cfg.name}: worklist exceeded {budget} visits")
        low = pending & -pending  # the lowest pending node goes first
        pending ^= low
        n = low.bit_length() - 1
        if recording and n in table.loads and not envs[n].bottom:
            recording = False
            if visits > 1:
                reached = 0
                for m in bits(pending | low):
                    reached |= cfg.reach[m + base]
                prefix = prefixes[key] = _Prefix(
                    list(envs), list(updates), pending | low, visits - 1,
                    widened, ~(reached >> base))
        out = _node_out(table, n, envs[n], policy)
        for dst, filt in table.succs[n]:
            incoming = out if filt is None else filt(out)
            if incoming.leq(envs[dst]):
                continue
            joined = envs[dst].join(incoming)
            if dst in widen_points and updates[dst] >= widening_delay:
                joined = envs[dst].widen(joined)
                widened = True
            envs[dst] = joined
            updates[dst] += 1
            pending |= 1 << dst

    # descending sweeps, in place so a narrowed loop head refines its
    # successors within the same pass; each update keeps the post-fixpoint
    # property since predecessors can only shrink afterwards
    fixed, swept = (0, []) if prefix is None \
        else (prefix.fixed, prefix.sweeps)
    for j in range(narrowing_passes if widened else 0):
        copying = j < len(swept)
        narrowed_fixed = swept[j] if copying else {}
        changed = bool(narrowed_fixed)
        for n in table.sweep_order:
            if copying and fixed >> n & 1:
                if n in narrowed_fixed:
                    envs[n] = narrowed_fixed[n]
                continue
            incoming = AbstractEnv.bot()
            for p, filt in table.in_edges[n]:
                out = _node_out(table, p, envs[p], policy)
                incoming = incoming.join(out if filt is None else filt(out))
            narrowed = envs[n].narrow(incoming)
            if narrowed is not envs[n]:  # narrow returns self if unchanged
                envs[n] = narrowed
                changed = True
                if fixed >> n & 1:
                    narrowed_fixed[n] = narrowed
        if not copying:
            swept.append(narrowed_fixed)
        if not changed:
            break

    return ThreadRun(envs, {n for n, negated in table.violable.items()
                            if not negated(envs[n]).bottom},
                     resumed=resumed)
