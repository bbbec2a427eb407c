"""Lowering from the MTIR AST to per-thread control-flow graphs.

Every statement is normalized so that a shared (global) memory access is
an isolated load or store node: loads pull a global into a fresh local,
stores write an expression over locals only.  This makes the load/store
nodes the unit of interference for the whole analysis.

Each routine is lowered once, at its first instance.  A later instance
is that graph with node ids shifted past the threads before it, and
takes the sets derived from the graph (`_per_routine`) shifted as well.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from functools import cached_property, wraps

from .ast import (
    Assign, AssertStmt, BinOp, BoolLit, CreateStmt, ErrorStmt, Expr, If,
    IntLit, JoinStmt, Nondet, Routine, SourceProgram, UnaryOp, Var, While,
    expr_vars, statements,
)
from .errors import (
    CreateInLoopError, JoinWithoutCreateError, ModelError,
    RecursiveCreateError,
)


# --- normalized statement IR -------------------------------------------------

@dataclass(frozen=True)
class SLocal:
    target: str
    expr: Expr


@dataclass(frozen=True)
class SLoad:
    target: str
    var: str  # global being read


@dataclass(frozen=True)
class SStore:
    var: str  # global being written
    expr: Expr  # over locals and constants only


@dataclass(frozen=True)
class SBranch:
    cond: Expr  # over locals only; filters live on the out edges


@dataclass(frozen=True)
class SAssert:
    cond: Expr  # over locals only; judged, never assumed


@dataclass(frozen=True)
class SNondet:
    target: str


@dataclass(frozen=True)
class SCreate:
    routine: str
    args: tuple[int, ...]


@dataclass(frozen=True)
class SJoin:
    routine: str


@dataclass(frozen=True)
class SExit:
    pass


@dataclass(frozen=True)
class SNop:
    """Synthetic entry placeholder, used only when the first real node
    would otherwise receive a back edge."""


IRStmt = (SLocal, SLoad, SStore, SBranch, SAssert, SNondet, SCreate, SJoin,
          SExit, SNop)


@dataclass
class Node:
    id: int
    tid: int
    line: int
    stmt: object


# An edge filter is None (unconditional) or ("assume", cond, polarity).
Edge = tuple[int, object]


def _per_routine(shift):
    """A cached property computed on a routine's first instance only; a
    later one takes `shift(value, d)`: node ids + d, node masks << d."""
    def wrap(compute):
        @wraps(compute)
        def get(cfg):
            first = cfg.first_instance
            if first is None:
                return compute(cfg)
            return shift(getattr(first, compute.__name__),
                         cfg.first_node - first.first_node)
        return cached_property(get)
    return wrap


def _shift_masks(masks: dict[int, int], d: int) -> dict[int, int]:
    return {n + d: mask << d for n, mask in masks.items()}


@dataclass
class ThreadCfg:
    tid: int
    name: str  # routine name, "#k"-suffixed for repeated instantiation
    routine: str
    nodes: dict[int, Node] = field(default_factory=dict)
    succs: dict[int, list[Edge]] = field(default_factory=dict)
    entry: int = -1
    exit: int = -1
    creation_site: int | None = None  # node id in the parent thread
    params: dict[str, int] = field(default_factory=dict)
    # the routine's first instance if not this one: the same graph up to
    # shifted node ids
    first_instance: ThreadCfg | None = field(default=None, repr=False,
                                              compare=False)

    def node_order(self) -> list[int]:
        return sorted(self.nodes)

    @cached_property
    def first_node(self) -> int:
        """Smallest node id; a thread's ids are consecutive."""
        return min(self.nodes)

    # the graph is fixed once `build_model` returns, so these are computed
    # once per routine

    @_per_routine(_shift_masks)
    def reach(self) -> dict[int, int]:
        """Mask of the nodes reachable from each node via a nonempty path."""
        return reachable_sets(self.succs)

    @_per_routine(lambda by_var, d: {var: [n + d for n in ids]
                                     for var, ids in by_var.items()})
    def stores_by_var(self) -> dict[str, list[int]]:
        """Store nodes per written global, in node order."""
        out: dict[str, list[int]] = {}
        for n in self.node_order():
            stmt = self.nodes[n].stmt
            if isinstance(stmt, SStore):
                out.setdefault(stmt.var, []).append(n)
        return out

    @_per_routine(lambda preds, d: {n + d: [p + d for p in ps]
                                    for n, ps in preds.items()})
    def preds(self) -> dict[int, list[int]]:
        """Predecessors of each node."""
        out = {n: [] for n in self.nodes}
        for n, edges in self.succs.items():
            for dst, _ in edges:
                out[dst].append(n)
        return out

    @_per_routine(_shift_masks)
    def dominators(self) -> dict[int, int]:
        """Dominator masks from the entry; each includes its own node."""
        return dominator_sets(self.succs, self.entry)

    @_per_routine(lambda table, d: table)  # by relative node id
    def steps(self):
        """The compiled `interp.StepTable`, shared by a routine's instances."""
        from .interp import StepTable  # interp builds on this module
        return StepTable(self)

    @_per_routine(lambda heads, d: {n + d for n in heads})
    def loop_heads(self) -> set[int]:
        """Targets n of edges m->n where n dominates m."""
        return {n for m, edges in self.succs.items() for n, _ in edges
                if self.dominators[m] >> n & 1}


@dataclass
class ProgramModel:
    """Node ids run 0..N-1 in thread, then node order, and a set of nodes
    is an int whose bit k is node k (a node mask, read with `bits`)."""
    threads: list[ThreadCfg]
    globals: dict[str, int]  # name -> initializer
    creates: list[tuple[int, int]]  # (create node id, child tid)
    joins: list[tuple[int, int]]  # (join node id, child tid)
    assertions: list[int]  # SAssert node ids
    source: SourceProgram | None = None

    def __post_init__(self):
        self._node_index = {}
        for cfg in self.threads:
            for node in cfg.nodes.values():
                self._node_index[node.id] = node
        self._names = {}
        seen: dict[tuple[int, int], int] = {}
        for cfg in self.threads:
            for nid in cfg.node_order():
                node = cfg.nodes[nid]
                key = (cfg.tid, node.line)
                count = seen.get(key, 0)
                seen[key] = count + 1
                suffix = "" if count == 0 else "_%d" % (count + 1)
                self._names[nid] = "t%d.%d%s" % (cfg.tid, node.line, suffix)

    def node(self, nid: int) -> Node:
        return self._node_index[nid]

    def thread(self, tid: int) -> ThreadCfg:
        return self.threads[tid]

    def thread_named(self, name: str) -> ThreadCfg:
        for cfg in self.threads:
            if cfg.name == name:
                return cfg
        raise KeyError(name)

    def node_name(self, nid: int) -> str:
        """Stable display name, `t<thread>.<line>` (suffixed if shared)."""
        return self._names[nid]

    def all_nodes(self):
        for cfg in self.threads:
            for nid in cfg.node_order():
                yield cfg.nodes[nid]


def is_load(node: Node) -> bool:
    return isinstance(node.stmt, SLoad)


def is_store(node: Node) -> bool:
    return isinstance(node.stmt, SStore)


def loads_of(cfg: ThreadCfg) -> list[int]:
    """All load nodes of a thread, in node-id order."""
    return [n for n in cfg.node_order() if isinstance(cfg.nodes[n].stmt, SLoad)]


# --- graph utilities ---------------------------------------------------------

def bits(mask: int):
    """Positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reachable_sets(succs: dict[int, list[Edge]]) -> dict[int, int]:
    """reachable_sets(g)[n] = mask of the nodes reachable from n via a
    nonempty path.  Iterated in reverse node order: in a lowered CFG every
    edge but a back edge, or the one from a synthetic entry, leads to a
    later node, so each pass settles all that does not wait on those."""
    plain = {n: [dst for dst, _ in edges] for n, edges in succs.items()}
    order = sorted(plain, reverse=True)
    reach = dict.fromkeys(plain, 0)
    changed = True
    while changed:
        changed = False
        for n in order:
            mask = 0
            for s in plain[n]:
                mask |= 1 << s | reach[s]
            if mask != reach[n]:
                reach[n] = mask
                changed = True
    return reach


def dominator_sets(succs: dict[int, list[Edge]], entry: int) -> dict[int, int]:
    """Iterative forward data-flow over reverse postorder; dom[n] is a
    mask that includes n."""
    plain = {n: [dst for dst, _ in edges] for n, edges in succs.items()}
    preds = {n: [] for n in plain}
    for n, ss in plain.items():
        for s in ss:
            preds[s].append(n)

    # depth-first postorder with an explicit stack: a straight-line thread
    # is a path as deep as it is long
    order = []
    seen = {entry}
    stack = [(entry, iter(plain[entry]))]
    while stack:
        n, rest = stack[-1]
        for s in rest:
            if s not in seen:
                seen.add(s)
                stack.append((s, iter(plain[s])))
                break
        else:
            stack.pop()
            order.append(n)
    rpo = list(reversed(order))

    # a node not yet in `dom` stands for the set of all nodes, -1, the
    # start of the descending iteration; in reverse postorder every node
    # after the entry has a predecessor before it
    dom = {entry: 1 << entry}
    changed = True
    while changed:
        changed = False
        for n in rpo[1:]:
            new = -1
            for p in preds[n]:
                new &= dom.get(p, -1)
            new |= 1 << n
            if new != dom.get(n):
                dom[n] = new
                changed = True
    return dom


# --- lowering ----------------------------------------------------------------

class _ThreadBuilder:
    """Lowers a routine's statements, handing out node ids in creation
    order: the entry of a fragment that made nodes is the first id it
    took, so the lowering returns only open ends."""

    def __init__(self, cfg: ThreadCfg, globals_: set[str], first_id: int):
        self.cfg = cfg
        self.globals = globals_
        self.next_id = first_id
        self.temp_count = 0

    def fresh(self) -> str:
        name = "$t%d" % self.temp_count
        self.temp_count += 1
        return name

    def new_node(self, stmt, line) -> int:
        nid = self.next_id
        self.next_id += 1
        self.cfg.nodes[nid] = Node(nid, self.cfg.tid, line, stmt)
        self.cfg.succs[nid] = []
        return nid

    def connect(self, ends, nid):
        for src, filt in ends:
            self.cfg.succs[src].append((nid, filt))

    def seq(self, ends, stmt, line):
        nid = self.new_node(stmt, line)
        self.connect(ends, nid)
        return [(nid, None)]

    def hoist(self, expr: Expr, ends, line):
        """Pull global reads and nondet picks out of an expression.

        Returns (rewritten expr over locals, open ends).  Each global
        occurrence becomes its own load node.
        """
        self.ends, self.line = ends, line
        expr = self._hoist(expr)
        return expr, self.ends

    def _hoist(self, e):
        # a method, not a closure over itself, so that no reference cycle
        # keeps the builder and its graph alive; one frame per level
        if isinstance(e, Var) and e.name in self.globals \
                or isinstance(e, Nondet):
            t = self.fresh()
            stmt = SNondet(t) if isinstance(e, Nondet) else SLoad(t, e.name)
            self.ends = self.seq(self.ends, stmt, self.line)
            return Var(t)
        if isinstance(e, UnaryOp):
            return UnaryOp(e.op, self._hoist(e.operand))
        if isinstance(e, BinOp):
            left = self._hoist(e.left)
            return BinOp(e.op, left, self._hoist(e.right))
        return e

    def lower_block(self, stmts, ends):
        """Returns the open ends after the block."""
        for s in stmts:
            ends = self.lower_stmt(s, ends)
        return ends

    def lower_stmt(self, s, ends):
        if isinstance(s, Assign):
            if isinstance(s.expr, Var) and s.expr.name in self.globals \
                    and s.target not in self.globals:
                return self.seq(ends, SLoad(s.target, s.expr.name), s.line)
            if isinstance(s.expr, Nondet) and s.target not in self.globals:
                return self.seq(ends, SNondet(s.target), s.line)
            expr, ends = self.hoist(s.expr, ends, s.line)
            if s.target not in self.globals:
                return self.seq(ends, SLocal(s.target, expr), s.line)
            if not isinstance(expr, (IntLit, BoolLit, Var)):
                t = self.fresh()
                ends = self.seq(ends, SLocal(t, expr), s.line)
                expr = Var(t)
            return self.seq(ends, SStore(s.target, expr), s.line)

        if isinstance(s, If):
            cond, ends = self.hoist(s.cond, ends, s.line)
            branch = self.new_node(SBranch(cond), s.line)
            self.connect(ends, branch)
            then_ends = self.lower_block(
                s.then_body, [(branch, ("assume", cond, True))])
            else_ends = self.lower_block(
                s.else_body, [(branch, ("assume", cond, False))])
            return then_ends + else_ends

        if isinstance(s, While):
            head = self.next_id  # the condition's first load, or the branch
            cond, ends = self.hoist(s.cond, ends, s.line)
            branch = self.new_node(SBranch(cond), s.line)
            self.connect(ends, branch)
            body_ends = self.lower_block(
                s.body, [(branch, ("assume", cond, True))])
            self.connect(body_ends, head)  # back edge to cond re-evaluation
            return [(branch, ("assume", cond, False))]

        if isinstance(s, AssertStmt):
            cond, ends = self.hoist(s.cond, ends, s.line)
            return self.seq(ends, SAssert(cond), s.line)

        if isinstance(s, ErrorStmt):
            return self.seq(ends, SAssert(BoolLit(False)), s.line)

        if isinstance(s, CreateStmt):
            return self.seq(ends, SCreate(s.routine, tuple(s.args)), s.line)

        if isinstance(s, JoinStmt):
            return self.seq(ends, SJoin(s.routine), s.line)

        raise TypeError(s)


def _check_no_global_shadowing(routine: Routine, globals_: set):
    for param in routine.params:
        if param in globals_:
            raise ModelError(
                f"routine {routine.name!r}: parameter {param!r} shadows a "
                "global")
    for s, _ in statements(routine.body):
        if isinstance(s, Assign) and s.decl and s.target in globals_:
            raise ModelError(
                f"line {s.line}: local declaration of {s.target!r} "
                "shadows a global")


def _instantiate(routine: Routine, tid, name, args, creation_site, globals_,
                 first_id) -> ThreadCfg:
    """Lower a routine to a thread whose node ids start at `first_id`."""
    _check_no_global_shadowing(routine, globals_)
    cfg = ThreadCfg(tid=tid, name=name, routine=routine.name,
                    creation_site=creation_site,
                    params=dict(zip(routine.params, args)))
    builder = _ThreadBuilder(cfg, globals_, first_id)
    ends = builder.lower_block(routine.body, [])
    cfg.exit = builder.new_node(SExit(), routine.end_line)
    builder.connect(ends, cfg.exit)
    cfg.entry = first_id  # the body's first node, or the exit
    if any(dst == cfg.entry for edges in cfg.succs.values()
           for dst, _ in edges):
        # a loop at the start of the body targets the entry; give the CFG
        # a predecessor-free entry
        nop = builder.new_node(SNop(), routine.line)
        builder.connect([(nop, None)], cfg.entry)
        cfg.entry = nop
    return cfg


def _copy(first: ThreadCfg, tid, args, creation_site, first_id) -> ThreadCfg:
    """A later instance of `first`'s routine: the same graph with node ids
    shifted to start at `first_id`, sharing statements and edge filters."""
    d = first_id - first.first_node
    cfg = ThreadCfg(tid=tid, name=first.routine, routine=first.routine,
                    entry=first.entry + d, exit=first.exit + d,
                    creation_site=creation_site,
                    params=dict(zip(first.params, args)),
                    first_instance=first)
    for n, node in first.nodes.items():
        cfg.nodes[n + d] = Node(n + d, tid, node.line, node.stmt)
        cfg.succs[n + d] = [(dst + d, filt) for dst, filt in first.succs[n]]
    return cfg


def _check_creation_shape(prog: SourceProgram):
    """Creation must be a finite tree: no routine creates itself
    (transitively) and no create site sits inside a loop."""
    edges: dict[str, set[str]] = {r.name: set() for r in prog.routines}
    for r in prog.routines:
        for s, in_loop in statements(r.body):
            if isinstance(s, CreateStmt):
                if in_loop:
                    raise CreateInLoopError(
                        f"line {s.line}: create inside a loop would make "
                        "the thread count dynamic")
                edges[r.name].add(s.routine)

    # cycle check over the routine creation graph: a depth-first search on
    # an explicit stack (its names are the trail), not one frame per link
    state: dict[str, int] = {}  # 1 while on the stack, then 2
    for r in prog.routines:
        stack = [] if r.name in state else [
            (r.name, iter(sorted(edges[r.name])))]
        state.setdefault(r.name, 1)
        while stack:
            name, succs = stack[-1]
            succ = next(succs, None)
            if succ is None:
                state[name] = 2
                stack.pop()
            elif state.get(succ) == 1:
                raise RecursiveCreateError("creation cycle: " + " -> ".join(
                    [n for n, _ in stack] + [succ]))
            elif succ not in state:
                state[succ] = 1
                stack.append((succ, iter(sorted(edges[succ]))))


def build_model(prog: SourceProgram) -> ProgramModel:
    """Instantiate one ThreadCfg per create site plus the entry thread."""
    _check_creation_shape(prog)
    globals_ = {name: init for name, _, init in prog.globals}
    threads: list[ThreadCfg] = []
    creates: list[tuple[int, int]] = []
    first: dict[str, ThreadCfg] = {}  # routine -> its first instance
    next_id = 0

    # breadth-first over create sites, in node order: deterministic tids
    todo = [(prog.entry, (), None)]  # routine, args, create site
    for name, args, site in todo:  # grows while it is walked
        routine, tid = prog.routine(name), len(threads)
        if len(args) != len(routine.params):
            raise ModelError(
                f"routine {name!r} takes {len(routine.params)} "
                f"argument(s), got {len(args)}")
        if name in first:
            cfg = _copy(first[name], tid, args, site, next_id)
        else:
            cfg = first[name] = _instantiate(routine, tid, name, args, site,
                                             set(globals_), next_id)
        next_id += len(cfg.nodes)
        threads.append(cfg)
        if site is not None:
            creates.append((site, tid))
        for nid in cfg.node_order():
            stmt = cfg.nodes[nid].stmt
            if isinstance(stmt, SCreate):
                todo.append((stmt.routine, stmt.args, nid))

    # name repeated instances "routine#k"
    total = collections.Counter(cfg.routine for cfg in threads)
    seen: dict[str, int] = {}
    for cfg in threads:
        if total[cfg.routine] > 1:
            seen[cfg.routine] = k = seen.get(cfg.routine, 0) + 1
            cfg.name = "%s#%d" % (cfg.routine, k)

    # resolve joins: FIFO against the unjoined children this thread
    # created at earlier nodes
    child_of = dict(creates)
    joins: list[tuple[int, int]] = []
    for cfg in threads:
        pending: dict[str, list[int]] = {}
        for nid in cfg.node_order():
            stmt = cfg.nodes[nid].stmt
            if isinstance(stmt, SCreate):
                pending.setdefault(stmt.routine, []).append(child_of[nid])
            elif isinstance(stmt, SJoin):
                avail = pending.get(stmt.routine)
                if not avail:
                    raise JoinWithoutCreateError(
                        f"{cfg.name}: join({stmt.routine}) has no matching "
                        "create before it in this thread")
                joins.append((nid, avail.pop(0)))

    assertions = [node.id
                  for cfg in threads
                  for node in (cfg.nodes[n] for n in cfg.node_order())
                  if isinstance(node.stmt, SAssert)]

    model = ProgramModel(threads, globals_, creates, joins, assertions, prog)
    _check_normalization(model)
    return model


def _check_normalization(model: ProgramModel):
    globals_ = set(model.globals)
    for cfg in model.threads:
        if cfg.first_instance is not None:
            continue  # a copy of a checked thread
        for nid in cfg.node_order():
            s = cfg.nodes[nid].stmt
            accesses = 0
            if isinstance(s, SLoad):
                accesses = 1
            elif isinstance(s, SStore):
                accesses = 1 + len(expr_vars(s.expr) & globals_)
            elif isinstance(s, SLocal):
                accesses = len(expr_vars(s.expr) & globals_)
            elif isinstance(s, (SBranch, SAssert)):
                accesses = len(expr_vars(s.cond) & globals_)
            if accesses > 1 or (accesses == 1
                                and not isinstance(s, (SLoad, SStore))):
                raise ModelError(
                    f"node {model.node_name(nid)} breaks normalization: {s}")
        if cfg.preds[cfg.entry]:
            raise ModelError(f"{cfg.name}: entry node has predecessors")
        missing = [n for n in cfg.node_order()
                   if n != cfg.entry and not cfg.reach[cfg.entry] >> n & 1]
        if missing:
            raise ModelError(f"{cfg.name}: unreachable nodes {missing}")
        for nid, edges in cfg.succs.items():
            want = 2 if isinstance(cfg.nodes[nid].stmt, SBranch) else 1
            if isinstance(cfg.nodes[nid].stmt, SExit):
                want = 0
            if len(edges) != want:
                raise ModelError(
                    f"node {model.node_name(nid)}: arity {len(edges)}, "
                    f"expected {want}")

