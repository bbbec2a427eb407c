"""Lowering from the MTIR AST to per-thread control-flow graphs.

Every statement is normalized so that a shared (global) memory access is
an isolated load or store node: loads pull a global into a fresh local,
stores write an expression over locals only.  This makes the load/store
nodes the unit of interference for the whole analysis.

Each routine is lowered once, at its first instance.  A later instance
is that graph with node ids shifted past the threads before it.

This module owns every per-routine graph fact, each a cached property
of `ThreadCfg` by node id: reachability, dominators, the S1 and PO
masks the ordering rows read (`facts`), control and data dependence
(`pdg`), and the locals read before assignment (`interp`, `analysis`).
A routine's first instance solves each once, and a later instance
shifts the first instance's masks (`_per_routine`), or shifts them
straight into a caller's table (`ThreadCfg.fill`).  A routine without
a branch is one path (`ThreadCfg.path`), and its facts come from that
walk; only a branching routine runs `flow_masks` and the solvers built
on it.  No other module reads the walk or calls a solver.

IR statements are immutable records (see `record`): equal, and equal in
hash, when of one class with equal fields, never across classes.  Nodes,
thread graphs and models compare by value, and do not hash; a graph's
`first_instance` is not part of its value.
"""

from __future__ import annotations

import collections

from .ast import (
    Assign, AssertStmt, BinOp, BoolLit, CreateStmt, ErrorStmt, Expr, If,
    IntLit, JoinStmt, Nondet, Routine, SourceProgram, UnaryOp, Var, While,
    expr_vars, statements,
)
from .errors import (
    CreateInLoopError, JoinWithoutCreateError, ModelError,
    RecursiveCreateError,
)
from .record import Record, Value, cached_property, set_field


# --- normalized statement IR -------------------------------------------------

class SLocal(Value):
    __slots__ = ("target", "expr")

    def __init__(self, target: str, expr: Expr):
        set_field(self, "target", target)
        set_field(self, "expr", expr)


class SLoad(Value):
    __slots__ = ("target", "var")

    def __init__(self, target: str, var: str):  # var: global being read
        set_field(self, "target", target)
        set_field(self, "var", var)


class SStore(Value):
    __slots__ = ("var", "expr")

    def __init__(self, var: str, expr: Expr):
        set_field(self, "var", var)  # global being written
        set_field(self, "expr", expr)  # over locals and constants only


class SBranch(Value):
    __slots__ = ("cond",)

    def __init__(self, cond: Expr):
        set_field(self, "cond", cond)  # over locals; filters on the out edges


class SAssert(Value):
    __slots__ = ("cond",)

    def __init__(self, cond: Expr):
        set_field(self, "cond", cond)  # over locals; judged, never assumed


class SNondet(Value):
    __slots__ = ("target",)

    def __init__(self, target: str):
        set_field(self, "target", target)


class SCreate(Value):
    __slots__ = ("routine", "args")

    def __init__(self, routine: str, args: tuple[int, ...]):
        set_field(self, "routine", routine)
        set_field(self, "args", args)


class SJoin(Value):
    __slots__ = ("routine",)

    def __init__(self, routine: str):
        set_field(self, "routine", routine)


class SExit(Value):
    __slots__ = ()


class SNop(Value):
    """Synthetic entry placeholder, used only when the first real node
    would otherwise receive a back edge."""
    __slots__ = ()


class Node(Record):
    __slots__ = ("id", "tid", "line", "stmt")

    def __init__(self, id: int, tid: int, line: int, stmt):
        self.id, self.tid, self.line, self.stmt = id, tid, line, stmt


# An edge filter is None (unconditional) or ("assume", cond, polarity).
Edge = tuple[int, object]


class _per_routine(cached_property):
    """A cached graph fact mapping nodes to node masks, which the decorated
    method computes on a routine's first instance; a later instance
    shifts the first instance's."""

    def __get__(self, cfg, cls=None):
        if cfg is None:
            return self
        if cfg.first_instance is None:
            value = self.compute(cfg)
        else:
            value = {}
            cfg.fill(self.name, value)
        cfg.__dict__[self.name] = value
        return value


class ThreadCfg(Record):
    __slots__ = ("tid", "name", "routine", "nodes", "succs", "entry", "exit",
                 "creation_site", "params", "__dict__", "__weakref__")

    def __init__(self, tid: int, name: str, routine: str, entry: int = -1,
                 exit: int = -1, creation_site: int | None = None,
                 params: dict[str, int] | None = None,
                 first_instance: ThreadCfg | None = None):
        # `name` is the routine name, "#k"-suffixed for repeated instances
        self.tid, self.name, self.routine = tid, name, routine
        self.nodes, self.succs = {}, {}  # by node id
        self.entry, self.exit = entry, exit
        self.creation_site = creation_site  # node id in the parent thread
        self.params = {} if params is None else params
        # the routine's first instance if not this one, the same graph up to
        # shifted node ids; no field, it is kept with the cached properties
        self.first_instance = first_instance

    def node_order(self) -> list[int]:
        return sorted(self.nodes)

    @cached_property
    def first_node(self) -> int:
        """Smallest node id; a thread's ids are consecutive."""
        return min(self.nodes)

    @cached_property
    def mask(self) -> int:
        """Mask of the thread's nodes."""
        return ((1 << len(self.nodes)) - 1) << self.first_node

    def fill(self, fact: str, table: dict) -> None:
        """Put the per-routine graph fact named `fact` into `table`, node ->
        mask.  A later instance that has not cached its own shifts its
        first instance's masks straight in, and caches nothing."""
        first = self.first_instance
        if first is None or fact in self.__dict__:
            table.update(getattr(self, fact))
            return
        d = self.first_node - first.first_node
        for n, mask in getattr(first, fact).items():
            table[n + d] = mask << d

    # the graph is fixed once `build_model` returns, so each mask fact
    # below is solved once per routine, on its first instance

    @cached_property
    def path(self) -> list[int] | None:
        """The nodes in walk order if the graph is one path from the entry
        through every node, else None: a node has two out edges, or the
        walk goes round a cycle."""
        walk = [self.entry]
        while len(self.succs[walk[-1]]) == 1 and len(walk) <= len(self.nodes):
            walk.append(self.succs[walk[-1]][0][0])
        return walk if len(walk) == len(self.nodes) \
            and not self.succs[walk[-1]] else None

    @_per_routine
    def reach(self) -> dict[int, int]:
        """Mask of the nodes reachable from each node via a nonempty path."""
        if self.path is None:
            return reachable_sets(self.succs)
        reach, after = {}, 0
        for n in reversed(self.path):
            reach[n], after = after, after | 1 << n
        return reach

    @_per_routine
    def dominators(self) -> dict[int, int]:
        """Dominator masks from the entry; each includes its own node."""
        return dominator_sets(self.succs, self.entry, self.node_order())

    @_per_routine
    def po(self) -> dict[int, int]:
        """Rule PO's masks: what each node reaches, less the nodes on a
        cycle with it.  A node m that n reaches reaches n back exactly
        when n is on a cycle and both reach the same nodes."""
        reach = self.reach
        if self.path is not None:
            return reach
        alike: dict = {}
        for n in self.nodes:
            alike[reach[n]] = alike.get(reach[n], 0) | 1 << n
        return {n: reach[n] & ~alike[reach[n]] if reach[n] >> n & 1
                else reach[n] for n in self.nodes}

    @_per_routine
    def s1(self) -> dict[int, int]:
        """Rule S1's masks: what each node dominates, less itself and the
        nodes on a cycle with it.  A node reaches what it dominates, so
        that is its `po` mask cut to what it dominates; on a path, all
        of it."""
        if self.path is not None:
            return self.po
        # the strict dominators of n are the dominators of its immediate
        # dominator, so, deepest first, each node adds its mask to that one's
        dom, po = self.dominators, self.po
        owner = {mask: n for n, mask in dom.items()}
        below = {n: 1 << n for n in dom}
        for n in sorted(dom, key=lambda n: -dom[n].bit_count()):
            if n != self.entry:
                below[owner[dom[n] ^ 1 << n]] |= below[n]
        return {n: below[n] & po[n] for n in self.nodes}

    @_per_routine
    def control(self) -> dict[int, int]:
        """Each node's mask of the branches it is control dependent on: n
        depends on branch m when n post-dominates one successor of m but
        not m itself (Ferrante, Ottenstein & Warren, TOPLAS 1987).  A
        routine without a branch has none; nodes with none are left out."""
        branches = [m for m in self.node_order()
                    if self.nodes[m].stmt.__class__ is SBranch]
        control: dict = {}
        pdom = _post_dominators(self) if branches else None
        for m in branches:
            for succ, _ in self.succs[m]:
                for n in bits(pdom[succ] & ~pdom[m]):
                    control[n] = control.get(n, 0) | 1 << m
        return control

    @_per_routine
    def data(self) -> dict[int, int]:
        """Each node's mask of the nodes whose definitions of locals it
        uses, the entry for a parameter's; nodes with none are left out."""
        return self._def_use[0]

    @cached_property
    def unassigned_locals(self) -> tuple[str, ...]:
        """The locals some path from the entry reads before assigning,
        parameters aside, in name order: each reads 0."""
        return (self.first_instance or self)._def_use[1]

    @cached_property
    def _def_use(self):
        """`data` and `unassigned_locals` of a first instance, from one
        reaching-definitions solve over the definition sites of its
        locals: each node that assigns one, and each local's virtual
        definition at the entry.  A use reached by a parameter's virtual
        definition depends on the entry, and one reached by another
        local's reads it unassigned."""
        nodes = self.node_order()
        defs_uses = [defs_and_uses(self.nodes[n].stmt) for n in nodes]
        data, unassigned = {}, set()
        if self.path is not None:
            # a use reads the last definition of its local before it, the
            # virtual one if the walk has not yet met another
            last = dict.fromkeys(self.params, 1 << self.entry)
            for n in self.path:
                defs, uses = defs_uses[n - nodes[0]]
                used = 0
                for var in uses:
                    if var in last:
                        used |= last[var]
                    else:
                        unassigned.add(var)
                if used:
                    data[n] = used
                for var in defs:
                    last[var] = 1 << n
            return data, tuple(sorted(unassigned))
        # as gen/kill masks: the virtual sites lie past the last node, and a
        # definition kills every site of its local, its own included
        sites = dict.fromkeys(self.params, 0)  # each local's sites
        gen, kill = dict.fromkeys(nodes, 0), dict.fromkeys(nodes, 0)
        for n, (defs, uses) in zip(nodes, defs_uses):
            for var in uses:
                sites.setdefault(var, 0)
            for var in defs:
                gen[n] = 1 << n
                sites[var] = sites.get(var, 0) | gen[n]
        past = nodes[-1] + 1
        for k, var in enumerate(sites):
            sites[var] |= 1 << past + k
        for n, (defs, _) in zip(nodes, defs_uses):
            for var in defs:  # a node defines at most one
                kill[n] = sites[var]
        params = (1 << past + len(self.params)) - (1 << past)
        virtual = (1 << past + len(sites)) - (1 << past)
        into = flow_masks(self.succs, nodes,
                          {**dict.fromkeys(nodes, 0), self.entry: virtual},
                          gen, kill)
        unset = virtual & ~params  # the other locals' virtual sites
        for n, (_, uses) in zip(nodes, defs_uses):
            used = 0
            for var in uses:
                reached = into[n] & sites[var]
                if reached & unset:
                    unassigned.add(var)
                used |= reached
            if used & params:
                used |= 1 << self.entry
            if used & ~virtual:
                data[n] = used & ~virtual
        return data, tuple(sorted(unassigned))


class ProgramModel(Record):
    """Node ids run 0..N-1 in thread, then node order, and a set of nodes
    is an int whose bit k is node k (a node mask, read with `bits`).
    Each global's virtual initial store, named `init:<var>`, takes the
    next id in declaration order (`init_nodes`); it is no thread's node.
    `stores` and `loads` map each global to the mask of its (real) store
    nodes and of its load nodes, and `structural` is the mask of the
    create, join, exit and nop nodes."""
    __slots__ = ("threads", "globals", "creates", "joins", "assertions",
                 "source", "__dict__", "__weakref__")

    def __init__(self, threads: list[ThreadCfg],
                 globals: dict[str, int],  # name -> initializer
                 creates: list[tuple[int, int]],  # (create node id, child tid)
                 joins: list[tuple[int, int]],  # (join node id, child tid)
                 assertions: list[int],  # SAssert node ids
                 source: SourceProgram | None = None):
        self.threads, self.globals, self.source = threads, globals, source
        self.creates, self.joins, self.assertions = creates, joins, assertions
        self._node_index = {node.id: node for cfg in threads
                            for node in cfg.nodes.values()}
        self.init_nodes = {var: nid for nid, var in
                           enumerate(self.globals, len(self._node_index))}
        self.stores = dict.fromkeys(self.globals, 0)
        self.loads = dict.fromkeys(self.globals, 0)
        self.structural = 0
        for nid, node in self._node_index.items():
            kind = node.stmt.__class__
            if kind is SStore:
                self.stores[node.stmt.var] |= 1 << nid
            elif kind is SLoad:
                self.loads[node.stmt.var] |= 1 << nid
            elif kind in (SCreate, SJoin, SExit, SNop):
                self.structural |= 1 << nid

    @cached_property
    def _names(self) -> dict[int, str]:
        """Every node's display name; only dumps and messages read one."""
        names = {}
        seen: dict[tuple[int, int], int] = {}
        for cfg in self.threads:
            for nid in cfg.node_order():
                key = (cfg.tid, cfg.nodes[nid].line)
                count = seen.get(key, 0)
                seen[key] = count + 1
                suffix = "" if count == 0 else "_%d" % (count + 1)
                names[nid] = "t%d.%d%s" % (key + (suffix,))
        for var, nid in self.init_nodes.items():
            names[nid] = "init:%s" % var
        return names

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
        """Stable display name, `t<thread>.<line>` (suffixed if shared),
        or `init:<var>`."""
        return self._names[nid]

    def all_nodes(self):
        for cfg in self.threads:
            for nid in cfg.node_order():
                yield cfg.nodes[nid]


def loads_of(cfg: ThreadCfg) -> list[int]:
    """All load nodes of a thread, in node-id order."""
    return [n for n in cfg.node_order() if isinstance(cfg.nodes[n].stmt, SLoad)]


_NO_LOCALS = frozenset()


def defs_and_uses(stmt) -> tuple[set[str], set[str]]:
    """The locals a statement assigns and those it reads, read-only (an
    empty one is shared); a normalized one reads no global in an expression."""
    if isinstance(stmt, SLocal):
        return {stmt.target}, expr_vars(stmt.expr) or _NO_LOCALS
    if isinstance(stmt, (SLoad, SNondet)):
        return {stmt.target}, _NO_LOCALS
    if isinstance(stmt, SStore):
        return _NO_LOCALS, expr_vars(stmt.expr) or _NO_LOCALS
    if isinstance(stmt, (SBranch, SAssert)):
        return _NO_LOCALS, expr_vars(stmt.cond) or _NO_LOCALS
    return _NO_LOCALS, _NO_LOCALS


# --- graph utilities ---------------------------------------------------------

def bits(mask: int):
    """Positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def flow_masks(succs, order, seed, gen, kill):
    """The least masks `into`, at least `seed`, with `into[m]` holding
    `into[n] & ~kill[n] | gen[n]` on every edge n -> m: a monotone
    bit-vector data-flow problem (Kildall, POPL 1973), solved by passes
    over the nodes in `order` until one grows nothing.  The masks do not
    depend on `order`, the number of passes does: a pass settles each
    node whose in edges all come from nodes before it.  `succs[n]` lists
    n's out edges as `(target, filter)` pairs, filters ignored; `seed`,
    `gen` and `kill` are indexed like it, lists or dicts alike."""
    into = seed.copy()
    changed = True
    while changed:
        changed = False
        for n in order:
            out = into[n] & ~kill[n] | gen[n]
            for m, _ in succs[n]:
                if out & ~into[m]:
                    into[m] |= out
                    changed = True
    return into


def reachable_sets(succs: dict[int, list[Edge]]) -> dict[int, int]:
    """reachable_sets(g)[n] = mask of the nodes reachable from n via a
    nonempty path: each node's bit flows back along its in edges, in
    reverse node order.  In a lowered CFG every edge but a back edge, or
    the one from a synthetic entry, leads to a later node, so each pass
    settles all that does not wait on those."""
    back = {n: [] for n in succs}
    for n, edges in succs.items():
        for dst, _ in edges:
            back[dst].append((n, None))
    none = dict.fromkeys(succs, 0)
    return flow_masks(back, sorted(succs, reverse=True), none,
                      {n: 1 << n for n in succs}, none)


def dominator_sets(succs: dict[int, list[Edge]], entry: int,
                   order) -> dict[int, int]:
    """dom[n] is a mask of the nodes on every path from `entry` to n, n
    included, solved in `order` as its complement: the nodes some path
    to n avoids before n, all of them at the entry, each node's own bit
    removed on its out edges."""
    kill = {n: 1 << n for n in succs}
    every = sum(kill.values())
    none = dict.fromkeys(succs, 0)
    avoid = flow_masks(succs, order, {**none, entry: every}, none, kill)
    return {n: every & ~avoid[n] | kill[n] for n in succs}


def _post_dominators(cfg: ThreadCfg) -> dict[int, int]:
    """Post-dominator masks over the reversed CFG with a virtual exit, one
    id past the thread's last node.  Nodes that cannot reach the exit
    (infinite loops) also feed the virtual exit so the computation stays
    total."""
    virtual = max(cfg.nodes) + 1
    rsuccs = {n: [] for n in cfg.nodes}
    rsuccs[virtual] = [(n, None) for n in cfg.nodes
                       if n == cfg.exit or not cfg.reach[n] >> cfg.exit & 1]
    for n, edges in cfg.succs.items():
        for dst, _ in edges:
            rsuccs[dst].append((n, None))
    return dominator_sets(rsuccs, virtual, sorted(rsuccs, reverse=True))


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


def _check_no_global_shadowing(routine: Routine, globals_: dict,
                               decl: Assign | None):
    """`decl` is the routine's first local declaration of a global."""
    for param in routine.params:
        if param in globals_:
            raise ModelError(
                f"routine {routine.name!r}: parameter {param!r} shadows a "
                "global")
    if decl is not None:
        raise ModelError(
            f"line {decl.line}: local declaration of {decl.target!r} "
            "shadows a global")


def _instantiate(routine: Routine, tid, name, args, creation_site, globals_,
                 first_id) -> ThreadCfg:
    """Lower a routine to a thread whose node ids start at `first_id`."""
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


def _check_creation_shape(prog: SourceProgram, globals_: dict) -> dict:
    """Creation must be a finite tree: no routine creates itself
    (transitively) and no create site sits inside a loop.  Returns each
    routine's first local declaration of a global, an error if lowered."""
    edges: dict[str, set[str]] = {r.name: set() for r in prog.routines}
    shadowing: dict[str, Assign] = {}
    for r in prog.routines:
        for s, in_loop in statements(r.body):
            if isinstance(s, CreateStmt):
                if in_loop:
                    raise CreateInLoopError(
                        f"line {s.line}: create inside a loop would make "
                        "the thread count dynamic")
                edges[r.name].add(s.routine)
            elif isinstance(s, Assign) and s.decl and s.target in globals_:
                shadowing.setdefault(r.name, s)

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
    return shadowing


def build_model(prog: SourceProgram) -> ProgramModel:
    """Instantiate one ThreadCfg per create site plus the entry thread."""
    globals_ = {name: init for name, _, init in prog.globals}
    shadowing = _check_creation_shape(prog, globals_)
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
            _check_no_global_shadowing(routine, globals_,
                                       shadowing.get(name))
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
    # created at earlier nodes; and list the assertions
    child_of = dict(creates)
    joins: list[tuple[int, int]] = []
    assertions: list[int] = []
    for cfg in threads:
        pending: dict[str, list[int]] = {}
        for nid in cfg.node_order():
            stmt = cfg.nodes[nid].stmt
            if isinstance(stmt, SAssert):
                assertions.append(nid)
            elif isinstance(stmt, SCreate):
                pending.setdefault(stmt.routine, []).append(child_of[nid])
            elif isinstance(stmt, SJoin):
                avail = pending.get(stmt.routine)
                if not avail:
                    raise JoinWithoutCreateError(
                        f"line {cfg.nodes[nid].line}: {cfg.name}: "
                        f"join({stmt.routine}) has no matching create "
                        "before it in this thread")
                joins.append((nid, avail.pop(0)))

    model = ProgramModel(threads, globals_, creates, joins, assertions, prog)
    _check_normalization(model)
    return model


def _check_normalization(model: ProgramModel):
    globals_ = set(model.globals)
    arity = {SBranch: 2, SExit: 0}  # out edges; any other statement has one
    for cfg in model.threads:
        if cfg.first_instance is not None:
            continue  # a copy of a checked thread
        # a load or a store is a global's only access: no expression reads one
        for nid, node in cfg.nodes.items():
            s = node.stmt
            expr = s.expr if isinstance(s, (SLocal, SStore)) \
                else s.cond if isinstance(s, (SBranch, SAssert)) else None
            if expr is not None and expr_vars(expr) & globals_:
                raise ModelError(
                    f"node {model.node_name(nid)} breaks normalization: {s}")
        reached = cfg.reach[cfg.entry]
        if reached >> cfg.entry & 1:
            raise ModelError(f"{cfg.name}: entry node has predecessors")
        missing = [n for n in cfg.node_order()
                   if n != cfg.entry and not reached >> n & 1]
        if missing:
            raise ModelError(f"{cfg.name}: unreachable nodes {missing}")
        for nid, edges in cfg.succs.items():
            want = arity.get(cfg.nodes[nid].stmt.__class__, 1)
            if len(edges) != want:
                raise ModelError(
                    f"node {model.node_name(nid)}: arity {len(edges)}, "
                    f"expected {want}")

