"""Program dependence graph, property slicing, pruning and clustering.

The graph spans all threads: control dependence stays inside a thread,
data dependence covers intra-thread def-use over locals plus every
store-to-load pair on a matching global (cross-thread or not; slicing
must over-approximate).  Backward slices from the assertion nodes drive
two optimizations: off-slice statements become identity transfers and
their loads drop out of combination generation, and the connected
components of the on-slice subgraph split each thread's loads into
independently explorable clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import expr_vars
from .cfg import (
    ProgramModel, SAssert, SBranch, SCreate, SExit, SJoin, SLoad, SLocal,
    SNondet, SNop, SStore, ThreadCfg, bits, dominator_sets, is_load,
    is_store, loads_of,
)


@dataclass
class DependenceGraph:
    control: dict[int, set[int]] = field(default_factory=dict)  # node -> deps on it
    data: dict[int, set[int]] = field(default_factory=dict)

    def add(self, kind: str, src: int, dst: int):
        table = self.control if kind == "cd" else self.data
        table.setdefault(src, set()).add(dst)

    def edges(self):
        for src, dsts in sorted(self.control.items()):
            for dst in sorted(dsts):
                yield ("cd", src, dst)
        for src, dsts in sorted(self.data.items()):
            for dst in sorted(dsts):
                yield ("dd", src, dst)


@dataclass
class SlicePlan:
    per_assertion: dict[int, set[int]]
    union: set[int]
    off_slice: set[int]


@dataclass
class ClusterPlan:
    """Per-thread partition of the on-slice loads."""
    by_thread: dict[int, list[list[int]]]

    def total_clusters(self) -> int:
        return sum(len(groups) for groups in self.by_thread.values())


def _post_dominators(cfg: ThreadCfg):
    """Post-dominator masks over the reversed CFG with a virtual exit, one
    id past the thread's last node.  Nodes that cannot reach the exit
    (infinite loops) also feed the virtual exit so the computation stays
    total."""
    virtual = max(cfg.nodes) + 1
    rsuccs = {n: [] for n in cfg.nodes}
    rsuccs[virtual] = [(cfg.exit, None)]
    for n, edges in cfg.succs.items():
        for dst, _ in edges:
            rsuccs[dst].append((n, None))
    for n in cfg.nodes:
        if n != cfg.exit and not cfg.reach[n] >> cfg.exit & 1:
            rsuccs[virtual].append((n, None))  # sink without an exit path
    return dominator_sets(rsuccs, virtual)


def _control_dependence(cfg: ThreadCfg, graph: DependenceGraph):
    """n depends on branch m when n post-dominates one successor of m
    but not m itself."""
    pdom = _post_dominators(cfg)
    for m in cfg.node_order():
        if not isinstance(cfg.nodes[m].stmt, SBranch):
            continue
        for succ, _ in cfg.succs[m]:
            for n in bits(pdom[succ] & ~pdom[m]):
                graph.add("cd", m, n)


def _defs_and_uses(node):
    stmt = node.stmt
    if isinstance(stmt, SLocal):
        return {stmt.target}, expr_vars(stmt.expr)
    if isinstance(stmt, SLoad):
        return {stmt.target}, set()
    if isinstance(stmt, SNondet):
        return {stmt.target}, set()
    if isinstance(stmt, SStore):
        return set(), expr_vars(stmt.expr)
    if isinstance(stmt, (SBranch, SAssert)):
        return set(), expr_vars(stmt.cond)
    return set(), set()


def _data_dependence(cfg: ThreadCfg, graph: DependenceGraph):
    """Reaching definitions of locals, flow-sensitive per thread, as
    gen/kill masks over the definition sites.  Each thread parameter is
    defined at its own virtual site past the thread's last node, reported
    as the entry node."""
    nodes = cfg.node_order()
    last = max(cfg.nodes)
    sites = {p: 1 << k for k, p in enumerate(cfg.params, last + 1)}
    params = sum(sites.values())
    defs, uses = {}, {}
    for n in nodes:
        defs[n], uses[n] = _defs_and_uses(cfg.nodes[n])
        for var in defs[n]:
            sites[var] = sites.get(var, 0) | 1 << n
    # a definition kills every site of its local, its own included (a
    # node defines at most one)
    kill = {n: sum(sites[var] for var in defs[n]) for n in nodes}

    preds = cfg.preds()
    reaching = dict.fromkeys(nodes, 0)  # sites reaching each node
    out = dict.fromkeys(nodes, 0)
    changed = True
    while changed:
        changed = False
        for n in nodes:
            incoming = params if n == cfg.entry else 0
            for p in preds[n]:
                incoming |= out[p]
            reaching[n] = incoming
            new = incoming & ~kill[n] | (1 << n if defs[n] else 0)
            if new != out[n]:
                out[n] = new
                changed = True

    for n in nodes:
        for var in uses[n]:
            for site in bits(reaching[n] & sites.get(var, 0)):
                graph.add("dd", cfg.entry if site > last else site, n)


def build_pdg(model: ProgramModel) -> DependenceGraph:
    graph = DependenceGraph()
    for cfg in model.threads:
        first = cfg.first_instance
        if first is None:
            _control_dependence(cfg, graph)
            _data_dependence(cfg, graph)
            continue
        # a later instance shifts its routine's first instance's edges,
        # which are all the graph holds for those nodes so far
        d = cfg.first_node - first.first_node
        for table in (graph.control, graph.data):
            for n in first.nodes:
                if n in table:
                    table[n + d] = {dst + d for dst in table[n]}
    # global flows: any store to v may feed any load of v
    stores = {}
    for node in model.all_nodes():
        if is_store(node):
            stores.setdefault(node.stmt.var, []).append(node.id)
    for node in model.all_nodes():
        if is_load(node):
            for s in stores.get(node.stmt.var, ()):
                graph.add("dd", s, node.id)
    # a created thread's entry (and so its parameters) depends on the
    # create site that spawns and binds it
    for create_node, child_tid in model.creates:
        graph.add("dd", create_node, model.thread(child_tid).entry)
    return graph


def backward_slices(graph: DependenceGraph, model: ProgramModel) -> SlicePlan:
    """Reverse-reachability closure from every assertion node."""
    rev: dict[int, set[int]] = {}
    for _, src, dst in graph.edges():
        rev.setdefault(dst, set()).add(src)

    per = {}
    for prop in model.assertions:
        seen = {prop}
        stack = [prop]
        while stack:
            n = stack.pop()
            for p in rev.get(n, ()):
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        per[prop] = seen
    union = set().union(*per.values()) if per else set()
    all_ids = {node.id for node in model.all_nodes()}
    return SlicePlan(per, union, all_ids - union)


def apply_pruning(slices: SlicePlan, model: ProgramModel) -> frozenset:
    """The identity nodes: every off-slice statement but the structural
    ones.  The interpreter passes their state through, their loads leave
    combination generation and their stores publish no interference."""
    return frozenset(
        node.id for node in model.all_nodes()
        if node.id in slices.off_slice
        and not isinstance(node.stmt, (SCreate, SJoin, SExit, SNop)))


def cluster(graph: DependenceGraph, slices: SlicePlan,
            model: ProgramModel) -> ClusterPlan:
    """Connected components of the on-slice subgraph (over both edge
    kinds, undirected); each component's loads in one thread form a
    cluster whose combinations can be explored independently."""
    adjacency: dict[int, set[int]] = {n: set() for n in slices.union}
    for _, src, dst in graph.edges():
        if src in slices.union and dst in slices.union:
            adjacency[src].add(dst)
            adjacency[dst].add(src)

    component: dict[int, int] = {}
    next_id = 0
    for n in sorted(slices.union):
        if n in component:
            continue
        stack = [n]
        component[n] = next_id
        while stack:
            cur = stack.pop()
            for other in adjacency[cur]:
                if other not in component:
                    component[other] = next_id
                    stack.append(other)
        next_id += 1

    by_thread: dict[int, list[list[int]]] = {}
    for cfg in model.threads:
        groups: dict[int, list[int]] = {}
        for l in loads_of(cfg):
            if l in slices.union:
                groups.setdefault(component[l], []).append(l)
        by_thread[cfg.tid] = [groups[c] for c in sorted(groups)]
    return ClusterPlan(by_thread)


def dot_dump(graph: DependenceGraph, model: ProgramModel,
             slices: SlicePlan | None = None) -> str:
    """DOT-compatible rendering; off-slice nodes are drawn dotted."""
    lines = ["digraph pdg {"]
    for node in model.all_nodes():
        style = ""
        if slices and node.id in slices.off_slice:
            style = " style=dotted"
        lines.append('  n%d [label="%s"%s];'
                     % (node.id, model.node_name(node.id), style))
    for kind, src, dst in graph.edges():
        lines.append('  n%d -> n%d [label="%s"];' % (src, dst, kind))
    lines.append("}")
    return "\n".join(lines)
