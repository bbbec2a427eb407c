"""Program dependence graph, property slicing, pruning and clustering.

The graph spans all threads and is linear in the program: control and
def-use dependence over locals stay inside a thread, a create site feeds
its child's entry, and global flow goes through one hub per variable,
the lists `stores[v]` and `loads[v]`: any store to v may feed any load
of v, cross-thread or not, as slicing must over-approximate.  One
backward pass from all the assertions gives the union of their slices,
a set of nodes; the first load of v to enter it brings in v's stores.
A union-find over the on-slice nodes splits each thread's loads into
independently explorable clusters.  On chain/400 (2,001 nodes, 160,800
store-load pairs) the four PDG stages take 0.03 s, against 0.37 s with
an edge per pair, and `fso` runs within 5% of `fsc`.
"""

from __future__ import annotations

from .cfg import (
    ProgramModel, SBranch, SCreate, SExit, SJoin, SLoad, SNop, ThreadCfg,
    bits, defs_and_uses, dominator_sets, flow_masks, is_load, loads_of,
)
from .record import Record


class DependenceGraph(Record):
    """`control` and `data` map a node to the nodes that depend on it;
    `stores` and `loads` are the hubs, by variable."""
    __slots__ = ("control", "data", "stores", "loads")

    def __init__(self):
        self.control, self.data = {}, {}
        self.stores, self.loads = {}, {}

    def add(self, kind: str, src: int, dst: int):
        table = self.control if kind == "cd" else self.data
        table.setdefault(src, set()).add(dst)

    def edges(self):
        """Every edge, the store-to-load pairs spelled out, sorted by kind,
        then source, then target."""
        flow = {s: loads for var, loads in self.loads.items()
                for s in self.stores.get(var, ())}
        for src, dsts in sorted(self.control.items()):
            for dst in sorted(dsts):
                yield ("cd", src, dst)
        for src in sorted(self.data.keys() | flow.keys()):
            for dst in sorted({*self.data.get(src, ()), *flow.get(src, ())}):
                yield ("dd", src, dst)


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
    return dominator_sets(rsuccs, virtual, sorted(rsuccs, reverse=True))


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


def _data_dependence(cfg: ThreadCfg, graph: DependenceGraph):
    """Reaching definitions of locals, flow-sensitive per thread, as
    gen/kill masks over the definition sites.  Each thread parameter is
    defined at its own virtual site past the thread's last node, reported
    as the entry node."""
    nodes = cfg.node_order()
    last = max(cfg.nodes)
    sites = {p: 1 << k for k, p in enumerate(cfg.params, last + 1)}
    params = sum(sites.values())
    defs, uses, gen = {}, {}, {}
    for n in nodes:
        defs[n], uses[n] = defs_and_uses(cfg.nodes[n].stmt)
        gen[n] = 1 << n if defs[n] else 0
        for var in defs[n]:
            sites[var] = sites.get(var, 0) | gen[n]
    # a definition kills every site of its local, its own included (a
    # node defines at most one)
    kill = {n: sum(sites[var] for var in defs[n]) for n in nodes}
    reaching = flow_masks(  # the sites reaching each node
        cfg.succs, nodes, {**dict.fromkeys(nodes, 0), cfg.entry: params},
        gen, kill)

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
    graph.stores = {var: list(bits(mask))
                    for var, mask in model.stores.items() if mask}
    for node in model.all_nodes():
        if is_load(node):
            graph.loads.setdefault(node.stmt.var, []).append(node.id)
    # a created thread's entry (and so its parameters) depends on the
    # create site that spawns and binds it
    for create_node, child_tid in model.creates:
        graph.add("dd", create_node, model.thread(child_tid).entry)
    return graph


def backward_slices(graph: DependenceGraph,
                    model: ProgramModel) -> frozenset:
    """The union of the assertions' backward slices, in one backward pass
    from all of them; the first load of a variable to enter brings in
    the variable's stores."""
    rev: dict[int, list[int]] = {}
    for table in (graph.control, graph.data):
        for src, dsts in table.items():
            for dst in dsts:
                rev.setdefault(dst, []).append(src)
    seen = set(model.assertions)
    stack = list(seen)
    hubs = dict(graph.stores)  # the hubs no load has entered yet
    while stack:
        n = stack.pop()
        preds = rev.get(n, [])
        stmt = model.node(n).stmt
        if isinstance(stmt, SLoad):
            preds = preds + hubs.pop(stmt.var, [])
        for p in preds:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return frozenset(seen)


def apply_pruning(on_slice: frozenset, model: ProgramModel) -> frozenset:
    """The identity nodes: every off-slice statement but the structural
    ones.  The interpreter passes their state through, their loads leave
    combination generation and their stores publish no interference."""
    return frozenset(
        node.id for node in model.all_nodes()
        if node.id not in on_slice
        and not isinstance(node.stmt, (SCreate, SJoin, SExit, SNop)))


def cluster(graph: DependenceGraph, on_slice: frozenset,
            model: ProgramModel) -> dict[int, list[list[int]]]:
    """tid -> the thread's on-slice loads grouped by the connected
    components of the on-slice subgraph (undirected), whose union-find
    roots are their smallest nodes, in root order.  A hub joins its
    stores and on-slice loads if it has both."""
    root = {n: n for n in on_slice}

    def find(n):
        while root[n] != n:
            root[n] = root[root[n]]  # path halving
            n = root[n]
        return n

    def union(a, b):
        a, b = find(a), find(b)
        root[max(a, b)] = min(a, b)

    for table in (graph.control, graph.data):
        for src, dsts in table.items():
            for dst in dsts:
                if dst in on_slice:  # and so is src
                    union(src, dst)
    for var, loads in graph.loads.items():
        stores = graph.stores.get(var, [])
        on = [l for l in loads if l in on_slice]
        if stores and on:
            for n in on + stores:
                union(stores[0], n)
    plan = {}
    for cfg in model.threads:
        groups: dict[int, list[int]] = {}
        for l in loads_of(cfg):
            if l in on_slice:
                groups.setdefault(find(l), []).append(l)
        plan[cfg.tid] = [groups[r] for r in sorted(groups)]
    return plan


def dot_dump(graph: DependenceGraph, model: ProgramModel,
             on_slice: frozenset | None = None) -> str:
    """DOT-compatible rendering; off-slice nodes are drawn dotted."""
    lines = ["digraph pdg {"]
    for node in model.all_nodes():
        style = ""
        if on_slice is not None and node.id not in on_slice:
            style = " style=dotted"
        lines.append('  n%d [label="%s"%s];'
                     % (node.id, model.node_name(node.id), style))
    for kind, src, dst in graph.edges():
        lines.append('  n%d -> n%d [label="%s"];' % (src, dst, kind))
    lines.append("}")
    return "\n".join(lines)
