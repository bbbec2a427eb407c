"""Program dependence graph, property slicing, pruning and clustering.

Every node set here is a node mask (see `cfg.ProgramModel`).  The graph
spans all threads and is linear in the program: it maps each node to the
mask of the nodes it depends on through control and def-use dependence
over locals, which stay inside a thread, and through the create site
that feeds a child's entry.  The thread-local dependences are `cfg`'s,
solved once per routine (`ThreadCfg.control` and `ThreadCfg.data`), and
this module only unions them.  Global flow goes through one hub per
variable, the model's masks `stores[v]` and `loads[v]`: every load of v
depends on every store to v, cross-thread or not, as slicing must
over-approximate.
One backward pass from all the assertions gives the union of their
slices, a mask; a load of v that enters it brings in v's stores.  A
union-find over the on-slice nodes splits each thread's loads into
independently explorable clusters.
"""

from __future__ import annotations

from .cfg import ProgramModel, SLoad, bits
from .record import Record


class DependenceGraph(Record):
    """`control` and `data` map a node to the mask of the nodes it depends
    on; a load's dependence on the stores to its variable is left to the
    model's hubs."""
    __slots__ = ("control", "data")

    def __init__(self):
        self.control, self.data = {}, {}

    def edges(self, model: ProgramModel):
        """Every edge, (kind, source, target), the store-to-load pairs of
        `model` spelled out, sorted by kind, then source, then target."""
        data = dict(self.data)
        for var, loads in model.loads.items():
            for l in bits(loads):
                data[l] = data.get(l, 0) | model.stores[var]
        return sorted((kind, src, dst)
                      for kind, table in (("cd", self.control), ("dd", data))
                      for dst, mask in table.items() for src in bits(mask))


def build_pdg(model: ProgramModel) -> DependenceGraph:
    """Each thread's control and data dependence, as `cfg` solves them
    per routine, and the create edges."""
    graph = DependenceGraph()
    for cfg in model.threads:
        graph.control.update(cfg.control)
        graph.data.update(cfg.data)
    # a created thread's entry (and so its parameters) depends on the
    # create site that spawns and binds it
    for create_node, child_tid in model.creates:
        entry = model.thread(child_tid).entry
        graph.data[entry] = graph.data.get(entry, 0) | 1 << create_node
    return graph


def backward_slices(graph: DependenceGraph, model: ProgramModel) -> int:
    """The union of the assertions' backward slices, in one backward pass
    from all of them, each frontier walked lowest bit first; a load
    brings in the stores to its variable."""
    on_slice = frontier = sum(1 << n for n in model.assertions)
    while frontier:
        preds = 0
        for n in bits(frontier):
            preds |= graph.control.get(n, 0) | graph.data.get(n, 0)
            stmt = model.node(n).stmt
            if stmt.__class__ is SLoad:
                preds |= model.stores[stmt.var]
        frontier = preds & ~on_slice
        on_slice |= frontier
    return on_slice


def apply_pruning(on_slice: int, model: ProgramModel) -> int:
    """The identity nodes: every off-slice statement but the structural
    ones.  The interpreter passes their state through, their loads leave
    combination generation and their stores publish no interference."""
    real = sum(len(cfg.nodes) for cfg in model.threads)
    return (1 << real) - 1 & ~on_slice & ~model.structural


def cluster(graph: DependenceGraph, on_slice: int,
            model: ProgramModel) -> dict[int, list[list[int]]]:
    """tid -> the thread's on-slice loads grouped by the connected
    components of the on-slice subgraph (undirected), whose union-find
    roots are their smallest nodes, in root order.  A hub joins its
    stores and on-slice loads if it has both."""
    root = {n: n for n in bits(on_slice)}

    def find(n):
        while root[n] != n:
            root[n] = root[root[n]]  # path halving
            n = root[n]
        return n

    def union(a, b):
        a, b = find(a), find(b)
        root[max(a, b)] = min(a, b)

    for table in (graph.control, graph.data):
        for dst, mask in table.items():
            if on_slice >> dst & 1:  # and so is each node it depends on
                for src in bits(mask):
                    union(src, dst)
    for var, loads in model.loads.items():
        stores = model.stores[var]
        if stores and loads & on_slice:
            hub = (stores & -stores).bit_length() - 1
            for n in bits(stores | loads & on_slice):
                union(hub, n)
    on_loads = on_slice & sum(model.loads.values())
    plan = {}
    for cfg in model.threads:
        groups: dict[int, list[int]] = {}
        for l in bits(on_loads & cfg.mask):
            groups.setdefault(find(l), []).append(l)
        plan[cfg.tid] = [groups[r] for r in sorted(groups)]
    return plan


def dot_dump(graph: DependenceGraph, model: ProgramModel,
             on_slice: int | None = None) -> str:
    """DOT-compatible rendering; off-slice nodes are drawn dotted."""
    lines = ["digraph pdg {"]
    for node in model.all_nodes():
        style = ""
        if on_slice is not None and not on_slice >> node.id & 1:
            style = " style=dotted"
        lines.append('  n%d [label="%s"%s];'
                     % (node.id, model.node_name(node.id), style))
    for kind, src, dst in graph.edges(model):
        lines.append('  n%d -> n%d [label="%s"];' % (src, dst, kind))
    lines.append("}")
    return "\n".join(lines)
