from conftest import instance_programs, node_ids, one_cluster, solved
from report_identity import NO_EXIT
from stress_soundness import loopy_program
from mtir.analysis import AnalysisConfig, analyze
from mtir.bench import chain_program
from mtir.cfg import (
    ProgramModel, SLoad, SStore, bits, build_model, loads_of,
)
from mtir.interp import StoreSource
from mtir.parser import parse
from mtir.pdg import (
    DependenceGraph, apply_pruning, backward_slices, build_pdg, cluster,
    dot_dump,
)
from mtir.corpus import source


def by_store(source):
    """A store source as its store, since value-equal store sources are
    equal; any other source as itself."""
    return source.store if isinstance(source, StoreSource) else source


def plan_for(model):
    graph = build_pdg(model)
    on_slice = backward_slices(graph, model)
    return graph, on_slice


def test_param_guard_control_and_data_dependence():
    model = build_model(parse(source("param_guard")))
    graph, on_slice = plan_for(model)
    ids = node_ids(model)
    # the failure point hangs off the t1 < 0 test
    assert ids["t1.6"] in set(bits(graph.control.get(ids["t1.7"], 0)))
    # t1 = 5 * v depends on the parameter binding at the create site
    assert ids["t0.10"] in set(bits(graph.data.get(ids["t1.3"], 0)))


def test_param_guard_slice_excludes_counter_chain():
    model = build_model(parse(source("param_guard")))
    graph, on_slice = plan_for(model)
    on_slice = set(bits(on_slice))
    ids = node_ids(model)
    for name in ("t1.4", "t2.4"):  # the loads of x
        assert ids[name] not in on_slice
    for name in ("t1.5_2", "t2.5_2", "t0.12"):  # the stores to x
        assert ids[name] not in on_slice
    for name in ("t1.3", "t1.6", "t1.7"):
        assert ids[name] in on_slice


def test_each_parameter_has_its_own_definition():
    # redefining `a` must not kill the definition of `b` at the entry
    model = build_model(parse(
        "int g = 0;\n"
        "thread w(int a, int b) { int t = 1; a = t + 1; g = a + b; }\n"
        "thread main() { create(w, 3, 4); join(w); int r = g;\n"
        "  assert(r >= 0); }\n"))
    graph = build_pdg(model)
    data = sorted((model.node_name(src), model.node_name(dst))
                  for kind, src, dst in graph.edges(model) if kind == "dd")
    assert data == [("t0.3", "t1.2"), ("t0.3_3", "t0.4"),
                    ("t1.2", "t1.2_2"), ("t1.2", "t1.2_3"),
                    ("t1.2_2", "t1.2_3"), ("t1.2_3", "t1.2_4"),
                    ("t1.2_4", "t0.3_3")]


def test_straight_line_no_control_dependence():
    model = build_model(parse(source("paired_loads")))
    graph = build_pdg(model)
    assert not graph.control


def test_disjoint_chains_cross_thread_edges():
    model = build_model(parse(source("disjoint_chains")))
    graph = build_pdg(model)
    edges = set(graph.edges(model))
    ids = node_ids(model)
    assert ("dd", ids["t1.4"], ids["t2.8"]) in edges  # x chain
    assert ("dd", ids["t1.5"], ids["t2.9"]) in edges  # y chain
    assert ("dd", ids["t1.4"], ids["t2.9"]) not in edges
    assert ("dd", ids["t1.5"], ids["t2.8"]) not in edges


def test_disjoint_chains_slices():
    model = build_model(parse(source("disjoint_chains")))
    graph = build_pdg(model)
    ids = node_ids(model)
    x_prop = ids["t2.10"]
    y_prop = ids["t2.11"]
    creates = {site for site, _ in model.creates}

    def slice_of(prop):
        return set(bits(backward_slices(graph, ProgramModel(
            model.threads, model.globals, model.creates, model.joins, [prop],
            model.source))))

    # inside the worker threads each chain slices to exactly store, load,
    # assert; the entry thread contributes only the create sites
    assert slice_of(x_prop) - creates == {ids["t1.4"], ids["t2.8"], x_prop}
    assert slice_of(y_prop) - creates == {ids["t1.5"], ids["t2.9"], y_prop}


def test_all_on_slice_when_assert_reads_everything():
    model = build_model(parse(
        "int x = 0;\n"
        "thread w() { x = 1; }\n"
        "thread main() { create(w); int t = x; assert(t >= 0); }"))
    graph, on_slice = plan_for(model)
    assert apply_pruning(on_slice, model) == 0


def test_disjoint_chains_two_clusters():
    model = build_model(parse(source("disjoint_chains")))
    graph, on_slice = plan_for(model)
    plan = cluster(graph, on_slice, model)
    t2 = model.thread_named("thread2")
    groups = plan[t2.tid]
    assert len(groups) == 2
    assert sorted(len(g) for g in groups) == [1, 1]


def test_flag_sync_single_cluster():
    # the flag read guards the x read via control dependence: one cluster
    model = build_model(parse(source("flag_sync")))
    graph, on_slice = plan_for(model)
    plan = cluster(graph, on_slice, model)
    t2 = model.thread_named("thread2")
    groups = plan[t2.tid]
    assert len(groups) == 1
    assert sorted(groups[0]) == loads_of(t2)


def test_pruning_identity_preserves_property_envs():
    # mutating an off-slice statement must not change assertion states
    base = source("param_guard")
    variant = base.replace("x = t1 + t2;", "x = t1 - t2;")
    assert variant != base
    results = []
    for text in (base, variant):
        model = build_model(parse(text))
        result = analyze(model, AnalysisConfig(mode="fso"))
        results.append({model.node_name(n): result.te[n]
                        for n in model.assertions})
    assert results[0] == results[1]


def test_single_cluster_equals_full_product():
    # with one cluster the zipped schedule is the plain Cartesian product
    from mtir.analysis import compute_combinations
    from mtir.facts import FeasibilityEngine

    model = build_model(parse(source("flag_sync")))
    result = analyze(model, AnalysisConfig(mode="fs"))
    feas = FeasibilityEngine(model)
    graph, on_slice = plan_for(model)
    plan = cluster(graph, on_slice, model)
    reader = model.thread_named("thread2")
    zipped, zgen, _, _ = compute_combinations(reader, result.interference,
                                              feas, plan=plan)
    full, fgen, _, _ = compute_combinations(reader, result.interference, feas,
                                            one_cluster(reader))
    assert plan[reader.tid] == [loads_of(reader)]
    assert zgen == fgen == 6
    assert [tuple(map(by_store, policy)) for policy in zipped] \
        == [tuple(map(by_store, policy)) for policy in full]


def test_cluster_schedule_covers_each_cluster_fully():
    # projecting the zipped runs onto one cluster yields that cluster's
    # complete combination list
    from mtir.analysis import compute_combinations
    from mtir.facts import FeasibilityEngine

    model = build_model(parse(source("disjoint_chains")))
    result = analyze(model, AnalysisConfig(mode="fs"))
    feas = FeasibilityEngine(model)
    graph, on_slice = plan_for(model)
    plan = cluster(graph, on_slice, model)
    t2 = model.thread_named("thread2")
    zipped, _, _, _ = compute_combinations(t2, result.interference,
                                           feas, plan=plan)
    full, _, _, _ = compute_combinations(t2, result.interference, feas,
                                         one_cluster(t2))
    # both list every load's source in node order: each load is on-slice
    loads = loads_of(t2)
    assert sorted(l for group in plan[t2.tid] for l in group) == loads
    for group in plan[t2.tid]:
        slots = [loads.index(l) for l in group]
        projected = [tuple(by_store(policy[k]) for k in slots)
                     for policy in zipped]
        expected = {tuple(by_store(policy[k]) for k in slots)
                    for policy in full}
        assert set(projected) == expected


def test_dot_dump_shape():
    model = build_model(parse(source("param_guard")))
    graph, on_slice = plan_for(model)
    text = dot_dump(graph, model, on_slice)
    assert text.startswith("digraph pdg {")
    assert 'label="cd"' in text and 'label="dd"' in text
    assert "style=dotted" in text


def test_shifted_dependences_equal_fresh_ones():
    # cfg solves a routine's thread-local dependences once and shifts them
    # to each instance; solving them per thread gives the same graph, next
    # to the store->load and create edges
    for text in instance_programs():
        model = build_model(parse(text))
        fresh = DependenceGraph()
        for cfg in model.threads:
            fresh.control.update(solved(cfg).control)
            fresh.data.update(solved(cfg).data)
        edges = {(kind, src, dst)
                 for kind, table in (("cd", fresh.control),
                                     ("dd", fresh.data))
                 for dst, deps in table.items() for src in bits(deps)}
        for node in model.all_nodes():
            if isinstance(node.stmt, SLoad):
                for other in model.all_nodes():
                    if isinstance(other.stmt, SStore) \
                            and other.stmt.var == node.stmt.var:
                        edges.add(("dd", other.id, node.id))
        for create_node, child in model.creates:
            edges.add(("dd", create_node, model.thread(child).entry))
        assert build_pdg(model).edges(model) == sorted(edges), text


def test_graph_is_linear():
    # global flow goes through one hub per variable, so the graph does not
    # hold chain/200's 40,000 store-load pairs
    model = build_model(parse(chain_program(200)))
    graph = build_pdg(model)
    entries = sum(deps.bit_count() for table in (graph.control, graph.data)
                  for deps in table.values())
    entries += sum(nodes.bit_count() for hub in (model.stores, model.loads)
                   for nodes in hub.values())
    assert entries < 2 * sum(len(cfg.nodes) for cfg in model.threads)


def reference_slice_and_clusters(graph, model):
    """Reverse reachability from every assertion over the spelled-out
    edges, then the connected components of the on-slice subgraph, each
    thread's loads grouped by component in the order of its smallest
    node."""
    rev, adjacent = {}, {}
    for _, src, dst in graph.edges(model):
        rev.setdefault(dst, set()).add(src)
    on_slice = set(model.assertions)
    stack = list(on_slice)
    while stack:
        for p in rev.get(stack.pop(), ()):
            if p not in on_slice:
                on_slice.add(p)
                stack.append(p)
    for _, src, dst in graph.edges(model):
        if src in on_slice and dst in on_slice:
            adjacent.setdefault(src, set()).add(dst)
            adjacent.setdefault(dst, set()).add(src)
    component = {}
    for n in sorted(on_slice):
        if n not in component:
            component[n] = n
            stack = [n]
            while stack:
                for m in adjacent.get(stack.pop(), ()):
                    if m not in component:
                        component[m] = n
                        stack.append(m)
    plan = {}
    for cfg in model.threads:
        groups = {}
        for l in loads_of(cfg):
            if l in on_slice:
                groups.setdefault(component[l], []).append(l)
        plan[cfg.tid] = [groups[c] for c in sorted(groups)]
    return on_slice, plan


READ_ONLY_TWICE = """int g = 3;
int h = 0;
thread w() { h = 1; }
thread main() {
  create(w);
  int a = g;
  int b = g;
  int c = h;
  assert(a >= 0);
  assert(b >= 0);
  assert(c >= 0);
}
"""


def test_slices_and_clusters_match_reference():
    # instance_programs covers the corpus, watchdog/4 and random_program
    # seeds 0-59; the loop of NO_EXIT never exits, and in READ_ONLY_TWICE
    # the two loads of the never-stored g share no store, so they stay in
    # separate clusters
    texts = [*instance_programs(), chain_program(10), NO_EXIT,
             READ_ONLY_TWICE, *(loopy_program(seed) for seed in range(20))]
    for text in texts:
        model = build_model(parse(text))
        graph = build_pdg(model)
        on_slice = backward_slices(graph, model)
        expected_slice, expected_plan = reference_slice_and_clusters(
            graph, model)
        assert set(bits(on_slice)) == expected_slice, text
        assert cluster(graph, on_slice, model) == expected_plan, text
    model = build_model(parse(READ_ONLY_TWICE))
    graph = build_pdg(model)
    plan = cluster(graph, backward_slices(graph, model), model)
    assert len(plan[model.thread_named("main").tid]) == 3
