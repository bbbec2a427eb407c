import dataclasses

from conftest import instance_programs, node_ids
from mtir.analysis import AnalysisConfig, analyze
from mtir.bench import chain_program
from mtir.cfg import build_model, is_load, is_store, loads_of
from mtir.parser import parse
from mtir.pdg import (
    DependenceGraph, _control_dependence, _data_dependence, apply_pruning,
    backward_slices, build_pdg, cluster, dot_dump,
)
from mtir.corpus import source


def plan_for(model):
    graph = build_pdg(model)
    on_slice = backward_slices(graph, model)
    return graph, on_slice


def test_param_guard_control_and_data_dependence():
    model = build_model(parse(source("param_guard")))
    graph, on_slice = plan_for(model)
    ids = node_ids(model)
    # the failure point hangs off the t1 < 0 test
    assert ids["t1.7"] in graph.control.get(ids["t1.6"], set())
    # t1 = 5 * v depends on the parameter binding at the create site
    assert ids["t1.3"] in graph.data.get(ids["t0.10"], set())


def test_param_guard_slice_excludes_counter_chain():
    model = build_model(parse(source("param_guard")))
    graph, on_slice = plan_for(model)
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
                  for kind, src, dst in graph.edges() if kind == "dd")
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
    edges = set(graph.edges())
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
        return backward_slices(graph,
                               dataclasses.replace(model, assertions=[prop]))

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
    assert apply_pruning(on_slice, model) == frozenset()


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
                                              model, feas, plan=plan)
    full, fgen, _, _ = compute_combinations(reader, result.interference,
                                            model, feas)
    assert zgen == fgen == 6
    assert zipped == full


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
    zipped, _, _, _ = compute_combinations(t2, result.interference, model,
                                           feas, plan=plan)
    full, _, _, _ = compute_combinations(t2, result.interference, model, feas)
    for group in plan[t2.tid]:
        projected = [tuple(combo[l] for l in group) for combo in zipped]
        expected = {tuple(combo[l] for l in group) for combo in full}
        assert set(projected) == expected


def test_dot_dump_shape():
    model = build_model(parse(source("param_guard")))
    graph, on_slice = plan_for(model)
    text = dot_dump(graph, model, on_slice)
    assert text.startswith("digraph pdg {")
    assert 'label="cd"' in text and 'label="dd"' in text
    assert "style=dotted" in text


def test_shifted_dependences_equal_fresh_ones():
    # build_pdg computes a routine's thread-local dependences once and
    # shifts them to each instance; computing them per thread gives the
    # same graph, next to the store->load and create edges
    for text in instance_programs():
        model = build_model(parse(text))
        fresh = DependenceGraph()
        for cfg in model.threads:
            _control_dependence(cfg, fresh)
            _data_dependence(cfg, fresh)
        for node in model.all_nodes():
            if is_load(node):
                for other in model.all_nodes():
                    if is_store(other) and other.stmt.var == node.stmt.var:
                        fresh.add("dd", other.id, node.id)
        for create_node, child in model.creates:
            fresh.add("dd", create_node, model.thread(child).entry)
        assert list(build_pdg(model).edges()) == list(fresh.edges()), text


def test_graph_is_linear():
    # global flow goes through one hub per variable, so the graph does not
    # hold chain/200's 40,000 store-load pairs
    model = build_model(parse(chain_program(200)))
    graph = build_pdg(model)
    entries = sum(len(dsts) for table in (graph.control, graph.data)
                  for dsts in table.values())
    entries += sum(len(nodes) for hub in (graph.stores, graph.loads)
                   for nodes in hub.values())
    assert entries < 2 * sum(len(cfg.nodes) for cfg in model.threads)


def reference_slice_and_clusters(graph, model):
    """Reverse reachability from every assertion over the spelled-out
    edges, then the connected components of the on-slice subgraph, each
    thread's loads grouped by component in the order of its smallest
    node."""
    rev, adjacent = {}, {}
    for _, src, dst in graph.edges():
        rev.setdefault(dst, set()).add(src)
    on_slice = set(model.assertions)
    stack = list(on_slice)
    while stack:
        for p in rev.get(stack.pop(), ()):
            if p not in on_slice:
                on_slice.add(p)
                stack.append(p)
    for _, src, dst in graph.edges():
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
    # instance_programs covers the corpus and random_program seeds 0-59;
    # in READ_ONLY_TWICE the two loads of the never-stored g share no
    # store, so they stay in separate clusters
    for text in (*instance_programs(), READ_ONLY_TWICE):
        model = build_model(parse(text))
        graph = build_pdg(model)
        on_slice = backward_slices(graph, model)
        expected_slice, expected_plan = reference_slice_and_clusters(
            graph, model)
        assert on_slice == expected_slice, text
        assert cluster(graph, on_slice, model) == expected_plan, text
    model = build_model(parse(READ_ONLY_TWICE))
    graph = build_pdg(model)
    plan = cluster(graph, backward_slices(graph, model), model)
    assert len(plan[model.thread_named("main").tid]) == 3
