import pytest

from conftest import (
    instance_programs, node_ids, random_program, repeated_program,
)
from mtir.ast import expr_vars
from mtir.bench import chain_program, watchdog_program
from mtir.cfg import (
    SAssert, SBranch, SExit, SLoad, SLocal, SNondet, SNop, SStore,
    _instantiate, build_model, dominator_sets, loads_of, reachable_sets,
)
from mtir.errors import (
    CreateInLoopError, JoinWithoutCreateError, ModelError,
    RecursiveCreateError,
)
from mtir.parser import parse
from mtir.corpus import PROGRAMS, source


def model_of(text):
    return build_model(parse(text))


def test_global_increment_normalization():
    # x = x + 1 splits into load, local arithmetic, store
    model = model_of("int x = 0;\nthread main() { x = x + 1; }")
    kinds = [type(model.node(n).stmt)
             for n in model.thread(0).node_order()]
    assert kinds == [SLoad, SLocal, SStore, SExit]
    load = model.thread(0).nodes[0].stmt
    store = model.thread(0).nodes[2].stmt
    assert load.var == "x"
    assert store.var == "x"


def test_store_of_constant_is_single_node():
    model = model_of("int x = 0;\nthread main() { x = 4; x = 5; }")
    kinds = [type(model.node(n).stmt) for n in model.thread(0).node_order()]
    assert kinds == [SStore, SStore, SExit]


def test_load_into_local_is_single_node():
    model = model_of("int x = 0;\nthread main() { int b = x; }")
    kinds = [type(model.node(n).stmt) for n in model.thread(0).node_order()]
    assert kinds == [SLoad, SExit]


def test_empty_body_only_exit():
    model = model_of("thread t() { }\nthread main() { create(t); }")
    child = model.thread_named("t")
    assert [type(child.nodes[n].stmt) for n in child.node_order()] == [SExit]
    assert child.entry == child.exit


def test_condition_loads_hoisted():
    model = model_of("int x = 0;\nthread main() { if (x > 1) { x = 0; } }")
    kinds = [type(model.node(n).stmt) for n in model.thread(0).node_order()]
    assert kinds == [SLoad, SBranch, SStore, SExit]
    branch = model.thread(0).nodes[1].stmt
    assert not (expr_vars(branch.cond) & set(model.globals))


def test_while_reloads_condition_each_iteration():
    model = model_of("int x = 0;\nthread main() { while (x < 3) { x = x + 1; } }")
    cfg = model.thread(0)
    cond_load = loads_of(cfg)[0]  # the hoisted load feeding the branch
    body_store = cfg.stores_by_var["x"][-1]
    # the loop body flows back to the condition load, so it re-executes
    assert any(dst == cond_load for dst, _ in cfg.succs[body_store])


def test_param_guard_instances():
    model = model_of(source("param_guard"))
    assert len(model.threads) == 3
    names = [cfg.name for cfg in model.threads]
    assert names == ["main", "thr#1", "thr#2"]
    assert model.thread_named("thr#1").params == {"v": 5}
    assert model.thread_named("thr#2").params == {"v": 10}
    # each instance was created at its own site
    sites = [model.node_name(cfg.creation_site)
             for cfg in model.threads if cfg.creation_site is not None]
    assert sites == ["t0.10", "t0.11"]


def test_single_thread_model():
    model = model_of("thread main() { }")
    assert len(model.threads) == 1
    assert model.creates == []


def test_loop_reader_creates():
    model = model_of(source("loop_reader"))
    assert len(model.threads) == 3
    names = node_ids(model)
    created = [(model.node_name(site), model.thread(tid).name)
               for site, tid in model.creates]
    assert created == [("t0.3", "thread2"), ("t0.7", "thread3")]
    assert names["t0.3"] == model.threads[1].creation_site


def test_loads_of_flag_sync():
    model = model_of(source("flag_sync"))
    t2 = model.thread_named("thread2")
    assert [model.node_name(n) for n in loads_of(t2)] == ["t2.9", "t2.11"]
    t1 = model.thread_named("thread1")
    assert loads_of(t1) == []
    assert {var: [model.node_name(n) for n in stores]
            for var, stores in t1.stores_by_var.items()} \
        == {"x": ["t1.4", "t1.5"], "flag": ["t1.6"]}


def test_loads_of_disjoint_chains():
    model = model_of(source("disjoint_chains"))
    t2 = model.thread_named("thread2")
    loads = loads_of(t2)
    assert [model.node(n).stmt.var for n in loads] == ["x", "y"]


def test_assertion_registry():
    model = model_of(source("disjoint_chains"))
    assert len(model.assertions) == 2
    assert all(isinstance(model.node(n).stmt, SAssert)
               for n in model.assertions)


@pytest.mark.parametrize("name", PROGRAMS)
def test_normalization_single_global_access(name):
    model = model_of(source(name))
    globals_ = set(model.globals)
    for node in model.all_nodes():
        stmt = node.stmt
        if isinstance(stmt, SLoad):
            continue
        if isinstance(stmt, SStore):
            assert not (expr_vars(stmt.expr) & globals_)
        elif isinstance(stmt, (SBranch, SAssert)):
            assert not (expr_vars(stmt.cond) & globals_)
        elif isinstance(stmt, SLocal):
            assert not (expr_vars(stmt.expr) & globals_)


def _relative_shape(cfg):
    base = cfg.first_node
    return ([(n - base, node.line, node.stmt) for n, node in cfg.nodes.items()],
            [(n - base, [(dst - base, filt) for dst, filt in edges])
             for n, edges in cfg.succs.items()],
            cfg.entry - base, cfg.exit - base)


def test_instances_share_relative_shape():
    # interpreter runs are shared between instances of one routine, which
    # relies on the instances being one graph up to a shift of node ids
    texts = [source(name) for name in PROGRAMS] + [watchdog_program(8)]
    texts += [random_program(seed) for seed in range(60)]
    texts += [repeated_program(seed) for seed in range(30)]
    repeated = 0
    for text in texts:
        model = model_of(text)
        # node ids are node mask bits: 0..N-1 in thread, then node order
        assert [node.id for node in model.all_nodes()] == list(
            range(sum(len(cfg.nodes) for cfg in model.threads)))
        shapes = {}
        for cfg in model.threads:
            shape = _relative_shape(cfg)
            assert sorted(cfg.nodes) == list(
                range(cfg.first_node, cfg.first_node + len(cfg.nodes)))
            if cfg.routine in shapes:
                repeated += 1
                assert shape == shapes[cfg.routine], (text, cfg.name)
            shapes.setdefault(cfg.routine, shape)
    assert repeated >= 40


def test_copies_equal_fresh_lowering():
    # a later instance is its routine's first instance with shifted ids;
    # lowering it afresh at the same first id gives the same graph
    copies = nop_entries = 0
    for text in instance_programs():
        prog = parse(text)
        model = build_model(prog)
        for cfg in model.threads:
            first = cfg.first_instance
            if first is None:
                continue
            copies += 1
            nop_entries += isinstance(cfg.nodes[cfg.entry].stmt, SNop)
            fresh = _instantiate(prog.routine(cfg.routine), cfg.tid, cfg.name,
                                 list(cfg.params.values()), cfg.creation_site,
                                 set(model.globals), cfg.first_node)
            assert fresh.nodes == cfg.nodes, (text, cfg.name)
            assert fresh.succs == cfg.succs, (text, cfg.name)
            assert (fresh.entry, fresh.exit, fresh.params) \
                == (cfg.entry, cfg.exit, cfg.params)
            d = cfg.first_node - first.first_node
            assert all(node.stmt is first.nodes[n - d].stmt
                       for n, node in cfg.nodes.items())
    assert copies >= 60 and nop_entries >= 2


def test_derived_sets_equal_fresh_computation():
    for text in instance_programs():
        for cfg in model_of(text).threads:
            dom = dominator_sets(cfg.succs, cfg.entry)
            stores = {}
            for n in cfg.node_order():
                if isinstance(cfg.nodes[n].stmt, SStore):
                    stores.setdefault(cfg.nodes[n].stmt.var, []).append(n)
            assert cfg.reach == reachable_sets(cfg.succs), (text, cfg.name)
            assert cfg.dominators == dom, (text, cfg.name)
            assert cfg.loop_heads == {n for m, edges in cfg.succs.items()
                                      for n, _ in edges if dom[m] >> n & 1}
            assert cfg.stores_by_var == stores, (text, cfg.name)


def test_deep_creation_chain_builds():
    # the creation-cycle check walks the chain without recursing per link
    model = build_model(parse(chain_program(1200)))
    assert len(model.threads) == 1201
    assert len(model.assertions) == 1200


def test_dominators_of_long_path():
    # deeper than Python's default recursion limit
    n = 5000
    path = {k: [(k + 1, None)] for k in range(n - 1)}
    path[n - 1] = []
    dom = dominator_sets(path, 0)
    assert all(dom[k] == (1 << k + 1) - 1 for k in range(0, n, 97))
    assert dom[n - 1] == (1 << n) - 1
    reverse = {k: [(k - 1, None)] for k in range(1, n)}
    reverse[0] = []
    dom = dominator_sets(reverse, n - 1)
    assert all(dom[k] == (1 << n) - (1 << k) for k in range(0, n, 97))
    assert dom[0] == (1 << n) - 1


@pytest.mark.parametrize("name", PROGRAMS)
def test_deterministic_build(name):
    assert model_of(source(name)) == model_of(source(name))


def test_branch_arity():
    model = model_of(source("flag_sync"))
    for cfg in model.threads:
        for n, edges in cfg.succs.items():
            stmt = cfg.nodes[n].stmt
            if isinstance(stmt, SBranch):
                assert len(edges) == 2
            elif isinstance(stmt, SExit):
                assert edges == []
            else:
                assert len(edges) == 1


def test_entry_has_no_predecessors():
    model = model_of("int x = 0;\nthread main() { while (*) { x = 1; } }")
    cfg = model.thread(0)
    assert cfg.preds[cfg.entry] == []


def test_recursive_create_rejected():
    with pytest.raises(RecursiveCreateError):
        model_of("thread a() { create(b); }\n"
                 "thread b() { create(a); }\n"
                 "thread main() { create(a); }")


def test_self_create_rejected():
    with pytest.raises(RecursiveCreateError):
        model_of("thread a() { create(a); }\nthread main() { create(a); }")


def test_create_in_loop_rejected():
    with pytest.raises(CreateInLoopError):
        model_of("thread a() { }\n"
                 "thread main() { while (*) { create(a); } }")


def test_join_without_create():
    with pytest.raises(JoinWithoutCreateError):
        model_of("thread a() { }\nthread main() { join(a); }")


def test_join_before_create():
    # a join matches only a child created at an earlier node of its
    # thread, so the create and join edges can never close a cycle
    with pytest.raises(JoinWithoutCreateError):
        model_of("int g = 0;\nthread w() { g = 1; }\n"
                 "thread main() { join(w); create(w); int t = g; "
                 "assert(t >= 0); }")
    with pytest.raises(JoinWithoutCreateError):
        model_of("thread a() { }\n"
                 "thread main() { create(a); join(a); join(a); create(a); }")


def test_join_not_own_child():
    with pytest.raises(JoinWithoutCreateError):
        model_of("thread a() { join(b); }\nthread b() { }\n"
                 "thread main() { create(a); create(b); }")


def test_join_fifo_matching():
    model = model_of("thread a() { }\n"
                     "thread main() { create(a); create(a); join(a); join(a); }")
    assert [tid for _, tid in model.creates] == [1, 2]
    assert [tid for _, tid in model.joins] == [1, 2]


def test_wrong_arity_create():
    with pytest.raises(ModelError):
        model_of("thread a(int v) { }\nthread main() { create(a); }")


def test_nondet_statement():
    model = model_of("thread main() { int a = *; }")
    assert isinstance(model.thread(0).nodes[0].stmt, SNondet)


def test_param_shadowing_global_rejected():
    with pytest.raises(ModelError):
        model_of("int v = 0;\nthread a(int v) { }\n"
                 "thread main() { create(a, 1); }")


def test_local_declaration_shadowing_global_rejected():
    with pytest.raises(ModelError):
        model_of("int x = 0;\nthread main() { int x = 1; }")


def test_first_creation_error_in_source_order():
    # a create in a loop is reported before a creation cycle, and the
    # first one in routine, then source order, `then` before `else`
    text = ("thread a() { create(b); }\n"
            "thread b() { create(a); }\n"
            "thread w() { }\n"
            "thread main() {\n"
            "  create(a);\n"
            "  while (*) { if (*) { int t = 0; } else { create(w); } }\n"
            "  while (*) { create(b); }\n"
            "}\n")
    with pytest.raises(CreateInLoopError, match="^line 6: create inside"):
        model_of(text)
    with pytest.raises(CreateInLoopError, match="^line 7: create inside"):
        model_of(text.replace("create(w);", ""))
    with pytest.raises(RecursiveCreateError):
        model_of(text.replace("create(w);", "").replace("create(b); }\n}",
                                                        "}\n}"))


def test_first_shadowing_error_in_source_order():
    text = ("int g = 0;\nint h = 0;\n"
            "thread main() {\n"
            "  while (*) { if (*) { while (*) { int g = 1; } } }\n"
            "  int h = 2;\n"
            "}\n")
    with pytest.raises(ModelError,
                       match="^line 4: local declaration of 'g' shadows"):
        model_of(text)
    with pytest.raises(ModelError,
                       match="^line 5: local declaration of 'h' shadows"):
        model_of(text.replace("int g = 1;", "g = 1;"))
    # parameters are checked before the body
    with pytest.raises(ModelError, match="parameter 'h' shadows"):
        model_of(text.replace("main()", "w(int h)")
                 + "thread main() { create(w, 1); }\n")
