"""A routine's graph facts are `ThreadCfg`'s, solved once per routine.
One whose graph is one path, `ThreadCfg.path`, takes them from that
walk: reachability, the S1 and PO masks, control and data dependence
and the locals read before assignment.  Checked against the general
solvers on every path thread of the corpus, `random_program` seeds
0-119, `repeated_program` seeds 0-39, `loopy_program` seeds 0-19, chain
1-12, watchdog and the programs with locals read before assignment,
and on random straight lines walked out of node order; a routine with a
branch, a cycle or a synthetic entry has no path.  On the same programs
each later instance, which shifts its first instance's facts, is
checked against a fresh solve of its own graph, branching routines
included."""

import random

from conftest import (
    LOOP_HEADED, graph_facts, random_program, repeated_program, solved,
)
from stress_soundness import loopy_program
from test_flow_masks import has_cycle
from test_oracle import (
    PARTLY_ASSIGNED_IF, PARTLY_ASSIGNED_INSTANCES, UNASSIGNED,
    UNASSIGNED_INSTANCES,
)
from mtir.ast import BinOp, IntLit, Var
from mtir.bench import chain_program, watchdog_program
from mtir.cfg import (
    Node, SBranch, SLocal, SNop, SStore, ThreadCfg, build_model,
    reachable_sets,
)
from mtir.corpus import PROGRAMS, source
from mtir.parser import parse


def pools():
    yield from (source(name) for name in PROGRAMS)
    yield from (random_program(seed) for seed in range(120))
    yield from (repeated_program(seed) for seed in range(40))
    yield from (loopy_program(seed) for seed in range(20))
    yield from (chain_program(depth) for depth in range(1, 13))
    yield watchdog_program(4)
    yield from (LOOP_HEADED, UNASSIGNED, UNASSIGNED_INSTANCES,
                PARTLY_ASSIGNED_IF, PARTLY_ASSIGNED_INSTANCES)


def check_path(cfg: ThreadCfg):
    """`cfg.path` walks every node once, from the entry, along the edges,
    and the facts it gives equal the solvers'."""
    path = cfg.path
    assert path[0] == cfg.entry and sorted(path) == cfg.node_order()
    assert all(cfg.succs[n] == [(m, None)] for n, m in zip(path, path[1:]))
    assert cfg.succs[path[-1]] == []
    mine, general = graph_facts(cfg), graph_facts(solved(cfg, walk=False))
    assert mine == general
    assert mine["reach"] == reachable_sets(cfg.succs)
    assert mine["control"] == {}


def test_path_facts_equal_solvers_on_programs():
    paths = copies = params = unassigned = 0
    no_path = dict.fromkeys(("branch", "cycle", "nop"), 0)
    for text in pools():
        model = build_model(parse(text))
        for cfg in model.threads:
            kinds = {node.stmt.__class__ for node in cfg.nodes.values()}
            reasons = {"branch": SBranch in kinds,
                       "cycle": has_cycle(cfg.succs),
                       "nop": model.node(cfg.entry).stmt == SNop()}
            if any(reasons.values()):
                assert cfg.path is None, (text, cfg.name)
                for reason, holds in reasons.items():
                    no_path[reason] += holds
                continue
            check_path(cfg)
            paths += 1
            copies += cfg.first_instance is not None
            params += bool(cfg.params)
            unassigned += bool(cfg.unassigned_locals)
    assert paths >= 500 and copies >= 50 and params >= 50 \
        and unassigned >= 3 and min(no_path.values()) >= 1, \
        (paths, copies, params, unassigned, no_path)


def random_line(rng):
    """A straight line on consecutive ids from a random base, walked in a
    random order from its entry to its exit, of local assignments and
    stores over two parameters and three locals."""
    size = rng.randint(1, 12)
    base = rng.randint(0, 40)
    walk = [base + k for k in range(size)]
    rng.shuffle(walk)
    names = ["p", "q", "a", "b", "c"]
    cfg = ThreadCfg(0, "line", "line", entry=walk[0], exit=walk[-1],
                    params={"p": 1, "q": 2})
    for k, n in enumerate(walk):
        used = BinOp("+", Var(rng.choice(names)), Var(rng.choice(names)))
        if k == size - 1:
            stmt = SNop()
        elif rng.random() < 0.3:
            stmt = SStore("g", rng.choice([used, IntLit(1)]))
        else:
            stmt = SLocal(rng.choice(names), used)
        cfg.nodes[n] = Node(n, 0, k, stmt)
        cfg.succs[n] = [] if k == size - 1 else [(walk[k + 1], None)]
    return cfg


def test_path_facts_equal_solvers_on_random_lines():
    rng = random.Random(35)
    shuffled = 0
    for _ in range(300):
        cfg = random_line(rng)
        assert cfg.path is not None
        check_path(cfg)
        shuffled += cfg.path != cfg.node_order()
    assert shuffled >= 200


def test_later_instances_equal_fresh_solves():
    copies = branching = params = 0
    for text in pools():
        model = build_model(parse(text))
        for cfg in model.threads:
            if cfg.first_instance is None:
                continue
            assert graph_facts(cfg) == graph_facts(solved(cfg)), \
                (text, cfg.name)
            copies += 1
            branching += cfg.path is None
            params += bool(cfg.params)
    assert copies >= 60 and branching >= 5 and params >= 50, \
        (copies, branching, params)
