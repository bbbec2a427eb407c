"""`cfg.flow_masks`, the one solver behind every thread-local graph fact,
against plain definitions: reachability by depth-first search, dominance
and post-dominance as "removing m disconnects n", and the loops that
computed reaching definitions and maybe-unassigned locals before it,
kept here as references.  Checked on seeded random digraphs and on every
thread of the instance programs, the loopy family and the programs with
locals read before assignment."""

import random

from conftest import instance_programs
from stress_soundness import loopy_program
from test_oracle import (
    PARTLY_ASSIGNED_IF, PARTLY_ASSIGNED_INSTANCES, PARTLY_ASSIGNED_LOOP,
    UNASSIGNED, UNASSIGNED_INSTANCES,
)
from mtir.cfg import (
    Node, SNop, ThreadCfg, _post_dominators, bits, build_model, defs_and_uses,
    dominator_sets, flow_masks, reachable_sets,
)
from mtir.parser import parse


def mask(nodes):
    return sum(1 << n for n in nodes)


def searched(succs, start, without=None):
    """The nodes reachable from `start` via a nonempty path that does not
    pass `without`."""
    seen, stack = set(), [start]
    while stack:
        for dst, _ in succs[stack.pop()]:
            if dst != without and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


def reference_reach(succs):
    return {n: mask(searched(succs, n)) for n in succs}


def reference_dominators(succs, entry):
    """m dominates n when m is n or the entry, or when removing m
    disconnects n from the entry; for the nodes the entry reaches."""
    return {n: mask(m for m in succs if m in (n, entry) or n != entry
                    and n not in searched(succs, entry, without=m))
            for n in searched(succs, entry) | {entry}}


def reference_post_dominators(cfg):
    """The same over the graph whose virtual exit, one past the last node,
    follows the exit and every node that cannot reach it."""
    virtual = max(cfg.nodes) + 1
    succs = {n: list(edges) for n, edges in cfg.succs.items()}
    succs[virtual] = []
    for n in cfg.nodes:
        if n == cfg.exit or cfg.exit not in searched(cfg.succs, n):
            succs[n].append((virtual, None))
    pdom = {virtual: 1 << virtual}
    for n in cfg.nodes:
        pdom[n] = mask(m for m in succs if m in (n, virtual)
                       or virtual not in searched(succs, n, without=m))
    return pdom


def reference_reaching(succs, order, seed, gen, kill):
    """The reaching-definitions loop: a node's in-mask is its seed joined
    with its predecessors' out-masks, recomputed in `order` until no
    out-mask changes."""
    preds = {n: [] for n in succs}
    for n, edges in succs.items():
        for dst, _ in edges:
            preds[dst].append(n)
    reaching = dict.fromkeys(succs, 0)
    out = dict.fromkeys(succs, 0)
    changed = True
    while changed:
        changed = False
        for n in order:
            incoming = seed[n]
            for p in preds[n]:
                incoming |= out[p]
            reaching[n] = incoming
            new = incoming & ~kill[n] | gen[n]
            if new != out[n]:
                out[n] = new
                changed = True
    return reaching


def reference_unset(succs, entry, locals_, kills):
    """The maybe-unassigned loop, by relative id: all locals at the entry,
    pushed along the out edges less each node's kills."""
    unset = [0] * len(succs)
    unset[entry], changed = locals_, True
    while changed:
        changed = False
        for r, edges in enumerate(succs):
            out = unset[r] & ~kills[r]
            for dst, _ in edges:
                if out & ~unset[dst]:
                    unset[dst] |= out
                    changed = True
    return unset


def reference_data_dependence(cfg):
    """Def-use edges from the reaching-definitions loop, each parameter
    defined at a virtual site past the last node, reported as the entry."""
    nodes = cfg.node_order()
    last = max(cfg.nodes)
    sites = {p: 1 << k for k, p in enumerate(cfg.params, last + 1)}
    defs, uses = {}, {}
    for n in nodes:
        defs[n], uses[n] = defs_and_uses(cfg.nodes[n].stmt)
        for var in defs[n]:
            sites[var] = sites.get(var, 0) | 1 << n
    seed = dict.fromkeys(nodes, 0)
    seed[cfg.entry] = mask(k for k in range(last + 1,
                                            last + 1 + len(cfg.params)))
    gen = {n: 1 << n if defs[n] else 0 for n in nodes}
    kill = {n: sum(sites[var] for var in defs[n]) for n in nodes}
    reaching = reference_reaching(cfg.succs, nodes, seed, gen, kill)
    data = {}
    for n in nodes:
        for var in uses[n]:
            for site in bits(reaching[n] & sites.get(var, 0)):
                data.setdefault(cfg.entry if site > last else site,
                                set()).add(n)
    return data


def reference_unassigned(cfg):
    """The locals some path from the entry reads before assigning,
    parameters aside, in name order."""
    base = cfg.first_node
    bit, kills, reads = dict.fromkeys(cfg.params, 0), [], []
    for n in cfg.node_order():
        defs, uses = defs_and_uses(cfg.nodes[n].stmt)
        kills.append(sum(bit.setdefault(v, 1 << len(bit)) for v in defs))
        reads.append(sum(bit.setdefault(v, 1 << len(bit)) for v in uses))
    succs = [[(dst - base, None) for dst, _ in cfg.succs[n]]
             for n in cfg.node_order()]
    unset = reference_unset(succs, cfg.entry - base, sum(bit.values()), kills)
    read = 0
    for r, row in enumerate(unset):
        read |= reads[r] & row
    return tuple(sorted(v for v in bit if read & bit[v]))


def random_graph(rng):
    """A digraph on consecutive ids from a random base, every node
    reachable from the entry, which sits anywhere in node order; extra
    edges add self-loops and nested or overlapping cycles."""
    size = rng.randint(1, 12)
    base = rng.randint(0, 40)
    ids = [base + k for k in range(size)]
    rng.shuffle(ids)
    succs = {n: [] for n in ids}
    for k in range(1, size):
        succs[ids[rng.randrange(k)]].append((ids[k], None))
    for _ in range(rng.randint(0, 2 * size)):
        succs[rng.choice(ids)].append((rng.choice(ids), None))
    return succs, ids[0]


def as_thread(succs, entry, exit):
    cfg = ThreadCfg(0, "g", "g", entry=entry, exit=exit)
    cfg.succs = succs
    cfg.nodes = {n: Node(n, 0, 0, SNop()) for n in succs}
    return cfg


def has_cycle(succs):
    return any(n in searched(succs, n) for n in succs)


def test_solver_equals_reference_loops_on_random_graphs():
    rng = random.Random(28)
    cyclic = 0
    for _ in range(400):
        succs, entry = random_graph(rng)
        cyclic += has_cycle(succs)
        order = list(succs)
        rng.shuffle(order)  # any order reaches the same least masks
        seed = {n: rng.getrandbits(6) if rng.random() < 0.3 else 0
                for n in succs}
        gen = {n: rng.getrandbits(6) for n in succs}
        kill = {n: rng.getrandbits(6) for n in succs}
        assert flow_masks(succs, order, seed, gen, kill) \
            == reference_reaching(succs, order, seed, gen, kill)
        # the list form, by relative id, as a step table holds it
        base = min(succs)
        rel = [[(dst - base, None) for dst, _ in succs[n]]
               for n in sorted(succs)]
        kills = [kill[n] for n in sorted(succs)]
        start = [0] * len(rel)
        start[entry - base] = 63
        assert flow_masks(rel, range(len(rel)), start, [0] * len(rel),
                          kills) \
            == reference_unset(rel, entry - base, 63, kills)
        assert start[entry - base] == 63 and sum(start) == 63  # not mutated
    assert cyclic >= 200


def test_graph_facts_equal_plain_definitions_on_random_graphs():
    rng = random.Random(29)
    for _ in range(300):
        succs, entry = random_graph(rng)
        order = list(succs)
        rng.shuffle(order)
        assert reachable_sets(succs) == reference_reach(succs)
        assert dominator_sets(succs, entry, order) \
            == reference_dominators(succs, entry)
        cfg = as_thread(succs, entry, rng.choice(list(succs)))
        assert _post_dominators(cfg) == reference_post_dominators(cfg)


def test_graph_facts_equal_plain_definitions_on_programs():
    texts = list(instance_programs())
    texts += [loopy_program(seed) for seed in range(20)]
    texts += [UNASSIGNED, UNASSIGNED_INSTANCES, PARTLY_ASSIGNED_IF,
              PARTLY_ASSIGNED_LOOP, PARTLY_ASSIGNED_INSTANCES]
    threads = loops = params = unassigned = 0
    for text in texts:
        model = build_model(parse(text))
        for cfg in model.threads:
            threads += 1
            loops += has_cycle(cfg.succs)
            params += bool(cfg.params)
            assert cfg.reach == reference_reach(cfg.succs), (text, cfg.name)
            assert cfg.dominators \
                == reference_dominators(cfg.succs, cfg.entry), \
                (text, cfg.name)
            assert _post_dominators(cfg) == reference_post_dominators(cfg), \
                (text, cfg.name)
            assert {(src, dst) for dst, deps in cfg.data.items()
                    for src in bits(deps)} \
                == {(src, dst) for src, dsts
                    in reference_data_dependence(cfg).items()
                    for dst in dsts}, (text, cfg.name)
            assert cfg.unassigned_locals == reference_unassigned(cfg), \
                (text, cfg.name)
            unassigned += bool(cfg.unassigned_locals)
    assert threads >= 300 and loops >= 20 and params >= 20 \
        and unassigned >= 5, (threads, loops, params, unassigned)
