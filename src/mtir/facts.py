"""Finite relations over CFG nodes, Horn rules, and the feasibility engine.

The engine decides whether an interference combination (a store-to-load
flow assignment) can be realized by any execution.  It works purely on
statement ordering: base relations are extracted from the CFGs, a small
fixed rule set derives must-happen-before facts, and a combination is
infeasible when the closure contains a contradiction.

Ordering facts come in two strengths and the distinction is what keeps
transitive reasoning sound in the presence of branches:

  MHBS(m,n)  "strong": if n executes then m executed, earlier.
             Dominance, thread creation (a child node running means its
             create ran), joins (code after a join means the child
             exited), and the virtual initial stores all have this shape,
             and it survives unrestricted transitive composition.

  MHB(m,n)   "weak": in every execution where both m and n run, m runs
             first.  Same-thread program order (m reaches n, n can never
             get back to m) is weak, and so is everything rule R3
             derives.  A weak edge followed by strong edges composes (the
             strong suffix forces the middle node to have executed); two
             weak edges do not, unless the middle node is known to
             execute because it is an endpoint of the combination under
             test (relation Executes, seeded from the ReadsFrom facts).

Rules (MNRF = must-not-read-from):

  S1:  MHBS(m,n)  <- Dominates(m,n), NotReachableFrom(m,n)
  S2a: MHBS(m,n)  <- ThCreates(m,n)
  S2b: MHBS(n,m)  <- ThJoins(m,n)
  S4:  MHBS(a,c)  <- MHBS(a,b), MHBS(b,c)
  SW:  MHB(m,n)   <- MHBS(m,n)
  PO:  MHB(m,n)   <- Reaches(m,n), NotReachableFrom(m,n)
  W4:  MHB(a,c)   <- MHB(a,b), MHBS(b,c)
  W4e: MHB(a,c)   <- MHB(a,b), MHB(b,c), Executes(b)
  R3:  MHB(l,s2)  <- ReadsFrom(l,s1), MHB(s1,s2),
                     IsLoad(l,v), IsStore(s1,v), IsStore(s2,v)
  R5:  MNRF(a,b)  <- MHB(a,b)
  R6:  MNRF(l2,s1) <- ReadsFrom(l1,s1), MHB(l1,s2), MHBS(s2,l2),
                      IsLoad(l1,v), IsLoad(l2,v), IsStore(s2,v)
  R6e: MNRF(l2,s1) <- ReadsFrom(l1,s1), MHB(l1,s2), MHB(s2,l2),
                      Executes(s2), IsLoad(l1,v), IsLoad(l2,v),
                      IsStore(s2,v)

R3 is sound with a weak premise because its s1 is a flow source and
therefore executes; its conclusion is weak.  R6 needs the overwriting
store s2 to actually run before l2, hence the strong (or executing)
premise.  A contradiction is ReadsFrom(l,s) together with MNRF(l,s), or
an MHB self-loop on a node that executes.

The base order is built once, as bitset rows straight from the CFGs'
node masks: row k holds node k's MHB or MHBS successors as one Python
int, filled from the S1 and PO masks `cfg` solves once per routine and
composed through the create and join edges.  Order queries read a bit of
a row, and a feasibility query closes only the rows of its executing
nodes (the ReadsFrom endpoints).  Every contradiction reads only those
rows, and W4, W4e and R3 grow them from those rows and the fixed strong
rows alone, so this is the part of the closure the goal needs.  The
generic semi-naive engine (`fixpoint`) is the one other closure: the
reference the tests compare the rows against, and the derivation dumper
behind `check_facts`.  Tuples of the base relations exist only for it
(`build_base_facts`); `--dump-facts` reads MHB off the rows.

Initial values are modeled as one virtual store node per global, the
model's node `init:<var>` (`ProgramModel.init_nodes`, numbered after the
real nodes), that strongly precedes every real node.  A load that can
only ever observe the initial value through its own environment (no store
to the variable reaches it in its own thread or on the creating chain
before the create sites) contributes ReadsFrom(load, init:<var>) when a
combination assigns it the self source: `FeasibilityEngine.initial_loads`
maps each such load to that pair, and no other self read pins anything.
"""

from __future__ import annotations

from .cfg import ProgramModel, bits, loads_of
from .record import Value, cached_property, set_field

DERIVED = ("MHBS", "MHB", "MustNotReadFrom")
RELATIONS = (
    "Dominates", "Reaches", "NotReachableFrom", "ThCreates", "ThJoins",
    "IsLoad", "IsStore", "ReadsFrom", "Executes",
) + DERIVED


class Rule(Value):
    __slots__ = ("name", "head", "body")

    def __init__(self, name: str, head: tuple, body: tuple):
        set_field(self, "name", name)
        set_field(self, "head", head)  # (relation, variable tuple)
        set_field(self, "body", body)  # of (relation, variable tuple)


RULES = (
    Rule("S1", ("MHBS", ("m", "n")),
         (("Dominates", ("m", "n")), ("NotReachableFrom", ("m", "n")))),
    Rule("S2a", ("MHBS", ("m", "n")), (("ThCreates", ("m", "n")),)),
    Rule("S2b", ("MHBS", ("n", "m")), (("ThJoins", ("m", "n")),)),
    Rule("S4", ("MHBS", ("a", "c")),
         (("MHBS", ("a", "b")), ("MHBS", ("b", "c")))),
    Rule("SW", ("MHB", ("m", "n")), (("MHBS", ("m", "n")),)),
    Rule("PO", ("MHB", ("m", "n")),
         (("Reaches", ("m", "n")), ("NotReachableFrom", ("m", "n")))),
    Rule("W4", ("MHB", ("a", "c")),
         (("MHB", ("a", "b")), ("MHBS", ("b", "c")))),
    Rule("W4e", ("MHB", ("a", "c")),
         (("MHB", ("a", "b")), ("MHB", ("b", "c")), ("Executes", ("b",)))),
    Rule("R3", ("MHB", ("l", "s2")),
         (("ReadsFrom", ("l", "s1")), ("MHB", ("s1", "s2")),
          ("IsLoad", ("l", "v")), ("IsStore", ("s1", "v")),
          ("IsStore", ("s2", "v")))),
    Rule("R5", ("MustNotReadFrom", ("a", "b")), (("MHB", ("a", "b")),)),
    Rule("R6", ("MustNotReadFrom", ("l2", "s1")),
         (("ReadsFrom", ("l1", "s1")), ("MHB", ("l1", "s2")),
          ("MHBS", ("s2", "l2")), ("IsLoad", ("l1", "v")),
          ("IsLoad", ("l2", "v")), ("IsStore", ("s2", "v")))),
    Rule("R6e", ("MustNotReadFrom", ("l2", "s1")),
         (("ReadsFrom", ("l1", "s1")), ("MHB", ("l1", "s2")),
          ("MHB", ("s2", "l2")), ("Executes", ("s2",)),
          ("IsLoad", ("l1", "v")), ("IsLoad", ("l2", "v")),
          ("IsStore", ("s2", "v")))),
)


class FactBase:
    """Named finite relations of fixed-width tuples."""

    def __init__(self, relations=None):
        self.relations = {name: set() for name in RELATIONS}
        if relations:
            for name, tuples in relations.items():
                self.relations[name] = set(tuples)

    def add(self, name, tup):
        self.relations[name].add(tup)

    def copy(self) -> "FactBase":
        return FactBase(self.relations)


def _match(pattern, tup, bindings):
    out = bindings
    copied = False
    for var, val in zip(pattern, tup):
        if var in out:
            if out[var] != val:
                return None
        else:
            if not copied:
                out = dict(out)
                copied = True
            out[var] = val
    return out if copied else dict(out)


class _Indexes:
    """Lazy per-relation indexes on the first or second tuple position."""

    def __init__(self, facts: FactBase):
        self.facts = facts
        self.by_pos: dict = {}

    def _index(self, rel, pos):
        index = self.by_pos.get((rel, pos))
        if index is None:
            index = {}
            for tup in self.facts.relations[rel]:
                index.setdefault(tup[pos], []).append(tup)
            self.by_pos[(rel, pos)] = index
        return index

    def candidates(self, rel, pattern, bindings):
        for pos, var in enumerate(pattern):
            if var in bindings:
                return self._index(rel, pos).get(bindings[var], ())
        return self.facts.relations[rel]


def _eval_from(atoms, bindings, indexes, emit):
    if not atoms:
        emit(bindings)
        return
    (rel, pattern), rest = atoms[0], atoms[1:]
    if all(v in bindings for v in pattern):
        tup = tuple(bindings[v] for v in pattern)
        if tup in indexes.facts.relations[rel]:
            _eval_from(rest, bindings, indexes, emit)
        return
    for tup in indexes.candidates(rel, pattern, bindings):
        got = _match(pattern, tup, bindings)
        if got is not None:
            _eval_from(rest, got, indexes, emit)


def fixpoint(facts: FactBase, rules=RULES, delta=None) -> FactBase:
    """Close `facts` under `rules` in place, semi-naive: each round only
    re-joins tuples derived in the previous round.  `delta` seeds the
    first round; by default every existing tuple is new."""
    if delta is None:
        delta = {name: set(tuples) for name, tuples in facts.relations.items()}
    else:
        delta = {name: set(tuples) for name, tuples in delta.items()}

    while any(delta.values()):
        new = {}
        indexes = _Indexes(facts)
        for rule in rules:
            head_rel, head_pat = rule.head
            for i, (rel, pattern) in enumerate(rule.body):
                dset = delta.get(rel)
                if not dset:
                    continue
                rest = rule.body[:i] + rule.body[i + 1:]

                def emit(bindings, head_rel=head_rel, head_pat=head_pat):
                    tup = tuple(bindings[v] for v in head_pat)
                    if tup not in facts.relations[head_rel] \
                            and tup not in new.get(head_rel, ()):
                        new.setdefault(head_rel, set()).add(tup)

                for tup in dset:
                    got = _match(pattern, tup, {})
                    if got is not None:
                        _eval_from(rest, got, indexes, emit)
        for name, tuples in new.items():
            facts.relations[name] |= tuples
        delta = new
    return facts


def naive_fixpoint(facts: FactBase, rules=RULES) -> FactBase:
    """Reference closure: iterate every rule over every tuple until no
    change.  Used to cross-check the semi-naive engine."""
    changed = True
    while changed:
        changed = False
        indexes = _Indexes(facts)
        pending = []
        for rule in rules:
            head_rel, head_pat = rule.head

            def emit(bindings, head_rel=head_rel, head_pat=head_pat):
                tup = tuple(bindings[v] for v in head_pat)
                if tup not in facts.relations[head_rel]:
                    pending.append((head_rel, tup))

            _eval_from(rule.body, {}, indexes, emit)
        for head_rel, tup in pending:
            if tup not in facts.relations[head_rel]:
                facts.relations[head_rel].add(tup)
                changed = True
    return facts


def contradiction(facts: FactBase):
    """Returns a witness of unsatisfiability, or None.

    A self-loop only contradicts at a node that is known to execute
    (weak ordering facts are vacuous for statements an execution skips).
    """
    for pair in facts.relations["ReadsFrom"]:
        if pair in facts.relations["MustNotReadFrom"]:
            return ("reads-from-conflict", pair)
    mhb = facts.relations["MHB"]
    for (node,) in facts.relations["Executes"]:
        if (node, node) in mhb:
            return ("mhb-cycle", (node, node))
    return None


# --- base fact extraction ----------------------------------------------------

def build_base_facts(model: ProgramModel,
                     rows: _OrderingRows | None = None) -> FactBase:
    """The combination-independent relations as tuples: the raw relations
    the rules read, extracted from the CFGs, and the closed MHB and MHBS
    read off the ordering rows (no ReadsFrom facts exist yet, so nothing
    else fires).  Analyses and `--dump-facts` read the rows; only the
    rule-engine reference (`check_facts`) and the tests need tuples.
    `test_facts` checks the rows equal the rule-engine closure of the
    raw relations."""
    if rows is None:
        rows = _OrderingRows(model)
    facts = FactBase()
    rel = facts.relations
    for cfg in model.threads:
        nodes = cfg.node_order()
        reach, dom = cfg.reach, cfg.dominators
        rel["Dominates"] |= {(m, n) for n in nodes
                             for m in bits(dom[n] & ~(1 << n))}
        rel["Reaches"] |= {(m, n) for m in nodes for n in bits(reach[m])}
        rel["NotReachableFrom"] |= {(m, n) for m in nodes for n in nodes
                                    if not reach[n] >> m & 1}
    rel["ThCreates"] = {(c, model.thread(t).entry) for c, t in model.creates}
    rel["ThJoins"] = {(j, model.thread(t).exit) for j, t in model.joins}

    rel["IsLoad"], rel["IsStore"] = (set(rows.load_var.items()),
                                     set(rows.store_var.items()))
    rel["MHB"], rel["MHBS"] = rows.pairs(rows.weak), rows.pairs(rows.strong)
    return facts


def initial_value_loads(model: ProgramModel) -> dict[int, tuple]:
    """Loads whose self-read can only ever observe the global's initial
    value, each -> the pair (load, init:<var>) it pins: the load is not on
    a cycle, no store to the variable reaches it in its own thread, and no
    ancestor thread stores it before the create site spawning the chain."""
    out = {}
    for cfg in model.threads:
        for l in loads_of(cfg):
            if cfg.reach[l] >> l & 1:  # on a cycle: merged sources handle it
                continue
            var = cfg.nodes[l].stmt.var
            cur, site = cfg, l
            while not any(cur.reach[s] >> site & 1
                          for s in bits(model.stores[var] & cur.mask)):
                if cur.creation_site is None:
                    out[l] = l, model.init_nodes[var]
                    break
                site = cur.creation_site
                cur = model.thread(model.node(site).tid)
    return out


# --- ordering rows and the feasibility engine ---------------------------------

class _OrderingRows:
    """The base MHB and MHBS relations as bitset rows, one per model node,
    the `init:<var>` nodes last: bit j of row i says node i precedes node
    j.  Also per-variable masks of the load nodes and of the store nodes
    (the model's `stores`, each with its `init:<var>`), and each load's
    and store's variable.

    The rows are filled from the CFGs' node masks.  Within a thread, rule
    S1 reads what each node dominates and rule PO what it reaches, the
    masks `ThreadCfg.s1` and `ThreadCfg.po`; both are already transitive,
    and `cfg` solves them once per routine and shifts a later instance's
    straight into the rows' tables.  The create
    and join edges (S2a, S2b) are the only steps between threads, so a
    row is its thread-local part plus, for each edge leaving the node or a
    node locally after it, the edge's target and that target's strong row
    (S4 for MHBS, W4 for MHB).  Where those are all the thread's edges
    from the node on, a running union in reverse node order gives their
    rows in one step."""

    def __init__(self, model: ProgramModel):
        real = sum(len(cfg.nodes) for cfg in model.threads)
        self.init_nodes = model.init_nodes

        edge = {}  # source node -> target node
        for create_node, tid in model.creates:
            edge[create_node] = model.thread(tid).entry
        for join_node, tid in model.joins:
            edge[model.thread(tid).exit] = join_node

        s1, po = {}, {}  # per node, its thread-local rows
        sources = []  # per node, the edge sources of its thread
        edges = sum(1 << n for n in edge)
        for cfg in model.threads:  # in node order
            cfg.fill("s1", s1)
            cfg.fill("po", po)
            sources += [edges & cfg.mask] * len(cfg.nodes)

        # each edge target with every node strongly after it
        beyond: dict = {}

        def through_edges(p, local):
            for q in bits((local | 1 << p) & sources[p]):
                local |= beyond[edge[q]]
            return local

        # targets first: build_model resolves a join only against an
        # earlier create of its thread, so the edges cannot close a cycle
        for root in edge.values():
            stack = [root]
            while stack:
                d = stack[-1]
                if d in beyond:
                    stack.pop()
                    continue
                waiting = [edge[q]
                           for q in bits((s1[d] | 1 << d) & sources[d])
                           if edge[q] not in beyond]
                if waiting:
                    stack += waiting
                else:
                    stack.pop()
                    beyond[d] = 1 << d | through_edges(d, s1[d])

        # per thread in reverse node order, `tail` ORs the rows past its
        # edges from p on: a row holding just those sources takes it whole
        self.strong, self.weak = [0] * real, [0] * real
        for cfg in model.threads:
            tail = 0
            for p in reversed(cfg.node_order()):
                if p in edge:
                    tail |= beyond[edge[p]]
                later = sources[p] >> p << p
                for rows, local in ((self.strong, s1[p]), (self.weak, po[p])):
                    rows[p] = local | tail \
                        if (local | 1 << p) & sources[p] == later \
                        else through_edges(p, local)
        # each init:<var> strongly precedes every real node
        everything = (1 << real) - 1
        self.strong += [everything] * len(model.globals)
        self.weak += [everything] * len(model.globals)
        self.loads = model.loads
        self.load_var = {p: var for var, mask in self.loads.items()
                         for p in bits(mask)}
        self.stores = {var: mask | 1 << self.init_nodes[var]
                       for var, mask in model.stores.items()}
        self.store_var = {s: var for var, mask in self.stores.items()
                          for s in bits(mask)}
        # per variable, the stores with no store to it after them, and the
        # nodes forced to run after one of its real stores
        self.last = {var: sum(1 << s for s in bits(mask)
                              if not self.weak[s] & mask)
                     for var, mask in self.stores.items()}
        self.forced = {var: self.strong_closure(mask & everything)
                       for var, mask in self.stores.items()}

    def pairs(self, table) -> set:
        """The (node, node) tuples of the rows `weak` or `strong`."""
        return {(i, j) for i, row in enumerate(table) for j in bits(row)}

    def strong_closure(self, mask: int) -> int:
        """`mask` plus every node strongly after one of its nodes.  MHBS
        is transitive, so one step suffices, and a node already strongly
        after a visited one adds nothing of its own."""
        out = todo = mask
        while todo:
            low = todo & -todo
            after = self.strong[low.bit_length() - 1]
            out |= after
            todo &= ~(after | low)
        return out

    def feasible(self, rf) -> bool:
        """Close the rows of the executing nodes of `rf` under R3, W4 and
        W4e, then test every contradiction the rule set can derive."""
        row = {p: self.weak[p] for pair in rf for p in pair}
        executing = 0
        for p in row:
            executing |= 1 << p
        r3 = [(l, s, self.stores[var]) for l, s in rf
              if (var := self.load_var.get(l)) is not None
              and self.store_var.get(s) == var]

        # every row stays closed under W4: base rows are, R3's additions
        # are strong-closed here, and W4e only ORs in closed rows
        changed = True
        while changed:
            changed = False
            for l, s, stores in r3:  # R3
                new = row[s] & stores & ~row[l]
                if new:
                    row[l] |= self.strong_closure(new)
                    changed = True
            for p, mask in row.items():  # W4e
                grown = mask
                for b in bits(mask & executing):
                    grown |= row[b]
                if grown != mask:
                    row[p] = grown
                    changed = True

        for l, s in rf:  # R5: ReadsFrom meets MHB
            if row[l] >> s & 1:
                return False
        for p, mask in row.items():  # self-loop at an executing node
            if mask >> p & 1:
                return False
        readers: dict = {}
        for l, s in rf:
            readers[s] = readers.get(s, 0) | 1 << l
        for l1, s1 in rf:  # R6 / R6e
            var = self.load_var.get(l1)
            if var is None:
                continue
            later = 0
            for s2 in bits(row[l1] & self.stores[var]):
                later |= self.strong[s2] | row.get(s2, 0)
            if later & self.loads[var] & readers[s1]:
                return False
        return True

    def refuted(self, l: int, candidates: int) -> int:
        """The stores among `candidates` whose lone pair with `l` is
        infeasible, as `feasible({(l, s)})` finds.  R5 on the base rows
        settles the stores after `l`.  For the rest, R3 and W4e grow the
        two rows until R5 or a self-loop at `l` fires or nothing changes;
        R3 adds nothing after a store with no later store to the variable,
        so those stores are feasible.  The rows stay closed under W4, so
        R6 is that self-loop, and a loop at s or W4e through s needs R5
        first."""
        var = self.load_var[l]
        stores = self.stores[var]
        out = self.weak[l] & candidates
        init = 1 << self.init_nodes[var]
        if candidates & init:
            # R3 puts every store after init:<var> into `l`'s row: a
            # self-loop exactly when one of them is forced to run before l
            candidates ^= init
            if self.forced[var] >> l & 1:
                out |= init
        for s in bits(candidates & ~out & ~self.last[var]):
            row_l, row_s = self.weak[l], self.weak[s]
            while not (row_l >> s | row_l >> l) & 1:
                if row_s >> l & 1:  # W4e through l
                    row_s |= row_l
                new = row_s & stores & ~row_l  # R3
                if not new:
                    break
                row_l |= self.strong_closure(new)
            else:  # left by a contradiction, not by the break
                out |= 1 << s
        return out


class FeasibilityEngine:
    """Query interface over a fixed model.  The ordering rows, the
    initial-value loads and the tuple base are each built on first use;
    every combination check works on private rows and leaves them
    untouched.

    Queries take ReadsFrom pairs, (load node, store node), the store an
    `init:<var>` node for a load given its own initial value.  Feasibility
    reads only execution order, never values, and the closure is
    monotone: a refuted pair refutes every set of pairs holding it.  So
    `refuted` gives each load's mask once, and callers take it out of the
    load's candidate stores before any product; a one-load combination
    needs no `is_feasible` call after that.  `queries` counts the
    closures `is_feasible` runs, one per call with pairs; `refuted` is
    not counted."""

    def __init__(self, model: ProgramModel):
        self.model = model
        self._refuted: dict[int, int] = {}
        self.queries = 0

    @cached_property
    def rows(self) -> _OrderingRows:
        return _OrderingRows(self.model)

    @cached_property
    def base(self) -> FactBase:
        """The base relations as tuples, for the rule-engine reference."""
        return build_base_facts(self.model, self.rows)

    @cached_property
    def initial_loads(self) -> dict[int, tuple]:
        return initial_value_loads(self.model)

    def refuted(self, load: int) -> int:
        """The mask of the sources `load` can be given but cannot read from
        in any execution: remote stores to its variable and, for an
        initial-value load, `init:<var>`."""
        got = self._refuted.get(load)
        if got is None:
            rows, var = self.rows, self.rows.load_var[load]
            other = ~self.model.thread(self.model.node(load).tid).mask
            if load not in self.initial_loads:
                other &= ~(1 << self.model.init_nodes[var])
            got = self._refuted[load] = rows.refuted(load,
                                                     rows.stores[var] & other)
        return got

    def check_facts(self, reads_from):
        """Close base + the given ReadsFrom facts under the full rule set;
        returns (feasible, closed fact base) so callers can inspect the
        derivation.  Rule 5 makes MustNotReadFrom explicit here, so the
        dump carries the whole derivation."""
        work = self.base.copy()
        rf = set(reads_from)
        # every endpoint of a realized flow runs in the witnessing execution
        executes = {(node,) for pair in rf for node in pair}
        work.relations["ReadsFrom"] |= rf
        work.relations["Executes"] |= executes
        delta = {"ReadsFrom": set(rf), "Executes": set(executes),
                 "MHB": set(work.relations["MHB"])}
        fixpoint(work, RULES, delta=delta)
        return contradiction(work) is None, work

    def is_feasible(self, rf: frozenset) -> bool:
        """Whether some execution realizes every ReadsFrom pair of `rf`:
        Alg-style Add / Satisfiable / Remove in one step, the base facts
        never mutated."""
        if not rf:
            return True
        self.queries += 1
        return self.rows.feasible(rf)


def dump_facts(model: ProgramModel, facts: FactBase,
               relations=("MHB", "MustNotReadFrom", "ReadsFrom")) -> str:
    """One fact per line, `REL(a, b)`, with stable `t<thread>.<line>`
    and `init:<var>` node names; consumed by golden tests."""
    return "\n".join(sorted(
        "%s(%s)" % (rel, ", ".join(map(model.node_name, tup)))
        for rel in relations for tup in facts.relations[rel]))


def dump_mhb(model: ProgramModel, rows: _OrderingRows):
    """The lines `dump_facts` prints for the base MHB, in its order, one
    row at a time: no name holds ", ", so lines sort by their first name
    (with the ", " after it) and then among themselves."""
    names = [model.node_name(n) for n in range(len(rows.weak))]
    positions: dict = {}  # name -> its nodes' positions
    for p, name in enumerate(names):
        positions.setdefault(name, []).append(p)
    for first in sorted(positions, key=lambda name: name + ", "):
        yield from sorted("MHB(%s, %s)" % (first, names[q])
                          for p in positions[first]
                          for q in bits(rows.weak[p]))
