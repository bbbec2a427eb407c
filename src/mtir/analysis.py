"""The outer fixpoint composing the per-routine interpreter.

Every mode runs one loop.  Each outer iteration runs every thread once
per interference combination, which pins each of its loads to a source
(see `interp`), then republishes the value every store writes as
interference, widened after a delay so the loop terminates on programs
with unbounded data flow.  The loop stops when an iteration grows no
node environment: a store's published value can only grow in an
iteration that grows its node's state.  Both steps touch only what
changed: a run's states are joined only where they can grow
(`_merge_te`), and the interference table is updated in place, a
variable rebuilt only when one of its stores' values grew (`_publish`).
A run passes one state object on through a statement that keeps it (an
assert, create, exit or branch), so nodes often hold one object; a fold
joins it once for a stretch of such nodes and keeps them sharing.

The loop also stops, one iteration early, once the interference is
stable, as Miné's thread-modular iteration does (ESOP 2011): when an
iteration grew a state but its `_publish` says it added or replaced no
entry of the table, and the next iteration keeps the feasibility flag
(it is past the first, or the mode has no feasibility).  That next
iteration would build the same policies from the same table, and each
thread's entry state from the same object: threads run in tid order,
each after its parent, and only a thread's own runs fold into its
nodes, so the create-site state every entry was built from in this
iteration is still the one held.  Every run it schedules is
then already seen, so it would grow nothing, and republishing unchanged
states returns every old value, also past the widening delay, as a value
joined or widened with what it already covers is the old object.  The
loop checks the outer budget for that iteration, records the last one's
`IterationStats` for it again, and stops; the totals of runs,
combinations and refutations are sums over these records.

A mode is a row of `MODE_ROWS`:

  * fi  - one merged combination: every load reads its local value
          joined with every remote store to its variable (the
          flow-insensitive interference join).  It counts no
          combinations and builds no ordering facts.
  * fs  - every assignment of one remote store, or the thread's own
          state, to each load; a load on a cycle instead merges every
          store not forced after it.
  * fsc - fs minus the combinations the constraint engine proves
          impossible.
  * fso - fsc plus property slicing (off-slice statements become
          identity, their loads leave combination generation) and
          dependence clustering (independent load groups are explored
          zipped instead of multiplied).

fs and fsc are the one-cluster case of fso's zipped exploration: each
thread's active loads form a single cluster, whose zip is its product,
and `analyze` passes every mode its plan of clusters, this one outside
fso.
Policies are built from the interference table, which keeps each
published store's `StoreSource` once, with per-variable store masks; a
checked combination pins its store sources' `.store` and the pairs
`FeasibilityEngine.initial_loads` gives self-read loads.  Feasibility,
which depends on order alone, takes each load's refuted stores (found
once per engine) out of its mask before the product.  Where the zip is
the product a load reads each distinct value once (under feasibility
only in one-load clusters); `combos`, `infeasible` and `runs` still
count the full per-store product.

Interpreter runs are memoized on what they read: the step table (the
routine compiled with its off-slice statements as identity, see
`interp.StepTable`; `analyze` compiles one per routine and slice), its
entry state and its policy, the tuple of its
loads' sources in the table's load order (see `_run_key`).  A run is a
deterministic function of that input and its results are folded in by
join, so an input that already ran in the same analysis is skipped.
Every executed run goes into one table, keyed the same way for every
thread.  A run computes by node id relative to its thread's first node,
so instances of one routine, one graph up to a shift of node ids, replay
each other's runs as they are.  `stats.runs` counts the runs of the
uncollapsed schedule, `stats.interp_runs` those executed.

An executed run also shares the work before its first read of shared
memory.  Up to the first load it reads through its combination, a run
depends only on its step table and entry state (the widening delay is
fixed in one analysis), so the first run from those stores its state
at that load and every later run from equal ones, on any instance of
the routine, resumes there (see `interp.analyze_thread`).  Resumed runs
compute exactly what fresh runs compute, and as a run visits in node
order, a loop before that load has settled in the prefix.  A
thread's entry state is rebuilt only when the state at its create site
is a new object, which `_merge_te` makes exactly when the state grows,
so run keys and prefix lookups find one entry object by identity.

The descending pass after a widening is shared the same way.  The nodes
no node pending at that load can reach have their final states
there and read no combination, so how each sweep narrows them is stored
with the prefix by the first run that sweeps, and later runs copy it and
narrow only the nodes the load can affect.
"""

from __future__ import annotations

import itertools

from .cfg import ProgramModel, ThreadCfg, bits, loads_of
from .domain import AbstractEnv, _make, const
from .errors import AnalysisBudgetExceeded, CombinationBudgetExceeded
from .facts import FeasibilityEngine
from .interp import (
    AnalysisConfig, MergedSource, SelfSource, StepTable, StoreSource,
    analyze_thread,
)
from .pdg import apply_pruning, backward_slices, build_pdg, cluster
from .record import Record, Value, set_field


class Mode(Value):
    __slots__ = ("merged", "feasibility", "slicing")

    def __init__(self, merged: bool, feasibility: bool, slicing: bool):
        set_field(self, "merged", merged)  # one source per load, not per store
        set_field(self, "feasibility", feasibility)  # prune refuted combos
        set_field(self, "slicing", slicing)  # property slicing and clustering


MODE_ROWS = {
    "fi": Mode(merged=True, feasibility=False, slicing=False),
    "fs": Mode(merged=False, feasibility=False, slicing=False),
    "fsc": Mode(merged=False, feasibility=True, slicing=False),
    "fso": Mode(merged=False, feasibility=True, slicing=True),
}
MODES = tuple(MODE_ROWS)


class IterationStats(Record):
    __slots__ = ("combos", "infeasible", "runs")

    def __init__(self):
        self.combos, self.infeasible = {}, {}  # tid -> generated, rejected
        self.runs = 0


class AnalysisStats(Record):
    __slots__ = ("outer_iters", "runs", "interp_runs", "combos",
                 "infeasible", "pruned_loads", "clusters", "per_iteration")

    def __init__(self):
        self.outer_iters = self.runs = self.interp_runs = 0
        self.combos = self.infeasible = self.pruned_loads = self.clusters = 0
        self.per_iteration: list = []


class AnalysisResult(Record):
    __slots__ = ("model", "te", "verdicts", "stats", "interference",
                 "identity_nodes")

    def __init__(self, model: ProgramModel, te: dict, verdicts: dict,
                 stats: AnalysisStats, interference: dict,
                 identity_nodes: int = 0):
        self.model, self.stats = model, stats
        self.te = te  # node id -> AbstractEnv, accumulated over every run
        self.verdicts = verdicts  # assertion node id -> bool (verified)
        self.interference = interference  # see _publish
        self.identity_nodes = identity_nodes  # mask, off-slice under pruning

    def verified_assertions(self) -> set:
        return {n for n, ok in self.verdicts.items() if ok}

    def all_verified(self) -> bool:
        return all(self.verdicts.values())

    def interference_env(self, tid: int) -> AbstractEnv:
        """Per-variable summary of what the thread publishes: each stored
        variable maps to the join of its stores' values."""
        own = self.model.thread(tid).mask
        return AbstractEnv({var: pub.join(own) for var, pub in
                            self.interference.items() if pub.mask & own})


# --- shared helpers -----------------------------------------------------------

def _entry_env(model: ProgramModel, cfg: ThreadCfg, te: dict) -> AbstractEnv:
    """Entry state of a thread: globals from the creating thread's state
    at the create site (the program initializers for the entry thread),
    parameters bound to their constant arguments, and the locals of
    `cfg.unassigned_locals` bound to 0."""
    if cfg.creation_site is None:
        env = AbstractEnv({name: const(init)
                           for name, init in model.globals.items()})
    else:
        parent_state = te.get(cfg.creation_site, AbstractEnv.bot())
        if parent_state.bottom:
            return AbstractEnv.bot()
        env = parent_state.project(model.globals)
    for param, value in cfg.params.items():
        env = env.set(param, const(value))
    for name in cfg.unassigned_locals:
        env = env.set(name, const(0))
    return env


def _merge_te(te: dict, envs: list, base: int) -> bool:
    """Fold a run's states, by node id relative to `base`, into `te`;
    whether any state grew.  A bottom state, or the very object `te`
    holds (as a shared prefix's states are), adds nothing to a node.  A
    node whose held and run states are the very objects of the last join
    takes that join's result, so nodes sharing both states keep sharing
    one object."""
    grew = False
    held = run = joined = None  # the operands of the last join, its result
    for node, env in enumerate(envs, base):
        old = te.get(node)
        if env is old or env.bottom and old is not None:
            continue
        if old is not held or env is not run:
            held, run = old, env
            # old itself if env adds nothing
            joined = env if old is None else old.join(env)
        if joined is not old:
            te[node] = joined
            grew = True
    return grew


class Published(Record):
    """One variable's interference table: `sources`, each published store
    node -> its `StoreSource`, shared by every reader, in node order,
    their `mask`, and `values`, each value they publish -> the mask of
    the stores that publish it, in order of each value's first store."""
    __slots__ = ("sources", "mask", "values")

    def __init__(self, sources=()):  # (store node, source) in node order
        self.sources, self.mask, self.values = dict(sources), 0, {}
        for n, source in self.sources.items():
            self.mask |= (bit := 1 << n)
            self.values[source.value] = self.values.get(source.value, 0) | bit

    def join(self, stores: int):
        """The join of the values the mask `stores` publishes, or None: their
        hull, as no published value is empty."""
        values = [v for v, mask in self.values.items() if mask & stores]
        if not values:
            return None
        return _make(min(v.lo for v in values), max(v.hi for v in values))


_UNPUBLISHED = Published()  # what a variable no store publishes reads


def _publish(model, te, iteration, config, steps, index):
    """Republish interference from the accumulated node states into
    `index`, the table loads read: per variable, its `Published`.  Each
    store of a thread's step table (`steps`, by tid) publishes the value
    it writes, its compiled expression read on the store's state, joined
    with its old value and widened across outer iterations once past the
    delay.  Join and widening return the old value itself when the new
    one adds nothing, so a store's source is new exactly when its value
    is, and only a variable with a new source gets a new `Published`, its
    other stores' sources kept.  Returns whether it added or replaced any
    `Published`."""
    new = {}  # variable -> {store node: its new source}
    for cfg in model.threads:
        thread_steps, base = steps[cfg.tid], cfg.first_node
        for r, var, written in thread_steps.stores:
            n = r + base
            pre = te.get(n)
            if pre is None or pre.bottom:
                continue
            value = written(pre)
            old = index.get(var, _UNPUBLISHED).sources.get(n)
            if old is not None:
                value = old.value.join(value)
                if iteration > config.widening_delay:
                    value = old.value.widen(value)
                if value is old.value:
                    continue
            new.setdefault(var, {})[n] = StoreSource(n, value)
    for var, sources in new.items():  # a newly published store sorts in
        index[var] = Published(sorted(
            {**index.get(var, _UNPUBLISHED).sources, **sources}.items()))
    return bool(new)


def _run_key(table, init, policy):
    """What an interpreter run reads: its step table, its entry state and
    its policy, whose sources compare by the values they supply."""
    return table, init, policy


# --- interference combinations ---------------------------------------------------

def compute_combinations(cfg: ThreadCfg, index: dict,
                         facts: FeasibilityEngine, plan: dict,
                         feasibility: bool = False,
                         combo_cap: int = AnalysisConfig.combo_cap,
                         merged: bool = False):
    """The policies of one thread's runs, built from `index` (see
    `_publish`): tuples of its sources, in the step table's load order.
    Returns (policies, generated, rejected, runs).

    A load's candidates are a mask of the remote stores to its variable.
    Under `merged` every load, and otherwise a load on a cycle less the
    stores forced after it, reads the join of their distinct values (its
    own value if there are none); `merged` gives one policy, counted as
    none generated, and leaves `facts` unused.  Another load reads one
    candidate or its own value, less what `facts.refuted` finds under
    `feasibility` (its own value goes with `init:<var>`).

    Each cluster of `plan[cfg.tid]` (the thread's active loads: see
    `pdg.cluster` under slicing, one cluster of all its loads otherwise)
    is a product, the first load varying fastest, and the clusters are
    zipped: run k takes each cluster's k-th combination, loads past the
    end of their cluster's list read their own value.  With one cluster
    a load reads each value once, from its lowest candidate storing it,
    in the order of those stores; under `feasibility` only in a one-load
    cluster, as each combination of several loads is checked on the
    ReadsFrom pairs its sources pin: a store source its store, a self
    source its load's pair in `facts.initial_loads`, if any.
    `generated`, `rejected`, `runs` and the `combo_cap` check count the
    full per-store product.
    """
    groups = plan[cfg.tid]
    if not groups:  # no load is on the slice
        return [()], 1, 0, 1
    remote = ~cfg.mask
    clusters = []  # (loads, combinations), each in the cluster's order
    generated = rejected = runs = 0
    for group in groups:
        total = kept = 1
        checked = feasibility and len(group) > 1
        per_store = len(groups) > 1 or checked
        options = []  # per load, its sources
        for l in group:
            var = cfg.nodes[l].stmt.var
            published = index.get(var, _UNPUBLISHED)
            stores = published.mask & remote
            if merged or cfg.reach[l] >> l & 1:
                if not merged:
                    stores &= ~facts.rows.weak[l]
                value = published.join(stores)
                options.append([SelfSource() if value is None
                                else MergedSource(value)])
                continue
            total *= stores.bit_count() + 1
            if total > combo_cap:
                raise CombinationBudgetExceeded(
                    f"{cfg.name}: {total}+ interference combinations "
                    f"(cap {combo_cap}); consider clustering")
            refuted = facts.refuted(l) if feasibility else 0
            stores &= ~refuted
            own = not refuted >> facts.model.init_nodes[var] & 1  # self source
            kept *= stores.bit_count() + own
            if not per_store:  # each value from its lowest store
                stores = sum(m & -m for mask in published.values.values()
                             if (m := mask & stores))
            sources = [published.sources[n] for n in bits(stores)]
            if own:
                sources.append(SelfSource())
            options.append(sources)
        combos = [c[::-1] for c in itertools.product(*reversed(options))]
        if merged:
            return combos, 0, 0, 1
        if checked:
            combos = [c for c in combos if facts.is_feasible(frozenset(
                (l, s.store) if s.__class__ is StoreSource
                else facts.initial_loads.get(l)  # none for a merged load
                for l, s in zip(group, c)) - {None})]
            kept = len(combos)
        generated += total
        rejected += total - kept
        runs = max(runs, kept or 1)
        # a cluster whose every combination is refuted keeps the thread's
        # contribution sound with a self-only run
        clusters.append((group, combos or [(SelfSource(),) * len(group)]))
    if len(clusters) == 1:  # its loads are all the active ones, in order
        return clusters[0][1], generated, rejected, runs

    slot = {l: k for k, l in enumerate(sorted(itertools.chain(*groups)))}
    policies = []
    for k in range(max(len(combos) for _, combos in clusters)):
        policy = [SelfSource()] * len(slot)
        for group, combos in clusters:
            if k < len(combos):
                for l, source in zip(group, combos[k]):
                    policy[slot[l]] = source
        policies.append(tuple(policy))
    return policies, generated, rejected, runs


# --- the outer loop -------------------------------------------------------------

def analyze(model: ProgramModel, config: AnalysisConfig) -> AnalysisResult:
    row = MODE_ROWS.get(config.mode)
    if row is None:
        raise ValueError(f"unknown mode {config.mode!r}")
    facts = None if row.merged else FeasibilityEngine(model)

    identity_nodes = 0
    if row.slicing:
        graph = build_pdg(model)
        on_slice = backward_slices(graph, model)
        identity_nodes = apply_pruning(on_slice, model)
        plan = cluster(graph, on_slice, model)
    else:  # each thread's loads form one cluster
        plan = {cfg.tid: [loads_of(cfg)] for cfg in model.threads}

    te: dict = {}
    index: dict = {}  # variable -> Published, see _publish
    violable: set = set()
    seen: set = set()  # (tid, run key) of every scheduled run
    shared: dict = {}  # run key -> every executed run
    prefixes: dict = {}  # (step table, entry) -> state at first consult
    entries: dict = {}  # tid -> (create-site state, the entry built from it)
    compiled: dict = {}  # (routine, relative identity mask) -> step table
    steps = {}  # tid -> its thread's step table
    for cfg in model.threads:
        identity = (identity_nodes & cfg.mask) >> cfg.first_node
        key = cfg.routine, identity
        if key not in compiled:
            compiled[key] = StepTable(cfg, identity)
        steps[cfg.tid] = compiled[key]
    stats = AnalysisStats()
    stats.pruned_loads = (identity_nodes
                          & sum(model.loads.values())).bit_count()
    stats.clusters = sum(map(len, plan.values())) if row.slicing else 0

    repeated = None  # the last iteration's stats, if this one repeats it
    for iteration in itertools.count(1):
        if iteration > config.outer_budget:
            raise AnalysisBudgetExceeded(
                "flow-%s loop exceeded %d iterations"
                % ("insensitive" if row.merged else "sensitive",
                   config.outer_budget))
        stats.outer_iters = iteration
        if repeated is not None:
            # this iteration would schedule the last one's runs, every one
            # already seen, and publish nothing: count them and stop
            stats.per_iteration.append(repeated)
            break
        grew = False
        iter_stats = IterationStats()

        for cfg in model.threads:
            # the first iteration has no interference published yet:
            # run the self-only combination unfiltered to bootstrap
            policies, generated, rejected, runs = compute_combinations(
                cfg, index, facts, plan,
                feasibility=row.feasibility and iteration > 1,
                combo_cap=config.combo_cap, merged=row.merged)
            iter_stats.combos[cfg.tid] = generated
            iter_stats.infeasible[cfg.tid] = rejected

            # _merge_te replaces a state exactly when it grows, so an entry
            # is rebuilt only for a new create-site state object
            site = te.get(cfg.creation_site)
            entry = entries.get(cfg.tid)
            if entry is None or entry[0] is not site:
                entry = entries[cfg.tid] = site, _entry_env(model, cfg, te)
            init = entry[1]
            for policy in policies:
                # a run is a deterministic function of its key and is folded
                # in by join: skip an input this thread already ran, and
                # replay another instance's run, which is by relative id
                key = _run_key(steps[cfg.tid], init, policy)
                scheduled = len(seen)
                seen.add((cfg.tid, key))  # hashed once
                if len(seen) == scheduled:
                    continue
                run = shared.get(key)
                if run is None:
                    run = shared[key] = analyze_thread(
                        cfg, init, policy,
                        widening_delay=config.widening_delay,
                        narrowing_passes=config.narrowing_passes,
                        table=steps[cfg.tid], prefixes=prefixes)
                    stats.interp_runs += 1
                grew |= _merge_te(te, run.envs, cfg.first_node)
                if run.violable:
                    violable.update(n + cfg.first_node for n in run.violable)
            iter_stats.runs += runs

        replaced = _publish(model, te, iteration, config, steps, index)
        stats.per_iteration.append(iter_stats)
        if not grew:
            break
        # with the table's entries and the feasibility flag unchanged, the
        # next iteration builds this one's policies, from its entry objects
        if not replaced and (iteration > 1 or not row.feasibility):
            repeated = iter_stats

    for it in stats.per_iteration:
        stats.runs += it.runs
        stats.combos += sum(it.combos.values())
        stats.infeasible += sum(it.infeasible.values())
    verdicts = {n: n not in violable for n in model.assertions}
    return AnalysisResult(model, te, verdicts, stats, index,
                          identity_nodes=identity_nodes)
