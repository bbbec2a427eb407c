"""The outer fixpoint composing the per-routine interpreter.

Every mode runs one loop.  Each outer iteration runs every thread once
per interference combination, which pins each of its loads to a source
(see `interp`), then republishes the value every store writes as
interference, widened after a delay so the loop terminates on programs
with unbounded data flow.  The loop stops when an iteration grows no
node environment: a store's published value can only grow in an
iteration that grows its node's state.

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
thread's active loads form a single cluster, whose zip is its product.
Feasibility depends on order alone, so fsc and fso drop each load's
refuted sources (found once per engine) before the product.  Where the
zip is the product, a load's sources that supply equal intervals are
equal (a source compares by what it reads), so only the first is
scheduled (under feasibility only for one-load clusters).  `combos`,
`infeasible` and `runs` still count the full per-store product.

Interpreter runs are memoized on what they read: the step table (the
routine compiled with its off-slice statements as identity, see
`interp.StepTable`), its entry state and its policy, the tuple of its
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
fixed in one analysis), so the first run from those stores its worklist
state at that load and every later run from equal ones, on any instance
of the routine, resumes there (see `interp.analyze_thread`).  Resumed
runs compute exactly what fresh runs compute; `stats.resumed_runs`
counts them.

The descending pass after a widening is shared the same way.  The nodes
no node of the worklist at that load can reach have their final states
there and read no combination, so how each sweep narrows them is stored
with the prefix by the first run that sweeps, and later runs copy it and
narrow only the nodes the load can affect.
"""

from __future__ import annotations

import itertools
import math

from .cfg import ProgramModel, ThreadCfg, is_load, loads_of
from .domain import AbstractEnv, Interval, const
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
    __slots__ = ("outer_iters", "runs", "interp_runs", "resumed_runs",
                 "combos", "infeasible", "pruned_loads", "clusters",
                 "per_iteration")

    def __init__(self):
        self.outer_iters = self.runs = self.interp_runs = 0
        self.resumed_runs = 0  # executed runs that resumed a stored prefix
        self.combos = self.infeasible = self.pruned_loads = self.clusters = 0
        self.per_iteration: list = []


class AnalysisResult(Record):
    __slots__ = ("model", "te", "verdicts", "stats", "interference",
                 "identity_nodes")

    def __init__(self, model: ProgramModel, te: dict, verdicts: dict,
                 stats: AnalysisStats, interference: dict,
                 identity_nodes: frozenset = frozenset()):
        self.model, self.stats = model, stats
        self.te = te  # node id -> AbstractEnv, accumulated over every run
        self.verdicts = verdicts  # assertion node id -> bool (verified)
        self.interference = interference  # see _publish
        self.identity_nodes = identity_nodes  # off-slice under pruning

    def verified_assertions(self) -> set:
        return {n for n, ok in self.verdicts.items() if ok}

    def all_verified(self) -> bool:
        return all(self.verdicts.values())

    def interference_env(self, tid: int) -> AbstractEnv:
        """Per-variable summary of what the thread publishes: each stored
        variable maps to the join of its stores' values."""
        values: dict[str, Interval] = {}
        for var, sources in self.interference.items():
            for writer, source in sources:
                if writer == tid:
                    values[var] = source.value if var not in values \
                        else values[var].join(source.value)
        return AbstractEnv(values)


# --- shared helpers -----------------------------------------------------------

def _initial_env(model: ProgramModel) -> AbstractEnv:
    return AbstractEnv({name: const(init)
                        for name, init in model.globals.items()})


def _entry_env(model: ProgramModel, cfg: ThreadCfg, te: dict,
               steps: StepTable) -> AbstractEnv:
    """Entry state of a thread: globals from the creating thread's state
    at the create site (the program initializers for the entry thread),
    parameters bound to their constant arguments, and the locals of
    `steps.unassigned_locals` bound to 0."""
    if cfg.creation_site is None:
        env = _initial_env(model)
    else:
        parent_state = te.get(cfg.creation_site, AbstractEnv.bot())
        if parent_state.bottom:
            return AbstractEnv.bot()
        env = parent_state.project(set(model.globals))
    for param, value in cfg.params.items():
        env = env.set(param, const(value))
    for name in steps.unassigned_locals:
        env = env.set(name, const(0))
    return env


def _merge_te(te: dict, envs: list, base: int) -> bool:
    """Fold a run's states, by node id relative to `base`, into `te`;
    whether any state grew."""
    grew = False
    for node, env in enumerate(envs, base):
        old = te.get(node)
        new = env if old is None else old.join(env)  # old if env adds nothing
        if new is not old and new != old:
            te[node] = new
            grew = True
    return grew


def _publish(model, te, published, iteration, config, steps) -> dict:
    """Republish interference from the accumulated node states: the value
    each store of a thread's step table (`steps`, by tid) writes, joined
    into `published` (store node -> `Interval`) and widened across outer
    iterations once past the delay.  Returns the index loads read: per
    variable, one `StoreSource` per published store, shared by every
    reader, as (tid, source) in thread order then node order."""
    index = {}
    for cfg in model.threads:
        thread_steps, base = steps[cfg.tid], cfg.first_node
        for r in thread_steps.stores:
            n = r + base
            pre = te.get(n)
            if pre is None or pre.bottom:
                continue
            var = cfg.nodes[n].stmt.var
            value = thread_steps.transfer[r](pre).get(var)
            old = published.get(n)
            if old is not None:
                value = old.join(value)
                if iteration > config.widening_delay:
                    value = old.widen(value)
            published[n] = value
            index.setdefault(var, []).append((cfg.tid, StoreSource(n, value)))
    return index


def _run_key(table, init, policy):
    """What an interpreter run reads: its step table, its entry state and
    its policy, whose sources compare by the values they supply."""
    return table, init, policy


# --- interference combinations ---------------------------------------------------

def _source_lists(cfg, index, facts, active_loads, merged):
    """Candidate sources per load, in published-store order with the self
    source last.  A load gets one merged source instead, the join of the
    remote stores to its variable (the self source if there are none),
    under the merged row, where it takes every store, and when it is on a
    cycle, where it leaves out the stores forced after it."""
    sources = {}
    for l in active_loads:
        var = cfg.nodes[l].stmt.var
        matching = [source for tid, source in index.get(var, ())
                    if tid != cfg.tid]
        if merged or cfg.reach[l] >> l & 1:
            joined = None
            for source in matching:
                if merged or not facts.must_happen_before(l, source.store):
                    joined = source.value if joined is None \
                        else joined.join(source.value)
            sources[l] = [SelfSource() if joined is None
                          else MergedSource(joined)]
        else:
            sources[l] = matching + [SelfSource()]
    return sources


def _cartesian(loads, sources):
    """Cartesian product with the first load varying fastest, matching
    the order interference combinations are enumerated in."""
    rev = list(reversed(loads))
    return [dict(zip(rev, tup))
            for tup in itertools.product(*[sources[l] for l in rev])]


def compute_combinations(cfg: ThreadCfg, index: dict,
                         facts: FeasibilityEngine,
                         feasibility: bool = False,
                         plan: dict | None = None,
                         combo_cap: int = AnalysisConfig.combo_cap,
                         merged: bool = False):
    """Build the interference combinations for one thread from `index`,
    the published stores per variable (see `_publish`).

    Returns (combinations, generated, rejected, runs).  With `merged`
    there is one combination, counted as none generated, and `facts` is
    unused.  Otherwise the per-cluster combination lists are zipped: run
    k takes each cluster's k-th combination, loads past the end of their
    cluster's list read their own value, so the number of runs is the
    maximum cluster list length instead of the product.  The clusters
    are `plan[cfg.tid]` (see `pdg.cluster`), which holds the on-slice
    loads alone; without a plan every load is active and all are one
    cluster, so the combinations are the plain product.

    With `feasibility`, refuted sources are dropped first and only
    combinations of several loads are checked one by one.  With one
    cluster, only the first of a load's value-equal sources is kept;
    under `feasibility` only in a one-load cluster, as two stores' order
    facts differ.  `generated`, `rejected`, `runs` and the `combo_cap`
    check count the full per-store product.
    """
    groups = [loads_of(cfg)] if plan is None else plan.get(cfg.tid, [])
    active = [l for group in groups for l in group]
    sources = _source_lists(cfg, index, facts, active, merged)
    if merged:
        return [{l: options[0] for l, options in sources.items()}], 0, 0, 1

    per_cluster = []
    generated = rejected = runs = 0
    for group in groups:
        total = 1
        for l in group:
            total *= len(sources[l])
            if total > combo_cap:
                raise CombinationBudgetExceeded(
                    f"{cfg.name}: {total}+ interference combinations "
                    f"(cap {combo_cap}); consider clustering")
        options = {l: (facts.unrefuted(l, sources[l]) if feasibility
                       else sources[l]) for l in group}
        if feasibility and len(group) > 1:
            combos = [combo for combo in _cartesian(group, options)
                      if facts.is_feasible(combo)]
            kept = len(combos)
        else:
            kept = math.prod(len(options[l]) for l in group)
            if len(groups) == 1:
                options = {l: list(dict.fromkeys(options[l]))
                           for l in group}
            combos = _cartesian(group, options)
        generated += total
        rejected += total - kept
        runs = max(runs, kept or 1)
        # a cluster whose every combination is refuted keeps the thread's
        # contribution sound with a self-only run
        per_cluster.append(combos or [{}])

    zipped = []
    self_only = dict.fromkeys(sorted(active), SelfSource())
    for k in range(max(map(len, per_cluster), default=1)):
        combo = dict(self_only)
        for combos in per_cluster:
            if k < len(combos):
                combo.update(combos[k])
        zipped.append(combo)
    # with no cluster, the one background-only combination
    return zipped, generated or 1, rejected, runs or 1


# --- the outer loop -------------------------------------------------------------

def analyze(model: ProgramModel, config: AnalysisConfig) -> AnalysisResult:
    row = MODE_ROWS.get(config.mode)
    if row is None:
        raise ValueError(f"unknown mode {config.mode!r}")
    facts = None if row.merged else FeasibilityEngine(model)

    identity_nodes = frozenset()
    plan = None
    if row.slicing:
        graph = build_pdg(model)
        on_slice = backward_slices(graph, model)
        identity_nodes = apply_pruning(on_slice, model)
        plan = cluster(graph, on_slice, model)

    te: dict = {}
    published: dict = {}  # store node -> the value it writes
    index: dict = {}  # variable -> [(tid, StoreSource)], see _publish
    violable: set = set()
    seen: set = set()  # (tid, run key) of every scheduled run
    shared: dict = {}  # run key -> every executed run
    prefixes: dict = {}  # (step table, entry) -> state at first consult
    compiled: dict = {}  # (routine, relative identity nodes) -> step table
    steps = {}  # tid -> its thread's step table
    for cfg in model.threads:
        identity = frozenset(n - cfg.first_node
                             for n in identity_nodes.intersection(cfg.nodes))
        key = cfg.routine, identity
        if key not in compiled:
            compiled[key] = StepTable(cfg, identity) if identity else cfg.steps
        steps[cfg.tid] = compiled[key]
    stats = AnalysisStats()
    stats.pruned_loads = sum(is_load(model.node(n)) for n in identity_nodes)
    stats.clusters = sum(map(len, plan.values())) if plan else 0

    for iteration in itertools.count(1):
        if iteration > config.outer_budget:
            raise AnalysisBudgetExceeded(
                "flow-%s loop exceeded %d iterations"
                % ("insensitive" if row.merged else "sensitive",
                   config.outer_budget))
        stats.outer_iters = iteration
        grew = False
        iter_stats = IterationStats()

        for cfg in model.threads:
            # the first iteration has no interference published yet:
            # run the self-only combination unfiltered to bootstrap
            combos, generated, rejected, runs = compute_combinations(
                cfg, index, facts,
                feasibility=row.feasibility and iteration > 1,
                plan=plan, combo_cap=config.combo_cap, merged=row.merged)
            iter_stats.combos[cfg.tid] = generated
            iter_stats.infeasible[cfg.tid] = rejected
            stats.combos += generated
            stats.infeasible += rejected

            init = _entry_env(model, cfg, te, steps[cfg.tid])
            for combo in combos:
                # a run is a deterministic function of its key and is folded
                # in by join: skip an input this thread already ran, and
                # replay another instance's run, which is by relative id;
                # a combination lists its loads in node order, the table's
                policy = tuple(combo.values())
                key = _run_key(steps[cfg.tid], init, policy)
                if (cfg.tid, key) in seen:
                    continue
                seen.add((cfg.tid, key))
                run = shared.get(key)
                if run is None:
                    run = shared[key] = analyze_thread(
                        cfg, init, policy,
                        widening_delay=config.widening_delay,
                        narrowing_passes=config.narrowing_passes,
                        table=steps[cfg.tid], prefixes=prefixes)
                    stats.interp_runs += 1
                    stats.resumed_runs += run.resumed
                grew |= _merge_te(te, run.envs, cfg.first_node)
                violable.update(n + cfg.first_node for n in run.violable)
            stats.runs += runs
            iter_stats.runs += runs

        index = _publish(model, te, published, iteration, config, steps)
        stats.per_iteration.append(iter_stats)
        if not grew:
            break

    verdicts = {n: n not in violable for n in model.assertions}
    return AnalysisResult(model, te, verdicts, stats, index,
                          identity_nodes=identity_nodes)
