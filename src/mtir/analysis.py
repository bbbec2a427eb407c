"""The outer fixpoint composing the per-thread interpreter.

Every mode runs one loop.  Each outer iteration runs every thread once
per interference combination, which pins each of its loads to a source
(see `interp`), then republishes every store's post-state as
interference.  The loop stops when the interference table and the node
environments stop changing, widening interference environments after a
delay so it terminates on programs with unbounded data flow.

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
zip is the product, a load's sources that supply equal intervals give
one run key, so only the first is scheduled (under feasibility only for
one-load clusters).  `combos`, `infeasible` and `runs` still count the
full per-store product.

Interpreter runs are memoized on what they read: the routine, its entry
state and the interval each load observes (see `_run_key`).  A run is a
deterministic function of that input and its results are folded in by
join, so an input that already ran in the same analysis is skipped.
Every executed run goes into one table, keyed the same way for every
thread: instances of one routine, one graph up to a shift of node ids,
replay each other's runs.  `stats.runs` counts the runs of the uncollapsed
schedule, `stats.interp_runs` those executed.

An executed run also shares the work before its first read of shared
memory.  Up to the first load it reads through its combination, a run
depends only on its thread and entry state (identity nodes and widening
delay are fixed in one analysis), so the first run of a thread from an
entry state stores its worklist state at that load and every later run
from an equal state resumes there (see `interp.analyze_thread`).  Resumed
runs compute exactly what fresh runs compute; `stats.resumed_runs` counts
them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .cfg import ProgramModel, ThreadCfg, is_load, is_store, loads_of
from .domain import AbstractEnv, Interval, const
from .errors import AnalysisBudgetExceeded, CombinationBudgetExceeded
from .facts import FeasibilityEngine
from .interp import (
    AnalysisConfig, MergedSource, PerLoad, SelfSource, StoreSource,
    analyze_thread,
)
from .pdg import apply_pruning, backward_slices, build_pdg, cluster


@dataclass(frozen=True)
class Mode:
    merged: bool       # one merged source per load, not one per store
    feasibility: bool  # drop combinations the ordering facts refute
    slicing: bool      # property slicing and dependence clustering


MODE_ROWS = {
    "fi": Mode(merged=True, feasibility=False, slicing=False),
    "fs": Mode(merged=False, feasibility=False, slicing=False),
    "fsc": Mode(merged=False, feasibility=True, slicing=False),
    "fso": Mode(merged=False, feasibility=True, slicing=True),
}
MODES = tuple(MODE_ROWS)


@dataclass
class IterationStats:
    combos: dict = field(default_factory=dict)      # tid -> generated
    infeasible: dict = field(default_factory=dict)  # tid -> rejected
    runs: int = 0


@dataclass
class AnalysisStats:
    outer_iters: int = 0
    runs: int = 0
    interp_runs: int = 0
    resumed_runs: int = 0  # executed runs that resumed a stored prefix
    combos: int = 0
    infeasible: int = 0
    pruned_loads: int = 0
    clusters: int = 0
    wall_ms: float = 0.0
    per_iteration: list = field(default_factory=list)


@dataclass
class AnalysisResult:
    model: ProgramModel
    te: dict  # node id -> AbstractEnv, accumulated over every run
    verdicts: dict  # assertion node id -> bool (verified)
    stats: AnalysisStats
    interference: dict  # tid -> {store node -> AbstractEnv}
    identity_nodes: frozenset = frozenset()  # off-slice under pruning

    def verified_assertions(self) -> set:
        return {n for n, ok in self.verdicts.items() if ok}

    def all_verified(self) -> bool:
        return all(self.verdicts.values())

    def interference_env(self, tid: int) -> AbstractEnv:
        """Per-variable summary of what the thread publishes: each stored
        variable maps to the join of its stored values."""
        values: dict[str, Interval] = {}
        for store, env in self.interference.get(tid, {}).items():
            var = self.model.node(store).stmt.var
            got = env.get(var)
            values[var] = got if var not in values else values[var].join(got)
        return AbstractEnv(values)


# --- shared helpers -----------------------------------------------------------

def _initial_env(model: ProgramModel) -> AbstractEnv:
    return AbstractEnv({name: const(init)
                        for name, init in model.globals.items()})


def _entry_env(model: ProgramModel, cfg: ThreadCfg, te: dict) -> AbstractEnv:
    """Entry state of a thread: globals from the creating thread's state
    at the create site (the program initializers for the entry thread),
    parameters bound to their constant arguments."""
    if cfg.creation_site is None:
        env = _initial_env(model)
    else:
        parent_state = te.get(cfg.creation_site, AbstractEnv.bot())
        if parent_state.bottom:
            return AbstractEnv.bot()
        env = parent_state.project(set(model.globals))
    for param, value in cfg.params.items():
        env = env.set(param, const(value))
    return env


def _merge_te(te: dict, envs: dict, shift: int):
    for node, env in envs.items():
        old = te.get(node + shift)
        te[node + shift] = env if old is None else old.join(env)


def _publish(model, te, table, iteration, config, identity):
    """Republish interference from the accumulated node states: the
    post-state of every store but an identity node, joined per store
    node, widened across outer iterations once past the delay."""
    for cfg in model.threads:
        bucket = table.setdefault(cfg.tid, {})
        for n in cfg.node_order():
            node = cfg.nodes[n]
            if not is_store(node) or n in identity:
                continue
            pre = te.get(n)
            if pre is None or pre.bottom:
                continue
            post = cfg.steps.transfer[n - cfg.first_node](pre)
            old = bucket.get(n)
            if old is None:
                bucket[n] = post
            else:
                joined = old.join(post)
                if iteration > config.widening_delay:
                    joined = old.widen(joined)
                bucket[n] = joined


def _table_snapshot(table):
    return {tid: dict(bucket) for tid, bucket in table.items()}


def _run_key(cfg, init, policy, shape):
    """What an interpreter run reads: `shape` (the routine and its
    identity nodes), its entry state and, per load, the kind of
    source and the interval it supplies (none for a thread-local read), so
    value-equal stores give one key.  Merged stays apart from store because
    it joins with the local value.  Node ids are relative to the thread's
    first node."""
    base = cfg.first_node
    observed = tuple(
        (load - base, type(source), None if isinstance(source, SelfSource)
         else source.env.get(cfg.nodes[load].stmt.var))
        for load, source in sorted(policy.sources.items()))
    return shape, init, observed


# --- interference combinations ---------------------------------------------------

def _store_index(model, table):
    """Published stores per variable, (tid, source) in thread order then
    node order: one `StoreSource` per store, shared by every reader."""
    index = {}
    for cfg in model.threads:
        bucket = table[cfg.tid]
        for var, stores in cfg.stores_by_var.items():
            for s in stores:
                if s in bucket:
                    index.setdefault(var, []).append(
                        (cfg.tid, StoreSource(s, bucket[s])))
    return index


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
                    got = source.env.get(var)
                    joined = got if joined is None else joined.join(got)
            sources[l] = [SelfSource() if joined is None
                          else MergedSource(AbstractEnv({var: joined}))]
        else:
            sources[l] = matching + [SelfSource()]
    return sources


def _cartesian(loads, sources):
    """Cartesian product with the first load varying fastest, matching
    the order interference combinations are enumerated in."""
    rev = list(reversed(loads))
    return [dict(zip(rev, tup))
            for tup in itertools.product(*[sources[l] for l in rev])]


def _distinct_values(cfg, load, options):
    """The first store source of each interval, and every other source
    (one at most of each kind): what `_run_key` can tell apart."""
    var = cfg.nodes[load].stmt.var
    first = {}
    for source in options:
        key = (source.env.get(var) if isinstance(source, StoreSource)
               else type(source))
        first.setdefault(key, source)
    return list(first.values())


def compute_combinations(cfg: ThreadCfg, table: dict, model: ProgramModel,
                         facts: FeasibilityEngine,
                         feasibility: bool = False,
                         plan: dict | None = None,
                         identity: frozenset = frozenset(),
                         combo_cap: int = AnalysisConfig.combo_cap,
                         merged: bool = False,
                         index: dict | None = None):
    """Build the interference combinations for one thread.

    Returns (combinations, generated, rejected, runs).  With `merged`
    there is one combination, counted as none generated, and `facts` is
    unused.  Otherwise the per-cluster combination lists are zipped: run
    k takes each cluster's k-th combination, loads past the end of their
    cluster's list read their own value, so the number of runs is the
    maximum cluster list length instead of the product.  The clusters
    are `plan[cfg.tid]` (see `pdg.cluster`); without a plan the thread's
    active loads are one cluster, so its combinations are the plain
    product.  Loads in `identity` are off the slice and get no source.
    `index` is the table's `_store_index`, built here if not given.

    With `feasibility`, refuted sources are dropped first and only
    combinations of several loads are checked one by one.  With one
    cluster, only the first of a load's value-equal sources is kept;
    under `feasibility` only in a one-load cluster, as two stores' order
    facts differ.  `generated`, `rejected`, `runs` and the `combo_cap`
    check count the full per-store product.
    """
    active = [l for l in loads_of(cfg) if l not in identity]
    index = _store_index(model, table) if index is None else index
    sources = _source_lists(cfg, index, facts, active, merged)
    if merged:
        return [{l: options[0] for l, options in sources.items()}], 0, 0, 1

    groups = [active] if plan is None else plan.get(cfg.tid, [])
    groups = [g for g in ([l for l in group if l in sources]
                          for group in groups) if g]
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
                options = {l: _distinct_values(cfg, l, options[l])
                           for l in group}
            combos = _cartesian(group, options)
        generated += total
        rejected += total - kept
        runs = max(runs, kept or 1)
        # a cluster whose every combination is refuted keeps the thread's
        # contribution sound with a self-only run
        per_cluster.append(combos or [{}])

    zipped = []
    self_only = dict.fromkeys(active, SelfSource())
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
    table: dict = {cfg.tid: {} for cfg in model.threads}
    violable: set = set()
    seen: set = set()  # (tid, run key) of every scheduled run
    shared: dict = {}  # run key -> (first node, run) of every executed run
    prefixes: dict = {}  # (tid, entry state) -> run state at first consult
    # instances of one routine share a shape: one graph up to node ids
    shapes = {
        cfg.tid: (cfg.routine,
                  frozenset(n - cfg.first_node
                            for n in identity_nodes.intersection(cfg.nodes)))
        for cfg in model.threads}
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
        before_table = _table_snapshot(table)
        before_te = dict(te)
        iter_stats = IterationStats()
        index = _store_index(model, table)  # the table changes at _publish

        for cfg in model.threads:
            # the first iteration has no interference published yet:
            # run the self-only combination unfiltered to bootstrap
            combos, generated, rejected, runs = compute_combinations(
                cfg, table, model, facts,
                feasibility=row.feasibility and iteration > 1,
                plan=plan, identity=identity_nodes,
                combo_cap=config.combo_cap, merged=row.merged, index=index)
            iter_stats.combos[cfg.tid] = generated
            iter_stats.infeasible[cfg.tid] = rejected
            stats.combos += generated
            stats.infeasible += rejected

            init = _entry_env(model, cfg, te)
            for combo in combos:
                # a run is a deterministic function of its key and is folded
                # in by join: skip an input this thread already ran, and
                # replay another instance's run shifted by node ids
                policy = PerLoad(combo)
                key = _run_key(cfg, init, policy, shapes[cfg.tid])
                if (cfg.tid, key) in seen:
                    continue
                seen.add((cfg.tid, key))
                hit = shared.get(key)
                if hit is None:
                    hit = cfg.first_node, analyze_thread(
                        cfg, init, policy,
                        widening_delay=config.widening_delay,
                        narrowing_passes=config.narrowing_passes,
                        identity_nodes=identity_nodes, prefixes=prefixes)
                    shared[key] = hit
                    stats.interp_runs += 1
                    stats.resumed_runs += hit[1].resumed
                base, run = hit
                shift = cfg.first_node - base
                _merge_te(te, run.envs, shift)
                violable.update(n + shift for n in run.violable)
            stats.runs += runs
            iter_stats.runs += runs

        _publish(model, te, table, iteration, config, identity_nodes)
        stats.per_iteration.append(iter_stats)
        if table == before_table and te == before_te:
            break

    verdicts = {n: n not in violable for n in model.assertions}
    return AnalysisResult(model, te, verdicts, stats, table,
                          identity_nodes=identity_nodes)
