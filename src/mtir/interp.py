"""Worklist abstract interpreter for one thread CFG.

A run takes a `PerLoad` policy that pins every load node to one source
of the shared-memory value it reads:

  * SelfSource   - the thread-local binding
  * StoreSource  - one remote store's published post-state
  * MergedSource - the local binding joined with a pre-joined merge of
                   remote stores to the variable: all of them under
                   `fi`, or, for a load on a cycle, those not forced
                   after it
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .cfg import SAssert, SLoad, ThreadCfg
from .domain import AbstractEnv, compile_filter, compile_transfer
from .errors import AnalysisBudgetExceeded


# --- load sources and policies ------------------------------------------------

@dataclass(frozen=True)
class SelfSource:
    """Read the thread-local environment."""


@dataclass(frozen=True)
class StoreSource:
    """Read one remote store's published post-state."""
    store: int
    env: AbstractEnv


@dataclass(frozen=True)
class MergedSource:
    """Read the local environment joined with a merge of remote stores;
    `env` binds only the loaded variable."""
    env: AbstractEnv


@dataclass(frozen=True)
class PerLoad:
    sources: dict  # load node id -> source


def _apply_load(node_id, stmt, env, policy):
    source = policy.sources.get(node_id)
    if source is None:
        raise KeyError(f"combination does not cover load node {node_id}")
    if isinstance(source, SelfSource):
        value = env.get(stmt.var)
    elif isinstance(source, StoreSource):
        value = source.env.get(stmt.var)
    else:
        value = env.get(stmt.var).join(source.env.get(stmt.var))
    return env.set(stmt.target, value)


class StepTable:
    """A routine's statements compiled once for every mode and instance,
    by node id relative to the instance's first node: each node's
    transfer (a load's reads the thread-local binding; a run's policy
    picks its source) and out edges with their filters (None if
    unconditional), the loads, and each assertion with the filter of its
    negated condition."""

    def __init__(self, cfg: ThreadCfg):
        base = cfg.first_node
        self.transfer, self.succs, self.loads, self.violable = {}, {}, {}, {}
        for n, node in cfg.nodes.items():
            r, stmt = n - base, node.stmt
            self.transfer[r] = compile_transfer(stmt)
            self.succs[r] = [(dst - base, None if filt is None
                              else compile_filter(filt[1], filt[2]))
                             for dst, filt in cfg.succs[n]]
            if isinstance(stmt, SLoad):
                self.loads[r] = stmt
            elif isinstance(stmt, SAssert):
                self.violable[r] = compile_filter(stmt.cond, False)


def _node_out(table, n, base, env, policy, identity_nodes):
    """Post-state of node n of the instance starting at `base`, from
    pre-state env; identity nodes pass their state through."""
    if n in identity_nodes or env.bottom:
        return env
    if n - base in table.loads:
        return _apply_load(n, table.loads[n - base], env, policy)
    return table.transfer[n - base](env)


def _edge_env(n, filt, out, identity_nodes):
    """State along an edge of n; identity nodes' branches do not filter."""
    if filt is None or n in identity_nodes:
        return out
    return filt(out)


# --- fixpoint engine ------------------------------------------------------------

@dataclass
class ThreadRun:
    """Result of one interpreter run: pre-state per node plus the
    assertion nodes this run could not prove."""
    envs: dict  # node id -> AbstractEnv (state immediately before the node)
    violable: set = field(default_factory=set)
    resumed: bool = field(default=False, compare=False)  # from a prefix


@dataclass
class AnalysisConfig:
    """One analysis's mode and budgets; `analyze_thread` defaults to them."""
    mode: str = "fsc"
    widening_delay: int = 3
    narrowing_passes: int = 1
    outer_budget: int = 64
    combo_cap: int = 4096


VISIT_BUDGET = 200_000  # worklist visits per run before giving up


@dataclass
class _Prefix:
    """A run's ascending state just before its first policy consult."""
    envs: dict
    updates: dict
    worklist: deque  # the consulting load at its front
    queued: set
    visits: int
    widened: bool


def analyze_thread(cfg: ThreadCfg, init: AbstractEnv, policy,
                   widening_delay: int = AnalysisConfig.widening_delay,
                   narrowing_passes: int = AnalysisConfig.narrowing_passes,
                   identity_nodes: frozenset = frozenset(),
                   prefixes: dict | None = None) -> ThreadRun:
    """Run the worklist fixpoint over one thread from the given entry state.

    Widening fires at loop heads (back-edge targets) once a node has been
    updated more than `widening_delay` times; a bounded descending pass
    then narrows the widened bounds back where the loop body permits.
    Without a widening each node's state is already the join of its final
    incoming edges, so the pass is skipped.
    Nodes in `identity_nodes` (off-slice statements under pruning) pass
    their state through unchanged and their branch edges do not filter.

    A run is resumable.  Until it pops a load that is not an identity
    node and whose state is not bottom, it has not consulted `policy`, so
    what it computed is a function of the thread, `init`, the identity
    nodes and the widening delay alone.  At that first consult, unless it
    is the first visit, the run stores its worklist state in `prefixes`
    under `(cfg.tid, init)`; a later run of the thread from an equal
    entry state copies that state and goes on from there, so it visits,
    widens and exceeds the visit budget exactly where a fresh run would.
    `prefixes` must belong to one analysis, with fixed identity nodes and
    widening delay; by default the prefix is stored in a dict of its own.
    """
    envs = dict.fromkeys(cfg.nodes, AbstractEnv.bot())
    envs[cfg.entry] = init
    if init.bottom:
        return ThreadRun(envs)

    table, base = cfg.steps, cfg.first_node
    widen_points = cfg.loop_heads
    prefixes = {} if prefixes is None else prefixes
    key = cfg.tid, init
    prefix = prefixes.get(key)
    if prefix is None:
        updates = dict.fromkeys(cfg.nodes, 0)
        worklist = deque([cfg.entry])
        queued = {cfg.entry}
        visits, widened = 0, False
    else:
        envs, updates = dict(prefix.envs), dict(prefix.updates)
        worklist, queued = deque(prefix.worklist), set(prefix.queued)
        visits, widened = prefix.visits, prefix.widened
    recording = prefix is None  # until the first consult
    budget = VISIT_BUDGET

    while worklist:
        visits += 1
        if visits > budget:
            raise AnalysisBudgetExceeded(
                f"{cfg.name}: worklist exceeded {budget} visits")
        n = worklist.popleft()
        queued.discard(n)
        if recording and n - base in table.loads \
                and n not in identity_nodes and not envs[n].bottom:
            recording = False
            if visits > 1:
                prefixes[key] = _Prefix(
                    dict(envs), dict(updates), deque((n, *worklist)),
                    queued | {n}, visits - 1, widened)
        out = _node_out(table, n, base, envs[n], policy, identity_nodes)
        for dst, filt in table.succs[n - base]:
            dst += base
            incoming = _edge_env(n, filt, out, identity_nodes)
            if incoming.leq(envs[dst]):
                continue
            joined = envs[dst].join(incoming)
            if dst in widen_points and updates[dst] >= widening_delay:
                joined = envs[dst].widen(joined)
                widened = True
            envs[dst] = joined
            updates[dst] += 1
            if dst not in queued:
                worklist.append(dst)
                queued.add(dst)

    # descending sweeps, in place so a narrowed loop head refines its
    # successors within the same pass; each update keeps the post-fixpoint
    # property since predecessors can only shrink afterwards
    for _ in range(narrowing_passes if widened else 0):
        changed = False
        for n in cfg.node_order():
            if n == cfg.entry:
                continue
            incoming = AbstractEnv.bot()
            for p in cfg.preds[n]:
                out = _node_out(table, p, base, envs[p], policy,
                                identity_nodes)
                for dst, filt in table.succs[p - base]:
                    if dst + base == n:
                        incoming = incoming.join(
                            _edge_env(p, filt, out, identity_nodes))
            narrowed = envs[n].narrow(incoming)
            if narrowed != envs[n]:
                envs[n] = narrowed
                changed = True
        if not changed:
            break

    return ThreadRun(envs, {r + base for r, negated in table.violable.items()
                            if not negated(envs[r + base]).bottom},
                     resumed=prefix is not None)


def is_stable(cfg: ThreadCfg, run: ThreadRun, policy, init: AbstractEnv,
              identity_nodes: frozenset = frozenset()) -> bool:
    """Fixpoint check: one more sweep must change nothing."""
    if not init.leq(run.envs[cfg.entry]):
        return False
    table, base = cfg.steps, cfg.first_node
    for n in cfg.node_order():
        out = _node_out(table, n, base, run.envs[n], policy, identity_nodes)
        for dst, filt in table.succs[n - base]:
            if not _edge_env(n, filt, out, identity_nodes).leq(
                    run.envs[dst + base]):
                return False
    return True
