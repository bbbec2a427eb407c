"""Outside-in layer trace of the checker.

`instrument` swaps the checker's public entry points, at the module
attributes their callers look up, for wrappers that record a span
(name, start, end, parent) in memory plus a few counts.  Nothing under
`src/` is edited, and the originals are restored on exit.  A layer's
self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

MODES = ("fi", "fs", "fsc", "fso")
FLOW_SENSITIVE = ("fs", "fsc", "fso")
CONSTRAINED = ("fsc", "fso")

# (metric, unit, modes it exists in); named `<mode>.<metric>` in output
MODE_METRICS = (
    ("cli.self_s", "s", MODES),
    ("parser.parse_s", "s", MODES),
    ("cfg.build_model_s", "s", MODES),
    ("cfg.nodes", "count", MODES),
    ("analysis.self_s", "s", MODES),
    ("analysis.outer_iters", "count", MODES),
    ("analysis.runs", "count", MODES),
    ("analysis.combinations_s", "s", FLOW_SENSITIVE),
    ("analysis.combos", "count", FLOW_SENSITIVE),
    ("interp.s", "s", MODES),
    ("interp.runs", "count", MODES),
    ("interp.distinct_runs", "count", MODES),
    ("interp.useful_ratio", "ratio", MODES),
    ("facts.engine_init_s", "s", FLOW_SENSITIVE),
    ("facts.base_mhb", "count", FLOW_SENSITIVE),
    ("facts.fixpoint_s", "s", CONSTRAINED),
    ("facts.fixpoint_calls", "count", CONSTRAINED),
    ("facts.is_feasible_calls", "count", CONSTRAINED),
    ("facts.queries", "count", CONSTRAINED),
    ("facts.cache_hit_ratio", "ratio", CONSTRAINED),
    ("facts.reject_ratio", "ratio", CONSTRAINED),
    ("pdg.s", "s", ("fso",)),
    ("pdg.pruned_loads", "count", ("fso",)),
    ("pdg.clusters", "count", ("fso",)),
)
GLOBAL_METRICS = (
    ("oracle.enumerate_s", "s"),
    ("oracle.check_s", "s"),
    ("oracle.executions", "count"),
    ("oracle.skipped", "count"),
    ("trace.overhead_s", "s"),
)

# span name -> the self-time metric it feeds
SELF_TIME = {
    "cli": "cli.self_s",
    "parse": "parser.parse_s",
    "build_model": "cfg.build_model_s",
    "analyze": "analysis.self_s",
    "compute_combinations": "analysis.combinations_s",
    "analyze_thread": "interp.s",
    "engine_init": "facts.engine_init_s",
    "fixpoint": "facts.fixpoint_s",
    "build_pdg": "pdg.s",
    "backward_slices": "pdg.s",
    "apply_pruning": "pdg.s",
    "cluster": "pdg.s",
}
TIME_METRICS = frozenset(SELF_TIME.values())


def per_layer_names():
    """Every per-layer metric with its unit, in output order."""
    out = []
    for mode in MODES:
        for metric, unit, modes in MODE_METRICS:
            if mode in modes:
                out.append(("%s.%s" % (mode, metric), unit))
    out.extend(GLOBAL_METRICS)
    return out


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.counts = {}
        self.run_keys = set()  # distinct interpreter inputs of one analysis

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def end_analysis(self):
        self.count("interp.distinct_runs", len(self.run_keys))
        self.run_keys.clear()

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def layer_times(self):
        times = dict.fromkeys(TIME_METRICS, 0.0)
        for (name, *_), own in zip(self.spans, self.self_times()):
            if name in SELF_TIME:
                times[SELF_TIME[name]] += own
        return times


def _run_key(cfg, init, policy):
    """What an interpreter run reads: thread, entry state and, per load,
    the kind of source and the interval it supplies (none for a
    thread-local read).  Duck-typed, so it survives a reshuffle of the
    policy classes; a policy without per-load sources is its own key."""
    sources = getattr(policy, "sources", None)
    if sources is None:
        return cfg.tid, init, policy
    observed = []
    for load, source in sorted(sources.items()):
        env = getattr(source, "env", None)
        value = None if env is None else env.get(cfg.nodes[load].stmt.var)
        observed.append((load, type(source).__name__, value))
    return cfg.tid, init, tuple(observed)


@contextmanager
def instrument(tracer: Tracer):
    """Route the checker's entry points through `tracer` for the duration
    of the block."""
    import mtir.analysis
    import mtir.cli
    import mtir.facts

    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def spanned(owner, attr, name, after=None):
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(result, *args)
            return result

        patch(owner, attr, wrapper)

    def counted_model(model, *_):
        tracer.count("cfg.nodes", sum(1 for _ in model.all_nodes()))

    def counted_engine(engine, *_):
        tracer.count("facts.base_mhb", len(engine.base.relations["MHB"]))

    def counted_run(_, cfg, init, policy, *args, **kwargs):
        tracer.count("interp.runs")
        tracer.run_keys.add(_run_key(cfg, init, policy))

    def counted_fixpoint(*_):
        tracer.count("facts.fixpoint_calls")

    feasible = mtir.facts.FeasibilityEngine.is_feasible

    def is_feasible(engine, combination):
        before = engine.queries
        index = tracer.open("is_feasible")
        try:
            return feasible(engine, combination)
        finally:
            tracer.close(index)
            tracer.count("facts.is_feasible_calls")
            tracer.count("facts.queries", engine.queries - before)

    try:
        spanned(mtir.cli, "parse", "parse")
        spanned(mtir.cli, "build_model", "build_model", counted_model)
        spanned(mtir.cli, "analyze", "analyze")
        spanned(mtir.analysis, "analyze_thread", "analyze_thread",
                counted_run)
        spanned(mtir.analysis, "compute_combinations",
                "compute_combinations")
        spanned(mtir.analysis, "FeasibilityEngine", "engine_init",
                counted_engine)
        for name in ("build_pdg", "backward_slices", "apply_pruning",
                     "cluster"):
            spanned(mtir.analysis, name, name)
        spanned(mtir.facts, "fixpoint", "fixpoint", counted_fixpoint)
        patch(mtir.facts.FeasibilityEngine, "is_feasible", is_feasible)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def mode_metrics(mode, tracer, reports):
    """Per-layer metrics of one traced pass in `mode`; `reports` are the
    JSON reports of the pass's analyses."""
    counts = dict(tracer.counts)
    stats = {key: sum(r["stats"][key] for r in reports)
             for key in ("outer_iters", "runs", "combos", "infeasible",
                         "pruned_loads", "clusters")}
    values = dict(tracer.layer_times())
    values.update({
        "cfg.nodes": counts.get("cfg.nodes", 0),
        "analysis.outer_iters": stats["outer_iters"],
        "analysis.runs": stats["runs"],
        "analysis.combos": stats["combos"],
        "interp.runs": counts.get("interp.runs", 0),
        "interp.distinct_runs": counts.get("interp.distinct_runs", 0),
        "facts.base_mhb": counts.get("facts.base_mhb", 0),
        "facts.fixpoint_calls": counts.get("facts.fixpoint_calls", 0),
        "facts.is_feasible_calls": counts.get("facts.is_feasible_calls", 0),
        "facts.queries": counts.get("facts.queries", 0),
        "pdg.pruned_loads": stats["pruned_loads"],
        "pdg.clusters": stats["clusters"],
    })
    values["interp.useful_ratio"] = _ratio(values["interp.distinct_runs"],
                                           values["interp.runs"])
    calls = values["facts.is_feasible_calls"]
    values["facts.cache_hit_ratio"] = _ratio(calls - values["facts.queries"],
                                             calls)
    values["facts.reject_ratio"] = _ratio(stats["infeasible"],
                                          stats["combos"])
    return {"%s.%s" % (mode, metric): values[metric]
            for metric, _, modes in MODE_METRICS if mode in modes}


def _ratio(part, whole):
    return part / whole if whole else 0.0
