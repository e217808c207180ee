"""In-memory span tracing of spillscale's public functions, from outside.

A `Tracer` replaces selected public functions of the package with wrappers
for the duration of one traced operation, in every spillscale module that
binds them (the package imports functions by name, so each binding site is
patched).  The program itself gains no timers.  Each call records a span:
name, layer, start, end, parent span, operation id, the population size of
its first population argument and, in a memory pass, the peak bytes
allocated (tracemalloc) above the level at entry, children included.
tracemalloc slows Python-heavy code several-fold, so times come from a
pass without it and allocation peaks from a second pass with it.  Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, function) pairs wrapped in a span; the layer is the module name
TRACED = {
    "geometry": ("build_space", "audit_geometry"),
    "design": ("scaling_clusters", "greedy_cover", "singleton_partition",
               "incidence", "extend_uniform_overlap"),
    "outcomes": ("make_sim_dgp", "make_guess", "sim_budget", "realize"),
    "estimators": ("dependency_graph", "ipw_ht", "hajek"),
    "owopt": ("optimize_weights", "saturation_tables", "assemble_objective",
              "ipw_weight_table", "solve_qp", "stilde_indices",
              "cluster_incidence_stack"),
    "oracle": ("enumerate_assignments", "exact_expectation"),
    "harness": ("run_experiment", "build_population", "simulate_design",
                "draw_bits_batch"),
    "cli": ("main",),
}

# functions whose time is also reported per population size, with the
# log-log slope of time against n (design-scale sizes)
SCALED = ("geometry.build_space", "design.scaling_clusters",
          "design.greedy_cover", "design.incidence",
          "design.extend_uniform_overlap", "estimators.dependency_graph")


def _population_size(args):
    from spillscale.geometry import PremetricSpace

    for a in args:
        if isinstance(a, PremetricSpace):
            return a.n
    return None


class Tracer:
    """Span recorder; use `with tracer.patched(): ...` around one operation."""

    def __init__(self, memory=False):
        self.memory = memory        # track allocation peaks (tracemalloc)
        self.spans = []             # dicts, appended at span exit
        self.counts = defaultdict(int)
        self.ow_objectives = {}     # n -> (ow objective, ipw-start objective)
        self.p_defined = []
        self._stack = []            # open spans: [id, start, mem0, mem_max]
        self._next_id = 0
        self.op = None

    # --- span bookkeeping -------------------------------------------------

    def _enter(self):
        cur = 0
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][3] = max(self._stack[-1][3], peak)
            tracemalloc.reset_peak()
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, time.perf_counter(), cur, cur])
        return sid

    def _exit(self, name, layer, size):
        end = time.perf_counter()
        sid, start, mem0, mem_max = self._stack.pop()
        if self.memory:
            mem_max = max(mem_max, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        if self._stack:
            self._stack[-1][3] = max(self._stack[-1][3], mem_max)
        self.spans.append({
            "id": sid, "parent": self._stack[-1][0] if self._stack else None,
            "op": self.op, "name": name, "layer": layer, "start": start,
            "end": end, "n": size, "alloc_peak": mem_max - mem0})

    def span(self, name, layer, fn, *args, **kwargs):
        """Call fn inside a span (used for the benchmark's own root span)."""
        self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, layer, _population_size(args))

    # --- patching ---------------------------------------------------------

    def _wrap(self, fn, name, layer):
        hook = getattr(self, "_after_" + fn.__name__, None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fn.__name__ == "exact_expectation":
                # time the estimator closure on its own, so oracle self
                # time is the enumeration loop alone
                inner = args[0]
                args = (lambda b: tracer.span("cli.estimator_closure", "cli",
                                              inner, b),) + args[1:]
            size = (len(args[0]) if fn.__name__ == "build_space"
                    else _population_size(args))
            tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, layer, size)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    def patched(self):
        return _Patch(self)

    # --- exact counts taken from return values ----------------------------

    def _after_scaling_clusters(self, args, kwargs, part):
        self.counts["design.n_clusters"] += part.n_clusters

    def _after_extend_uniform_overlap(self, args, kwargs, ext):
        self.counts["design.extended_units"] += sum(e.size > 0 for e in ext.extra)

    def _after_dependency_graph(self, args, kwargs, lam):
        self.counts["estimators.dependency_pairs"] += int(lam.sum())

    def _after_saturation_tables(self, args, kwargs, tables):
        self.counts["owopt.interacting_pairs"] += len(tables.pairs)
        q_mb = (tables.n * tables.n_sizes) ** 2 * 8 / 1e6
        self.counts["owopt.q_mb"] = max(self.counts["owopt.q_mb"], q_mb)

    def _after_solve_qp(self, args, kwargs, ow):
        self.counts["owopt.qp_iterations"] += ow.iterations

    def _after_optimize_weights(self, args, kwargs, result):
        _, start, ow = result
        self.ow_objectives[args[0].n] = (ow.objective_value,
                                         start.objective_value)

    def _after_enumerate_assignments(self, args, kwargs, enum):
        self.counts["oracle.assignments"] += enum.count

    def _after_exact_expectation(self, args, kwargs, res):
        self.p_defined.append(res.p_defined)

    def _after_simulate_design(self, args, kwargs, cell):
        draws = [vals.size for vals in cell.estimates.values()]
        self.counts["harness.replicates"] += max(draws, default=0)
        for vals in cell.estimates.values():
            self.counts["harness.undefined_draws"] += int((vals != vals).sum())


def write_spans(path, **passes):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({name: t.spans for name, t in passes.items()}, fh)


class _Patch:
    """Context manager swapping traced functions for span wrappers."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        mods = [m for k, m in list(sys.modules.items())
                if k == "spillscale" or k.startswith("spillscale.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"spillscale.{layer}"]
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    print(f"trace: spillscale.{layer}.{fname} not found; "
                          "its metrics read 0", file=sys.stderr)
                    continue
                wrapper = self.tracer._wrap(original, f"{layer}.{fname}", layer)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self.saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        if self.tracer.memory:
            tracemalloc.start()
        return self.tracer

    def __exit__(self, *exc):
        if self.tracer.memory:
            tracemalloc.stop()
        for mod, attr, original in reversed(self.saved):
            setattr(mod, attr, original)
        self.saved.clear()
        return False


def layer_metrics(tracer, memory, sizes, wall_median):
    """Per-layer metrics from a timing pass and a memory pass.

    `<layer>.<fn>_s` is the inclusive time of all calls of fn;
    `<layer>.self_s` is the layer's self time (span time not covered by
    child spans); `_exp` is the least-squares slope of log time on log n
    over `sizes` (0 when fn did not run at every size).
    """
    import numpy as np

    spans = tracer.spans
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    total = defaultdict(float)
    by_n = defaultdict(float)
    calls = defaultdict(list)
    self_t = defaultdict(float)
    peak = defaultdict(int)
    for s in memory.spans:
        peak[s["layer"]] = max(peak[s["layer"]], s["alloc_peak"])
    for s in spans:
        dur = s["end"] - s["start"]
        total[s["name"]] += dur
        calls[s["name"]].append(dur)
        if s["n"] is not None:
            by_n[(s["name"], s["n"])] += dur
        own = dur - child[s["id"]]
        self_t[s["layer"]] += own
        if s["name"] == "harness.simulate_design":
            self_t["harness.mc"] += own

    m = {}
    for layer, names in TRACED.items():
        for fname in names:
            m[f"{layer}.{fname}_s"] = total[f"{layer}.{fname}"]
        m[f"{layer}.self_s"] = self_t[layer]
        m[f"{layer}.peak_alloc_mb"] = peak[layer] / 1e6
    m["harness.mc_self_s"] = self_t["harness.mc"]
    for name in ("ipw_ht", "hajek"):
        durs = calls[f"estimators.{name}"]
        m[f"estimators.{name}_us"] = statistics.median(durs) * 1e6 if durs else 0.0
    for name in SCALED:
        t = [by_n[(name, n)] for n in sizes]
        for n, v in zip(sizes, t):
            m[f"{name}_s.n{n}"] = v
        m[f"{name}_exp"] = (float(np.polyfit(np.log(sizes), np.log(t), 1)[0])
                            if len(sizes) >= 2 and all(v > 0 for v in t) else 0.0)
    for key in ("design.n_clusters", "design.extended_units",
                "estimators.dependency_pairs", "owopt.interacting_pairs",
                "owopt.q_mb", "owopt.qp_iterations", "oracle.assignments",
                "harness.replicates", "harness.undefined_draws"):
        m[key] = tracer.counts[key]
    ratios = [ow / start for ow, start in tracer.ow_objectives.values()]
    m["owopt.objective_ratio"] = max(ratios) if ratios else 0.0
    m["oracle.p_defined"] = min(tracer.p_defined) if tracer.p_defined else 0.0
    roots = [s for s in spans if s["parent"] is None]
    m["trace.overhead_s"] = sum(s["end"] - s["start"] for s in roots) - wall_median
    return m
