"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer replaces each traced public function at every binding a call can
go through: the defining module, every other ``gridtw`` module that imported
it by name (``from .graphs import bfs_reachable``), and the package
namespace.  Methods and constructors are wrapped on their class.  Nothing in
``src/`` changes; :meth:`Tracer.uninstall` restores every binding.

Spans (name, start, end, parent, unit) are kept in memory per unit.  A unit
that completes commits its spans and counts; a unit that hits its deadline
is discarded whole, so every count repeats exactly for a fixed seed.  Self
time is a span's duration minus the time its child spans cover.
"""

import gzip
import sys
import time
from collections import defaultdict

# Work counters taken from a call's arguments and result; EXTRA below says
# which function gets which.  Each returns {metric suffix: amount}.


def _bfs_visited(args, kwargs, result):
    return {"visited": len(result)}


def _minimalize_sizes(args, kwargs, result):
    return {"candidates": len(args[3]), "kept": len(result)}


def _exact_vertices(args, kwargs, result):
    return {"vertices": args[0].num_vertices()}


def _certification(args, kwargs, result):
    return {f"certification.{result.certification}": 1}


def _outcome(args, kwargs, result):
    return {f"outcome.{result.kind}": 1}


def _yield(args, kwargs, result):
    return {"yielded": 0 if result is None else 1}


# Functions wrapped with a span, by layer module.  Hot helpers that only
# need a call count are in COUNTED.
SPANNED = {
    "grid": ["build_qn", "enlarge", "subgrid"],
    "graphs": ["bfs_reachable", "bfs_path", "is_connected",
               "connected_components"],
    "separators": ["is_separator", "min_side_separator", "minimalize",
                   "is_blocked", "blocked_component",
                   "check_separator_connected", "sample_minimal_separator",
                   "sample_grid_separator"],
    "calculus": ["integrate", "integrate_d", "d", "indicator",
                 "verify_almost_homotopic", "path_weights"],
    "decomposition": ["exact_treewidth", "decide_width_at_most",
                      "balanced_separation", "heuristic_decomposition",
                      "validate_decomposition", "validate_bramble",
                      "bramble_order"],
    "slab": ["qn_as_slab", "audit_separator", "separation_function",
             "lambda_assignment", "strip_rectangle_certificate"],
    "bramble_builder": ["find_blocked_or_bramble"],
    "harness": ["audit_rows", "run_suites", "sampled_partition_search",
                "exhaustive_partition_search", "verified_automorphisms",
                "random_weighted_instance"],
}

# (module, function) -> its work counter.
EXTRA = {
    ("graphs", "bfs_reachable"): _bfs_visited,
    ("separators", "minimalize"): _minimalize_sizes,
    ("decomposition", "exact_treewidth"): _exact_vertices,
    ("slab", "audit_separator"): _certification,
    ("bramble_builder", "find_blocked_or_bramble"): _outcome,
    ("harness", "random_weighted_instance"): _yield,
}

# (module, class, method, metric name): call counts only, no span.
COUNTED = [
    ("grid", "GridGraph", "neighbors", "grid.neighbors"),
    ("calculus", "Walk", "__init__", "calculus.Walk"),
    ("calculus", "LFunction", "__init__", "calculus.LFunction"),
]


class Tracer:
    """Span and counter recorder; active only between begin and end."""

    def __init__(self):
        self.spans = []          # committed: (name, start, end, parent, unit)
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.units = []
        self._unit = None
        self._restore = []

    # Unit lifecycle.

    def begin(self, unit_id):
        self._unit = len(self.units)
        self.units.append(unit_id)
        self._spans = []
        self._counts = defaultdict(int)
        self._self = defaultdict(float)
        self._stack = []         # [span index, child time]

    def end(self, keep):
        """Close the current unit; commit its records only when ``keep``."""
        if keep:
            base = len(self.spans)
            for name, start, stop, parent, unit in self._spans:
                self.spans.append((name, start, stop,
                                   -1 if parent < 0 else base + parent, unit))
            for key, value in self._counts.items():
                self.counts[key] += value
            for key, value in self._self.items():
                self.self_s[key] += value
        self._unit = None

    # Wrappers.

    def _span_wrapper(self, name, fn, extra):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._unit is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer._spans)
            tracer._spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = time.perf_counter()
                stack.pop()
                duration = stop - start
                tracer._spans[index] = (name, start, stop, parent,
                                        tracer._unit)
                tracer._self[name] += duration - frame[1]
                tracer._counts[name + ".calls"] += 1
                if stack:
                    stack[-1][1] += duration
            if extra is not None:
                for key, amount in extra(args, kwargs, result).items():
                    tracer._counts[f"{name}.{key}"] += amount
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            if tracer._unit is not None:
                tracer._counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _grid_init_wrapper(self, fn):
        """GridGraph construction: induced subgraphs get a span of their
        own; the full grid (no vertex list) is counted only."""
        spanned = self._span_wrapper("grid.induced", fn, None)
        tracer = self

        def wrapper(graph, n, vertices=None):
            if vertices is None:
                if tracer._unit is not None:
                    tracer._counts["grid.full.calls"] += 1
                return fn(graph, n)
            return spanned(graph, n, vertices)

        wrapper.__wrapped__ = fn
        return wrapper

    # Installation.

    def install(self):
        modules = {name: sys.modules[f"gridtw.{name}"] for name in SPANNED}
        bindings = [m for key, m in sys.modules.items()
                    if key == "gridtw" or key.startswith("gridtw.")]
        for short, names in SPANNED.items():
            for attr in names:
                original = getattr(modules[short], attr)
                wrapped = self._span_wrapper(f"{short}.{attr}", original,
                                             EXTRA.get((short, attr)))
                for module in bindings:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, key, original))
                            setattr(module, key, wrapped)
        for short, cls_name, method, metric in COUNTED:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._count_wrapper(metric, original))
        grid_graph = modules["grid"].GridGraph
        original = grid_graph.__dict__["__init__"]
        self._restore.append((grid_graph, "__init__", original))
        grid_graph.__init__ = self._grid_init_wrapper(original)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    # Output.

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start,end,parent,unit\n")
            for i, (name, start, stop, parent, unit) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{stop:.9f},{parent},"
                         f"{self.units[unit]}\n")

    def layer_metrics(self, overhead_frac):
        """The per-layer metrics named in BENCHMARK.json, with units."""
        c, s = self.counts, self.self_s

        def count(name):
            return (c[name], "count")

        def secs(name):
            return (s[name], "s")

        def ratio(num, den):
            return (c[num] / c[den] if c[den] else 0.0, "ratio")

        return {
            "grid.neighbors.calls": count("grid.neighbors.calls"),
            "grid.induced.calls": count("grid.induced.calls"),
            "grid.induced.self_s": secs("grid.induced"),
            "grid.enlarge.self_s": secs("grid.enlarge"),
            "grid.build_qn.self_s": secs("grid.build_qn"),
            "graphs.bfs_reachable.calls": count("graphs.bfs_reachable.calls"),
            "graphs.bfs_reachable.visited":
                count("graphs.bfs_reachable.visited"),
            "graphs.bfs_reachable.self_s": secs("graphs.bfs_reachable"),
            "graphs.is_connected.self_s": secs("graphs.is_connected"),
            "graphs.bfs_path.self_s": secs("graphs.bfs_path"),
            "separators.minimalize.calls":
                count("separators.minimalize.calls"),
            "separators.minimalize.candidates":
                count("separators.minimalize.candidates"),
            "separators.minimalize.kept_frac":
                ratio("separators.minimalize.kept",
                      "separators.minimalize.candidates"),
            "separators.minimalize.self_s": secs("separators.minimalize"),
            "separators.min_side_separator.calls":
                count("separators.min_side_separator.calls"),
            "separators.min_side_separator.self_s":
                secs("separators.min_side_separator"),
            "separators.is_blocked.calls":
                count("separators.is_blocked.calls"),
            "separators.is_blocked.self_s": secs("separators.is_blocked"),
            "separators.blocked_component.self_s":
                secs("separators.blocked_component"),
            "calculus.Walk.calls": count("calculus.Walk.calls"),
            "calculus.LFunction.calls": count("calculus.LFunction.calls"),
            "calculus.integrate_d.calls": count("calculus.integrate_d.calls"),
            "calculus.integrate_d.self_s": secs("calculus.integrate_d"),
            "calculus.verify_almost_homotopic.self_s":
                secs("calculus.verify_almost_homotopic"),
            "calculus.path_weights.self_s": secs("calculus.path_weights"),
            "decomposition.exact_treewidth.calls":
                count("decomposition.exact_treewidth.calls"),
            "decomposition.exact_treewidth.vertices":
                count("decomposition.exact_treewidth.vertices"),
            "decomposition.exact_treewidth.self_s":
                secs("decomposition.exact_treewidth"),
            "decomposition.decide_width_at_most.calls":
                count("decomposition.decide_width_at_most.calls"),
            "decomposition.decide_width_at_most.self_s":
                secs("decomposition.decide_width_at_most"),
            "decomposition.balanced_separation.self_s":
                secs("decomposition.balanced_separation"),
            "decomposition.heuristic_decomposition.self_s":
                secs("decomposition.heuristic_decomposition"),
            "decomposition.validate_decomposition.self_s":
                secs("decomposition.validate_decomposition"),
            "decomposition.bramble_order.calls":
                count("decomposition.bramble_order.calls"),
            "decomposition.bramble_order.self_s":
                secs("decomposition.bramble_order"),
            "slab.qn_as_slab.calls": count("slab.qn_as_slab.calls"),
            "slab.qn_as_slab.self_s": secs("slab.qn_as_slab"),
            "slab.audit_separator.self_s": secs("slab.audit_separator"),
            "slab.separation_function.self_s":
                secs("slab.separation_function"),
            "slab.lambda_assignment.self_s": secs("slab.lambda_assignment"),
            "slab.certification.exact":
                count("slab.audit_separator.certification.exact"),
            "slab.certification.refutation":
                count("slab.audit_separator.certification.refutation"),
            "slab.certification.trivial":
                count("slab.audit_separator.certification.trivial"),
            "slab.certification.consistent":
                count("slab.audit_separator.certification.consistent"),
            "bramble_builder.find_blocked_or_bramble.calls":
                count("bramble_builder.find_blocked_or_bramble.calls"),
            "bramble_builder.find_blocked_or_bramble.self_s":
                secs("bramble_builder.find_blocked_or_bramble"),
            "bramble_builder.outcome.staircase":
                count("bramble_builder.find_blocked_or_bramble"
                      ".outcome.staircase"),
            "bramble_builder.outcome.bramble":
                count("bramble_builder.find_blocked_or_bramble"
                      ".outcome.bramble"),
            "harness.random_weighted_instance.calls":
                count("harness.random_weighted_instance.calls"),
            "harness.random_weighted_instance.yield":
                ratio("harness.random_weighted_instance.yielded",
                      "harness.random_weighted_instance.calls"),
            "harness.verified_automorphisms.self_s":
                secs("harness.verified_automorphisms"),
            "harness.sampled_partition_search.self_s":
                secs("harness.sampled_partition_search"),
            "trace.overhead_frac": (overhead_frac, "ratio"),
        }
