"""In-memory spans around skewcomp's public layer functions.

The tracer wraps functions from outside the package: it replaces each
target in every ``skewcomp`` module that holds a reference to it, because
``from .x import f`` binds a separate name in each importer (for example
``experiment.candidate_interval`` and ``compensator.candidate_interval``).
A span is a name, a start, an end and the span that was open when it
started.  Spans are kept in memory and only aggregated or written out
after the traced work has finished.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict

METHODS = ("theoretical", "practical", "approximate")
# refine width buckets; the walk's x-advances equal the interval width
REFINE_BUCKETS = (("lt10", 0, 10), ("10to99", 10, 100), ("ge100", 100, None))

# span names reported as <name>.calls and <name>.self_s
SPAN_NAMES = (
    "cli.main",
    "experiment.generate_samples",
    "experiment.bounds_experiment",
    "experiment.compensation_experiment",
    *(f"bounds.candidate_interval.{method}" for method in METHODS),
    "bounds.reference_interval",
    "bounds.clock_estimate",
    "bounds.emulated_clock_estimate",
    "compensator.compensate",
    "compensator.refine",
    "compensator.naive_compensate",
    "rationals.round_to_format",
    "formats.resolve_format",
)


class Tracer:
    def __init__(self) -> None:
        # one entry per span in parallel columns, so a few million spans
        # stay affordable; an end is filled in when its span closes
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counters: defaultdict = defaultdict(int)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name_of, after=None):
        """fn with a span around each call; after(result, args, kwargs, span_index) runs outside it."""
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span(name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index)
            if after is not None:
                after(result, args, kwargs, index)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def write(self, path) -> None:
        """All spans as gzipped CSV, times in ns from the first span's start."""
        origin = self.starts[0] if self.starts else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index,name,start_ns,end_ns,parent\n")
            for index, name in enumerate(self.names):
                start, end = self.starts[index] - origin, self.ends[index] - origin
                out.write(f"{index},{name},{start},{end},{self.parents[index]}\n")


def self_times(starts, ends, parents) -> list[int]:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread, so the children of one span never overlap
    and their summed durations are exactly the part of the parent they cover.
    """
    covered = [0] * len(starts)
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - inner for start, end, inner in zip(starts, ends, covered)]


def _method(args, kwargs) -> str:
    """The method argument of candidate_interval(i, D, A, method, ...)."""
    return args[3] if len(args) > 3 else kwargs.get("method", "practical")


def _targets(tracer: Tracer):
    """(module, function, span-name function or None, after hook) per traced function.

    None names the span <module>.<function>.
    """
    counters = tracer.counters

    def after_samples(result, args, kwargs, index):
        counters["experiment.generate_samples.samples"] += len(result)
        # counting distinct cases is the benchmark's own work: its span keeps
        # it out of the caller's self time
        with tracer.span("trace.count_cases"):
            counters["experiment.cases"] += len({(s.D, s.A) for s in result})

    def after_candidate(result, args, kwargs, index):
        counters[f"bounds.candidate_interval.{_method(args, kwargs)}.width_sum"] += result.width

    def after_refine(result, args, kwargs, index):
        iterations = result.iterations
        for bucket, lo, hi in REFINE_BUCKETS:
            if lo <= iterations and (hi is None or iterations < hi):
                counters[f"compensator.refine.{bucket}.iterations"] += iterations
                # refine calls no traced function, so its duration is its self time
                counters[f"compensator.refine.{bucket}.ns"] += tracer.ends[index] - tracer.starts[index]
                return

    def after_compensate(result, args, kwargs, index):
        counters["compensator.compensate.violations"] += result.bounds_violated

    def candidate_name(args, kwargs):
        return "bounds.candidate_interval." + _method(args, kwargs)

    return [
        ("rationals", "round_to_format", None, None),
        ("formats", "resolve_format", None, None),
        ("bounds", "clock_estimate", None, None),
        ("bounds", "emulated_clock_estimate", None, None),
        ("bounds", "candidate_interval", candidate_name, after_candidate),
        ("bounds", "reference_interval", None, None),
        ("compensator", "refine", None, after_refine),
        ("compensator", "compensate", None, after_compensate),
        ("compensator", "naive_compensate", None, None),
        ("experiment", "generate_samples", None, after_samples),
        ("experiment", "bounds_experiment", None, None),
        ("experiment", "compensation_experiment", None, None),
        ("cli", "main", None, None),
    ]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every skewcomp reference to a traced function through the tracer."""
    targets = _targets(tracer)
    for module_name, _, _, _ in targets:
        importlib.import_module(f"skewcomp.{module_name}")
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "skewcomp"]
    undo = []
    try:
        for module_name, func_name, name_of, after in targets:
            original = getattr(sys.modules[f"skewcomp.{module_name}"], func_name)
            if name_of is None:
                name_of = lambda args, kwargs, name=f"{module_name}.{func_name}": name  # noqa: E731
            traced = tracer.wrap(original, name_of, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        undo.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer calls, self time and counters, keyed by metric name."""
    calls: defaultdict = defaultdict(int)
    self_ns: defaultdict = defaultdict(int)
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    for name, ns in zip(tracer.names, own):
        calls[name] += 1
        self_ns[name] += ns
    counters = tracer.counters
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_ns[name] / 1e9
    for method in METHODS:
        key = f"bounds.candidate_interval.{method}"
        metrics[f"{key}.width_mean"] = counters[f"{key}.width_sum"] / calls[key] if calls[key] else 0.0
    samples = counters["experiment.generate_samples.samples"]
    cases = counters["experiment.cases"]
    metrics["experiment.generate_samples.samples"] = samples
    metrics["experiment.cases"] = cases
    metrics["experiment.dedup_ratio"] = samples / cases if cases else 0.0
    for bucket, _, _ in REFINE_BUCKETS:
        key = f"compensator.refine.{bucket}"
        iterations = counters[f"{key}.iterations"]
        metrics[f"{key}.iterations"] = iterations
        metrics[f"{key}.ns_per_iter"] = counters[f"{key}.ns"] / iterations if iterations else 0.0
    metrics["compensator.compensate.violations"] = counters["compensator.compensate.violations"]
    metrics["trace.spans"] = len(tracer.names)
    return metrics


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric the traced run reports."""
    specs = []
    for name in SPAN_NAMES:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    specs += [(f"bounds.candidate_interval.{m}.width_mean", "ticks", "lower") for m in METHODS]
    specs += [
        ("experiment.generate_samples.samples", "count", "higher"),
        ("experiment.cases", "count", "lower"),
        ("experiment.dedup_ratio", "ratio", "higher"),
    ]
    for bucket, _, _ in REFINE_BUCKETS:
        specs += [
            (f"compensator.refine.{bucket}.iterations", "count", "lower"),
            (f"compensator.refine.{bucket}.ns_per_iter", "ns", "lower"),
        ]
    specs += [
        ("compensator.compensate.violations", "count", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return specs
