"""In-memory spans and counters around cantormap's public layer functions.

A traced operation replaces each layer function at every place a
cantormap module looks it up (for example ``cantormap.cli.fields_batch``
and ``cantormap.render.evaluate_batch``), runs, and puts the originals
back.  Nothing under ``src/`` changes.  Spans nest on one stack, since
the benchmark runs a single thread: a span's self time is its duration
minus the durations of the spans it directly contains.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Per-name span totals (inclusive and self seconds) and counters."""

    def __init__(self) -> None:
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.entered = 0  # spans opened, generator segments included
        self._stack: list[list] = []  # [name, start, seconds covered by children]

    def enter(self, name: str) -> None:
        self.entered += 1
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = perf_counter() - start
        self.inclusive[name] += duration
        self.self_time[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()


def _points(tracer, name, bound, result):
    tracer.counts[name + ".points"] += len(bound.arguments["points"])


def _descent_levels(tracer, name, bound, result):
    """Descent work read off the returned per-point ``level`` array.

    A point placed at level k was tested at levels 3..k, so it cost
    k - 2 level steps; the batch loop swept every point over
    max(level) - 2 steps.  Both are computed from the output, not
    counted inside the descent.
    """
    _points(tracer, name, bound, result)
    from cantormap.construction import MIN_LEVEL

    level = result["level"]
    if len(level) == 0:
        return
    steps = level - (MIN_LEVEL - 1)
    swept = int(steps.max())
    c = tracer.counts
    c["mapping.point_levels"] += int(steps.sum())
    c["mapping.levels_swept"] = max(c["mapping.levels_swept"], swept)
    c["mapping.swept_point_levels"] += len(level) * swept
    c["mapping.truncated_points"] += int((~result["in_frame"]).sum())
    c["mapping.skeleton_points"] += int(result["on_skeleton"].sum())


def _checks_run(tracer, name, bound, result):
    tracer.counts[name + ".checks_run"] += result.checks_run


def _levels_scanned(tracer, name, bound, result):
    k_max = bound.arguments["k_max"]
    tracer.counts[name + ".levels_scanned"] += k_max - result.first_admissible_k + 1


_CHECKS = (
    "check_geometry",
    "check_boundary_consistency",
    "check_jacobian",
    "check_gain_ratio",
    "check_series",
    "check_threshold_scan",
    "check_mass_distribution",
    "check_power_gauges",
    "check_threshold_near_half",
    "check_reproducibility",
)

# (defining module, function, recorder run on the bound arguments and result)
LAYERS = (
    ("mapping", "evaluate_batch", _points),
    ("mapping", "fields_batch", _descent_levels),
    ("mapping", "coeffs", None),
    ("mapping", "consistency_check", None),
    ("construction", "radii", None),
    ("construction", "enumerate_cells", None),
    ("construction", "preimage_square", None),
    ("construction", "image_square", None),
    ("construction", "validate_geometry", _checks_run),
    ("render", "render_svg", None),
    ("measure", "mass_distribution_bound", _levels_scanned),
    ("measure", "threshold_scan", None),
    ("analysis", "frame_integral_mc", None),
    ("analysis", "series_terms", None),
) + tuple(("verify", name, None) for name in _CHECKS)


def _wrap(tracer: Tracer, name: str, fn, recorder):
    sig = inspect.signature(fn)

    if inspect.isgeneratorfunction(fn):
        # The work of a generator happens in next(), interleaved with
        # its consumer, so each resumption is one segment of the span.
        def timed(it):
            while True:
                tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                tracer.counts[name + ".cells"] += 1
                yield item

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            return timed(fn(*args, **kwargs))

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        tracer.counts[name + ".calls"] += 1
        if recorder is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            recorder(tracer, name, bound, result)
        return result

    return wrapper


def span_cost() -> float:
    """Median seconds that wrapping adds to one call of a function that
    takes arguments, as the layer functions do, and does nothing."""
    calls, repeats = 20_000, 5

    def noop(points, depth, params=None):
        return None

    wrapped = _wrap(Tracer(), "calibration", noop, None)
    costs = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            noop(0.5, 6, params=None)
        plain = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            wrapped(0.5, 6, params=None)
        costs.append((perf_counter() - start - plain) / calls)
    return statistics.median(costs)


@contextmanager
def installed(tracer: Tracer):
    """Route every lookup of a LAYERS function through ``tracer``."""
    modules = [
        m for n, m in list(sys.modules.items()) if n == "cantormap" or n.startswith("cantormap.")
    ]
    saved = []
    try:
        for module_name, fn_name, recorder in LAYERS:
            original = getattr(importlib.import_module("cantormap." + module_name), fn_name, None)
            span_name = f"{module_name}.{fn_name}"
            if original is None:
                if span_name not in tracer.missing:
                    tracer.missing.append(span_name)
                continue
            wrapper = _wrap(tracer, span_name, original, recorder)
            for module in modules:
                if vars(module).get(fn_name) is original:
                    saved.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)
        yield
    finally:
        for module, fn_name, original in reversed(saved):
            setattr(module, fn_name, original)
