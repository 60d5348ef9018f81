"""Spans around calls into fracdim's layers, recorded from outside the package.

`Tracer.install()` replaces public functions at the module attribute the
caller looks them up under (for example `fracdim.estimators.persistence`,
which `estimators.py` imported by name) with a wrapper that records a
span: name, start, end, parent span and counts read from the arguments
and the returned object. Spans stay in memory; `layer_metrics` reduces
them to the per-layer metrics at the end of the run.
"""

from __future__ import annotations

import functools
import os
import time

from workloads import fracdim_module


def _metric_cells(args, result):
    return {"cells": result.size**2}


def _simplices(args, result):
    return {"simplices": len(result.simplices)}


def _intervals(args, result):
    return {"intervals": sum(len(bc.intervals) for bc in result)}


def _magnitude_samples(args, result):
    return {
        "solves": len(result.t_grid),
        "n": args[0].size,
        "max_residual": max(result.residuals, default=0.0),
    }


def _fit_window(args, result):
    lo, hi = result.fit.window if result.estimator == "magnitude-dim" else (0, 0)
    return {"fit_used": hi - lo}


def _parts(args, result):
    return {"parts": len(result)}


def _bytes_read(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _bytes_written(args, result):
    argv = list(args[0])
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    return {"bytes": os.path.getsize(out) if out and os.path.exists(out) else 0}


_ESTIMATORS = (
    "box_counting_pointcloud",
    "box_counting_network",
    "correlation_dimension",
    "ph_dimension",
    "magnitude_dimension",
    "alpha_magnitude_dimension",
    "internal_scaling_dimension",
)

# (module, attribute, span name, counter): one row per place a caller
# looks the function up, so a call is seen whichever module made it.
TARGETS = (
    ("spaces", "euclidean_metric", "spaces.metric", _metric_cells),
    ("estimators", "euclidean_metric", "spaces.metric", _metric_cells),
    ("estimators", "shortest_path_metric", "spaces.metric", _metric_cells),
    ("spaces", "subsample", "spaces.subsample", None),
    ("estimators", "subsample", "spaces.subsample", None),
    ("magnitude", "rescale", "spaces.rescale", None),
    ("filtration", "vietoris_rips", "filtration.build", _simplices),
    ("estimators", "vietoris_rips", "filtration.build", _simplices),
    ("estimators", "alpha_complex_2d", "filtration.build", _simplices),
    ("persistence", "persistence", "persistence.reduce", _intervals),
    ("estimators", "persistence", "persistence.reduce", _intervals),
    ("estimators", "h0_union_find", "persistence.union_find", None),
    ("estimators", "magnitude_function", "magnitude.function", _magnitude_samples),
    ("estimators", "rescale_barcode", "magnitude.persistent", None),
    ("estimators", "persistent_magnitude", "magnitude.persistent", None),
    ("estimators", "greedy_cover", "estimators.cover", _parts),
    ("estimators", "grid_box_count", "estimators.count", None),
    ("estimators", "pair_correlation", "estimators.count", None),
    ("estimators", "loglog_fit", "estimators.fit", None),
    *(("estimators", name, "estimators.estimate", _fit_window) for name in _ESTIMATORS),
    ("io", "load_pointcloud", "io.load", _bytes_read),
    ("io", "load_network", "io.load", _bytes_read),
    ("cli", "main", "cli.main", _bytes_written),
)


class Tracer:
    """In-memory span recorder.

    A span is [name, start, end, parent index, counts]; parent is -1 for
    the root span of a request, so every span of one request shares that
    root as its ancestor.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, args=(), kwargs=None, counter=None):
        """Run fn(*args, **kwargs) inside a span and return its result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, {}]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            span[4] = counter(args, result)
        return result

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced

    def install(self):
        """Wrap every target in place."""
        for module_name, attribute, name, counter in TARGETS:
            module = fracdim_module(module_name)
            setattr(module, attribute, self.wrap(name, getattr(module, attribute), counter))

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def records(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "counts": c}
            for n, s, e, p, c in self.spans
        ]


PER_LAYER_TIMES = {
    "spaces.metric_s": "spaces.metric",
    "spaces.rescale_s": "spaces.rescale",
    "spaces.subsample_s": "spaces.subsample",
    "filtration.build_s": "filtration.build",
    "persistence.reduce_s": "persistence.reduce",
    "persistence.union_find_s": "persistence.union_find",
    "magnitude.function_s": "magnitude.function",
    "magnitude.persistent_s": "magnitude.persistent",
    "estimators.cover_s": "estimators.cover",
    "estimators.count_s": "estimators.count",
    "estimators.fit_s": "estimators.fit",
    "io.load_s": "io.load",
}

PER_LAYER_CALLS = {
    "spaces.metric_calls": "spaces.metric",
    "spaces.rescale_calls": "spaces.rescale",
    "filtration.calls": "filtration.build",
    "persistence.reduce_calls": "persistence.reduce",
    "persistence.union_find_calls": "persistence.union_find",
    "estimators.cover_calls": "estimators.cover",
}

PER_LAYER_COUNTS = {
    "spaces.metric_cells": ("spaces.metric", "cells"),
    "filtration.simplices": ("filtration.build", "simplices"),
    "persistence.intervals": ("persistence.reduce", "intervals"),
    "magnitude.solves": ("magnitude.function", "solves"),
    "estimators.cover_parts": ("estimators.cover", "parts"),
    "io.bytes_read": ("io.load", "bytes"),
    "cli.output_bytes": ("cli.main", "bytes"),
}

SOLVE_SIZES = (1000, 2187)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, from its spans."""
    own = tracer.self_times()
    spans = tracer.spans
    out = {}
    for metric, span_name in PER_LAYER_TIMES.items():
        out[metric] = sum(e - s for n, s, e, _, _ in spans if n == span_name)
    for metric, span_name in PER_LAYER_CALLS.items():
        out[metric] = sum(1 for n, *_ in spans if n == span_name)
    for metric, (span_name, key) in PER_LAYER_COUNTS.items():
        out[metric] = sum(c.get(key, 0) for n, _, _, _, c in spans if n == span_name)
    out["estimators.self_s"] = sum(
        t for t, sp in zip(own, spans) if sp[0] == "estimators.estimate"
    )
    out["cli.self_s"] = sum(t for t, sp in zip(own, spans) if sp[0] == "cli.main")

    functions = [(sp[4], t) for t, sp in zip(own, spans) if sp[0] == "magnitude.function"]
    for n in SOLVE_SIZES:
        solves = sum(c["solves"] for c, _ in functions if c["n"] == n)
        seconds = sum(t for c, t in functions if c["n"] == n)
        out[f"magnitude.solve_ms.n{n}"] = 1e3 * seconds / solves if solves else 0.0
    out["magnitude.max_residual"] = max(
        (c["max_residual"] for c, _ in functions), default=0.0
    )
    fit_used = sum(c.get("fit_used", 0) for n, _, _, _, c in spans if n == "estimators.estimate")
    solves = out["magnitude.solves"]
    out["magnitude.fit_used_frac"] = fit_used / solves if solves else 0.0
    return out
