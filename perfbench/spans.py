"""In-memory span tracing around otcp's public callables, and the per-layer metrics.

A traced run replaces each callable in ``patch_points()`` where the package looks
it up (a module attribute or a class attribute) with a wrapper that records a
span: name, layer, start, end, parent and a few attributes read from the
arguments and the returned object. Nothing inside ``src/`` changes, and the
originals are put back when the tracing context ends.

The layers are the modules of ``src/otcp``. A span's self time is its duration
minus the time its child spans cover; the harness opens one root span per set-up
and per timed pass, so the self times of one pass add up to its traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

METHODS = ("merge_l2", "merge_mahalanobis", "mcp_max", "otcp")
CELLS = {1.0: "eps1", 0.1: "eps0.1", 0.03: "eps0.03", 0.01: "eps0.01"}
LAYERS = ("data", "sphere", "sinkhorn", "entropic", "conformal", "bench",
          "serialize", "cli")


class Span:
    __slots__ = ("sid", "parent", "phase", "name", "layer", "start", "end",
                 "child_s", "attrs")

    def __init__(self, sid, parent, phase, name, layer):
        self.sid, self.parent, self.phase = sid, parent, phase
        self.name, self.layer = name, layer
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.attrs = None

    @property
    def dur_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur_s - self.child_s

    def to_dict(self) -> dict:
        return {"id": self.sid, "parent": self.parent, "phase": self.phase,
                "name": self.name, "layer": self.layer, "start": self.start,
                "end": self.end, "attrs": self.attrs}


class Tracer:
    """Keeps every closed span in memory; the caller writes them out once."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans) + len(self._stack),
                    parent.sid if parent else None,
                    self._stack[0].name if self._stack else name, name, layer)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.dur_s
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        s = self.open(name, layer)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, fn, name: str, layer: str, attrs_fn=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(s)
            if attrs_fn is not None:
                s.attrs = attrs_fn(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every patch point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, layer, attrs_fn in patch_points():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, layer, attrs_fn))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Attributes read from arguments and returned objects (never from inside otcp)
# ---------------------------------------------------------------------------

def _rows(args, kwargs, result):
    first = result[0] if isinstance(result, tuple) else result
    return {"rows": int(first.shape[0]) if getattr(first, "ndim", 0) else 1}


def _rank_rows(args, kwargs, result):
    return {"rows": int(getattr(result, "size", 1))}


def _solve(args, kwargs, result):
    prob = args[0]
    return {"epsilon": float(result.epsilon), "iterations": int(result.iterations),
            "converged": bool(result.converged),
            "marginal_error": float(result.marginal_error),
            "tol": float(kwargs.get("tol", args[1] if len(args) > 1 else 1e-6)),
            "n": int(prob.n), "m": int(prob.m)}


def _method_arg(args, kwargs, result):
    return {"method": args[0]}


def _pred_kind(args, kwargs, result):
    return {"method": args[0].score_fn.kind}


def _score_kind(args, kwargs, result):
    return {"method": args[0].kind}


def _saved(args, kwargs, result):
    return {"method": args[0].score_fn.kind, "bytes": os.path.getsize(args[1])}


def _loaded(args, kwargs, result):
    return {"method": result.score_fn.kind, "bytes": os.path.getsize(args[0])}


def patch_points():
    """(owner, attribute, span name, layer, attrs_fn) for every traced callable."""
    import otcp.bench
    import otcp.cli
    import otcp.conformal
    import otcp.data
    import otcp.entropic
    import otcp.serialize

    bench, data = otcp.bench, otcp.data
    return [
        (otcp.cli, "main", "cli.main", "cli", None),
        (bench, "run_benchmark", "bench.run_benchmark", "bench", None),
        (bench, "sweep", "bench.sweep", "bench", None),
        (bench, "fit_method", "bench.fit_method", "bench", _method_arg),
        (bench, "region_size_mc", "bench.region_size_mc", "bench", _pred_kind),
        (bench, "marginal_coverage", "bench.marginal_coverage", "bench", None),
        (bench, "export_contours", "bench.export_contours", "bench", None),
        (bench.BenchReport, "write", "bench.report_write", "bench", None),
        (data, "synth_dataset", "data.synth_dataset", "data", None),
        (data, "write_dataset_csv", "data.write_dataset_csv", "data", None),
        (data, "split_dataset", "data.split_dataset", "data", None),
        (data, "fit_regressor", "data.fit_regressor", "data", None),
        (bench, "load_dataset_csv", "data.load_dataset_csv", "data", None),
        (bench, "split_dataset", "data.split_dataset", "data", None),
        (bench, "fit_regressor", "data.fit_regressor", "data", None),
        (bench, "residuals", "data.residuals", "data", None),
        (bench, "fit_quantile_predictor", "data.fit_quantile_predictor", "data", None),
        (data.KnnMeanRegressor, "predict_rows", "data.knn_predict_rows", "data", _rows),
        (data.KnnQuantilePredictor, "bounds_rows", "data.knn_bounds_rows", "data", _rows),
        (bench, "build_spherical_grid", "sphere.build_spherical_grid", "sphere", None),
        (bench, "fit_entropic_map", "entropic.fit_entropic_map", "entropic", None),
        (otcp.entropic, "sinkhorn_solve", "sinkhorn.sinkhorn_solve", "sinkhorn", _solve),
        (otcp.entropic.EntropicMap, "rank", "entropic.rank", "entropic", _rank_rows),
        (otcp.entropic.EntropicMap, "inverse", "entropic.inverse", "entropic", None),
        (bench, "calibrate", "conformal.calibrate", "conformal", _score_kind),
        (bench, "region_contour_2d", "conformal.region_contour_2d", "conformal", None),
        (otcp.conformal.CalibratedPredictor, "contains_rows",
         "conformal.contains_rows", "conformal", None),
        (otcp.conformal.CalibratedPredictor, "contains_candidates",
         "conformal.contains_candidates", "conformal", None),
        (otcp.serialize, "save_predictor", "serialize.save_predictor", "serialize", _saved),
        (otcp.serialize, "load_predictor", "serialize.load_predictor", "serialize", _loaded),
    ]


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {
        "data.synth_ms": "ms", "data.split_ms": "ms", "data.csv_ms": "ms",
        "data.knn_rows": "count", "data.knn_ms": "ms", "data.knn_us_per_row": "us",
        "sphere.grid_ms": "ms",
        "sinkhorn.solves": "count", "sinkhorn.computed_gb_per_s": "GB/s",
    }
    for cell in CELLS.values():
        units.update({f"sinkhorn.{cell}.solve_ms": "ms",
                      f"sinkhorn.{cell}.iterations": "count",
                      f"sinkhorn.{cell}.ms_per_iter": "ms",
                      f"sinkhorn.{cell}.marginal_error": "mass",
                      f"sinkhorn.{cell}.converged": "count"})
    units.update({"entropic.rank_rows": "count", "entropic.rank_ms": "ms",
                  "entropic.rank_us_per_row": "us", "entropic.inverse_ms": "ms",
                  "conformal.contains_ms": "ms", "conformal.contour_ms": "ms"})
    for method in METHODS:
        units[f"conformal.calibrate_ms.{method}"] = "ms"
        units[f"conformal.coverage.{method}"] = "fraction"
        units[f"bench.fit_method_ms.{method}"] = "ms"
        units[f"bench.region_size_ms.{method}"] = "ms"
        units[f"bench.mean_region_size.{method}"] = "volume"
        units[f"serialize.bytes.{method}"] = "bytes"
    units.update({"bench.region_size_calls": "count", "bench.report_write_ms": "ms",
                  "serialize.save_ms": "ms", "serialize.load_ms": "ms",
                  "serve.batches": "count", "serve.pairs_per_s": "1/s",
                  "serve.batch_ms_p50": "ms", "serve.batch_ms_p95": "ms"})
    for layer in LAYERS + ("harness",):
        units[f"{layer}.self_ms"] = "ms"
    units.update({"trace.spans_per_pass": "count", "trace.untraced_wall_s": "s",
                  "trace.traced_wall_s": "s", "trace.overhead_ms": "ms"})
    return units


def layer_values(spans: list[Span], n_setups: int, n_passes: int) -> dict[str, float]:
    """Per-layer values from the spans of a traced run.

    Named timings and counts are per set-up plus per timed pass (the mean over
    the run's set-ups plus the mean over its traced passes), so one solve in
    set-up or in each pass reads as one solve. ``<layer>.self_ms`` covers the
    timed pass only, so the self times add up to ``trace.traced_wall_s``.
    """
    sums = {"setup": defaultdict(float), "pass": defaultdict(float)}
    marginal = dict.fromkeys(CELLS.values(), 0.0)
    bytes_saved = {}
    for s in spans:
        acc = sums["setup" if s.phase == "setup" else "pass"]
        ms = s.dur_s * 1e3
        a = s.attrs or {}
        if s.phase == "pass":
            acc[f"{s.layer}.self_ms"] += s.self_s * 1e3
        name = s.name
        if name == "data.synth_dataset":
            acc["data.synth_ms"] += ms
        elif name == "data.split_dataset":
            acc["data.split_ms"] += ms
        elif name in ("data.load_dataset_csv", "data.write_dataset_csv"):
            acc["data.csv_ms"] += ms
        elif name in ("data.knn_predict_rows", "data.knn_bounds_rows"):
            acc["data.knn_ms"] += ms
            acc["data.knn_rows"] += a["rows"]
        elif name == "sphere.build_spherical_grid":
            acc["sphere.grid_ms"] += ms
        elif name == "sinkhorn.sinkhorn_solve":
            acc["sinkhorn.solves"] += 1
            # computed, not measured: one float64 read of the n x m cost matrix
            # per half-step (two half-steps per iteration)
            acc["computed_bytes"] += 2 * a["iterations"] * a["n"] * a["m"] * 8
            acc["solve_ms"] += ms
            cell = CELLS.get(a["epsilon"])
            if cell is not None:
                acc[f"sinkhorn.{cell}.solve_ms"] += ms
                acc[f"sinkhorn.{cell}.iterations"] += a["iterations"]
                acc[f"sinkhorn.{cell}.converged"] += a["converged"]
                marginal[cell] = max(marginal[cell], a["marginal_error"])
        elif name == "entropic.rank":
            acc["entropic.rank_ms"] += ms
            acc["entropic.rank_rows"] += a["rows"]
        elif name == "entropic.inverse":
            acc["entropic.inverse_ms"] += ms
        elif name == "conformal.calibrate":
            acc[f"conformal.calibrate_ms.{a['method']}"] += ms
        elif name == "conformal.contains_rows":
            acc["conformal.contains_ms"] += ms
        elif name == "conformal.region_contour_2d":
            acc["conformal.contour_ms"] += ms
        elif name == "bench.fit_method":
            acc[f"bench.fit_method_ms.{a['method']}"] += ms
        elif name == "bench.region_size_mc":
            acc[f"bench.region_size_ms.{a['method']}"] += ms
            acc["bench.region_size_calls"] += 1
        elif name == "bench.report_write":
            acc["bench.report_write_ms"] += ms
        elif name == "serialize.save_predictor":
            acc["serialize.save_ms"] += ms
            key = f"serialize.bytes.{a['method']}"
            bytes_saved[key] = max(bytes_saved.get(key, 0), a["bytes"])
        elif name == "serialize.load_predictor":
            acc["serialize.load_ms"] += ms
        if s.phase == "pass" and s.parent is not None:
            acc["trace.spans_per_pass"] += 1
    keys = set(sums["setup"]) | set(sums["pass"])
    v = {k: sums["setup"][k] / n_setups + sums["pass"][k] / n_passes for k in keys}
    v.update(bytes_saved)
    knn_rows, rank_rows = v.get("data.knn_rows", 0), v.get("entropic.rank_rows", 0)
    v["data.knn_us_per_row"] = v["data.knn_ms"] * 1e3 / knn_rows if knn_rows else 0.0
    v["entropic.rank_us_per_row"] = (v["entropic.rank_ms"] * 1e3 / rank_rows
                                     if rank_rows else 0.0)
    solve_ms = v.pop("solve_ms", 0.0)
    v["sinkhorn.computed_gb_per_s"] = (v.pop("computed_bytes", 0.0) / solve_ms / 1e6
                                       if solve_ms else 0.0)
    for cell, err in marginal.items():
        v[f"sinkhorn.{cell}.marginal_error"] = err
        its = v.get(f"sinkhorn.{cell}.iterations", 0)
        v[f"sinkhorn.{cell}.ms_per_iter"] = (v[f"sinkhorn.{cell}.solve_ms"] / its
                                            if its else 0.0)
    return {name: v.get(name, 0.0) for name in per_layer_units()}
