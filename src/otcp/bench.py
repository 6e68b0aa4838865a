"""Benchmark harness: coverage/region-size metrics, seeded runs, sweeps, exports.

A run takes one config, loops over seeds, and for each seed splits the data,
fits the shared point predictor, builds and calibrates every requested score
function, and measures marginal coverage plus a Monte-Carlo region size.
Reports aggregate mean and standard error across seeds and serialize as
long-format CSV plus a JSON summary; bytes are reproducible for a fixed config
once the timing columns are set aside.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import serialize
from .conformal import (
    CalibratedPredictor,
    calibrate,
    default_mahalanobis_ridge,
    estimate_covariance,
    make_score_function,
    region_contour_2d,
)
from .data import (
    Dataset,
    SplitSpec,
    fit_quantile_predictor,
    fit_regressor,
    load_dataset_csv,
    regressor_params,
    residuals,
    split_dataset,
    synth_dataset,
    synth_params,
)
from .entropic import fit_entropic_map
from .errors import MethodError, NotFittedError, ParamError, ProvenanceError
from .sphere import build_spherical_grid

# appendix-style ablation axes used when a sweep is run without explicit lists
DEFAULT_SWEEP_EPSILONS = (0.001, 0.01, 0.1, 1.0)
DEFAULT_SWEEP_TARGETS = (4096, 8192, 16384, 32768)

REPORT_COLUMNS = ("method", "seed", "status", "coverage", "mean_region_size")
TIMING_COLUMNS = ("fit_ms", "calibrate_ms", "predict_ms")

# the keys each config section reads; the dataset's depend on its kind
DATASET_KEYS = {"synthetic": ("kind", "generator", "n", "d", "params"),
                "csv": ("kind", "path", "d_out")}
OTCP_KEYS = ("epsilon", "m", "grid_mode", "tol", "max_iter")
MCP_KEYS = ("k", "alpha_lo", "alpha_hi")

# expected failures of one (seed, method) cell, recorded in its report row:
# ValueError covers otcp's own value errors and numpy.linalg.LinAlgError, and
# MemoryError keeps an oversized cell to its own row. Anything else (TypeError,
# AttributeError, ...) is a bug and propagates.
CELL_FAILURES = (ValueError, NotFittedError, ProvenanceError, MethodError, MemoryError)


def _check_keys(section: str, given: dict, known) -> None:
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ParamError(f"{section} section: unknown keys {unknown}")


@dataclass
class BenchConfig:
    """Everything one benchmark run needs; loadable from JSON."""

    dataset: dict = field(default_factory=lambda: {
        "kind": "synthetic", "generator": "gaussian", "n": 2000, "d": 2, "params": {}})
    methods: tuple = ("merge_l2", "merge_mahalanobis", "mcp_max", "otcp")
    alpha: float = 0.1
    fractions: tuple = (0.4, 0.2, 0.2, 0.2)
    regressor: dict = field(default_factory=lambda: {"kind": "knn_mean", "k": 25})
    otcp: dict = field(default_factory=lambda: {
        "epsilon": 0.1, "m": 4096, "grid_mode": "low_discrepancy",
        "tol": 1e-6, "max_iter": 2000})
    mcp: dict = field(default_factory=dict)  # k, alpha_lo, alpha_hi
    seeds: tuple = (0,)
    mc_samples: int = 10000
    region_size_points: int = 200
    bounds_inflation: float = 1.5
    output_dir: str | None = None
    save_models: bool = True

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ParamError("alpha must lie in (0, 1)")
        if len(self.seeds) < 1:
            raise ParamError("need at least one seed")
        if self.otcp.get("epsilon", 0.1) <= 0:
            raise ParamError("otcp epsilon must be > 0")
        if self.otcp.get("m", 4096) < 2:
            raise ParamError("otcp m must be >= 2")
        if self.mc_samples < 1:
            raise ParamError("mc_samples must be >= 1")
        kind = self.dataset.get("kind")
        if kind not in DATASET_KEYS:
            raise ParamError(f"unknown dataset kind {kind!r}")
        _check_keys("dataset", self.dataset, DATASET_KEYS[kind])
        if kind == "csv" and not {"path", "d_out"} <= set(self.dataset):
            raise ParamError("a csv dataset needs path and d_out")
        if kind == "synthetic":  # rejects a generator or param synth_dataset would
            synth_params(self.dataset.get("generator", "gaussian"),
                         self.dataset.get("params"))
        # rejects a regressor kind or parameter that fit_regressor would
        regressor_params(self.regressor.get("kind", "knn_mean"),
                         {k: v for k, v in self.regressor.items() if k != "kind"})
        _check_keys("otcp", self.otcp, OTCP_KEYS)
        _check_keys("mcp", self.mcp, MCP_KEYS)
        self.methods = tuple(self.methods)
        self.seeds = tuple(int(s) for s in self.seeds)
        self.fractions = tuple(float(f) for f in self.fractions)

    @classmethod
    def from_dict(cls, raw: dict) -> "BenchConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ParamError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def from_json_file(cls, path) -> "BenchConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def load_dataset(self, seed: int) -> Dataset:
        spec = self.dataset
        if spec["kind"] == "synthetic":
            return synth_dataset(spec.get("generator", "gaussian"),
                                 int(spec.get("n", 2000)), int(spec.get("d", 2)),
                                 spec.get("params", {}), seed=seed)
        return load_dataset_csv(spec["path"], int(spec["d_out"]), tag=spec["path"])


@dataclass
class MethodResult:
    method: str
    seed: int
    status: str  # "ok" or "failed: <ExceptionType>: <message>"
    coverage: float = math.nan
    mean_region_size: float = math.nan
    fit_ms: float = math.nan
    calibrate_ms: float = math.nan
    predict_ms: float = math.nan


@dataclass
class BenchReport:
    rows: list

    def csv_lines(self, include_timings: bool = True) -> list[str]:
        cols = REPORT_COLUMNS + (TIMING_COLUMNS if include_timings else ())
        lines = [_csv_line(cols)]
        for r in self.rows:
            vals = [r.method, str(r.seed), r.status, repr(float(r.coverage)),
                    repr(float(r.mean_region_size))]
            if include_timings:
                vals += [f"{r.fit_ms:.3f}", f"{r.calibrate_ms:.3f}", f"{r.predict_ms:.3f}"]
            lines.append(_csv_line(vals))
        return lines

    def aggregates(self) -> dict:
        """Per-method mean and standard error (std/sqrt(#seeds)) across seeds."""
        out = {}
        for method in sorted({r.method for r in self.rows}):
            ok = [r for r in self.rows if r.method == method and r.status == "ok"]
            entry = {"n_seeds": len(ok),
                     "n_failed": sum(1 for r in self.rows
                                     if r.method == method and r.status != "ok")}
            for name, values in (("coverage", [r.coverage for r in ok]),
                                 ("mean_region_size", [r.mean_region_size for r in ok])):
                if values:
                    arr = np.asarray(values, dtype=float)
                    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
                    entry[name] = {"mean": float(arr.mean()), "stderr": se}
            out[method] = entry
        return out

    @property
    def any_failed(self) -> bool:
        return any(r.status != "ok" for r in self.rows)

    def write(self, out_dir, stem: str = "report") -> tuple[Path, Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"{stem}.csv"
        csv_path.write_text("\n".join(self.csv_lines()) + "\n", encoding="utf-8")
        json_path = out_dir / f"{stem}_summary.json"
        json_path.write_text(json.dumps(self.aggregates(), indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")
        return csv_path, json_path


def _csv_line(fields) -> str:
    """One CSV record without its line end; fields holding a comma, quote or
    line break (failure messages can) are quoted, all others written as is."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()[:-1]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def marginal_coverage(pred: CalibratedPredictor, test: Dataset) -> float:
    """Fraction of test pairs whose response falls inside the prediction set."""
    if test.n < 1:
        raise ParamError("test set is empty")
    return float(pred.contains_rows(test.features, test.targets).mean())


def default_mc_bounds(pred: CalibratedPredictor, x, inflate: float = 1.5):
    """Per-dim box: calibration-residual bounding box inflated and recentered at x's center."""
    if pred.residual_low is None:
        raise ParamError("predictor carries no residual bounding box")
    mid = (pred.residual_low + pred.residual_high) / 2.0
    half = (pred.residual_high - pred.residual_low) / 2.0
    center = pred.score_fn.center(x)
    return center + mid - inflate * half, center + mid + inflate * half


def region_size_mc(pred: CalibratedPredictor, x, bounds=None, n_mc: int = 10000,
                   seed: int = 0) -> float:
    """Monte-Carlo volume of the prediction set at x: hit fraction times box volume."""
    if n_mc < 1:
        raise ParamError("n_mc must be >= 1")
    if bounds is None:
        low, high = default_mc_bounds(pred, x)
    else:
        low = np.asarray(bounds[0], dtype=float)
        high = np.asarray(bounds[1], dtype=float)
    if not (np.isfinite(low).all() and np.isfinite(high).all() and (high > low).all()):
        raise ParamError("bounds must be finite with positive side lengths")
    volume = float(np.prod(high - low))
    rng = np.random.default_rng(seed)
    samples = rng.uniform(low, high, size=(n_mc, low.size))
    hits = pred.contains_candidates(x, samples)
    return float(hits.mean()) * volume


# ---------------------------------------------------------------------------
# Per-method pipeline
# ---------------------------------------------------------------------------

def fit_method(method: str, cfg: BenchConfig, reg, train: Dataset, ot_fit: Dataset,
               calib: Dataset, seed: int) -> tuple[CalibratedPredictor, float, float]:
    """Build and calibrate one method; returns (predictor, fit_ms, calibrate_ms)."""
    t0 = time.perf_counter()
    parts = {"regressor": reg}
    if method == "merge_mahalanobis":
        fit_resid = residuals(ot_fit, reg)
        ridge = default_mahalanobis_ridge(fit_resid)
        parts["whitener"] = estimate_covariance(fit_resid, ridge)
    elif method == "mcp_max":
        mcp = cfg.mcp
        parts["quantile_predictor"] = fit_quantile_predictor(
            train, int(mcp.get("k", cfg.regressor.get("k", 25))),
            float(mcp.get("alpha_lo", cfg.alpha / 2)),
            float(mcp.get("alpha_hi", 1 - cfg.alpha / 2)))
    elif method == "otcp":
        o = cfg.otcp
        fit_resid = residuals(ot_fit, reg)
        grid = build_spherical_grid(int(o.get("m", 4096)), ot_fit.d,
                                    mode=o.get("grid_mode", "low_discrepancy"),
                                    seed=seed)
        parts["transport_map"] = fit_entropic_map(
            fit_resid, grid, epsilon=float(o.get("epsilon", 0.1)),
            tol=float(o.get("tol", 1e-6)), max_iter=int(o.get("max_iter", 2000)))
    fn = make_score_function(method, **parts)
    t1 = time.perf_counter()
    pred = calibrate(fn, calib, cfg.alpha)
    t2 = time.perf_counter()
    return pred, (t1 - t0) * 1e3, (t2 - t1) * 1e3


def _evaluate(pred: CalibratedPredictor, test: Dataset, cfg: BenchConfig,
              seed: int, method_index: int) -> tuple[float, float, float]:
    t0 = time.perf_counter()
    cov = marginal_coverage(pred, test)
    k = min(cfg.region_size_points, test.n)
    mc_seed = seed * 8191 + method_index  # per-cell stream, schedule independent
    sizes = [region_size_mc(pred, test.features[i],
                            default_mc_bounds(pred, test.features[i],
                                              cfg.bounds_inflation),
                            n_mc=cfg.mc_samples, seed=mc_seed + 7 * i)
             for i in range(k)]
    t1 = time.perf_counter()
    return cov, float(np.mean(sizes)), (t1 - t0) * 1e3


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    """Run every (seed, method) cell; failures mark their row and spare the rest.

    Only the expected failures in CELL_FAILURES are recorded in a row; any other
    exception is a programming error and propagates.
    """
    rows = []
    saved_models = set()
    for seed in cfg.seeds:
        ds = cfg.load_dataset(seed)
        train, ot_fit, calib, test = split_dataset(ds, SplitSpec(cfg.fractions, seed))
        reg = fit_regressor(train, cfg.regressor.get("kind", "knn_mean"),
                            **{k: v for k, v in cfg.regressor.items() if k != "kind"})
        for mi, method in enumerate(cfg.methods):
            try:
                pred, fit_ms, cal_ms = fit_method(method, cfg, reg, train, ot_fit,
                                                  calib, seed)
                cov, size, pred_ms = _evaluate(pred, test, cfg, seed, mi)
                rows.append(MethodResult(method, seed, "ok", cov, size,
                                         fit_ms, cal_ms, pred_ms))
                if cfg.output_dir and cfg.save_models and method not in saved_models:
                    model_dir = Path(cfg.output_dir) / "models"
                    model_dir.mkdir(parents=True, exist_ok=True)
                    serialize.save_predictor(pred, model_dir / f"{method}.json")
                    saved_models.add(method)
            except CELL_FAILURES as exc:
                rows.append(MethodResult(method, seed,
                                         f"failed: {type(exc).__name__}: {exc}"))
    report = BenchReport(rows)
    if cfg.output_dir:
        report.write(cfg.output_dir)
    return report


def sweep(cfg: BenchConfig, eps_list=None, m_list=None) -> list[dict]:
    """Cross-product ablation of the transport method over (epsilon, m).

    Returns long-format records (epsilon, m, seed, coverage, size, time_ms) and
    writes sweep.csv under the config's output dir when one is set.
    """
    eps_list = DEFAULT_SWEEP_EPSILONS if eps_list is None else tuple(eps_list)
    m_list = DEFAULT_SWEEP_TARGETS if m_list is None else tuple(m_list)
    if not eps_list or not m_list:
        raise ParamError("sweep lists must be nonempty")
    records = []
    for eps in eps_list:
        for m in m_list:
            cell = replace(cfg, methods=("otcp",),
                           otcp={**cfg.otcp, "epsilon": float(eps), "m": int(m)},
                           output_dir=None, save_models=False)
            t0 = time.perf_counter()
            report = run_benchmark(cell)
            elapsed = (time.perf_counter() - t0) * 1e3
            for row in report.rows:
                records.append({"epsilon": float(eps), "m": int(m), "seed": row.seed,
                                "status": row.status, "coverage": row.coverage,
                                "mean_region_size": row.mean_region_size,
                                "time_ms": elapsed / max(len(report.rows), 1)})
    if cfg.output_dir:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["epsilon,m,seed,status,coverage,mean_region_size,time_ms"]
        for r in records:
            lines.append(_csv_line([repr(float(r["epsilon"])), str(r["m"]), str(r["seed"]),
                                    r["status"], repr(float(r["coverage"])),
                                    repr(float(r["mean_region_size"])),
                                    f"{r['time_ms']:.3f}"]))
        (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return records


# ---------------------------------------------------------------------------
# Contour export
# ---------------------------------------------------------------------------

def write_region_csv(region, path) -> None:
    lines = ["y0,y1"] + [f"{float(vx)!r},{float(vy)!r}" for vx, vy in region.vertices]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def export_contours(pred: CalibratedPredictor, xs, alphas, out_dir,
                    n_angles: int = 128) -> list[Path]:
    """One polygon CSV per (query point, alpha), plus a manifest with areas.

    Thresholds for each alpha are recomputed from the stored calibration
    scores. Nested levels should give nested areas; violations are recorded in
    the manifest under nesting_warnings rather than raised.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    alphas = sorted(float(a) for a in alphas)
    paths, manifest = [], []
    for i, x in enumerate(xs):
        areas = []
        for alpha in alphas:
            thr = pred.threshold_at(alpha)
            if not math.isfinite(thr):
                raise MethodError(
                    f"threshold at alpha={alpha} is infinite; cannot trace a contour")
            region = region_contour_2d(pred, x, n_angles=n_angles, threshold=thr)
            path = out_dir / f"contour_x{i}_alpha{alpha:g}.csv"
            write_region_csv(region, path)
            paths.append(path)
            areas.append({"alpha": alpha, "file": path.name, "area": region.area,
                          "reordered": region.reordered})
        # smaller alpha -> larger threshold -> containing region
        warnings = [f"area at alpha={a0['alpha']} < area at alpha={a1['alpha']}"
                    for a0, a1 in zip(areas, areas[1:])
                    if a0["area"] < a1["area"] - 1e-12]
        manifest.append({"x": [float(v) for v in x], "levels": areas,
                         "nesting_warnings": warnings})
    (out_dir / "contours.json").write_text(
        json.dumps({"format": "contour-export", "version": 1, "points": manifest},
                   indent=2) + "\n", encoding="utf-8")
    return paths
