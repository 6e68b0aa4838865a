"""Benchmark harness: coverage/region-size metrics, seeded runs, sweeps, exports.

A run takes one config, loops over seeds, and for each seed splits the data,
fits the shared point predictor, builds and calibrates every requested score
function, and measures marginal coverage plus the mean region size over the
first `region_size_points` test inputs. A sweep prepares each seed the same
way, once, and runs one otcp cell per (epsilon, m) on those parts; one
per-seed function serves both, and it alone turns an expected failure into a
failed row. Within a seed, the k-NN models of every cell search each distinct
set of query rows once and share the neighbors (data.shared_neighbors). Each
score kind sizes its own set in one call: `merge_l2`,
`merge_mahalanobis` and `abs_univariate` sets are a ball, an ellipse and an
interval of the same size at every input, and `mcp_max` sets are boxes, all
with exact volumes (so `region_size_points` matters only to
`mcp_max`). An `otcp` set is one residual-space set moved to each input, so it
is sized once, by `mc_samples` randomized Halton points in the calibration
residuals' bounding box inflated by `bounds_inflation`, with a standard error
taken over independent random shifts. Reports aggregate mean and standard
error across seeds and serialize as long-format CSV plus a JSON summary, which
also holds each method's region-size standard error and each otcp seed's
Sinkhorn diagnostics; bytes are reproducible for a fixed config once the
timing columns are set aside. `region_size_mc`, plain Monte Carlo at one input
over a given box, is the oracle for the exact volumes. BenchConfig resolves and
checks a config once, when built, so a value no run can use fails before data loads.
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
    SCORE_KINDS,
    CalibratedPredictor,
    calibrate,
    default_mahalanobis_ridge,
    estimate_covariance,
    make_score_function,
    region_contour_2d,
    region_volumes,
)
from .data import (
    Dataset,
    KnnQuantilePredictor,
    SplitSpec,
    fit_quantile_predictor,
    fit_regressor,
    load_dataset_csv,
    regressor_params,
    residuals,
    shared_neighbors,
    split_dataset,
    synth_dataset,
    synth_params,
)
from .entropic import fit_entropic_map
from .errors import (MethodError, NotFittedError, ParamError, ProvenanceError, _array,
                     _choice, _distinct, _file_errors, _integer, _level, _list, _object,
                     _positive, _real, _tag, _write_text)
from .sinkhorn import DEFAULT_MAX_ITER, DEFAULT_TOL
from .sphere import DIRECTION_MODES, build_spherical_grid, halton_sequence

# appendix-style ablation axes used when a sweep is run without explicit lists
DEFAULT_SWEEP_EPSILONS = (0.001, 0.01, 0.1, 1.0)
DEFAULT_SWEEP_TARGETS = (4096, 8192, 16384, 32768)

REPORT_COLUMNS = ("method", "seed", "status", "coverage", "mean_region_size")
TIMING_COLUMNS = ("fit_ms", "calibrate_ms", "predict_ms")
# sweep.csv: each cell's outputs and time, then its solve's diagnostics
SWEEP_COLUMNS = ("epsilon", "m", "seed", "status", "coverage", "mean_region_size", "time_ms",
                 "sinkhorn_iters", "converged", "marginal_error")
_SOLVER_KEYS = SWEEP_COLUMNS[-3:]

# every key a config section reads and its default (None: required), by kind for a dataset
DATASET_DEFAULTS = {
    "synthetic": {"kind": "synthetic", "generator": "gaussian", "n": 2000, "d": 2, "params": {}},
    "csv": {"kind": "csv", "path": None, "d_out": None}}
OTCP_DEFAULTS = {"epsilon": 0.1, "m": 4096, "grid_mode": "low_discrepancy",
                 "tol": DEFAULT_TOL, "max_iter": DEFAULT_MAX_ITER}

# expected failures of one (seed, method) cell, recorded in its report row:
# ValueError covers ParamError (errors.py) and numpy.linalg.LinAlgError, and
# MemoryError keeps an oversized cell to its own row. Anything else (TypeError,
# AttributeError, ...) is a bug and propagates.
CELL_FAILURES = (ValueError, NotFittedError, ProvenanceError, MethodError, MemoryError)

# independent random shifts of one sampled volume; its standard error is
# their spread, so this is fixed rather than a config key
VOLUME_SHIFTS = 8


def _filled(section: str, given: dict, defaults: dict) -> dict:
    """`defaults` updated by `given`; refuses any other key and a required one left unset."""
    unknown = sorted(set(_object(given, section)) - set(defaults))
    if unknown:
        raise ParamError(f"{section} section: unknown keys {unknown}")
    filled = {**defaults, **given}
    missing = sorted(k for k, v in defaults.items() if v is None and filled[k] is None)
    if missing:
        raise ParamError(f"{section} section needs {missing}")
    return filled


@dataclass
class BenchConfig:
    """Everything one benchmark run needs; loadable from JSON. Construction fills each
    section with every key it reads (idempotently) and refuses any value no run can use."""

    dataset: dict = field(default_factory=dict)
    methods: tuple = ("merge_l2", "merge_mahalanobis", "mcp_max", "otcp")
    alpha: float = 0.1
    fractions: tuple = (0.4, 0.2, 0.2, 0.2)
    regressor: dict = field(default_factory=dict)
    otcp: dict = field(default_factory=dict)
    mcp: dict = field(default_factory=dict)
    seeds: tuple = (0,)
    mc_samples: int = 10000
    region_size_points: int = 200
    bounds_inflation: float = 1.5
    output_dir: str | None = None
    save_models: bool = True

    def __post_init__(self):
        self.alpha = _level(self.alpha, "alpha")
        self.seeds = tuple(_integer(s, "seed", 0) for s in _list(self.seeds, "seeds"))
        if not self.seeds:
            raise ParamError("need at least one seed")
        _distinct(self.seeds, "seeds")
        self.mc_samples = _integer(self.mc_samples, "mc_samples", 1)
        self.region_size_points = _integer(self.region_size_points, "region_size_points", 1)
        self.bounds_inflation = _positive(self.bounds_inflation, "bounds_inflation")
        _tag(self.output_dir, "output_dir")
        if not isinstance(self.save_models, bool):
            raise ParamError(f"save_models must be true or false, got {self.save_models!r}")
        ds = {"kind": "synthetic", **_object(self.dataset, "dataset")}
        kind = _choice(ds["kind"], "dataset kind", DATASET_DEFAULTS)
        ds = self.dataset = _filled("dataset", ds, DATASET_DEFAULTS[kind])
        if ds["kind"] == "csv":
            if not isinstance(ds["path"], str):
                raise ParamError(f"dataset path must be a string, got {ds['path']!r}")
            ds["d_out"] = _integer(ds["d_out"], "dataset d_out", 1)
        else:  # rejects a generator or param synth_dataset would
            ds.update(n=_integer(ds["n"], "dataset n", 1), d=_integer(ds["d"], "dataset d", 1),
                      params=synth_params(ds["generator"], ds["d"], ds["params"]))
        reg = {"kind": "knn_mean", **_object(self.regressor, "regressor")}
        kind = reg.pop("kind")
        # rejects a regressor kind, parameter or value that fit_regressor would
        self.regressor = {"kind": kind, **regressor_params(kind, reg)}
        o = self.otcp = _filled("otcp", self.otcp, OTCP_DEFAULTS)
        o.update(epsilon=_positive(o["epsilon"], "otcp epsilon"),
                 m=_integer(o["m"], "otcp m", 2), tol=_positive(o["tol"], "otcp tol"),
                 max_iter=_integer(o["max_iter"], "otcp max_iter", 1),
                 grid_mode=_choice(o["grid_mode"], "otcp grid_mode", DIRECTION_MODES))
        KnnQuantilePredictor(*self._mcp_levels())  # rejects levels mcp_max would
        self.methods = tuple(_choice(m, "score kind", SCORE_KINDS)
                             for m in _list(self.methods, "methods"))
        if not self.methods:
            raise ParamError("need at least one method")
        _distinct(self.methods, "methods")
        self.fractions = SplitSpec(self.fractions).fractions  # those split_dataset accepts

    def _mcp_levels(self) -> tuple:
        """mcp_max's (k, alpha_lo, alpha_hi), unless set: the regressor's (or knn_mean's) k,
        alpha / 2 and 1 - alpha / 2. They follow alpha, so they are derived, not stored."""
        k = self.regressor.get("k", regressor_params("knn_mean", {})["k"])
        return tuple(_filled("mcp", self.mcp, {"k": k, "alpha_lo": self.alpha / 2,
                                               "alpha_hi": 1 - self.alpha / 2}).values())

    @classmethod
    def from_dict(cls, raw: dict) -> "BenchConfig":
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ParamError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def from_json_file(cls, path) -> "BenchConfig":
        return cls.from_dict(serialize.read_json_object(path, "config"))

    def load_dataset(self, seed: int) -> Dataset:
        ds = self.dataset
        if ds["kind"] == "synthetic":
            return synth_dataset(ds["generator"], ds["n"], ds["d"], ds["params"], seed=seed)
        return load_dataset_csv(ds["path"], ds["d_out"], tag=ds["path"])


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
    region_size_stderr: float = math.nan  # of mean_region_size; 0 for exact volumes
    solver: dict = field(default_factory=dict)  # otcp: Sinkhorn diagnostics


@dataclass
class BenchReport:
    rows: list

    def csv_text(self, include_timings: bool = True) -> str:
        cols = REPORT_COLUMNS + (TIMING_COLUMNS if include_timings else ())
        return _table(cols, ([getattr(r, c) for c in cols] for r in self.rows))

    def aggregates(self) -> dict:
        """Per-method mean and standard error (std/sqrt(#seeds)) across seeds.

        Each method with an ok row also gets the sampling standard error of
        its mean region size (`region_size_stderr`, 0 for exact volumes) and
        `per_seed` entries with each seed's own one and, for otcp, the
        Sinkhorn solve's iterations, marginal error and convergence.
        """
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
            if ok:
                entry["region_size_stderr"] = (
                    math.sqrt(sum(r.region_size_stderr ** 2 for r in ok)) / len(ok))
                entry["per_seed"] = [{"seed": r.seed,
                                      "region_size_stderr": r.region_size_stderr,
                                      **r.solver} for r in ok]
            out[method] = entry
        return out

    @property
    def any_failed(self) -> bool:
        return any(r.status != "ok" for r in self.rows)

    def write(self, out_dir) -> tuple[Path, Path]:
        out_dir = _output_dir(out_dir)
        csv_path, json_path = out_dir / "report.csv", out_dir / "report_summary.json"
        _write_text(csv_path, self.csv_text(), "report")
        _write_text(json_path, json.dumps(self.aggregates(), indent=2, sort_keys=True,
                                          allow_nan=False) + "\n", "report summary")
        return csv_path, json_path


def _field(column: str, value) -> str:
    """One field of a CSV the harness writes: empty for None (a failed cell has no
    value), a `*_ms` column to 3 decimals, a string as is, anything else as repr."""
    if value is None:
        return ""
    if column.endswith("_ms"):
        return f"{value:.3f}"
    return value if isinstance(value, str) else repr(value)


def _table(columns, rows) -> str:
    """CSV text: a header of `columns`, then one record per row of values in column
    order, each by _field; a field holding a comma, quote or line break (failure
    messages can) is quoted, every other one written as is."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_field(c, v) for c, v in zip(columns, row)] for row in rows)
    return buf.getvalue()


def _output_dir(path) -> Path:
    """The directory `path`, created with its parents; ParamError naming it if it cannot be."""
    with _file_errors("create output directory", path):
        Path(path).mkdir(parents=True, exist_ok=True)
    return Path(path)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def marginal_coverage(pred: CalibratedPredictor, test: Dataset) -> float:
    """Fraction of test pairs whose response falls inside the prediction set."""
    return float(pred.contains_rows(test.features, test.targets).mean())


def residual_box(pred: CalibratedPredictor, inflate: float = 1.5):
    """Residual-space box: the calibration residuals' bounding box inflated about its middle."""
    mid = (pred.residual_low + pred.residual_high) / 2.0
    half = (pred.residual_high - pred.residual_low) / 2.0
    return mid - inflate * half, mid + inflate * half


def _checked_box(low, high) -> tuple[np.ndarray, np.ndarray]:
    low = _array(low, "bounds low", (None,))
    high = _array(high, "bounds high", low.shape)
    if not (high > low).all():
        raise ParamError("bounds must have positive side lengths")
    return low, high


def region_size_mc(pred: CalibratedPredictor, x, bounds, n_mc: int = 10000,
                   seed: int = 0) -> float:
    """Monte-Carlo volume of the set at x: hit fraction times the volume of box `bounds`."""
    n_mc, seed = _integer(n_mc, "n_mc", 1), _integer(seed, "seed", 0)
    low, high = _checked_box(*bounds)
    volume = float(np.prod(high - low))
    rng = np.random.default_rng(seed)
    samples = rng.uniform(low, high, size=(n_mc, low.size))
    hits = pred.contains_candidates(x, samples)
    return float(hits.mean()) * volume


def qmc_volume(inside, low, high, n_samples: int, seed: int) -> tuple[float, float]:
    """Volume of {z in the box [low, high]: inside(z)} by randomized Halton points.

    The box holds VOLUME_SHIFTS copies of the first ceil(n_samples /
    VOLUME_SHIFTS) Halton points, each moved modulo 1 by its own uniform
    random shift drawn from `seed` (a Cranley-Patterson rotation), so each
    copy gives an unbiased estimate. Returns their mean and its standard
    error, their standard deviation over sqrt(VOLUME_SHIFTS). `inside` maps
    (N, d) rows to N flags and is called once, on every point.
    """
    n_samples, seed = _integer(n_samples, "n_samples", 1), _integer(seed, "seed", 0)
    low, high = _checked_box(low, high)
    per_shift = -(-n_samples // VOLUME_SHIFTS)
    shifts = np.random.default_rng(seed).random((VOLUME_SHIFTS, 1, low.size))
    unit = (halton_sequence(per_shift, low.size)[None] + shifts) % 1.0
    hits = np.asarray(inside((low + unit * (high - low)).reshape(-1, low.size)))
    frac = hits.reshape(VOLUME_SHIFTS, per_shift).mean(axis=1)
    box = float(np.prod(high - low))
    return (box * float(frac.mean()),
            box * float(frac.std(ddof=1)) / math.sqrt(VOLUME_SHIFTS))


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
        parts["quantile_predictor"] = fit_quantile_predictor(train, *cfg._mcp_levels())
    elif method == "otcp":
        o = cfg.otcp
        fit_resid = residuals(ot_fit, reg)
        grid = build_spherical_grid(o["m"], ot_fit.d, mode=o["grid_mode"], seed=seed)
        parts["transport_map"] = fit_entropic_map(
            fit_resid, grid, epsilon=o["epsilon"], tol=o["tol"], max_iter=o["max_iter"])
    fn = make_score_function(method, **parts)
    t1 = time.perf_counter()
    pred = calibrate(fn, calib, cfg.alpha)
    t2 = time.perf_counter()
    return pred, (t1 - t0) * 1e3, (t2 - t1) * 1e3


def _evaluate(pred: CalibratedPredictor, test: Dataset, cfg: BenchConfig,
              seed: int, method_index: int) -> tuple[float, float, float, float]:
    """Coverage, mean region size over the first region_size_points test
    inputs, that size's standard error, and the milliseconds taken."""
    t0 = time.perf_counter()
    cov = marginal_coverage(pred, test)
    mc_seed = seed * 8191 + method_index  # per-cell stream, schedule independent

    def sample(inside):
        low, high = residual_box(pred, cfg.bounds_inflation)
        return qmc_volume(inside, low, high, cfg.mc_samples, mc_seed)

    sizes, stderr = region_volumes(pred, test.features[:cfg.region_size_points], sample)
    t1 = time.perf_counter()
    return cov, float(np.mean(sizes)), stderr, (t1 - t0) * 1e3


def _solver_diagnostics(pred: CalibratedPredictor) -> dict:
    """Sinkhorn iterations, marginal error and convergence of an otcp map's solve."""
    emap = getattr(pred.score_fn, "transport_map", None)
    if emap is None:
        return {}
    pot = emap.potentials
    error = float(pot.marginal_error)
    return {"sinkhorn_iters": int(pot.iterations),
            "marginal_error": error if math.isfinite(error) else None,
            "converged": bool(pot.converged)}


def _run_seed(cfg: BenchConfig, seed: int, cells):
    """Load, split and fit the regressor for one seed once, then run each (method,
    config, method index) cell on those parts, yielding (row, predictor or None,
    cell ms). The cells share one k-NN search per distinct query row set (ot_fit,
    calib, test, mcp_max's sizing rows) and k: the first cell that asks searches
    and the rest reuse its neighbors. The shared searches are visible only while
    a cell runs, so code that uses a yielded predictor searches as usual, and they
    are dropped with the seed. Only CELL_FAILURES become failed rows; other
    exceptions propagate."""
    train, ot_fit, calib, test = split_dataset(cfg.load_dataset(seed),
                                               SplitSpec(cfg.fractions, seed))
    reg = fit_regressor(train, **cfg.regressor)
    searches = {}
    for method, cell, mi in cells:
        t0 = time.perf_counter()
        try:
            with shared_neighbors(searches):
                pred, fit_ms, cal_ms = fit_method(method, cell, reg, train, ot_fit, calib, seed)
                cov, size, size_se, pred_ms = _evaluate(pred, test, cell, seed, mi)
            row = MethodResult(method, seed, "ok", cov, size, fit_ms, cal_ms, pred_ms,
                               size_se, _solver_diagnostics(pred))
        except CELL_FAILURES as exc:
            pred, row = None, MethodResult(method, seed, f"failed: {type(exc).__name__}: {exc}")
        yield row, pred, (time.perf_counter() - t0) * 1e3


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    """Run every (seed, method) cell; a failure marks its row and spares the rest.
    With an output dir, made before the first seed, each method's first ok predictor
    is saved under models/ (unless save_models is off) and the report is written there.
    The saves of one seed share one memo, so the arrays their models share, such as the
    k-NN training rows, are encoded once."""
    cells = [(method, cfg, mi) for mi, method in enumerate(cfg.methods)]
    out = cfg.output_dir and _output_dir(cfg.output_dir)
    rows, saved_models = [], set()
    for seed in cfg.seeds:
        encoded = {}
        for row, pred, _ in _run_seed(cfg, seed, cells):
            rows.append(row)
            if pred and out and cfg.save_models and row.method not in saved_models:
                model_dir = _output_dir(out / "models")
                serialize.save_predictor(pred, model_dir / f"{row.method}.json", encoded)
                saved_models.add(row.method)
    report = BenchReport(rows)
    if out:
        report.write(out)
    return report


def sweep(cfg: BenchConfig, eps_list=None, m_list=None) -> list[dict]:
    """Cross-product ablation of the transport method over (epsilon, m).

    Every cell's config is built, and so checked, the axes are checked for
    repeated values, and the output dir is made before any data is loaded;
    each seed is then prepared once for all cells. Returns
    long-format records (epsilon, m, seed, status, coverage, mean_region_size,
    time_ms, the cell's own milliseconds, and the solve's sinkhorn_iters,
    converged and marginal_error, None for a failed cell) in (epsilon, m, seed)
    order, and writes them as sweep.csv (SWEEP_COLUMNS) under the config's
    output dir when one is set.
    """
    eps_list = DEFAULT_SWEEP_EPSILONS if eps_list is None else _list(eps_list, "sweep eps")
    m_list = DEFAULT_SWEEP_TARGETS if m_list is None else _list(m_list, "sweep targets")
    if not eps_list or not m_list:
        raise ParamError("sweep lists must be nonempty")
    cells = [("otcp", replace(cfg, otcp={**cfg.otcp, "epsilon": eps, "m": m}), 0)
             for eps in eps_list for m in m_list]
    _distinct(eps_list, "sweep eps")
    _distinct(m_list, "sweep targets")
    out = cfg.output_dir and _output_dir(cfg.output_dir)
    runs = [[(row, ms) for row, _, ms in _run_seed(cfg, seed, cells)] for seed in cfg.seeds]
    records = [dict(zip(SWEEP_COLUMNS, (cell.otcp["epsilon"], cell.otcp["m"], row.seed,
                                         row.status, row.coverage, row.mean_region_size, ms,
                                         *(row.solver.get(key) for key in _SOLVER_KEYS))))
               for (_, cell, _), per_seed in zip(cells, zip(*runs)) for row, ms in per_seed]
    if out:
        _write_text(out / "sweep.csv", _table(SWEEP_COLUMNS, (r.values() for r in records)),
                    "sweep")
    return records


# ---------------------------------------------------------------------------
# Contour export
# ---------------------------------------------------------------------------

def write_region_csv(region, path) -> None:
    vertices = np.asarray(region.vertices, dtype=float).tolist()
    _write_text(path, _table(("y0", "y1"), vertices), "contour")


def export_contours(pred: CalibratedPredictor, xs, alphas, out_dir,
                    n_angles: int = 128) -> list[Path]:
    """One polygon CSV per (query point, alpha), plus a manifest with areas; `xs` holds
    the query points as rows.

    Thresholds for each alpha are recomputed from the stored calibration
    scores. Nested levels should give nested areas; violations are recorded in
    the manifest under nesting_warnings rather than raised. Every region is
    traced before `out_dir` is created, so a refused request writes nothing.
    """
    out_dir = Path(out_dir)
    xs = _array(xs, "query points", (None, None))
    alphas = sorted(_real(a, "alpha") for a in _list(alphas, "alphas"))
    if not len(xs) or not alphas:
        raise ParamError("contour export needs at least one query point and one alpha")
    _distinct(tuple(alphas), "alphas")
    traced, manifest = [], []
    for i, x in enumerate(xs):
        areas = []
        for alpha in alphas:
            thr = pred.threshold_at(alpha)
            if not math.isfinite(thr):
                raise MethodError(
                    f"threshold at alpha={alpha} is infinite; cannot trace a contour")
            region = region_contour_2d(pred, x, n_angles=n_angles, threshold=thr)
            path = out_dir / f"contour_x{i}_alpha{alpha:g}.csv"
            traced.append((path, region))
            areas.append({"alpha": alpha, "file": path.name, "area": region.area,
                          "reordered": region.reordered})
        # smaller alpha -> larger threshold -> containing region
        warnings = [f"area at alpha={a0['alpha']} < area at alpha={a1['alpha']}"
                    for a0, a1 in zip(areas, areas[1:])
                    if a0["area"] < a1["area"] - 1e-12]
        manifest.append({"x": [float(v) for v in x], "levels": areas,
                         "nesting_warnings": warnings})
    _output_dir(out_dir)
    for path, region in traced:
        write_region_csv(region, path)
    _write_text(out_dir / "contours.json",
                json.dumps({"format": "contour-export", "version": 1, "points": manifest},
                           indent=2) + "\n", "contour manifest")
    return [path for path, _ in traced]
