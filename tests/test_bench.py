import contextlib
import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from otcp import (
    BenchConfig,
    CalibratedPredictor,
    Dataset,
    EntropicMap,
    KnnQuantilePredictor,
    MethodError,
    ParamError,
    SplitSpec,
    build_spherical_grid,
    calibrate,
    export_contours,
    fit_entropic_map,
    fit_quantile_predictor,
    fit_regressor,
    make_score_function,
    marginal_coverage,
    region_size_mc,
    region_volumes,
    residuals,
    run_benchmark,
    split_dataset,
    sweep,
    synth_dataset,
)
from otcp import bench, data, serialize
from otcp.bench import DEFAULT_SWEEP_EPSILONS, DEFAULT_SWEEP_TARGETS


def _zero_center_predictor(threshold: float, d: int = 2, kind: str = "merge_l2",
                           **parts) -> CalibratedPredictor:
    """A regression-score predictor whose center is exactly the origin, with a set radius."""
    X = np.linspace(0.0, 1.0, 20)[:, None]
    ds = Dataset(X, np.zeros((20, d)), tag="zeros")
    reg = fit_regressor(ds, "ridge_linear", lam=0.0)
    fn = make_score_function(kind, regressor=reg, **parts)
    cal = np.linspace(0.1, 2.0, 20)
    return CalibratedPredictor(fn, 0.1, threshold, np.sort(cal),
                               np.full(d, -2.0), np.full(d, 2.0))


@pytest.fixture(scope="module")
def banana_parts():
    ds = synth_dataset("banana", 800, 2, params={"noise": 0.3}, seed=3)
    train, ot_fit, calib, test = split_dataset(ds, SplitSpec(seed=3))
    reg = fit_regressor(train, "knn_mean", k=20)
    emap = fit_entropic_map(residuals(ot_fit, reg), build_spherical_grid(256, 2),
                            epsilon=0.1)
    otcp_pred = calibrate(make_score_function("otcp", regressor=reg, transport_map=emap),
                          calib, alpha=0.1)
    qp = fit_quantile_predictor(train, 20, 0.05, 0.95)
    mcp_pred = calibrate(make_score_function("mcp_max", quantile_predictor=qp),
                         calib, alpha=0.1)
    return {"otcp": otcp_pred, "mcp_max": mcp_pred, "test": test}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_coverage_extremes():
    test = synth_dataset("gaussian", 200, 2, seed=0)
    assert marginal_coverage(_zero_center_predictor(math.inf), test) == 1.0
    assert marginal_coverage(_zero_center_predictor(0.0), test) <= 0.01


def test_coverage_synthetic_gaussian_near_nominal():
    cfg = BenchConfig(
        dataset={"kind": "synthetic", "generator": "gaussian", "n": 1000, "d": 2},
        methods=("merge_l2",), seeds=tuple(range(5)), mc_samples=100,
        region_size_points=1)
    report = run_benchmark(cfg)
    covs = [r.coverage for r in report.rows]
    assert 0.85 <= float(np.mean(covs)) <= 0.95


def test_region_size_circle_oracle():
    pred = _zero_center_predictor(1.0)
    bounds = (np.array([-1.25, -1.25]), np.array([1.25, 1.25]))
    est = region_size_mc(pred, [0.5], bounds=bounds, n_mc=100000, seed=3)
    assert abs(est - math.pi) / math.pi < 0.05


def test_region_size_zero_threshold():
    pred = _zero_center_predictor(0.0)
    bounds = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert region_size_mc(pred, [0.5], bounds=bounds, n_mc=1000, seed=0) == 0.0


def test_region_size_rectangle_oracle():
    train = Dataset(np.array([[0.0], [1.0]]), np.array([[0.0, 0.0], [1.0, 2.0]]))
    qp = fit_quantile_predictor(train, k=2, alpha_lo=0.25, alpha_hi=0.75)
    fn = make_score_function("mcp_max", quantile_predictor=qp)
    pred = CalibratedPredictor(fn, 0.1, 0.5, np.array([0.5]),
                               np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    lo, hi = qp.predict_bounds([0.5])
    lo, hi = lo - 0.5, hi + 0.5
    exact = float(np.prod(hi - lo))
    bounds = (lo - 1.0, hi + 1.0)
    est = region_size_mc(pred, [0.5], bounds=bounds, n_mc=100000, seed=5)
    assert abs(est - exact) / exact < 0.05


def test_region_size_unbiased_across_repetitions():
    pred = _zero_center_predictor(1.0)
    bounds = (np.array([-1.5, -1.5]), np.array([1.5, 1.5]))
    reps = [region_size_mc(pred, [0.5], bounds=bounds, n_mc=10000, seed=s)
            for s in range(100)]
    assert abs(float(np.mean(reps)) - math.pi) / math.pi < 0.01


def test_region_size_degenerate_box():
    pred = _zero_center_predictor(1.0)
    with pytest.raises(ParamError):
        region_size_mc(pred, [0.5], bounds=(np.zeros(2), np.zeros(2)), n_mc=10)


def test_evaluate_honours_bounds_inflation(monkeypatch, banana_parts):
    # the config's inflation sets otcp's residual-space sampling box: residual
    # box (-1, 3) x (0, 2), middle (1, 1), half-widths (2, 1), times 3
    boxes = []
    size_of = bench.qmc_volume

    def spy(inside, low, high, n_samples, seed):
        boxes.append((low, high))
        return size_of(inside, low, high, n_samples, seed)

    monkeypatch.setattr(bench, "qmc_volume", spy)
    pred = dataclasses.replace(banana_parts["otcp"], residual_low=np.array([-1.0, 0.0]),
                               residual_high=np.array([3.0, 2.0]))
    cfg = BenchConfig(methods=("otcp",), mc_samples=100, region_size_points=3,
                      bounds_inflation=3.0)
    bench._evaluate(pred, banana_parts["test"], cfg, seed=0, method_index=0)
    assert len(boxes) == 1
    np.testing.assert_allclose(boxes[0][0], [-5.0, -2.0], atol=1e-12)
    np.testing.assert_allclose(boxes[0][1], [7.0, 4.0], atol=1e-12)


# each closed form against plain Monte Carlo over a box holding the whole set
# (criterion 8's sample count and tolerance)
_WHITENER = np.array([[2.0, 0.5], [0.5, 1.0]])
_WHITENER_3D = np.array([[1.5, 0.2, 0.0], [0.2, 1.0, 0.3], [0.0, 0.3, 0.5]])


@pytest.mark.parametrize("kind, d, parts", [
    ("abs_univariate", 1, {}),
    ("merge_l2", 2, {}),
    ("merge_l2", 3, {}),
    ("merge_mahalanobis", 2, {"whitener": _WHITENER}),
    ("merge_mahalanobis", 3, {"whitener": _WHITENER_3D}),
])
def test_regression_volumes_match_monte_carlo(kind, d, parts):
    pred = _zero_center_predictor(0.8, d, kind, **parts)
    W = parts.get("whitener", np.eye(d))
    reach = 0.8 / np.linalg.svd(W, compute_uv=False).min()  # the set's radius
    box = (np.full(d, -1.05 * reach), np.full(d, 1.05 * reach))
    X = np.array([[0.1], [0.5], [0.9]])
    volumes, stderr = region_volumes(pred, X)
    assert stderr == 0.0 and volumes.shape == (3,)
    assert (volumes == volumes[0]).all()
    est = region_size_mc(pred, [0.5], bounds=box, n_mc=100000, seed=11)
    assert abs(est - volumes[0]) / volumes[0] < 0.05


def test_interval_volumes_match_monte_carlo_at_each_row(banana_parts):
    pred = banana_parts["mcp_max"]
    X = banana_parts["test"].features[:4]
    volumes, stderr = region_volumes(pred, X)
    assert stderr == 0.0 and volumes.shape == (4,)
    r = pred.threshold
    for x, vol in zip(X, volumes):
        lo, hi = pred.score_fn.quantile_predictor.predict_bounds(x)
        est = region_size_mc(pred, x, bounds=(lo - r - 0.5, hi + r + 0.5),
                             n_mc=100000, seed=12)
        assert abs(est - vol) / vol < 0.05
    assert len(set(volumes.tolist())) > 1  # the boxes differ from row to row


def test_otcp_volume_matches_pooled_monte_carlo(banana_parts):
    pred, X = banana_parts["otcp"], banana_parts["test"].features[:3]
    low, high = bench.residual_box(pred, 1.5)
    volumes, se = region_volumes(pred, X,
                                 lambda inside: bench.qmc_volume(inside, low, high, 4000, 5))
    assert se > 0.0 and (volumes == volumes[0]).all()
    center = pred.score_fn.center(X[0])
    box = (center + low, center + high)  # the same box, moved to X[0]
    n, seeds = 50000, range(4)
    pooled = float(np.mean([region_size_mc(pred, X[0], box, n_mc=n, seed=s) for s in seeds]))
    box_volume = float(np.prod(box[1] - box[0]))
    p = pooled / box_volume
    pooled_se = box_volume * math.sqrt(p * (1 - p) / (n * len(seeds)))
    assert abs(volumes[0] - pooled) < 4 * math.hypot(se, pooled_se)


def test_otcp_volume_is_repeatable_per_seed(banana_parts):
    pred, test = banana_parts["otcp"], banana_parts["test"]
    cfg = BenchConfig(methods=("otcp",), mc_samples=500, region_size_points=5)
    first = bench._evaluate(pred, test, cfg, seed=2, method_index=3)[:3]
    again = bench._evaluate(pred, test, cfg, seed=2, method_index=3)[:3]
    other = bench._evaluate(pred, test, cfg, seed=2, method_index=4)[:3]
    assert repr(first).encode() == repr(again).encode()
    assert other[0] == first[0] and other[1:] != first[1:]


def test_evaluate_sizes_each_cell_in_one_call(monkeypatch, banana_parts):
    monkeypatch.setattr(bench, "region_size_mc",
                        lambda *a, **k: pytest.fail("sized one point at a time"))
    rows = []

    def counting(cls, name):
        original = getattr(cls, name)

        def spy(self, X):
            rows.append(np.atleast_2d(X).shape[0])
            return original(self, X)
        monkeypatch.setattr(cls, name, spy)

    counting(KnnQuantilePredictor, "bounds_rows")
    counting(EntropicMap, "rank")
    test = banana_parts["test"]
    cfg = BenchConfig(mc_samples=1000, region_size_points=50)
    bench._evaluate(banana_parts["mcp_max"], test, cfg, seed=0, method_index=2)
    assert rows == [test.n, 50]  # coverage, then every sized point at once
    rows.clear()
    bench._evaluate(banana_parts["otcp"], test, cfg, seed=0, method_index=3)
    assert rows == [test.n, 1000]  # coverage, then one residual-space sample


def test_volume_refuses_infinite_thresholds():
    with pytest.raises(MethodError):
        region_volumes(_zero_center_predictor(math.inf), [[0.5]])


def test_qmc_volume_rejects_an_empty_sample_or_box():
    inside = lambda z: np.ones(len(z), dtype=bool)  # noqa: E731
    with pytest.raises(ParamError):
        bench.qmc_volume(inside, [0.0], [1.0], 0, seed=0)
    with pytest.raises(ParamError):
        bench.qmc_volume(inside, [0.0, 0.0], [1.0, 0.0], 8, seed=0)
    # the whole box is inside: the exact volume with no spread
    assert bench.qmc_volume(inside, [0.0, -1.0], [2.0, 1.0], 8, seed=0) == (4.0, 0.0)


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def _small_cfg(**over):
    base = dict(
        dataset={"kind": "synthetic", "generator": "gaussian", "n": 600, "d": 2},
        methods=("merge_l2",),
        seeds=(0,),
        mc_samples=400,
        region_size_points=3,
        otcp={"epsilon": 0.1, "m": 256},
    )
    base.update(over)
    return BenchConfig(**base)


def test_run_single_cell():
    report = run_benchmark(_small_cfg())
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.status == "ok" and 0.0 <= row.coverage <= 1.0


def test_identical_seeds_identical_rows():
    (a,), (b,) = (run_benchmark(_small_cfg(seeds=(4,))).rows for _ in range(2))
    assert (a.coverage, a.mean_region_size) == (b.coverage, b.mean_region_size)


def test_report_determinism_bytes():
    cfg_a = _small_cfg(methods=("merge_l2", "otcp"), seeds=(0, 1))
    cfg_b = _small_cfg(methods=("merge_l2", "otcp"), seeds=(0, 1))
    text_a = run_benchmark(cfg_a).csv_text(include_timings=False)
    text_b = run_benchmark(cfg_b).csv_text(include_timings=False)
    assert text_a.encode() == text_b.encode()


def test_whitening_beats_plain_l2_on_anisotropic_noise():
    cfg = _small_cfg(
        dataset={"kind": "synthetic", "generator": "gaussian", "n": 1500, "d": 2,
                 "params": {"cov": [[4.0, 0.0], [0.0, 0.25]]}},
        methods=("merge_l2", "merge_mahalanobis"), seeds=(0, 1, 2),
        mc_samples=2000, region_size_points=10)
    agg = run_benchmark(cfg).aggregates()
    # analytic oracle at matched coverage: the 90% ellipse has area
    # pi*q^2*sigma1*sigma2 = pi*q^2 while the covering circle needs roughly
    # pi*(q*sigma1)^2 = 4*pi*q^2, so whitening must come out smaller
    assert (agg["merge_mahalanobis"]["mean_region_size"]["mean"]
            < agg["merge_l2"]["mean_region_size"]["mean"])


def test_infinite_threshold_fails_its_cell(tmp_path):
    # 120 calibration pairs: alpha < 1/121 puts the threshold at +inf
    report = run_benchmark(_small_cfg(alpha=0.005, methods=("merge_l2", "otcp"),
                                      output_dir=str(tmp_path)))
    for row in report.rows:
        assert row.status.startswith("failed: MethodError: threshold is infinite")
    summary = json.loads((tmp_path / "report_summary.json").read_text(),
                         parse_constant=lambda token: pytest.fail(f"wrote {token}"))
    assert summary["otcp"]["n_failed"] == 1 and "mean_region_size" not in summary["otcp"]


def test_summary_holds_size_errors_and_solver_diagnostics(tmp_path):
    cfg = _small_cfg(methods=("merge_l2", "otcp"), seeds=(0, 1), output_dir=str(tmp_path))
    report = run_benchmark(cfg)
    summary = json.loads((tmp_path / "report_summary.json").read_text(),
                         parse_constant=lambda token: pytest.fail(f"wrote {token}"))
    assert summary["merge_l2"]["region_size_stderr"] == 0.0
    otcp_rows = [r for r in report.rows if r.method == "otcp"]
    entry = summary["otcp"]
    assert entry["region_size_stderr"] == pytest.approx(
        math.hypot(*(r.region_size_stderr for r in otcp_rows)) / 2)
    assert [s["seed"] for s in entry["per_seed"]] == [0, 1]
    for seed_entry, row in zip(entry["per_seed"], otcp_rows):
        assert seed_entry["region_size_stderr"] == row.region_size_stderr > 0.0
        assert isinstance(seed_entry["sinkhorn_iters"], int)
        assert isinstance(seed_entry["converged"], bool)
        assert 0.0 <= seed_entry["marginal_error"]
    # the CSV report keeps its columns
    header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert header == ",".join(bench.REPORT_COLUMNS + bench.TIMING_COLUMNS)


def test_method_failure_isolated():
    cfg = _small_cfg(methods=("abs_univariate", "merge_l2"))  # abs needs d=1
    report = run_benchmark(cfg)
    by_method = {r.method: r for r in report.rows}
    assert by_method["abs_univariate"].status.startswith("failed: DimensionError: ")
    assert by_method["merge_l2"].status == "ok"
    assert report.any_failed


def test_mahalanobis_on_one_fit_row_fails_naming_its_cause():
    # n=60 at these fractions leaves one ot_fit row, too few for the sample
    # covariance behind the ridge; the row names that, not a NaN downstream
    cfg = _small_cfg(dataset={"kind": "synthetic", "generator": "gaussian", "n": 60, "d": 2},
                     methods=("merge_mahalanobis",), fractions=(0.5, 0.02, 0.24, 0.24))
    (row,) = run_benchmark(cfg).rows
    assert row.status == ("failed: ParamError: a Mahalanobis ridge needs at least 2 "
                          "residual rows, got 1")


def test_programming_error_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise AttributeError("no such attribute")

    monkeypatch.setattr(bench, "fit_method", broken)
    with pytest.raises(AttributeError):
        run_benchmark(_small_cfg())
    assert data._NEIGHBOR_MEMO.get() is None  # the cell's shared search closed with it


def test_aggregate_standard_error_formula():
    cfg = _small_cfg(seeds=(0, 1, 2, 3))
    report = run_benchmark(cfg)
    covs = np.array([r.coverage for r in report.rows])
    agg = report.aggregates()["merge_l2"]["coverage"]
    assert agg["mean"] == pytest.approx(float(covs.mean()))
    assert agg["stderr"] == pytest.approx(float(covs.std(ddof=1) / math.sqrt(4)))


def test_report_files_written(tmp_path):
    cfg = _small_cfg(output_dir=str(tmp_path / "out"))
    run_benchmark(cfg)
    csv_text = (tmp_path / "out" / "report.csv").read_text()
    assert csv_text.splitlines()[0].startswith("method,seed,status,coverage")
    summary = json.loads((tmp_path / "out" / "report_summary.json").read_text())
    assert "merge_l2" in summary
    assert (tmp_path / "out" / "models" / "merge_l2.json").exists()


def _csv_widths(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return {len(row) for row in csv.reader(fh)}


def test_failure_message_with_comma_keeps_report_columns(tmp_path):
    cfg = _small_cfg(methods=("mcp_max", "merge_l2"), mcp={"k": 100000},
                     output_dir=str(tmp_path))
    report = run_benchmark(cfg)
    assert "," in report.rows[0].status
    assert _csv_widths(tmp_path / "report.csv") == {8}


def test_config_validation_and_json(tmp_path):
    with pytest.raises(ParamError):
        BenchConfig(alpha=1.5)
    with pytest.raises(ParamError):
        BenchConfig(seeds=())
    with pytest.raises(ParamError):
        BenchConfig.from_dict({"bogus_key": 1})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": 0.2, "seeds": [3],
                                "methods": ["merge_l2"]}))
    cfg = BenchConfig.from_json_file(path)
    assert cfg.alpha == 0.2 and cfg.seeds == (3,)


@pytest.mark.parametrize("over", [
    {"otcp": {"eps": 0.01}},
    {"mcp": {"alpha": 0.1}},
    {"regressor": {"kind": "knn_mean", "lam": 3}},
    {"regressor": {"kind": "ridge_linear", "k": 5}},
    {"regressor": {"kind": "no_such_kind"}},
    {"dataset": {"kind": "synthetic", "generator": "gaussian", "nn": 5}},
    {"dataset": {"kind": "synthetic", "path": "data.csv"}},
    {"dataset": {"kind": "csv", "path": "data.csv", "d_out": 2, "n": 10}},
    {"dataset": {"kind": "csv", "d_out": 2}},
    {"dataset": {"kind": "csv", "path": "data.csv"}},
    {"dataset": {"kind": "parquet"}},
    {"dataset": {"kind": "synthetic", "generator": "gaussian", "params": {"nosie": 1.0}}},
    {"dataset": {"kind": "synthetic", "generator": "banana", "params": {"cov": [[1.0]]}}},
    {"dataset": {"kind": "synthetic", "generator": "no_such_generator"}},
])
def test_config_rejects_keys_nothing_reads(over):
    with pytest.raises(ParamError):
        BenchConfig(**over)
    with pytest.raises(ParamError):
        BenchConfig.from_dict(over)


@pytest.mark.parametrize("over", [
    {"otcp": {"epsilon": math.nan}},
    {"region_size_points": 0},
    {"bounds_inflation": 0.0},
    {"bounds_inflation": -1.5},
    {"bounds_inflation": math.inf},
    {"bounds_inflation": math.nan},
    {"methods": ()},
    {"methods": ("merge_l3",)},
    {"methods": ("merge_l2", "no_such_kind")},
    {"fractions": (0.5, 0.5)},
    {"fractions": (0.4, 0.2, 0.2, 0.3)},
    {"fractions": (1.2, -0.2, 0.0, 0.0)},
    {"otcp": {"tol": 0}},
    {"otcp": {"tol": math.inf}},
    {"otcp": {"tol": math.nan}},
    {"otcp": {"epsilon": math.inf}},
    {"otcp": {"max_iter": 0}},
    {"otcp": {"max_iter": 2.5}},
    {"otcp": {"grid_mode": "sobol"}},
    {"mcp": {"alpha_lo": 0.9, "alpha_hi": 0.1}},
    {"otcp": {"m": 64.7}},
    {"seeds": (1.5,)},
    {"dataset": {"kind": "synthetic", "n": -5}},
    {"dataset": {"kind": "synthetic", "d": 0}},
    {"mc_samples": 10.5},
    {"otcp": {"m": "64"}},
    {"alpha": "0.1"},
    {"otcp": {"epsilon": "0.1"}},
    {"otcp": {"max_iter": True}},
    {"seeds": (-1,)},
    {"region_size_points": 2.0},
    {"bounds_inflation": "1.5"},
    {"fractions": ("0.4", 0.2, 0.2, 0.2)},
    {"dataset": {"kind": "csv", "path": "data.csv", "d_out": 1.5}},
    {"regressor": {"kind": "knn_mean", "k": 2.5}},
    {"regressor": {"kind": "knn_mean", "k": 0}},
    {"regressor": {"kind": "ridge_linear", "lam": -1.0}},
    {"regressor": {"kind": "ridge_linear", "lam": "1"}},
    {"mcp": {"k": 0}},
    {"mcp": {"k": 7.5}},
    {"mcp": {"alpha_lo": "0.05"}},
    {"dataset": {"kind": "synthetic", "generator": "banana", "d": 3}},
    {"dataset": {"kind": "synthetic", "generator": "gaussian", "params": {"p": 1.5}}},
    {"dataset": {"kind": "synthetic", "generator": "gaussian", "params": {"p": True}}},
    {"dataset": {"kind": "synthetic", "generator": "gaussian", "params": {"p": 0}}},
    {"dataset": {"kind": "synthetic", "generator": "banana", "params": {"slope": "1"}}},
    {"dataset": "x"},
    {"dataset": {"kind": []}},
    {"dataset": {"kind": "synthetic", "generator": []}},
    {"dataset": {"kind": "synthetic", "params": 0}},
    {"dataset": {"kind": "csv", "path": True, "d_out": 2}},
    {"regressor": None},
    {"regressor": {"kind": {}}},
    {"otcp": []},
    {"mcp": 0},
    {"methods": 1},
    {"fractions": None},
    {"seeds": 0},
    {"output_dir": True},
    {"save_models": "no"},
    {"seeds": (0, 0)},
    {"seeds": (3, 1, 3)},
    {"methods": ("merge_l2", "merge_l2")},
])
def test_config_rejects_values_no_run_can_use(over, monkeypatch):
    _no_loading(monkeypatch)
    with pytest.raises(ParamError):
        run_benchmark(BenchConfig(**over))


def test_config_resolves_each_section_once():
    assert BenchConfig(otcp={"epsilon": 0.05}).otcp == {
        "epsilon": 0.05, "m": 4096, "grid_mode": "low_discrepancy", "tol": 1e-6,
        "max_iter": 2000}
    cfg = _small_cfg(methods=("mcp_max", "otcp"), mcp={"k": 9})
    again = dataclasses.replace(cfg, otcp=cfg.otcp)
    for name in ("dataset", "regressor", "otcp", "mcp"):
        assert getattr(again, name) == getattr(cfg, name)
    # mcp_max's unset levels follow alpha; they are not stored
    cfg = BenchConfig()
    assert cfg.mcp == {} and cfg._mcp_levels() == (25, 0.05, 0.95)
    assert dataclasses.replace(cfg, alpha=0.2)._mcp_levels() == (25, 0.1, 0.9)
    # a regressor without k leaves mcp_max at knn_mean's default k
    assert BenchConfig(regressor={"kind": "ridge_linear"})._mcp_levels()[0] == 25


def test_knn_fits_default_to_k_25(monkeypatch):
    seen = []
    fit = data._KnnModel.fit

    def spy(model, train):
        seen.append((model.kind, model.k))
        return fit(model, train)

    monkeypatch.setattr(data._KnnModel, "fit", spy)
    run_benchmark(_small_cfg(methods=("mcp_max",), regressor={"kind": "knn_mean"}))
    assert seen == [("knn_mean", 25), ("knn_quantile", 25)]


def test_readme_config_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = BenchConfig.from_dict(json.loads(block))
    assert cfg.regressor == {"kind": "knn_mean", "k": 25}


def test_readme_lists_the_resolved_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 2)[2].split("```", 1)[0]
    resolved = json.loads(json.dumps(dataclasses.asdict(BenchConfig())))
    assert json.loads(block) == resolved


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def test_sweep_default_axes_match_ablation_grid():
    assert DEFAULT_SWEEP_EPSILONS == (0.001, 0.01, 0.1, 1.0)
    assert DEFAULT_SWEEP_TARGETS == (4096, 8192, 16384, 32768)


def test_sweep_single_cell_matches_run(tmp_path):
    cfg = _small_cfg(methods=("otcp",), output_dir=str(tmp_path))
    records = sweep(cfg, eps_list=[0.1], m_list=[256])
    assert len(records) == 1
    direct = run_benchmark(_small_cfg(methods=("otcp",))).rows[0]
    assert records[0]["coverage"] == direct.coverage
    assert records[0]["mean_region_size"] == direct.mean_region_size
    text = (tmp_path / "sweep.csv").read_text()
    assert text.splitlines()[0] == ("epsilon,m,seed,status,coverage,mean_region_size,time_ms,"
                                    "sinkhorn_iters,converged,marginal_error")


def test_sweep_records_match_run_benchmark_rows():
    cfg = _small_cfg(methods=("otcp",), seeds=(0, 1))
    records = sweep(cfg, eps_list=[1.0, 0.1], m_list=[128, 256])
    expected = []
    for eps in (1.0, 0.1):
        for m in (128, 256):
            cell = dataclasses.replace(cfg, otcp={**cfg.otcp, "epsilon": eps, "m": m})
            expected += [(eps, m, r.seed, r.status, r.coverage, r.mean_region_size)
                         for r in run_benchmark(cell).rows]
    assert [(r["epsilon"], r["m"], r["seed"], r["status"], r["coverage"],
             r["mean_region_size"]) for r in records] == expected
    assert all(r["time_ms"] > 0 for r in records)


def test_sweep_solver_columns_match_the_run_rows(tmp_path):
    # two cells at one eps: each shows its own solve, the same as `bench run`'s
    cfg = _small_cfg(methods=("otcp",), seeds=(0, 1), output_dir=str(tmp_path))
    records = sweep(cfg, eps_list=[0.1], m_list=[128, 256])
    with open(tmp_path / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0]) == bench.SWEEP_COLUMNS
    expected = []
    for m in (128, 256):
        cell = dataclasses.replace(cfg, output_dir=None, otcp={**cfg.otcp, "m": m})
        expected += [r.solver for r in run_benchmark(cell).rows]
    assert [{key: r[key] for key in ("sinkhorn_iters", "converged", "marginal_error")}
            for r in records] == expected
    assert records[0]["sinkhorn_iters"] != records[2]["sinkhorn_iters"]
    assert [(int(r["sinkhorn_iters"]), r["converged"] == "True", float(r["marginal_error"]))
            for r in rows] == [(e["sinkhorn_iters"], e["converged"], e["marginal_error"])
                               for e in expected]


def test_sweep_csv_is_byte_deterministic_apart_from_time(tmp_path):
    texts = []
    for name in ("a", "b"):
        sweep(_small_cfg(methods=("otcp",), output_dir=str(tmp_path / name)),
              eps_list=[0.01, 1.0], m_list=[128])
        with open(tmp_path / name / "sweep.csv", newline="", encoding="utf-8") as fh:
            texts.append([row[:6] + row[7:] for row in csv.reader(fh)])
    assert texts[0] == texts[1]


def test_sweep_prepares_each_seed_once(monkeypatch):
    calls = []

    def counted(owner, name):
        inner = getattr(owner, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)

    for owner, name in ((BenchConfig, "load_dataset"), (bench, "split_dataset"),
                        (bench, "fit_regressor"), (bench, "fit_method"),
                        (data, "_knn_indices")):
        counted(owner, name)
    records = sweep(_small_cfg(methods=("otcp",), seeds=(0, 1)),
                    eps_list=[1.0, 0.1], m_list=[128, 256])
    assert len(records) == 8 and all(r["status"] == "ok" for r in records)
    # the k-NN search runs once per seed on each of ot_fit, calib and test
    assert sorted(calls) == sorted(["load_dataset", "split_dataset", "fit_regressor"] * 2
                                   + ["fit_method"] * 8 + ["_knn_indices"] * 6)
    assert data._NEIGHBOR_MEMO.get() is None


def _searches(monkeypatch):
    """Spy on the k-NN search: a list that gets (k, query rows) for every search."""
    searched = []
    inner = data._knn_indices

    def spy(train_X, X, k):
        searched.append((k, X.copy()))
        return inner(train_X, X, k)
    monkeypatch.setattr(data, "_knn_indices", spy)
    return searched


def _seed_parts(cfg, seed):
    return split_dataset(cfg.load_dataset(seed), SplitSpec(cfg.fractions, seed))


def test_run_searches_each_query_set_once_per_seed(monkeypatch):
    searched = _searches(monkeypatch)
    cfg = _small_cfg(methods=("merge_l2", "merge_mahalanobis", "mcp_max", "otcp"))
    report = run_benchmark(cfg)
    assert all(r.status == "ok" for r in report.rows)
    _, ot_fit, calib, test = _seed_parts(cfg, 0)
    expected = [ot_fit.features, calib.features, test.features,
                test.features[:cfg.region_size_points]]  # the last: mcp_max's sizing rows
    assert len(searched) == len(expected)
    for rows in expected:
        assert sum(k == 25 and np.array_equal(X, rows) for k, X in searched) == 1
    assert data._NEIGHBOR_MEMO.get() is None


def test_quantile_k_of_its_own_gets_its_own_searches(monkeypatch):
    searched = _searches(monkeypatch)
    cfg = _small_cfg(methods=("merge_l2", "mcp_max"), mcp={"k": 10})
    run_benchmark(cfg)
    _, _, calib, test = _seed_parts(cfg, 0)
    assert sorted((k, len(X)) for k, X in searched) == [(10, 3), (10, 120), (10, 120),
                                                        (25, 120), (25, 120)]
    for k in (10, 25):
        for rows in (calib.features, test.features):
            assert sum(kk == k and np.array_equal(X, rows) for kk, X in searched) == 1


def _bench_files(out_dir: Path) -> dict:
    """Every output file's bytes; report.csv's timing columns and sweep.csv's time_ms aside."""
    files = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        name = str(path.relative_to(out_dir))
        if path.suffix != ".csv":
            files[name] = path.read_bytes()
            continue
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        files[name] = ([row[:len(bench.REPORT_COLUMNS)] for row in rows]
                       if path.name == "report.csv" else [row[:6] + row[7:] for row in rows])
    return files


def test_shared_search_leaves_reports_models_and_sweeps_unchanged(tmp_path, monkeypatch):
    methods = ("merge_l2", "merge_mahalanobis", "mcp_max", "otcp")

    def outputs(name):
        out = tmp_path / name
        run_benchmark(_small_cfg(methods=methods, seeds=(0, 1), output_dir=str(out / "run")))
        sweep(_small_cfg(methods=("otcp",), seeds=(0, 1), output_dir=str(out / "sweep")),
              eps_list=[1.0, 0.1], m_list=[128, 256])
        return _bench_files(out)

    shared = outputs("shared")
    monkeypatch.setattr(bench, "shared_neighbors", lambda memo: contextlib.nullcontext())
    searched = _searches(monkeypatch)
    unshared = outputs("unshared")
    assert len(searched) == 2 * (11 + 4 * 3)  # per seed: 11 searches in the run, 12 in the sweep
    assert sorted(shared) == sorted(unshared) and len(shared) == 7
    for name, content in shared.items():
        assert content == unshared[name], name


def test_loaded_predictor_searches_on_every_call(tmp_path, monkeypatch):
    run_benchmark(_small_cfg(methods=("mcp_max",), output_dir=str(tmp_path)))
    pred = serialize.load_predictor(tmp_path / "models" / "mcp_max.json")
    X, Y = np.full((5, 1), 0.5), np.zeros((5, 2))
    searched = _searches(monkeypatch)
    first, second = pred.contains_rows(X, Y), pred.contains_rows(X, Y)
    assert np.array_equal(first, second)
    assert len(searched) == 2


def test_sweep_failure_message_with_comma_keeps_columns(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise ValueError("a, b")

    monkeypatch.setattr(bench, "fit_method", failing)
    sweep(_small_cfg(output_dir=str(tmp_path)), eps_list=[0.1, 1.0], m_list=[256])
    assert _csv_widths(tmp_path / "sweep.csv") == {len(bench.SWEEP_COLUMNS)}
    with open(tmp_path / "sweep.csv", newline="", encoding="utf-8") as fh:
        statuses = [row["status"] for row in csv.DictReader(fh)]
    assert statuses == ["failed: ValueError: a, b"] * 2


def _no_loading(monkeypatch):
    monkeypatch.setattr(BenchConfig, "load_dataset",
                        lambda cfg, seed: pytest.fail("loaded a dataset"))


@pytest.mark.parametrize("axes", [{"eps_list": []}, {"m_list": []}])
def test_sweep_rejects_empty_axis(axes, monkeypatch):
    _no_loading(monkeypatch)
    with pytest.raises(ParamError):
        sweep(_small_cfg(), **axes)


@pytest.mark.parametrize("axes", [{"eps_list": [0.1, -1.0]}, {"eps_list": [0.1, math.nan]},
                                  {"m_list": [256, 1]}, {"m_list": [256.5]},
                                  {"eps_list": [0.1, 0.1]}, {"eps_list": [1, 1.0]},
                                  {"m_list": [256, 64, 256]}])
def test_sweep_rejects_a_bad_axis_value_before_loading(axes, monkeypatch):
    _no_loading(monkeypatch)
    with pytest.raises(ParamError):
        sweep(_small_cfg(methods=("otcp",)), **axes)


# ---------------------------------------------------------------------------
# Contour export
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def calibrated_l2():
    ds = synth_dataset("gaussian", 900, 2, seed=5)
    from otcp import SplitSpec, split_dataset
    train, _, calib, test = split_dataset(ds, SplitSpec(seed=5))
    reg = fit_regressor(train, "knn_mean", k=20)
    fn = make_score_function("merge_l2", regressor=reg)
    return calibrate(fn, calib, alpha=0.1), test


def test_export_contours_nested_and_round_trip(calibrated_l2, tmp_path):
    pred, test = calibrated_l2
    xs = [test.features[0], test.features[1]]
    paths = export_contours(pred, xs, [0.1, 0.5], tmp_path / "ct")
    assert len(paths) == 4
    manifest = json.loads((tmp_path / "ct" / "contours.json").read_text())
    for entry in manifest["points"]:
        assert entry["nesting_warnings"] == []
        areas = {lv["alpha"]: lv["area"] for lv in entry["levels"]}
        assert areas[0.5] <= areas[0.1]
    # circles: vertices sit on the recomputed radius; file round-trips exactly
    verts = np.loadtxt(paths[0], delimiter=",", skiprows=1)
    center = pred.score_fn.center(xs[0])
    r = pred.threshold_at(0.1)
    assert np.abs(np.linalg.norm(verts - center, axis=1) - r).max() <= 1e-9
    from otcp import Region2D, write_region_csv
    region = Region2D(np.asarray(xs[0]), 0.1, verts, "merge_l2")
    write_region_csv(region, tmp_path / "again.csv")
    assert np.array_equal(np.loadtxt(tmp_path / "again.csv", delimiter=",", skiprows=1),
                          verts)


@pytest.mark.parametrize("run", [run_benchmark, sweep])
def test_an_uncreatable_output_dir_is_refused_before_any_seed(tmp_path, monkeypatch, run):
    (tmp_path / "file").write_text("")
    entered = []
    monkeypatch.setattr(bench, "_run_seed", lambda *args: entered.append(args) or iter(()))
    cfg = _small_cfg(methods=("otcp",), seeds=(0, 1), save_models=False,
                     output_dir=str(tmp_path / "file" / "out"))
    with pytest.raises(ParamError, match="cannot create output directory"):
        run(cfg)
    assert not entered


@pytest.mark.parametrize("call, error, message", [
    (lambda pred: region_size_mc(pred, [0.5], (np.full(2, -1.5), np.full(2, 1.5)), n_mc=0),
     ParamError, "n_mc must be >= 1"),
    (lambda pred: region_size_mc(pred, [0.5], (np.full(2, -1.5), np.full(2, 1.5)), n_mc=10.5),
     ParamError, "n_mc must be an integer, got 10.5"),
    (lambda pred: bench.qmc_volume(lambda z: z[:, 0] > 0, [0.0], [1.0], 10.5, seed=0),
     ParamError, "n_samples must be an integer, got 10.5"),
], ids=["mc-samples-zero", "mc-samples-float", "qmc-samples-float"])
def test_refused_sizing_arguments(call, error, message):
    with pytest.raises(error) as info:
        call(_zero_center_predictor(1.0))
    assert type(info.value) is error and message in str(info.value)
