import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from otcp import (
    BenchConfig,
    CalibratedPredictor,
    Dataset,
    ParamError,
    calibrate,
    export_contours,
    fit_quantile_predictor,
    fit_regressor,
    make_score_function,
    marginal_coverage,
    region_size_mc,
    run_benchmark,
    sweep,
    synth_dataset,
)
from otcp import bench, data
from otcp.bench import DEFAULT_SWEEP_EPSILONS, DEFAULT_SWEEP_TARGETS


def _zero_center_predictor(threshold: float) -> CalibratedPredictor:
    """merge_l2 predictor whose center is exactly the origin, with a set radius."""
    X = np.linspace(0.0, 1.0, 20)[:, None]
    ds = Dataset(X, np.zeros((20, 2)), tag="zeros")
    reg = fit_regressor(ds, "ridge_linear", lam=0.0)
    fn = make_score_function("merge_l2", regressor=reg)
    cal = np.linspace(0.1, 2.0, 20)
    return CalibratedPredictor(fn, 0.1, threshold, np.sort(cal),
                               np.array([-2.0, -2.0]), np.array([2.0, 2.0]))


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


def test_default_bounds_from_calibration_residuals():
    pred = _zero_center_predictor(1.0)
    est = region_size_mc(pred, [0.5], n_mc=50000, seed=1)  # box = +/-3 per dim
    assert abs(est - math.pi) / math.pi < 0.05


def test_evaluate_honours_bounds_inflation(monkeypatch):
    # the config's inflation sets the sizing box: residual box (-2, 2)^2 times 3
    boxes = []
    size_of = bench.region_size_mc

    def spy(pred, x, bounds=None, **kw):
        boxes.append(bounds)
        return size_of(pred, x, bounds, **kw)

    monkeypatch.setattr(bench, "region_size_mc", spy)
    test = synth_dataset("gaussian", 10, 2, seed=0)
    cfg = BenchConfig(methods=("merge_l2",), mc_samples=100, region_size_points=3,
                      bounds_inflation=3.0)
    bench._evaluate(_zero_center_predictor(1.0), test, cfg, seed=0, method_index=0)
    assert len(boxes) == 3
    for low, high in boxes:
        np.testing.assert_allclose(low, [-6.0, -6.0], atol=1e-12)
        np.testing.assert_allclose(high, [6.0, 6.0], atol=1e-12)


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
    report = run_benchmark(_small_cfg(seeds=(4, 4)))
    a, b = report.rows
    assert (a.coverage, a.mean_region_size) == (b.coverage, b.mean_region_size)


def test_report_determinism_bytes():
    cfg_a = _small_cfg(methods=("merge_l2", "otcp"), seeds=(0, 1))
    cfg_b = _small_cfg(methods=("merge_l2", "otcp"), seeds=(0, 1))
    lines_a = run_benchmark(cfg_a).csv_lines(include_timings=False)
    lines_b = run_benchmark(cfg_b).csv_lines(include_timings=False)
    assert "\n".join(lines_a).encode() == "\n".join(lines_b).encode()


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


def test_method_failure_isolated():
    cfg = _small_cfg(methods=("abs_univariate", "merge_l2"))  # abs needs d=1
    report = run_benchmark(cfg)
    by_method = {r.method: r for r in report.rows}
    assert by_method["abs_univariate"].status.startswith("failed: DimensionError: ")
    assert by_method["merge_l2"].status == "ok"
    assert report.any_failed


def test_programming_error_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise AttributeError("no such attribute")

    monkeypatch.setattr(bench, "fit_method", broken)
    with pytest.raises(AttributeError):
        run_benchmark(_small_cfg())


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
    assert text.splitlines()[0] == "epsilon,m,seed,status,coverage,mean_region_size,time_ms"


def test_sweep_failure_message_with_comma_keeps_columns(tmp_path, monkeypatch):
    failed = bench.BenchReport([bench.MethodResult("otcp", 0, "failed: a, b")])
    monkeypatch.setattr(bench, "run_benchmark", lambda cell: failed)
    sweep(_small_cfg(output_dir=str(tmp_path)), eps_list=[0.1, 1.0], m_list=[256])
    assert _csv_widths(tmp_path / "sweep.csv") == {7}


@pytest.mark.parametrize("axes", [{"eps_list": []}, {"m_list": []}])
def test_sweep_rejects_empty_axis(axes, monkeypatch):
    monkeypatch.setattr(bench, "run_benchmark", lambda cell: pytest.fail("ran a cell"))
    with pytest.raises(ParamError):
        sweep(_small_cfg(), **axes)


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
