import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otcp import (
    Dataset,
    DimensionError,
    KnnMeanRegressor,
    KnnQuantilePredictor,
    MethodError,
    NotFittedError,
    OtProblem,
    ParamError,
    ProvenanceError,
    SplitSpec,
    build_spherical_grid,
    calibrate,
    conformal_threshold,
    default_mahalanobis_ridge,
    estimate_covariance,
    fit_entropic_map,
    fit_quantile_predictor,
    fit_regressor,
    make_score_function,
    pit_values,
    region_contour_2d,
    region_volumes,
    residuals,
    split_dataset,
    synth_dataset,
)
from otcp.serialize import predictor_from_dict


@pytest.fixture(scope="module")
def gaussian_pipeline():
    """Shared split + regressor + transport map on isotropic 2-D gaussian data."""
    ds = synth_dataset("gaussian", 1500, 2, seed=0)
    train, ot_fit, calib, test = split_dataset(ds, SplitSpec(seed=0))
    reg = fit_regressor(train, "knn_mean", k=25)
    fit_resid = residuals(ot_fit, reg)
    grid = build_spherical_grid(512, 2)
    emap = fit_entropic_map(fit_resid, grid, epsilon=0.1)
    return {"train": train, "ot_fit": ot_fit, "calib": calib, "test": test,
            "reg": reg, "emap": emap, "fit_resid": fit_resid}


# ---------------------------------------------------------------------------
# Score evaluation
# ---------------------------------------------------------------------------

def test_mahalanobis_identity_covariance_equals_l2(gaussian_pipeline):
    gp = gaussian_pipeline
    l2 = make_score_function("merge_l2", regressor=gp["reg"])
    mh = make_score_function("merge_mahalanobis", regressor=gp["reg"],
                             whitener=np.eye(2))
    X, Y = gp["test"].features[:50], gp["test"].targets[:50]
    assert np.allclose(l2.score_rows(X, Y), mh.score_rows(X, Y), atol=1e-12)


def test_mcp_max_hand_example():
    # bounds l=(0,0), u=(1,2) at y=(2,1): max(max(0-2, 2-1), max(0-1, 1-2)) = 1
    train = Dataset(np.array([[0.0], [1.0]]), np.array([[0.0, 0.0], [1.0, 2.0]]))
    qp = fit_quantile_predictor(train, k=2, alpha_lo=0.0, alpha_hi=1.0)
    fn = make_score_function("mcp_max", quantile_predictor=qp)
    assert fn.score_rows([[0.5]], [[2.0, 1.0]])[0] == pytest.approx(1.0, abs=1e-12)


def test_otcp_score_is_transport_rank(gaussian_pipeline):
    gp = gaussian_pipeline
    fn = make_score_function("otcp", regressor=gp["reg"], transport_map=gp["emap"])
    x = gp["test"].features[3]
    y = gp["test"].targets[3]
    resid = y - gp["reg"].predict_rows(x[None])[0]
    assert fn.score_rows(x[None], y[None])[0] == pytest.approx(
        gp["emap"].rank(resid[None])[0], abs=1e-12)
    assert 0.0 <= fn.score_rows(x[None], y[None])[0] <= 1.0


def test_abs_univariate_score():
    ds = synth_dataset("gaussian", 50, 1, {"cov": [[1.0]]}, seed=1)
    reg = fit_regressor(ds, "knn_mean", k=50)
    fn = make_score_function("abs_univariate", regressor=reg)
    c = ds.targets.mean(axis=0)[0]
    assert fn.score_rows([[0.5]], [[c + 1.25]])[0] == pytest.approx(1.25, abs=1e-12)


def test_abs_univariate_rejects_multivariate(gaussian_pipeline):
    with pytest.raises(DimensionError):
        make_score_function("abs_univariate", regressor=gaussian_pipeline["reg"])


# ---------------------------------------------------------------------------
# Covariance estimation
# ---------------------------------------------------------------------------

def test_covariance_lln_identity():
    rng = np.random.default_rng(2)
    W = estimate_covariance(rng.standard_normal((10000, 2)))
    assert np.abs(W - np.eye(2)).max() < 0.05


def test_covariance_whitening_property():
    rng = np.random.default_rng(3)
    resid = rng.standard_normal((5000, 2)) * np.array([2.0, 0.5])
    W = estimate_covariance(resid)
    white = resid @ W.T
    assert np.abs(white.std(axis=0, ddof=1) - 1.0).max() < 0.05


def test_covariance_ridge_on_zero_residuals():
    W = estimate_covariance(np.zeros((10, 3)), ridge=1.0)
    assert np.allclose(W, np.eye(3), atol=1e-12)


def test_covariance_singular_error():
    with pytest.raises(ParamError, match="covariance singular: smallest eigenvalue"):
        estimate_covariance(np.zeros((10, 2)), ridge=0.0)


# ---------------------------------------------------------------------------
# Threshold and PIT
# ---------------------------------------------------------------------------

def test_threshold_examples():
    # k = ceil((1-alpha)(n+1)) order statistic
    assert conformal_threshold([1.0, 2.0, 3.0, 4.0], 0.2) == 4.0      # k=4
    assert conformal_threshold([5.0], 0.9) == 5.0                      # k=1
    assert conformal_threshold([1.0, 2.0, 3.0], 0.1) == math.inf       # k=4 > n
    assert conformal_threshold([4.0, 1.0, 3.0, 2.0], 0.5) == 3.0       # k=ceil(2.5)=3


_ALPHAS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 20).map(float) | st.floats(-1e6, 1e6), min_size=1,
                max_size=60), _ALPHAS)
def test_threshold_is_the_exact_order_statistic(scores, alpha):
    scores = np.asarray(scores)
    k = math.ceil((scores.size + 1) * (1 - Fraction(alpha)))
    thr = conformal_threshold(scores, alpha)
    if k > scores.size:
        assert thr == math.inf
    else:
        assert thr in scores
        assert (scores <= thr).sum() >= k
        assert (scores < thr).sum() < k


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=60),
       st.lists(st.integers(-50, 50), min_size=1, max_size=20), _ALPHAS,
       st.sampled_from([lambda s: 2.0 * s - 7.0, lambda s: s ** 3 + s,
                        lambda s: np.exp(s / 10.0)]))
def test_membership_invariant_under_increasing_transforms(cal, test, alpha, transform):
    # integer scores keep each transform strictly increasing in floating point
    cal, test = np.asarray(cal, dtype=float), np.asarray(test, dtype=float)
    inside = test <= conformal_threshold(cal, alpha)
    moved = transform(test) <= conformal_threshold(transform(cal), alpha)
    assert np.array_equal(moved, inside)


def test_threshold_monotone_in_alpha():
    rng = np.random.default_rng(4)
    scores = rng.exponential(size=200)
    alphas = np.linspace(0.02, 0.98, 30)
    thr = [conformal_threshold(scores, a) for a in alphas]
    assert all(t1 >= t2 for t1, t2 in zip(thr, thr[1:]))


def test_pit_extremes_and_grid():
    cal = np.array([1.0, 2.0, 3.0])
    assert pit_values(cal, 0.5) == 0.0
    assert pit_values(cal, 9.0) == 1.0
    assert pit_values(cal, 2.0) == pytest.approx(2 / 3)
    # a number for a number, an array of the same shape for an array
    assert isinstance(pit_values(cal, 2.0), float)
    assert np.array_equal(pit_values(cal, [[0.5, 2.0], [3.0, 9.0]]), [[0, 2 / 3], [1, 1]])


def test_predictor_pit_is_the_calibration_rank(gaussian_pipeline):
    pred = _calibrated(gaussian_pipeline, "merge_l2")
    n = pred.n_cal
    assert np.unique(pred.cal_scores).size == n  # continuous scores: every rank is distinct
    k = math.ceil((1 - Fraction(pred.alpha)) * (n + 1))
    assert pit_values(pred.cal_scores, pred.threshold) == k / n
    assert np.array_equal(pit_values(pred.cal_scores, pred.cal_scores), np.arange(1, n + 1) / n)


def test_pit_discrete_uniform_distribution():
    # exchangeable scores: F_n(Z) hits each atom k/n with probability 1/(n+1)
    n, trials = 9, 10000
    rng = np.random.default_rng(5)
    draws = rng.standard_normal((trials, n + 1))
    ranks = (draws[:, :n] <= draws[:, n:]).mean(axis=1)
    counts = np.bincount(np.rint(ranks * n).astype(int), minlength=n + 1)
    p_atom = 1.0 / (n + 1)
    sigma = math.sqrt(trials * p_atom * (1 - p_atom))
    assert np.abs(counts - trials * p_atom).max() <= 3.5 * sigma


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def test_calibrate_perfect_regressor_degenerate_region():
    rng = np.random.default_rng(6)
    X = rng.uniform(size=(60, 1))
    Y = np.column_stack([2 * X[:, 0] + 1, -X[:, 0]])
    ds = Dataset(X, Y, tag="lin")
    reg = fit_regressor(ds, "ridge_linear", lam=0.0)
    fn = make_score_function("merge_l2", regressor=reg)
    pred = calibrate(fn, Dataset(X, Y, tag="cal"), alpha=0.1)
    assert pred.threshold <= 1e-9
    x = [0.3]
    assert pred.contains_rows([x], reg.predict_rows([x]))[0]
    assert not pred.contains_rows([x], reg.predict_rows([x]) + np.array([0.01, 0.0]))[0]


def test_calibrate_otcp_threshold_in_unit_interval(gaussian_pipeline):
    gp = gaussian_pipeline
    fn = make_score_function("otcp", regressor=gp["reg"], transport_map=gp["emap"])
    pred = calibrate(fn, gp["calib"], alpha=0.1)
    assert 0.0 <= pred.threshold <= 1.0


def test_calibrate_small_n_uses_max_score():
    ds = synth_dataset("gaussian", 19, 2, seed=7, tag="c19")
    reg = fit_regressor(synth_dataset("gaussian", 30, 2, seed=8), "knn_mean", k=5)
    fn = make_score_function("merge_l2", regressor=reg)
    pred = calibrate(fn, ds, alpha=0.05)  # k = ceil(0.95*20) = 19 = n
    scores = fn.score_rows(ds.features, ds.targets)
    assert pred.threshold == pytest.approx(scores.max(), abs=1e-12)


def test_provenance_guard(gaussian_pipeline):
    gp = gaussian_pipeline
    fn = make_score_function("merge_l2", regressor=gp["reg"])
    with pytest.raises(ProvenanceError):
        calibrate(fn, gp["train"], alpha=0.1)
    pred = calibrate(fn, gp["train"], alpha=0.1, allow_same_data=True)
    assert math.isfinite(pred.threshold)


def test_provenance_guard_covers_the_transport_map_split(gaussian_pipeline):
    gp = gaussian_pipeline
    fn = make_score_function("otcp", regressor=gp["reg"], transport_map=gp["emap"])
    assert fn.fit_tags == {gp["train"].tag, gp["ot_fit"].tag}
    with pytest.raises(ProvenanceError):
        calibrate(fn, gp["ot_fit"], alpha=0.1)
    # a map fitted on the calibration residuals leaves no split to calibrate on
    own = make_score_function("otcp", regressor=gp["reg"], transport_map=fit_entropic_map(
        residuals(gp["calib"], gp["reg"]), build_spherical_grid(64, 2), epsilon=0.5))
    with pytest.raises(ProvenanceError):
        calibrate(own, gp["calib"], alpha=0.1)


def test_provenance_guard_covers_the_whitener_split(gaussian_pipeline):
    gp = gaussian_pipeline
    W = estimate_covariance(residuals(gp["calib"], gp["reg"]))
    assert W.fit_tag == gp["calib"].tag
    fn = make_score_function("merge_mahalanobis", regressor=gp["reg"], whitener=W)
    assert fn.fit_tags == {gp["train"].tag, gp["calib"].tag}
    with pytest.raises(ProvenanceError):
        calibrate(fn, gp["calib"], alpha=0.1)


def test_fit_tags_read_from_every_tagged_component(gaussian_pipeline):
    gp = gaussian_pipeline
    qp = fit_quantile_predictor(gp["train"], 10, 0.05, 0.95)
    assert make_score_function("mcp_max", quantile_predictor=qp).fit_tags == {
        gp["train"].tag}
    # a whitener given as a plain matrix carries no tag
    mh = make_score_function("merge_mahalanobis", regressor=gp["reg"], whitener=np.eye(2))
    assert mh.fit_tags == {gp["train"].tag}
    untagged = fit_regressor(Dataset(gp["train"].features, gp["train"].targets),
                             "knn_mean", k=5)
    assert make_score_function("merge_l2", regressor=untagged).fit_tags == frozenset()


@pytest.mark.parametrize("kind", ["merge_l2", "mcp_max", "otcp"])
def test_contains_candidates_checks_response_width(gaussian_pipeline, kind):
    gp = gaussian_pipeline
    parts = {"regressor": gp["reg"], "transport_map": gp["emap"],
             "quantile_predictor": fit_quantile_predictor(gp["train"], 10, 0.05, 0.95)}
    pred = calibrate(make_score_function(kind, **parts), gp["calib"], alpha=0.1)
    x = gp["test"].features[0]
    Y = np.random.default_rng(0).standard_normal((7, 2))
    expected = [pred.contains_rows(x[None], y[None])[0] for y in Y]
    assert pred.contains_candidates(x, Y).tolist() == expected
    for width in (1, 3):
        with pytest.raises(DimensionError):
            pred.contains_candidates(x, np.zeros((7, width)))


def test_score_rows_takes_one_x_row_or_one_per_response(gaussian_pipeline):
    gp = gaussian_pipeline
    fn = make_score_function("merge_l2", regressor=gp["reg"])
    X, Y = gp["test"].features[:4], gp["test"].targets[:4]
    assert fn.score_rows(X[:1], Y).shape == (4,)
    assert np.array_equal(fn.score_rows(X[:1], Y)[1:2], fn.score_rows(X[:1], Y[1:2]))
    with pytest.raises(DimensionError):
        fn.score_rows(X[:3], Y)
    with pytest.raises(DimensionError):
        fn.score_rows(X, Y[:1])


def test_contains_infinite_threshold(gaussian_pipeline):
    gp = gaussian_pipeline
    fn = make_score_function("merge_l2", regressor=gp["reg"])
    tiny_cal = gp["calib"].take(np.arange(3))
    pred = calibrate(fn, tiny_cal, alpha=0.1)  # k=4 > 3 -> +inf
    assert pred.threshold == math.inf
    assert pred.contains_rows([[0.5]], [[1e9, -1e9]])[0]


def test_contains_l2_is_euclidean_ball(gaussian_pipeline):
    gp = gaussian_pipeline
    fn = make_score_function("merge_l2", regressor=gp["reg"])
    pred = calibrate(fn, gp["calib"], alpha=0.2)
    x = gp["test"].features[0]
    center = gp["reg"].predict_rows(x[None])[0]
    r = pred.threshold
    for direction in np.array([[1.0, 0.0], [0.6, -0.8]]):
        assert pred.contains_rows(x[None], [center + 0.999 * r * direction])[0]
        assert not pred.contains_rows(x[None], [center + 1.001 * r * direction])[0]


def test_univariate_interval_endpoints_inclusive():
    # d=1 region is [yhat - r, yhat + r] with inclusive endpoints
    X = np.linspace(0, 1, 40)[:, None]
    Y = np.zeros((40, 1))
    ds = Dataset(X, Y, tag="zero")
    reg = fit_regressor(ds, "ridge_linear", lam=0.0)
    fn = make_score_function("abs_univariate", regressor=reg)
    cal = Dataset(X, np.linspace(-1, 1, 40)[:, None], tag="cal")
    pred = calibrate(fn, cal, alpha=0.2)
    r = pred.threshold
    x = [0.5]
    yhat = reg.predict_rows([x])[0, 0]
    assert pred.contains_rows([x], [[yhat + r]])[0]
    assert pred.contains_rows([x], [[yhat - r]])[0]
    assert not pred.contains_rows([x], [[yhat + r + 1e-9]])[0]


def test_nested_regions_in_alpha(gaussian_pipeline):
    gp = gaussian_pipeline
    fn = make_score_function("merge_l2", regressor=gp["reg"])
    loose = calibrate(fn, gp["calib"], alpha=0.05)
    tight = calibrate(fn, gp["calib"], alpha=0.4)
    X, Y = gp["test"].features[:100], gp["test"].targets[:100]
    inside_tight = tight.contains_rows(X, Y)
    inside_loose = loose.contains_rows(X, Y)
    assert (inside_loose | ~inside_tight).all()  # tight subset of loose


def test_mahalanobis_scaled_identity_matches_l2_decisions(gaussian_pipeline):
    gp = gaussian_pipeline
    c = 7.3
    l2 = make_score_function("merge_l2", regressor=gp["reg"])
    mh = make_score_function("merge_mahalanobis", regressor=gp["reg"],
                             whitener=np.eye(2) / math.sqrt(c))
    p_l2 = calibrate(l2, gp["calib"], alpha=0.1)
    p_mh = calibrate(mh, gp["calib"], alpha=0.1)
    X, Y = gp["test"].features, gp["test"].targets
    assert np.array_equal(p_l2.contains_rows(X, Y), p_mh.contains_rows(X, Y))


# ---------------------------------------------------------------------------
# Coverage simulations
# ---------------------------------------------------------------------------

def _simulate_coverage(kind, trials=200, n_cal=99, alpha=0.1, seed=0):
    """Fresh calibration/test draws against a fixed fitted score function."""
    rng = np.random.default_rng(seed)
    pool = synth_dataset("gaussian", 800, 2, seed=seed, tag="pool")
    train, ot_fit, _, _ = split_dataset(pool, SplitSpec(seed=seed))
    reg = fit_regressor(train, "knn_mean", k=20)
    kwargs = {"regressor": reg}
    if kind == "merge_mahalanobis":
        kwargs["whitener"] = estimate_covariance(residuals(ot_fit, reg))
    elif kind == "otcp":
        grid = build_spherical_grid(512, 2)
        kwargs["transport_map"] = fit_entropic_map(residuals(ot_fit, reg), grid,
                                                   epsilon=0.1)
    elif kind == "mcp_max":
        kwargs = {"quantile_predictor": fit_quantile_predictor(train, 20, 0.05, 0.95)}
    if kind == "abs_univariate":
        reg1 = fit_regressor(
            Dataset(train.features, train.targets[:, :1], tag="t1"), "knn_mean", k=20)
        kwargs = {"regressor": reg1}
    fn = make_score_function(kind, **kwargs)
    hits = 0
    for _ in range(trials):
        fresh = synth_dataset("gaussian", n_cal + 1, 2,
                              seed=int(rng.integers(2**62)), tag="fresh")
        if kind == "abs_univariate":
            fresh = Dataset(fresh.features, fresh.targets[:, :1], tag="fresh")
        cal = fresh.take(np.arange(n_cal), tag="cal")
        pred = calibrate(fn, cal, alpha)
        hits += int(pred.contains_rows(fresh.features[n_cal:], fresh.targets[n_cal:])[0])
    return hits / trials


@pytest.mark.parametrize("kind", ["abs_univariate", "merge_l2", "merge_mahalanobis",
                                  "mcp_max", "otcp"])
def test_finite_sample_coverage_all_kinds(kind):
    alpha, trials, n_cal = 0.1, 200, 99
    cov = _simulate_coverage(kind, trials=trials, n_cal=n_cal, alpha=alpha, seed=42)
    sigma = math.sqrt((1 - alpha) * alpha / trials)
    assert cov >= 1 - alpha - 3 * sigma
    assert cov <= 1 - alpha + 1.0 / (n_cal + 1) + 3 * sigma


def test_empirical_quantile_region_coverage_simulation():
    # maps refitted on all n+1 points each trial (permutation invariant), radius
    # from the pushforward of those same points
    rng = np.random.default_rng(9)
    n_plus_1, alpha, trials = 24, 0.1, 300
    grid = build_spherical_grid(64, 2)
    k = math.ceil((1 - alpha) * n_plus_1)
    hits = 0
    for _ in range(trials):
        z = rng.standard_normal((n_plus_1, 2))
        emap = fit_entropic_map(z, grid, epsilon=0.5, tol=1e-4)
        ranks = emap.rank(z)
        r_hat = np.sort(ranks)[k - 1]
        hits += int(ranks[-1] <= r_hat)
    cov = hits / trials
    sigma = math.sqrt((1 - alpha) * alpha / trials)
    assert cov >= 1 - alpha - 3 * sigma


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

def test_region_circle_exact(gaussian_pipeline):
    gp = gaussian_pipeline
    fn = make_score_function("merge_l2", regressor=gp["reg"])
    pred = calibrate(fn, gp["calib"], alpha=0.1)
    x = gp["test"].features[0]
    region = region_contour_2d(pred, x, n_angles=64)
    center = gp["reg"].predict_rows(x[None])[0]
    radii = np.linalg.norm(region.vertices - center, axis=1)
    assert np.abs(radii - pred.threshold).max() <= 1e-9
    assert region.vertices.shape == (65, 2)
    assert np.array_equal(region.vertices[0], region.vertices[-1])


def test_region_ellipse_on_threshold_surface(gaussian_pipeline):
    gp = gaussian_pipeline
    W = estimate_covariance(gp["fit_resid"])
    fn = make_score_function("merge_mahalanobis", regressor=gp["reg"], whitener=W)
    pred = calibrate(fn, gp["calib"], alpha=0.1)
    x = gp["test"].features[1]
    region = region_contour_2d(pred, x, n_angles=32)
    center = gp["reg"].predict_rows(x[None])[0]
    scores = np.linalg.norm((region.vertices[:-1] - center) @ W.T, axis=1)
    assert np.abs(scores - pred.threshold).max() <= 1e-9


def test_region_mcp_rectangle(gaussian_pipeline):
    gp = gaussian_pipeline
    qp = fit_quantile_predictor(gp["train"], 20, 0.05, 0.95)
    fn = make_score_function("mcp_max", quantile_predictor=qp)
    pred = calibrate(fn, gp["calib"], alpha=0.1)
    x = gp["test"].features[2]
    region = region_contour_2d(pred, x, n_angles=32)
    lo, hi = qp.predict_bounds(x)
    lo, hi = lo - pred.threshold, hi + pred.threshold
    v = region.vertices
    assert np.abs(v.min(axis=0) - lo).max() <= 1e-9
    assert np.abs(v.max(axis=0) - hi).max() <= 1e-9
    # derived check: every vertex is inside-or-on, and the area matches
    assert region.area == pytest.approx(np.prod(hi - lo), rel=1e-9)


def test_region_otcp_isotropic_roundish():
    # exact linear model makes residuals exactly the isotropic noise; at
    # n_fit=2000, m=4096 the pulled-back shell is nearly circular
    rng = np.random.default_rng(21)
    B = np.array([[1.0, -0.5]])

    def make(n, tag):
        X = rng.uniform(size=(n, 1))
        return Dataset(X, X @ B + rng.standard_normal((n, 2)), tag=tag)

    reg = fit_regressor(make(200, "tr"), "ridge_linear", lam=0.0)
    emap = fit_entropic_map(rng.standard_normal((2000, 2)),
                            build_spherical_grid(4096, 2), epsilon=0.1)
    fn = make_score_function("otcp", regressor=reg, transport_map=emap)
    pred = calibrate(fn, make(400, "cal"), alpha=0.1)
    region = region_contour_2d(pred, [0.5], n_angles=96)
    radii = np.linalg.norm(region.vertices[:-1] - region.vertices[:-1].mean(axis=0),
                           axis=1)
    assert radii.max() / radii.min() <= 1.3
    assert region.vertices.shape[0] >= 9
    assert np.isfinite(region.vertices).all()


def test_region_univariate_method_error():
    ds = synth_dataset("gaussian", 60, 1, {"cov": [[1.0]]}, seed=11, tag="d1")
    reg = fit_regressor(ds, "knn_mean", k=10)
    fn = make_score_function("abs_univariate", regressor=reg)
    pred = calibrate(fn, synth_dataset("gaussian", 40, 1, {"cov": [[1.0]]},
                                       seed=12, tag="c"), alpha=0.1)
    with pytest.raises(MethodError):
        region_contour_2d(pred, [0.5])


def test_region_infinite_threshold_error(gaussian_pipeline):
    gp = gaussian_pipeline
    fn = make_score_function("merge_l2", regressor=gp["reg"])
    pred = calibrate(fn, gp["calib"].take(np.arange(3)), alpha=0.05)
    with pytest.raises(MethodError):
        region_contour_2d(pred, gp["test"].features[0])


def _calibrated(gp, kind):
    if kind == "abs_univariate":  # the first target only
        def first_target(ds, tag):
            return Dataset(ds.features, ds.targets[:, :1], tag=tag)
        reg = fit_regressor(first_target(gp["train"], "train1"), "knn_mean", k=25)
        return calibrate(make_score_function(kind, regressor=reg),
                         first_target(gp["calib"], "calib1"), alpha=0.1)
    parts = {"regressor": gp["reg"]}
    if kind == "otcp":
        parts["transport_map"] = gp["emap"]
    elif kind == "merge_mahalanobis":
        parts["whitener"] = estimate_covariance(gp["fit_resid"])
    elif kind == "mcp_max":
        parts = {"quantile_predictor": fit_quantile_predictor(gp["train"], 25, 0.05, 0.95)}
    return calibrate(make_score_function(kind, **parts), gp["calib"], alpha=0.1)


def _with_entry(rows, value):
    """A copy of `rows` whose first entry is `value`."""
    rows = rows.copy()
    rows[0, 0] = value
    return rows


@pytest.mark.parametrize("kind", ["abs_univariate", "merge_l2", "merge_mahalanobis",
                                  "mcp_max", "otcp"])
def test_non_finite_responses_are_refused(gaussian_pipeline, kind):
    gp = gaussian_pipeline
    if kind == "abs_univariate":
        def first_target(ds, tag):
            return Dataset(ds.features, ds.targets[:, :1], tag=tag)
        reg = fit_regressor(first_target(gp["train"], "train1"), "knn_mean", k=25)
        pred = calibrate(make_score_function(kind, regressor=reg),
                         first_target(gp["calib"], "calib1"), alpha=0.1)
    else:
        pred = _calibrated(gp, kind)
    X = gp["test"].features[:3]
    for bad in (math.nan, math.inf, -math.inf):
        Y = gp["test"].targets[:3, :pred.d].copy()
        Y[1, -1] = bad
        with pytest.raises(ParamError, match="responses must be finite, got NaN or Inf"):
            pred.contains_rows(X, Y)


def _contains_on_overflowing_map():
    # a dual potential of 1e308 overflows the map's soft-min into NaN scores, which
    # would compare False with the threshold
    doc = json.loads((Path(__file__).parent / "data" / "otcp_v3.json").read_text())
    doc["score"]["map"]["g"][0] = 1e308
    pred = predictor_from_dict(doc)
    with np.errstate(over="ignore", invalid="ignore"):
        return pred.contains_rows([[0.1], [0.5]], [[0.0, 0.0], [0.5, 1.0]])


@pytest.mark.parametrize("call, error, message", [
    (lambda gp: make_score_function("merge_l2", regressor=KnnMeanRegressor(5)),
     NotFittedError, "regressor must be fitted first"),
    (lambda gp: make_score_function(
        "mcp_max", quantile_predictor=KnnQuantilePredictor(5, 0.05, 0.95)),
     NotFittedError, "quantile predictor must be fitted first"),
    (lambda gp: region_contour_2d(_calibrated(gp, "mcp_max"), [0.5], threshold=-1e6),
     MethodError, "interval region is empty at this threshold"),
    (lambda gp: make_score_function(
        "otcp", regressor=gp["reg"],
        transport_map=fit_entropic_map(np.random.default_rng(0).standard_normal((40, 3)),
                                       build_spherical_grid(16, 3))),
     DimensionError, "transport map dimension does not match targets"),
    (lambda gp: _calibrated(gp, "otcp").score_fn.volume(0.5, gp["test"].features[:2]),
     MethodError, "otcp regions have no closed-form volume"),
    (lambda gp: estimate_covariance(gp["fit_resid"], ridge=-1.0), ParamError,
     "ridge must be >= 0"),
    (lambda gp: estimate_covariance(gp["fit_resid"], ridge=math.nan), ParamError,
     "ridge must be a real number, got nan"),
    (lambda gp: estimate_covariance(gp["fit_resid"], ridge=math.inf), ParamError,
     "ridge must be >= 0 and finite, got inf"),
    (lambda gp: default_mahalanobis_ridge(gp["fit_resid"].scores[:1]), ParamError,
     "a Mahalanobis ridge needs at least 2 residual rows, got 1"),
    (lambda gp: estimate_covariance(np.zeros((0, 2)), ridge=0.5), ParamError,
     "a covariance needs at least 2 residual rows, got 0"),
    (lambda gp: estimate_covariance(gp["fit_resid"].scores[:1], ridge=0.5), ParamError,
     "a covariance needs at least 2 residual rows, got 1"),
    (lambda gp: conformal_threshold([], 0.1), ParamError, "need at least one calibration score"),
    (lambda gp: conformal_threshold([1.0], 1.5), ParamError, "alpha must lie in (0, 1)"),
    (lambda gp: pit_values([], 0.5), ParamError, "need at least one calibration score"),
    (lambda gp: dataclasses.replace(_calibrated(gp, "merge_l2"), threshold=-math.inf),
     ParamError, "threshold must be finite or +inf"),
    (lambda gp: calibrate(make_score_function("merge_l2", regressor=gp["reg"]),
                          synth_dataset("gaussian", 20, 3, seed=1), 0.1),
     DimensionError, "responses must have width 2, got 3"),
    (lambda gp: region_contour_2d(_calibrated(gp, "merge_l2"), [0.5], n_angles=4),
     ParamError, "need at least 8 contour vertices"),
    (lambda gp: region_contour_2d(_calibrated(gp, "merge_l2"), [0.5], threshold=math.nan),
     ParamError, "threshold must be a real number, got nan"),
    (lambda gp: conformal_threshold([1.0, 2.0, 3.0], "0.1"), ParamError,
     "alpha must be a real number, got '0.1'"),
    (lambda gp: region_contour_2d(_calibrated(gp, "merge_l2"), [0.5], n_angles=10.5),
     ParamError, "n_angles must be an integer, got 10.5"),
    (lambda gp: conformal_threshold([math.nan] * 5 + [1.0] * 20, 0.1), ParamError,
     "calibration scores must be finite, got NaN or Inf"),
    (lambda gp: pit_values([math.nan, 1.0, 2.0], [1.5]), ParamError,
     "calibration scores must be finite, got NaN or Inf"),
    (lambda gp: pit_values([1.0, 2.0], [math.nan]), ParamError,
     "test scores must be finite, got NaN or Inf"),
    (lambda gp: pit_values([1.0, 2.0], math.inf), ParamError,
     "test scores must be finite, got NaN or Inf"),
    (lambda gp: _calibrated(gp, "merge_l2").contains_rows([[0.5]], [[0, 0], [1]]), ParamError,
     "responses is not a numeric array"),
    (lambda gp: _calibrated(gp, "merge_l2").contains_rows("a", [[0.0, 0.0]]), ParamError,
     "query features is not a numeric array"),
    (lambda gp: make_score_function("merge_mahalanobis", regressor=gp["reg"],
                                    whitener=[[math.nan, 0.0], [0.0, 1.0]]),
     ParamError, "whitener must be finite, got NaN or Inf"),
    (lambda gp: _contains_on_overflowing_map(), ParamError,
     "scores must be finite, got NaN or Inf"),
    *((lambda gp, kind=kind, X=X: region_volumes(_calibrated(gp, kind), X), error, message)
      for kind in ("abs_univariate", "merge_l2", "merge_mahalanobis")
      for X, error, message in [
          (np.zeros((2, 2, 1)), DimensionError,
           "query features must be rows of a 2-D array, got 3-D"),
          (np.ones((4, 3)), DimensionError, "query features must have width 1, got 3"),
          ([[math.nan]], ParamError, "query features must be finite, got NaN or Inf")]),
    *((lambda gp, call=call, bad=bad: call(_with_entry(gp["fit_resid"].scores, bad)),
       ParamError, "residuals must be finite, got NaN or Inf")
      for call in (lambda z: estimate_covariance(z, 0.5), default_mahalanobis_ridge,
                   lambda z: fit_entropic_map(z, build_spherical_grid(16, 2)))
      for bad in (math.nan, math.inf)),
], ids=["regressor-unfitted", "quantile-unfitted", "interval-empty", "map-width",
        "otcp-volume-unsampled", "ridge-negative", "ridge-nan", "ridge-infinite",
        "ridge-one-row", "covariance-no-rows", "covariance-one-row", "threshold-no-scores",
        "threshold-alpha", "pit-no-scores", "threshold-minus-inf", "calib-width",
        "contour-vertices", "contour-threshold-nan", "threshold-alpha-string",
        "contour-vertices-float", "threshold-nan-scores", "pit-nan-scores",
        "pit-nan-test-score", "pit-inf-test-score", "contains-ragged-responses",
        "contains-string-inputs", "whitener-nan",
        "map-score-overflow",
        *(f"volume-{kind}-{fault}" for kind in ("abs", "l2", "mahalanobis")
          for fault in ("3d", "width", "nan")),
        *(f"{call}-{bad}" for call in ("covariance", "mahalanobis-ridge", "map-fit")
          for bad in ("nan", "inf"))])
def test_refused_score_and_calibration_inputs(gaussian_pipeline, call, error, message):
    with pytest.raises(error) as info:
        call(gaussian_pipeline)
    assert type(info.value) is error and message in str(info.value)


_FEATURES = np.array([0.5])  # the features of one input (p = 1), not a row of them
_POINT = np.array([0.3, -0.2])  # one residual or ball point (d = 2), not a row of them


@pytest.mark.parametrize("call", [
    lambda gp: gp["reg"].predict_rows(_FEATURES),
    lambda gp: fit_regressor(gp["train"], "ridge_linear").predict_rows(_FEATURES),
    lambda gp: fit_quantile_predictor(gp["train"], 10, 0.05, 0.95).bounds_rows(_FEATURES),
    lambda gp: gp["emap"].forward(_POINT),
    lambda gp: gp["emap"].rank(_POINT),
    lambda gp: gp["emap"].inverse(_POINT),
    lambda gp: OtProblem(np.arange(5.0), np.arange(5.0) + 1, 1.0),
    lambda gp: fit_entropic_map(_POINT, build_spherical_grid(16, 2)),
    lambda gp: estimate_covariance(_POINT, 0.5),
    lambda gp: default_mahalanobis_ridge(_POINT),
    lambda gp: region_volumes(_calibrated(gp, "abs_univariate"), _FEATURES),
    lambda gp: region_volumes(_calibrated(gp, "merge_l2"), _FEATURES),
    lambda gp: region_volumes(_calibrated(gp, "merge_mahalanobis"), _FEATURES),
], ids=["knn-predict", "ridge-predict", "knn-bounds", "map-forward", "map-rank",
        "map-inverse", "ot-problem", "map-fit", "covariance", "mahalanobis-ridge",
        "volume-abs", "volume-l2", "volume-mahalanobis"])
def test_model_calls_refuse_a_1d_array(gaussian_pipeline, call):
    # every model call takes rows: a 1-D array is refused, never read as one row
    with pytest.raises(DimensionError) as info:
        call(gaussian_pipeline)
    assert type(info.value) is DimensionError
    assert "must be rows of a 2-D array, got 1-D" in str(info.value)


def test_reprs_are_one_short_line_with_sizes(gaussian_pipeline):
    gp = gaussian_pipeline
    emap = gp["emap"]
    for obj, head in [
            (gp["calib"], "Dataset(n=300, p=1, d=2, tag="),
            (emap.grid, "SphericalGrid(dim=2, m=512, n_R=22, n_S=23, n_o=6)"),
            (emap.potentials, "DualPotentials(n=300, m=512, eps=0.1, iterations="),
            (emap, "EntropicMap(dim=2, n=300, m=512, eps=0.1, converged="),
            (_calibrated(gp, "otcp"),
             "CalibratedPredictor(kind='otcp', alpha=0.1, threshold=")]:
        text = repr(obj)
        assert text.startswith(head) and text.endswith(")")
        assert "\n" not in text and "[" not in text and "array" not in text
        assert len(text) <= 120
