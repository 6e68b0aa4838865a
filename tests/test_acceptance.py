"""Acceptance gate: every check below runs at its stated tolerance and prints
one [criterion N] PASS/FAIL line. Heavier simulations reuse fixed seeds so the
whole module is deterministic on a given machine.
"""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from otcp import (
    CalibratedPredictor,
    Dataset,
    EntropicMap,
    OtProblem,
    SinkhornNotConverged,
    SplitSpec,
    Standardizer,
    build_spherical_grid,
    calibrate,
    estimate_covariance,
    fit_entropic_map,
    fit_quantile_predictor,
    fit_regressor,
    grid_radius_index,
    make_score_function,
    marginal_coverage,
    region_size_mc,
    residuals,
    run_benchmark,
    sinkhorn_solve,
    split_dataset,
    synth_dataset,
)
from otcp.bench import BenchConfig
from otcp.conformal import default_mahalanobis_ridge

from _reference import coupling_marginal_error, forward_potential


def _report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Finite-sample coverage of every method on 2-D gaussian data
# ---------------------------------------------------------------------------

def test_criterion_1_finite_sample_coverage():
    t0 = time.perf_counter()
    alpha, n_seeds = 0.1, 20
    fractions = (1 / 7, 1 / 7, 1 / 7, 4 / 7)  # 500/500/500/2000 of n=3500
    grid = build_spherical_grid(4096, 2)  # low-discrepancy grid is data-free
    methods = ("merge_l2", "merge_mahalanobis", "mcp_max", "otcp")
    covs = {m: [] for m in methods}
    for seed in range(n_seeds):
        ds = synth_dataset("gaussian", 3500, 2, seed=seed)
        train, ot_fit, cal, test = split_dataset(ds, SplitSpec(fractions, seed))
        assert (train.n, ot_fit.n, cal.n, test.n) == (500, 500, 500, 2000)
        reg = fit_regressor(train, "knn_mean", k=50)
        fit_resid = residuals(ot_fit, reg)
        fns = {
            "merge_l2": make_score_function("merge_l2", regressor=reg),
            "merge_mahalanobis": make_score_function(
                "merge_mahalanobis", regressor=reg,
                whitener=estimate_covariance(fit_resid,
                                             default_mahalanobis_ridge(fit_resid))),
            "mcp_max": make_score_function("mcp_max",
                                           quantile_predictor=fit_quantile_predictor(
                                               train, 50, alpha / 2, 1 - alpha / 2)),
            "otcp": make_score_function("otcp", regressor=reg,
                                        transport_map=fit_entropic_map(
                                            fit_resid, grid, epsilon=0.1)),
        }
        for name, fn in fns.items():
            covs[name].append(marginal_coverage(calibrate(fn, cal, alpha), test))
    elapsed = time.perf_counter() - t0
    means = {m: float(np.mean(v)) for m, v in covs.items()}
    ok = all(0.88 <= c <= 0.93 for c in means.values()) and elapsed <= 180.0
    _report(1, ok, f"mean coverage over {n_seeds} seeds "
            + ", ".join(f"{m}={c:.4f}" for m, c in means.items())
            + f" (target [0.88, 0.93]); {elapsed:.1f}s <= 180s")


# ---------------------------------------------------------------------------
# 2. Closed-form grid radius equals exhaustive minimal-j search
# ---------------------------------------------------------------------------

def test_criterion_2_radius_formula_oracle():
    t0 = time.perf_counter()
    mismatches = 0
    cases = 0
    for ai in range(1, 100):
        alpha = ai / 100.0
        fr = 1 - Fraction(alpha)
        num, den = fr.numerator, fr.denominator
        for n_r in range(1, 21):
            for n_s in range(1, 21):
                for n_o in range(0, 6):
                    n_total = n_r * n_s + n_o
                    j_star = next(j for j in range(n_r + 1)
                                  if (n_o + j * n_s) * den >= num * n_total)
                    j_formula, r = grid_radius_index(n_total, n_r, n_s, n_o, alpha)
                    cases += 1
                    mismatches += int(j_formula != j_star or r != j_star / n_r)
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed <= 5.0
    _report(2, ok, f"{cases} (n_R, n_S, n_o, alpha) cases, {mismatches} mismatches; "
            f"{elapsed:.2f}s <= 5s")


# ---------------------------------------------------------------------------
# 3. Sinkhorn feasibility and dual ascent
# ---------------------------------------------------------------------------

def test_criterion_3_sinkhorn_feasibility_and_ascent():
    rng = np.random.default_rng(33)
    worst = 0.0
    solves = 0
    for eps in (0.01, 0.1, 1.0):
        for _ in range(8):
            n, m = int(rng.integers(2, 65)), int(rng.integers(2, 65))
            d = int(rng.integers(1, 4))
            prob = OtProblem(rng.standard_normal((n, d)),
                             rng.standard_normal((m, d)) + 0.3, eps)
            pot = sinkhorn_solve(prob, tol=1e-6, max_iter=200000)
            assert pot.converged
            worst = max(worst, coupling_marginal_error(pot))
            solves += 1
    ascent_ok = True
    with warnings.catch_warnings():
        # the ascent instances run a fixed 300-iteration budget on purpose
        warnings.simplefilter("ignore", SinkhornNotConverged)
        for i in range(50):
            n, m = int(rng.integers(2, 17)), int(rng.integers(2, 17))
            d = int(rng.integers(1, 4))
            eps = (0.1, 1.0)[i % 2]
            prob = OtProblem(rng.standard_normal((n, d)),
                             rng.standard_normal((m, d)), eps)
            pot = sinkhorn_solve(prob, tol=1e-10, max_iter=300,
                                 track_objective=True)
            trace = np.asarray(pot.objective_trace)
            scale = np.abs(trace).max() + 1.0
            ascent_ok &= bool((np.diff(trace) >= -1e-9 * scale).all())
    ok = worst <= 1e-6 and ascent_ok
    _report(3, ok, f"{solves} converged solves, worst marginal violation "
            f"{worst:.2e} <= 1e-6; dual objective non-decreasing on 50 instances: "
            f"{ascent_ok}")


# ---------------------------------------------------------------------------
# 4. Entropic map correctness
# ---------------------------------------------------------------------------

def test_criterion_4_entropic_map_correctness():
    rng = np.random.default_rng(44)
    # (a) forward image stays in the unit ball, even for far-out queries
    emap = fit_entropic_map(rng.standard_normal((800, 2)),
                            build_spherical_grid(1024, 2), epsilon=0.1)
    scales = 10.0 ** rng.uniform(-2, 6, size=(10000, 1))
    queries = rng.standard_normal((10000, 2)) * scales
    max_norm = float(np.linalg.norm(emap.forward(queries), axis=1).max())
    ok_a = max_norm <= 1.0 + 1e-12

    # (b) 1-D map approximates the center-outward transform 2F - 1
    z1 = rng.standard_normal((2000, 1))
    emap1 = fit_entropic_map(z1, build_spherical_grid(200, 1,
                                                      factorization=(100, 2, 0)),
                             epsilon=0.05)
    zs = np.linspace(-2.0, 2.0, 81)[:, None]
    sup_err = float(np.abs(emap1.forward(zs)[:, 0]
                           - (2.0 * stats.norm.cdf(zs[:, 0]) - 1.0)).max())
    ok_b = sup_err <= 0.05

    # (c) forward equals identity minus the potential gradient
    grid_raw = build_spherical_grid(512, 2)
    emap_raw = EntropicMap(
        sinkhorn_solve(OtProblem(rng.standard_normal((300, 2)), grid_raw.points, 0.1)),
        grid_raw, Standardizer(np.zeros(2), np.ones(2)))
    worst_rel = 0.0
    for zq in rng.standard_normal((20, 2)):
        grad = np.zeros(2)
        for k in range(2):
            h = 1e-4 * (1.0 + abs(zq[k]))
            zp, zm = zq.copy(), zq.copy()
            zp[k] += h
            zm[k] -= h
            grad[k] = (forward_potential(emap_raw, zp)
                       - forward_potential(emap_raw, zm)) / (2 * h)
        lhs = emap_raw.forward_std(zq)[0]
        rhs = zq - grad
        worst_rel = max(worst_rel,
                        float(np.linalg.norm(lhs - rhs)
                              / max(np.linalg.norm(rhs), 1e-12)))
    ok_c = worst_rel <= 1e-4
    _report(4, ok_a and ok_b and ok_c,
            f"(a) max forward norm {max_norm:.12f} <= 1; "
            f"(b) 1-D sup error {sup_err:.4f} <= 0.05; "
            f"(c) gradient identity rel err {worst_rel:.2e} <= 1e-4")


# ---------------------------------------------------------------------------
# 5. Affine-Gaussian equivalence with the Mahalanobis score
# ---------------------------------------------------------------------------

def test_criterion_5_affine_gaussian_equivalence():
    rng = np.random.default_rng(55)
    L = np.linalg.cholesky(np.array([[1.0, 0.7], [0.7, 1.0]]))
    z_fit = rng.standard_normal((2000, 2)) @ L.T
    emap = fit_entropic_map(z_fit, build_spherical_grid(4096, 2), epsilon=0.1)
    W = estimate_covariance(z_fit)
    z_test = rng.standard_normal((1000, 2)) @ L.T
    rho = float(stats.spearmanr(emap.rank(z_test),
                                np.linalg.norm(z_test @ W.T, axis=1)).statistic)
    _report(5, rho >= 0.95,
            f"Spearman(otcp rank, mahalanobis) = {rho:.4f} >= 0.95 "
            "(rho=0.7 gaussian residuals, n_fit=2000, m=4096, eps=0.1)")


# ---------------------------------------------------------------------------
# 6. Region size: transport regions beat circles on banana data; eps trend
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::otcp.errors.SinkhornNotConverged")
def test_criterion_6_region_size_ordering():
    base = dict(
        dataset={"kind": "synthetic", "generator": "banana", "n": 2000, "d": 2,
                 "params": {"noise": 0.3}},
        alpha=0.1, fractions=(0.3, 0.3, 0.2, 0.2),
        regressor={"kind": "knn_mean", "k": 25},
        seeds=tuple(range(10)), mc_samples=2000, region_size_points=25,
        save_models=False,
    )

    def run(methods, eps):
        cfg = BenchConfig(**base, methods=methods,
                          otcp={"epsilon": eps, "m": 1024, "max_iter": 250})
        rows = run_benchmark(cfg).rows
        assert all(r.status == "ok" for r in rows)
        out = {}
        for m in methods:
            sizes = [r.mean_region_size for r in rows if r.method == m]
            cov = [r.coverage for r in rows if r.method == m]
            out[m] = (float(np.median(sizes)), float(np.mean(cov)))
        return out

    both = run(("merge_l2", "otcp"), 0.1)
    size_l2, cov_l2 = both["merge_l2"]
    size_mid, cov_mid = both["otcp"]
    size_lo, cov_lo = run(("otcp",), 0.001)["otcp"]
    size_hi, cov_hi = run(("otcp",), 1.0)["otcp"]
    matched = all(0.85 <= c <= 0.95 for c in (cov_l2, cov_mid, cov_lo, cov_hi))
    ok = (size_mid < size_l2) and (size_mid <= size_hi) and (size_mid <= size_lo) \
        and matched
    _report(6, ok,
            f"median sizes over 10 seeds: merge_l2={size_l2:.2f}, "
            f"otcp(eps=0.1)={size_mid:.2f}, otcp(eps=0.001)={size_lo:.2f}, "
            f"otcp(eps=1)={size_hi:.2f}; "
            f"coverages l2={cov_l2:.3f}/mid={cov_mid:.3f}/lo={cov_lo:.3f}/"
            f"hi={cov_hi:.3f} all in [0.85, 0.95]")


# ---------------------------------------------------------------------------
# 7. Discrete-uniform law of the empirical PIT
# ---------------------------------------------------------------------------

def test_criterion_7_pit_discrete_uniform_chisquare():
    n, trials = 9, 10000
    rng = np.random.default_rng(77)
    draws = rng.standard_normal((trials, n + 1))
    pit = (draws[:, :n] <= draws[:, n:]).mean(axis=1)
    counts = np.bincount(np.rint(pit * n).astype(int), minlength=n + 1)
    p_value = float(stats.chisquare(counts).pvalue)
    _report(7, p_value > 0.001,
            f"chi-square GOF against uniform on {{0,1/9,...,1}}: p = {p_value:.4f} "
            f"> 0.001 (counts {counts.tolist()})")


# ---------------------------------------------------------------------------
# 8. Monte-Carlo volume against analytic areas
# ---------------------------------------------------------------------------

def test_criterion_8_mc_volume_oracles():
    X = np.linspace(0.0, 1.0, 20)[:, None]
    reg = fit_regressor(Dataset(X, np.zeros((20, 2)), tag="z"), "ridge_linear")
    circle_pred = CalibratedPredictor(
        make_score_function("merge_l2", regressor=reg), 0.1, 1.0,
        np.linspace(0.1, 2.0, 20), np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    qp = fit_quantile_predictor(
        Dataset(np.array([[0.0], [1.0]]), np.array([[0.0, 0.0], [1.0, 2.0]])),
        k=2, alpha_lo=0.25, alpha_hi=0.75)
    rect_pred = CalibratedPredictor(
        make_score_function("mcp_max", quantile_predictor=qp), 0.1, 0.5,
        np.array([0.5]), np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    lo, hi = qp.predict_bounds([0.5])
    rect_exact = float(np.prod((hi + 0.5) - (lo - 0.5)))

    worst_circle = worst_rect = 0.0
    for seed in (0, 1, 2):
        est_c = region_size_mc(circle_pred, [0.5],
                               bounds=(np.array([-1.3, -1.3]), np.array([1.3, 1.3])),
                               n_mc=100000, seed=seed)
        worst_circle = max(worst_circle, abs(est_c - math.pi) / math.pi)
        est_r = region_size_mc(rect_pred, [0.5],
                               bounds=(lo - 1.5, hi + 1.5), n_mc=100000, seed=seed)
        worst_rect = max(worst_rect, abs(est_r - rect_exact) / rect_exact)
    ok = worst_circle < 0.05 and worst_rect < 0.05
    _report(8, ok, f"3 seeds at n_mc=1e5: circle rel err {worst_circle:.4f}, "
            f"rectangle rel err {worst_rect:.4f}, both < 0.05")


# ---------------------------------------------------------------------------
# 9. Byte-identical reports for identical configs
# ---------------------------------------------------------------------------

def test_criterion_9_report_determinism():
    def run_once():
        cfg = BenchConfig(
            dataset={"kind": "synthetic", "generator": "gaussian", "n": 700, "d": 2},
            methods=("merge_l2", "merge_mahalanobis", "mcp_max", "otcp"),
            seeds=(0, 1), mc_samples=500, region_size_points=4,
            otcp={"epsilon": 0.1, "m": 256}, save_models=False)
        report = run_benchmark(cfg)
        return report.csv_text(include_timings=False).encode()

    first, second = run_once(), run_once()
    _report(9, first == second,
            f"two identical runs, {len(first)} report bytes (timings excluded) "
            f"compare equal: {first == second}")
