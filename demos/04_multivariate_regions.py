"""Multivariate prediction regions on banana-shaped residuals.

Calibrates four score functions on the same splits and compares marginal
coverage, mean region size over 30 test inputs (exact for the baselines,
randomized Halton points in the inflated residual box for otcp, as
`otcp bench run` sizes them), and the 2-D contours each method traces.
Transport regions follow the curved residual cloud; the baselines pay for
their fixed shapes with extra area. Contour CSVs land in demos/out/.
"""

from pathlib import Path

import numpy as np

import otcp

alpha = 0.1
ds = otcp.synth_dataset("banana", 2500, params={"noise": 0.3}, seed=1)
train, ot_fit, calib, test = otcp.split_dataset(
    ds, otcp.SplitSpec((0.3, 0.3, 0.2, 0.2), seed=1))
reg = otcp.fit_regressor(train, "knn_mean", k=25)
fit_resid = otcp.residuals(ot_fit, reg)

emap = otcp.fit_entropic_map(fit_resid, m=2048, epsilon=0.1)
score_fns = {
    "merge_l2": otcp.make_score_function("merge_l2", regressor=reg),
    "merge_mahalanobis": otcp.make_score_function(
        "merge_mahalanobis", regressor=reg,
        whitener=otcp.estimate_covariance(
            fit_resid, otcp.default_mahalanobis_ridge(fit_resid))),
    "mcp_max": otcp.make_score_function(
        "mcp_max", quantile_predictor=otcp.fit_quantile_predictor(
            train, 25, alpha / 2, 1 - alpha / 2)),
    "otcp": otcp.make_score_function("otcp", regressor=reg, transport_map=emap),
}

out_dir = Path(__file__).parent / "out"
x = test.features[0]
print(f"{'method':>18} {'coverage':>9} {'size':>9}")
for name, fn in score_fns.items():
    pred = otcp.calibrate(fn, calib, alpha=alpha)
    cov = otcp.marginal_coverage(pred, test)
    low, high = otcp.bench.residual_box(pred, 1.5)
    sizes, _ = otcp.region_volumes(
        pred, test.features[:30],
        lambda inside: otcp.bench.qmc_volume(inside, low, high, 4000, seed=1))
    size = np.mean(sizes)
    print(f"{name:>18} {cov:9.3f} {size:9.2f}")
    region = otcp.region_contour_2d(pred, x, n_angles=128)
    out_dir.mkdir(exist_ok=True)
    otcp.write_region_csv(region, out_dir / f"region_{name}.csv")

print(f"\ncontours for x={x} written to {out_dir}/region_*.csv")
print("(plot y0 vs y1 to see the circle, ellipse, box, and transport region)")
