"""Univariate split conformal prediction from the ground up.

Fits a point predictor, turns held-out absolute residuals into a calibrated
interval, and checks the finite-sample coverage empirically. Also shows the
center-outward reading of the same interval: the empirical CDF maps scores to
[0, 1], and keeping PIT values below 1 - alpha is the one-sided band.
"""

import numpy as np

import otcp

alpha = 0.1
ds = otcp.synth_dataset("gaussian", 4000, d=1, params={"cov": [[1.0]]}, seed=0)
train, _, calib, test = otcp.split_dataset(ds, otcp.SplitSpec(seed=0))

reg = otcp.fit_regressor(train, "knn_mean", k=40)
score = otcp.make_score_function("abs_univariate", regressor=reg)
pred = otcp.calibrate(score, calib, alpha=alpha)

print(f"calibration size n = {pred.n_cal}")
print(f"threshold (k-th order statistic, k = ceil((1-alpha)(n+1))): "
      f"{pred.threshold:.4f}")

x = test.features[0]
yhat = reg.predict_rows(x[None])[0, 0]
print(f"interval at x = {x[0]:.3f}: "
      f"[{yhat - pred.threshold:.4f}, {yhat + pred.threshold:.4f}]")

coverage = otcp.marginal_coverage(pred, test)
print(f"empirical coverage on {test.n} test points: {coverage:.4f} "
      f"(target >= {1 - alpha})")

# PIT view: empirical CDF values of fresh scores are near-uniform on the grid
scores = score.score_rows(test.features[:20], test.targets[:20])
print("PIT of 20 fresh scores:", np.round(otcp.pit_values(pred.cal_scores, scores), 3))
