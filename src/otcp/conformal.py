"""Conformity scores, split-conformal calibration, 2-D regions and region volumes.

Every score function maps an (x, y) pair to a scalar; calibration ranks the
scores of held-out pairs and keeps the ceil((1-alpha)(n+1))-th order statistic
as the threshold, which yields the finite-sample marginal coverage guarantee
under exchangeability. The transport-rank score reduces a vector residual to
the norm of its image under a fitted entropic map, so the same univariate
machinery applies unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import Dataset, KnnQuantilePredictor, Regressor, _fitted_rows, _scores_and_origin
from .entropic import EntropicMap
from .errors import (DimensionError, MethodError, NotFittedError, ParamError, ProvenanceError,
                     _array, _integer, _level, _real)

# ---------------------------------------------------------------------------
# Score functions
# ---------------------------------------------------------------------------

class ScoreFunction:
    """Base conformity score: a prediction at x, scored against responses y.

    Subclasses say what they predict at each input row (`_predict_rows`), how
    responses score against that prediction (`_scores`) and where the region
    it implies is centered (`_centers`). `components` names the fitted parts
    the constructor takes, in order, and the attributes that keep them;
    building a score and reading or writing its artifact go through these
    names for every kind.
    """

    kind = "base"
    components: tuple[str, ...] = ()

    def __init__(self, d: int):
        self.d = int(d)

    @property
    def fit_tags(self) -> frozenset:
        """Tags of the data any fitted component saw; calibration refuses them."""
        parts = (getattr(self, name) for name in self.components)
        return frozenset(tag for part in parts if (tag := getattr(part, "fit_tag", None)))

    def _check_pair(self, x, y):
        x = np.atleast_2d(_array(x, "query features"))
        y = _array(np.atleast_2d(_array(y, "responses")), "responses", (None, self.d))
        if x.shape[0] not in (1, y.shape[0]):
            raise DimensionError(
                f"{x.shape[0]} input rows for {y.shape[0]} responses; need 1 or one each")
        return x, y

    def score_rows(self, X, Y) -> np.ndarray:
        """Scores of paired rows (X_i, Y_i), or of every Y row at a single X row."""
        return self.score_center_rows(X, Y)[0]

    def score_center_rows(self, X, Y) -> tuple[np.ndarray, np.ndarray]:
        """Scores of paired rows and the region centers at X, from one prediction."""
        X, Y = self._check_pair(X, Y)
        pred = self._predict_rows(X)
        # a NaN score compares False with every threshold, so it is refused
        return _array(self._scores(pred, Y), "scores", (None,)), self._centers(pred)

    def center(self, x) -> np.ndarray:
        """Representative center of the region at x (used for sizing bounds)."""
        return self._centers(self._predict_rows(np.atleast_2d(x)))[0]

    def contour_2d(self, x, r: float, circle: np.ndarray) -> tuple[np.ndarray, bool]:
        """Boundary of the d=2 set {y: score(x, y) <= r}, in order, unclosed.

        `circle` holds unit vectors at the contour's angles. Also returns
        whether the vertices had to be re-sorted by angle.
        """
        raise MethodError(f"no 2-D region for score kind {self.kind!r}")

    def volume(self, r: float, X, sampler=None) -> tuple[np.ndarray, float]:
        """Volume of the set {y: score(x, y) <= r} at each row x of X, and its standard error.

        A kind with a closed form returns it with a standard error of 0. A kind
        without one has the same set, up to translation, at every x, and sizes
        it once in residual space through `sampler(inside)`: `inside` flags the
        residual rows that lie in the set, and the sampler returns the set's
        volume and that estimate's standard error. X is refused as the score's
        model refuses query rows: not 2-D, of another width, or not finite.
        """
        raise MethodError(f"no region volume for score kind {self.kind!r}")


def _ball_volume(d: int, r: float) -> float:
    """Volume of the radius-r ball in d dimensions, r^d pi^(d/2) / Gamma(d/2 + 1)."""
    return max(r, 0.0) ** d * math.pi ** (d / 2) / math.gamma(d / 2 + 1)


class _RegressionScore(ScoreFunction):
    """A score of the residual y - yhat(x); subclasses define _score_residuals(resid)
    and _volume(r, sampler), the volume of the set at any x and its standard error."""

    components = ("regressor",)

    def __init__(self, regressor: Regressor):
        if regressor.d is None:
            raise NotFittedError("regressor must be fitted first")
        super().__init__(regressor.d)
        self.regressor = regressor

    def _predict_rows(self, X):
        return self.regressor.predict_rows(X)

    def _scores(self, pred, Y):
        return self._score_residuals(Y - pred)

    def _centers(self, pred):
        return pred

    def volume(self, r, X, sampler=None):
        # the set is the same, up to translation, at every x: size it once
        vol, stderr = self._volume(r, sampler)
        return np.full(len(_fitted_rows(self.regressor, X)), vol), stderr


class AbsoluteResidualScore(_RegressionScore):
    """|yhat(x) - y| for univariate targets."""

    kind = "abs_univariate"

    def __init__(self, regressor):
        super().__init__(regressor)
        if self.d != 1:
            raise DimensionError("abs_univariate requires d = 1")

    def _score_residuals(self, resid):
        return np.abs(resid[:, 0])

    def _volume(self, r, sampler):
        return 2.0 * max(r, 0.0), 0.0


class EuclideanResidualScore(_RegressionScore):
    """||yhat(x) - y||_2, collapsing the residual vector to one number."""

    kind = "merge_l2"

    def _score_residuals(self, resid):
        return np.linalg.norm(resid, axis=1)

    def contour_2d(self, x, r, circle):
        return self.center(x)[None, :] + r * circle, False

    def _volume(self, r, sampler):
        return _ball_volume(self.d, r), 0.0


class MahalanobisResidualScore(_RegressionScore):
    """||W (yhat(x) - y)||_2 with W the inverse square root of a residual covariance."""

    kind = "merge_mahalanobis"
    components = ("regressor", "whitener")

    def __init__(self, regressor, whitener: Whitener | np.ndarray):
        super().__init__(regressor)
        W = whitener if isinstance(whitener, Whitener) else Whitener(whitener)
        _array(W.matrix, "whitener", (self.d, self.d))
        self.whitener = W

    def _score_residuals(self, resid):
        return np.linalg.norm(resid @ self.whitener.matrix.T, axis=1)

    def contour_2d(self, x, r, circle):
        half = np.linalg.inv(self.whitener.matrix)  # maps the unit ball to the ellipse
        return self.center(x)[None, :] + (r * circle) @ half.T, False

    def _volume(self, r, sampler):
        # the set is W^-1 times a radius-r ball
        return _ball_volume(self.d, r) / abs(float(np.linalg.det(self.whitener.matrix))), 0.0


class MaxIntervalScore(ScoreFunction):
    """Worst per-dimension quantile-interval violation, max_i max(lo_i-y_i, y_i-hi_i)."""

    kind = "mcp_max"
    components = ("quantile_predictor",)

    def __init__(self, quantile_predictor: KnnQuantilePredictor):
        if quantile_predictor.d is None:
            raise NotFittedError("quantile predictor must be fitted first")
        super().__init__(quantile_predictor.d)
        self.quantile_predictor = quantile_predictor

    def _predict_rows(self, X):
        return self.quantile_predictor.bounds_rows(X)

    def _scores(self, bounds, Y):
        lo, hi = bounds
        return np.maximum(lo - Y, Y - hi).max(axis=1)

    def _centers(self, bounds):
        lo, hi = bounds
        return (lo + hi) / 2.0

    def contour_2d(self, x, r, circle):
        lo, hi = self.quantile_predictor.predict_bounds(x)
        lo, hi = lo - r, hi + r
        if (hi <= lo).any():
            raise MethodError("interval region is empty at this threshold")
        corners = np.array([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]])
        per_edge = max(circle.shape[0] // 4, 2)
        edges = []
        for a, b in zip(corners, np.roll(corners, -1, axis=0)):
            frac = np.linspace(0.0, 1.0, per_edge, endpoint=False)[:, None]
            edges.append(a[None, :] * (1 - frac) + b[None, :] * frac)
        return np.vstack(edges), False

    def volume(self, r, X, sampler=None):
        lo, hi = self.quantile_predictor.bounds_rows(X)
        return np.prod(np.maximum(hi - lo + 2.0 * r, 0.0), axis=1), 0.0


class TransportRankScore(_RegressionScore):
    """Transport rank of the residual vector: ||T(y - yhat(x))|| in [0, 1]."""

    kind = "otcp"
    components = ("regressor", "transport_map")

    def __init__(self, regressor, transport_map: EntropicMap):
        super().__init__(regressor)
        if transport_map.dim != self.d:
            raise DimensionError("transport map dimension does not match targets")
        self.transport_map = transport_map

    def _score_residuals(self, resid):
        return self.transport_map.rank(resid)

    def contour_2d(self, x, r, circle):
        # pull the radius-r sphere shell back through the inverse map
        pulled = self.transport_map.inverse(r * circle) + self.center(x)[None, :]
        centroid = pulled.mean(axis=0)
        ang = np.arctan2(pulled[:, 1] - centroid[1], pulled[:, 0] - centroid[0])
        # a pullback that is already angle-monotone (up to direction and one
        # wraparound) traces a simple curve; anything else gets re-sorted and
        # flagged
        steps = np.diff(ang, append=ang[:1])
        monotone = (steps < 0).sum() == 1 or (steps > 0).sum() == 1
        return pulled[np.argsort(ang, kind="stable")], not monotone

    def _volume(self, r, sampler):
        if sampler is None:
            raise MethodError("otcp regions have no closed-form volume; pass a sampler")
        return sampler(lambda z: self._score_residuals(z) <= r)


SCORE_CLASSES = {cls.kind: cls for cls in (
    AbsoluteResidualScore, EuclideanResidualScore, MahalanobisResidualScore,
    MaxIntervalScore, TransportRankScore)}
SCORE_KINDS = tuple(SCORE_CLASSES)


def make_score_function(kind: str, regressor=None, quantile_predictor=None,
                        transport_map=None, whitener=None) -> ScoreFunction:
    """Build a score function from its fitted components."""
    if not isinstance(kind, str) or kind not in SCORE_CLASSES:
        raise ParamError(f"unknown score kind {kind!r}; choose from {SCORE_KINDS}")
    cls = SCORE_CLASSES[kind]
    given = {"regressor": regressor, "quantile_predictor": quantile_predictor,
             "transport_map": transport_map, "whitener": whitener}
    missing = [name for name in cls.components if given[name] is None]
    if missing:
        raise ParamError(f"{kind} needs a fitted {' and '.join(missing)}")
    return cls(*(given[name] for name in cls.components))


@dataclass(frozen=True, eq=False)
class Whitener:
    """A whitening matrix and the tag of the residual rows it was estimated on.

    numpy reads it as the plain matrix (`z @ W.T`, `np.linalg.inv(W)`), and
    `fit_tag` lets calibration refuse those rows.
    """

    matrix: np.ndarray
    fit_tag: str = ""

    def __post_init__(self):
        object.__setattr__(self, "matrix", _array(self.matrix, "whitener", (None, None)))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)

    @property
    def T(self) -> np.ndarray:
        return self.matrix.T


def estimate_covariance(resid, ridge: float = 0.0) -> Whitener:
    """Inverse square root of (sample covariance + ridge*I) via eigendecomposition.

    A ScoreMatrix's origin becomes the whitener's fit_tag; a plain array
    gives an untagged whitener.
    """
    Z, fit_tag = _scores_and_origin(resid)
    ridge = _real(ridge, "ridge")
    if not 0.0 <= ridge < math.inf:
        raise ParamError(f"ridge must be >= 0 and finite, got {ridge}")
    if Z.shape[0] < 2:
        raise ParamError(f"a covariance needs at least 2 residual rows, got {Z.shape[0]}")
    centered = Z - Z.mean(axis=0)
    cov = centered.T @ centered / (Z.shape[0] - 1) + ridge * np.eye(Z.shape[1])
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() <= 1e-12:
        raise ParamError(
            f"covariance singular: smallest eigenvalue {vals.min():.3e} after ridge={ridge}")
    return Whitener((vecs * (1.0 / np.sqrt(vals))) @ vecs.T, fit_tag)


def default_mahalanobis_ridge(resid) -> float:
    """Ridge of 1e-6 * trace(cov)/d, guarding near-singular residual covariances."""
    Z = _scores_and_origin(resid)[0]
    if Z.shape[0] < 2:
        raise ParamError(f"a Mahalanobis ridge needs at least 2 residual rows, got {Z.shape[0]}")
    var = Z.var(axis=0, ddof=1).sum()
    return 1e-6 * float(var) / Z.shape[1]


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def conformal_threshold(cal_scores, alpha: float) -> float:
    """The k-th smallest calibration score with k = ceil((1-alpha)(n+1)).

    Returns +inf when k exceeds n (alpha below 1/(n+1)), meaning the region is
    the whole space. The ceiling is evaluated in exact rational arithmetic so
    float rounding cannot shift the rank.
    """
    scores = _array(cal_scores, "calibration scores", (None,))
    n = scores.size
    if n < 1:
        raise ParamError("need at least one calibration score")
    k = math.ceil((n + 1) * (1 - Fraction(_level(alpha, "alpha"))))
    if k > n:
        return math.inf
    return float(np.sort(scores)[k - 1])


def pit_values(cal_scores, test_scores):
    """Empirical CDF of the calibration scores at each test score, on {0,1/n,...,1}:
    a number for a number, an array of the same shape for an array."""
    sorted_scores = np.sort(_array(cal_scores, "calibration scores", (None,)))
    n = sorted_scores.size
    if n < 1:
        raise ParamError("need at least one calibration score")
    return np.searchsorted(sorted_scores, _array(test_scores, "test scores"), side="right") / n


@dataclass(eq=False)
class CalibratedPredictor:
    """A score function plus its calibrated threshold and diagnostics."""

    score_fn: ScoreFunction
    alpha: float
    threshold: float
    cal_scores: np.ndarray      # sorted
    residual_low: np.ndarray    # per-dim bounds of y - center(x) on calib
    residual_high: np.ndarray

    def __post_init__(self):
        # calibrate and artifact loading both build predictors, so both pass here
        self.alpha = _level(self.alpha, "alpha")
        self.threshold = _real(self.threshold, "threshold")
        if self.threshold == -math.inf:
            raise ParamError("threshold must be finite or +inf")

    def __repr__(self):
        return (f"CalibratedPredictor(kind={self.score_fn.kind!r}, "
                f"alpha={self.alpha:g}, threshold={self.threshold:.6g}, "
                f"n_cal={self.n_cal})")

    @property
    def n_cal(self) -> int:
        return self.cal_scores.size

    @property
    def d(self) -> int:
        return self.score_fn.d

    def contains_rows(self, X, Y) -> np.ndarray:
        return self.score_fn.score_rows(X, Y) <= self.threshold

    contains_candidates = contains_rows  # every Y row at one x: one x row broadcasts

    def threshold_at(self, alpha: float) -> float:
        """Threshold recomputed at a different miscoverage level from the same scores."""
        return conformal_threshold(self.cal_scores, alpha)


def calibrate(score_fn: ScoreFunction, calib: Dataset, alpha: float,
              allow_same_data: bool = False) -> CalibratedPredictor:
    """Score every calibration pair and keep the conformal threshold.

    Refuses calibration data whose provenance tag matches the data any fitted
    component saw (regressor, whitener, quantile predictor or transport map:
    the score's fit_tags), unless allow_same_data is set (the
    permutation-invariant single-split variant).
    """
    if calib.tag and calib.tag in score_fn.fit_tags and not allow_same_data:
        raise ProvenanceError(
            f"score function was fitted on {calib.tag!r}; pass allow_same_data=True "
            "to calibrate on the same split anyway")
    scores, centers = score_fn.score_center_rows(calib.features, calib.targets)
    resid = calib.targets - centers
    return CalibratedPredictor(score_fn, alpha, conformal_threshold(scores, alpha),
                               np.sort(scores), resid.min(axis=0), resid.max(axis=0))


# ---------------------------------------------------------------------------
# 2-D regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Region2D:
    """Closed polygon tracing the prediction-set boundary at one input point."""

    x: np.ndarray
    alpha: float
    vertices: np.ndarray  # (k, 2), first row repeated last
    method: str
    reordered: bool = False  # True when the pullback needed angular re-sorting

    @property
    def area(self) -> float:
        v = self.vertices
        return float(abs(np.sum(v[:-1, 0] * v[1:, 1] - v[1:, 0] * v[:-1, 1])) / 2.0)


def region_contour_2d(pred: CalibratedPredictor, x, n_angles: int = 128,
                      threshold: float | None = None) -> Region2D:
    """Trace the d=2 prediction-set boundary at input x.

    Each score kind draws its own boundary: transport-rank predictors pull the
    radius-threshold sphere shell back through the inverse map; Euclidean,
    Mahalanobis, and interval scores emit their exact circle, ellipse, and
    rectangle. Univariate scores have no 2-D region.
    """
    if pred.d != 2:
        raise MethodError("region contours are defined for d = 2 only")
    if _integer(n_angles, "n_angles") < 8:
        raise ParamError("need at least 8 contour vertices")
    r = pred.threshold if threshold is None else _real(threshold, "threshold")
    if not math.isfinite(r):
        raise MethodError("threshold is infinite (region is the whole plane)")
    x = np.asarray(x, dtype=float)
    theta = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    verts, reordered = pred.score_fn.contour_2d(x, r, circle)
    return Region2D(x, pred.alpha, np.vstack([verts, verts[:1]]), pred.score_fn.kind,
                    reordered)


def region_volumes(pred: CalibratedPredictor, X, sampler=None) -> tuple[np.ndarray, float]:
    """Volume of the prediction set at each row of X, and its standard error.

    Each score kind sizes its own set (see ScoreFunction.volume): interval,
    ball and ellipse volumes are exact, and transport-rank sets are sampled
    once through `sampler`. A set with an infinite threshold (the whole space)
    has no volume here and raises MethodError.
    """
    if not math.isfinite(pred.threshold):
        raise MethodError("threshold is infinite (region is the whole space)")
    return pred.score_fn.volume(pred.threshold, X, sampler)
