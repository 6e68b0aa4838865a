"""Sinkhorn solver for entropy-regularized optimal transport.

Solves the dual of the regularized problem between two uniform empirical
measures under squared Euclidean cost. Every soft-min here and in the
entropic maps is built from three helpers. `_factors` is the one place that
forms the expanded cost: it returns two thin factors whose product is the
logits phi_i + psi_j - |s_i - t_j|^2/eps, so a block of logits is one BLAS
product into a caller's buffer (`_logits`). `_gibbs` is the one Gibbs kernel:
it max-shifts a block of logits along one axis, then `_exp_normal`, which the
absorbed kernel K below shares, drops the entries that would exponentiate to
subnormals and exponentiates the rest in place; `_gibbs` sums them, so small
epsilon neither overflows nor runs at subnormal speed.

The solver takes its first f and g half-steps in the log domain through
`_gibbs`, then iterates in the scaling domain (Cuturi, arXiv:1306.0895): it
keeps log potentials (phi, psi) and one n x m kernel
K = exp(phi_i + psi_j - c_ij/eps), and each iteration is two matrix-vector
products with K. Scalings that grow past a fixed bound are absorbed into
(phi, psi) and K is rebuilt from the points (Schmitzer, arXiv:1610.06519),
so exp runs over an n x m array only at the start and at absorptions, and K
is the only n x m array the solver keeps.

Every scaling update is one rule: the half-step over-relaxed by a factor w
(Thibault et al., arXiv:1711.01851; Lehmann et al., arXiv:2012.12562), which
is plain Sinkhorn at w = 1 for the first _WARMUP iterations and takes a fixed
w = _OMEGA after them, cutting the iterations several-fold at small epsilon.
A relaxed half-step can overshoot and lower the dual; its change of the dual
follows from the product the half-step already computed, so a step that
would lower it is retried at a smaller w before it is taken (a guard on the
dual's ascent). Convergence checks the columns once the rows pass.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SinkhornNotConverged, _integer, _positive, _rows

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 2000
_ABSORB_LOG = 100.0  # |log| of a scaling past which it moves into the kernel
_LOG_TINY = float(np.log(np.finfo(float).tiny))  # log of the smallest normal float
_WARMUP = 8  # iterations at w = 1 before the relaxed ones
_OMEGA = 1.8  # over-relaxation factor w of the relaxed iterations
_HALVINGS = 4  # halvings of w - 1 the dual guard tries before a plain step
# a marginal ratio r >= this gains dual at every 1 <= w <= _OMEGA: the root of
# r - r^(1 - w) - w log r below 1 is 0.4715 at w = 1.8
_SAFE_RATIO = 0.5


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Per-dimension affine transform fixed at fit time and reused on queries."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, points: np.ndarray) -> "Standardizer":
        points = np.asarray(points, dtype=float)
        mean = points.mean(axis=0)
        scale = points.std(axis=0)
        scale = np.where(scale < 1e-12, 1.0, scale)
        return cls(mean, scale)

    def transform(self, z: np.ndarray) -> np.ndarray:
        return (np.asarray(z, dtype=float) - self.mean) / self.scale

    def inverse_transform(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float) * self.scale + self.mean


@dataclass(frozen=True, eq=False)
class OtProblem:
    """Uniform source (n x d) onto uniform target (m x d) with regularization eps."""

    source: np.ndarray
    target: np.ndarray
    epsilon: float

    def __post_init__(self):
        src = _rows(self.source, "OT source")
        tgt = _rows(self.target, "OT target", src.shape[1])
        object.__setattr__(self, "epsilon", _positive(self.epsilon, "epsilon"))
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "target", tgt)

    @property
    def n(self) -> int:
        return self.source.shape[0]

    @property
    def m(self) -> int:
        return self.target.shape[0]


@dataclass(eq=False)
class DualPotentials:
    """Converged dual vectors (f, g) of `problem` with solve diagnostics."""

    f: np.ndarray
    g: np.ndarray
    problem: OtProblem
    iterations: int
    marginal_error: float
    converged: bool
    objective_trace: list | None = None

    def __repr__(self):
        return (f"DualPotentials(n={self.f.size}, m={self.g.size}, "
                f"eps={self.epsilon:g}, iterations={self.iterations}, "
                f"marginal_error={self.marginal_error:.3e}, "
                f"converged={self.converged})")

    @property
    def epsilon(self) -> float:
        return self.problem.epsilon


def _exp_normal(logits: np.ndarray) -> np.ndarray:
    """Exponentiate logits in place, storing as 0 every entry that would be subnormal.

    Subnormals slow exp and the products that read its result several-fold,
    and next to the entries of a max-shifted block, or of a kernel whose
    scalings are bounded by exp(_ABSORB_LOG), they weigh nothing in any sum.
    """
    logits[logits < _LOG_TINY] = -np.inf
    return np.exp(logits, out=logits)


def _gibbs(logits: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gibbs kernel: exponentiate logits in place, max-shifted along axis.

    Overwrites `logits` with exp(logits - top), top being the max along axis,
    so every entry lies in [0, 1] whatever the scale of the logits, through
    `_exp_normal`, which stores a would-be subnormal entry as 0.
    Returns (log_mean, total) along axis: log_mean = log(mean(exp(logits)))
    of the original logits, and total the sum of the overwritten entries, so
    that logits / total are the softmax weights.
    """
    top = logits.max(axis=axis, keepdims=True)
    np.subtract(logits, top, out=logits)
    _exp_normal(logits)
    total = logits.sum(axis=axis)
    return np.log(total / logits.shape[axis]) + np.squeeze(top, axis=axis), total


def _factors(source: np.ndarray, target: np.ndarray, eps: float, phi,
             psi) -> tuple[np.ndarray, np.ndarray]:
    """Factors (left, right) with left @ right.T = phi_i + psi_j - |s_i - t_j|^2/eps.

    The one place that forms the expanded cost |s_i|^2 + |t_j|^2 - 2 s_i.t_j:
    left = [2 s/eps, phi - |s|^2/eps, 1] (n x d+2) and
    right = [t, 1, psi - |t|^2/eps] (m x d+2), the potentials being arrays or
    the scalar 0.0. Any block of rows of left times right.T is that block's
    logits, written by one matrix product.
    """
    left = np.column_stack([source * (2.0 / eps),
                            phi - (source * source).sum(axis=1) / eps,
                            np.ones(source.shape[0])])
    right = np.column_stack([target, np.ones(target.shape[0]),
                             psi - (target * target).sum(axis=1) / eps])
    return left, right


def _logits(source: np.ndarray, target: np.ndarray, eps: float, phi, psi,
            out: np.ndarray) -> np.ndarray:
    """Write phi_i + psi_j - |s_i - t_j|^2/eps into out (n x m) as one product."""
    left, right = _factors(source, target, eps, phi, psi)
    return np.matmul(left, right.T, out=out)


def _kernel(prob: OtProblem, phi: np.ndarray, psi: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """The absorbed kernel K_ij = exp(phi_i + psi_j - c_ij/eps), written into out
    by `_exp_normal`, so entries below the smallest normal float are 0."""
    return _exp_normal(_logits(prob.source, prob.target, prob.epsilon, phi, psi, out))


def _overrelax(plain: np.ndarray, ratio: np.ndarray, low: float, over: float) -> np.ndarray:
    """One half-step at w = 1 + over, or smaller, that does not lower the dual.

    `plain` = mass / (K y) is the plain update of a block of scalings x, the
    exact maximizer of the dual over that block, and `ratio` = x (K y) / mass
    the current iterate's marginals over their targets along it, `low` their
    minimum. The relaxed update log x <- (1 - w) log x + w log(plain) is
    plain * ratio^(1 - w), and it changes the dual by eps / len(x) times
    sum(ratio - ratio^(1 - w) - w log(ratio)). Each entry of that sum is
    nonnegative for ratio >= _SAFE_RATIO and any 1 <= w <= _OMEGA, so the sum
    is formed only when some ratio is lower, and never at over = 0, the plain
    step bit for bit. Halves w - 1 while the sum is negative and takes the
    plain step after _HALVINGS halvings. `plain` is overwritten with the result.
    """
    log_ratio = np.log(ratio) if over and low < _SAFE_RATIO else None
    for _ in range(_HALVINGS + 1):
        step = ratio ** -over
        if log_ratio is None or float((ratio - step - (1.0 + over) * log_ratio).sum()) >= 0.0:
            plain *= step
            return plain
        over *= 0.5
    return plain


def _deviation(ratio: np.ndarray) -> tuple[float, float]:
    """(max |ratio - 1|, min ratio) from two reductions and no temporary."""
    low = float(ratio.min())
    return max(float(ratio.max()) - 1.0, 1.0 - low), low


def sinkhorn_solve(prob: OtProblem, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER,
                   track_objective: bool = False) -> DualPotentials:
    """Alternate f and g updates until the coupling marginals fit.

    The first f and g half-steps are log-domain soft-mins through `_gibbs`.
    The rest run in the scaling domain over one n x m kernel
    K = exp(phi_i + psi_j - c_ij/eps) built from those exact potentials
    (phi = f/eps, psi = g/eps), and (phi + log a, psi + log b) are the current
    potentials. Each iteration is two matrix-vector products and two
    half-steps of one rule, log a <- (1 - w) log a + w log(m / (K b)) and the
    same for b, with w = 1 (the plain a = m / (K b), b = n / (K^T a)) for the
    first _WARMUP iterations and w = _OMEGA after them. A relaxed half-step
    that would lower the dual is retried by `_overrelax` from the same
    iterate at a smaller w, down to the plain step; the next half-step tries
    _OMEGA again. So the dual never decreases. When a scaling leaves
    exp(+-_ABSORB_LOG), the scalings are absorbed into (phi, psi) and the
    kernel is rebuilt, so its entries never overflow and no row of it
    underflows away, down to small epsilon.

    The worst row-sum deviation of the implied coupling,
    max |a_i (K b)_i / m - 1| / n, falls out of the f step, so rows are checked
    every iteration at no extra cost. Once the rows pass tol, and at the last
    iteration, the columns are checked with one more product K^T a (after a
    plain g step they are exact to rounding), and the reported error is the
    larger of the two. Stops when that error drops to tol or the
    iteration budget runs out, in which case a SinkhornNotConverged warning
    is emitted and the last iterate is returned. With `track_objective`, the
    dual value eps (mean(phi + log a) + mean(psi + log b) - a.(K b)/(n m)) of
    the iterate is recorded at the start of each iteration. Potentials are
    gauged so mean(g) = 0. Deterministic for identical inputs.
    """
    tol = _positive(tol, "tol")
    max_iter = _integer(max_iter, "max_iter", 1)
    n, m = prob.n, prob.m
    eps = prob.epsilon
    kernel = np.empty((n, m))  # the one n x m array: logits first, then K
    phi = -_gibbs(_logits(prob.source, prob.target, eps, 0.0, 0.0, kernel), axis=1)[0]
    psi = -_gibbs(_logits(prob.source, prob.target, eps, phi, 0.0, kernel), axis=0)[0]
    _kernel(prob, phi, psi, kernel)
    a, b = np.ones(n), np.ones(m)
    trace = [] if track_objective else None

    for it in range(1, max_iter + 1):
        kb = kernel @ b
        rows = a * kb / m  # row i of P for the current iterate sums to rows_i / n
        if track_objective:
            trace.append(eps * (float((phi + np.log(a)).mean())
                                + float((psi + np.log(b)).mean()) - float(rows.mean())))
        dev, low = _deviation(rows)
        err = dev / n
        if err <= tol or it == max_iter:
            err = max(err, _deviation(b * (kernel.T @ a) / n)[0] / m)
            if err <= tol or it == max_iter:
                break
        over = 0.0 if it <= _WARMUP else _OMEGA - 1.0
        a = _overrelax(m / kb, rows, low, over)
        kta = kernel.T @ a
        cols = b * kta / n
        b = _overrelax(n / kta, cols, float(cols.min()), over)
        log_a, log_b = np.log(a), np.log(b)
        if max(np.abs(log_a).max(), np.abs(log_b).max()) > _ABSORB_LOG:
            phi += log_a
            psi += log_b
            _kernel(prob, phi, psi, kernel)
            a.fill(1.0)
            b.fill(1.0)
    phi = phi + np.log(a)
    psi = psi + np.log(b)
    shift = float(psi.mean())
    f = (phi + shift) * eps
    g = (psi - shift) * eps
    converged = err <= tol
    pot = DualPotentials(f, g, prob, it, err, converged, trace)
    if not converged:
        warnings.warn(
            f"Sinkhorn stopped at max_iter={max_iter} with marginal error "
            f"{err:.3e} > tol={tol:.1e}", SinkhornNotConverged, stacklevel=2)
    return pot

