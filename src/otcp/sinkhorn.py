"""Sinkhorn solver for entropy-regularized optimal transport.

Solves the dual of the regularized problem between two uniform empirical
measures under squared Euclidean cost. Every soft-min here and in the
entropic maps is built from two helpers. `_logits` is the one place that
forms the logits phi_i + psi_j - |s_i - t_j|^2/eps, in place in a caller's
buffer. `_gibbs` is the one Gibbs kernel: it max-shifts a block of logits
along one axis, exponentiates it in place and sums it, so small epsilon never
overflows.

The solver takes its first f and g half-steps in the log domain through
`_gibbs`, then iterates in the scaling domain (Cuturi, arXiv:1306.0895): it
keeps log potentials (phi, psi) and one n x m kernel
K = exp(phi_i + psi_j - c_ij/eps), and each iteration is two matrix-vector
products with K. Scalings that grow past a fixed bound are absorbed into
(phi, psi) and K is rebuilt from the points (Schmitzer, arXiv:1610.06519),
so exp runs over an n x m array only at the start and at absorptions, and K
is the only n x m array the solver keeps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParamError, SinkhornNotConverged, _real

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 2000
_ABSORB_LOG = 100.0  # |log| of a scaling past which it moves into the kernel
_LOG_TINY = float(np.log(np.finfo(float).tiny))  # log of the smallest normal float


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

    @classmethod
    def identity(cls, dim: int) -> "Standardizer":
        return cls(np.zeros(dim), np.ones(dim))

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
        src = np.atleast_2d(np.asarray(self.source, dtype=float))
        tgt = np.atleast_2d(np.asarray(self.target, dtype=float))
        if src.shape[1] != tgt.shape[1]:
            raise DimensionError(f"source dim {src.shape[1]} != target dim {tgt.shape[1]}")
        if not (np.isfinite(src).all() and np.isfinite(tgt).all()):
            raise ParamError("OT problem contains non-finite points")
        object.__setattr__(self, "epsilon", _real(self.epsilon, "epsilon"))
        if not self.epsilon > 0:
            raise ParamError("epsilon must be > 0")
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


def _gibbs(logits: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gibbs kernel: exponentiate logits in place, max-shifted along axis.

    Overwrites `logits` with exp(logits - top), top being the max along axis,
    so every entry lies in (0, 1] whatever the scale of the logits. Returns
    (log_mean, total) along axis: log_mean = log(mean(exp(logits))) of the
    original logits, and total the sum of the overwritten entries, so that
    logits / total are the softmax weights.
    """
    top = logits.max(axis=axis, keepdims=True)
    np.subtract(logits, top, out=logits)
    np.exp(logits, out=logits)
    total = logits.sum(axis=axis)
    return np.log(total / logits.shape[axis]) + np.squeeze(top, axis=axis), total


def _logits(source: np.ndarray, target: np.ndarray, eps: float, phi, psi,
            out: np.ndarray) -> np.ndarray:
    """Write phi_i + psi_j - |s_i - t_j|^2/eps into out (n x m); the one logits builder.

    Expands |s_i - t_j|^2 = |s_i|^2 + |t_j|^2 - 2 s_i.t_j and folds the
    potentials (arrays, or the scalar 0.0) into the two norm vectors: one
    product and three passes over out, and no other n x m array.
    """
    np.matmul(source, target.T, out=out)
    out *= 2.0 / eps
    out += (phi - (source * source).sum(axis=1) / eps)[:, None]
    out += (psi - (target * target).sum(axis=1) / eps)[None, :]
    return out


def _kernel(prob: OtProblem, phi: np.ndarray, psi: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """The absorbed kernel K_ij = exp(phi_i + psi_j - c_ij/eps), written into out.

    Entries below the smallest normal float are stored as 0: subnormals slow
    both exp and the matrix-vector products several-fold, and with scalings
    bounded by exp(_ABSORB_LOG) they weigh nothing in any row or column sum.
    """
    logits = _logits(prob.source, prob.target, prob.epsilon, phi, psi, out)
    logits[logits < _LOG_TINY] = -np.inf
    return np.exp(logits, out=out)


def sinkhorn_solve(prob: OtProblem, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER,
                   track_objective: bool = False) -> DualPotentials:
    """Alternate f and g updates until the coupling marginals fit.

    The first f and g half-steps are log-domain soft-mins through `_gibbs`.
    The rest run in the scaling domain over one n x m kernel
    K = exp(phi_i + psi_j - c_ij/eps) built from those exact potentials
    (phi = f/eps, psi = g/eps): each iteration is two matrix-vector products,
    a = m / (K b) then b = n / (K^T a), with no exp over the kernel, and
    (phi + log a, psi + log b) are the current potentials. When a scaling
    leaves exp(+-_ABSORB_LOG), the scalings are absorbed into (phi, psi) and
    the kernel is rebuilt, so its entries never overflow and no row of it
    underflows away, down to small epsilon.

    After each g step the column marginals are exact, and the worst row-sum
    deviation of the implied coupling, max |a_i (K b)_i / m - 1| / n, falls
    out of the next f step, so convergence is checked every iteration at no
    extra cost. Stops when that deviation drops to tol or the iteration budget
    runs out, in which case a SinkhornNotConverged warning is emitted and the
    best iterate is returned. Potentials are gauged so mean(g) = 0.
    Deterministic for identical inputs.
    """
    if tol <= 0:
        raise ParamError("tol must be > 0")
    if max_iter < 1:
        raise ParamError("max_iter must be >= 1")
    n, m = prob.n, prob.m
    eps = prob.epsilon
    kernel = np.empty((n, m))  # the one n x m array: logits first, then K
    phi = -_gibbs(_logits(prob.source, prob.target, eps, 0.0, 0.0, kernel), axis=1)[0]
    psi = -_gibbs(_logits(prob.source, prob.target, eps, phi, 0.0, kernel), axis=0)[0]
    _kernel(prob, phi, psi, kernel)
    a, b = np.ones(n), np.ones(m)
    trace = [] if track_objective else None

    for it in range(1, max_iter + 1):
        if track_objective:
            # every column of P sums to 1/m after a g step, so the kernel
            # term of the dual is exactly 1
            trace.append(eps * (float((phi + np.log(a)).mean())
                                + float((psi + np.log(b)).mean()) - 1.0))
        kb = kernel @ b
        # row i of P for the current iterate sums to a_i (K b)_i / (n m);
        # columns were exact after its g step. After the last allowed update
        # this certifies the final iterate.
        err = float(np.abs(a * kb / m - 1.0).max()) / n
        if err <= tol or it == max_iter:
            break
        a = m / kb
        b = n / (kernel.T @ a)
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


def coupling_log_matrix(pot: DualPotentials) -> np.ndarray:
    """log P_ij of the implied coupling P = (1/(nm)) exp((f+g-c)/eps)."""
    prob, eps = pot.problem, pot.epsilon
    return _logits(prob.source, prob.target, eps,
                   pot.f / eps - np.log(prob.n * prob.m), pot.g / eps,
                   np.empty((prob.n, prob.m)))


def coupling_marginal_error(pot: DualPotentials) -> float:
    """Worst absolute deviation of coupling row sums from 1/n and column sums from 1/m."""
    # one n x m logits array alive at a time: each reduction builds its own
    n, m = pot.problem.n, pot.problem.m
    rows = np.exp(_gibbs(coupling_log_matrix(pot), axis=1)[0]) * m
    cols = np.exp(_gibbs(coupling_log_matrix(pot), axis=0)[0]) * n
    return float(max(np.abs(rows - 1.0 / n).max(), np.abs(cols - 1.0 / m).max()))
