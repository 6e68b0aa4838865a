"""Dense numpy references and diagnostics the tests compare otcp against.

Each is written straight from its formula with direct differences |a - b|^2,
so none shares code, or the expanded form of the squared distance, with the
library's logits builder. The coupling of a solve, its marginal error and the
forward map's potential live here, not in the package: the method needs none
of them, only its tests do. So does a saved document as plain JSON values,
which the artifact tests compare saved bytes against.
"""

import numpy as np

from otcp import serialize


def pairwise_sq_dists(A, B) -> np.ndarray:
    """All squared distances |a_i - b_j|^2 between rows of A (n x d) and B (m x d)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    return ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)


def lse_eps(values, eps: float, axis=None):
    """Soft minimum -eps*log(mean(exp(-values/eps))), along axis or over all values.

    Shifted by the minimum, so every exponent is <= 0 and nothing overflows.
    """
    v = np.asarray(values, dtype=float)
    low = v.min(axis=axis, keepdims=True)
    out = (np.squeeze(low, axis=axis)
           - eps * np.log(np.exp(-(v - low) / eps).mean(axis=axis)))
    return float(out) if out.ndim == 0 else out


def dual_objective(pot) -> float:
    """Dual value mean(f) + mean(g) - eps*mean_ij exp((f_i + g_j - c_ij)/eps)."""
    prob, eps = pot.problem, pot.epsilon
    c = pairwise_sq_dists(prob.source, prob.target)
    kernel = np.exp((pot.f[:, None] + pot.g[None, :] - c) / eps).mean()
    return float(pot.f.mean() + pot.g.mean() - eps * kernel)


def coupling_log_matrix(pot) -> np.ndarray:
    """log P_ij of the coupling P = exp((f_i + g_j - c_ij)/eps) / (n m) implied by pot."""
    prob, eps = pot.problem, pot.epsilon
    c = pairwise_sq_dists(prob.source, prob.target)
    return (pot.f[:, None] + pot.g[None, :] - c) / eps - np.log(prob.n * prob.m)


def coupling_marginal_error(pot) -> float:
    """Worst absolute deviation of the coupling's row sums from 1/n and column sums from 1/m.

    Row i sums to exp(-softmin_j(c_ij - f_i - g_j)/eps) / n, column j likewise / m.
    """
    prob, eps = pot.problem, pot.epsilon
    n, m = prob.n, prob.m
    gap = pairwise_sq_dists(prob.source, prob.target) - pot.f[:, None] - pot.g[None, :]
    rows = np.exp(-lse_eps(gap, eps, axis=1) / eps) / n
    cols = np.exp(-lse_eps(gap, eps, axis=0) / eps) / m
    return float(max(np.abs(rows - 1.0 / n).max(), np.abs(cols - 1.0 / m).max()))


def forward_potential(emap, z_std) -> float:
    """Potential whose gradient displacement is the forward map at a standardized query:
    forward_std(z) = z - grad, for half the soft-min of |z - u_j|^2 - g_j over grid points u_j."""
    d2 = pairwise_sq_dists(z_std, emap.grid.points)[0]
    return 0.5 * lse_eps(d2 - emap.potentials.g, emap.epsilon)


def plain(value):
    """`value` with every array leaf as nested lists: the document as plain JSON values."""
    if isinstance(value, dict):
        return {key: plain(v) for key, v in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def map_to_dict(emap) -> dict:
    return plain(serialize._map_to_dict(emap))


def predictor_to_dict(pred) -> dict:
    """The predictor's document as plain JSON values; a saved file is
    json.dumps(predictor_to_dict(pred), allow_nan=False) plus a newline."""
    return plain(serialize._predictor_to_dict(pred))
