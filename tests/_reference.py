"""Dense numpy references the tests compare otcp against.

Each is written straight from its formula with direct differences |a - b|^2,
so none shares code, or the expanded form of the squared distance, with the
library's logits builder.
"""

import numpy as np


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
