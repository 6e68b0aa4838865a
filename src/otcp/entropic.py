"""Out-of-sample entropic transport maps built from Sinkhorn dual potentials.

The forward map sends a residual vector to a Gibbs-weighted average of grid
points inside the unit ball; its norm is the transport rank in [0, 1]. The
inverse map pulls grid points back to weighted averages of the fitted
residuals, which is how 2-D prediction regions are traced. Both directions
run one chunked path over the solver's logits builder and Gibbs kernel: each
call allocates one buffer of at most _CHUNK_ENTRIES query-by-point logits,
and each block of query rows is built into it and reduced into the averaged
values before the next block overwrites it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ScoreMatrix
from .errors import DimensionError, ParamError
from .sinkhorn import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DualPotentials,
    OtProblem,
    Standardizer,
    _gibbs,
    _logits,
    sinkhorn_solve,
)
from .sphere import SphericalGrid, build_spherical_grid

_CHUNK_ENTRIES = 16_000_000  # cap on rows*points per distance block


@dataclass(frozen=True, eq=False)
class EntropicMap:
    """Forward/inverse entropic Brenier map between residuals and a ball grid."""

    potentials: DualPotentials
    grid: SphericalGrid
    standardizer: Standardizer
    fit_tag: str = ""  # tag of the residual rows the map was fitted on

    def __repr__(self):
        return (f"EntropicMap(dim={self.dim}, n={self.source_std.shape[0]}, "
                f"m={self.grid.m}, eps={self.epsilon:g}, "
                f"converged={self.potentials.converged})")

    @property
    def epsilon(self) -> float:
        return self.potentials.epsilon

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def source_std(self) -> np.ndarray:
        """Fitted residuals in standardized coordinates (the solve's source)."""
        return self.potentials.problem.source

    def _queries(self, z) -> tuple[np.ndarray, bool]:
        z = np.asarray(z, dtype=float)
        single = z.ndim == 1
        z = np.atleast_2d(z)
        if z.shape[1] != self.dim:
            raise DimensionError(f"expected dim {self.dim}, got {z.shape[1]}")
        if not np.isfinite(z).all():
            raise ParamError("query contains non-finite values")
        return z, single

    def _gibbs_average(self, queries, points, potential, values) -> np.ndarray:
        """Per query row, softmax_j((potential_j - ||q - points_j||^2)/eps) @ values."""
        q, m = queries.shape[0], points.shape[0]
        out = np.empty((q, values.shape[1]))
        step = max(1, min(q, _CHUNK_ENTRIES // m))
        psi = potential / self.epsilon
        buf = np.empty((step, m))
        for lo in range(0, q, step):
            block = queries[lo:lo + step]
            logits = _logits(block, points, self.epsilon, 0.0, psi,
                             buf[:block.shape[0]])
            total = _gibbs(logits, axis=1)[1][:, None]
            out[lo:lo + block.shape[0]] = (logits @ values) / total
        return out

    def forward_std(self, z_std) -> np.ndarray:
        """Forward map of standardized queries (no input transform), one row each."""
        return self._gibbs_average(np.atleast_2d(z_std), self.grid.points,
                                   self.potentials.g, self.grid.points)

    def forward(self, z) -> np.ndarray:
        """Map residual(s) into the unit ball as a convex combination of grid points."""
        z, single = self._queries(z)
        img = self.forward_std(self.standardizer.transform(z))
        return img[0] if single else img

    def rank(self, z):
        """Transport rank ||forward(z)|| in [0, 1]."""
        return np.linalg.norm(self.forward(z), axis=-1)

    def inverse(self, u) -> np.ndarray:
        """Pull ball point(s) back to a convex combination of fitted residuals."""
        u, single = self._queries(u)
        src = self.source_std
        img = self.standardizer.inverse_transform(
            self._gibbs_average(u, src, self.potentials.f, src))
        return img[0] if single else img

    def forward_potential(self, z_std) -> float:
        """Potential whose gradient displacement is the map: forward = z - grad.

        Evaluated at standardized queries. Uses the half-squared-cost scaling
        (half the raw soft-min of ||z-u_j||^2 - g_j), which leaves the Gibbs
        weights untouched but makes the gradient identity hold with no factor
        of two.
        """
        z_std = np.asarray(z_std, dtype=float)
        if z_std.shape != (self.dim,):
            raise DimensionError(f"expected a {self.dim}-vector")
        logits = _logits(z_std[None, :], self.grid.points, self.epsilon, 0.0,
                         self.potentials.g / self.epsilon, np.empty((1, self.grid.m)))
        return -0.5 * self.epsilon * float(_gibbs(logits, axis=1)[0][0])


def fit_entropic_map(scores, grid: SphericalGrid | None = None, *, m: int = 4096,
                     epsilon: float = 0.1, mode: str = "low_discrepancy",
                     seed: int = 0, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                     standardize: bool = True) -> EntropicMap:
    """Standardize residuals, solve the regularized OT onto the grid, wrap the maps.

    `scores` is a ScoreMatrix or plain (n, d) array. When `grid` is omitted one
    is built with m points in the matching dimension.
    """
    if isinstance(scores, ScoreMatrix):
        z, fit_tag = scores.scores, scores.origin
    else:
        z = np.atleast_2d(np.asarray(scores, dtype=float))
        fit_tag = ""
    if grid is None:
        grid = build_spherical_grid(m, z.shape[1], mode=mode, seed=seed)
    if grid.dim != z.shape[1]:
        raise DimensionError(f"grid dim {grid.dim} != score dim {z.shape[1]}")
    std = Standardizer.fit(z) if standardize else Standardizer.identity(z.shape[1])
    zs = std.transform(z)
    pot = sinkhorn_solve(OtProblem(zs, grid.points, epsilon), tol=tol,
                         max_iter=max_iter)
    return EntropicMap(pot, grid, std, fit_tag)
