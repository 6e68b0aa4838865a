"""Out-of-sample entropic transport maps built from Sinkhorn dual potentials.

The forward map sends a residual vector to a Gibbs-weighted average of grid
points inside the unit ball; its norm is the transport rank in [0, 1]. The
inverse map pulls grid points back to weighted averages of the fitted
residuals, which is how 2-D prediction regions are traced. Both directions
run one chunked path over the solver's cost factors and Gibbs kernel: each
call builds the two factors once and allocates one buffer of at most
_CHUNK_ENTRIES query-by-point logits, sized to stay in a core's cache. Each
block of query rows is written into it by one matrix product, exponentiated
and reduced into the averaged values before the next block overwrites it, so
the passes over a block stay in cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _scores_and_origin
from .errors import DimensionError, _array, _tag
from .sinkhorn import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DualPotentials,
    OtProblem,
    Standardizer,
    _factors,
    _gibbs,
    sinkhorn_solve,
)
from .sphere import SphericalGrid

_CHUNK_ENTRIES = 1 << 17  # rows*points per logits block: 1 MB, inside a core's L2


@dataclass(frozen=True, eq=False)
class EntropicMap:
    """Forward/inverse entropic Brenier map between residuals and a ball grid."""

    potentials: DualPotentials
    grid: SphericalGrid
    standardizer: Standardizer
    fit_tag: str = ""  # tag of the residual rows the map was fitted on

    def __post_init__(self):
        _tag(self.fit_tag, "map fit_tag")

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

    def _gibbs_average(self, queries, points, potential, values) -> np.ndarray:
        """Per query row, softmax_j((potential_j - ||q - points_j||^2)/eps) @ values."""
        q, m = queries.shape[0], points.shape[0]
        left, right = _factors(queries, points, self.epsilon, 0.0,
                               potential / self.epsilon)
        out = np.empty((q, values.shape[1]))
        step = max(1, min(q, _CHUNK_ENTRIES // m))
        buf = np.empty((step, m))
        for lo in range(0, q, step):
            rows = left[lo:lo + step]
            logits = np.matmul(rows, right.T, out=buf[:rows.shape[0]])
            total = _gibbs(logits, axis=1)[1][:, None]
            out[lo:lo + rows.shape[0]] = (logits @ values) / total
        return out

    def forward_std(self, z_std) -> np.ndarray:
        """Forward map of standardized queries (no input transform), one row each."""
        return self._gibbs_average(np.atleast_2d(z_std), self.grid.points,
                                   self.potentials.g, self.grid.points)

    def forward(self, z) -> np.ndarray:
        """Map residual rows into the unit ball as convex combinations of grid points."""
        return self.forward_std(self.standardizer.transform(_array(z, "queries", (None, self.dim))))

    def rank(self, z) -> np.ndarray:
        """Transport rank ||forward(z)|| in [0, 1] of each residual row."""
        return np.linalg.norm(self.forward(z), axis=1)

    def inverse(self, u) -> np.ndarray:
        """Pull ball rows back to convex combinations of fitted residuals."""
        u, src = _array(u, "queries", (None, self.dim)), self.source_std
        return self.standardizer.inverse_transform(
            self._gibbs_average(u, src, self.potentials.f, src))


def fit_entropic_map(scores, grid: SphericalGrid, *, epsilon: float = 0.1,
                     tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> EntropicMap:
    """Standardize residuals, solve the regularized OT onto `grid`, wrap the maps.

    `scores` is a ScoreMatrix or plain (n, d) array, standardized per dimension
    by its own mean and deviation (queries reuse the transform). `grid` is a
    built target measure of the same dimension (see `build_spherical_grid`).
    """
    z, fit_tag = _scores_and_origin(scores, 1, "a transport map")
    if grid.dim != z.shape[1]:
        raise DimensionError(f"grid dim {grid.dim} != score dim {z.shape[1]}")
    std = Standardizer.fit(z)
    pot = sinkhorn_solve(OtProblem(std.transform(z), grid.points, epsilon), tol=tol,
                         max_iter=max_iter)
    return EntropicMap(pot, grid, std, fit_tag)
