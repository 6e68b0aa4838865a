"""Discrete spherical-uniform target measures.

The target of the transport map is a grid of n_S unit directions scaled by n_R
equally spaced radii {1/n_R, ..., 1}, plus n_o copies of the origin, every point
carrying mass 1/m. Directions come either from a Halton sequence pushed through
the normal quantile function and normalized, or from normalized iid Gaussians.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import ParamError, _integer, _level

DIRECTION_MODES = ("low_discrepancy", "iid")

_STANDARD_NORMAL = statistics.NormalDist()

# first 64 primes: Halton bases for up to 64 dimensions
_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
    59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
    137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311,
]


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    out = np.zeros(indices.shape, dtype=float)
    factor = 1.0 / base
    i = indices.copy()
    while i.any():
        out += (i % base) * factor
        i //= base
        factor /= base
    return out


def halton_sequence(count: int, dim: int, skip: int = 64) -> np.ndarray:
    """Halton points in (0,1)^dim for sequence indices skip+1 .. skip+count.

    Indexing is 1-based (index 1 in base 2 is 0.5), so any skip >= 0 keeps all
    coordinates strictly inside the open unit cube.
    """
    count = _integer(count, "count", 1)
    dim = _integer(dim, "dim")
    if dim < 1 or dim > len(_PRIMES):
        raise ParamError(f"dim must be in [1, {len(_PRIMES)}]")
    skip = _integer(skip, "skip", 0)
    idx = np.arange(skip + 1, skip + count + 1, dtype=np.int64)
    return np.column_stack([_radical_inverse(idx, b) for b in _PRIMES[:dim]])


def inverse_normal_cdf(p):
    """Standard normal quantile of each value; ParamError outside (0, 1).

    Each value goes through the standard library's `statistics.NormalDist().inv_cdf`,
    Wichura's algorithm AS241 (Appl. Statist. 37, 1988). A scalar gives a float,
    an array an array of its shape.
    """
    arr = np.asarray(p, dtype=float)
    if ((arr <= 0.0) | (arr >= 1.0)).any() or not np.isfinite(arr).all():
        raise ParamError("inverse_normal_cdf requires 0 < p < 1")
    x = np.array([_STANDARD_NORMAL.inv_cdf(v) for v in arr.ravel().tolist()]).reshape(arr.shape)
    return float(x) if arr.ndim == 0 else x


def sphere_directions(n_s: int, dim: int, mode: str = "low_discrepancy",
                      seed: int = 0) -> np.ndarray:
    """n_s unit vectors: Gaussian-mapped Halton points or normalized iid normals.

    dim=1 always alternates +1/-1 so both half-lines are covered.
    """
    n_s, dim = _integer(n_s, "n_s"), _integer(dim, "dim")
    if n_s < 1 or dim < 1:
        raise ParamError("need n_s >= 1 and dim >= 1")
    if mode not in DIRECTION_MODES:
        raise ParamError(f"unknown direction mode {mode!r}; choose from {DIRECTION_MODES}")
    if dim == 1:
        signs = np.where(np.arange(n_s) % 2 == 0, 1.0, -1.0)
        return signs[:, None]
    if mode == "low_discrepancy":
        # no norm falls below 1e-12: that needs the base-2 coordinate within
        # 4e-13 of 0.5, and the base-2 radical inverse of an index i > 1 is
        # at least 2^-bitlength(i) away from 0.5, so not before index 2^41
        raw = inverse_normal_cdf(halton_sequence(n_s, dim, skip=64))
        norms = np.linalg.norm(raw, axis=1)
    else:  # iid
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n_s, dim))
        norms = np.linalg.norm(raw, axis=1)
        while (norms < 1e-12).any():  # pragma: no cover
            bad = norms < 1e-12
            raw[bad] = rng.standard_normal((int(bad.sum()), dim))
            norms = np.linalg.norm(raw, axis=1)
    return raw / norms[:, None]


@dataclass(frozen=True, eq=False)
class SphericalGrid:
    """Discrete spherical-uniform measure: m = n_R * n_S + n_o equal-mass points.

    The radius ladder, the unit directions and the origin count fix the
    measure; `points` (m x dim: origin rows first, then shells by radius) is
    built from them once, at construction.
    """

    radii: np.ndarray       # (n_r,), {1/n_r, ..., 1}
    directions: np.ndarray  # (n_s, dim) unit vectors
    n_o: int

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        dirs = np.asarray(self.directions, dtype=float)
        if radii.ndim != 1 or radii.size == 0:
            raise ParamError(f"radii must be a non-empty vector, got shape {radii.shape}")
        if dirs.ndim != 2 or dirs.size == 0:
            raise ParamError(f"directions must be a non-empty matrix, got shape {dirs.shape}")
        object.__setattr__(self, "n_o", _integer(self.n_o, "n_o", 0))
        shells = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dirs.shape[1])
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "points",
                           np.vstack([np.zeros((self.n_o, dirs.shape[1])), shells]))

    def __repr__(self):
        return (f"SphericalGrid(dim={self.dim}, m={self.m}, n_R={self.n_r}, "
                f"n_S={self.n_s}, n_o={self.n_o})")

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    @property
    def n_r(self) -> int:
        return self.radii.size

    @property
    def n_s(self) -> int:
        return self.directions.shape[0]

    @property
    def m(self) -> int:
        return self.n_r * self.n_s + self.n_o


def build_spherical_grid(m: int, dim: int, factorization=None,
                         mode: str = "low_discrepancy", seed: int = 0) -> SphericalGrid:
    """Build the m-point grid; default factorization n_R = floor(sqrt(m)).

    The default puts n_R = floor(sqrt(m)), n_S = floor((m-1)/n_R) and the
    remaining n_o = m - n_R*n_S >= 1 points at the origin. An explicit
    (n_R, n_S, n_o) triple must satisfy n_R*n_S + n_o = m.
    """
    m, dim = _integer(m, "m"), _integer(dim, "dim")
    if m < 2:
        raise ParamError("need m >= 2 grid points")
    if dim < 1:
        raise ParamError("need dim >= 1")
    if factorization is None:
        n_r = math.isqrt(m)
        n_s = (m - 1) // n_r
        n_o = m - n_r * n_s
    else:
        if np.ndim(factorization) != 1 or len(factorization) != 3:
            raise ParamError(f"factorization must be (n_R, n_S, n_o), got {factorization}")
        n_r, n_s, n_o = (_integer(v, "factorization entry") for v in factorization)
        if n_r < 1 or n_s < 1 or n_o < 0 or n_r * n_s + n_o != m:
            raise ParamError(f"factorization {factorization} inconsistent with m={m}")
    return SphericalGrid(np.arange(1, n_r + 1, dtype=float) / n_r,
                         sphere_directions(n_s, dim, mode=mode, seed=seed), n_o)


def grid_radius_index(n_total: int, n_r: int, n_s: int, n_o: int, alpha: float):
    """Smallest shell index j (and radius j/n_R) with cumulative mass >= 1 - alpha.

    Mass up to shell j is (n_o + j*n_S)/n_total, so j = ceil((n_total*(1-alpha)
    - n_o)/n_S) clamped to [0, n_R]. With alpha = p/q exactly (every float is
    a ratio of integers), that is ceil((n_total*(q - p) - n_o*q) / (q*n_S)),
    computed in integers so the ceiling never flips on float knife edges.
    """
    n_total, n_r, n_s, n_o = (_integer(n_total, "n_total"), _integer(n_r, "n_r"),
                              _integer(n_s, "n_s"), _integer(n_o, "n_o"))
    if n_r < 1 or n_s < 1 or n_o < 0 or n_r * n_s + n_o != n_total:
        raise ParamError(f"counts ({n_r}, {n_s}, {n_o}) inconsistent with n_total={n_total}")
    p, q = _level(alpha, "alpha").as_integer_ratio()
    j = min(max(-((n_o * q - n_total * (q - p)) // (q * n_s)), 0), n_r)
    return j, j / n_r
