import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import logsumexp

from otcp import (
    DimensionError,
    DualPotentials,
    EntropicMap,
    OtProblem,
    ParamError,
    SphericalGrid,
    Standardizer,
    build_spherical_grid,
    fit_entropic_map,
    sinkhorn_solve,
)
from otcp import entropic

from _reference import forward_potential, pairwise_sq_dists


@pytest.fixture(scope="module")
def normal_map_2d():
    """Well-spread 2-D standard normal source onto a 4096-point grid, eps=0.1."""
    rng = np.random.default_rng(100)
    z = rng.standard_normal((2000, 2))
    grid = build_spherical_grid(4096, 2)
    return fit_entropic_map(z, grid, epsilon=0.1), z


@pytest.fixture(scope="module")
def small_map_2d():
    rng = np.random.default_rng(101)
    z = rng.standard_normal((400, 2))
    grid = build_spherical_grid(512, 2)
    return fit_entropic_map(z, grid, epsilon=0.1), z


# ---------------------------------------------------------------------------
# Gibbs weights: forward is the dense softmax weights @ grid points
# ---------------------------------------------------------------------------

def _dense_softmax(potential, queries, points, eps):
    # reference: plain exp of the logits, then normalise; no shift, no chunks
    d2 = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    w = np.exp((potential[None, :] - d2) / eps)
    return w / w.sum(axis=1, keepdims=True)


def test_weights_single_grid_point():
    grid = SphericalGrid(np.array([1.0]), np.array([[1.0, 0.0]]), 0)
    emap = fit_entropic_map(np.random.default_rng(0).standard_normal((5, 2)),
                            grid, epsilon=0.5)
    out = emap.forward([[0.3, 0.3]])[0]
    assert out.shape == (2,)
    np.testing.assert_allclose(out, [1.0, 0.0], rtol=0, atol=1e-15)


def test_weights_uniform_limit_large_epsilon():
    rng = np.random.default_rng(1)
    grid = build_spherical_grid(64, 2)
    emap = fit_entropic_map(rng.standard_normal((40, 2)), grid, epsilon=1e9)
    z = np.array([[2.0, -1.0]])
    w = _dense_softmax(emap.potentials.g, emap.standardizer.transform(z), grid.points,
                       1e9)
    assert np.abs(w - 1.0 / 64).max() <= 1e-9
    np.testing.assert_allclose(emap.forward(z), w @ grid.points, rtol=0, atol=1e-12)


def test_weights_match_direct_formula():
    # brute-force evaluation of the Gibbs expression from converged potentials
    rng = np.random.default_rng(2)
    z = rng.standard_normal((4, 2))
    grid = build_spherical_grid(4, 2, factorization=(1, 3, 1))
    emap = fit_entropic_map(z, grid, epsilon=0.5)
    zq = np.array([0.4, -0.7])
    zs = emap.standardizer.transform(zq)
    raw = np.array([
        np.exp(-(((zs - u) ** 2).sum() - gj) / 0.5)
        for u, gj in zip(grid.points, emap.potentials.g)
    ])
    assert np.abs(emap.forward(zq[None])[0] - raw / raw.sum() @ grid.points).max() <= 1e-10


def test_weights_normalized_even_for_extreme_queries(small_map_2d):
    emap, _ = small_map_2d
    rng = np.random.default_rng(3)
    queries = np.vstack([rng.standard_normal((50, 2)),
                         rng.standard_normal((50, 2)) * 1e6])
    # the dense weights shifted by each row's top logit, so that far queries
    # do not underflow to 0/0
    d2 = ((emap.standardizer.transform(queries)[:, None, :]
           - emap.grid.points[None, :, :]) ** 2).sum(axis=2)
    logits = (emap.potentials.g[None, :] - d2) / emap.epsilon
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(emap.forward(queries), w @ emap.grid.points,
                               rtol=0, atol=1e-9)
    wi = emap.inverse(queries[:3])  # inverse weights share the code path
    assert np.isfinite(wi).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.integers(2, 40), st.integers(1, 3), st.integers(1, 30),
       st.integers(1, 120), st.floats(0.2, 5.0), st.integers(0, 2**32 - 1))
def test_kernel_matches_dense_reference(n, m, d, q, chunk, eps, seed):
    rng = np.random.default_rng(seed)
    source = rng.uniform(-1, 1, (n, d))
    grid = build_spherical_grid(m, d)
    pot = DualPotentials(rng.uniform(-1, 1, n), rng.uniform(-1, 1, m),
                         OtProblem(source, grid.points, eps), 0, 0.0, True)
    std = Standardizer(rng.uniform(-0.5, 0.5, d), rng.uniform(0.5, 2.0, d))
    emap = EntropicMap(pot, grid, std)
    z = rng.uniform(-1, 1, (q, d))
    u = rng.uniform(-1, 1, (q, d))
    w = _dense_softmax(pot.g, std.transform(z), grid.points, eps)
    w_inv = _dense_softmax(pot.f, u, source, eps)
    # chunk caps of a few rows push every query count through several blocks
    with mock.patch.object(entropic, "_CHUNK_ENTRIES", chunk):
        np.testing.assert_allclose(emap.forward(z), w @ grid.points,
                                   rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(emap.inverse(u),
                                   std.inverse_transform(w_inv @ source),
                                   rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("eps", [0.001, 0.01])
def test_small_eps_weights_skip_the_subnormal_band(eps):
    rng = np.random.default_rng(13)
    n, m, q = 48, 64, 6
    source = rng.uniform(-1, 1, (n, 2))
    grid = build_spherical_grid(m, 2)
    # potentials that put half of each side's logits at 0..-60 and half at
    # -700..-760 past the top for a query at the origin; queries near it
    # shift them by a few units, so many stay in the subnormal band
    band = np.concatenate([np.linspace(0, -60, 32), np.linspace(-700, -760, 32)])
    g = (grid.points ** 2).sum(1) + eps * rng.permutation(band)
    f = (source ** 2).sum(1) + eps * rng.permutation(np.resize(band, n))
    pot = DualPotentials(f, g, OtProblem(source, grid.points, eps), 0, 0.0, True)
    emap = EntropicMap(pot, grid, Standardizer(np.zeros(2), np.ones(2)))
    z = rng.uniform(-1, 1, (q, 2)) * eps

    def dense(potential, queries, points):
        # log-sum-exp weights from direct differences, subnormals kept
        logits = (potential[None] - pairwise_sq_dists(queries, points)) / eps
        shifted = logits - logits.max(axis=1, keepdims=True)
        assert ((shifted > -745) & (shifted < -708)).any(axis=1).all()
        return np.exp(logits - logsumexp(logits, axis=1, keepdims=True)) @ points

    weights, gibbs = [], entropic._gibbs

    def spy(logits, axis):
        out = gibbs(logits, axis)
        weights.append(logits.copy())
        return out

    with mock.patch.object(entropic, "_gibbs", spy):
        forward, inverse = emap.forward(z), emap.inverse(z)
    np.testing.assert_allclose(forward, dense(g, z, grid.points), rtol=1e-12, atol=0)
    np.testing.assert_allclose(inverse, dense(f, z, source), rtol=1e-12, atol=0)
    w = np.concatenate([b.ravel() for b in weights])
    assert not ((w > 0) & (w < np.finfo(float).tiny)).any()
    assert (w == 0).any()


def test_rank_memory_stays_within_one_cache_sized_block():
    rng = np.random.default_rng(14)
    q, d = 20_000, 2
    emap = fit_entropic_map(rng.standard_normal((200, d)), build_spherical_grid(1024, d),
                            epsilon=0.1)
    z = rng.standard_normal((q, d))
    block_bytes = entropic._CHUNK_ENTRIES * 8
    assert block_bytes <= 2 << 20  # a block stays inside a core's L2
    tracemalloc.start()
    try:
        ranks = emap.rank(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranks.shape == (q,)
    # the logits block and its mask, plus a few (q, d + 2) arrays: standardized
    # queries, the left cost factor, the forward image and the norm's square;
    # one block of all 20,000 rows would be 164 MB
    assert peak < 2 * block_bytes + 6 * q * (d + 2) * 8


def test_weights_dimension_error(small_map_2d):
    emap, _ = small_map_2d
    with pytest.raises(DimensionError):
        emap.forward([[1.0, 2.0, 3.0]])


# ---------------------------------------------------------------------------
# Forward map and rank
# ---------------------------------------------------------------------------

def test_forward_uniform_limit_hits_barycenter():
    rng = np.random.default_rng(4)
    grid = build_spherical_grid(1024, 2)
    emap = fit_entropic_map(rng.standard_normal((100, 2)), grid, epsilon=1e9)
    out = emap.forward([[3.0, -2.0]])[0]
    assert np.abs(out - grid.points.mean(axis=0)).max() <= 1e-8
    assert np.linalg.norm(out) <= 0.05


def test_forward_stays_in_unit_ball(small_map_2d):
    emap, _ = small_map_2d
    rng = np.random.default_rng(5)
    scales = 10.0 ** rng.uniform(-2, 6, size=(10000, 1))
    queries = rng.standard_normal((10000, 2)) * scales
    norms = np.linalg.norm(emap.forward(queries), axis=1)
    assert norms.max() <= 1.0 + 1e-12


def test_rank_range_and_center(small_map_2d):
    emap, z = small_map_2d
    ranks = emap.rank(z)
    assert (ranks >= 0).all() and (ranks <= 1.0 + 1e-12).all()
    assert emap.rank(z.mean(axis=0)[None])[0] <= 0.1


def test_forward_1d_monotone():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((800, 1))
    grid = build_spherical_grid(120, 1, factorization=(60, 2, 0))
    emap = fit_entropic_map(z, grid, epsilon=0.05)
    out = emap.forward(np.linspace(-3, 3, 101)[:, None])[:, 0]
    assert (np.diff(out) >= -1e-12).all()


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((300, 2))
    grid = build_spherical_grid(512, 2)
    m1 = fit_entropic_map(z, grid, epsilon=0.1)
    m2 = fit_entropic_map(z[rng.permutation(300)], grid, epsilon=0.1)
    queries = rng.standard_normal((50, 2)) * 2.0
    assert np.abs(m1.forward(queries) - m2.forward(queries)).max() <= 1e-10


def test_gradient_identity_finite_differences():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((300, 2))
    grid = build_spherical_grid(512, 2)
    emap = EntropicMap(sinkhorn_solve(OtProblem(z, grid.points, 0.1)), grid,
                       Standardizer(np.zeros(2), np.ones(2)))
    for zq in rng.standard_normal((20, 2)):
        grad = np.zeros(2)
        for k in range(2):
            h = 1e-4 * (1.0 + abs(zq[k]))
            zp, zm = zq.copy(), zq.copy()
            zp[k] += h
            zm[k] -= h
            grad[k] = (forward_potential(emap, zp) - forward_potential(emap, zm)) / (2 * h)
        lhs = emap.forward_std(zq)[0]
        rhs = zq - grad
        assert np.linalg.norm(lhs - rhs) <= 1e-4 * max(np.linalg.norm(rhs), 1e-12)


def test_rank_pushforward_approximately_uniform(normal_map_2d):
    emap, _ = normal_map_2d
    fresh = np.random.default_rng(9).standard_normal((2000, 2))
    ks = stats.kstest(emap.rank(fresh), "uniform").statistic
    assert ks <= 0.1


# ---------------------------------------------------------------------------
# Inverse map
# ---------------------------------------------------------------------------

def test_inverse_single_source_point():
    grid = build_spherical_grid(16, 2)
    emap = fit_entropic_map(np.array([[3.0, -1.0]]), grid, epsilon=0.5)
    for u in ([0.0, 0.0], [0.9, 0.1], [-0.5, 0.5]):
        assert np.allclose(emap.inverse([u])[0], [3.0, -1.0], atol=1e-12)


def test_inverse_uniform_limit_source_barycenter():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((50, 2)) + np.array([5.0, -2.0])
    grid = build_spherical_grid(64, 2)
    emap = fit_entropic_map(z, grid, epsilon=1e9)
    assert np.abs(emap.inverse([[0.3, 0.3]])[0] - z.mean(axis=0)).max() <= 1e-6


def test_inverse_forward_round_trip(normal_map_2d):
    emap, _ = normal_map_2d
    grid_pts = emap.grid.points
    err = np.linalg.norm(emap.forward(emap.inverse(grid_pts)) - grid_pts, axis=1)
    assert err.mean() <= 0.2


def test_standardization_round_trip():
    std = Standardizer.fit(np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 20.0]]))
    z = np.array([[2.0, 25.0]])
    assert np.allclose(std.inverse_transform(std.transform(z)), z, atol=1e-12)


def test_map_standardizes_queries():
    # shifting and scaling the residual cloud must not change ranks of
    # correspondingly transformed queries
    rng = np.random.default_rng(11)
    z = rng.standard_normal((500, 2))
    affine = z * np.array([10.0, 0.1]) + np.array([100.0, -5.0])
    grid = build_spherical_grid(256, 2)
    m1 = fit_entropic_map(z, grid, epsilon=0.2)
    m2 = fit_entropic_map(affine, grid, epsilon=0.2)
    q = rng.standard_normal((20, 2))
    qa = q * np.array([10.0, 0.1]) + np.array([100.0, -5.0])
    assert np.abs(m1.rank(q) - m2.rank(qa)).max() <= 1e-8


def test_unconverged_map_still_valid_interface():
    rng = np.random.default_rng(12)
    z = rng.standard_normal((100, 2))
    with pytest.warns(Warning):
        emap = fit_entropic_map(z, build_spherical_grid(128, 2), epsilon=0.001, max_iter=2)
    assert not emap.potentials.converged
    r = emap.rank(rng.standard_normal((10, 2)))
    assert (r >= 0).all() and (r <= 1.0 + 1e-12).all()


@pytest.mark.parametrize("call, error, message", [
    (lambda emap: emap.rank([[np.nan, 0.0]]), ParamError, "queries must be finite, got NaN or Inf"),
    (lambda emap: fit_entropic_map(emap.source_std, build_spherical_grid(16, 3)),
     DimensionError, "grid dim 3 != score dim 2"),
], ids=["non-finite-query", "grid-dim"])
def test_refused_map_inputs(small_map_2d, call, error, message):
    with pytest.raises(error) as info:
        call(small_map_2d[0])
    assert type(info.value) is error and message in str(info.value)
