import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from otcp import (
    DimensionError,
    DualPotentials,
    OtProblem,
    ParamError,
    SinkhornNotConverged,
    coupling_marginal_error,
    sinkhorn_solve,
)
from otcp import sinkhorn

from _reference import dual_objective, lse_eps, pairwise_sq_dists


def _coupling(pot):
    return np.exp(sinkhorn.coupling_log_matrix(pot))


# ---------------------------------------------------------------------------
# The soft-min reference
# ---------------------------------------------------------------------------

def test_lse_single_value_identity():
    assert lse_eps([3.7], 0.01) == pytest.approx(3.7, abs=1e-15)


def test_lse_pair_of_zeros():
    assert lse_eps([0.0, 0.0], 1.0) == pytest.approx(0.0, abs=1e-15)


def test_lse_huge_values_stable():
    # soft-min of {1e6, 1e6+1} stays finite and inside the value range
    out = lse_eps([1e6, 1e6 + 1.0], 0.01)
    assert np.isfinite(out)
    assert 1e6 <= out <= 1e6 + 1.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=30),
       st.floats(1e-3, 10.0))
def test_lse_softmin_bounds(values, eps):
    out = lse_eps(values, eps)
    lo = min(values)
    assert lo - 1e-9 <= out <= lo + eps * np.log(len(values)) + 1e-9


def test_lse_matrix_axis():
    m = np.array([[0.0, 1.0], [2.0, 3.0]])
    rows = lse_eps(m, 0.5, axis=1)
    assert rows.shape == (2,)
    assert rows[0] == pytest.approx(lse_eps([0.0, 1.0], 0.5), abs=1e-14)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def test_single_point_problem():
    pot = sinkhorn_solve(OtProblem([[0.0]], [[0.0]], 0.5), tol=1e-12)
    # gauge: mean(g) = 0, and f = cost - g = 0
    assert pot.f[0] == pytest.approx(0.0, abs=1e-14)
    assert pot.g[0] == pytest.approx(0.0, abs=1e-14)
    assert _coupling(pot)[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert pot.marginal_error <= 1e-12


def test_two_point_symmetric_marginals():
    # oracle: explicit-kernel scaling iterations run to machine convergence
    eps = 0.5
    src = np.array([[0.0], [1.0]])
    K = np.exp(-np.array([[0.0, 1.0], [1.0, 0.0]]) / eps)
    a = b = np.full(2, 0.5)
    u = np.ones(2)
    for _ in range(500):
        v = b / (K.T @ u)
        u = a / (K @ v)
    P_oracle = u[:, None] * K * v[None, :]
    pot = sinkhorn_solve(OtProblem(src, src, eps), tol=1e-10)
    P = _coupling(pot)
    assert np.abs(P - P_oracle).max() <= 1e-9
    assert np.abs(P.sum(axis=1) - 0.5).max() <= 1e-9
    assert np.abs(P.sum(axis=0) - 0.5).max() <= 1e-9


def test_huge_epsilon_independence_coupling():
    src = np.array([[0.0], [1.0]])
    pot = sinkhorn_solve(OtProblem(src, src, 1e6), tol=1e-9)
    P = _coupling(pot)
    assert np.abs(P - 0.25).max() <= 1e-6


def test_marginal_error_zero_potentials_positive():
    prob = OtProblem([[0.0], [2.0]], [[1.0], [3.0]], 0.7)
    pot = DualPotentials(np.zeros(2), np.zeros(2), prob, 0, np.inf, False)
    assert coupling_marginal_error(pot) > 0.0


def test_one_sided_update_makes_rows_exact():
    # after an f-update against any g, every row marginal is exactly 1/n
    rng = np.random.default_rng(2)
    src, tgt = rng.standard_normal((5, 2)), rng.standard_normal((7, 2))
    eps = 0.3
    g = rng.standard_normal(7)
    c = ((src[:, None, :] - tgt[None, :, :]) ** 2).sum(axis=2)
    f = np.array([lse_eps(c[i] - g, eps) for i in range(5)])
    P = np.exp((f[:, None] + g[None, :] - c) / eps) / (5 * 7)
    assert np.abs(P.sum(axis=1) - 1.0 / 5).max() <= 1e-12


def test_dual_objective_plugin_value():
    # n=m=1, same point, f=g=0: value is -eps under the mean-normalized convention
    prob = OtProblem([[0.0]], [[0.0]], 0.25)
    pot = DualPotentials(np.zeros(1), np.zeros(1), prob, 0, 0.0, True)
    assert dual_objective(pot) == pytest.approx(-0.25, abs=1e-15)


@pytest.mark.filterwarnings("ignore::otcp.errors.SinkhornNotConverged")
@pytest.mark.parametrize("eps", [0.1, 1.0])
def test_dual_objective_ascends(eps):
    # fixed 500-iteration budget; ascent is what matters, not convergence
    rng = np.random.default_rng(7)
    for _ in range(5):
        n, m = rng.integers(2, 17), rng.integers(2, 17)
        prob = OtProblem(rng.standard_normal((n, 3)), rng.standard_normal((m, 3)), eps)
        pot = sinkhorn_solve(prob, tol=1e-10, max_iter=500, track_objective=True)
        trace = np.asarray(pot.objective_trace)
        scale = np.abs(trace).max() + 1.0
        assert (np.diff(trace) >= -1e-9 * scale).all()


@pytest.mark.filterwarnings("ignore::otcp.errors.SinkhornNotConverged")
def test_objective_trace_equals_full_dual_value():
    # trace entry k is the dual value of the k-th iterate, which a solve capped
    # at k iterations returns; compare with the full n x m formula
    rng = np.random.default_rng(23)
    for eps in (0.1, 1.0):
        n, m = rng.integers(2, 12, size=2)
        prob = OtProblem(rng.standard_normal((n, 2)), rng.standard_normal((m, 2)), eps)
        trace = sinkhorn_solve(prob, tol=1e-12, max_iter=30,
                               track_objective=True).objective_trace
        for k, value in enumerate(trace, start=1):
            pot = sinkhorn_solve(prob, tol=1e-12, max_iter=k)
            c = ((prob.source[:, None, :] - prob.target[None, :, :]) ** 2).sum(axis=2)
            kernel = np.exp((pot.f[:, None] + pot.g[None, :] - c) / eps).mean()
            full = pot.f.mean() + pot.g.mean() - eps * kernel
            assert value == pytest.approx(full, rel=1e-12, abs=1e-12)


def test_degenerate_repeated_point_objective_constant():
    src = np.zeros((3, 2))
    pot = sinkhorn_solve(OtProblem(src, src, 0.5), max_iter=5, track_objective=True)
    trace = np.asarray(pot.objective_trace)
    assert np.abs(trace - trace[0]).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(-50.0, 50.0))
def test_translation_gauge_invariance(c):
    rng = np.random.default_rng(11)
    prob = OtProblem(rng.standard_normal((4, 2)), rng.standard_normal((6, 2)), 0.4)
    pot = sinkhorn_solve(prob, tol=1e-8)
    shifted = DualPotentials(pot.f + c, pot.g - c, prob, pot.iterations,
                             pot.marginal_error, pot.converged)
    assert np.abs(_coupling(pot) - _coupling(shifted)).max() <= 1e-12
    assert dual_objective(shifted) == pytest.approx(dual_objective(pot), rel=1e-10)


def test_solver_deterministic():
    rng = np.random.default_rng(13)
    src, tgt = rng.standard_normal((20, 2)), rng.standard_normal((30, 2))
    a = sinkhorn_solve(OtProblem(src, tgt, 0.2))
    b = sinkhorn_solve(OtProblem(src, tgt, 0.2))
    assert np.array_equal(a.f, b.f) and np.array_equal(a.g, b.g)
    assert a.iterations == b.iterations


def test_not_converged_warns_and_returns_best():
    rng = np.random.default_rng(17)
    prob = OtProblem(rng.standard_normal((30, 2)) * 5, rng.standard_normal((40, 2)) * 5,
                     0.01)
    with pytest.warns(SinkhornNotConverged):
        pot = sinkhorn_solve(prob, tol=1e-9, max_iter=3)
    assert not pot.converged
    assert pot.iterations == 3
    assert np.isfinite(pot.f).all() and np.isfinite(pot.g).all()
    assert pot.marginal_error > 1e-9
    # the reported error matches the independent diagnostic
    assert pot.marginal_error == pytest.approx(coupling_marginal_error(pot), rel=1e-6)


def test_convergence_reports_consistent_error():
    rng = np.random.default_rng(19)
    prob = OtProblem(rng.standard_normal((12, 2)), rng.standard_normal((9, 2)), 0.5)
    pot = sinkhorn_solve(prob, tol=1e-7)
    assert pot.converged
    assert coupling_marginal_error(pot) <= 1e-7


def test_coupling_marginal_error_holds_one_logits_array():
    rng = np.random.default_rng(23)
    n, m = 200, 1024
    pot = sinkhorn_solve(OtProblem(rng.standard_normal((n, 2)),
                                   rng.standard_normal((m, 2)), 0.1))
    tracemalloc.start()
    try:
        err = coupling_marginal_error(pot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * n * m * 8
    # the same value as reducing one logits array twice
    log_p = sinkhorn.coupling_log_matrix(pot)
    rows = np.exp(sinkhorn._gibbs(log_p.copy(), axis=1)[0]) * m
    cols = np.exp(sinkhorn._gibbs(log_p, axis=0)[0]) * n
    assert err == max(np.abs(rows - 1.0 / n).max(), np.abs(cols - 1.0 / m).max())


def _log_domain_solve(prob, tol=1e-6, max_iter=2000):
    """Reference: every half-step a soft-min over the whole cost in the log domain."""
    n, m, eps = prob.n, prob.m, prob.epsilon
    c = pairwise_sq_dists(prob.source, prob.target) / eps
    phi, psi = np.zeros(n), np.zeros(m)
    for it in range(max_iter + 1):
        phi_new = np.log(m) - logsumexp(psi[None, :] - c, axis=1)
        if it > 0:
            err = np.abs(np.expm1(phi - phi_new)).max() / n
            if err <= tol or it == max_iter:
                break
        phi = phi_new
        psi = np.log(n) - logsumexp(phi[:, None] - c, axis=0)
    shift = psi.mean()
    return it, (phi + shift) * eps, (psi - shift) * eps


@pytest.mark.filterwarnings("ignore::otcp.errors.SinkhornNotConverged")
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 64), st.integers(1, 64), st.integers(1, 3),
       st.sampled_from([1.0, 0.1, 0.01, 0.001]), st.integers(0, 2**32 - 1))
def test_scaling_domain_matches_log_domain(n, m, d, eps, seed):
    rng = np.random.default_rng(seed)
    prob = OtProblem(rng.standard_normal((n, d)), rng.standard_normal((m, d)), eps)
    pot = sinkhorn_solve(prob)
    it, f, g = _log_domain_solve(prob)
    assert pot.iterations == it
    np.testing.assert_allclose(pot.f, f, rtol=0, atol=1e-10)
    np.testing.assert_allclose(pot.g, g, rtol=0, atol=1e-10)


@pytest.mark.filterwarnings("ignore::otcp.errors.SinkhornNotConverged")
def test_far_apart_clouds_absorb_scalings(monkeypatch):
    calls = []
    build = sinkhorn._kernel

    def counting(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(sinkhorn, "_kernel", counting)
    rng = np.random.default_rng(29)
    prob = OtProblem(rng.standard_normal((40, 2)),
                     rng.standard_normal((50, 2)) + 30.0, 0.001)
    pot = sinkhorn_solve(prob, max_iter=300)
    assert len(calls) > 1  # built once at the start, rebuilt at each absorption
    assert np.isfinite(pot.f).all() and np.isfinite(pot.g).all()
    assert pot.marginal_error == pytest.approx(coupling_marginal_error(pot), rel=1e-6)


def test_far_source_point_whose_kernel_row_underflows():
    rng = np.random.default_rng(31)
    src = np.vstack([rng.standard_normal((20, 2)), [[60.0, 0.0]]])
    prob = OtProblem(src, rng.standard_normal((30, 2)), 1.0)
    assert (np.exp(-pairwise_sq_dists(src, prob.target)[-1]) == 0.0).all()
    pot = sinkhorn_solve(prob)
    assert pot.converged
    assert np.isfinite(pot.f).all() and np.isfinite(pot.g).all()
    assert pot.marginal_error == pytest.approx(coupling_marginal_error(pot), rel=1e-6)


def test_problem_validation():
    with pytest.raises(ParamError):
        OtProblem([[0.0]], [[1.0]], 0.0)
    with pytest.raises(DimensionError):
        OtProblem([[0.0, 1.0]], [[1.0]], 0.5)
    with pytest.raises(ParamError):
        OtProblem([[np.inf]], [[1.0]], 0.5)
