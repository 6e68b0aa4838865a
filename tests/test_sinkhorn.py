import math

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
    Standardizer,
    build_spherical_grid,
    sinkhorn_solve,
)
from otcp import sinkhorn

from _reference import (
    coupling_log_matrix,
    coupling_marginal_error,
    dual_objective,
    lse_eps,
    pairwise_sq_dists,
)


def _coupling(pot):
    return np.exp(coupling_log_matrix(pot))


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


def _log_domain_step(x, plain, relaxed):
    """One half-step from x, whose plain soft-min update is `plain`: (x, was plain).

    A relaxed step moves x to plain - over * (x - plain) for the largest
    over in _OMEGA - 1, halved up to _HALVINGS times, whose dual gain,
    sum(expm1(delta) - expm1(-over delta) - (1 + over) delta) with
    delta = x - plain, is nonnegative, and to plain if there is none.
    """
    if not relaxed:
        return plain, True
    delta = x - plain
    over = sinkhorn._OMEGA - 1.0
    for _ in range(sinkhorn._HALVINGS + 1):
        gain = np.expm1(delta) - np.expm1(-over * delta) - (1.0 + over) * delta
        if gain.sum() >= 0.0:
            return plain - over * delta, False
        over /= 2.0
    return plain, True


def _log_domain_solve(prob, tol=1e-6, max_iter=2000, relaxed=True):
    """Reference: every half-step a soft-min over the whole cost in the log domain.

    With `relaxed`, iterations after the solver's _WARMUP plain ones are
    over-relaxed through `_log_domain_step`, and the columns are checked
    once the rows pass tol (or at max_iter) unless the last g step was plain.
    """
    n, m, eps = prob.n, prob.m, prob.epsilon
    c = pairwise_sq_dists(prob.source, prob.target) / eps
    phi, psi = np.zeros(n), np.zeros(m)
    exact_cols = True
    for it in range(max_iter + 1):
        phi_new = np.log(m) - logsumexp(psi[None, :] - c, axis=1)
        if it > 0:
            err = np.abs(np.expm1(phi - phi_new)).max() / n
            if not exact_cols and (err <= tol or it == max_iter):
                psi_new = np.log(n) - logsumexp(phi[:, None] - c, axis=0)
                err = max(err, np.abs(np.expm1(psi - psi_new)).max() / m)
            if err <= tol or it == max_iter:
                break
        relax = relaxed and it > sinkhorn._WARMUP
        phi = _log_domain_step(phi, phi_new, relax)[0]
        psi_new = np.log(n) - logsumexp(phi[:, None] - c, axis=0)
        psi, exact_cols = _log_domain_step(psi, psi_new, relax)
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


def test_relaxed_solve_agrees_with_plain_log_domain_solve():
    # both run to tol 1e-12 reach the same fixed point, whatever the path
    for eps, seed in ((1.0, 0), (0.1, 1), (0.1, 2), (0.01, 0)):
        rng = np.random.default_rng(seed)
        prob = OtProblem(rng.standard_normal((12, 2)), rng.standard_normal((15, 2)), eps)
        pot = sinkhorn_solve(prob, tol=1e-12, max_iter=100000)
        _, f, g = _log_domain_solve(prob, tol=1e-12, max_iter=100000, relaxed=False)
        assert pot.converged
        np.testing.assert_allclose(pot.f, f, rtol=0, atol=1e-9)
        np.testing.assert_allclose(pot.g, g, rtol=0, atol=1e-9)


def _plain_scaling_solve(prob, tol):
    """The warm-up's loop with no relaxation and no absorption: (iterations, f, g)."""
    n, m, eps = prob.n, prob.m, prob.epsilon
    kernel = np.empty((n, m))
    phi = -sinkhorn._gibbs(sinkhorn._logits(prob.source, prob.target, eps, 0.0, 0.0,
                                            kernel), axis=1)[0]
    psi = -sinkhorn._gibbs(sinkhorn._logits(prob.source, prob.target, eps, phi, 0.0,
                                            kernel), axis=0)[0]
    sinkhorn._kernel(prob, phi, psi, kernel)
    a, b = np.ones(n), np.ones(m)
    for it in range(1, sinkhorn._WARMUP + 1):
        kb = kernel @ b
        if np.abs(a * kb / m - 1.0).max() / n <= tol:
            break
        a = m / kb
        b = n / (kernel.T @ a)
    phi, psi = phi + np.log(a), psi + np.log(b)
    shift = psi.mean()
    return it, (phi + shift) * eps, (psi - shift) * eps


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_inside_the_warmup_is_the_plain_scaling_loop_bit_for_bit(seed):
    z = np.random.default_rng(seed).standard_normal((200, 2))
    prob = OtProblem(Standardizer.fit(z).transform(z), build_spherical_grid(256, 2).points,
                     1.0)
    pot = sinkhorn_solve(prob)
    it, f, g = _plain_scaling_solve(prob, sinkhorn.DEFAULT_TOL)
    assert pot.converged and pot.iterations <= sinkhorn._WARMUP
    assert pot.iterations == it
    assert np.array_equal(pot.f, f) and np.array_equal(pot.g, g)


@pytest.mark.parametrize("eps", [0.01, 0.001])
def test_converged_relaxed_solve_fits_rows_and_columns(eps):
    # past the warm-up the columns are no longer exact after each g step, so
    # convergence has to check them too
    rng = np.random.default_rng(2)
    z = rng.standard_normal((100, 2))
    prob = OtProblem(Standardizer.fit(z).transform(z), build_spherical_grid(128, 2).points,
                     eps)
    pot = sinkhorn_solve(prob, max_iter=5000)
    assert pot.converged and pot.iterations > sinkhorn._WARMUP
    assert coupling_marginal_error(pot) <= sinkhorn.DEFAULT_TOL
    assert pot.marginal_error == pytest.approx(coupling_marginal_error(pot), rel=1e-6)


def test_guard_retries_a_half_step_that_would_lower_the_dual():
    # one row with 1/e^10 of its mass: w = 1.8 would overshoot to e^8 times
    # the mass and lose dual, as would w = 1.4; w = 1.2 gains
    out = sinkhorn._overrelax(np.ones(1), np.exp([-10.0]), math.exp(-10.0),
                              sinkhorn._OMEGA - 1.0)
    assert out[0] == pytest.approx(math.exp(2.0), rel=1e-12)


def test_guard_takes_the_plain_step_after_the_last_halving():
    # ratio e^-100 at w = 1 + 0.8 / 2^k: r - r^(1 - w) - w log r < 0 down to
    # w = 1.05 (e^5 > 105), so every try loses dual and the step is plain
    plain = np.array([1.7])
    out = sinkhorn._overrelax(plain.copy(), np.exp([-100.0]), math.exp(-100.0), 0.8)
    assert sinkhorn._HALVINGS == 4
    assert np.array_equal(out, plain)


def test_half_step_at_w_one_is_the_plain_update_without_a_guard(monkeypatch):
    rng = np.random.default_rng(0)
    plain = rng.uniform(0.5, 2.0, 50)
    ratio = np.exp(rng.uniform(-8.0, 8.0, 50))
    monkeypatch.setattr(sinkhorn.np, "log", None)  # any guard sum would call it
    out = sinkhorn._overrelax(plain.copy(), ratio, float(ratio.min()), 0.0)
    assert out.tobytes() == plain.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.floats(0.0, 8.0))
def test_overrelaxed_half_step_never_lowers_the_dual(size, seed, spread):
    # x = plain * ratio moves to `out`; the dual changes by eps/size times
    # sum(log(out / x) - (out - x) / plain), the ratio's part of the dual
    rng = np.random.default_rng(seed)
    ratio = np.exp(rng.uniform(-spread, spread, size))
    plain = rng.uniform(0.5, 2.0, size)
    out = sinkhorn._overrelax(plain.copy(), ratio, float(ratio.min()), sinkhorn._OMEGA - 1.0)
    step = out / plain
    gain = (np.log(step) - np.log(ratio) - step + ratio).sum()
    assert gain >= -1e-12 * size


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
    pot = sinkhorn_solve(prob, max_iter=300, track_objective=True)
    assert len(calls) > 2  # built once at the start, rebuilt at each absorption
    assert np.isfinite(pot.f).all() and np.isfinite(pot.g).all()
    assert pot.marginal_error == pytest.approx(coupling_marginal_error(pot), rel=1e-6)
    # the relaxed steps' dual guard holds across every kernel rebuild
    trace = np.asarray(pot.objective_trace)
    assert (np.diff(trace) >= -1e-12 * (np.abs(trace).max() + 1.0)).all()


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


@pytest.mark.parametrize("epsilon", [math.nan, -0.5, math.inf])
def test_problem_rejects_an_epsilon_that_is_not_positive(epsilon):
    # NaN fails every comparison, so only `not epsilon > 0` refuses it; an
    # infinite one is refused too, as its potentials f = eps * phi are NaN
    with pytest.raises(ParamError):
        OtProblem([[0.0]], [[1.0]], epsilon)


_TINY_PROBLEM = OtProblem([[0.0, 0.0], [1.0, 0.5]], [[0.5, 0.0], [0.0, 0.5]], 0.5)


@pytest.mark.parametrize("call, error, message", [
    (lambda: sinkhorn_solve(_TINY_PROBLEM, tol=0.0), ParamError, "tol must be > 0"),
    (lambda: sinkhorn_solve(_TINY_PROBLEM, tol=math.inf), ParamError, "tol must be > 0"),
    (lambda: sinkhorn_solve(_TINY_PROBLEM, tol=math.nan), ParamError, "tol must be a real"),
    (lambda: sinkhorn_solve(_TINY_PROBLEM, max_iter=0), ParamError, "max_iter must be >= 1"),
    (lambda: sinkhorn_solve(_TINY_PROBLEM, max_iter=2.5), ParamError,
     "max_iter must be an integer"),
], ids=["tol-zero", "tol-inf", "tol-nan", "max-iter-zero", "max-iter-fraction"])
def test_refused_solver_settings(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and message in str(info.value)
