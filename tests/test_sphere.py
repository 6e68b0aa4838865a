import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtri

import otcp
from otcp import (
    ParamError,
    SphericalGrid,
    build_spherical_grid,
    grid_radius_index,
    halton_sequence,
    inverse_normal_cdf,
    sphere_directions,
)


# ---------------------------------------------------------------------------
# Halton
# ---------------------------------------------------------------------------

def test_halton_base2_radical_inverse():
    # hand computation: indices 1..4 in base 2 give 0.5, 0.25, 0.75, 0.125
    vals = halton_sequence(4, 1, skip=0).ravel()
    assert np.allclose(vals, [0.5, 0.25, 0.75, 0.125], atol=0)


def test_halton_skip_deterministic():
    a = halton_sequence(100, 3, skip=64)
    b = halton_sequence(100, 3, skip=64)
    assert np.array_equal(a, b)
    # skip really advances the sequence
    c = halton_sequence(100, 3, skip=65)
    assert np.array_equal(a[1:], c[:-1])


def test_halton_open_interval():
    pts = halton_sequence(10000, 6, skip=0)
    assert (pts > 0.0).all() and (pts < 1.0).all()


def test_halton_dim_limit():
    assert halton_sequence(3, 64).shape == (3, 64)
    with pytest.raises(ParamError):
        halton_sequence(3, 65)


# ---------------------------------------------------------------------------
# Inverse normal CDF
# ---------------------------------------------------------------------------

def test_inverse_normal_cdf_center_and_hand_value():
    assert inverse_normal_cdf(0.5) == pytest.approx(0.0, abs=1e-12)
    # oracle: scipy's ndtri (Cephes), a different algorithm from AS241
    assert inverse_normal_cdf(0.975) == pytest.approx(float(ndtri(0.975)), abs=1e-9)
    assert inverse_normal_cdf(0.975) == pytest.approx(1.959964, abs=1e-6)


def test_inverse_normal_cdf_symmetry():
    for p in (0.01, 0.2, 0.3, 0.49, 0.77, 0.999):
        assert inverse_normal_cdf(p) == pytest.approx(-inverse_normal_cdf(1 - p),
                                                      abs=1e-12)


def test_inverse_normal_cdf_accuracy_sweep():
    p = np.concatenate([
        np.array([1e-10, 1e-8, 1e-5, 1e-3]),
        np.linspace(0.01, 0.99, 197),
        1.0 - np.array([1e-10, 1e-8, 1e-5, 1e-3]),
    ])
    err = np.abs(inverse_normal_cdf(p) - ndtri(p))
    assert err.max() <= 1e-9


def test_inverse_normal_cdf_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ParamError, match="inverse_normal_cdf requires 0 < p < 1"):
            inverse_normal_cdf(bad)


# ---------------------------------------------------------------------------
# Directions
# ---------------------------------------------------------------------------

def test_directions_dim1_signs():
    d = sphere_directions(5, 1)
    assert set(d.ravel()) == {1.0, -1.0}
    assert np.allclose(d.ravel(), [1, -1, 1, -1, 1])


def test_directions_unit_norm():
    d = sphere_directions(10000, 5, mode="low_discrepancy")
    assert np.abs(np.linalg.norm(d, axis=1) - 1.0).max() <= 1e-12
    d = sphere_directions(500, 3, mode="iid", seed=4)
    assert np.abs(np.linalg.norm(d, axis=1) - 1.0).max() <= 1e-12


def test_directions_low_discrepancy_balanced():
    # quasi-uniform sphere samples nearly cancel: small mean vector
    d = sphere_directions(10000, 2, mode="low_discrepancy")
    assert np.linalg.norm(d.mean(axis=0)) <= 0.02


def test_directions_iid_seeded():
    a = sphere_directions(50, 3, mode="iid", seed=9)
    b = sphere_directions(50, 3, mode="iid", seed=9)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Grid construction
# ---------------------------------------------------------------------------

def test_grid_default_factorization():
    g = build_spherical_grid(100, 2)
    assert (g.n_r, g.n_s, g.n_o) == (10, 9, 10)
    assert g.points.shape == (100, 2)
    assert g.m == 100


def test_grid_explicit_factorization():
    g = build_spherical_grid(100, 2, factorization=(9, 11, 1))
    assert (g.n_r, g.n_s, g.n_o) == (9, 11, 1)
    assert np.allclose(g.radii, np.arange(1, 10) / 9.0)


def test_grid_minimal():
    g = build_spherical_grid(2, 3)
    assert (g.n_r, g.n_s, g.n_o) == (1, 1, 1)
    assert np.allclose(g.points[0], 0.0)
    assert np.linalg.norm(g.points[1]) == pytest.approx(1.0, abs=1e-12)


def test_grid_factorization_error():
    with pytest.raises(ParamError, match=r"factorization \(9, 11, 2\) inconsistent with m=100"):
        build_spherical_grid(100, 2, factorization=(9, 11, 2))


def test_grid_norm_multiset():
    g = build_spherical_grid(257, 3, mode="iid", seed=1)
    norms = np.sort(np.linalg.norm(g.points, axis=1))
    expected = np.sort(np.concatenate([
        np.zeros(g.n_o), np.repeat(np.arange(1, g.n_r + 1) / g.n_r, g.n_s)]))
    assert np.abs(norms - expected).max() <= 1e-12
    assert (np.linalg.norm(g.points, axis=1) <= 1.0 + 1e-12).all()


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_grid_iid_mean_small(dim):
    g = build_spherical_grid(1024, dim, mode="iid", seed=3)
    assert np.linalg.norm(g.points.mean(axis=0)) <= 3.0 / np.sqrt(1024)


def test_grid_points_follow_from_the_ladder():
    g = build_spherical_grid(100, 2, factorization=(9, 11, 1))
    assert np.array_equal(g.points[:1], np.zeros((1, 2)))
    assert np.array_equal(g.points[1 + 3 * 11:1 + 4 * 11], g.radii[3] * g.directions)
    back = SphericalGrid(g.radii.tolist(), g.directions.tolist(), g.n_o)
    assert np.array_equal(back.points, g.points)
    assert (back.dim, back.n_r, back.n_s, back.m) == (2, 9, 11, 100)


@pytest.mark.parametrize("radii, directions, n_o", [
    ([], [[1.0, 0.0]], 1),
    ([[1.0]], [[1.0, 0.0]], 1),
    ([1.0], [1.0, 0.0], 1),
    ([1.0], np.zeros((0, 2)), 1),
    ([1.0], [[1.0, 0.0]], -1),
    ([1.0], [[1.0, 0.0]], 1.5),
    ([0.5, math.nan], [[1.0, 0.0]], 1),
])
def test_grid_rejects_malformed_ladder(radii, directions, n_o):
    with pytest.raises(ParamError):
        SphericalGrid(radii, directions, n_o)


# ---------------------------------------------------------------------------
# Radius quantile
# ---------------------------------------------------------------------------

def test_grid_radius_examples():
    # appendix-proof oracle: cumulative mass (n_o + j*n_S)/n_total
    j, r = grid_radius_index(100, 9, 11, 1, 0.1)
    assert (j, r) == (9, 1.0)
    assert (1 + 8 * 11) / 100 < 0.9 <= (1 + 9 * 11) / 100
    j, r = grid_radius_index(100, 9, 11, 1, 0.5)
    assert j == 5 and r == pytest.approx(5 / 9)
    assert (1 + 4 * 11) / 100 < 0.5 <= (1 + 5 * 11) / 100


def test_grid_radius_origin_mass_suffices():
    j, r = grid_radius_index(100, 9, 11, 1, 0.995)
    assert (j, r) == (0, 0.0)


def test_grid_radius_validation():
    with pytest.raises(ParamError):
        grid_radius_index(100, 9, 11, 2, 0.1)
    with pytest.raises(ParamError):
        grid_radius_index(100, 9, 11, 1, 0.0)


def test_grid_radius_matches_exhaustive_search_sample():
    # the acceptance suite runs the full range; spot-check a lattice here
    for alpha in np.arange(0.05, 1.0, 0.05):
        fr = 1 - Fraction(float(alpha))
        for n_r in (1, 3, 8):
            for n_s in (1, 5, 13):
                for n_o in (0, 1, 4):
                    n_total = n_r * n_s + n_o
                    j_star = next(j for j in range(n_r + 1)
                                  if Fraction(n_o + j * n_s, n_total) >= fr)
                    j, r = grid_radius_index(n_total, n_r, n_s, n_o, float(alpha))
                    assert j == j_star
                    assert r == j_star / n_r


def _radius_index_by_fraction(n_total, n_r, n_s, n_o, alpha):
    """The ceiling of the docstring's formula in Fraction arithmetic."""
    j = min(max(math.ceil((n_total * (1 - Fraction(alpha)) - n_o) / n_s), 0), n_r)
    return j, j / n_r


@st.composite
def _radius_cases(draw):
    n_r, n_s, n_o = (draw(st.integers(1, 60)), draw(st.integers(1, 60)),
                     draw(st.integers(0, 12)))
    n_total = n_r * n_s + n_o
    # knife edges: alpha at a shell's exact cumulative mass, one float either
    # side of it, or a decimal like 0.07 that no float holds exactly
    j = draw(st.integers(0, n_r))
    edge = float(1 - Fraction(n_o + j * n_s, n_total))
    alpha = draw(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.integers(1, 99).map(lambda k: k / 100),
        st.sampled_from([edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0)])))
    return n_total, n_r, n_s, n_o, alpha


@settings(max_examples=500, deadline=None)
@given(_radius_cases())
def test_grid_radius_integer_ceiling_matches_fraction_form(case):
    n_total, n_r, n_s, n_o, alpha = case
    assume(0.0 < alpha < 1.0)  # an edge at shell 0 or n_R can be 1 or 0
    assert grid_radius_index(n_total, n_r, n_s, n_o, alpha) == \
        _radius_index_by_fraction(n_total, n_r, n_s, n_o, alpha)


def test_import_loads_no_scipy():
    # scipy is a test dependency only; importing any of it raises the resident
    # size of every run (scipy.special alone 30 -> 54 MB)
    src = str(Path(otcp.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, otcp; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("call, error, message", [
    (lambda: halton_sequence(0, 2), ParamError, "count must be >= 1"),
    (lambda: halton_sequence(4, 2, skip=-1), ParamError, "skip must be >= 0"),
    (lambda: sphere_directions(0, 2), ParamError, "n_s must be >= 1, got 0"),
    (lambda: sphere_directions(4, 2, mode="grid"), ParamError,
     "unknown direction mode 'grid'"),
    (lambda: build_spherical_grid(1, 2), ParamError, "m must be >= 2, got 1"),
    (lambda: build_spherical_grid(16, 0), ParamError, "dim must be >= 1, got 0"),
    (lambda: build_spherical_grid(200, 1, factorization=(100.7, 2, 0)), ParamError,
     "factorization entry must be an integer, got 100.7"),
    (lambda: build_spherical_grid(200, 1, factorization=(True, 199, 1)), ParamError,
     "factorization entry must be an integer, got True"),
    (lambda: build_spherical_grid(16.0, 2), ParamError, "m must be an integer, got 16.0"),
    (lambda: build_spherical_grid(16, 2.0), ParamError, "dim must be an integer, got 2.0"),
    (lambda: halton_sequence(2.5, 1), ParamError, "count must be an integer, got 2.5"),
    (lambda: halton_sequence(4, 1.5), ParamError, "dim must be an integer, got 1.5"),
    (lambda: halton_sequence(4, 2, skip=0.5), ParamError, "skip must be an integer, got 0.5"),
    (lambda: sphere_directions(3.5, 2), ParamError, "n_s must be an integer, got 3.5"),
    (lambda: sphere_directions(4, 2.0), ParamError, "dim must be an integer, got 2.0"),
    (lambda: grid_radius_index(10.5, 2, 5, 0.5, 0.1), ParamError,
     "n_total must be an integer, got 10.5"),
    (lambda: build_spherical_grid(200, 1, factorization=(100, 2)), ParamError,
     "factorization must be (n_R, n_S, n_o), got (100, 2)"),
    (lambda: grid_radius_index(10, 3, 3, 1, "0.1"), ParamError,
     "alpha must be a real number, got '0.1'"),
    (lambda: inverse_normal_cdf("a"), ParamError, "probabilities is not a numeric array"),
], ids=["halton-count", "halton-skip", "directions-count", "directions-mode", "grid-m",
        "grid-dim", "grid-factor-float", "grid-factor-bool", "grid-m-float", "grid-dim-float",
        "halton-count-float", "halton-dim-float", "halton-skip-float", "directions-count-float",
        "directions-dim-float", "radius-index-float", "grid-factor-pair",
        "radius-index-alpha-string", "normal-quantile-string"])
def test_refused_grid_arguments(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and message in str(info.value)
