import numpy as np
import pytest

from risklattice import (
    DomainError,
    LossFunction,
    curvature_profile,
    expectile_loss,
    exponential_loss,
    linear_dominance_check,
    linear_loss,
    poly2exp_loss,
)


def test_exponential_constant_curvature():
    for gamma in (0.5, 1.0, 3.0):
        prof = curvature_profile(exponential_loss(gamma), -10, 10, 0.05)
        np.testing.assert_allclose(prof.R_values, gamma, rtol=0, atol=1e-12)
        assert prof.L == pytest.approx(gamma, abs=1e-12)
        assert prof.analytic_derivs


def test_poly2exp_curvature_formula():
    prof = curvature_profile(poly2exp_loss(), -20, 20, 0.01)
    expected = 1.0 + 2.0 * np.exp(prof.grid) / (2.0 * np.exp(prof.grid) + 1.0)
    np.testing.assert_allclose(prof.R_values, expected, rtol=1e-12)
    assert np.all(prof.R_values > 1.0) and np.all(prof.R_values < 2.0)
    assert prof.L == pytest.approx(1.0, abs=1e-8)  # approaches 1 as lo -> -inf


def test_linear_loss_flat_profile():
    prof = curvature_profile(linear_loss(), -5, 5, 0.1)
    np.testing.assert_array_equal(prof.R_values, 0.0)
    assert prof.L == 0.0
    np.testing.assert_array_equal(prof.h_values, 0.0)


def test_finite_difference_fallback_matches_analytic():
    bare = LossFunction(fn=lambda x: np.expm1(x), strictly_increasing=True,
                        convex=True, normalized=True, name="exp-bare")
    prof = curvature_profile(bare, -3, 3, 0.1)
    assert not prof.analytic_derivs
    np.testing.assert_allclose(prof.R_values, 1.0, atol=1e-4)


def test_grid_contains_zero():
    prof = curvature_profile(exponential_loss(1.0), -1.0, 1.0, 0.3)
    assert np.any(prof.grid == 0.0)
    assert prof.grid[0] == -1.0 and prof.grid[-1] == 1.0


def test_decreasing_function_rejected():
    decreasing = LossFunction(fn=lambda x: -np.expm1(x), strictly_increasing=True,
                              convex=False, name="neg")
    with pytest.raises(DomainError, match="strict increase"):
        curvature_profile(decreasing, -2, 2, 0.1)


def test_bad_grid_arguments():
    with pytest.raises(DomainError):
        curvature_profile(exponential_loss(1.0), 2, -2, 0.1)
    with pytest.raises(DomainError):
        curvature_profile(exponential_loss(1.0), -2, 2, 0.0)
    for lo, hi, step in ((-2, np.inf, 0.1), (-np.inf, 2, 0.1), (np.nan, 2, 0.1),
                         (-2, 2, np.inf), (-2, 2, np.nan)):
        with pytest.raises(DomainError, match="finite lo, hi and step"):
            curvature_profile(exponential_loss(1.0), lo, hi, step)
    # hi - lo overflows to inf: refused as too many points, not passed to arange
    with pytest.raises(DomainError, match="more than"):
        curvature_profile(exponential_loss(1.0), -1e308, 1e308, 1e300)


def test_grid_point_cap(monkeypatch):
    # the cap admits the default range at step 1e-5 and refuses step 1e-7
    # (400M points, 3.2 GB an array) before allocating anything
    import tracemalloc

    from risklattice import curvature

    assert curvature._MAX_GRID_POINTS == 4_000_001 == round(40 / 1e-5) + 1
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="more than 4,000,001 points"):
            curvature_profile(exponential_loss(1.0), -20, 20, 1e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    # the boundary, on a small cap: 41 stepped points pass, 42 do not
    monkeypatch.setattr(curvature, "_MAX_GRID_POINTS", 41)
    assert len(curvature_profile(exponential_loss(1.0), -2, 2, 0.1).grid) == 41
    with pytest.raises(DomainError, match="more than 41 points"):
        curvature_profile(exponential_loss(1.0), -2, 2.1, 0.1)


# ---------------------------------------------------------------------------
# dominance verdicts


def test_exponential_feasible_with_zero_multiplier():
    ell = exponential_loss(1.0)
    verdict = linear_dominance_check(curvature_profile(ell, -20, 20, 1e-2), ell)
    assert verdict.feasible
    lo, hi = verdict.lambda_interval
    assert lo <= 0.0 <= hi
    assert verdict.sufficient_condition_holds


def test_poly2exp_feasible_and_sufficient():
    ell = poly2exp_loss()
    verdict = linear_dominance_check(curvature_profile(ell, -20, 20, 1e-2), ell)
    assert verdict.feasible
    assert verdict.sufficient_condition_holds  # observed max R <= 2 * observed min R


def test_expectile_infeasible_with_kink_witness():
    ell = expectile_loss(1.0)
    prof = curvature_profile(ell, -5, 5, 1e-2)
    verdict = linear_dominance_check(prof, ell)
    assert not verdict.feasible
    assert verdict.lambda_interval is None
    assert 0.0 in verdict.witnesses  # the kink spikes h(0) above any multiple of l(0) = 0
    assert not verdict.sufficient_condition_holds


def test_expectile_curvature_spikes_at_kink():
    prof = curvature_profile(expectile_loss(1.0), -2, 2, 1e-2)
    at_zero = prof.grid == 0.0
    assert prof.R_values[at_zero][0] > 1e4
    off_kink = np.abs(prof.grid) > 0.01
    np.testing.assert_allclose(prof.R_values[off_kink], 0.0, atol=1e-5)


def test_dominance_requires_zero_on_grid():
    ell = exponential_loss(1.0)
    prof = curvature_profile(ell, 1.0, 2.0, 0.1)  # no zero in range
    with pytest.raises(DomainError, match="containing 0"):
        linear_dominance_check(prof, ell)


def test_one_sided_grid_flagged():
    ell = exponential_loss(1.0)
    # grid [-1, 0]: loss values are <= 0 everywhere, so the positive side is empty
    prof = curvature_profile(ell, -1.0, 0.0, 0.1)
    verdict = linear_dominance_check(prof, ell)
    assert verdict.one_sided
    assert verdict.alpha_plus == -np.inf


def test_convex_fd_profile_floors_noise_at_zero():
    # finite differences on a kinked convex loss dip mildly below zero; the
    # profile floors them because convexity guarantees R >= 0
    from risklattice import piecewise_linear_loss

    prof = curvature_profile(piecewise_linear_loss(1.0, 2.0), -20, 20, 0.5)
    assert np.all(prof.R_values >= 0.0)


def test_declared_convex_but_concave_rejected():
    lying = LossFunction(fn=lambda x: x - 0.4 * np.square(np.maximum(x, 0.0)) / (1 + np.abs(x)),
                         strictly_increasing=False, increasing=False, convex=True, name="fake")
    with pytest.raises(DomainError, match="negative curvature"):
        curvature_profile(lying, 0.5, 3.0, 0.1)
