import numpy as np
import pytest

from risklattice import (
    CounterexampleSearchError,
    DistortionFunction,
    DomainError,
    RiskMeasureSpec,
    aes_counterexample,
    aes_matched_grid,
    arctan_bend_loss,
    ce_counterexample,
    es_distortion,
    es_historical,
    exponential_loss,
    identity_distortion,
    identity_weight,
    mmd_counterexample,
    mmd_pair_from_triple,
    power_distortion,
    power_weight,
    shortfall_jump_deficit,
    square_weight,
    submodularity_gap,
)

A, B, Q, P1 = 1.0, 0.0, 0.5, 0.25
PREDICTED = A * (Q - P1) ** 2 / (2 * (1 - P1))  # 1/24


# ---------------------------------------------------------------------------
# adjusted ES


def test_aes_predicted_gap_value():
    _, _, predicted = aes_counterexample(A, B, Q, P1, 10_000)
    assert predicted == pytest.approx(0.0416667, abs=5e-8)


def test_aes_boundary_level_vanishes():
    # the predicted excess collapses quadratically as p1 approaches the fold q
    _, _, predicted = aes_counterexample(A, B, Q, 0.4995, 20_000)
    assert predicted == pytest.approx(0.0, abs=1e-6)


def test_aes_measured_excess_converges():
    x, y, predicted = aes_counterexample(A, B, Q, P1, 10_000)
    join = np.maximum(x, y)
    measured = es_historical(join, P1) - es_historical(x, P1)
    assert measured == pytest.approx(predicted, abs=1e-3)


def test_aes_per_level_es_is_linear_in_level():
    x, y, _ = aes_counterexample(A, B, Q, P1, 10_000)
    for p in (P1, Q):
        assert es_historical(x, p) == pytest.approx(A * p + B, abs=2.0 / 10_000)
        assert es_historical(y, p) == pytest.approx(A * p + B, abs=2.0 / 10_000)


def test_aes_pair_has_identical_law():
    x, y, _ = aes_counterexample(A, B, Q, P1, 1_000)
    np.testing.assert_allclose(np.sort(x), np.sort(y), atol=1e-12)


def test_aes_matched_grid_shows_deficit():
    x, y, predicted = aes_counterexample(A, B, Q, P1, 10_000)
    spec = RiskMeasureSpec.aes(aes_matched_grid(A, B, Q, P1))
    res = submodularity_gap(spec, x, y)
    assert res.violated
    assert -res.gap == pytest.approx(predicted, abs=1e-3)


def test_aes_parameter_validation():
    with pytest.raises(DomainError):
        aes_counterexample(-1.0, 0.0, 0.5, 0.25, 1000)
    with pytest.raises(DomainError):
        aes_counterexample(1.0, 0.0, 0.5, 0.6, 1000)  # p1 >= q
    with pytest.raises(DomainError):
        aes_counterexample(1.0, 0.0, 0.5, 0.25, 6)  # p1 * n < 2


# ---------------------------------------------------------------------------
# mean-deviation


def test_mmd_explicit_triple():
    phi = es_distortion(0.5)
    psi = lambda t: float(phi(np.array(t)) - t)
    assert (psi(0.6), psi(0.7), psi(0.8)) == (pytest.approx(0.4), pytest.approx(0.3), pytest.approx(0.2))
    assert psi(0.6) + psi(0.8) == pytest.approx(2 * psi(0.7), abs=1e-15)
    x, y = mmd_pair_from_triple(phi, square_weight(), 0.6, 0.7, 0.8, 10)
    res = submodularity_gap(RiskMeasureSpec.mmd(square_weight(), phi), x, y)
    assert res.violated and res.gap < 0


def test_mmd_search_finds_violating_pair():
    phi = es_distortion(0.5)
    x, y = mmd_counterexample(phi, square_weight(), 10)
    res = submodularity_gap(RiskMeasureSpec.mmd(square_weight(), phi), x, y)
    assert res.violated


def test_mmd_identity_distortion_refused():
    with pytest.raises(DomainError, match="identity"):
        mmd_counterexample(identity_distortion(), square_weight(), 10)


@pytest.mark.parametrize("n_atoms", [-1, 0, 1])
def test_mmd_needs_two_atoms(n_atoms):
    with pytest.raises(DomainError, match="at least 2 atoms"):
        mmd_counterexample(es_distortion(0.5), square_weight(), n_atoms)


def test_mmd_linear_weight_refused():
    with pytest.raises(DomainError, match="linear"):
        mmd_counterexample(es_distortion(0.5), identity_weight(), 10)


def test_mmd_no_triple_on_coarse_grid():
    with pytest.raises(CounterexampleSearchError, match="grid"):
        mmd_counterexample(es_distortion(0.5), square_weight(), 3)


def _first_admissible_triple(phi, n_atoms):
    """Brute force: every (q, p, r) in the search's scan order."""
    levels = np.arange(1, n_atoms) / n_atoms
    psi = phi(levels) - levels
    for q in range(len(levels)):
        for p in range(q):
            for r in range(q + 1, len(levels)):
                if (psi[q] > 0 and psi[p] > psi[q] and 2 * psi[q] - psi[p] > 0
                        and psi[r] < psi[q] and abs(psi[p] + psi[r] - 2 * psi[q]) <= 1e-12):
                    return levels[p], levels[q], levels[r]
    return None


KINKED = DistortionFunction(
    fn=lambda t: np.minimum(np.minimum(2.0 * t, 0.5 + 0.75 * t), 0.8 + 0.2 * t), name="kinked"
).validate()
MMD_DISTORTIONS = [es_distortion(p) for p in (0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9, 0.95)] + [
    power_distortion(t) for t in (0.25, 0.5, 0.7, 0.9)] + [KINKED]


@pytest.mark.parametrize("phi", MMD_DISTORTIONS, ids=lambda phi: phi.name)
def test_mmd_search_returns_first_admissible_triple(phi):
    for n_atoms in range(3, 41):
        triple = _first_admissible_triple(phi, n_atoms)
        for g in (square_weight(), power_weight(3)):
            if triple is None:
                with pytest.raises(CounterexampleSearchError):
                    mmd_counterexample(phi, g, n_atoms)
                continue
            x, y = mmd_counterexample(phi, g, n_atoms)
            x_ref, y_ref = mmd_pair_from_triple(phi, g, *triple, n_atoms)
            np.testing.assert_array_equal(x, x_ref)
            np.testing.assert_array_equal(y, y_ref)
            assert submodularity_gap(RiskMeasureSpec.mmd(g, phi), x, y).violated


@pytest.mark.parametrize("n_atoms", [6, 9])
def test_mmd_search_finds_triple_at_range_end(n_atoms):
    # the first admissible r sits at an end of the levels after q: the triple
    # is (3/6, 4/6, 5/6) on the 1/6 grid and (4/9, 6/9, 7/9) on the 1/9 grid
    phi = es_distortion(0.5)
    x, y = mmd_counterexample(phi, square_weight(), n_atoms)
    assert submodularity_gap(RiskMeasureSpec.mmd(square_weight(), phi), x, y).violated


# ---------------------------------------------------------------------------
# shortfall jump deficit


def test_jump_limit_closed_form():
    _, limit = shortfall_jump_deficit(1.0, 2.0, 0.01)
    assert limit == pytest.approx(-0.05, abs=1e-15)
    # cross-check via the three limiting shortfall coefficients
    s_minus, s_plus = 1.0, 2.0
    alpha = 3 * s_minus / (2 * s_minus + s_plus)
    beta = 2 * s_minus / (2 * s_minus + s_plus)
    gamma = 2 * (s_minus + s_plus) / (s_minus + 2 * s_plus)
    assert (alpha, beta, gamma) == (0.75, 0.5, 1.2)
    assert beta + gamma - alpha - 1 == pytest.approx(limit, abs=1e-15)


def test_jump_measured_close_to_limit():
    measured, limit = shortfall_jump_deficit(1.0, 2.0, 0.01)
    assert abs(measured - limit) <= 5e-3
    assert measured < 0


def test_jump_no_kink_no_deficit():
    measured, limit = shortfall_jump_deficit(1.5, 1.5, 0.01)
    assert limit == 0.0
    assert measured == pytest.approx(0.0, abs=1e-7)


def test_jump_ratio_decreasing_toward_limit():
    ratios = [shortfall_jump_deficit(1.0, 2.0, h)[0] for h in (0.1, 0.01, 0.001)]
    for r1, r2 in zip(ratios, ratios[1:]):
        assert r2 <= r1 + 1e-6


def test_jump_validation():
    with pytest.raises(DomainError):
        shortfall_jump_deficit(2.0, 1.0, 0.01)  # s_plus < s_minus breaks convexity
    with pytest.raises(DomainError):
        shortfall_jump_deficit(1.0, 2.0, 0.0)


# ---------------------------------------------------------------------------
# certainty equivalents


def test_ce_search_finds_two_point_violation():
    ell = arctan_bend_loss()
    x, y, gap = ce_counterexample(ell)
    assert gap < -1e-6
    assert x.shape == (2,) and set(x) == set(y)
    res = submodularity_gap(RiskMeasureSpec.certainty_equivalent(ell), x, y)
    assert res.violated
    assert res.gap == pytest.approx(gap, abs=1e-9)


def test_ce_search_refuses_convex_loss():
    with pytest.raises(CounterexampleSearchError, match="convex"):
        ce_counterexample(exponential_loss(1.0))
