"""Property-based invariant checks across the measure families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from risklattice import (
    AdjustmentGrid,
    NumericError,
    RiskMeasureSpec,
    cvar_loss,
    es_distortion,
    expectile_loss,
    exponential_loss,
    identity_weight,
    linear_loss,
    pointwise_meet_join,
    poly2exp_loss,
    quadlin_loss,
    square_weight,
    submodularity_gap,
)

finite = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False, width=64)


def samples(n=10):
    return arrays(np.float64, n, elements=finite)


MONETARY = [
    RiskMeasureSpec.var(0.8),
    RiskMeasureSpec.es(0.8),
    RiskMeasureSpec.aes(AdjustmentGrid((0.5, 0.9), (0.0, 0.02))),
    RiskMeasureSpec.distortion(es_distortion(0.8)),
    RiskMeasureSpec.shortfall(exponential_loss(1.0)),
    RiskMeasureSpec.oce(exponential_loss(1.0)),
    RiskMeasureSpec.mmd(square_weight(), es_distortion(0.8)),
]

# The square-weight mean-deviation measure is cash-invariant but not monotone:
# a pointwise increase can shrink the deviation term faster than it raises the
# mean once the weight's slope exceeds 1.  Monotonicity is asserted only for
# the measures that actually possess it (identity weight included).
MONOTONE = [m for m in MONETARY if m.kind != "mmd"] + [
    RiskMeasureSpec.mmd(identity_weight(), es_distortion(0.8)),
]

ORDER_STATISTIC = [
    RiskMeasureSpec.var(0.8),
    RiskMeasureSpec.es(0.8),
    RiskMeasureSpec.distortion(es_distortion(0.8)),
]


@settings(max_examples=60, deadline=None)
@given(x=samples(), data=st.data())
def test_law_invariance(x, data):
    perm = data.draw(st.permutations(range(10)))
    xp = x[list(perm)]
    for spec in MONETARY:
        assert abs(spec.evaluate(x) - spec.evaluate(xp)) <= 1e-12, spec.label


@settings(max_examples=60, deadline=None)
@given(x=samples(), c=st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_cash_invariance(x, c):
    for spec in MONETARY:
        assert spec.evaluate(x + c) == pytest.approx(spec.evaluate(x) + c, abs=1e-9), spec.label


@settings(max_examples=60, deadline=None)
@given(x=samples(), lam=st.floats(min_value=1e-3, max_value=50.0, allow_nan=False))
def test_positive_homogeneity_order_statistics(x, lam):
    # selecting an order statistic commutes with positive scaling exactly;
    # the summed measures pick up one rounding step per term
    var = RiskMeasureSpec.var(0.8)
    assert var.evaluate(lam * x) == lam * var.evaluate(x)
    for spec in ORDER_STATISTIC[1:]:
        assert spec.evaluate(lam * x) == pytest.approx(
            lam * spec.evaluate(x), rel=1e-12, abs=1e-300
        ), spec.label


@settings(max_examples=60, deadline=None)
@given(x=samples(), bump=arrays(np.float64, 10, elements=st.floats(min_value=0, max_value=5)))
def test_monotonicity(x, bump):
    y = x + bump
    for spec in MONOTONE:
        assert spec.evaluate(x) <= spec.evaluate(y) + 1e-9, spec.label


@settings(max_examples=100, deadline=None)
@given(x=samples(), p=st.floats(min_value=0.01, max_value=0.99))
def test_es_dominates_var(x, p):
    # 1-ulp slack: averaging k identical entries can round just below them
    assert RiskMeasureSpec.es(p).evaluate(x) >= RiskMeasureSpec.var(p).evaluate(x) - 1e-12


@settings(max_examples=60, deadline=None)
@given(
    base=samples(12),
    other=arrays(np.float64, 12, elements=finite),
)
def test_comonotone_additivity_of_distortion(base, other):
    # sort both by the ranking of `base`, making them comonotonic
    order = np.argsort(base, kind="stable")
    x = np.empty(12)
    y = np.empty(12)
    x[order] = np.sort(base)
    y[order] = np.sort(other)
    spec = RiskMeasureSpec.distortion(es_distortion(0.8))
    assert spec.evaluate(x + y) == pytest.approx(
        spec.evaluate(x) + spec.evaluate(y), abs=1e-12
    )


moderate = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=64)


@settings(max_examples=60, deadline=None)
@given(x=arrays(np.float64, 10, elements=moderate), y=arrays(np.float64, 10, elements=moderate))
def test_expected_loss_exactly_modular(x, y):
    spec = RiskMeasureSpec.expected_loss(exponential_loss(1.0))
    res = submodularity_gap(spec, x, y)
    assert abs(res.gap) <= 1e-11


@settings(max_examples=60, deadline=None)
@given(x=samples(), y=samples())
def test_lattice_identity(x, y):
    meet, join = pointwise_meet_join(x, y)
    assert np.array_equal(meet + join, x + y)


@settings(max_examples=60, deadline=None)
@given(x=samples(), y=samples())
def test_gap_symmetry(x, y):
    spec = RiskMeasureSpec.es(0.8)
    assert submodularity_gap(spec, x, y).gap == submodularity_gap(spec, y, x).gap


@settings(max_examples=40, deadline=None)
@given(x=samples(8))
def test_exponential_shortfall_equals_ce(x):
    short = RiskMeasureSpec.shortfall(exponential_loss(1.0)).evaluate(x)
    ce = RiskMeasureSpec.certainty_equivalent(exponential_loss(1.0)).evaluate(x)
    assert short == pytest.approx(ce, abs=1e-8)


# ---------------------------------------------------------------------------
# the bracketed solvers across sample scales 1e-9 .. 1e9

scales = st.floats(min_value=-9.0, max_value=9.0).map(lambda e: 10.0**e)

# positively homogeneous losses: the values scale with the sample
HOMOGENEOUS_SOLVERS = [
    RiskMeasureSpec.shortfall(linear_loss()),
    RiskMeasureSpec.shortfall(expectile_loss(1.0)),
    RiskMeasureSpec.oce(cvar_loss(0.75)),
]

SOLVERS = HOMOGENEOUS_SOLVERS + [
    RiskMeasureSpec.certainty_equivalent(exponential_loss(1.0)),
    RiskMeasureSpec.shortfall(exponential_loss(1.0)),
    RiskMeasureSpec.shortfall(poly2exp_loss()),
    RiskMeasureSpec.oce(exponential_loss(1.0)),
    RiskMeasureSpec.oce(quadlin_loss()),
]


@settings(max_examples=60, deadline=None)
@given(x=samples(), s=scales, c=st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_solver_cash_invariance_across_scales(x, s, c):
    # |x|, |c| <= 20 before scaling; the tolerance is relative to that range
    for spec in HOMOGENEOUS_SOLVERS + [RiskMeasureSpec.shortfall(exponential_loss(1.0))]:
        assert spec.evaluate(s * x + s * c) == pytest.approx(
            spec.evaluate(s * x) + s * c, rel=0.0, abs=1e-12 * 30 * s
        ), spec.label


@settings(max_examples=60, deadline=None)
@given(x=samples(), s=scales)
def test_solver_positive_homogeneity_across_scales(x, s):
    for spec in HOMOGENEOUS_SOLVERS:
        assert spec.evaluate(s * x) == pytest.approx(
            s * spec.evaluate(x), rel=1e-12, abs=1e-12 * 20 * s
        ), spec.label


@settings(max_examples=60, deadline=None)
@given(x=samples(), s=scales)
def test_solver_value_finite_or_numeric_error(x, s):
    for spec in SOLVERS:
        try:
            value = spec.evaluate(s * x)
        except NumericError:
            continue
        assert math.isfinite(value), spec.label
