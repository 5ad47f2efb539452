import dataclasses
import math
import warnings

import numpy as np
import pytest

import risklattice.lattice as lattice
import risklattice.measures as rm
from risklattice import (
    AdjustmentGrid,
    DomainError,
    LossFunction,
    NumericError,
    RiskMeasureSpec,
    aes,
    certainty_equivalent,
    cvar_loss,
    distortion_rho,
    es_distortion,
    es_historical,
    expectile_loss,
    expected_loss,
    exponential_loss,
    identity_distortion,
    identity_weight,
    linear_loss,
    mmd_rho,
    oce,
    parse_loss_spec,
    parse_measure_spec,
    pointwise_meet_join,
    poly2exp_loss,
    power_distortion,
    quadlin_loss,
    random_pair_sweep,
    shortfall_rho,
    square_weight,
    submodularity_gap,
    var_distortion,
    var_historical,
)

SAMPLE = [0.05, 0.01, -0.02, 0.03, -0.01]
LN15 = 0.4054651081081644  # log(1.5), the exponential certainty equivalent of [0, ln 2]


# ---------------------------------------------------------------------------
# order-statistic measures


BAND_WIDTHS = [3, 7, 12, 31, 32, 33, 60, 64, 65, 250, 500, 1000]


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("n", BAND_WIDTHS)
def test_band_kernel_is_bit_equal_to_full_rows(n):
    # The kernel reduces only the tail band where its weights are nonzero; the
    # zero-weight columns it skips must not move a single bit of any row,
    # wherever the row sits in its batch.
    rng = np.random.default_rng(n)
    Xs = np.sort(rng.standard_normal((41, n)) * rng.lognormal(size=(41, 1)), axis=1)
    pad = np.sort(rng.standard_normal((8, n)), axis=1)
    batch = np.concatenate([pad[:3], Xs, pad[3:]])  # Xs from odd row offset 3
    cases = [(rm._var_weights(n, p), None) for p in (0.5, 0.95, 0.99)]
    cases += [(rm._es_weights(n, p), None) for p in (0.0, 0.5, 0.95, 0.99)]
    cases += [rm._aes_weights(n, AdjustmentGrid(levels, penalties)) for levels, penalties in (
        ((0.6, 0.9), (0.0, 0.01)), ((0.0, 0.5, 0.975), (0.0, 0.01, 0.02)))]
    for W, penalties in cases:
        full = np.einsum("ij,rj->ri", Xs, np.atleast_2d(W))
        if penalties is not None:
            full -= np.reshape(penalties, (-1, 1))
        full = full.max(axis=0)
        kernel = rm._order_stat_kernel(W, penalties)
        assert np.array_equal(_bits(kernel(Xs)), _bits(full))
        assert np.array_equal(_bits(kernel(batch)[3:44]), _bits(full))
        assert np.array_equal(_bits(kernel(batch[1:46])[2:43]), _bits(full))


@pytest.mark.parametrize("n", [1, 2, 5, 60, 100, 500])
def test_var_kernel_reads_the_einsum_order_statistic_bits(n):
    # a single one-hot weight row is read as its column, and that read gives
    # what the full-row einsum gives: the order statistic, with -0.0 turned
    # into +0.0; rows full of -0.0, of +-0.0 and of negatives.  VaR, ES with
    # k = 1 (es:0.99 at n <= 100) and the step distortion all take it
    rng = np.random.default_rng(n)
    X = -np.abs(rng.standard_normal((30, n)))
    X[:10] = np.where(rng.random((10, n)) < 0.5, -0.0, 0.0)
    X[10:13] = -0.0
    X[13:20] *= rng.random((7, n)) < 0.5  # -0.0 among negatives
    Xs = np.sort(X, axis=1)
    cases = [(RiskMeasureSpec.var(p), rm._var_weights(n, p)) for p in (0.01, 0.5, 0.8, 0.95, 0.99)]
    cases += [(parse_measure_spec(text), W) for text, W in (
        ("es:0.99", rm._es_weights(n, 0.99)),
        ("dist:var:0.9", rm._distortion_weights(n, var_distortion(0.9))))]
    for spec, W in cases:
        reference = np.einsum("ij,rj->ri", Xs, np.atleast_2d(W))[0]
        kernel = rm._order_stat_kernel(W)
        if np.count_nonzero(W) == 1:
            assert kernel.lo == np.flatnonzero(W)[0], spec.label
        assert np.array_equal(_bits(kernel(Xs)), _bits(reference)), spec.label
        assert np.array_equal(_bits(spec.kernel(n)(Xs)), _bits(reference)), spec.label
        assert np.array_equal(_bits(spec.evaluate_batch(X)), _bits(reference)), spec.label
        # any other weight is no column read: it takes the aligned band sum
        half = rm._order_stat_kernel(0.5 * W)
        assert half.lo % rm._BAND_ALIGN == 0
        assert np.array_equal(_bits(half(Xs)), _bits(0.5 * reference)), spec.label


def test_var_top_order_statistics():
    assert var_historical(SAMPLE, 0.8) == 0.05  # k = 1
    assert var_historical(SAMPLE, 0.6) == 0.03  # k = 2


def test_var_constant_sample():
    for p in (0.1, 0.5, 0.99):
        assert var_historical([0.7] * 6, p) == 0.7


def test_var_rejects_bad_level():
    with pytest.raises(DomainError):
        var_historical(SAMPLE, 0.0)
    with pytest.raises(DomainError):
        var_historical(SAMPLE, 1.0)
    with pytest.raises(DomainError):
        var_historical([], 0.5)


def test_es_mean_of_top_losses():
    assert es_historical(SAMPLE, 0.6) == pytest.approx((0.05 + 0.03) / 2, abs=1e-15)
    assert es_historical(SAMPLE, 0.8) == 0.05  # k = 1: equals VaR
    assert es_historical([0.7] * 6, 0.3) == pytest.approx(0.7, abs=1e-15)


def test_es_dominates_var():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rng.standard_normal(rng.integers(1, 40))
        p = float(rng.uniform(0.01, 0.99))
        assert es_historical(x, p) >= var_historical(x, p)


def test_es_integer_tail_count_not_rounded_up():
    # n * (1 - p) = 1 exactly; float arithmetic must not bump k to 2
    x = np.arange(20.0)
    assert es_historical(x, 0.95) == 19.0
    assert var_historical(x, 0.95) == 19.0


def test_aes_two_level():
    grid = AdjustmentGrid((0.6, 0.8), (0.0, 0.005))
    assert aes(SAMPLE, grid) == pytest.approx(max(0.04, 0.05 - 0.005), abs=1e-15)


def test_aes_single_level_reduces_to_es():
    grid = AdjustmentGrid((0.6,), (0.0,))
    assert aes(SAMPLE, grid) == es_historical(SAMPLE, 0.6)


def test_aes_saturating_penalty():
    grid = AdjustmentGrid((0.6, 0.8), (0.0, 10.0))
    assert aes(SAMPLE, grid) == es_historical(SAMPLE, 0.6)


def test_aes_level_zero_is_mean():
    grid = AdjustmentGrid((0.0,), (0.0,))
    assert aes(SAMPLE, grid) == pytest.approx(np.mean(SAMPLE), abs=1e-15)


def test_distortion_identity_is_mean():
    assert distortion_rho(SAMPLE, identity_distortion()) == pytest.approx(
        np.mean(SAMPLE), abs=1e-15
    )


def test_distortion_es_weights():
    # phi(t) = min(t / 0.4, 1) puts weight (0.5, 0.5, 0, 0, 0) on descending losses
    assert distortion_rho(SAMPLE, es_distortion(0.6)) == pytest.approx(0.04, abs=1e-15)
    assert distortion_rho(SAMPLE, es_distortion(0.6)) == pytest.approx(
        es_historical(SAMPLE, 0.6), abs=1e-15
    )


def test_distortion_var_step():
    # with n (1-p) integer the step distortion reproduces VaR
    x = np.array([4.0, 1.0, 3.0, 2.0, 5.0])
    assert distortion_rho(x, var_distortion(0.6)) == var_historical(x, 0.6)


# ---------------------------------------------------------------------------
# expected loss


def test_expected_loss_identity_and_square():
    assert expected_loss(SAMPLE, linear_loss()) == pytest.approx(np.mean(SAMPLE), abs=1e-15)
    square = LossFunction(fn=np.square, strictly_increasing=False, increasing=False,
                          convex=True, normalized=True, name="square")
    assert expected_loss([1.0, -1.0], square) == 1.0


def test_expected_loss_modularity_identity():
    rng = np.random.default_rng(7)
    ell = exponential_loss(1.0)
    for _ in range(100):
        x, y = rng.standard_normal((2, 12))
        meet, join = pointwise_meet_join(x, y)
        gap = (expected_loss(x, ell) + expected_loss(y, ell)
               - expected_loss(meet, ell) - expected_loss(join, ell))
        assert abs(gap) <= 1e-12


# ---------------------------------------------------------------------------
# certainty equivalent


def test_ce_constant():
    assert certainty_equivalent([0.42] * 5, exponential_loss(1.0)) == pytest.approx(
        0.42, abs=1e-12
    )


def test_ce_exponential_two_point():
    # l(x) = e^x (affine image of exp:1 gives the same CE): inverse of (1+2)/2
    got = certainty_equivalent([0.0, math.log(2.0)], exponential_loss(1.0))
    assert got == pytest.approx(LN15, abs=1e-10)


def test_ce_requires_strict_increase():
    with pytest.raises(DomainError):
        certainty_equivalent(SAMPLE, cvar_loss(0.9))


# ---------------------------------------------------------------------------
# shortfall risk


def test_shortfall_constant():
    assert shortfall_rho([1.7] * 4, exponential_loss(2.0)) == pytest.approx(1.7, abs=1e-11)


def test_shortfall_exponential_matches_ce():
    got = shortfall_rho([0.0, math.log(2.0)], exponential_loss(1.0))
    assert got == pytest.approx(LN15, abs=1e-10)


def test_shortfall_linear_is_mean():
    assert shortfall_rho(SAMPLE, linear_loss()) == pytest.approx(np.mean(SAMPLE), abs=1e-11)


def test_shortfall_cash_invariance():
    rng = np.random.default_rng(3)
    ell = exponential_loss(1.0)
    for _ in range(20):
        x = rng.standard_normal(9)
        c = float(rng.standard_normal())
        assert shortfall_rho(x + c, ell) == pytest.approx(shortfall_rho(x, ell) + c, abs=1e-9)


def test_shortfall_rejects_bad_flags():
    with pytest.raises(DomainError):
        shortfall_rho(SAMPLE, cvar_loss(0.9))  # not strictly increasing
    bent = LossFunction(fn=lambda x: x + np.arctan(x), convex=False, name="bent")
    with pytest.raises(DomainError):
        shortfall_rho(SAMPLE, bent)


def test_shortfall_unnormalized_loss_is_normalized_internally():
    shifted = LossFunction(
        fn=lambda x: np.expm1(x) + 3.0,
        strictly_increasing=True, convex=True, normalized=False, name="exp+3",
    )
    got = shortfall_rho([0.0, math.log(2.0)], shifted)
    assert got == pytest.approx(LN15, abs=1e-10)


# ---------------------------------------------------------------------------
# optimized certainty equivalent


def test_oce_cvar_dual_form():
    # l(x) = 4 max(x, 0): the minimization reproduces ES at level 0.75
    assert oce([1.0, 2.0, 3.0, 4.0], cvar_loss(0.75)) == pytest.approx(4.0, abs=1e-9)
    assert oce([1.0, 2.0, 3.0, 4.0], cvar_loss(0.75)) == pytest.approx(
        es_historical([1, 2, 3, 4], 0.75), abs=1e-9
    )


def test_oce_constant_sample():
    assert oce([0.9] * 5, cvar_loss(0.75)) == pytest.approx(0.9, abs=1e-10)


def test_oce_exponential_zero_sample():
    assert oce([0.0, 0.0], exponential_loss(1.0)) == pytest.approx(0.0, abs=1e-10)


def test_oce_detects_unbounded_objective():
    shallow = LossFunction(fn=lambda x: 0.5 * x, strictly_increasing=True,
                           convex=True, normalized=True, name="halfslope")
    with pytest.raises(DomainError, match="unbounded"):
        oce(SAMPLE, shallow)
    steep = LossFunction(fn=lambda x: 2.0 * x, strictly_increasing=True,
                         convex=True, normalized=True, name="doubleslope")
    with pytest.raises(DomainError, match="unbounded"):
        oce(SAMPLE, steep)


# ---------------------------------------------------------------------------
# the shared bracketed solver: scale, oracles, overflow, batch independence

X50 = np.random.default_rng(0).standard_normal(50)


def _unstructured(ell, fn=None):
    """The same loss (or ``fn``) and flags without ``entropic``, ``slopes`` and
    ``quad``: the solver path."""
    return LossFunction(fn=fn or ell.fn, strictly_increasing=ell.strictly_increasing,
                        increasing=ell.increasing, convex=ell.convex,
                        normalized=ell.normalized, name=ell.name)


# poly2exp as a custom loss, with the named loss's fn, which cancels at small x
CUSTOM_POLY2EXP = _unstructured(poly2exp_loss())


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_shortfall_linear_is_mean_at_any_scale(scale):
    assert shortfall_rho(scale * X50, linear_loss()) == pytest.approx(
        scale * np.mean(X50), rel=1e-13, abs=0.0
    )


@pytest.mark.parametrize("scale", [1e-9, 1e9])
def test_shortfall_expectile_positively_homogeneous(scale):
    ell = expectile_loss(1.0)
    assert shortfall_rho(scale * X50, ell) == pytest.approx(
        scale * shortfall_rho(X50, ell), rel=1e-13, abs=0.0
    )


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_oce_cvar_is_es(scale):
    # Rockafellar-Uryasev: OCE(cvar_p) = ES_p; 48 atoms make n (1-p) an integer
    x = scale * X50[:48]
    assert oce(x, cvar_loss(0.75)) == pytest.approx(es_historical(x, 0.75), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("solver", [certainty_equivalent, shortfall_rho, oce])
def test_exponential_solvers_are_log_mean_exp(solver):
    expected = math.log(np.mean(np.exp(X50)))
    assert solver(X50, exponential_loss(1.0)) == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("solver", [certainty_equivalent, oce])
def test_overflow_raises_numeric_error_only(solver):
    # a custom poly2exp has no closed form: exp(1600 x) overflows in the solver,
    # which raises with no clamped log(DBL_MAX) or inf, and no numpy warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="overflow at batch row 0"):
            solver(800 * X50, CUSTOM_POLY2EXP)


@pytest.mark.parametrize("solver", [certainty_equivalent, oce])
def test_poly2exp_closed_form_survives_overflow_scale(solver):
    # exp(1600 x) overflows, but the closed form shifts by max x first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solver(800 * X50, poly2exp_loss())
    # only the top atom counts (the next is 127 lower): the CE solves
    # e^{2m} = e^{2 top} / n, and the OCE's minimizer u = e^{top - m} solves
    # 2 u^2 / n + u / n = 1
    n, top = X50.size, 800 * X50.max()
    u = (math.sqrt(1.0 + 8.0 * n) - 1.0) / 4.0
    expected = (top - math.log(n) / 2.0 if solver is certainty_equivalent
                else top - math.log(u) + u / n + u * u / n - 2.0)
    assert got == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("solver", [certainty_equivalent, oce])
def test_entropic_closed_form_survives_overflow_scale(solver):
    # exp(800 x) overflows, but the entropic form shifts by max x first
    y = 800 * X50
    expected = y.max() + math.log(np.mean(np.exp(y - y.max())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solver(y, exponential_loss(1.0))
    assert got == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert got == pytest.approx(1564.2946, abs=1e-4)


EDGE = np.array([-1e308, 1e308, 0.5e308])  # x - max x overflows


@pytest.mark.parametrize("solver", [shortfall_rho, oce])
@pytest.mark.parametrize("loss", [linear_loss, lambda: expectile_loss(1.0)])
def test_piecewise_linear_forms_survive_a_span_that_overflows(solver, loss):
    # the loss is positively homogeneous, so the row is scaled by a power of
    # two and the value comes out exactly twice the halved sample's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solver(EDGE, loss())
        half = solver(EDGE / 2, loss())
    assert math.isfinite(got) and got == 2 * half
    if solver is oce or loss is linear_loss:  # both are the mean here
        assert got == 1.6666666666666674e307
    # in a batch, each row keeps its own value
    Xs = np.sort(np.stack([EDGE, EDGE / 1e300]), axis=1)
    kernel = rm._shortfall_batch if solver is shortfall_rho else rm._oce_batch
    assert kernel(Xs, loss()).tolist() == [got, solver(EDGE / 1e300, loss())]


@pytest.mark.parametrize("solver", [shortfall_rho, oce])
def test_quadlin_span_that_overflows_raises(solver):
    # quad max(x, 0)^2 is not homogeneous: no scaling, and the overflow raises
    with pytest.raises(NumericError, match="overflow at batch row 0"):
        solver(EDGE, quadlin_loss())


def test_shortfall_root_survives_overflow_elsewhere_in_its_bracket():
    # the residual overflows near min(x) with the right sign, and is finite at the root
    y = 800 * X50
    expected = y.max() + math.log(np.mean(np.exp(y - y.max())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = shortfall_rho(y, exponential_loss(1.0))
    assert got == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_shortfall_guard_rejects_a_jump():
    # declared convex but not: the residual jumps across 0 at the root 0.5
    jump = LossFunction(fn=lambda x: x + (x > 0), convex=True, normalized=True, name="jump")
    with pytest.raises(NumericError, match="residual"):
        shortfall_rho([0.0, 0.5], jump)


@pytest.mark.parametrize("scale", [1e-6, 1e-9])
def test_shortfall_guard_accepts_a_loss_that_cancels(scale):
    # exp(2 x) + exp(x) - 2 rounds at eps absolute near 0, so its residual is
    # a staircase far coarser than n eps |l|; the guard measures that rounding
    # and lets the solver's root through, on X50 and on 200 more rows
    ell = LossFunction(fn=lambda v: np.exp(2 * v) + np.exp(v) - 2, name="exp2+exp")
    x = scale * X50
    got = shortfall_rho(x, ell)
    assert math.isfinite(got)
    # fn carries about eps absolute and the residual's slope is 3, so the root
    # is known only to about eps / 3: at 1e-9 (root 1.3e-10) that is coarser
    # than 1e-9 relative
    assert got == pytest.approx(shortfall_rho(x, poly2exp_loss()), rel=1e-9,
                                abs=0.0 if scale == 1e-6 else 2.0**-54)
    Xs = scale * SOLVER_BATCH
    got = rm._shortfall_batch(Xs, ell)
    assert np.all(np.abs(got - rm._shortfall_batch(Xs, poly2exp_loss())) <= 2.0**-54)


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_shortfall_guard_rejects_a_jump_at_any_scale(scale):
    jump = LossFunction(fn=lambda v: v + scale * (v > 0), name="jump")
    with pytest.raises(NumericError, match="residual"):
        shortfall_rho(scale * np.array([0.0, 0.2, 0.5]), jump)


@pytest.mark.parametrize("text", ["ce:expectile:1", "shortfall:expectile:1", "oce:cvar:0.75",
                                  "ce:exp:1", "shortfall:exp:1", "oce:exp:1", "oce:exp:0.5",
                                  "shortfall:poly2exp", "oce:quadlin", "ce:poly2exp",
                                  "ce:quadlin", "ce:arctan-bend", "shortfall:quadlin"])
def test_solver_row_does_not_depend_on_its_batch(text):
    spec = parse_measure_spec(text)
    big = 1e3 * np.random.default_rng(1).standard_normal(50)
    alone = spec.evaluate_batch(X50[None, :])[0]
    assert spec.evaluate_batch(np.stack([big, X50]))[1] == alone


# every kind whose kernel runs in row blocks (measures._in_blocks): expected
# loss, and the CE, shortfall and OCE of each named loss and of one custom
# loss, where the measure admits the loss (the shortfall asks for a strictly
# increasing convex loss, CE for a strictly increasing one, OCE for a convex
# one)
BLOCKED_LOSSES = [parse_loss_spec(text) for text in (
    "exp:1", "expectile:1", "poly2exp", "quadlin", "piecewise:0.5,2", "cvar:0.75",
    "arctan-bend")] + [
    dataclasses.replace(_unstructured(quadlin_loss()), name="custom-quadlin")]
BLOCKED_SPECS = [RiskMeasureSpec.expected_loss(exponential_loss(1.0))] + [
    make(ell) for make in (RiskMeasureSpec.certainty_equivalent, RiskMeasureSpec.shortfall,
                           RiskMeasureSpec.oce)
    for ell in BLOCKED_LOSSES
    if (ell.strictly_increasing or make is RiskMeasureSpec.oce)
    and (ell.convex or make is RiskMeasureSpec.certainty_equivalent)]


@pytest.mark.parametrize("n", [3, 50, 1001])
@pytest.mark.parametrize("spec", BLOCKED_SPECS, ids=lambda s: s.label)
def test_blocked_values_equal_one_call_bit_for_bit(monkeypatch, spec, n):
    # a kernel's values in blocks are those of one call on the whole batch,
    # on batches that end just before, at and just after a block's end
    block = rm._block_rows(n)
    X = np.sort(np.random.default_rng(n).standard_normal((3 * block + 1, n)), axis=1)
    with monkeypatch.context() as patch:
        patch.setattr(rm, "_BLOCK_BYTES", X.nbytes)  # one block holds the batch
        whole = _bits(spec.kernel(n)(X))
    blocked = spec.kernel(n)
    for rows in (1, block - 1, block, block + 1, 3 * block + 1):
        assert np.array_equal(_bits(blocked(X[:rows])), whole[:rows]), rows


# a loss whose jump at 0 the shortfall guard refuses where the root sits on it
JUMP = LossFunction(fn=lambda v: v + (v > 0), convex=True, normalized=True, name="jump")
# slope 1/2 up to 1e30, 2 above: the OCE's minimizer is about 1e30 below the
# row, which 60 doublings of a row's span reach from a span of 1e15, not of 2
FAR = LossFunction(fn=lambda v: np.where(v < 1e30, 0.5 * v, 2.0 * v - 1.5e30), name="far")


@pytest.mark.parametrize("make,ell,bad,error,match", [
    (RiskMeasureSpec.shortfall, quadlin_loss(), EDGE, NumericError, "overflow"),
    (RiskMeasureSpec.oce, quadlin_loss(), EDGE, NumericError, "overflow"),
    (RiskMeasureSpec.oce, CUSTOM_POLY2EXP, [0.0, 800.0, 1600.0], NumericError, "overflow"),
    (RiskMeasureSpec.certainty_equivalent, CUSTOM_POLY2EXP, [0.0, 800.0, 1600.0],
     NumericError, "overflow"),
    (RiskMeasureSpec.shortfall, JUMP, [0.0, 0.2, 0.5], NumericError, "residual"),
    (RiskMeasureSpec.oce, FAR, [0.0, 1.0, 2.0], DomainError, "no bracket"),
], ids=["shortfall-quadlin", "oce-quadlin", "oce-custom-poly2exp", "ce-custom-poly2exp",
        "shortfall-jump", "oce-far"])
def test_blocked_error_names_its_row_of_the_batch(monkeypatch, make, ell, bad, error, match):
    # the bad row sits in the third block; the error names its row of the
    # whole batch, not of its block
    monkeypatch.setattr(rm, "_BLOCK_BYTES", 1)  # blocks of _BLOCK_MIN_ROWS rows
    block = rm._block_rows(3)
    X = np.tile(1e15 if ell is FAR else 1.0, (3 * block + 1, 1)) * [0.0, 1.0, 2.0]
    row = 2 * block + 5
    X[row] = np.sort(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=rf"{match}.* at batch row {row}\b"):
            make(ell).kernel(3)(X)


def test_shortfall_poly2exp_at_small_scale():
    x = 1e-6 * X50
    # poly2exp's residual is a quadratic in u = exp(-m); with u = 1 + v it is
    # c + B v + (1 + a) v^2 with small c, solved without cancellation
    a, b = np.expm1(2.0 * x).mean(), np.expm1(x).mean()
    c, B = a + b, 3.0 + 2.0 * a + b
    root = -math.log1p(-2.0 * c / (B + math.sqrt(B * B - 4.0 * (1.0 + a) * c)))
    assert shortfall_rho(x, poly2exp_loss()) == pytest.approx(root, rel=1e-12, abs=0.0)


def test_oce_flat_side_custom_loss_at_small_scale():
    # slope 1 below 0 and 2 above: the objective is flat (the mean) for m >= max x
    x = 1e-9 * (X50 + 1.0)
    ell = LossFunction(fn=lambda v: v + np.maximum(v, 0.0), name="slopes-1-2")
    assert oce(x, ell) == pytest.approx(math.fsum(x) / x.size, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# the bracketed solver against a plain per-row bisection

_ORACLE_MAX_BISECT = 2300
_ORACLE_MAX_EXPAND = 60


def _bisect_oracle(fn, Xs, what: str, pad: float = 0.0, spread: float = 0.0) -> np.ndarray:
    """A plain per-row bracketed bisection that evaluates every row at each
    doubling: ``_bracketed`` must give the same values."""
    lo, hi = Xs[:, 0] - pad, Xs[:, -1] + pad
    scale = np.maximum(-Xs[:, 0], Xs[:, -1])
    scale = np.where(scale > 0.0, scale, pad * np.finfo(np.float64).eps)

    def g(m, d, rows):
        sel = rows if rows.size < lo.size else slice(None)
        v = fn(m + d, sel) - fn(m - d, sel) if spread else fn(m, sel)
        nan = np.isnan(v)
        if nan.any():
            raise NumericError(f"{what}: overflow at batch row {rows[nan.argmax()]}")
        return v

    act = np.arange(lo.size)
    step = np.maximum(hi - lo, 1.0)
    for _ in range(_ORACLE_MAX_EXPAND):
        d = spread * (hi - lo)
        low = g(lo + d, d, act) > 0.0
        high = g(hi - d, d, act) < 0.0
        if not (low.any() or high.any()):
            break
        lo -= np.where(low, step, 0.0)
        hi += np.where(high, step, 0.0)
        step *= 2.0
    else:
        raise (DomainError if spread else NumericError)(
            f"{what}: no bracket after {_ORACLE_MAX_EXPAND} doublings at batch row "
            f"{(low | high).argmax()} (objective unbounded below, or no sign change)"
        )
    for _ in range(_ORACLE_MAX_BISECT):
        a, b = lo[act], hi[act]
        wide = b - a > 4.0 * np.spacing(np.maximum(np.maximum(-a, b), scale[act]))
        act, a, b = act[wide], a[wide], b[wide]
        if not act.size:
            break
        mid = 0.5 * (a + b)
        d = spread * (b - a)
        left = g(mid, d, act) > 0.0
        lo[act] = np.where(left, a, mid - d)
        hi[act] = np.where(left, mid + d, b)
    return 0.5 * (lo + hi)


BATCH_SOLVERS = {"ce": rm._ce_batch, "shortfall": rm._shortfall_batch, "oce": rm._oce_batch}
# v + max(v, 0)^1.5: strictly increasing, convex, no closed form, and no
# cancellation inside fn at any scale
POW15 = LossFunction(fn=lambda v: v + np.maximum(v, 0.0) ** 1.5, name="pow1.5")
# slope 1/2 below 0 and v / 16 more above: a constant row's OCE minimizer is
# 8 below it, three doublings out of its starting bracket
SHALLOW = LossFunction(fn=lambda v: 0.5 * v + np.square(np.maximum(v, 0.0)) / 32.0,
                       name="shallow-quadlin")
# quadlin and poly2exp as custom losses: the named ones have closed forms
SOLVER_LOSSES = {"quadlin": _unstructured(quadlin_loss()), "pow1.5": POW15,
                 "arctan-bend": parse_loss_spec("arctan-bend"), "poly2exp": CUSTOM_POLY2EXP,
                 "shallow-quadlin": SHALLOW}
SOLVER_BATCH = np.sort(np.random.default_rng(4).standard_normal((200, 50)), axis=1)


def _counted(ell):
    """``ell`` with a ``fn`` that counts its calls and points."""
    count = {"calls": 0, "points": 0}

    def fn(x):
        count["calls"] += 1
        count["points"] += np.size(x)
        return ell.fn(x)

    return dataclasses.replace(ell, fn=fn), count


def _solve(kind, loss, Xs, oracle=False):
    """Per-row values and ``fn`` counts of one solver on sorted rows ``Xs``,
    with the bisection oracle in place of ``_bracketed`` if ``oracle``."""
    ell, count = _counted(SOLVER_LOSSES[loss])
    with pytest.MonkeyPatch.context() as mp:
        if oracle:
            mp.setattr(rm, "_bracketed", _bisect_oracle)
        return BATCH_SOLVERS[kind](Xs, ell), count


def _assert_within_4_ulps(got, expected, Xs):
    scale = np.maximum(np.abs(expected), np.abs(Xs).max(axis=1))
    assert np.all(np.abs(got - expected) <= 4.0 * np.spacing(scale))


def test_poly2exp_solvers_match_bisection_and_the_exact_root():
    # poly2exp's fn cancels below about 1e-3, so only scale 1 pins 4 ulps
    for kind in ("ce", "shortfall"):
        got, _ = _solve(kind, "poly2exp", SOLVER_BATCH)
        expected, _ = _solve(kind, "poly2exp", SOLVER_BATCH, oracle=True)
        _assert_within_4_ulps(got, expected, SOLVER_BATCH)
    # the quadratic in u = exp(-m) of test_shortfall_poly2exp_at_small_scale
    a = np.expm1(2.0 * SOLVER_BATCH).mean(axis=1)
    b = np.expm1(SOLVER_BATCH).mean(axis=1)
    c, B = a + b, 3.0 + 2.0 * a + b
    root = -np.log1p(-2.0 * c / (B + np.sqrt(B * B - 4.0 * (1.0 + a) * c)))
    np.testing.assert_allclose(got, root, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("loss", ["quadlin", "shallow-quadlin"])
def test_oce_keeps_bisection_bit_for_bit(loss):
    for scale in (1e-9, 1.0, 1e9):
        Xs = scale * SOLVER_BATCH
        got, _ = _solve("oce", loss, Xs)
        expected, _ = _solve("oce", loss, Xs, oracle=True)
        assert np.array_equal(got, expected)


# the shortfall refuses arctan-bend, which is not convex
ROOT_SOLVES = [(kind, loss) for kind in ("ce", "shortfall")
               for loss in ("quadlin", "pow1.5", "arctan-bend")
               if (kind, loss) != ("shortfall", "arctan-bend")]


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
@pytest.mark.parametrize("kind, loss", ROOT_SOLVES)
def test_root_solves_keep_bisection_bit_for_bit(kind, loss, scale):
    Xs = scale * SOLVER_BATCH
    got, count = _solve(kind, loss, Xs)
    expected, oracle = _solve(kind, loss, Xs, oracle=True)
    assert np.array_equal(got, expected)
    assert count["calls"] == oracle["calls"]


def test_doubling_evaluates_only_unbracketed_rows():
    # 40 wide rows are bracketed at once; 10 constant rows (minimizer 8 below
    # them) need three doublings, in which bisection still evaluated all 50
    n, doublings, bracketed = SOLVER_BATCH.shape[1], 3, 40
    Xs = np.concatenate([30.0 * SOLVER_BATCH[:bracketed], np.full((10, n), 0.25)])
    got, count = _solve("oce", "shallow-quadlin", Xs)
    expected, oracle = _solve("oce", "shallow-quadlin", Xs, oracle=True)
    assert np.array_equal(got, expected)
    # a constant c has OCE c + min_t (l(t) - t) = c - 2
    np.testing.assert_allclose(got[bracketed:], 0.25 - 2.0, rtol=1e-15)
    # each doubling evaluates fn at both ends, each as f(m + d) - f(m - d)
    assert oracle["points"] - count["points"] == 4 * n * bracketed * doublings


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-4, 1e-3])
def test_noisy_residual_costs_at_most_bisection(scale):
    # exp(2 m) + exp(m) - 2 cancels at small m: near the root the residual is
    # a rounding plateau, on which the solver still bisects step for step
    Xs = scale * np.sort(np.random.default_rng(6).standard_normal((2000, 50)), axis=1)
    got, count = _solve("ce", "poly2exp", Xs)
    expected, oracle = _solve("ce", "poly2exp", Xs, oracle=True)
    assert np.array_equal(got, expected)
    assert count["calls"] == oracle["calls"]


def test_bracket_halves_within_any_three_steps():
    # Residuals with a jump at their root, where a step that is not a
    # bisection could creep up on it from one side and leave the far end in
    # place: every bracket still halves within any three steps.
    rng = np.random.default_rng(0)
    rows = 50
    root, jump = rng.uniform(-0.9, 1.2, rows), np.exp(rng.uniform(-3.0, 1.0, rows))
    below, above = np.exp(rng.uniform(-3.0, 6.0, (2, rows)))
    Xs = np.tile([-1.0, 0.0, 1.3], (rows, 1))
    lo, hi = Xs[:, 0].copy(), Xs[:, -1].copy()
    widths = [[w] for w in hi - lo]
    calls = 0

    def residual(m, sel):
        nonlocal calls
        i = np.arange(rows)[sel]
        v = np.where(m < root[i], below[i] * (m - root[i]), jump[i] + above[i] * (m - root[i]))
        calls += 1
        if calls > 2:  # the first two calls evaluate the starting ends
            for k, mk, vk in zip(i, m, v):
                lo[k], hi[k] = (lo[k], mk) if vk > 0.0 else (mk, hi[k])
                widths[k].append(hi[k] - lo[k])
        return v

    m = rm._bracketed(residual, Xs, "jump")
    assert np.all(np.abs(m - root) <= 4.0 * np.spacing(1.3))
    for w in map(np.array, widths):
        assert np.all(w[3:] <= 0.5 * w[:-3])


def test_shortfall_poly2exp_sweep_is_chunk_invariant(monkeypatch):
    # b runs in chunks at 100 and 200
    spec = RiskMeasureSpec.shortfall(poly2exp_loss())
    a = random_pair_sweep(spec, 50, 300, seed=5)
    sweep_chunk, spans = lattice._sweep_chunk, []

    def recording(spec, n, lo, hi, *args):
        spans.append((lo, hi))
        return sweep_chunk(spec, n, lo, hi, *args)

    monkeypatch.setattr(lattice, "_sweep_chunk", recording)
    monkeypatch.setattr(lattice, "_CHUNK_BYTES", 100 * 32 * 50)
    b = random_pair_sweep(spec, 50, 300, seed=5)
    assert spans == [(0, 100), (100, 200), (200, 300)]
    assert (a.violations, _bits(a.worst_gap)) == (b.violations, _bits(b.worst_gap))
    assert np.array_equal(a.worst_pair[0], b.worst_pair[0])
    assert np.array_equal(a.worst_pair[1], b.worst_pair[1])


# ---------------------------------------------------------------------------
# closed forms for the entropic and piecewise-linear losses, against bisection

STRUCTURED = ["exp:0.5", "exp:1", "exp:2", "linear", "expectile:0.5", "expectile:1",
              "piecewise:0.5,2", "cvar:0.75", "poly2exp", "quadlin"]
# the same function as poly2exp's fn, without its cancellation near 0, so that
# the solver's value is exact to a few ulps at every scale
ACCURATE_FN = {"poly2exp": lambda v: np.expm1(2.0 * v) + np.expm1(v)}
SOLVERS = {"ce": certainty_equivalent, "shortfall": shortfall_rho, "oce": oce}
# mixed signs, so every kink is crossed, and values well away from 0, so a
# relative tolerance means something
ORACLE_SAMPLE = X50 + 1.0


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
@pytest.mark.parametrize("kind", sorted(SOLVERS))
@pytest.mark.parametrize("text", STRUCTURED)
def test_closed_form_matches_bisection(text, kind, scale):
    ell, solver = parse_loss_spec(text), SOLVERS[kind]
    x = scale * ORACLE_SAMPLE
    try:
        expected = solver(x, _unstructured(ell, ACCURATE_FN.get(text)))
    except DomainError:  # the flags rule this kind out: the closed form must agree
        with pytest.raises(DomainError):
            solver(x, ell)
        return
    except NumericError:  # exp(g x) overflows in the bisection only
        assert scale == 1e9 and ell.entropic is not None
        assert math.isfinite(solver(x, ell))
        return
    assert solver(x, ell) == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("text", ["piecewise:2,3", "piecewise:0.5,0.8"])
def test_oce_unbounded_piecewise_raises_like_bisection(text):
    # both slopes on one side of 1: the objective is unbounded below
    ell = parse_loss_spec(text)
    for loss in (ell, _unstructured(ell)):
        with pytest.raises(DomainError, match="unbounded"):
            oce(X50, loss)


@pytest.mark.parametrize("n", [20, 40, 100])
@pytest.mark.parametrize("p", [0.5, 0.75, 0.9, 0.95])
def test_oce_cvar_is_es_to_a_few_ulps(p, n):
    # n (1 - p) is an integer for every pair here.  Both sides round their
    # sums, and 1 / (1 - p) is itself rounded (19.999999999999982 at 0.95),
    # which tilts the objective by an ulp or so per unit of the sample's range.
    rng = np.random.default_rng(n)
    for _ in range(50):
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-9, 9)
        ulp = np.spacing(np.abs(x).max())
        assert abs(oce(x, cvar_loss(p)) - es_historical(x, p)) <= 8 * ulp


@pytest.mark.parametrize("text", ["ce:exp:1", "shortfall:exp:0.5", "oce:exp:2", "ce:linear",
                                  "shortfall:expectile:1", "oce:piecewise:0.5,2",
                                  "oce:cvar:0.75"])
def test_dominated_pair_gap_is_exactly_zero(text):
    y = X50 + np.abs(np.random.default_rng(2).standard_normal(50))
    assert submodularity_gap(parse_measure_spec(text), X50, y).gap == 0.0


def test_structure_survives_replacing_fn():
    # a wrapped fn (as a call counter) keeps the closed form, and its values
    calls = []

    def counted(x):
        calls.append(x.size)
        return ell.fn(x)

    batch = np.stack([X50, 2.0 * X50])
    for text in ("exp:1", "expectile:1", "cvar:0.75", "poly2exp", "quadlin"):
        ell = parse_loss_spec(text)
        wrapped = dataclasses.replace(ell, fn=counted)
        assert (wrapped.entropic, wrapped.slopes, wrapped.quad) == (ell.entropic, ell.slopes, ell.quad)
        spec, traced = RiskMeasureSpec.oce(ell), RiskMeasureSpec.oce(wrapped)
        assert np.array_equal(traced.evaluate_batch(batch), spec.evaluate_batch(batch))
    assert calls == []


LD = np.longdouble
LD_LOSS = {  # fn and l' in long double, without cancellation
    "poly2exp": (lambda v: np.expm1(v) + np.expm1(2 * v),
                 lambda v: np.exp(np.minimum(v, 5000)) + 2 * np.exp(np.minimum(2 * v, 11000))),
    "quadlin": (lambda v: v / 2 + np.maximum(v, 0) ** 2, lambda v: 0.5 + 2 * np.maximum(v, 0)),
}


def _ld_bisect(F, lo, hi):
    """Per-row root of a nondecreasing ``F`` in long double, by plain bisection."""
    lo, hi = lo.astype(LD), hi.astype(LD)
    for _ in range(160):
        mid = (lo + hi) / 2
        up = F(mid) > 0
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return (lo + hi) / 2


def _ld_oracle(kind, loss, Xs):
    X, (fn, d1) = Xs.astype(LD), LD_LOSS[loss]
    lo, hi = Xs[:, 0] - 5.0, Xs[:, -1] + 5.0
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "shortfall":
            return _ld_bisect(lambda m: -fn(X - m[:, None]).sum(axis=1), lo, hi)
        if kind == "oce":
            m = _ld_bisect(lambda m: 1 - d1(X - m[:, None]).mean(axis=1), lo, hi)
            return m + fn(X - m[:, None]).mean(axis=1)
        if loss == "quadlin":
            target = fn(X).mean(axis=1)
            return _ld_bisect(lambda m: fn(m) - target, lo, hi)
        # l(m) - l(x) for poly2exp as sum_k e^{k (lo - top)} expm1(k (hi - lo)),
        # scaled by e^{-2 top} (top = max x > 0), which cannot overflow
        top = X[:, -1:]

        def F(m):
            M, total = m[:, None], 0
            for k, w in ((1, np.exp(-top)), (2, 1)):
                d = M - X
                total = total + w * np.where(
                    d > 0, -np.exp(k * (M - top)) * np.expm1(-k * d),
                    np.exp(k * (X - top)) * np.expm1(k * d))
            return total.sum(axis=1)

        return _ld_bisect(F, lo, hi)


@pytest.mark.skipif(np.finfo(LD).eps >= np.finfo(np.float64).eps / 64,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("atoms", [3, 50])
@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e9])
@pytest.mark.parametrize("kind", sorted(SOLVERS))
@pytest.mark.parametrize("loss", ["poly2exp", "quadlin"])
def test_quadratic_forms_match_long_double(loss, kind, scale, atoms):
    # every row has max x > 0, as the poly2exp CE oracle needs; at scale 10 a
    # root lies far above the middle order statistic, where u is far below 1
    Xs = scale * np.sort(np.random.default_rng(9).standard_normal((24, atoms)) + 0.5, axis=1)
    Xs = Xs[Xs[:, -1] > 0]
    got = BATCH_SOLVERS[kind](Xs, parse_loss_spec(loss))
    expected = _ld_oracle(kind, loss, Xs)
    ulps = np.spacing(np.maximum(np.abs(got), np.abs(Xs).max(axis=1)))
    assert np.all(np.abs(got - expected) <= 4 * ulps)


# ---------------------------------------------------------------------------
# monotone mean-deviation


def test_mmd_identity_weight_is_distortion():
    phi = es_distortion(0.6)
    assert mmd_rho(SAMPLE, identity_weight(), phi) == pytest.approx(
        distortion_rho(SAMPLE, phi), abs=1e-15
    )


def test_mmd_square_weight_example():
    got = mmd_rho(SAMPLE, square_weight(), es_distortion(0.6))
    assert got == pytest.approx((0.04 - 0.012) ** 2 + 0.012, abs=1e-15)
    assert got == pytest.approx(0.012784, abs=1e-15)


def test_mmd_identity_distortion_is_mean():
    assert mmd_rho(SAMPLE, square_weight(), identity_distortion()) == pytest.approx(
        np.mean(SAMPLE), abs=1e-15
    )


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6, 1e9])
@pytest.mark.parametrize("phi", [identity_distortion(), es_distortion(0.5), power_distortion(0.5)])
def test_mmd_deviation_guard_scales_with_data(phi, scale):
    # rounding in distortion - mean grows with the sample's magnitude; a
    # concave distortion must not trip the negative-deviation guard
    x = scale * np.random.default_rng(0).standard_normal(50)
    for g in (identity_weight(), square_weight()):
        assert math.isfinite(mmd_rho(x, g, phi))
    assert mmd_rho(x, identity_weight(), phi) == pytest.approx(
        distortion_rho(x, phi), rel=1e-12, abs=1e-12 * scale
    )


def test_mmd_kernel_builds_its_distortion_weights_once(monkeypatch):
    # the distortion kernel is built with the MMD kernel, not on every batch
    calls = []
    weights = rm._distortion_weights

    def counted(n, phi):
        calls.append(n)
        return weights(n, phi)

    monkeypatch.setattr(rm, "_distortion_weights", counted)
    spec = parse_measure_spec("mmd:square:es:0.5")
    kernel = spec.kernel(50)
    X = np.sort(np.random.default_rng(3).standard_normal((3, 50)), axis=1)
    got = [kernel(X[i:]) for i in range(3)]
    assert calls == [50]
    assert [v[-1] for v in got] == [mmd_rho(X[2], square_weight(), es_distortion(0.5))] * 3


def test_mmd_rejects_nonconcave_distortion():
    with pytest.raises(DomainError):
        mmd_rho(SAMPLE, square_weight(), var_distortion(0.8))


# ---------------------------------------------------------------------------
# shared structure


def test_single_atom_returns_the_loss():
    c = -0.3
    grid = AdjustmentGrid((0.5,), (0.0,))
    for value in (
        var_historical([c], 0.9),
        es_historical([c], 0.9),
        aes([c], grid),
        distortion_rho([c], es_distortion(0.9)),
        certainty_equivalent([c], exponential_loss(1.0)),
        shortfall_rho([c], exponential_loss(1.0)),
        oce([c], exponential_loss(1.0)),
        mmd_rho([c], square_weight(), es_distortion(0.9)),
    ):
        assert value == pytest.approx(c, abs=1e-10)


def test_law_invariance_under_permutation():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(15)
    xp = x[rng.permutation(15)]
    checks = [
        (var_historical, (0.7,)),
        (es_historical, (0.7,)),
        (distortion_rho, (es_distortion(0.7),)),
        (expected_loss, (exponential_loss(1.0),)),
        (certainty_equivalent, (exponential_loss(1.0),)),
        (shortfall_rho, (exponential_loss(1.0),)),
        (oce, (exponential_loss(1.0),)),
        (mmd_rho, (square_weight(), es_distortion(0.7))),
    ]
    for fn, args in checks:
        assert abs(fn(x, *args) - fn(xp, *args)) <= 1e-12, fn.__name__
