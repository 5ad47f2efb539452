import numpy as np
import pytest

from risklattice import (
    AdjustmentGrid,
    DomainError,
    RiskLatticeError,
    RiskMeasureSpec,
    aes,
    certainty_equivalent,
    distortion_rho,
    es_distortion,
    es_historical,
    expected_loss,
    exponential_loss,
    mmd_rho,
    oce,
    parse_measure_spec,
    parse_weight_spec,
    power_distortion,
    shortfall_rho,
    square_weight,
    var_historical,
)

SAMPLE = np.array([0.05, 0.01, -0.02, 0.03, -0.01])


@pytest.mark.parametrize(
    "text,label",
    [
        ("var:0.95", "VaR(0.95)"),
        ("es:0.9", "ES(0.9)"),
        ("aes:0.6:0,0.8:0.005", "AES(0.6:0,0.8:0.005)"),
        ("dist:es:0.75", "Distortion(es:0.75)"),
        ("eloss:linear", "ExpectedLoss(linear)"),
        ("ce:exp:1", "CE(exp:1)"),
        ("shortfall:poly2exp", "Shortfall(poly2exp)"),
        ("oce:cvar:0.75", "OCE(cvar:0.75)"),
        ("mmd:square:es:0.6", "MMD(square,es:0.6)"),
        ("mmd:pow:3:es:0.6", "MMD(pow:3,es:0.6)"),
    ],
)
def test_parse_and_label(text, label):
    assert parse_measure_spec(text).label == label


def test_parse_rejects_garbage():
    for text in ("unknown:1", "var:1.5", "es:", "aes:0.5"):
        with pytest.raises(DomainError):
            parse_measure_spec(text)


@pytest.mark.parametrize("p", [1.5, 1.0, 0.0, -0.2, float("nan"), float("inf")])
def test_var_and_es_constructors_reject_levels_outside_unit_interval(p):
    for make in (RiskMeasureSpec.var, RiskMeasureSpec.es):
        with pytest.raises(DomainError, match=r"confidence level must lie in \(0, 1\)"):
            make(p)


def test_parse_level_messages():
    with pytest.raises(DomainError, match=r"^confidence level must lie in \(0, 1\), got 1.5$"):
        parse_measure_spec("es:1.5")
    with pytest.raises(DomainError, match="^bad measure spec 'var:x': could not convert"):
        parse_measure_spec("var:x")


@pytest.mark.parametrize("text", ["ce:poly2exp:3", "shortfall:linear:5", "oce:quadlin:x",
                                  "eloss:arctan-bend:1", "shortfall:poly2exp:",
                                  "dist:identity:0.3", "mmd:square:identity:0.3"])
def test_parse_rejects_argument_after_argument_free_head(text):
    with pytest.raises(DomainError, match="unknown (loss|distortion) spec"):
        parse_measure_spec(text)


@pytest.mark.parametrize("text", ["identity:1", "square:2"])
def test_parse_weight_rejects_argument_after_argument_free_head(text):
    with pytest.raises(DomainError, match="unknown weight spec"):
        parse_weight_spec(text)


@pytest.mark.parametrize("text", ["ce:exp:nan", "ce:exp:inf", "shortfall:expectile:nan",
                                  "shortfall:piecewise:1,inf", "dist:pow:nan",
                                  "mmd:pow:inf:es:0.5"])
def test_parse_rejects_non_finite_parameters(text):
    with pytest.raises(DomainError, match="finite"):
        parse_measure_spec(text)


def test_spec_evaluate_matches_direct_calls():
    ell = exponential_loss(1.0)
    phi = es_distortion(0.6)
    cases = [
        (parse_measure_spec("var:0.8"), var_historical(SAMPLE, 0.8)),
        (parse_measure_spec("es:0.6"), es_historical(SAMPLE, 0.6)),
        (parse_measure_spec("dist:es:0.6"), distortion_rho(SAMPLE, phi)),
        (RiskMeasureSpec.expected_loss(ell), expected_loss(SAMPLE, ell)),
        (RiskMeasureSpec.certainty_equivalent(ell), certainty_equivalent(SAMPLE, ell)),
        (RiskMeasureSpec.shortfall(ell), shortfall_rho(SAMPLE, ell)),
        (RiskMeasureSpec.oce(ell), oce(SAMPLE, ell)),
        (RiskMeasureSpec.mmd(square_weight(), phi), mmd_rho(SAMPLE, square_weight(), phi)),
    ]
    for spec, expected in cases:
        assert spec.evaluate(SAMPLE) == pytest.approx(expected, abs=1e-12), spec.label
    grid_spec = parse_measure_spec("aes:0.6:0,0.8:0.005")
    assert grid_spec.evaluate(SAMPLE) == pytest.approx(aes(SAMPLE, grid_spec.grid), abs=1e-15)


def test_aes_spec_takes_the_levels_and_penalties_pair_aes_takes():
    # measures.aes coerces a (levels, penalties) pair to an AdjustmentGrid;
    # the spec constructor takes the same pair
    pair = ((0.6, 0.9), (0.0, 0.01))
    spec = RiskMeasureSpec.aes(pair)
    assert spec.grid == AdjustmentGrid(*pair)
    assert spec.label == parse_measure_spec("aes:0.6:0,0.9:0.01").label == "AES(0.6:0,0.9:0.01)"
    assert spec.evaluate(SAMPLE) == aes(SAMPLE, pair) == aes(SAMPLE, AdjustmentGrid(*pair))


def test_evaluate_batch_matches_scalar_loop():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 7))
    for text in ("var:0.7", "es:0.7", "dist:es:0.7", "shortfall:exp:1", "oce:quadlin",
                 "ce:exp:1", "eloss:poly2exp", "mmd:square:es:0.7"):
        spec = parse_measure_spec(text)
        batch = spec.evaluate_batch(X)
        loop = np.array([spec.evaluate(row) for row in X])
        np.testing.assert_allclose(batch, loop, atol=1e-12, err_msg=text)


def test_promises_zero_violations_classification():
    assert parse_measure_spec("es:0.9").promises_zero_violations
    assert parse_measure_spec("oce:exp:1").promises_zero_violations
    assert parse_measure_spec("eloss:linear").promises_zero_violations
    assert parse_measure_spec("dist:es:0.9").promises_zero_violations
    assert parse_measure_spec("ce:exp:1").promises_zero_violations
    assert not parse_measure_spec("var:0.9").promises_zero_violations
    assert not parse_measure_spec("dist:var:0.9").promises_zero_violations
    assert not parse_measure_spec("ce:arctan-bend").promises_zero_violations
    assert not parse_measure_spec("shortfall:expectile:1").promises_zero_violations
    assert not parse_measure_spec("mmd:square:es:0.9").promises_zero_violations
    assert parse_measure_spec("mmd:identity:es:0.9").promises_zero_violations


@pytest.mark.parametrize(
    "spec",
    [
        RiskMeasureSpec.distortion(power_distortion(0.5)),
        RiskMeasureSpec.mmd(square_weight(), power_distortion(0.5)),
    ],
    ids=lambda spec: spec.label,
)
def test_equal_rows_get_bit_equal_values_anywhere_in_batch(spec):
    # a row's value must not depend on where it sits in the batch, or gaps of
    # dominated pairs stop being exactly 0
    X = np.random.default_rng(1).standard_normal((5, 50))
    X[4] = X[0]
    vals = spec.evaluate_batch(X)
    assert vals[4] == vals[0]


# every CLI measure kind, each named loss under each loss kind, and exp:G with a G
# whose constant (1 + ln G - G) / G or products G (x - max x) leave the normal range
LOSSES = ["exp:1", "exp:1e-306", "exp:1e-320", "poly2exp", "linear", "expectile:1",
          "piecewise:0.5,2", "cvar:0.9", "quadlin", "arctan-bend"]
KINDS = ["var:0.5", "es:0.5", "aes:0.6:0,0.9:0.01", "dist:pow:0.5", "mmd:square:es:0.5",
         "mmd:identity:es:0.5"] + [f"{kind}:{loss}" for kind in ("eloss", "ce", "shortfall", "oce")
                                   for loss in LOSSES]
# sums, products and spans that overflow, beside means that do not
EXTREMES = [[0, 1e200, 2e200], [-1.7e308, 0, 1e308], [1e308, 1.5e308, 1.7e308],
            [-1e308, -1.5e308, -1.7e308]]


@pytest.mark.parametrize("sample", EXTREMES, ids=str)
@pytest.mark.parametrize("text", KINDS)
def test_every_kind_returns_a_finite_value_or_raises(text, sample):
    # no inf, no NaN, and (under the suite's warnings-as-errors) no warning
    try:
        value = parse_measure_spec(text).evaluate(sample)
    except RiskLatticeError:
        return
    assert np.isfinite(value)
