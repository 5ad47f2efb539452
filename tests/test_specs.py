import numpy as np
import pytest

from risklattice import (
    DomainError,
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
