import dataclasses

import numpy as np
import pytest

from risklattice import (
    AdjustmentGrid,
    DistortionFunction,
    DomainError,
    LossFunction,
    arctan_bend_loss,
    cvar_loss,
    es_distortion,
    expectile_loss,
    exponential_loss,
    identity_distortion,
    parse_distortion_spec,
    parse_loss_spec,
    parse_weight_spec,
    piecewise_linear_loss,
    poly2exp_loss,
    power_distortion,
    quadlin_loss,
    square_weight,
    var_distortion,
)


@pytest.mark.parametrize(
    "spec,name",
    [
        ("exp:2", "exp:2"),
        ("poly2exp", "poly2exp"),
        ("linear", "linear"),
        ("expectile:1", "expectile:1"),
        ("piecewise:1,2", "piecewise:1,2"),
        ("cvar:0.75", "cvar:0.75"),
        ("quadlin", "quadlin"),
        ("arctan-bend", "arctan-bend"),
    ],
)
def test_loss_specs_parse_and_validate(spec, name):
    ell = parse_loss_spec(spec)
    assert ell.name == name
    ell.validate()


def test_unknown_loss_spec():
    with pytest.raises(DomainError):
        parse_loss_spec("nope:1")


def test_validate_catches_wrong_flags():
    lying = LossFunction(fn=lambda x: -x, strictly_increasing=True, convex=True, name="lying")
    with pytest.raises(DomainError, match="strictly increasing"):
        lying.validate()
    nonconvex = LossFunction(fn=np.sin, strictly_increasing=False, increasing=False,
                             convex=True, name="sin")
    with pytest.raises(DomainError, match="convexity"):
        nonconvex.validate()


def test_validate_checks_declared_structure():
    fake_entropic = dataclasses.replace(poly2exp_loss(), quad=0.0)  # claims exp:1
    with pytest.raises(DomainError, match="entropic"):
        fake_entropic.validate()
    fake_slopes = dataclasses.replace(quadlin_loss(), slopes=(0.5, 1.0))
    with pytest.raises(DomainError, match="slopes"):
        fake_slopes.validate()


@pytest.mark.parametrize("ell, field", [
    (dataclasses.replace(exponential_loss(1), quad=1.0), "entropic"),  # claims poly2exp
    (dataclasses.replace(poly2exp_loss(), quad=2.0), "entropic"),
    (dataclasses.replace(poly2exp_loss(), entropic=2.0), "entropic"),
    (dataclasses.replace(quadlin_loss(), quad=0.0), "slopes"),  # claims piecewise:0.5,0.5
    (dataclasses.replace(quadlin_loss(), quad=0.5), "slopes"),
    (dataclasses.replace(expectile_loss(1), quad=1.0), "slopes"),
    (LossFunction(fn=lambda x: x + np.square(np.maximum(x, 0.0)), quad=1.0), "quad"),
    (dataclasses.replace(poly2exp_loss(), quad=-1.0), "quad"),
    (dataclasses.replace(poly2exp_loss(), quad=float("inf")), "quad"),
    (dataclasses.replace(poly2exp_loss(), quad=float("nan")), "quad"),
])
def test_validate_checks_declared_quad(ell, field):
    with pytest.raises(DomainError, match=field):
        ell.validate()


def test_normalized_losses():
    for ell in (exponential_loss(1), poly2exp_loss(), expectile_loss(2),
                piecewise_linear_loss(1, 3), cvar_loss(0.9), quadlin_loss(),
                arctan_bend_loss()):
        assert float(ell(0.0)) == 0.0


def test_cvar_loss_is_weakly_increasing_only():
    ell = cvar_loss(0.75)
    assert not ell.strictly_increasing and ell.increasing


def test_distortions_validate():
    for phi in (es_distortion(0.9), identity_distortion(), power_distortion(0.5)):
        phi.validate()
    # the VaR step distortion is increasing but not concave
    var_distortion(0.9).validate()
    assert not var_distortion(0.9).concave


def test_distortion_endpoint_check():
    bad = DistortionFunction(fn=lambda t: 0.5 * t, concave=True, name="bad")
    with pytest.raises(DomainError, match="phi"):
        bad.validate()


def test_adjustment_grid_invariants():
    AdjustmentGrid((0.5, 0.9), (0.0, 0.01))
    with pytest.raises(DomainError):
        AdjustmentGrid((), ())
    with pytest.raises(DomainError):
        AdjustmentGrid((0.9, 0.5), (0.0, 0.01))  # levels not increasing
    with pytest.raises(DomainError):
        AdjustmentGrid((0.5, 0.9), (0.02, 0.01))  # penalties decreasing
    with pytest.raises(DomainError):
        AdjustmentGrid((0.5, 1.0), (0.0, 0.01))  # level at 1


def test_two_level_grid():
    grid = AdjustmentGrid.two_level(q=0.9, p=0.98, c=0.01)
    assert grid.levels == (0.9, 0.98)
    assert grid.penalties == (0.0, 0.01)


def test_weight_specs():
    assert parse_weight_spec("identity").linear
    assert not parse_weight_spec("square").linear
    assert parse_weight_spec("pow:3").convex
    square_weight().validate()
    with pytest.raises(DomainError):
        parse_weight_spec("pow:0.5")  # not convex


def test_distortion_specs():
    assert parse_distortion_spec("es:0.95").concave
    assert not parse_distortion_spec("var:0.95").concave
    with pytest.raises(DomainError):
        parse_distortion_spec("es:1.5")
