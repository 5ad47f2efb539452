"""Tagged risk-measure configurations and their evaluation dispatch.

A ``RiskMeasureSpec`` pins down one functional (VaR, ES, adjusted ES,
distortion, expected loss, certainty equivalent, shortfall, optimized
certainty equivalent, or mean-deviation) together with its parameters, and
evaluates it on single samples or on batches of samples.  Text specs such as
``es:0.95`` or ``shortfall:poly2exp`` are parsed by :func:`parse_measure_spec`
(the grammar the CLI and config files use).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measures as _m
from .errors import DomainError
from .functions import (
    AdjustmentGrid,
    DeviationWeight,
    DistortionFunction,
    LossFunction,
    parse_distortion_spec,
    parse_loss_spec,
    parse_weight_spec,
)
from .sample import as_batch, as_sample

__all__ = ["RiskMeasureSpec", "parse_measure_spec"]

# kind -> its kernel for rows of width n: a function of validated,
# ascending-sorted (m, n) batches, with any weights built once.  The order
# statistics and MMD read a band of each row and build no batch-sized work
# array; the other kinds do, and run in blocks (``measures._in_blocks``).
_KERNELS = {
    "var": lambda s, n: _m._order_stat_kernel(_m._var_weights(n, s.level)),
    "es": lambda s, n: _m._order_stat_kernel(_m._es_weights(n, s.level)),
    "aes": lambda s, n: _m._order_stat_kernel(*_m._aes_weights(n, s.grid)),
    "distortion": lambda s, n: _m._order_stat_kernel(_m._distortion_weights(n, s.phi)),
    "expected_loss": lambda s, n: _m._in_blocks(
        lambda Xs: _m._expected_loss_batch(Xs, s.ell), n),
    "ce": lambda s, n: _m._ce_kernel(n, s.ell),
    "shortfall": lambda s, n: _m._in_blocks(lambda Xs: _m._shortfall_batch(Xs, s.ell), n),
    "oce": lambda s, n: _m._in_blocks(lambda Xs: _m._oce_batch(Xs, s.ell), n),
    "mmd": lambda s, n: _m._mmd_kernel(n, s.weight, s.phi),
}


@dataclass(frozen=True)
class RiskMeasureSpec:
    """One configured risk functional; construct via the classmethods."""

    kind: str
    label: str
    level: float | None = None
    grid: AdjustmentGrid | None = None
    phi: DistortionFunction | None = None
    ell: LossFunction | None = None
    weight: DeviationWeight | None = None

    def __post_init__(self):
        if self.kind not in _KERNELS:
            raise DomainError(f"unknown risk measure kind {self.kind!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def var(cls, p: float) -> "RiskMeasureSpec":
        p = _m._check_level(p)
        return cls(kind="var", level=p, label=f"VaR({p:g})")

    @classmethod
    def es(cls, p: float) -> "RiskMeasureSpec":
        p = _m._check_level(p)
        return cls(kind="es", level=p, label=f"ES({p:g})")

    @classmethod
    def aes(cls, grid: AdjustmentGrid) -> "RiskMeasureSpec":
        if not isinstance(grid, AdjustmentGrid):
            grid = AdjustmentGrid(*grid)
        pairs = ",".join(f"{l:g}:{c:g}" for l, c in zip(grid.levels, grid.penalties))
        return cls(kind="aes", grid=grid, label=f"AES({pairs})")

    @classmethod
    def distortion(cls, phi: DistortionFunction) -> "RiskMeasureSpec":
        return cls(kind="distortion", phi=phi, label=f"Distortion({phi.name})")

    @classmethod
    def expected_loss(cls, ell: LossFunction) -> "RiskMeasureSpec":
        return cls(kind="expected_loss", ell=ell, label=f"ExpectedLoss({ell.name})")

    @classmethod
    def certainty_equivalent(cls, ell: LossFunction) -> "RiskMeasureSpec":
        return cls(kind="ce", ell=ell, label=f"CE({ell.name})")

    @classmethod
    def shortfall(cls, ell: LossFunction) -> "RiskMeasureSpec":
        return cls(kind="shortfall", ell=ell, label=f"Shortfall({ell.name})")

    @classmethod
    def oce(cls, ell: LossFunction) -> "RiskMeasureSpec":
        return cls(kind="oce", ell=ell, label=f"OCE({ell.name})")

    @classmethod
    def mmd(cls, weight: DeviationWeight, phi: DistortionFunction) -> "RiskMeasureSpec":
        return cls(kind="mmd", weight=weight, phi=phi, label=f"MMD({weight.name},{phi.name})")

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, sample) -> float:
        """Evaluate the configured functional on one sample."""
        return float(self.evaluate_batch(as_sample(sample)[None, :])[0])

    def evaluate_batch(self, X) -> np.ndarray:
        """Evaluate on a batch of samples (one per row); returns a 1-D array.

        The batch is validated and sorted once; every kernel reads the sorted
        rows, so the values are exactly invariant under permuting atoms.
        """
        Xs = np.sort(as_batch(X), axis=1)
        return self.kernel(Xs.shape[1])(Xs)

    def kernel(self, n: int):
        """This measure as a function of validated, ascending-sorted batches
        of width ``n``.

        Weight rows and penalties are built here, once, so a caller that
        evaluates many batches of one width (the pipeline, one per ticker and
        pair) builds them once per run.  Expected loss, CE, shortfall and
        OCE evaluate a batch in blocks of rows (``measures._in_blocks``), so
        their work arrays take a few blocks of about 256 KB, not a few copies
        of the batch; values are bit for bit those of one call.

        A kernel with a ``lo`` attribute (VaR, ES, adjusted ES and
        distortion, all from ``measures._order_stat_kernel``: a one-hot row's
        column, else the aligned start of the nonzero weights) reads only the
        columns ``lo:`` of each row, so a caller may leave the columns before
        ``lo`` unsorted or unset: the pipeline sorts only that tail band of
        its rolling windows.  A kernel without ``lo`` (MMD and the solvers)
        reads whole rows.
        """
        return _KERNELS[self.kind](self, n)

    @property
    def promises_zero_violations(self) -> bool:
        """True when the configuration is structurally submodular, so a sweep
        reporting any violation indicates a defect rather than a finding."""
        if self.kind in ("es", "oce", "expected_loss"):
            return True
        if self.kind == "distortion":
            return self.phi.concave
        if self.kind == "ce":
            return self.ell.convex
        if self.kind == "mmd":
            return self.weight.linear
        return False


def parse_measure_spec(text: str) -> RiskMeasureSpec:
    """Parse a compact text spec into a ``RiskMeasureSpec``.

    Grammar::

        var:P                 es:P
        aes:L1:C1[,L2:C2...]  level:penalty pairs, levels increasing
        dist:PHI              PHI = es:P | var:P | identity | pow:T
        eloss:LOSS            LOSS = exp:G | poly2exp | linear | expectile:A |
        ce:LOSS                      piecewise:SM,SP | cvar:P | quadlin | arctan-bend
        shortfall:LOSS
        oce:LOSS
        mmd:WEIGHT:PHI        WEIGHT = identity | square | pow:K
    """
    head, _, rest = text.strip().partition(":")
    try:
        if head == "var":
            return RiskMeasureSpec.var(rest)
        if head == "es":
            return RiskMeasureSpec.es(rest)
        if head == "aes":
            pairs = [item.split(":") for item in rest.split(",")]
            levels = tuple(float(a) for a, _ in pairs)
            penalties = tuple(float(b) for _, b in pairs)
            return RiskMeasureSpec.aes(AdjustmentGrid(levels, penalties))
        if head == "dist":
            return RiskMeasureSpec.distortion(parse_distortion_spec(rest))
        if head == "eloss":
            return RiskMeasureSpec.expected_loss(parse_loss_spec(rest))
        if head == "ce":
            return RiskMeasureSpec.certainty_equivalent(parse_loss_spec(rest))
        if head == "shortfall":
            return RiskMeasureSpec.shortfall(parse_loss_spec(rest))
        if head == "oce":
            return RiskMeasureSpec.oce(parse_loss_spec(rest))
        if head == "mmd":
            wtext, _, ptext = rest.partition(":")
            # the weight spec may itself carry one ':' argument (pow:K)
            if wtext == "pow":
                arg, _, ptext = ptext.partition(":")
                wtext = f"pow:{arg}"
            return RiskMeasureSpec.mmd(parse_weight_spec(wtext), parse_distortion_spec(ptext))
    except DomainError:
        raise
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad measure spec {text!r}: {exc}") from exc
    raise DomainError(
        f"unknown measure spec {text!r}; expected one of var|es|aes|dist|eloss|ce|shortfall|oce|mmd"
    )
