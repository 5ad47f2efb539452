"""Loss functions, distortion functions, penalty grids, and deviation weights.

These are the ingredient functions the risk functionals are built from:

* ``LossFunction`` -- a scalar loss transform ``l`` with optional first and
  second derivative callables and declared shape flags.  Built-in losses are
  available by name through :func:`parse_loss_spec` (``exp:1``, ``poly2exp``,
  ``linear``, ``expectile:1``, ``piecewise:1,2``, ``cvar:0.75``, ``quadlin``,
  ``arctan-bend``).
* ``DistortionFunction`` -- an increasing ``phi: [0,1] -> [0,1]`` with
  ``phi(0)=0``, ``phi(1)=1`` used as a probability distortion.
* ``AdjustmentGrid`` -- a finite set of confidence levels with increasing
  penalties, the discrete form of a level-penalty profile.
* ``DeviationWeight`` -- an increasing convex ``g: [0,inf) -> [0,inf)`` with
  ``g(0)=0`` used to reweight a deviation term.

All callables must be vectorized over numpy arrays.  Shape flags are
spot-checked on a grid by the ``validate`` methods; the named constructors
return pre-validated instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "LossFunction",
    "DistortionFunction",
    "AdjustmentGrid",
    "DeviationWeight",
    "exponential_loss",
    "poly2exp_loss",
    "linear_loss",
    "expectile_loss",
    "piecewise_linear_loss",
    "cvar_loss",
    "quadlin_loss",
    "arctan_bend_loss",
    "es_distortion",
    "var_distortion",
    "identity_distortion",
    "power_distortion",
    "identity_weight",
    "square_weight",
    "power_weight",
    "parse_loss_spec",
    "parse_distortion_spec",
    "parse_weight_spec",
]

_CHECK_GRID = np.linspace(-5.0, 5.0, 201)


@dataclass(frozen=True)
class LossFunction:
    """A scalar loss transform with optional derivatives and shape flags.

    Attributes:
        fn: vectorized evaluator, ndarray -> ndarray.
        deriv1: optional first derivative (``None`` means finite differences).
        deriv2: optional second derivative.
        strictly_increasing: declared strict monotonicity.
        increasing: declared weak monotonicity (implied by strict).
        convex: declared convexity.
        normalized: ``fn(0) == 0``.
        name: short identifier used in labels and reports.
        entropic: ``g`` when ``fn`` is ``exp(g x) - 1``; the certainty
            equivalent, shortfall and OCE then have closed forms.
        slopes: ``(s_minus, s_plus)`` when ``fn`` is piecewise linear with
            slope ``s_minus`` below 0 and ``s_plus`` above; the certainty
            equivalent, shortfall and OCE then have exact O(n) forms.

    ``entropic`` and ``slopes`` describe ``fn`` and are trusted by the
    solvers; only the named constructors set them, and ``validate`` checks
    them against ``fn`` on the check grid.  Both survive
    ``dataclasses.replace(ell, fn=...)``, so the replacement must compute the
    same function.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    deriv1: Callable[[np.ndarray], np.ndarray] | None = None
    deriv2: Callable[[np.ndarray], np.ndarray] | None = None
    strictly_increasing: bool = True
    increasing: bool = True
    convex: bool = True
    normalized: bool = False
    name: str = "custom"
    entropic: float | None = None
    slopes: tuple[float, float] | None = None

    def __post_init__(self):
        if self.strictly_increasing and not self.increasing:
            object.__setattr__(self, "increasing", True)

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=np.float64))

    def validate(self, grid: np.ndarray = _CHECK_GRID) -> "LossFunction":
        """Spot-check the declared flags and structure on a grid; raise
        DomainError on violation."""
        grid = np.asarray(grid, dtype=np.float64)
        v = self.fn(grid)
        if self.strictly_increasing and not np.all(np.diff(v) > 0):
            raise DomainError(f"loss '{self.name}' is not strictly increasing on the check grid")
        if self.increasing and not np.all(np.diff(v) >= 0):
            raise DomainError(f"loss '{self.name}' is not increasing on the check grid")
        if self.convex:
            mid = self.fn((grid[:-1] + grid[1:]) / 2.0)
            if not np.all(mid <= (v[:-1] + v[1:]) / 2.0 + 1e-12):
                raise DomainError(f"loss '{self.name}' fails midpoint convexity on the check grid")
        if self.normalized and abs(float(self.fn(np.array(0.0)))) > 1e-12:
            raise DomainError(f"loss '{self.name}' declared normalized but fn(0) != 0")
        g = self.entropic
        if g is not None and not np.allclose(v, np.expm1(g * grid), rtol=1e-12, atol=1e-12):
            raise DomainError(f"loss '{self.name}' declares entropic={g:g} but is not "
                              f"exp({g:g} x) - 1 on the check grid")
        if self.slopes is not None:
            sm, sp = self.slopes
            if not np.allclose(v, np.where(grid <= 0.0, sm * grid, sp * grid),
                               rtol=1e-12, atol=1e-12):
                raise DomainError(f"loss '{self.name}' declares slopes={sm:g},{sp:g} but is "
                                  "not piecewise linear with them on the check grid")
        return self


@dataclass(frozen=True)
class DistortionFunction:
    """An increasing probability distortion ``phi: [0,1] -> [0,1]``.

    ``phi(0) = 0`` and ``phi(1) = 1`` must hold exactly; concavity is a
    declared flag spot-checked by ``validate``.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    concave: bool = True
    name: str = "custom"

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=np.float64))

    def validate(self, n_grid: int = 201) -> "DistortionFunction":
        t = np.linspace(0.0, 1.0, n_grid)
        v = self.fn(t)
        if abs(float(v[0])) > 1e-12 or abs(float(v[-1]) - 1.0) > 1e-12:
            raise DomainError(f"distortion '{self.name}' must satisfy phi(0)=0, phi(1)=1")
        if not np.all(np.diff(v) >= -1e-12):
            raise DomainError(f"distortion '{self.name}' is not increasing on [0,1]")
        if self.concave:
            mid = self.fn((t[:-1] + t[1:]) / 2.0)
            if not np.all(mid >= (v[:-1] + v[1:]) / 2.0 - 1e-12):
                raise DomainError(f"distortion '{self.name}' fails midpoint concavity")
        return self


@dataclass(frozen=True)
class AdjustmentGrid:
    """Finite confidence levels with increasing penalties.

    ``levels`` must be strictly increasing inside ``[0, 1)``; ``penalties``
    must be finite, nonnegative, and increasing along the levels.  The
    two-level form ``max(ES_q, ES_p - c)`` is the length-2 grid with levels
    ``(q, p)`` and penalties ``(0, c)``.
    """

    levels: tuple[float, ...]
    penalties: tuple[float, ...]

    def __post_init__(self):
        lv = tuple(float(p) for p in self.levels)
        pn = tuple(float(c) for c in self.penalties)
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "penalties", pn)
        if len(lv) == 0:
            raise DomainError("adjustment grid must contain at least one level")
        if len(lv) != len(pn):
            raise DomainError("levels and penalties must have equal length")
        if not all(0.0 <= p < 1.0 for p in lv):
            raise DomainError("levels must lie in [0, 1)")
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise DomainError("levels must be strictly increasing")
        if not all(np.isfinite(pn)) or any(c < 0 for c in pn):
            raise DomainError("penalties must be finite and nonnegative")
        if any(d < c for c, d in zip(pn, pn[1:])):
            raise DomainError("penalties must be increasing along levels")

    @classmethod
    def two_level(cls, q: float, p: float, c: float) -> "AdjustmentGrid":
        """The ``max(ES_q, ES_p - c)`` profile with ``q < p``."""
        return cls(levels=(q, p), penalties=(0.0, c))


@dataclass(frozen=True)
class DeviationWeight:
    """An increasing convex ``g: [0,inf) -> [0,inf)`` with ``g(0)=0``, non-constant."""

    fn: Callable[[np.ndarray], np.ndarray]
    convex: bool = True
    linear: bool = False
    name: str = "custom"

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=np.float64))

    def validate(self, hi: float = 5.0, n_grid: int = 101) -> "DeviationWeight":
        t = np.linspace(0.0, hi, n_grid)
        v = self.fn(t)
        if abs(float(v[0])) > 1e-12:
            raise DomainError(f"weight '{self.name}' must satisfy g(0)=0")
        if not np.all(np.diff(v) >= -1e-12):
            raise DomainError(f"weight '{self.name}' is not increasing")
        mid = self.fn((t[:-1] + t[1:]) / 2.0)
        if not np.all(mid <= (v[:-1] + v[1:]) / 2.0 + 1e-12):
            raise DomainError(f"weight '{self.name}' fails midpoint convexity")
        if float(v[-1]) <= 1e-12:
            raise DomainError(f"weight '{self.name}' looks constant (non-constant required)")
        return self


# ---------------------------------------------------------------------------
# named loss functions


def exponential_loss(gamma: float = 1.0) -> LossFunction:
    """``l(x) = exp(gamma x) - 1`` for ``gamma > 0``; constant relative curvature."""
    if not 0 < gamma < np.inf:
        raise DomainError("exponential loss requires finite gamma > 0")
    g = float(gamma)
    return LossFunction(
        fn=lambda x: np.expm1(g * x),
        deriv1=lambda x: g * np.exp(g * x),
        deriv2=lambda x: g * g * np.exp(g * x),
        strictly_increasing=True,
        convex=True,
        normalized=True,
        name=f"exp:{g:g}",
        entropic=g,
    )


def poly2exp_loss() -> LossFunction:
    """``l(x) = exp(2x) + exp(x) - 2``; curvature ratio strictly between 1 and 2."""
    return LossFunction(
        fn=lambda x: np.exp(2.0 * x) + np.exp(x) - 2.0,
        deriv1=lambda x: 2.0 * np.exp(2.0 * x) + np.exp(x),
        deriv2=lambda x: 4.0 * np.exp(2.0 * x) + np.exp(x),
        strictly_increasing=True,
        convex=True,
        normalized=True,
        name="poly2exp",
    )


def linear_loss() -> LossFunction:
    """``l(x) = x``; the identity loss (mean case)."""
    return LossFunction(
        fn=lambda x: np.asarray(x, dtype=np.float64).copy(),
        deriv1=lambda x: np.ones_like(np.asarray(x, dtype=np.float64)),
        deriv2=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        strictly_increasing=True,
        convex=True,
        normalized=True,
        name="linear",
        slopes=(1.0, 1.0),
    )


def expectile_loss(a: float) -> LossFunction:
    """``l(x) = x + a*max(x, 0)`` for ``a >= 0``; kinked at the origin.

    Derivatives are deliberately left to finite differences so grid-based
    curvature sees the kink.
    """
    if not 0 <= a < np.inf:
        raise DomainError("expectile loss requires finite a >= 0")
    aa = float(a)
    return LossFunction(
        fn=lambda x: x + aa * np.maximum(x, 0.0),
        strictly_increasing=True,
        convex=True,
        normalized=True,
        name=f"expectile:{aa:g}",
        slopes=(1.0, 1.0 + aa),
    )


def piecewise_linear_loss(s_minus: float, s_plus: float) -> LossFunction:
    """Slope ``s_minus`` on the losses' left half-line and ``s_plus`` on the right.

    Requires finite ``0 < s_minus <= s_plus`` (convexity).
    """
    if not 0 < s_minus <= s_plus < np.inf:
        raise DomainError("piecewise loss requires finite 0 < s_minus <= s_plus")
    sm, sp = float(s_minus), float(s_plus)
    return LossFunction(
        fn=lambda x: np.where(x <= 0, sm * x, sp * x),
        strictly_increasing=True,
        convex=True,
        normalized=True,
        name=f"piecewise:{sm:g},{sp:g}",
        slopes=(sm, sp),
    )


def cvar_loss(p: float) -> LossFunction:
    """``l(x) = max(x, 0) / (1 - p)``; the positive-part loss whose optimized
    certainty equivalent is the expected shortfall at level ``p``.

    Only weakly increasing (flat on the negative half-line).
    """
    if not 0 < p < 1:
        raise DomainError("cvar loss requires 0 < p < 1")
    scale = 1.0 / (1.0 - float(p))
    return LossFunction(
        fn=lambda x: scale * np.maximum(x, 0.0),
        strictly_increasing=False,
        increasing=True,
        convex=True,
        normalized=True,
        name=f"cvar:{p:g}",
        slopes=(0.0, scale),
    )


def quadlin_loss() -> LossFunction:
    """``l(x) = x/2 + x^2 * 1{x > 0}``; linear below zero, quadratic above.

    Slope 1/2 on the left and unbounded on the right, so its optimized
    certainty equivalent has a finite interior minimizer on every sample.
    """
    return LossFunction(
        fn=lambda x: 0.5 * x + np.square(np.maximum(x, 0.0)),
        deriv1=lambda x: 0.5 + 2.0 * np.maximum(x, 0.0),
        strictly_increasing=True,
        convex=True,
        normalized=True,
        name="quadlin",
    )


def arctan_bend_loss() -> LossFunction:
    """``l(x) = x + arctan(x)``; strictly increasing but not convex.

    Concave on the positive half-line, which breaks midpoint concavity of the
    inverse -- a stock example of a non-convex certainty-equivalent loss.
    """
    return LossFunction(
        fn=lambda x: x + np.arctan(x),
        deriv1=lambda x: 1.0 + 1.0 / (1.0 + np.square(x)),
        deriv2=lambda x: -2.0 * x / np.square(1.0 + np.square(x)),
        strictly_increasing=True,
        convex=False,
        normalized=True,
        name="arctan-bend",
    )


# ---------------------------------------------------------------------------
# named distortions and deviation weights


def es_distortion(p: float) -> DistortionFunction:
    """``phi(t) = min(t / (1 - p), 1)``; the concave distortion of expected shortfall."""
    if not 0 < p < 1:
        raise DomainError("es distortion requires 0 < p < 1")
    tail = 1.0 - float(p)
    return DistortionFunction(
        fn=lambda t: np.minimum(t / tail, 1.0), concave=True, name=f"es:{p:g}"
    )


def var_distortion(p: float) -> DistortionFunction:
    """Step distortion whose Choquet integral is the k-th largest loss.

    The step is closed at the tail threshold (``phi(t) = 1{t >= 1 - p}``, with
    a 1e-12 guard against rounding of ``1 - p``), so on an ``n``-atom sample
    the unit weight falls at position ``ceil(n (1 - p))`` -- the same
    conservative convention as the order-statistic VaR -- for every level,
    including integer ``n (1 - p)``.  Not concave.
    """
    if not 0 < p < 1:
        raise DomainError("var distortion requires 0 < p < 1")
    tail = 1.0 - float(p)
    return DistortionFunction(
        fn=lambda t: (np.asarray(t, dtype=np.float64) >= tail - 1e-12).astype(np.float64),
        concave=False,
        name=f"var:{p:g}",
    )


def identity_distortion() -> DistortionFunction:
    """``phi(t) = t``; the undistorted case (expectation)."""
    return DistortionFunction(
        fn=lambda t: np.asarray(t, dtype=np.float64).copy(), concave=True, name="identity"
    )


def power_distortion(theta: float) -> DistortionFunction:
    """``phi(t) = t**theta``; concave for ``theta <= 1``."""
    if not 0 < theta < np.inf:
        raise DomainError("power distortion requires finite theta > 0")
    th = float(theta)
    return DistortionFunction(
        fn=lambda t: np.power(t, th), concave=th <= 1.0, name=f"pow:{th:g}"
    )


def identity_weight() -> DeviationWeight:
    """``g(t) = t``; the linear deviation weight."""
    return DeviationWeight(
        fn=lambda t: np.asarray(t, dtype=np.float64).copy(),
        convex=True,
        linear=True,
        name="identity",
    )


def square_weight() -> DeviationWeight:
    """``g(t) = t**2``; strictly convex everywhere on the positive axis."""
    return DeviationWeight(fn=np.square, convex=True, linear=False, name="square")


def power_weight(k: float) -> DeviationWeight:
    """``g(t) = t**k`` for ``k >= 1``."""
    if not 1 <= k < np.inf:
        raise DomainError("power weight requires finite k >= 1 (convexity)")
    kk = float(k)
    return DeviationWeight(
        fn=lambda t: np.power(t, kk), convex=True, linear=kk == 1.0, name=f"pow:{kk:g}"
    )


# ---------------------------------------------------------------------------
# text spec parsers (used by the CLI and config files)

_LOSS_HELP = "exp:G | poly2exp | linear | expectile:A | piecewise:SM,SP | cvar:P | quadlin | arctan-bend"


def parse_loss_spec(text: str) -> LossFunction:
    """Build a named loss from a compact text spec (see ``_LOSS_HELP``)."""
    head, _, rest = text.strip().partition(":")
    try:
        if head == "exp":
            return exponential_loss(float(rest or 1.0))
        if head == "poly2exp":
            return poly2exp_loss()
        if head == "linear":
            return linear_loss()
        if head == "expectile":
            return expectile_loss(float(rest))
        if head == "piecewise":
            sm, sp = (float(v) for v in rest.split(","))
            return piecewise_linear_loss(sm, sp)
        if head == "cvar":
            return cvar_loss(float(rest))
        if head == "quadlin":
            return quadlin_loss()
        if head == "arctan-bend":
            return arctan_bend_loss()
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad loss spec {text!r}: {exc}") from exc
    raise DomainError(f"unknown loss spec {text!r}; expected one of: {_LOSS_HELP}")


def parse_distortion_spec(text: str) -> DistortionFunction:
    """Build a named distortion from ``es:P | var:P | identity | pow:T``."""
    head, _, rest = text.strip().partition(":")
    try:
        if head == "es":
            return es_distortion(float(rest))
        if head == "var":
            return var_distortion(float(rest))
        if head == "identity":
            return identity_distortion()
        if head == "pow":
            return power_distortion(float(rest))
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad distortion spec {text!r}: {exc}") from exc
    raise DomainError(f"unknown distortion spec {text!r}; expected es:P | var:P | identity | pow:T")


def parse_weight_spec(text: str) -> DeviationWeight:
    """Build a named deviation weight from ``identity | square | pow:K``."""
    head, _, rest = text.strip().partition(":")
    try:
        if head == "identity":
            return identity_weight()
        if head == "square":
            return square_weight()
        if head == "pow":
            return power_weight(float(rest))
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad weight spec {text!r}: {exc}") from exc
    raise DomainError(f"unknown weight spec {text!r}; expected identity | square | pow:K")
