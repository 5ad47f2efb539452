"""Grid-based curvature profiles and the linear-dominance feasibility check.

For a twice-differentiable strictly increasing convex loss ``l`` define::

    S(x) = l'(x)            R(x) = l''(x) / l'(x)
    L    = min R over the grid
    h(x) = S(x) (R(x) - 2 L)

``R`` is the relative curvature (nonnegative for convex ``l``); the shortfall
risk built from ``l`` is submodular exactly when some scalar ``lambda``
dominates ``h`` linearly: ``h(x) <= lambda * l(x)`` for all ``x``.  On a grid
the admissible interval is ``[alpha_plus, alpha_minus]`` with::

    alpha_plus  = max over grid points with l(x) > 0 of h(x) / l(x)
    alpha_minus = min over grid points with l(x) < 0 of h(x) / l(x)

feasibility additionally requires ``h(0) <= 0``.  The cheap sufficient
condition ``max R <= 2 min R`` is reported alongside.  All verdicts are
grid-relative: the true conditions quantify over the whole real line, so the
grid bounds are recorded and callers may widen them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .functions import LossFunction

__all__ = ["CurvatureProfile", "DominanceVerdict", "curvature_profile", "linear_dominance_check"]

_FD_STEP = 1e-5
_R_INFINITE = 1e6
_FEAS_TOL = 1e-9
# the most points a stepped grid may have: [-20, 20] at step 1e-5.  A profile
# holds about ten arrays of the grid's size, 32 MB each at the cap, where the
# default grid (step 1e-3) has 40,001 points
_MAX_GRID_POINTS = 4_000_001


@dataclass(frozen=True)
class CurvatureProfile:
    """Curvature diagnostics of a loss function on a closed grid.

    ``r_infinite`` marks grid points where ``|R| > 1e6`` -- effectively
    infinite curvature, the finite-difference signature of a kink.
    ``analytic_derivs`` records whether the loss supplied derivatives or
    central finite differences (step 1e-5) were used.
    """

    grid: np.ndarray
    S_values: np.ndarray
    R_values: np.ndarray
    h_values: np.ndarray
    L: float
    lo: float
    hi: float
    step: float
    analytic_derivs: bool
    r_infinite: np.ndarray


@dataclass(frozen=True)
class DominanceVerdict:
    """Feasibility of linear dominance on a grid.

    ``lambda_interval = (alpha_plus, alpha_minus)`` when feasible, else
    ``None``; ``witnesses`` lists up to three grid points where no tested
    multiplier can dominate.  ``one_sided`` flags a grid with no positive or
    no negative loss values (the missing side is treated as unconstrained).
    """

    feasible: bool
    alpha_plus: float
    alpha_minus: float
    lambda_interval: tuple[float, float] | None
    sufficient_condition_holds: bool
    witnesses: tuple[float, ...]
    one_sided: bool
    grid_lo: float
    grid_hi: float

    def to_dict(self) -> dict:
        """JSON-ready form (infinities become strings), for report export."""

        def _num(v: float):
            return v if np.isfinite(v) else ("inf" if v > 0 else "-inf")

        return {
            "feasible": self.feasible,
            "alpha_plus": _num(self.alpha_plus),
            "alpha_minus": _num(self.alpha_minus),
            "lambda_interval": None if self.lambda_interval is None
            else [_num(self.lambda_interval[0]), _num(self.lambda_interval[1])],
            "sufficient_condition_holds": self.sufficient_condition_holds,
            "witnesses": list(self.witnesses),
            "one_sided": self.one_sided,
            "grid": [self.grid_lo, self.grid_hi],
        }


def _build_grid(lo: float, hi: float, step: float) -> np.ndarray:
    steps = (hi - lo) / step + 1e-9  # inf where hi - lo overflows
    if not steps < _MAX_GRID_POINTS:  # floor(steps) + 1 points, refused before arange
        raise DomainError(
            f"curvature grid [{lo:g}, {hi:g}] at step {step:g} has more than "
            f"{_MAX_GRID_POINTS:,} points; widen the step or narrow the range"
        )
    grid = lo + step * np.arange(math.floor(steps) + 1)
    if grid[-1] < hi - step * 1e-6:
        grid = np.append(grid, hi)
    else:
        grid[-1] = hi
    if lo < 0.0 < hi:
        grid = np.unique(np.append(grid, 0.0))  # the dominance check needs h(0)
    return grid


def curvature_profile(
    ell: LossFunction, lo: float = -20.0, hi: float = 20.0, step: float = 1e-3
) -> CurvatureProfile:
    """Evaluate ``S``, ``R``, ``L`` and ``h`` on the closed grid ``[lo, hi]``.

    Uses the loss's analytic derivatives when present; otherwise central
    finite differences with step 1e-5 (second differences for ``l''``), which
    deliberately lets kinks show up as curvature spikes.  Raises if ``l'``
    fails to be positive anywhere on the grid (strict increase violated).

    Raises ``DomainError`` before allocating anything when ``lo``, ``hi`` or
    ``step`` is not finite, or when the stepped grid would have more than
    ``_MAX_GRID_POINTS`` (4,000,001) points, the default range at step 1e-5:
    at the cap each of the profile's arrays takes 32 MB.
    """
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise DomainError(
            f"curvature grid needs finite lo, hi and step, got {lo!r}, {hi!r}, {step!r}"
        )
    if not lo < hi:
        raise DomainError("curvature grid needs lo < hi")
    if step <= 0:
        raise DomainError("curvature grid needs step > 0")
    grid = _build_grid(float(lo), float(hi), float(step))

    analytic = ell.deriv1 is not None and ell.deriv2 is not None
    if ell.deriv1 is not None:
        S = np.asarray(ell.deriv1(grid), dtype=np.float64)
    else:
        S = (ell.fn(grid + _FD_STEP) - ell.fn(grid - _FD_STEP)) / (2.0 * _FD_STEP)
    if ell.deriv2 is not None:
        d2 = np.asarray(ell.deriv2(grid), dtype=np.float64)
    else:
        d2 = (ell.fn(grid + _FD_STEP) - 2.0 * ell.fn(grid) + ell.fn(grid - _FD_STEP)) / _FD_STEP**2

    if np.any(S <= 0.0) or not np.all(np.isfinite(S)):
        bad = grid[np.argmin(S)]
        raise DomainError(
            f"loss '{ell.name}' has nonpositive derivative near x={bad:g}; "
            "strict increase violated on the grid"
        )
    R = d2 / S
    if ell.convex:
        # convexity guarantees R >= 0; finite-difference rounding can dip
        # mildly below zero, which is floored, while a strongly negative
        # curvature contradicts the declared flag
        noise = np.maximum(1e-10, 8.0 * np.finfo(float).eps * np.abs(ell.fn(grid)) / _FD_STEP**2)
        strongly_negative = R < -noise
        if np.any(strongly_negative):
            bad = grid[np.argmax(strongly_negative)]
            raise DomainError(
                f"loss '{ell.name}' is declared convex but has negative curvature "
                f"near x={bad:g}"
            )
        R = np.maximum(R, 0.0)
    L = float(np.min(R))
    h = S * (R - 2.0 * L)
    return CurvatureProfile(
        grid=grid,
        S_values=S,
        R_values=R,
        h_values=h,
        L=L,
        lo=float(lo),
        hi=float(hi),
        step=float(step),
        analytic_derivs=analytic,
        r_infinite=np.abs(R) > _R_INFINITE,
    )


def linear_dominance_check(profile: CurvatureProfile, ell: LossFunction) -> DominanceVerdict:
    """Decide grid feasibility of ``h(x) <= lambda * l(x)`` for some ``lambda``.

    The profile must have been computed on a grid containing 0 (where the
    condition degenerates to ``h(0) <= 0``).
    """
    grid, h = profile.grid, profile.h_values
    at_zero = np.flatnonzero(grid == 0.0)
    if at_zero.size == 0:
        raise DomainError("dominance check needs a profile grid containing 0")
    h0 = float(h[at_zero[0]])

    lv = np.asarray(ell.fn(grid), dtype=np.float64)
    pos = lv > 0.0
    neg = lv < 0.0
    one_sided = not (pos.any() and neg.any())
    alpha_plus = float(np.max(h[pos] / lv[pos])) + 0.0 if pos.any() else -np.inf
    alpha_minus = float(np.min(h[neg] / lv[neg])) + 0.0 if neg.any() else np.inf

    feasible = (alpha_plus <= alpha_minus + _FEAS_TOL) and (h0 <= _FEAS_TOL)

    witnesses: list[float] = []
    if not feasible:
        if h0 > _FEAS_TOL:
            witnesses.append(0.0)
        if alpha_plus > alpha_minus + _FEAS_TOL:
            witnesses.append(float(grid[pos][np.argmax(h[pos] / lv[pos])]))
            witnesses.append(float(grid[neg][np.argmin(h[neg] / lv[neg])]))

    r_min = float(np.min(profile.R_values))
    r_max = float(np.max(profile.R_values))
    return DominanceVerdict(
        feasible=feasible,
        alpha_plus=alpha_plus,
        alpha_minus=alpha_minus,
        lambda_interval=(alpha_plus, alpha_minus) if feasible else None,
        sufficient_condition_holds=r_max <= 2.0 * r_min,
        witnesses=tuple(witnesses[:3]),
        one_sided=one_sided,
        grid_lo=profile.lo,
        grid_hi=profile.hi,
    )
