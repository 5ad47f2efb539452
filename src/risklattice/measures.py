"""Exact evaluation of law-invariant risk functionals on finite samples.

Every functional here consumes a loss vector on an equal-weight atom space
and is evaluated exactly on the empirical distribution:

* ``var_historical``   -- k-th largest loss, ``k = ceil(n (1-p))``.
* ``es_historical``    -- arithmetic mean of the ``k`` largest losses.
* ``aes``              -- ``max`` over a level grid of ``ES_level - penalty``.
* ``distortion_rho``   -- Choquet integral ``sum L_(i) [phi(i/n) - phi((i-1)/n)]``
  on descending order statistics, the exact Choquet value of the empirical law.
* ``expected_loss``    -- ``mean(l(x_i))``.
* ``certainty_equivalent`` -- ``l^{-1}(mean(l(x_i)))`` by monotone bisection.
* ``shortfall_rho``    -- the unique root ``m`` of ``sum l(x_i - m) = 0`` for a
  normalized, strictly increasing convex ``l`` (bisection; the residual is
  strictly decreasing in ``m``).
* ``oce``              -- ``min_m { m + mean(l(x_i - m)) }`` by ternary section.
* ``mmd_rho``          -- ``g(distortion - mean) + mean`` for a concave
  distortion and an increasing convex deviation weight.

Scalar functions wrap batched kernels (module-private ``_*_batch``) that
evaluate many samples at once.  Kernels take ascending-sorted rows and sort
nothing: the scalar functions sort their sample and
``RiskMeasureSpec.evaluate_batch`` sorts its batch once, so law invariance
under permutation of the atoms is exact, not just within tolerance.  VaR, ES,
adjusted ES, distortion and the distortion term of ``mmd_rho`` are one
order-statistic kernel, ``max_r (x_sorted . w_r - c_r)`` over a few weight
rows (one-hot, ``1/k`` on the top ``k``, one ES row per AES level, Choquet
weights).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError
from .functions import AdjustmentGrid, DeviationWeight, DistortionFunction, LossFunction
from .sample import as_sample

__all__ = [
    "var_historical",
    "es_historical",
    "aes",
    "distortion_rho",
    "expected_loss",
    "certainty_equivalent",
    "shortfall_rho",
    "oce",
    "mmd_rho",
]

# Root-finding / optimization knobs: bisection is unconditionally safe on the
# monotone residuals used here, so plain bisection with a tight absolute
# tolerance is preferred over faster but conditional schemes.
_M_TOL = 1e-12
_MAX_BISECT = 200
_MAX_TERNARY = 260
_MAX_EXPAND = 60


def _top_k(n: int, p: float) -> int:
    """``k = ceil(n (1-p))`` with a guard so exact-integer products do not
    round up one order statistic under floating-point error."""
    t = n * (1.0 - p)
    return max(1, min(n, math.ceil(t - 1e-9)))


def _check_level(p: float) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"confidence level must lie in (0, 1), got {p}")
    return p


# ---------------------------------------------------------------------------
# order-statistic functionals: one kernel over weight rows + scalar wrappers


def _order_stat_batch(Xs: np.ndarray, W, penalties=None) -> np.ndarray:
    """``max_r (Xs . W[r] - penalties[r])`` over ascending-sorted rows ``Xs``.

    ``einsum`` reduces a row the same way wherever it sits in the batch (BLAS
    ``@`` does not), so equal rows get bit-equal values; dominated-pair gaps
    are therefore exactly 0.
    """
    vals = np.einsum("ij,rj->ri", Xs, np.atleast_2d(W))
    if penalties is not None:
        vals -= np.reshape(penalties, (-1, 1))
    return vals.max(axis=0)


def _var_weights(n: int, p: float) -> np.ndarray:
    w = np.zeros(n)
    w[n - _top_k(n, p)] = 1.0
    return w


def _es_weights(n: int, p: float) -> np.ndarray:
    # accepts levels in [0, 1): level 0 averages the whole sample
    k = n if p == 0.0 else _top_k(n, p)
    w = np.zeros(n)
    w[n - k :] = 1.0 / k
    return w


def _aes_weights(n: int, grid: AdjustmentGrid) -> tuple[np.ndarray, tuple[float, ...]]:
    return np.stack([_es_weights(n, p) for p in grid.levels]), grid.penalties


def _distortion_weights(n: int, phi: DistortionFunction) -> np.ndarray:
    # Choquet weights phi(i/n) - phi((i-1)/n) on descending order statistics,
    # reversed to line up with ascending rows
    t = np.arange(n + 1, dtype=np.float64) / n
    return np.diff(phi.fn(t))[::-1]


def _sorted_row(sample) -> np.ndarray:
    """One validated sample as an ascending ``(1, n)`` batch."""
    return np.sort(as_sample(sample))[None, :]


def var_historical(sample, p: float) -> float:
    """Value-at-Risk: the k-th largest loss with ``k = ceil(n (1-p))``.

    Cash-invariant and positively homogeneous by construction (it is an order
    statistic).  Conservative in finite samples when ``n (1-p)`` is an integer.
    """
    xs = _sorted_row(sample)
    return float(_order_stat_batch(xs, _var_weights(xs.shape[1], _check_level(p)))[0])


def es_historical(sample, p: float) -> float:
    """Expected Shortfall: the mean of the ``k = ceil(n (1-p))`` largest losses.

    Dominates ``var_historical`` at the same level.
    """
    xs = _sorted_row(sample)
    return float(_order_stat_batch(xs, _es_weights(xs.shape[1], _check_level(p)))[0])


def aes(sample, grid: AdjustmentGrid) -> float:
    """Adjusted Expected Shortfall over a finite level grid.

    ``max`` over grid entries of ``ES_level(sample) - penalty``.  The grid
    stands in for a supremum over all levels; resolution is the caller's
    responsibility.  Level ``0`` is admitted and evaluates to the sample mean.
    """
    xs = _sorted_row(sample)
    if not isinstance(grid, AdjustmentGrid):
        grid = AdjustmentGrid(*grid)
    return float(_order_stat_batch(xs, *_aes_weights(xs.shape[1], grid))[0])


def distortion_rho(sample, phi: DistortionFunction) -> float:
    """Distortion risk measure: the exact Choquet integral of the empirical law.

    With losses sorted descending ``L_(1) >= ... >= L_(n)`` the value is
    ``sum_i L_(i) (phi(i/n) - phi((i-1)/n))``.  Comonotonic-additive on samples
    sorted by a common permutation; coherent exactly when ``phi`` is concave.
    """
    xs = _sorted_row(sample)
    return float(_order_stat_batch(xs, _distortion_weights(xs.shape[1], phi))[0])


# ---------------------------------------------------------------------------
# expected loss and certainty equivalent


def _expected_loss_batch(Xs: np.ndarray, ell: LossFunction) -> np.ndarray:
    return ell.fn(Xs).mean(axis=1)


def expected_loss(sample, ell: LossFunction) -> float:
    """``mean(l(x_i))``; exactly modular (both submodular and supermodular)."""
    return float(_expected_loss_batch(_sorted_row(sample), ell)[0])


def _ce_batch(Xs: np.ndarray, ell: LossFunction) -> np.ndarray:
    if not ell.strictly_increasing:
        raise DomainError("certainty equivalent requires a strictly increasing loss")
    target = ell.fn(Xs).mean(axis=1)
    lo = Xs[:, 0].copy()
    hi = Xs[:, -1].copy()
    # The inverse lives inside the sample range; expand only to absorb
    # boundary round-off, failing after a capped number of doublings.
    width = np.maximum(hi - lo, 1.0)
    for _ in range(_MAX_EXPAND):
        bad_lo = ell.fn(lo) > target
        bad_hi = ell.fn(hi) < target
        if not (bad_lo.any() or bad_hi.any()):
            break
        lo = np.where(bad_lo, lo - width, lo)
        hi = np.where(bad_hi, hi + width, hi)
        width = width * 2.0
    else:
        raise NumericError(
            "certainty equivalent: mean loss value not bracketed by the loss range "
            "after expansion cap"
        )
    for _ in range(_MAX_BISECT):
        if float(np.max(hi - lo)) <= _M_TOL:
            break
        mid = 0.5 * (lo + hi)
        below = ell.fn(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def certainty_equivalent(sample, ell: LossFunction) -> float:
    """``l^{-1}(mean(l(x_i)))`` for a strictly increasing loss ``l``.

    The generalized inverse is evaluated by monotone bisection on a bracket
    containing the sample range.  ``certainty_equivalent([c, ..., c]) == c``;
    the functional is submodular exactly when ``l`` is convex.
    """
    return float(_ce_batch(_sorted_row(sample), ell)[0])


# ---------------------------------------------------------------------------
# shortfall risk (implicit root)


def _shortfall_batch(Xs: np.ndarray, ell: LossFunction) -> np.ndarray:
    if not (ell.strictly_increasing and ell.convex):
        raise DomainError(
            "shortfall risk requires a strictly increasing convex loss "
            f"(got flags strictly_increasing={ell.strictly_increasing}, convex={ell.convex})"
        )
    n = Xs.shape[1]
    # silent normalization: subtracting l(0) leaves the root unchanged
    ell0 = float(ell.fn(np.array(0.0)))

    def resid(m: np.ndarray) -> np.ndarray:
        return ell.fn(Xs - m[:, None]).sum(axis=1) - n * ell0

    lo = Xs[:, 0] - 1.0
    hi = Xs[:, -1] + 1.0
    width = hi - lo
    for _ in range(_MAX_EXPAND):
        bad_lo = resid(lo) <= 0.0
        bad_hi = resid(hi) >= 0.0
        if not (bad_lo.any() or bad_hi.any()):
            break
        lo = np.where(bad_lo, lo - width, lo)
        hi = np.where(bad_hi, hi + width, hi)
        width = width * 2.0
    else:
        raise NumericError("shortfall: residual not sign-changing after bracket expansion cap")
    for _ in range(_MAX_BISECT):
        if float(np.max(hi - lo)) <= _M_TOL:
            break
        mid = 0.5 * (lo + hi)
        above = resid(mid) > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    m_hat = 0.5 * (lo + hi)
    # Residual guard.  The absolute part is n * 1e-10; the slope-proportional
    # part keeps steep losses (large l' over the sample span) from tripping
    # the guard when m itself is converged to 1e-12.
    r = resid(m_hat)
    d = 1e-6
    slope = np.abs(resid(m_hat - d) - resid(m_hat + d)) / (2.0 * d)
    tol = n * 1e-10 + slope * 1e-11
    if np.any(np.abs(r) > tol):
        raise NumericError("shortfall: residual check failed after bisection")
    return m_hat


def shortfall_rho(sample, ell: LossFunction) -> float:
    """Shortfall risk: the unique ``m`` with ``sum l(x_i - m) = 0``.

    ``l`` must be strictly increasing and convex; ``l(0)`` is subtracted
    internally so normalization is not required of the caller.  The residual
    is strictly decreasing in ``m``, so bisection on ``[min(x)-1, max(x)+1]``
    (expanded if needed) converges unconditionally.  Cash-invariant:
    ``shortfall_rho(x + c) = shortfall_rho(x) + c`` within root tolerance.
    """
    return float(_shortfall_batch(_sorted_row(sample), ell)[0])


# ---------------------------------------------------------------------------
# optimized certainty equivalent (1-D convex minimization)


def _oce_batch(Xs: np.ndarray, ell: LossFunction) -> np.ndarray:
    if not (ell.increasing and ell.convex):
        raise DomainError("optimized certainty equivalent requires an increasing convex loss")

    def f(m: np.ndarray) -> np.ndarray:
        return m + ell.fn(Xs - m[:, None]).mean(axis=1)

    lo = Xs[:, 0] - 1.0
    hi = Xs[:, -1] + 1.0
    # Expand until the convex objective increases outward at both ends, so the
    # minimizer is interior.  A side that keeps decreasing past the cap means
    # the objective is unbounded below (loss slope < 1 everywhere, or > 1
    # everywhere), which is a domain error, not a convergence failure.
    width = hi - lo
    for _ in range(_MAX_EXPAND):
        delta = 1e-6 * width
        dec_left = f(lo) < f(lo + delta)
        dec_right = f(hi) < f(hi - delta)
        if not (dec_left.any() or dec_right.any()):
            break
        lo = np.where(dec_left, lo - width, lo)
        hi = np.where(dec_right, hi + width, hi)
        width = hi - lo
    else:
        raise DomainError(
            "optimized certainty equivalent objective is unbounded below "
            "(non-finite infimum; check the loss slopes against 1)"
        )
    for _ in range(_MAX_TERNARY):
        if float(np.max(hi - lo)) <= _M_TOL:
            break
        third = (hi - lo) / 3.0
        m1 = lo + third
        m2 = hi - third
        left = f(m1) <= f(m2)
        hi = np.where(left, m2, hi)
        lo = np.where(left, lo, m1)
    return f(0.5 * (lo + hi))


def oce(sample, ell: LossFunction) -> float:
    """Optimized certainty equivalent: ``min_m { m + mean(l(x_i - m)) }``.

    The objective is convex in ``m``; the minimizer is bracketed by expanding
    ``[min(x)-1, max(x)+1]`` until the objective increases at both ends, then
    located by ternary section to width 1e-12.  Ties in flat regions are
    resolved by returning the value at the bracket midpoint -- the objective
    value, not the minimizer, is the contract.  Always submodular for
    increasing convex ``l``.
    """
    return float(_oce_batch(_sorted_row(sample), ell)[0])


# ---------------------------------------------------------------------------
# monotone mean-deviation measure


def _mmd_batch(Xs: np.ndarray, weight: DeviationWeight, phi: DistortionFunction) -> np.ndarray:
    if not phi.concave:
        raise DomainError("mean-deviation measure requires a concave distortion")
    n = Xs.shape[1]
    mean = Xs.mean(axis=1)
    dev = _order_stat_batch(Xs, _distortion_weights(n, phi)) - mean
    # dev is a difference of two weighted sums whose weights add to 1; rounding
    # moves each by a few n ulps of the row's largest magnitude, so only a
    # larger negative dev means a non-concave weight grid.
    tol = 8.0 * n * np.finfo(np.float64).eps * np.maximum(-Xs[:, 0], Xs[:, -1])
    if np.any(dev < -tol):
        raise NumericError(
            "negative deviation encountered; the supplied distortion "
            "is not concave on the sample's weight grid"
        )
    return weight.fn(np.maximum(dev, 0.0)) + mean


def mmd_rho(sample, g: DeviationWeight, phi: DistortionFunction) -> float:
    """Monotone mean-deviation measure: ``g(distortion - mean) + mean``.

    Requires a concave distortion, which guarantees the deviation
    ``distortion_rho(x, phi) - mean(x)`` is nonnegative (asserted within a
    rounding tolerance scaled to ``n max|x|``).  Cash-invariant; reduces to ``distortion_rho`` for ``g(t) = t``
    and to the mean for the identity distortion.
    """
    return float(_mmd_batch(_sorted_row(sample), g, phi)[0])
