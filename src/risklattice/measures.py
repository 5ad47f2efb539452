"""Exact evaluation of law-invariant risk functionals on finite samples.

Every functional here consumes a loss vector on an equal-weight atom space
and is evaluated exactly on the empirical distribution:

* ``var_historical``   -- k-th largest loss, ``k = ceil(n (1-p))``.
* ``es_historical``    -- arithmetic mean of the ``k`` largest losses.
* ``aes``              -- ``max`` over a level grid of ``ES_level - penalty``.
* ``distortion_rho``   -- Choquet integral ``sum L_(i) [phi(i/n) - phi((i-1)/n)]``
  on descending order statistics, the exact Choquet value of the empirical law.
* ``expected_loss``    -- ``mean(l(x_i))``.
* ``certainty_equivalent`` -- ``l^{-1}(mean(l(x_i)))``.
* ``shortfall_rho``    -- the unique root ``m`` of ``sum l(x_i - m) = 0`` for a
  strictly increasing convex ``l``.
* ``oce``              -- ``min_m { m + mean(l(x_i - m)) }``; for ``exp:g`` the
  entropic measure plus ``(1 + ln g - g) / g``.
* ``mmd_rho``          -- ``g(distortion - mean) + mean`` for a concave
  distortion and an increasing convex deviation weight.

Scalar functions wrap batched kernels (module-private ``_*_batch`` and
``_*_kernel``) that evaluate many samples at once.  Kernels take
ascending-sorted rows and sort nothing: the scalar functions sort their
sample and ``RiskMeasureSpec.evaluate_batch`` sorts its batch once, so law
invariance under permutation of the atoms is exact, not just within
tolerance.  VaR, ES, adjusted ES, distortion and the distortion term of
``mmd_rho`` are one order-statistic kernel (``_order_stat_kernel``),
``max_r (x_sorted . w_r - c_r)`` over a few weight rows (one-hot, ``1/k`` on
the top ``k``, one ES row per AES level, Choquet weights), reduced only over
the tail band where the weights are nonzero; a lone one-hot row is read as
its column.

The certainty equivalent, shortfall and OCE have closed forms for the losses
whose ``LossFunction`` declares its structure.  For ``exp:g``
(``entropic=g``) CE and shortfall are the entropic measure
``log(mean exp(g x)) / g`` (Follmer and Schied), computed shifted by the row's
max with ``expm1``/``log1p``.  For the piecewise-linear losses ``linear``,
``expectile:a``, ``piecewise:sm,sp`` and ``cvar:p`` (``slopes``, one kink at
0) the shortfall residual and the OCE objective are linear between order
statistics, so suffix sums over the sorted row give the exact root or
minimum in O(n); ``OCE(cvar:p)`` is ES (Rockafellar and Uryasev).  A
``quad`` term on top makes each of the three a quadratic root per row:
``poly2exp`` (``exp(2x) + exp(x) - 2``) is one in ``exp(+-m)`` from the
row's sums of ``exp(x)`` and ``exp(2x)``, and ``quadlin`` (``x/2 +
max(x, 0)^2``) one on the piece between order statistics where the
shortfall residual, or the OCE's ``mean l'(x - m) - 1``, changes sign.
Every other loss (``arctan-bend``, custom losses) goes to one bracketed
solver that bisects each row, for the CE and shortfall roots and the OCE
minimum alike, and stops it at a few ulps of that row's own scale, so a value
does not depend on the rest of its batch and keeps its relative precision at
any sample scale.

Expected loss, CE, shortfall and OCE build work arrays as large as their
batch, so ``RiskMeasureSpec.kernel`` runs them on blocks of rows
(``_in_blocks``) of ``_BLOCK_BYTES``, 256 KB, or of ``_BLOCK_MIN_ROWS``
rows where that is more: a row's value does not depend on its batch, so the
values are bit for bit those of one call, and the work arrays take a few
blocks.  An error that names a batch row names its row of the whole batch.
The order-statistic kernels, MMD's included, build no such array and take
the whole batch in one call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError, RiskLatticeError
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

# Bracketed-solver caps, for the losses without a closed form (arctan-bend
# and custom losses).  A finite bracket is under 2**1025 wide and a row stops
# at 4 ulps, at least 2**-1072, so 2097 halvings always meet the stopping
# rule.  A residual's step halves its bracket and an objective's step shrinks
# it to 33/64 (spread 1/64), so 2195 steps always do.  A sample of scale 1
# stops after about 55 steps.
_MAX_STEPS = 2200
_MAX_EXPAND = 60


def _top_k(n: int, p: float) -> int:
    """``k = ceil(n (1-p))`` with a guard so exact-integer products do not
    round up one order statistic under floating-point error."""
    t = n * (1.0 - p)
    return max(1, min(n, math.ceil(t - 1e-9)))


def _row_error(cls, text: str, row) -> Exception:
    """``cls(text)`` naming batch row ``row`` where ``text`` says ``{row}``.

    The error keeps ``text`` and ``row``, so that ``_in_blocks`` can name the
    row of the whole batch when the kernel ran on a block of it.
    """
    exc = cls(text.replace("{row}", str(int(row))))
    exc.row_text, exc.row = text, int(row)
    return exc


# A kernel that builds batch-sized work arrays runs on blocks of rows of at
# most this many bytes (``_in_blocks``), so that its few work arrays of a
# block's size (five for shortfall:quadlin) stay in a core's L2 cache.  (On
# 50-atom rows, blocks of 1 MB ran slower than one whole-batch call, as
# glibc gave their freed work arrays back and faulted them in again.)  Where
# a row is wider than 1/16 of that, a block is _BLOCK_MIN_ROWS rows, so that
# each call's fixed overheads are paid on enough rows.
_BLOCK_BYTES = 1 << 18
_BLOCK_MIN_ROWS = 16


def _block_rows(n: int) -> int:
    """Rows of width ``n`` in one block."""
    return max(_BLOCK_MIN_ROWS, _BLOCK_BYTES // (8 * n))


def _in_blocks(kernel, n: int):
    """``kernel`` run on ``_block_rows(n)`` rows of a batch at a time, each
    block's values written into one output array.

    A kernel's row value does not depend on the rest of its batch, so the
    values are bit for bit those of one call, and its work arrays take a few
    blocks, not a few batches.  An error names its row of the whole batch.
    """
    rows = _block_rows(n)

    def blocked(Xs: np.ndarray) -> np.ndarray:
        if len(Xs) <= rows:
            return kernel(Xs)
        out = np.empty(len(Xs))
        for lo in range(0, len(Xs), rows):
            try:
                out[lo : lo + rows] = kernel(Xs[lo : lo + rows])
            except RiskLatticeError as exc:
                if hasattr(exc, "row_text"):  # from _row_error: renumber its row
                    exc.row += lo
                    exc.args = (exc.row_text.replace("{row}", str(exc.row)),)
                raise
        return out

    return blocked


def _check_level(p: float) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"confidence level must lie in (0, 1), got {p}")
    return p


# ---------------------------------------------------------------------------
# order-statistic functionals: one kernel over weight rows + scalar wrappers


# A kernel's band starts on a multiple of this many columns (see
# _order_stat_batch).
_BAND_ALIGN = 32


def _order_stat_batch(Xs: np.ndarray, W: np.ndarray, penalties, lo: int) -> np.ndarray:
    """``max_r (Xs . W[r] - penalties[r])`` over ascending-sorted rows ``Xs``,
    reduced over the tail band of columns ``lo:`` only.

    ``W`` is 2-D and zero on every column before ``lo``.  ``einsum`` reduces a
    row the same way wherever it sits in the batch (BLAS ``@`` does not), so
    equal rows get bit-equal values; dominated-pair gaps are therefore
    exactly 0.  Dropping the leading zero-weight columns leaves each sum bit
    for bit unchanged only while the vectorized reduction still adds every
    column in the same lane, that is when ``lo`` is a multiple of its block:
    with numpy 2.4 on AVX-512 any multiple of 8 kept widths 3 to 1001
    bit-equal, while multiples of 1, 2 or 4 moved ES and AES in the last
    bits.  ``lo`` is a multiple of ``_BAND_ALIGN`` = 32 to leave margin for
    other SIMD widths.
    """
    vals = np.einsum("ij,rj->ri", Xs[:, lo:], W[:, lo:])
    if penalties is not None:
        vals -= np.reshape(penalties, (-1, 1))
    return vals.max(axis=0)


def _order_stat_kernel(W, penalties=None):
    """The order-statistic kernel of weight rows ``W`` (width ``n``) as a
    function of ascending ``(m, n)`` batches, with its band built once.

    The kernel's ``lo`` attribute is its band start: it reads no column
    before.  One row with no penalty whose only nonzero weight is exactly 1.0
    (VaR, ES with ``k = 1``, a step distortion) is read as ``Xs[:, lo] +
    0.0``, the band sum in any lane order: that sum adds from +0.0 and every
    other product is +-0, so -0.0 becomes +0.0.  Other bands start at the
    first nonzero column rounded down to a multiple of ``_BAND_ALIGN``.
    """
    W = np.atleast_2d(W)
    nonzero = np.flatnonzero(W.any(axis=0))
    if penalties is None and len(W) == 1 and nonzero.size == 1 and W[0, nonzero[0]] == 1.0:
        lo = int(nonzero[0])

        def kernel(Xs: np.ndarray) -> np.ndarray:
            return Xs[:, lo] + 0.0
    else:
        lo = int(nonzero[0]) // _BAND_ALIGN * _BAND_ALIGN if nonzero.size else 0

        def kernel(Xs: np.ndarray) -> np.ndarray:
            return _order_stat_batch(Xs, W, penalties, lo)

    kernel.lo = lo
    return kernel


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
    return float(_order_stat_kernel(_var_weights(xs.shape[1], _check_level(p)))(xs)[0])


def es_historical(sample, p: float) -> float:
    """Expected Shortfall: the mean of the ``k = ceil(n (1-p))`` largest losses.

    Dominates ``var_historical`` at the same level.
    """
    xs = _sorted_row(sample)
    return float(_order_stat_kernel(_es_weights(xs.shape[1], _check_level(p)))(xs)[0])


def aes(sample, grid: AdjustmentGrid) -> float:
    """Adjusted Expected Shortfall over a finite level grid.

    ``max`` over grid entries of ``ES_level(sample) - penalty``.  The grid
    stands in for a supremum over all levels; resolution is the caller's
    responsibility.  Level ``0`` is admitted and evaluates to the sample mean.
    """
    xs = _sorted_row(sample)
    if not isinstance(grid, AdjustmentGrid):
        grid = AdjustmentGrid(*grid)
    return float(_order_stat_kernel(*_aes_weights(xs.shape[1], grid))(xs)[0])


def distortion_rho(sample, phi: DistortionFunction) -> float:
    """Distortion risk measure: the exact Choquet integral of the empirical law.

    With losses sorted descending ``L_(1) >= ... >= L_(n)`` the value is
    ``sum_i L_(i) (phi(i/n) - phi((i-1)/n))``.  Comonotonic-additive on samples
    sorted by a common permutation; coherent exactly when ``phi`` is concave.
    """
    xs = _sorted_row(sample)
    return float(_order_stat_kernel(_distortion_weights(xs.shape[1], phi))(xs)[0])


# ---------------------------------------------------------------------------
# one bracketed solver for the certainty equivalent, shortfall and OCE of a
# loss without a closed form


def _bracketed(fn, Xs, what: str, pad: float = 0.0, spread: float = 0.0) -> np.ndarray:
    """Per-row root of a nondecreasing residual, or minimizer of a convex objective.

    ``fn(m, rows)`` evaluates rows ``rows`` of the ascending batch ``Xs`` at
    ``m``, from the bracket ``[min x - pad, max x + pad]``.  Each step tests
    the sign of ``g(t) = fn(t)`` (``spread == 0``: a residual) or of
    ``g(t) = fn(t + d) - fn(t - d)`` with ``d = spread (hi - lo)`` (a convex
    objective; ``g`` is then nondecreasing too) at the midpoint ``t`` of the
    bracket, and keeps ``[lo, t + d]`` if ``g(t) > 0``, else ``[t - d, hi]``.
    Brackets are first doubled outward until ``g(lo + d) <= 0 <= g(hi - d)``.
    ``d`` makes the step exact for a convex objective; where rounding hides
    the sign of ``g`` it loses at most about ``1/(4 spread)`` ulps of the
    value.

    A row stops when ``hi - lo`` is at most 4 ulps of
    ``max(|lo|, |hi|, max |x|)`` (``pad * eps`` for a row of zeros), leaves the
    active set and returns its bracket's midpoint, so its result depends on
    that row alone, at any scale.  An overflowed ``+-inf`` still has the right
    sign; a NaN raises ``NumericError`` naming the row.
    """
    lo, hi = Xs[:, 0] - pad, Xs[:, -1] + pad
    scale = np.maximum(-Xs[:, 0], Xs[:, -1])
    # a row of zeros has no scale of its own: stop it at a few ulps of pad * eps
    scale = np.where(scale > 0.0, scale, pad * np.finfo(np.float64).eps)

    def g(m, d, rows):
        sel = rows if rows.size < Xs.shape[0] else slice(None)  # no gather of a full batch
        v = fn(m + d, sel) - fn(m - d, sel) if spread else fn(m, sel)
        nan = np.isnan(v)
        if nan.any():
            raise _row_error(NumericError, f"{what}: overflow at batch row {{row}}",
                             rows[nan.argmax()])
        return v

    # A bracketed row's ends no longer change, so only the rows still
    # unbracketed are evaluated again; they double at the same steps as they
    # would alone.
    act = np.arange(lo.size)
    step = np.maximum(hi - lo, 1.0)
    for _ in range(_MAX_EXPAND):
        d = spread * (hi[act] - lo[act])
        low = g(lo[act] + d, d, act) > 0.0
        high = g(hi[act] - d, d, act) < 0.0
        out = low | high
        if not out.any():
            break
        act, low, high = act[out], low[out], high[out]
        lo[act] -= np.where(low, step[act], 0.0)
        hi[act] += np.where(high, step[act], 0.0)
        step *= 2.0
    else:
        raise _row_error(
            DomainError if spread else NumericError,
            f"{what}: no bracket after {_MAX_EXPAND} doublings at batch row "
            "{row} (objective unbounded below, or no sign change)", act[0])

    res = np.empty_like(lo)
    act = np.arange(lo.size)
    for _ in range(_MAX_STEPS):
        # max(-lo, hi) is max(|lo|, |hi|) because lo <= hi
        wide = hi - lo > 4.0 * np.spacing(np.maximum(np.maximum(-lo, hi), scale[act]))
        if not wide.all():
            res[act[~wide]] = 0.5 * (lo[~wide] + hi[~wide])
            act, lo, hi = act[wide], lo[wide], hi[wide]
            if not act.size:
                return res
        t = 0.5 * (lo + hi)
        d = spread * (hi - lo)
        left = g(t, d, act) > 0.0
        lo, hi = np.where(left, lo, t - d), np.where(left, t + d, hi)
    res[act] = 0.5 * (lo + hi)
    return res


# ---------------------------------------------------------------------------
# expected loss, certainty equivalent, shortfall risk and OCE


def _expected_loss_batch(Xs: np.ndarray, ell: LossFunction) -> np.ndarray:
    return ell.fn(Xs).mean(axis=1)


def expected_loss(sample, ell: LossFunction) -> float:
    """``mean(l(x_i))``; exactly modular (both submodular and supermodular)."""
    return float(_expected_loss_batch(_sorted_row(sample), ell)[0])


def _log_mean_exp(Xs: np.ndarray, g: float) -> np.ndarray:
    """``log(mean exp(g x)) / g`` per row, as
    ``top + log1p(mean(expm1(g (x - top)))) / g`` with ``top = max x``.

    Every exponent is at most 0, so nothing overflows, and ``expm1``/``log1p``
    keep the relative precision of a row spread over a tiny range.
    """
    top = Xs[:, -1]
    w = np.subtract(Xs, top[:, None])
    w *= g
    np.expm1(w, out=w)
    return top + np.log1p(w.mean(axis=1)) / g


def _suffix_sums(v: np.ndarray) -> np.ndarray:
    """``out[:, j] = sum_{i > j} v[:, i]``, in a new array."""
    out = np.empty_like(v)
    out[:, -1] = 0.0
    np.cumsum(v[:, :0:-1], axis=1, out=out[:, -2::-1])
    return out


def _kinked_sums(Xs: np.ndarray, s_minus: float, s_plus: float, quad: float = 0.0):
    """Mean loss at each order statistic for a loss kinked at 0.

    With ``y = x - top`` (``top = max x``) on ascending rows and ``l`` of slope
    ``s_minus`` below 0 and ``s_plus`` above, returns ``top``, ``y``, ``B`` and
    ``slope`` with ``mean_i l(y_i - y_j) = B[:, j] - slope[j] y[:, j]``.
    ``slope[j] = s_minus + (s_plus - s_minus) (n - 1 - j) / n`` is the mean
    slope of ``l`` there (the ``n - 1 - j`` atoms above ``y_j`` at
    ``s_plus``), and ``B`` is made of suffix sums of ``y``.  ``y`` and ``B``
    are the only batch-sized work arrays kept; callers update ``y`` in place.
    With ``quad``, ``l`` has ``quad max(v, 0)^2`` on top, and ``B[:, j]`` also
    holds ``quad mean_{i > j} (y_i - y_j)^2``, from suffix sums of ``y^2``.

    Without ``quad`` the loss is positively homogeneous: a row whose sums
    here or in the caller could overflow is taken times ``2**-e`` (exactly),
    and the last value returned, ``unit``, is ``2**e`` on it and 1 elsewhere:
    callers multiply their result by it.
    """
    n = Xs.shape[1]
    top = Xs[:, -1]
    y = np.subtract(Xs, top[:, None])
    unit = np.ones(len(Xs))
    reach = 4.0 * n * max(1.0, s_minus, s_plus)
    big = np.flatnonzero(~np.isfinite(y[:, 0] * reach))
    if big.size and not quad:
        unit[big] = 2.0 ** (2 + math.ceil(math.log2(reach)))
        top = top / unit
        y[big] = Xs[big] / unit[big, None] - top[big, None]
    B = _suffix_sums(y)  # B[:, j] = sum_{i > j} y_i
    total = B[:, 0] + y[:, 0]
    if quad:
        # sum_{i > j} (y_i - y_j)^2 = Q_j - y_j (2 B_j - k_j y_j), k_j = n - 1 - j
        sq = _suffix_sums(np.square(y))
        t = np.arange(n - 1, -1, -1.0) * y
        t -= 2.0 * B
        t *= y
        sq += t
        sq *= quad / n
    B *= (s_plus - s_minus) / n
    B += (s_minus / n) * total[:, None]
    if quad:
        B += sq
    slope = s_minus + (s_plus - s_minus) / n * np.arange(n - 1, -1, -1.0)
    return top, y, B, slope, unit


def _kinked_mean(Xs: np.ndarray, m: np.ndarray):
    """``mean(x - m)``, ``mean max(x - m, 0)`` and ``mean max(x - m, 0)^2``
    per row, in one work array."""
    d = np.subtract(Xs, m[:, None])
    total = d.sum(axis=1)
    np.maximum(d, 0.0, out=d)
    n = Xs.shape[1]
    return total / n, d.sum(axis=1) / n, np.einsum("ij,ij->i", d, d) / n


def _root(a, b, c):
    """The root of ``a r^2 + b r + c`` nearest 0, for ``a >= 0`` and ``b > 0``
    (``-c / b`` when ``a = 0``), in the form that does not cancel."""
    return -2.0 * c / (b + np.sqrt(b * b - 4.0 * a * c))


def _exp_sums(Xs: np.ndarray, g: float):
    """Row means of ``exp(y)`` and ``exp(2 y)`` with ``y = g (x - c)``.

    Returns ``c``, ``A = (mean e^y, mean e^2y)`` and ``S = A - 1``, in one
    batch-sized work array as in ``_log_mean_exp``.  A row is shifted by its
    middle order statistic and takes ``S`` from ``expm1``: ``S`` keeps its
    relative precision however small it is, and ``A = 1 + S`` keeps its own
    because half the atoms have ``y >= 0``, so ``A >= 1/2``.  A row whose top
    is more than 300 above that in ``g x`` (``exp(2 y)`` would overflow) is
    shifted by its max instead and takes ``A`` from ``exp``.
    """
    n = Xs.shape[1]
    mid = g * (Xs[:, -1] - Xs[:, n // 2]) <= 300.0
    c = np.where(mid, Xs[:, n // 2], Xs[:, -1])
    w = np.subtract(Xs, c[:, None])
    w *= g
    np.expm1(w, out=w)
    far = np.flatnonzero(~mid)
    if far.size:  # rare, and a masked ufunc would slow down every row
        w[far] = np.exp(g * (Xs[far] - c[far, None]))
    m1 = w.sum(axis=1) / n
    m2 = np.einsum("ij,ij->i", w, w) / n  # expm1(2y) = w (w + 2)
    s1 = np.where(mid, m1, m1 - 1.0)
    s2 = np.where(mid, m2 + 2.0 * m1, m2 - 1.0)
    return c, (np.where(mid, 1.0 + s1, m1), np.where(mid, 1.0 + s2, m2)), (s1, s2)


def _log_root(u, v):
    """``log u`` from a root ``u`` and the same root ``v = u - 1`` solved on
    its own: ``log1p(v)`` keeps the precision of a ``u`` near 1, ``log(u)``
    that of a ``u`` far below 1."""
    return np.where(v >= -0.5, np.log1p(np.maximum(v, -0.5)), np.log(u))


def _finite(vals: np.ndarray, what: str) -> np.ndarray:
    bad = ~np.isfinite(vals)
    if bad.any():
        raise _row_error(NumericError, f"{what}: overflow at batch row {{row}}", bad.argmax())
    return vals


def _ce_kernel(n: int, ell: LossFunction):
    """The certainty equivalent as a function of ascending ``(m, n)`` batches.

    A closed form runs in blocks (``_in_blocks``).  Without one, the mean loss
    is the only batch-sized work: it is taken in blocks, and then every row is
    bisected at once, because a step of this bisection costs per row, not per
    atom, and blocks would pay each step's call overheads once per block.
    """
    if not ell.strictly_increasing:
        raise DomainError("certainty equivalent requires a strictly increasing loss")
    if ell.entropic is not None or ell.slopes is not None:
        return _in_blocks(lambda Xs: _ce_closed_form(Xs, ell), n)
    mean_loss = _in_blocks(lambda Xs: _expected_loss_batch(Xs, ell), n)

    @np.errstate(over="ignore", invalid="ignore")
    def solve(Xs: np.ndarray) -> np.ndarray:
        target = mean_loss(Xs)  # in [l(min x), l(max x)]
        return _bracketed(lambda m, rows: ell.fn(m) - target[rows], Xs, "certainty equivalent")

    return solve


def _ce_batch(Xs: np.ndarray, ell: LossFunction) -> np.ndarray:
    return _ce_kernel(Xs.shape[1], ell)(Xs)


@np.errstate(over="ignore", invalid="ignore")
def _ce_closed_form(Xs: np.ndarray, ell: LossFunction) -> np.ndarray:
    g, q = ell.entropic, ell.quad
    if g is not None and q:
        # e^{g m} + q e^{2 g m} = mean(e^{g x} + q e^{2 g x}) is a quadratic in
        # u = e^{g (m - c)}: rho u + rho2 u^2 = rho A1 + rho2 A2, with
        # weights rho : rho2 = 1 : q e^{g c} that add to 1 and cannot overflow
        c, (a1, a2), (s1, s2) = _exp_sums(Xs, g)
        rho, rho2 = 1.0 / (1.0 + q * np.exp(g * c)), 1.0 / (1.0 + np.exp(-g * c) / q)
        u = _root(rho2, rho, -(rho * a1 + rho2 * a2))
        v = _root(rho2, 2.0 * rho2 + rho, -(rho * s1 + rho2 * s2))
        return c + _log_root(u, v) / g
    if g is not None:
        return _log_mean_exp(Xs, g)
    sm, sp = ell.slopes
    pos = np.maximum(Xs, 0.0)
    t = sm * Xs.sum(axis=1) + (sp - sm) * pos.sum(axis=1)
    if q:
        t += q * np.einsum("ij,ij->i", pos, pos)
    t /= Xs.shape[1]
    # l^{-1}: t / sm below 0, the root of sp m + q m^2 = t above
    return _finite(np.where(t > 0.0, _root(q, sp, -t), t / sm), "certainty equivalent")


def certainty_equivalent(sample, ell: LossFunction) -> float:
    """``l^{-1}(mean(l(x_i)))`` for a strictly increasing loss ``l``.

    For ``exp:g`` this is the entropic risk measure
    ``log(mean exp(g x_i)) / g``, computed shifted by ``max x`` so that it
    never overflows; for a piecewise-linear loss it is ``mean l(x_i)``
    divided by the slope on its side of 0.  For ``poly2exp`` it is the root
    of a quadratic in ``exp(m)``, shifted so that it never overflows, and for
    ``quadlin`` the root of ``m/2 + m^2 = mean l(x_i)`` where that is
    positive.  Other losses are solved in a
    bracket on the sample range, to a few ulps of the sample's scale, and an
    overflowing mean loss raises ``NumericError``.
    ``certainty_equivalent([c, ..., c]) == c``; the functional is submodular
    exactly when ``l`` is convex.
    """
    return float(_ce_batch(_sorted_row(sample), ell)[0])


@np.errstate(over="ignore", invalid="ignore")
def _shortfall_batch(Xs: np.ndarray, ell: LossFunction) -> np.ndarray:
    if not (ell.strictly_increasing and ell.convex):
        raise DomainError(
            "shortfall risk requires a strictly increasing convex loss "
            f"(got flags strictly_increasing={ell.strictly_increasing}, convex={ell.convex})"
        )
    g, q = ell.entropic, ell.quad
    if g is not None and q:
        # mean l(x - m) = 0 is q A2 u^2 + A1 u = 1 + q in u = e^{g (c - m)}
        c, (a1, a2), (s1, s2) = _exp_sums(Xs, g)
        u = _root(q * a2, a1, -(1.0 + q))
        v = _root(q * a2, 2.0 * q * a2 + a1, q * s2 + s1)
        return c - _log_root(u, v) / g
    if g is not None:
        return _log_mean_exp(Xs, g)
    n = Xs.shape[1]
    if ell.slopes is not None:
        # The residual mean l(y - m) is decreasing in m, and linear (quadratic
        # with quad) between order statistics: count the order statistics
        # where it is negative (the top c), then solve the piece with those c
        # atoms above the root.
        sm, sp = ell.slopes
        top, y, B, slope, unit = _kinked_sums(Xs, sm, sp, q)
        y *= slope
        np.subtract(B, y, out=y)
        c = np.count_nonzero(y < 0.0, axis=1)
        if not q:
            j = np.maximum(n - 1 - c, 0)
            return unit * (top + B[np.arange(j.size), j] / slope[j])
        # Anchored at the lowest of those order statistics, x_a, the residual
        # at m = x_a - t is mean l(x - x_a) + b t + (q k / n) t^2 with
        # b = slope + 2 q mean max(x - x_a, 0): every term but the first is
        # nonnegative, so the root does not cancel.
        a = np.clip(n - c, 0, n - 1)
        anchor = Xs[np.arange(a.size), a]
        k = n - a
        total, pos, sq = _kinked_mean(Xs, anchor)
        t = _root(q * k / n, sm + (sp - sm) * k / n + 2.0 * q * pos,
                  sm * total + (sp - sm) * pos + q * sq)
        return _finite(anchor - t, "shortfall")
    # silent normalization: subtracting l(0) leaves the root unchanged
    ell0 = float(ell.fn(np.array(0.0)))

    def resid(m, rows=slice(None)):
        return n * ell0 - ell.fn(Xs[rows] - m[:, None]).sum(axis=1)

    m = _bracketed(resid, Xs, "shortfall")
    # Residual guard, on the solver path only (custom losses without a closed
    # form).  A continuous
    # residual ends within its rounding plus its slope times a few ulps of the
    # root, which 2**-24 of its change over m -/+ d (d = 2**-20 of the row's
    # scale) bounds with a wide margin.  A loss with a jump (declared convex,
    # but not) leaves the jump's size.  Subnormal residuals have no relative
    # precision, hence the ``tiny`` floor.
    d = 2.0**-20 * np.maximum(np.abs(m), np.maximum(-Xs[:, 0], Xs[:, -1]))
    rise = np.abs(resid(m + d) - resid(m - d))
    tol = 2.0**-24 * rise + np.finfo(np.float64).tiny
    terms = ell.fn(Xs - m[:, None])
    r = n * ell0 - terms.sum(axis=1)
    tol += n * np.finfo(np.float64).eps * (np.abs(terms).sum(axis=1) + n * abs(ell0))
    bad = ~(np.abs(r) <= tol)
    if bad.any():
        # A loss whose fn cancels internally (exp(2 x) + exp(x) - 2) rounds at
        # the scale of its intermediates, far above that bound, so near the
        # root its residual is a staircase, or noise, at that scale.  Measure
        # it on a grid about m as wide as the slope needs to reach +-|r|:
        # allow four times the smallest nonzero step between neighbours (the
        # staircase's tread), or twice the largest step away from m (noise).
        # A residual with a jump at m is left at one side of the jump there
        # and moves smoothly elsewhere, by |r| / 8 from one point to the next.
        i = np.flatnonzero(bad)
        tiny = np.finfo(np.float64).tiny
        half = d[i] * np.minimum(1.0, 2.0 * np.abs(r[i]) / np.maximum(rise[i], tiny))
        grid = m[i, None] + half[:, None] * np.linspace(-1.0, 1.0, 17)
        steps = np.abs(np.diff([resid(grid[:, j], i) for j in range(grid.shape[1])], axis=0))
        tread = np.where(steps > 0.0, steps, np.inf).min(axis=0)
        steps[7:9] = 0.0  # the two steps next to m
        tol[i] += np.maximum(np.where(np.isinf(tread), 0.0, 4.0 * tread), 2.0 * steps.max(axis=0))
        bad = ~(np.abs(r) <= tol)
    if bad.any():
        i = int(bad.argmax())
        raise _row_error(NumericError, f"shortfall: residual {r[i]:.3g} exceeds its "
                         f"tolerance {tol[i]:.3g} at batch row {{row}}; is the loss "
                         "continuous?", i)
    return m


def shortfall_rho(sample, ell: LossFunction) -> float:
    """Shortfall risk: the unique ``m`` with ``sum l(x_i - m) = 0``.

    ``l`` must be strictly increasing and convex; ``l(0)`` is subtracted
    internally so normalization is not required of the caller.  For
    ``exp:g`` the root is the entropic risk measure
    ``log(mean exp(g x_i)) / g``.  For a piecewise-linear loss the residual
    is linear between order statistics, so the root is solved exactly on the
    piece where it changes sign; for ``quadlin`` it is quadratic there.  For
    ``poly2exp`` the root is that of a quadratic in ``exp(-m)``.  Other
    losses are solved in a bracket on
    the sample range, where the strictly decreasing residual changes sign,
    to a few ulps of the sample's scale; a residual left far from 0 there,
    beyond the rounding the residual shows near the root (a loss with a
    jump), raises ``NumericError``.  Cash-invariant, and positively
    homogeneous at any scale when ``l`` is.
    """
    return float(_shortfall_batch(_sorted_row(sample), ell)[0])


@np.errstate(over="ignore", invalid="ignore")
def _oce_batch(Xs: np.ndarray, ell: LossFunction) -> np.ndarray:
    if not (ell.increasing and ell.convex):
        raise DomainError("optimized certainty equivalent requires an increasing convex loss")
    g, q = ell.entropic, ell.quad
    if g is not None and q:
        # The minimizer solves mean l'(x - m) = 1, that is
        # 2 q A2 u^2 + A1 u = 1 / g in u = e^{g (c - m)}, and the objective is
        # m + (u A1 - 1) + q (u^2 A2 - 1).  Near a constant sample it is
        # solved for e = u / u0 - 1, with u0 the root for S = 0, and the value
        # is the zero sample's OCE k0 plus c plus a part that is small with S.
        c, (a1, a2), (s1, s2) = _exp_sums(Xs, g)
        u = _root(2.0 * q * a2, a1, -1.0 / g)
        u0 = float(_root(2.0 * q, 1.0, -1.0 / g))
        k0 = -math.log(u0) / g + u0 - 1.0 + q * (u0 * u0 - 1.0)
        e = _root(2.0 * q * u0 * a2, 4.0 * q * u0 * a2 + a1, 2.0 * q * u0 * s2 + s1)
        near = np.abs(e) <= 0.5
        e = np.clip(e, -0.5, 0.5)  # the far rows' e only needs to stay finite
        near_value = k0 + (-np.log1p(e) / g + u0 * (e + s1 + e * s1)
                     + q * u0 * u0 * (e * (2.0 + e) + s2 * (1.0 + e) ** 2))
        far_value = -np.log(u) / g + u * a1 - 1.0 + q * (u * u * a2 - 1.0)
        return c + np.where(near, near_value, far_value)
    if g is not None:
        return _log_mean_exp(Xs, g) + (1.0 + math.log(g) - g) / g
    if ell.slopes is not None and q:
        sm, sp = ell.slopes
        if sm > 1.0:
            raise DomainError(f"optimized certainty equivalent: objective unbounded below "
                              f"(loss slope {sm:g} > 1 below 0)")
        # The minimizer solves mean l'(x - m) = 1, where mean l'(x - m) is
        # decreasing and linear between order statistics.  At x_j it is
        # slope[j] + (2 q / n) sum_{i > j} (x_i - x_j): count where that is
        # below 1 (the top c), then solve the piece below the lowest of them.
        n = Xs.shape[1]
        top = Xs[:, -1]
        y = np.subtract(Xs, top[:, None])
        above = _suffix_sums(y)
        y *= np.arange(n - 1, -1, -1.0)
        above -= y  # sum_{i > j} (y_i - y_j)
        above *= 2.0 * q / n
        above += (sm + (sp - sm) / n * np.arange(n - 1, -1, -1.0)) - 1.0
        a = np.clip(n - np.count_nonzero(above < 0.0, axis=1), 0, n - 1)
        anchor = Xs[np.arange(a.size), a]
        k = n - a
        total, pos, sq = _kinked_mean(Xs, anchor)
        # At m = anchor - t the condition is linear in t, and the objective is
        # f(anchor) + t (slope_k - 1 + 2 q pos + q t k / n): only that last
        # term is large when the minimizer is far from the sample.  t >= 0
        # keeps the minimizer nearest the sample on a flat side (slope 1
        # below 0).
        slope_k = sm + (sp - sm) * k / n
        t = np.maximum(((1.0 - slope_k) / (2.0 * q) - pos) * n / k, 0.0)
        value = anchor + (sm * total + (sp - sm) * pos + q * sq)
        value += t * (slope_k - 1.0 + 2.0 * q * pos + q * k / n * t)
        return _finite(value, "optimized certainty equivalent")
    if ell.slopes is not None:
        sm, sp = ell.slopes
        if not sm <= 1.0 <= sp:
            raise DomainError(
                f"optimized certainty equivalent: objective unbounded below "
                f"(loss slopes {sm:g} and {sp:g} do not straddle 1)"
            )
        # the objective is convex and piecewise linear with kinks at the
        # order statistics: its minimum is the least value there
        top, y, B, slope, unit = _kinked_sums(Xs, sm, sp)
        y *= 1.0 - slope
        y += B
        return unit * (top + y.min(axis=1))

    def f(m, rows=slice(None)):
        return m + ell.fn(Xs[rows] - m[:, None]).mean(axis=1)

    # the minimizer also depends on the loss's own unit: start one unit out
    m = _bracketed(f, Xs, "optimized certainty equivalent", pad=1.0, spread=2.0**-6)
    terms = ell.fn(Xs - m[:, None])
    value = m + terms.mean(axis=1)
    # On a flat side of the objective every point has the same value, and
    # bisection may stop far out on it, where m + mean l(x - m) keeps only
    # eps |m|.  The point of [min x, max x] nearest m keeps the sample's
    # precision: take its value wherever it is no larger than m's, up to the
    # rounding of m's.
    near = np.clip(m, Xs[:, 0], Xs[:, -1])
    slack = 8.0 * np.finfo(np.float64).eps * (np.abs(m) + np.abs(terms).mean(axis=1))
    at_near = f(near)
    return np.where(at_near <= value + slack, at_near, value)


def oce(sample, ell: LossFunction) -> float:
    """Optimized certainty equivalent: ``min_m { m + mean(l(x_i - m)) }``.

    For ``exp:g`` the minimum is ``m* = (log g + log mean exp(g x_i)) / g``,
    and the value is the entropic risk measure plus a constant:
    ``log(mean exp(g x_i)) / g + (1 + log g - g) / g`` (the constant is 0
    only at ``g = 1``).  For a piecewise-linear loss with slopes
    ``s_minus <= 1 <= s_plus`` the convex objective is piecewise linear with
    kinks at the order statistics, so the minimum is the least of its ``n``
    values there; with other slopes it is unbounded below and raises
    ``DomainError``.  ``OCE(cvar:p)`` is ES at level ``p`` (Rockafellar and
    Uryasev).  For ``poly2exp`` and ``quadlin`` the first-order condition
    ``mean l'(x_i - m) = 1`` is a quadratic in ``exp(-m)``, or linear on the
    piece between order statistics where it holds.  Other losses are
    bisected: ``[min(x)-1, max(x)+1]`` is doubled outward until the
    objective rises at both ends (``DomainError`` if it never does: unbounded
    below), then bisected on the sign of ``f(mid + d) - f(mid - d)`` to a
    few ulps of the sample's scale.  The objective value, not the minimizer,
    is the contract: on a flat side the value is taken at the end of the
    sample range, where it keeps the sample's precision.  Overflow raises
    ``NumericError``.  Always submodular
    for increasing convex ``l``.
    """
    return float(_oce_batch(_sorted_row(sample), ell)[0])


# ---------------------------------------------------------------------------
# monotone mean-deviation measure


def _mmd_kernel(n: int, weight: DeviationWeight, phi: DistortionFunction):
    """The mean-deviation measure as a function of ascending ``(m, n)``
    batches, with its distortion kernel built once."""
    if not phi.concave:
        raise DomainError("mean-deviation measure requires a concave distortion")
    distortion = _order_stat_kernel(_distortion_weights(n, phi))
    # dev is a difference of two weighted sums whose weights add to 1; rounding
    # moves each by a few n ulps of the row's largest magnitude, so only a
    # larger negative dev means a non-concave weight grid.
    ulps = 8.0 * n * np.finfo(np.float64).eps

    def kernel(Xs: np.ndarray) -> np.ndarray:
        mean = Xs.mean(axis=1)
        dev = distortion(Xs) - mean
        if np.any(dev < -ulps * np.maximum(-Xs[:, 0], Xs[:, -1])):
            raise NumericError(
                "negative deviation encountered; the supplied distortion "
                "is not concave on the sample's weight grid"
            )
        return weight.fn(np.maximum(dev, 0.0)) + mean

    return kernel


def mmd_rho(sample, g: DeviationWeight, phi: DistortionFunction) -> float:
    """Monotone mean-deviation measure: ``g(distortion - mean) + mean``.

    Requires a concave distortion, which guarantees the deviation
    ``distortion_rho(x, phi) - mean(x)`` is nonnegative (asserted within a
    rounding tolerance scaled to ``n max|x|``).  Cash-invariant; reduces to ``distortion_rho`` for ``g(t) = t``
    and to the mean for the identity distortion.
    """
    xs = _sorted_row(sample)
    return float(_mmd_kernel(xs.shape[1], g, phi)(xs)[0])
