"""Constructive counterexamples: pairs that break submodularity by design.

Four families are built here, each with a closed-form target the measured
gap can be checked against:

* adjusted ES with a two-level penalty grid (``aes_counterexample``): a
  uniform ramp and its fold at level ``q`` give identical per-level ES
  profiles, yet the join's mid-tail ES exceeds the ramp's by
  ``a (q - p1)^2 / (2 (1 - p1))`` below the fold;
* mean-deviation measures with a strictly convex weight
  (``mmd_counterexample``): three nested indicator levels whose distortion
  deviations average exactly, so convexity of the weight tips the balance;
* shortfall measures whose loss has a kink at 0
  (``shortfall_jump_deficit``): the 3-atom pair ``(-2h, -h, 0)`` versus the
  constant ``-h`` produces a per-``h`` deficit with an explicit slope-ratio
  limit as ``h`` shrinks;
* certainty equivalents with a non-convex loss (``ce_counterexample``): a
  grid search over two-point samples with equal atom weights.
"""

from __future__ import annotations

import numpy as np

from .errors import CounterexampleSearchError, DomainError
from .functions import (
    AdjustmentGrid,
    DeviationWeight,
    DistortionFunction,
    LossFunction,
    piecewise_linear_loss,
)
from .lattice import _check_atom_bound, submodularity_gap
from .specs import RiskMeasureSpec

__all__ = [
    "aes_counterexample",
    "aes_matched_grid",
    "mmd_counterexample",
    "mmd_pair_from_triple",
    "shortfall_jump_deficit",
    "ce_counterexample",
]


# ---------------------------------------------------------------------------
# adjusted ES


def aes_counterexample(
    a: float, b: float, q: float, p1: float, n_atoms: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Discretized ramp-and-fold pair with predicted mid-tail ES excess.

    ``x`` discretizes ``2aU + b - a`` on atom midpoints ``u_i = (i - 1/2)/n``;
    ``y`` applies the same ramp to ``U`` folded below ``q`` (``q - U`` there),
    which is a rearrangement of ``x``, so the two have identical empirical
    laws.  Returns ``(x, y, predicted_gap)`` where the predicted gap
    ``a (q - p1)^2 / (2 (1 - p1))`` is the limit of
    ``ES_p1(x v y) - ES_p1(x)`` as ``n_atoms`` grows.
    """
    if a <= 0:
        raise DomainError("ramp slope a must be positive")
    if not 0.0 < q < 1.0:
        raise DomainError("fold level q must lie in (0, 1)")
    if not 0.0 <= p1 < q:
        raise DomainError("test level p1 must lie in [0, q)")
    if q * n_atoms < 2 or p1 * n_atoms < 2:
        raise DomainError("n_atoms too small: need q*n_atoms >= 2 and p1*n_atoms >= 2")
    _check_atom_bound(n_atoms)
    u = (np.arange(1, n_atoms + 1) - 0.5) / n_atoms
    v = np.where(u >= q, u, q - u)
    x = 2.0 * a * u + b - a
    y = 2.0 * a * v + b - a
    predicted_gap = a * (q - p1) ** 2 / (2.0 * (1.0 - p1))
    return x, y, predicted_gap


def aes_matched_grid(a: float, b: float, q: float, p1: float) -> AdjustmentGrid:
    """Two-level penalty grid matched to the ramp's ES profile.

    The ramp's per-level ES is the line ``p -> a p + b``; penalizing levels
    ``p1`` and ``q`` by exactly that line makes the adjusted ES of the ramp 0
    at both levels while the join keeps a strictly positive excess at ``p1``.
    Penalties are shifted uniformly when needed to stay nonnegative, which
    changes the adjusted ES by a constant and no gap at all.
    """
    pen1 = a * p1 + b
    penq = a * q + b
    shift = max(0.0, -pen1)
    return AdjustmentGrid(levels=(p1, q), penalties=(pen1 + shift, penq + shift))


# ---------------------------------------------------------------------------
# mean-deviation measures


def _psi(phi: DistortionFunction, t: np.ndarray) -> np.ndarray:
    return phi.fn(t) - t


def mmd_pair_from_triple(
    phi: DistortionFunction,
    g: DeviationWeight,
    p: float,
    q: float,
    r: float,
    n_atoms: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Build the nested-indicator pair for an admissible level triple.

    Requires ``p < q < r``, all integer multiples of ``1/n_atoms``, with
    ``psi(p) > psi(q) > psi(r)`` and ``psi(p) + psi(r) = 2 psi(q)`` for
    ``psi(t) = phi(t) - t``, and a strictly convex point of ``g``.  The pair
    is ``x = m (1_A + 1_C) / 2`` and ``y = m 1_B`` on nested atom blocks
    ``A (p n) <= B (q n) <= C (r n)`` with ``m`` scaled so both deviations hit
    the convexity point.
    """
    if not phi.concave:
        raise DomainError("construction requires a concave distortion")
    kp, kq, kr = (round(t * n_atoms) for t in (p, q, r))
    for t, k in zip((p, q, r), (kp, kq, kr)):
        if abs(t * n_atoms - k) > 1e-9 or not 0 < k < n_atoms:
            raise DomainError(f"level {t:g} is not a multiple of 1/{n_atoms} inside (0, 1)")
    if not kp < kq < kr:
        raise DomainError("levels must satisfy p < q < r")
    pp, pq, pr = (float(_psi(phi, np.array(t))) for t in (p, q, r))
    if not (pp > pq > pr):
        raise DomainError(f"need psi(p) > psi(q) > psi(r); got ({pp:g}, {pq:g}, {pr:g})")
    if abs(pp + pr - 2.0 * pq) > 1e-12:
        raise DomainError("need psi(p) + psi(r) = 2 psi(q) exactly on the atom grid")
    x_nl = _nonlinearity_point(g)
    m = x_nl / pq
    x = np.zeros(n_atoms)
    x[:kp] = m
    x[kp:kr] = m / 2.0
    y = np.zeros(n_atoms)
    y[:kq] = m
    return x, y


def _nonlinearity_point(g: DeviationWeight) -> float:
    """First probe point where ``g`` is strictly midpoint-convex; the weight
    must not be (numerically) linear."""
    if g.linear:
        raise DomainError("construction refused: the deviation weight is linear")
    for x in np.linspace(0.25, 8.0, 32):
        bend = float(g.fn(np.array(0.5 * x)) + g.fn(np.array(1.5 * x)) - 2.0 * g.fn(np.array(x)))
        if bend > 1e-10:
            return float(x)
    raise DomainError("construction refused: no strict-convexity point found for the weight")


def mmd_counterexample(
    phi: DistortionFunction, g: DeviationWeight, n_atoms: int
) -> tuple[np.ndarray, np.ndarray]:
    """Search the atom grid for an admissible triple and build the pair.

    Scans ``q`` ascending, then earlier ``p`` ascending, then later ``r``
    ascending, and returns the first triple that passes the admissibility
    tests with ``|psi(p) + psi(r) - 2 psi(q)| <= 1e-12``.  Each ``r`` is
    looked up in the tabulated ``psi`` by sorted search, which needs no
    monotonicity, so a search error (with diagnostics) means the grid admits
    no triple.  Refuses the identity distortion and linear weights.
    """
    if n_atoms < 2:
        raise DomainError(f"the MMD search needs at least 2 atoms, got {n_atoms}")
    _check_atom_bound(n_atoms)
    if not phi.concave:
        raise DomainError("construction requires a concave distortion")
    levels = np.arange(1, n_atoms) / n_atoms
    psi = _psi(phi, levels)
    if float(np.max(np.abs(psi))) <= 1e-12:
        raise DomainError("construction refused: the distortion is the identity")
    _nonlinearity_point(g)  # refuse linear weights before searching

    order = np.argsort(psi)
    ranked = psi[order]
    for iq in range(1, n_atoms - 2):
        pq = psi[iq]
        if pq <= 0:
            continue
        ip = np.flatnonzero((psi[:iq] > pq) & (2.0 * pq - psi[:iq] > 0))
        target = 2.0 * pq - psi[ip]
        # psi lies in [-1, 1]: a balancing psi(r) is within 1e-12 plus a few
        # ulps of its target, so a 2e-12 window holds every candidate
        lo, hi = np.searchsorted(ranked, [target - 2e-12, target + 2e-12])
        for k in np.flatnonzero(hi > lo):
            ir = order[lo[k]:hi[k]]
            pr = psi[ir]
            ok = (ir > iq) & (pr < pq) & (np.abs(psi[ip[k]] + pr - 2.0 * pq) <= 1e-12)
            if ok.any():
                return mmd_pair_from_triple(
                    phi, g, levels[ip[k]], levels[iq], levels[ir[ok].min()], n_atoms
                )
    raise CounterexampleSearchError(
        f"no admissible level triple on the 1/{n_atoms} grid: need grid levels p < q < r with "
        "psi(p) > psi(q) > psi(r) and psi(p) + psi(r) = 2 psi(q); "
        f"psi range on the grid is [{float(np.min(psi)):g}, {float(np.max(psi)):g}] "
        "(try a finer grid)"
    )


# ---------------------------------------------------------------------------
# shortfall jump deficit


def shortfall_jump_deficit(
    s_minus: float, s_plus: float, h: float
) -> tuple[float, float]:
    """Per-``h`` submodularity deficit of a kinked piecewise-linear shortfall.

    Builds ``l`` with slope ``s_minus`` left of 0 and ``s_plus`` right of 0,
    evaluates the shortfall on the 3-atom pair ``x = (-2h, -h, 0)`` and
    ``y = (-h, -h, -h)``, and returns ``(measured_ratio, limit_ratio)``
    where ``measured_ratio`` is the submodularity gap divided by ``h`` and::

        limit_ratio = s_minus (s_minus - s_plus)
                      / ((s_minus + 2 s_plus) (2 s_minus + s_plus))

    is its limit as ``h`` shrinks (strictly negative whenever
    ``s_plus > s_minus``, i.e. whenever the kink is real).
    """
    if h <= 0:
        raise DomainError("step h must be positive")
    ell = piecewise_linear_loss(s_minus, s_plus)  # validates the slopes
    x = np.array([-2.0 * h, -h, 0.0])
    y = np.array([-h, -h, -h])
    measured_ratio = submodularity_gap(RiskMeasureSpec.shortfall(ell), x, y).gap / h
    limit_ratio = (
        s_minus * (s_minus - s_plus) / ((s_minus + 2.0 * s_plus) * (2.0 * s_minus + s_plus))
    )
    return measured_ratio, float(limit_ratio)


# ---------------------------------------------------------------------------
# certainty equivalents


def ce_counterexample(
    ell: LossFunction, lo: float = -5.0, hi: float = 5.0, n_grid: int = 81
) -> tuple[np.ndarray, np.ndarray, float]:
    """Search two-point samples for a certainty-equivalent submodularity break.

    Over grid values ``u < v`` the swapped pair ``x = (u, v)``, ``y = (v, u)``
    on two equal-weight atoms has meet ``(u, u)`` and join ``(v, v)``, so the
    gap reduces to ``2 l^{-1}((l(u) + l(v))/2) - (u + v)``, which is negative
    exactly where midpoint concavity of the inverse fails.  Returns the most
    violating ``(x, y, gap)``; raises a search error when the loss shows no
    violation on the grid (as every convex loss must).
    """
    if not ell.strictly_increasing:
        raise DomainError("certainty equivalents need a strictly increasing loss")
    grid = np.linspace(lo, hi, n_grid)
    iu, iv = np.triu_indices(n_grid, k=1)
    pairs = np.stack([grid[iu], grid[iv]], axis=1)
    ce = RiskMeasureSpec.certainty_equivalent(ell).kernel(2)  # the rows are ascending
    gaps = 2.0 * ce(pairs) - pairs.sum(axis=1)
    i_min = int(np.argmin(gaps))
    if gaps[i_min] >= -1e-10:
        raise CounterexampleSearchError(
            f"no two-point violation for loss '{ell.name}' on [{lo:g}, {hi:g}] "
            f"(worst gap {float(gaps[i_min]):.3e}); a convex loss admits none"
        )
    u, v = pairs[i_min]
    return np.array([u, v]), np.array([v, u]), float(gaps[i_min])
