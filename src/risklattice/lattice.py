"""Lattice submodularity and subadditivity gap measurement.

For a configured risk measure ``rho`` and a pair of samples on a common atom
space, the submodularity gap is::

    gap = rho(x) + rho(y) - rho(x ^ y) - rho(x v y)

with ``^``/``v`` the pointwise minimum/maximum; a violation is recorded when
``gap < -epsilon`` (default ``epsilon = 1e-8``, a conservative guard against
double-precision arithmetic error).  The subadditivity gap replaces the
meet/join pair by the sum: ``rho(x) + rho(y) - rho(x + y)``.

``random_pair_sweep`` operationalizes "for all x, y" as a seeded randomized
search: every trial draws an independent pair from one of three generators
and, with probability 1/4, nudges the second vector toward comonotonicity
with the first (sorting part of it into the first vector's order), probing
the comonotone boundary where submodularity interacts with comonotonic
additivity.  RNG streams are split per trial index from the seed, so chunked,
threaded, and serial runs agree bit for bit: trial ``t`` draws from
``PCG64(SeedSequence((seed, t)))``.  A chunk builds the seed's entropy words
once and rewrites only the trial's word per trial, draws each pair straight
into the evaluation batch, and applies the nudge to all its nudged trials at
once after the draws, since the nudge's steps after its two RNG calls use no
randomness.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .sample import as_sample
from .specs import RiskMeasureSpec

__all__ = [
    "GapResult",
    "SweepReport",
    "submodularity_gap",
    "subadditivity_gap",
    "random_pair_sweep",
    "violation_rate",
    "GENERATORS",
]

DEFAULT_EPSILON = 1e-8

GENERATORS = ("gaussian", "heavy_tail", "two_point")


@dataclass(frozen=True)
class GapResult:
    """One gap measurement; ``violated`` holds exactly when ``gap < -epsilon``."""

    gap: float
    violated: bool
    epsilon: float


@dataclass(frozen=True)
class SweepReport:
    """Outcome of a randomized pair sweep.

    ``worst_gap`` is the minimum gap over all trials and ``worst_pair`` the
    pair attaining it (first such trial on ties).  Identical seed and spec
    reproduce the report exactly.
    """

    label: str
    trials: int
    violations: int
    worst_gap: float
    worst_pair: tuple[np.ndarray, np.ndarray]
    seed: int
    n_atoms: int
    generator: str
    epsilon: float

    @property
    def violation_found(self) -> bool:
        return self.violations > 0


def _paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    xa, ya = as_sample(x), as_sample(y)
    if xa.shape != ya.shape:
        raise DimensionError(f"pair lives on different atom spaces: {xa.size} vs {ya.size}")
    return xa, ya


def submodularity_gap(
    spec: RiskMeasureSpec, x, y, epsilon: float = DEFAULT_EPSILON
) -> GapResult:
    """Gap ``rho(x) + rho(y) - rho(meet) - rho(join)`` for the configured measure."""
    if epsilon < 0:
        raise DomainError("epsilon must be nonnegative")
    xa, ya = _paired(x, y)
    batch = np.stack([xa, ya, np.minimum(xa, ya), np.maximum(xa, ya)])
    vx, vy, vmeet, vjoin = spec.evaluate_batch(batch)
    # grouped so the gap is exactly 0 whenever {meet, join} == {x, y} bitwise
    # (dominated pairs, x == y) and exactly symmetric in (x, y)
    gap = float((vx + vy) - (vmeet + vjoin))
    return GapResult(gap=gap, violated=gap < -epsilon, epsilon=epsilon)


def subadditivity_gap(
    spec: RiskMeasureSpec, x, y, epsilon: float = DEFAULT_EPSILON
) -> GapResult:
    """Gap ``rho(x) + rho(y) - rho(x + y)``; negative values penalize diversification."""
    if epsilon < 0:
        raise DomainError("epsilon must be nonnegative")
    xa, ya = _paired(x, y)
    batch = np.stack([xa, ya, xa + ya])
    vx, vy, vsum = spec.evaluate_batch(batch)
    gap = float(vx + vy - vsum)
    return GapResult(gap=gap, violated=gap < -epsilon, epsilon=epsilon)


# ---------------------------------------------------------------------------
# randomized sweeps


def _words(v: int) -> list[int]:
    """Little-endian 32-bit words of ``v >= 0`` (``[0]`` for 0), the words
    ``SeedSequence`` pools for an integer entropy item."""
    words = [v & 0xFFFFFFFF]
    while v > 0xFFFFFFFF:
        v >>= 32
        words.append(v & 0xFFFFFFFF)
    return words


def _trial_words(seed: int, lo: int, hi: int):
    """Yield, for each trial ``t`` in ``[lo, hi)``, a ``uint32`` array equal to
    the pooled entropy of ``SeedSequence((seed, t))``.

    The seed's words are built once; below 2**32 every trial is one word, so
    one array is reused with its last slot overwritten.  ``SeedSequence``
    mixes the words into its pool when it is built, which fixes the stream,
    but keeps the array as its ``entropy``: a generator seeded from an item
    must not outlive its trial.
    """
    head = _words(int(seed))
    words = np.array(head + [0], dtype=np.uint32)
    for t in range(lo, hi):
        if t <= 0xFFFFFFFF:
            words[-1] = t
            yield words
        else:
            yield np.array(head + _words(t), dtype=np.uint32)


def _draw(rng: np.random.Generator, generator: str, out: np.ndarray, scratch: np.ndarray) -> None:
    """Fill the row ``out`` with one draw; ``scratch`` is a work row of the same size."""
    if generator == "two_point":
        # indicator-like vectors with entries in {0, 1}
        out[...] = rng.integers(0, 2, size=out.size)
        return
    rng.standard_normal(out=out)
    if generator == "heavy_tail":
        # normal over sqrt(uniform); the uniform is taken on (0, 1] so the
        # ratio stays finite
        rng.random(out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        out /= np.sqrt(scratch, out=scratch)


def _draw_pair(
    rng: np.random.Generator, generator: str, x: np.ndarray, y: np.ndarray, scratch: np.ndarray
) -> np.ndarray | None:
    """Draw one trial's pair into the rows ``x`` and ``y``.

    Returns the atoms of the comonotone nudge (a random half, drawn with
    probability 1/4), or None; ``_nudge`` applies them.
    """
    _draw(rng, generator, x, scratch)
    _draw(rng, generator, y, scratch)
    if rng.random() < 0.25:
        return rng.choice(x.size, size=x.size // 2, replace=False)
    return None


def _nudge(xs: np.ndarray, ys: np.ndarray, rows: np.ndarray, picks: np.ndarray) -> None:
    """Nudge each ``ys[r]`` toward comonotonicity with ``xs[r]``, in place:
    on the atoms ``picks[k]`` of row ``r = rows[k]``, rearrange y so that it
    follows x's ordering there."""
    idx = np.sort(picks, axis=1)
    order = np.argsort(np.take_along_axis(xs[rows], idx, axis=1), axis=1, kind="stable")
    y = ys[rows]
    sorted_y = np.sort(np.take_along_axis(y, idx, axis=1), axis=1)
    np.put_along_axis(y, np.take_along_axis(idx, order, axis=1), sorted_y, axis=1)
    ys[rows] = y


def _sweep_chunk(
    spec: RiskMeasureSpec,
    n_atoms: int,
    lo: int,
    hi: int,
    seed: int,
    generator: str,
    epsilon: float,
):
    """Gap counts and the worst trial over trials ``[lo, hi)``.

    Each trial seeds its own ``Generator(PCG64(SeedSequence((seed, t))))``
    from reused seed words (``_trial_words``), draws x and y straight into
    its rows of the batch, and makes the nudge's two RNG calls.  The nudge
    itself runs once for the chunk (``_nudge``): its remaining steps use no
    randomness and touch only their own trial's y, so deferring them leaves
    every row as a per-trial nudge would.
    """
    m = hi - lo
    # x, y, meet and join rows, stacked as evaluate_batch reads them
    batch = np.empty((4, m, n_atoms))
    xs, ys, meets, joins = batch
    scratch = np.empty(n_atoms)
    rows, picks = [], []
    for i, words in enumerate(_trial_words(seed, lo, hi)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
        pick = _draw_pair(rng, generator, xs[i], ys[i], scratch)
        if pick is not None:
            rows.append(i)
            picks.append(pick)
    if rows:
        _nudge(xs, ys, np.array(rows), np.array(picks))
    np.minimum(xs, ys, out=meets)
    np.maximum(xs, ys, out=joins)
    vals = spec.evaluate_batch(batch.reshape(4 * m, n_atoms))
    gaps = (vals[:m] + vals[m : 2 * m]) - (vals[2 * m : 3 * m] + vals[3 * m :])
    i_min = int(np.argmin(gaps))
    return (
        int(np.count_nonzero(gaps < -epsilon)),
        float(gaps[i_min]),
        lo + i_min,
        (xs[i_min].copy(), ys[i_min].copy()),
    )


def random_pair_sweep(
    spec: RiskMeasureSpec,
    n_atoms: int,
    trials: int,
    seed: int,
    generator: str = "gaussian",
    epsilon: float = DEFAULT_EPSILON,
    threads: int = 1,
) -> SweepReport:
    """Measure the submodularity gap on ``trials`` independent random pairs.

    Deterministic given ``seed`` (per-trial RNG streams); ``threads > 1``
    chunks the trial range across a thread pool without changing any result.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError("seed must be a nonnegative integer")
    if n_atoms < 3:
        raise DomainError("sweeps need n_atoms >= 3")
    if trials < 1:
        raise DomainError("sweeps need at least one trial")
    if generator not in GENERATORS:
        raise DomainError(f"unknown generator {generator!r}; expected one of {GENERATORS}")

    n_workers = max(1, min(int(threads), trials))
    # chunk size bounded both by the worker count and a memory cap
    chunk = max(1, min(20_000, -(-trials // n_workers)))
    spans = [(lo, min(trials, lo + chunk)) for lo in range(0, trials, chunk)]

    def run(span):
        return _sweep_chunk(spec, n_atoms, span[0], span[1], seed, generator, epsilon)

    if n_workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(run, spans))
    else:
        parts = [run(span) for span in spans]

    violations = sum(p[0] for p in parts)
    # lexicographic (gap, trial index) so ties resolve to the earliest trial
    best = min(parts, key=lambda p: (p[1], p[2]))
    return SweepReport(
        label=spec.label,
        trials=trials,
        violations=violations,
        worst_gap=best[1],
        worst_pair=best[3],
        seed=int(seed),
        n_atoms=int(n_atoms),
        generator=generator,
        epsilon=float(epsilon),
    )


def violation_rate(results) -> float:
    """Fraction of violated results in a nonempty list of ``GapResult``."""
    results = list(results)
    if not results:
        raise DomainError("violation rate of an empty result list is undefined")
    return sum(1 for r in results if r.violated) / len(results)
