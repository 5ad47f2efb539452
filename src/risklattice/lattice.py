"""Lattice submodularity and subadditivity gap measurement.

For a configured risk measure ``rho`` and a pair of samples on a common atom
space, the submodularity gap is::

    gap = rho(x) + rho(y) - rho(x ^ y) - rho(x v y)

with ``^``/``v`` the pointwise minimum/maximum; a violation is recorded when
``gap < -epsilon`` (default ``DEFAULT_EPSILON = 1e-8``, a conservative guard
against double-precision arithmetic error).  The subadditivity gap replaces the
meet/join pair by the sum: ``rho(x) + rho(y) - rho(x + y)``.

``random_pair_sweep`` operationalizes "for all x, y" as a seeded randomized
search: every trial draws an independent pair from one of three generators
and, with probability 1/4, nudges the second vector toward comonotonicity
with the first (sorting part of it into the first vector's order), probing
the comonotone boundary where submodularity interacts with comonotonic
additivity.  RNG streams are split per trial index from the seed, so a sweep
in many chunks and one in a single chunk agree bit for bit: trial ``t``
draws from ``PCG64(SeedSequence((seed, t)))``.  ``SeedSequence``'s hash is a
fixed function of the entropy words, so a chunk hashes all its trials' seeds
in one pass of ``uint32`` numpy arithmetic (``_seed_states``) and hands each
trial's ``PCG64`` its precomputed words.  A chunk's batch is trial-major,
``(trials, 4, n_atoms)``: each trial's x, y, meet and join rows lie
together.  A trial draws its pair into its x and y rows (a gaussian pair in
one call over both, which reads the stream as one call for x and one for y
do) and tosses the nudge's coin on one raw word.  A nudged trial takes the
raw words of numpy's ``choice``, which the chunk redoes in Floyd's step loop
over all its nudged trials at once; above 1,024 atoms it calls ``choice``.

A sweep runs in chunks of at most ``_CHUNK_BYTES // (32 n_atoms)`` trials,
so a chunk's x, y, meet and join rows fit ``_CHUNK_BYTES`` (64 MB) unless a
single trial is larger.  The measure's kernel reads them a block at a time
where it builds work arrays as large as its batch (``measures._in_blocks``:
blocks of ``measures._BLOCK_BYTES``, 256 KB, or of 16 rows where that is
more), so a sweep's memory is its kept rows plus one block's work arrays.
A chunk's pairs depend only on ``(n_atoms, lo, hi, seed, generator)``, not
on the measure or ``epsilon``.  So the module keeps the last chunk it drew
under that key, as one read-only array: its rows validated once and sorted
once along the atoms axis, the form every measure's kernel reads.  A later
sweep with the same key evaluates the kept rows and neither draws, validates
nor sorts again: sweeping several measures on one seed in one process draws
the pairs once and sorts them once.  A report keeps only its worst trial's index and redraws
that trial's pair when read.  Results are bit for bit those of a fresh draw.
A single CLI ``sweep`` runs in a fresh process, draws and sorts once as it
would anyway, and so gains nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .sample import as_batch, pointwise_meet_join
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

    ``worst_gap`` is the minimum gap over all trials and ``worst_trial`` the
    index of the trial attaining it (the first such trial on ties).
    ``worst_pair`` is that trial's pair, redrawn from its own stream each time
    it is read.  Identical seed and spec reproduce the report exactly.
    """

    label: str
    trials: int
    violations: int
    worst_gap: float
    worst_trial: int
    seed: int
    n_atoms: int
    generator: str
    epsilon: float

    @property
    def violation_found(self) -> bool:
        return self.violations > 0

    @property
    def worst_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """The x and y of trial ``worst_trial``, bit for bit as the sweep drew
        them; the kept chunk (``_pair_batch``) is left as it is."""
        t = self.worst_trial
        return tuple(_draw_pairs(self.n_atoms, t, t + 1, self.seed, self.generator)[0, :2])


def _check_epsilon(epsilon: float) -> None:
    """Raise ``DomainError`` unless ``0 <= epsilon < inf``: a negative
    threshold counts gaps of exactly 0 as violations, and NaN or infinity
    counts none."""
    if not 0 <= epsilon < np.inf:
        raise DomainError(f"epsilon must be finite and nonnegative, got {epsilon!r}")


def submodularity_gap(
    spec: RiskMeasureSpec, x, y, epsilon: float = DEFAULT_EPSILON
) -> GapResult:
    """Gap ``rho(x) + rho(y) - rho(meet) - rho(join)`` for the configured measure."""
    _check_epsilon(epsilon)
    vx, vy, vmeet, vjoin = spec.evaluate_batch(np.stack([x, y, *pointwise_meet_join(x, y)]))
    # grouped so the gap is exactly 0 whenever {meet, join} == {x, y} bitwise
    # (dominated pairs, x == y) and exactly symmetric in (x, y)
    gap = float((vx + vy) - (vmeet + vjoin))
    return GapResult(gap=gap, violated=gap < -epsilon, epsilon=epsilon)


def subadditivity_gap(
    spec: RiskMeasureSpec, x, y, epsilon: float = DEFAULT_EPSILON
) -> GapResult:
    """Gap ``rho(x) + rho(y) - rho(x + y)``; negative values penalize diversification."""
    _check_epsilon(epsilon)
    meet, join = pointwise_meet_join(x, y)
    # meet + join is x + y bit for bit: each atom adds the same two values
    vx, vy, vsum = spec.evaluate_batch(np.stack([x, y, meet + join]))
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


# The hash of numpy's ``SeedSequence`` (``numpy/random/bit_generator.pyx``):
# its pool size, hash constants and xorshift.  The oracle tests in
# ``tests/test_lattice.py`` compare ``_seed_states`` with ``SeedSequence``
# itself, so a numpy whose hash differs fails them.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = np.uint32(16)


def _hasher(const: int, mult: int):
    """``SeedSequence``'s running hash of ``uint32`` arrays: each call xors
    in the constant, steps it by ``mult`` and multiplies by the new one."""

    def step(v: np.ndarray) -> np.ndarray:
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        v = v * np.uint32(const)
        return v ^ (v >> _XSHIFT)

    return step


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> _XSHIFT)


def _hash_pools(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for many entropies at
    once: ``entropy[k]`` holds word ``k`` of every entropy, and the result has
    one row per entropy.  ``uint32`` arithmetic wraps as numpy's C does."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    # mix_entropy: hash the first words into the pool, padding with
    # hashmix(0) when the entropy is shorter than the pool
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    # ... mix all pairs of pool words so late words reach early ones
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # ... and mix each word past the pool into every pool word
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight 32-bit words cycling over the pool,
    # paired little-endian into four 64-bit words
    hash_b = _hasher(_INIT_B, _MULT_B)
    out = [hash_b(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return np.stack([out[2 * j] | (out[2 * j + 1] << np.uint64(32)) for j in range(4)], axis=1)


def _seed_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """A ``(hi - lo, 4)`` ``uint64`` array whose row ``t - lo`` equals
    ``SeedSequence((seed, t)).generate_state(4, np.uint64)``, the words
    ``PCG64`` seeds itself from, for every trial ``t`` in ``[lo, hi)``.

    The entropy of trial ``t`` is the seed's words followed by ``t``'s; a
    trial index of 2**32 or more has two words, so a range that straddles
    2**32 is hashed in two groups.
    """
    head = _words(int(seed))
    states = np.empty((hi - lo, 4), dtype=np.uint64)
    cut = min(max(lo, 1 << 32), hi)
    for a, b in ((lo, cut), (cut, hi)):
        if a == b:
            continue
        t = np.arange(a, b, dtype=np.uint64)
        entropy = [np.full(b - a, w, dtype=np.uint32) for w in head]
        entropy.append((t & np.uint64(0xFFFFFFFF)).astype(np.uint32))
        if a > 0xFFFFFFFF:
            entropy.append((t >> np.uint64(32)).astype(np.uint32))
        states[a - lo : b - lo] = _hash_pools(entropy)
    return states


class _Pooled:
    """A seed sequence that hands ``PCG64`` one precomputed row of
    ``_seed_states``.

    Trials seed from its ``ISeedSequence`` subclass (numpy's documented
    interface for seed sequences), ``_pooled_seed_sequence``, built at the
    first draw so that importing this module does not load
    ``numpy.random``.  It answers only the request
    ``PCG64`` makes, ``generate_state(4, np.uint64)``, and raises on any
    other rather than return words a ``SeedSequence`` would not.
    """

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        # PCG64 passes np.uint64 itself: the identity test skips building a dtype
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise RuntimeError(
                f"precomputed seed state holds generate_state(4, uint64), "
                f"not ({n_words}, {np.dtype(dtype)})"
            )
        return self.state


@functools.cache
def _pooled_seed_sequence() -> type:
    """``_Pooled`` as a subclass of ``ISeedSequence``: ``PCG64``'s
    ``isinstance`` check passes a subclass faster than a class registered
    with the ABC (1.3 against 1.7 us per generator)."""
    from numpy.random.bit_generator import ISeedSequence

    return type("_PooledSeedSequence", (_Pooled, ISeedSequence), {"__slots__": ()})


def _generators(seed: int, lo: int, hi: int):
    """Yield ``Generator(PCG64(SeedSequence((seed, t))))`` for each trial
    ``t`` in ``[lo, hi)``, seeded from one ``_seed_states`` call."""
    from numpy.random import PCG64, Generator

    pooled = _pooled_seed_sequence()
    for state in _seed_states(seed, lo, hi):
        yield Generator(PCG64(pooled(state)))


def _draw_pair(rng: np.random.Generator, generator: str, pair: np.ndarray,
               scratch: np.ndarray) -> None:
    """Fill the contiguous ``(2, n)`` block ``pair`` with a trial's x and y;
    ``scratch`` is a work row of size ``n``.

    A gaussian pair is one ``standard_normal`` call over both rows, and a
    two_point pair (indicator-like vectors with entries in {0, 1}) one
    ``integers`` call; each reads the stream as one call for x and one for
    y do.  A heavy_tail pair draws x, then y.
    """
    if generator == "gaussian":
        rng.standard_normal(out=pair)
    elif generator == "two_point":
        pair[...] = rng.integers(0, 2, size=pair.shape)
    else:
        for out in pair:
            # normal over sqrt(uniform); the uniform is taken on (0, 1] so
            # the ratio stays finite
            rng.standard_normal(out=out)
            rng.random(out=scratch)
            np.subtract(1.0, scratch, out=scratch)
            out /= np.sqrt(scratch, out=scratch)


_NUDGE_BELOW = np.uint64(1 << 62)  # random() < 0.25 exactly when its raw word is below
_FLOYD_MAX_ATOMS = 1_024  # the step loop's cost grows with n; above, numpy's calls run


def _floyd_picks(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.sort(Generator.choice(n, n // 2, replace=False))`` for each row of
    raw ``PCG64`` words (``n <= _FLOYD_MAX_ATOMS``), all rows at once, and a
    flag on each row where Lemire's bounded draw rejects a half.

    Floyd's step ``s`` takes ``j = n - k + s`` and, from the next 32-bit half
    ``u`` (low half first), ``val = u (j + 1) >> 32``, rejecting ``u`` where
    ``u (j + 1) mod 2**32 < 2**32 mod (j + 1)``.  It takes ``j`` if ``val``
    is taken already, else ``val``; no step before it takes ``j``."""
    m, k = len(words), n // 2
    bound = np.arange(n - k + 1, n + 1, dtype=np.uint64)  # j + 1 at each step
    # low half first on any platform
    scaled = words.astype("<u8", copy=False).view("<u4")[:, :k] * bound
    rejected = (scaled.astype(np.uint32) < (1 << 32) % bound).any(axis=1)
    vals = (scaled >> 32).astype(np.intp)
    vals += np.arange(0, m * n, n)[:, None]  # val's index in the flat (m, n) taken
    taken = np.zeros(m * n, dtype=bool)
    for j, val in zip(range(n - k, n), vals.T):
        taken[j::n] = taken[val]  # column j: taken where val was drawn before
        taken[val] = True
    picks = np.flatnonzero(taken).reshape(m, k)
    picks -= np.arange(0, m * n, n)[:, None]
    return picks, rejected


def _nudge(xs: np.ndarray, ys: np.ndarray, rows: np.ndarray, picks: np.ndarray) -> None:
    """Nudge each ``ys[r]`` toward comonotonicity with ``xs[r]``, in place:
    on the atoms ``picks[k]`` of row ``r = rows[k]``, rearrange y so that it
    follows x's ordering there."""
    idx = np.sort(picks, axis=1)
    rows = rows[:, None]
    order = np.argsort(xs[rows, idx], axis=1, kind="stable")
    ys[rows, np.take_along_axis(idx, order, axis=1)] = np.sort(ys[rows, idx], axis=1)


# the most bytes a chunk's sorted rows take, at 32 per trial and atom, unless
# a single trial takes more; the kernel's work arrays take a few blocks of
# measures._BLOCK_BYTES beside them
_CHUNK_BYTES = 64 << 20
# (key, rows) of the last chunk drawn by ``_pair_batch``, or None
_pair_cache: tuple[tuple, np.ndarray] | None = None


def _forget_pairs() -> None:
    """Drop the kept chunk, so that the next sweep draws its pairs."""
    global _pair_cache
    _pair_cache = None


def _draw_pairs(n_atoms: int, lo: int, hi: int, seed: int, generator: str) -> np.ndarray:
    """The trial-major ``(hi - lo, 4, n_atoms)`` batch of trials ``[lo, hi)``:
    ``batch[i]`` holds trial ``lo + i``'s x, y, meet and join rows.

    Each trial draws x and y into its contiguous ``(2, n_atoms)`` block
    (``_draw_pair``: one call for a gaussian pair) and tosses the nudge's
    coin on one raw word (``_NUDGE_BELOW``).  A nudged trial takes
    the raw words that numpy's ``choice`` would read, or above
    ``_FLOYD_MAX_ATOMS``, 1,024 atoms, calls ``choice`` itself.
    ``_floyd_picks`` makes the choice for all nudged trials in Floyd's step
    loop, a trial it flags is redone with numpy's own calls, and ``_nudge``
    runs once: it uses no randomness.
    """
    m, k, floyd = hi - lo, n_atoms // 2, n_atoms <= _FLOYD_MAX_ATOMS
    batch = np.empty((m, 4, n_atoms))
    xs, ys = batch[:, 0], batch[:, 1]
    scratch = np.empty(n_atoms)
    rows, picks = [], []
    for i, rng in enumerate(_generators(seed, lo, hi)):
        _draw_pair(rng, generator, batch[i, :2], scratch)
        if rng.bit_generator.random_raw() < _NUDGE_BELOW:
            rows.append(i)
            picks.append(rng.bit_generator.random_raw((k + 1) // 2) if floyd
                         else rng.choice(n_atoms, size=k, replace=False))
    if rows:
        picks = np.array(picks)
        if floyd:
            picks, replay = _floyd_picks(picks, n_atoms)
            for r in np.flatnonzero(replay):
                rng = next(_generators(seed, lo + rows[r], lo + rows[r] + 1))
                # the pair again, into the trial's meet and join rows, free until the end
                _draw_pair(rng, generator, batch[rows[r], 2:], scratch)
                rng.random()
                picks[r] = rng.choice(n_atoms, size=k, replace=False)
        _nudge(xs, ys, np.array(rows), picks)
    np.minimum(xs, ys, out=batch[:, 2])
    np.maximum(xs, ys, out=batch[:, 3])
    return batch


def _pair_batch(n_atoms: int, lo: int, hi: int, seed: int, generator: str) -> np.ndarray:
    """The read-only sorted rows of trials ``[lo, hi)``.

    ``rows`` is ``(4 (hi - lo), n_atoms)``: the trial-major batch of
    ``_draw_pairs`` with its first two axes merged, so that rows ``4 i`` to
    ``4 i + 3`` are trial ``lo + i``'s x, y, meet and join, validated by
    ``as_batch`` and sorted ascending in place along the atoms axis, which
    is what ``evaluate_batch`` would hand each measure's kernel.

    They depend only on the key ``(n_atoms, lo, hi, seed, generator)``, so
    the last chunk drawn is kept and handed to the next call with the same
    key; the measure and ``epsilon`` act only after the sort.
    """
    global _pair_cache
    key = (n_atoms, lo, hi, int(seed), generator)
    if _pair_cache is not None and _pair_cache[0] == key:
        return _pair_cache[1]
    _pair_cache = None  # free the old chunk before drawing the new one
    rows = as_batch(_draw_pairs(n_atoms, lo, hi, seed, generator).reshape(-1, n_atoms))
    rows.sort(axis=1)  # in place: the rows np.sort(rows, axis=1) returns
    rows.flags.writeable = False
    _pair_cache = (key, rows)
    return rows


def _sweep_chunk(
    spec: RiskMeasureSpec,
    n_atoms: int,
    lo: int,
    hi: int,
    seed: int,
    generator: str,
    epsilon: float,
) -> tuple[int, float, int]:
    """Gap count, worst gap and worst trial over trials ``[lo, hi)``: the
    measure's kernel reads the kept sorted rows, four to a trial."""
    v = spec.kernel(n_atoms)(_pair_batch(n_atoms, lo, hi, seed, generator)).reshape(hi - lo, 4)
    gaps = (v[:, 0] + v[:, 1]) - (v[:, 2] + v[:, 3])
    i_min = int(np.argmin(gaps))
    return int(np.count_nonzero(gaps < -epsilon)), float(gaps[i_min]), lo + i_min


def random_pair_sweep(
    spec: RiskMeasureSpec,
    n_atoms: int,
    trials: int,
    seed: int,
    generator: str = "gaussian",
    epsilon: float = DEFAULT_EPSILON,
) -> SweepReport:
    """Measure the submodularity gap on ``trials`` independent random pairs.

    Deterministic given ``seed`` (per-trial RNG streams).  Trials run
    serially, in chunks whose sorted rows fit ``_CHUNK_BYTES``.  The last
    chunk's sorted pairs are kept (``_pair_batch``), so a later one-chunk
    sweep of another measure on the same pairs only runs the measure.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError("seed must be a nonnegative integer")
    if not isinstance(n_atoms, (int, np.integer)) or n_atoms < 3:
        raise DomainError("sweeps need an integer n_atoms >= 3")
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise DomainError("sweeps need an integer count of at least one trial")
    if generator not in GENERATORS:
        raise DomainError(f"unknown generator {generator!r}; expected one of {GENERATORS}")
    _check_epsilon(epsilon)

    chunk = max(1, _CHUNK_BYTES // (32 * n_atoms))
    parts = [_sweep_chunk(spec, n_atoms, lo, min(trials, lo + chunk), seed, generator, epsilon)
             for lo in range(0, trials, chunk)]

    violations = sum(p[0] for p in parts)
    # lexicographic (gap, trial index) so ties resolve to the earliest trial
    best = min(parts, key=lambda p: (p[1], p[2]))
    return SweepReport(
        label=spec.label,
        trials=trials,
        violations=violations,
        worst_gap=best[1],
        worst_trial=best[2],
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
