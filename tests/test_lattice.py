import tracemalloc

import numpy as np
import pytest

from risklattice import (
    DimensionError,
    DomainError,
    GapResult,
    RiskMeasureSpec,
    cvar_loss,
    expectile_loss,
    exponential_loss,
    linear_loss,
    parse_measure_spec,
    poly2exp_loss,
    random_pair_sweep,
    subadditivity_gap,
    submodularity_gap,
    violation_rate,
)
from risklattice import lattice, measures
from risklattice import specs as specs_module
from risklattice.lattice import GENERATORS, _Pooled, _seed_states


@pytest.fixture(autouse=True)
def cold_pairs():
    # every test draws its pairs: a batch kept by an earlier test would let
    # a generator check pass without running the generator it checks
    lattice._forget_pairs()
    yield
    lattice._forget_pairs()


def test_expected_loss_gap_exactly_zero():
    rng = np.random.default_rng(2)
    spec = RiskMeasureSpec.expected_loss(exponential_loss(1.0))
    for _ in range(50):
        x, y = rng.standard_normal((2, 8))
        res = submodularity_gap(spec, x, y)
        assert abs(res.gap) <= 1e-12 and not res.violated


def test_identical_samples_gap_zero():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(10)
    for spec in (RiskMeasureSpec.var(0.8), RiskMeasureSpec.es(0.8),
                 RiskMeasureSpec.shortfall(exponential_loss(1.0))):
        assert submodularity_gap(spec, x, x).gap == 0.0


def test_es_gap_never_meaningfully_negative():
    rng = np.random.default_rng(4)
    spec = RiskMeasureSpec.es(0.9)
    for _ in range(500):
        x, y = rng.standard_normal((2, 12))
        assert submodularity_gap(spec, x, y).gap >= -1e-12


def test_gap_symmetry_exact():
    rng = np.random.default_rng(5)
    spec = RiskMeasureSpec.var(0.7)
    for _ in range(50):
        x, y = rng.standard_normal((2, 9))
        assert submodularity_gap(spec, x, y).gap == submodularity_gap(spec, y, x).gap


def test_violated_flag_follows_epsilon():
    res = GapResult(gap=-1e-6, violated=True, epsilon=1e-8)
    assert res.violated == (res.gap < -res.epsilon)
    spec = RiskMeasureSpec.var(0.5)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0, 0.0])
    loose = subadditivity_gap(spec, x, y, epsilon=2.0)
    assert loose.gap == -1.0 and not loose.violated


@pytest.mark.parametrize("gap", [submodularity_gap, subadditivity_gap])
def test_gaps_refuse_a_mismatched_pair(gap):
    with pytest.raises(DimensionError, match="different atom spaces: 3 vs 4"):
        gap(RiskMeasureSpec.es(0.8), [0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0])


@pytest.mark.parametrize("gap", [submodularity_gap, subadditivity_gap])
def test_gap_bits_do_not_depend_on_the_input_type(gap):
    # float32 values, so the list, float32 and float64 forms hold the same
    # numbers
    x, y = np.random.default_rng(8).standard_normal((2, 12)).astype(np.float32)
    for spec in (RiskMeasureSpec.var(0.7), RiskMeasureSpec.es(0.8),
                 RiskMeasureSpec.shortfall(exponential_loss(1.0))):
        forms = [(x.tolist(), y.tolist()), (x, y), (x.astype(np.float64), y.astype(np.float64))]
        bits = {gap(spec, a, b).gap.hex() for a, b in forms}
        assert len(bits) == 1, (spec.label, bits)


# ---------------------------------------------------------------------------
# subadditivity


def test_var_subadditivity_violation_example():
    spec = RiskMeasureSpec.var(0.5)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0, 0.0])
    res = subadditivity_gap(spec, x, y)
    assert res.gap == -1.0 and res.violated


def test_es_subadditivity_never_violated():
    rng = np.random.default_rng(6)
    spec = RiskMeasureSpec.es(0.8)
    for _ in range(300):
        x, y = rng.standard_normal((2, 10))
        assert subadditivity_gap(spec, x, y).gap >= -1e-12


def test_zero_vector_partner_gap_zero():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(10)
    zero = np.zeros(10)
    for spec in (RiskMeasureSpec.es(0.8), RiskMeasureSpec.shortfall(exponential_loss(1.0))):
        assert abs(subadditivity_gap(spec, x, zero).gap) <= 1e-10


# ---------------------------------------------------------------------------
# sweeps


# The per-trial generator as it was before the chunk loop reused seed words,
# drew into the batch and batched the nudge: the oracle those must match.
def _oracle_draw(rng, generator, n):
    if generator == "gaussian":
        return rng.standard_normal(n)
    if generator == "heavy_tail":
        return rng.standard_normal(n) / np.sqrt(1.0 - rng.random(n))
    return rng.integers(0, 2, size=n).astype(np.float64)


def _oracle_draw_pair(rng, generator, n):
    x = _oracle_draw(rng, generator, n)
    y = _oracle_draw(rng, generator, n)
    nudged = rng.random() < 0.25
    if nudged:
        idx = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
        order = np.argsort(x[idx], kind="stable")
        y[idx[order]] = np.sort(y[idx])
    return x, y, nudged


def _oracle_pairs(seed, lo, hi, generator, n):
    xs, ys, nudged = [], [], []
    for trial in range(lo, hi):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, trial)))
        x, y, nudge = _oracle_draw_pair(rng, generator, n)
        xs.append(x)
        ys.append(y)
        nudged.append(nudge)
    return np.array(xs), np.array(ys), np.array(nudged)


def _assert_chunk_matches_oracle(seed, lo, hi, generator, n):
    batch = lattice._draw_pairs(n, lo, hi, seed, generator)
    rows = lattice._pair_batch(n, lo, hi, seed, generator)
    xs, ys, nudged = _oracle_pairs(seed, lo, hi, generator, n)
    # trial-major: each trial's x, y, meet and join rows together
    expected = np.stack([xs, ys, np.minimum(xs, ys), np.maximum(xs, ys)], axis=1)
    assert batch.shape == (hi - lo, 4, n)
    assert batch.tobytes() == expected.tobytes()  # bit for bit, -0.0 included
    assert rows.tobytes() == np.sort(expected.reshape(-1, n), axis=1).tobytes()
    return nudged


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("n", [3, 4, 11, 50])
# 2**96 + 7 has four words, so its entropy runs past SeedSequence's pool
@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32 + 5, 2**64 + 3, 2**96 + 7])
def test_chunk_draws_bit_equal_to_per_trial_loop(seed, n, generator):
    nudged = _assert_chunk_matches_oracle(seed, 37, 137, generator, n)
    assert nudged.any() and not nudged.all()


@pytest.mark.parametrize("n", [3, 4, 11, 50, 1100])
def test_two_point_pair_is_one_draw_of_two_vectors(n):
    # one integers call into the (2, n) block gives the values of one call
    # per vector and leaves the stream at the same word, odd n included
    pair, scratch = np.empty((2, n)), np.empty(n)
    for seed in range(40):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        lattice._draw_pair(rng, "two_point", pair, scratch)
        x, y = oracle.integers(0, 2, size=n), oracle.integers(0, 2, size=n)
        assert pair.tobytes() == np.stack([x, y]).astype(np.float64).tobytes()
        assert rng.bit_generator.random_raw() == oracle.bit_generator.random_raw()


def test_chunk_draws_with_many_nudged_trials():
    # hundreds of nudged rows share one pass of the copied choice
    for generator in GENERATORS:
        assert _assert_chunk_matches_oracle(5, 3, 603, generator, 50).sum() > 100


def test_chunk_draws_past_32_bit_trial_index():
    _assert_chunk_matches_oracle(2**32 + 5, 2**32 - 2, 2**32 + 2, "gaussian", 11)
    for seed in (0, 2**32 + 5):
        _assert_seed_states_match(seed, 2**32 - 1, 2**32 + 2)


def _nudge_streams(seed, trials, generator, n):
    """After each trial's pair draws on ``SeedSequence((seed, t))``: the raw
    words of the nudge, numpy's coin and numpy's own sorted picks."""
    k = n // 2
    words, coins, picks = [], [], []
    for t in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, t))))
        _oracle_draw(rng, generator, n)
        _oracle_draw(rng, generator, n)
        state = rng.bit_generator.state
        words.append(rng.bit_generator.random_raw(1 + (k + 1) // 2))
        rng.bit_generator.state = state
        coins.append(rng.random() < 0.25)
        picks.append(np.sort(rng.choice(n, size=k, replace=False)))
    return np.array(words), np.array(coins), np.array(picks)


# 4 x 3 x 7,000 = 84,000 streams, 21,000 for each n
@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("n", [3, 4, 11, 50])
def test_floyd_picks_match_numpy_choice(n, generator):
    words, coins, want = _nudge_streams(11, 7_000, generator, n)
    np.testing.assert_array_equal(words[:, 0] < lattice._NUDGE_BELOW, coins)
    picks, rejected = lattice._floyd_picks(words[:, 1:], n)
    assert not rejected.any()
    np.testing.assert_array_equal(picks, want)


# long chains of steps that draw an earlier step's j; a rare row Lemire's
# method rejects is replayed, so only the others must match
@pytest.mark.parametrize("n", [500, 1_024, 2_001, 10_000])
def test_floyd_picks_match_numpy_choice_on_many_atoms(n):
    words, coins, want = _nudge_streams(13, 300, "gaussian", n)
    picks, rejected = lattice._floyd_picks(words[:, 1:], n)
    assert rejected.sum() <= 3
    np.testing.assert_array_equal(picks[~rejected], want[~rejected])


def test_floyd_picks_flag_a_rejected_draw():
    # n = 50 draws first on [0, 25]: Lemire's method rejects a half u when
    # (26 u) mod 2**32 < 2**32 mod 26 = 22, so u = 0 rejects; 26 u = 20 and
    # 26 u = 22 (mod 2**32) sit either side of the threshold
    inv13 = pow(13, -1, 2**31)
    halves = [0, 10 * inv13 % 2**31, 11 * inv13 % 2**31, 2**31]
    assert [26 * u % 2**32 for u in halves] == [0, 20, 22, 0]
    # each word's high half is 2**31, harmless at the odd j + 1 it is drawn at
    words = np.full((len(halves), 13), 2**63 + 12345, dtype=np.uint64)
    words[:, 0] = np.array([2**63 + u for u in halves], dtype=np.uint64)
    picks, rejected = lattice._floyd_picks(words, 50)
    assert rejected.tolist() == [True, True, False, True]
    assert picks.shape == (4, 25) and (np.diff(picks, axis=1) > 0).all()


def _flag_every_other(monkeypatch):
    """Make the copied choice flag every other nudged row, with garbage picks."""
    floyd = lattice._floyd_picks

    def flag_every_other(words, n):
        picks, rejected = floyd(words, n)
        picks[::2] = 0
        rejected[::2] = True
        return picks, rejected

    monkeypatch.setattr(lattice, "_floyd_picks", flag_every_other)


def test_replayed_rows_match_oracle(monkeypatch):
    # rows flagged by the copied choice are replayed with numpy's own calls;
    # the garbage picks given for them must not survive
    _flag_every_other(monkeypatch)
    for generator in GENERATORS:
        assert _assert_chunk_matches_oracle(7, 5, 85, generator, 11).sum() >= 2


@pytest.mark.parametrize("n", [1_024, 1_025, 10_000, 10_001])
def test_chunk_draws_at_floyd_limit(n):
    # the copied choice runs up to 1024 atoms, and each nudged trial calls
    # numpy's choice itself above; numpy's choice runs Floyd's algorithm up
    # to 10000 atoms and shuffles a tail of arange(n) above
    assert _assert_chunk_matches_oracle(3, 0, 12, "gaussian", n).any()


def _assert_seed_states_match(seed, lo, hi):
    got = _seed_states(seed, lo, hi)
    want = [np.random.SeedSequence((seed, t)).generate_state(4, np.uint64) for t in range(lo, hi)]
    assert got.dtype == np.uint64
    assert got.tobytes() == np.array(want).tobytes()


# seeds of one to seven words: entropy shorter than the pool, filling it, and
# running past it
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**64 + 3, 2**96 + 7, 2**200 + 1])
@pytest.mark.parametrize("lo, hi", [(0, 50), (37, 38), (2**32 - 3, 2**32 + 3), (2**32, 2**32 + 2)])
def test_seed_states_match_seed_sequence(seed, lo, hi):
    _assert_seed_states_match(seed, lo, hi)


def test_pooled_seed_state_serves_only_pcg64_request():
    state = _seed_states(3, 0, 1)[0]
    # PCG64 passes np.uint64 itself; any other spelling of the dtype works too
    for dtype in (np.uint64, np.dtype(np.uint64), "uint64"):
        assert _Pooled(state).generate_state(4, dtype) is state
    for n_words, dtype in ((8, np.uint32), (4, np.uint32), (2, np.uint64)):
        with pytest.raises(RuntimeError, match="generate_state"):
            _Pooled(state).generate_state(n_words, dtype)


def test_trials_seed_from_a_seed_sequence_subclass():
    # a subclass, not a class registered with the ABC; streams are numpy's
    from numpy.random.bit_generator import ISeedSequence

    assert ISeedSequence in lattice._pooled_seed_sequence().__mro__
    assert not issubclass(_Pooled, ISeedSequence)
    for t, rng in enumerate(lattice._generators(3, 0, 3)):
        want = np.random.Generator(np.random.PCG64(np.random.SeedSequence((3, t))))
        assert rng.bit_generator.random_raw(4).tolist() == want.bit_generator.random_raw(4).tolist()


def _recorded_spans(monkeypatch):
    # the (lo, hi) of every chunk that sweeps evaluate from here on, in order
    sweep_chunk, spans = lattice._sweep_chunk, []

    def recording(spec, n, lo, hi, *args):
        spans.append((lo, hi))
        return sweep_chunk(spec, n, lo, hi, *args)

    monkeypatch.setattr(lattice, "_sweep_chunk", recording)
    return spans


def test_sweep_deterministic_and_chunk_invariant(monkeypatch):
    spec = RiskMeasureSpec.var(0.8)
    # a byte bound of 134 trials of 10 atoms splits c's 400 trials into
    # chunks at 134 and 268; with seed 38 the gaussian trials 133 and 134,
    # either side of a border, are nudged
    whole, split = lattice._CHUNK_BYTES, 134 * 32 * 10
    _, _, nudged = _oracle_pairs(38, 133, 135, "gaussian", 10)
    assert nudged.all()
    spans = _recorded_spans(monkeypatch)
    for generator, seed in (("heavy_tail", 9), ("gaussian", 38)):
        spans.clear()
        monkeypatch.setattr(lattice, "_CHUNK_BYTES", whole)
        a = random_pair_sweep(spec, 10, 400, seed=seed, generator=generator)
        lattice._forget_pairs()  # b and c draw their pairs too
        b = random_pair_sweep(spec, 10, 400, seed=seed, generator=generator)
        lattice._forget_pairs()
        monkeypatch.setattr(lattice, "_CHUNK_BYTES", split)
        c = random_pair_sweep(spec, 10, 400, seed=seed, generator=generator)
        assert spans == [(0, 400), (0, 400), (0, 134), (134, 268), (268, 400)]
        assert a.worst_gap == b.worst_gap == c.worst_gap
        assert a.violations == b.violations == c.violations
        np.testing.assert_array_equal(a.worst_pair[0], c.worst_pair[0])
        np.testing.assert_array_equal(a.worst_pair[1], c.worst_pair[1])


def _report_bytes(rep):
    return rep.violations, rep.worst_gap.hex(), rep.worst_trial


def _no_draw(*args):
    raise AssertionError("a sweep on a kept batch drew pairs")


def _assert_worst_pair_redraws_one_trial(monkeypatch, rep):
    # reading worst_pair draws its trial alone, as the oracle does, and
    # leaves the kept chunk in place
    kept, draw, spans = lattice._pair_cache, lattice._generators, []

    def recording(seed, lo, hi):
        spans.append((seed, lo, hi))
        return draw(seed, lo, hi)

    monkeypatch.setattr(lattice, "_generators", recording)
    x, y = rep.worst_pair
    monkeypatch.setattr(lattice, "_generators", draw)
    t = rep.worst_trial
    assert set(spans) == {(rep.seed, t, t + 1)}
    xs, ys, _ = _oracle_pairs(rep.seed, t, t + 1, rep.generator, rep.n_atoms)
    assert (x.tobytes(), y.tobytes()) == (xs[0].tobytes(), ys[0].tobytes())
    assert lattice._pair_cache is kept


# the copied choice with replayed rows, and numpy's own choice above 10,000 atoms
@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize(
    "n, trials, replay", [(11, 300, False), (11, 80, True), (10_001, 12, False)]
)
def test_warm_sweep_equals_cold(monkeypatch, n, trials, replay, generator):
    if replay:
        _flag_every_other(monkeypatch)

    def sweep(spec):
        return random_pair_sweep(spec, n, trials, seed=7, generator=generator)

    specs = (RiskMeasureSpec.es(0.8), RiskMeasureSpec.var(0.8))
    sweep(specs[1])  # keeps the batch
    draw = lattice._generators
    monkeypatch.setattr(lattice, "_generators", _no_draw)
    warm = [sweep(spec) for spec in specs]
    monkeypatch.setattr(lattice, "_generators", draw)
    for rep in warm:
        _assert_worst_pair_redraws_one_trial(monkeypatch, rep)
    cold = []
    for spec in specs:
        lattice._forget_pairs()
        cold.append(_report_bytes(sweep(spec)))
    assert [_report_bytes(rep) for rep in warm] == cold


@pytest.mark.parametrize("field, value", [(0, 12), (1, 1), (2, 41), (3, 8), (4, "heavy_tail")])
def test_pair_cache_misses_on_any_key_change(field, value):
    key = [11, 0, 40, 7, "gaussian"]
    first = lattice._pair_batch(*key)
    assert lattice._pair_batch(*key) is first
    key[field] = value
    second = lattice._pair_batch(*key)
    assert second is not first and lattice._pair_cache[0] == tuple(key)
    lattice._forget_pairs()
    assert lattice._pair_batch(*key).tobytes() == second.tobytes()


def test_kept_sorted_rows_are_read_only():
    rows = lattice._pair_batch(11, 0, 40, 7, "gaussian")
    assert rows.shape == (4 * 40, 11) and not rows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 1.0


def test_kept_batch_is_read_only():
    rows = lattice._pair_batch(11, 0, 40, 7, "gaussian")

    class SortsInPlace:
        label = "in place"

        def kernel(self, n):
            def sort_in_place(Xs):
                Xs.sort(axis=1)
                return np.zeros(len(Xs))

            return sort_in_place

    # a kernel that writes into the kept rows fails instead of changing what
    # the next sweep on the same pairs reads
    with pytest.raises(ValueError, match="read-only"):
        random_pair_sweep(SortsInPlace(), 11, 40, seed=7)
    assert lattice._pair_batch(11, 0, 40, 7, "gaussian") is rows


def test_chunks_fit_the_byte_bound(monkeypatch):
    # a bound of 10 trials of 11 atoms (and a little) splits 41 trials into
    # chunks of 10, each kept in turn, with the results of one chunk
    spec = RiskMeasureSpec.var(0.8)
    whole = random_pair_sweep(spec, 11, 41, seed=7)
    lattice._forget_pairs()
    pair_batch, spans = lattice._pair_batch, []

    def recording(n, lo, hi, seed, generator):
        spans.append((lo, hi))
        rows = pair_batch(n, lo, hi, seed, generator)
        assert rows.nbytes == 32 * (hi - lo) * n <= lattice._CHUNK_BYTES
        assert lattice._pair_cache[1] is rows
        return rows

    monkeypatch.setattr(lattice, "_CHUNK_BYTES", 32 * 10 * 11 + 31)
    monkeypatch.setattr(lattice, "_pair_batch", recording)
    chunked = random_pair_sweep(spec, 11, 41, seed=7)
    assert spans == [(0, 10), (10, 20), (20, 30), (30, 40), (40, 41)]
    assert _report_bytes(chunked) == _report_bytes(whole)
    assert chunked.worst_pair[0].tobytes() == whole.worst_pair[0].tobytes()
    assert chunked.worst_pair[1].tobytes() == whole.worst_pair[1].tobytes()


def test_wide_sweep_chunks_hold_the_bound_in_trials(monkeypatch):
    # 10,001 atoms: 209 trials a chunk, 67 MB of sorted rows, where 20,000
    # trials would be 6.4 GB; the chunks are recorded, not drawn
    spans = []

    def recording(spec, n, lo, hi, seed, generator, epsilon):
        spans.append((lo, hi))
        return 0, 0.0, lo

    monkeypatch.setattr(lattice, "_sweep_chunk", recording)
    random_pair_sweep(RiskMeasureSpec.es(0.95), 10_001, 20_000, seed=0)
    m = lattice._CHUNK_BYTES // (32 * 10_001)
    assert m == 209 and 32 * m * 10_001 <= lattice._CHUNK_BYTES
    assert spans == [(lo, min(lo + m, 20_000)) for lo in range(0, 20_000, m)]


def test_sweep_kernel_allocates_a_few_blocks():
    # shortfall:quadlin builds the most batch-sized work arrays of any
    # kernel.  At 2,000 atoms x 1,000 trials (one chunk: 64 MB of kept
    # sorted rows) a sweep on the kept rows allocates at most 8 blocks of
    # rows (256 KB each) on top of them, where one call on the whole chunk
    # allocated about 5 chunks
    random_pair_sweep(RiskMeasureSpec.es(0.95), 2_000, 1_000, seed=0)  # keeps the rows
    tracemalloc.start()
    try:
        random_pair_sweep(parse_measure_spec("shortfall:quadlin"), 2_000, 1_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lattice._pair_cache[1].nbytes == 4_000 * 2_000 * 8
    assert peak <= 8 * 8 * 2_000 * measures._block_rows(2_000)


# the measures of the sweep-mix benchmark: order statistics, MMD, and the CE,
# shortfall and OCE solvers
SWEEP_MIX = ("es:0.95", "var:0.95", "aes:0.6:0,0.9:0.01", "dist:pow:0.5", "mmd:square:es:0.5",
             "ce:exp:1", "shortfall:expectile:1", "shortfall:poly2exp", "oce:exp:1")


def test_warm_sweeps_equal_cold_and_evaluate_batch_for_every_kind(monkeypatch):
    specs = [parse_measure_spec(text) for text in SWEEP_MIX]

    def sweep(spec):
        return _report_bytes(random_pair_sweep(spec, 50, 300, seed=3))

    cold = []
    for spec in specs:
        lattice._forget_pairs()
        cold.append(random_pair_sweep(spec, 50, 300, seed=3))
    # each measure's own evaluate_batch on the unsorted pairs, x rows first
    pairs = lattice._draw_pairs(50, 0, 300, 3, "gaussian")
    xs, ys = pairs[:, 0], pairs[:, 1]
    batch = np.concatenate([xs, ys, np.minimum(xs, ys), np.maximum(xs, ys)])
    assert batch.tobytes() == pairs.transpose(1, 0, 2).tobytes()
    for spec, rep in zip(specs, cold):
        v = spec.evaluate_batch(batch).reshape(4, 300)
        gaps = (v[0] + v[1]) - (v[2] + v[3])
        i = int(np.argmin(gaps))
        assert _report_bytes(rep) == (int(np.count_nonzero(gaps < -1e-8)), float(gaps[i]).hex(), i)
        assert (rep.worst_pair[0].tobytes(), rep.worst_pair[1].tobytes()) == (
            xs[i].tobytes(), ys[i].tobytes())
    monkeypatch.setattr(lattice, "_generators", _no_draw)
    warm = [sweep(spec) for spec in specs]
    assert warm == [_report_bytes(rep) for rep in cold]


def test_warm_sweep_neither_validates_nor_sorts_kept_rows(monkeypatch):
    spec = RiskMeasureSpec.es(0.95)
    random_pair_sweep(spec, 50, 300, seed=3)
    calls = []
    sort, as_batch = np.sort, lattice.as_batch

    def counting_sort(a, *args, **kwargs):
        if np.shape(a) == (4 * 300, 50):  # the rows of a pair batch
            calls.append("sort")
        return sort(a, *args, **kwargs)

    def counting_as_batch(X):
        calls.append("as_batch")
        return as_batch(X)

    monkeypatch.setattr(np, "sort", counting_sort)
    monkeypatch.setattr(lattice, "as_batch", counting_as_batch)
    monkeypatch.setattr(specs_module, "as_batch", counting_as_batch)
    for text in SWEEP_MIX:
        random_pair_sweep(parse_measure_spec(text), 50, 300, seed=3)
    assert calls == []
    lattice._forget_pairs()  # a cold sweep validates its pairs once (and sorts them in place)
    random_pair_sweep(spec, 50, 300, seed=3)
    assert calls == ["as_batch"]


def test_chunked_sweep_equals_one_chunk_on_kept_batches(monkeypatch):
    # chunks at 134 and 268 replace the one-chunk sweep's entry, one after
    # another, and the one chunk replaces them again
    spec = RiskMeasureSpec.var(0.8)
    whole, split = lattice._CHUNK_BYTES, 134 * 32 * 10

    def sweep(chunk_bytes):
        monkeypatch.setattr(lattice, "_CHUNK_BYTES", chunk_bytes)
        return _report_bytes(random_pair_sweep(spec, 10, 400, seed=38))

    spans = _recorded_spans(monkeypatch)
    runs = [sweep(b) for b in (whole, split, split, whole, whole)]
    assert runs == [runs[0]] * 5
    cut = [(0, 134), (134, 268), (268, 400)]
    assert spans == [(0, 400)] + cut + cut + [(0, 400)] * 2


def test_sweep_seed_changes_results():
    spec = RiskMeasureSpec.var(0.8)
    a = random_pair_sweep(spec, 10, 400, seed=9)
    b = random_pair_sweep(spec, 10, 400, seed=10)
    assert not np.array_equal(a.worst_pair[0], b.worst_pair[0])


def test_oce_sweep_clean():
    rep = random_pair_sweep(RiskMeasureSpec.oce(cvar_loss(0.8)), 10, 1_000, seed=12)
    assert rep.violations == 0


def test_shortfall_interior_curvature_sweep_clean():
    rep = random_pair_sweep(RiskMeasureSpec.shortfall(poly2exp_loss()), 10, 1_000, seed=13)
    assert rep.violations == 0


def test_expectile_gaussian_sweep_finds_violation():
    rep = random_pair_sweep(
        RiskMeasureSpec.shortfall(expectile_loss(1.0)), 4, 2_000, seed=3, generator="gaussian"
    )
    assert rep.violations >= 1
    assert rep.worst_gap < -1e-8
    x, y = rep.worst_pair
    res = submodularity_gap(RiskMeasureSpec.shortfall(expectile_loss(1.0)), x, y)
    assert res.gap == pytest.approx(rep.worst_gap, abs=1e-12)


def test_two_point_generator_draws_indicators():
    rep = random_pair_sweep(RiskMeasureSpec.es(0.6), 8, 50, seed=1, generator="two_point")
    x, y = rep.worst_pair
    assert set(np.unique(x)) <= {0.0, 1.0}
    assert set(np.unique(y)) <= {0.0, 1.0}


def test_sweep_argument_validation():
    spec = RiskMeasureSpec.es(0.9)
    with pytest.raises(DomainError):
        random_pair_sweep(spec, 2, 10, seed=0)  # n_atoms < 3
    with pytest.raises(DomainError):
        random_pair_sweep(spec, 5, 0, seed=0)
    with pytest.raises(DomainError):
        random_pair_sweep(spec, 5, 10, seed=0, generator="cauchy")
    for n_atoms, trials in ((10.5, 10), (10.0, 10), ("10", 10), (5, 10.5), (5, 10.0), (5, None)):
        with pytest.raises(DomainError, match="integer"):
            random_pair_sweep(spec, n_atoms, trials, seed=0)


@pytest.mark.parametrize("epsilon", [-1.0, -1e-300, float("nan"), float("inf")])
def test_epsilon_must_be_finite_and_nonnegative(epsilon):
    spec = RiskMeasureSpec.es(0.9)
    x, y = [0.0, 1.0, 2.0], [2.0, 0.0, 1.0]
    for call in (lambda: submodularity_gap(spec, x, y, epsilon=epsilon),
                 lambda: subadditivity_gap(spec, x, y, epsilon=epsilon),
                 lambda: random_pair_sweep(spec, 5, 10, seed=0, epsilon=epsilon)):
        with pytest.raises(DomainError, match="epsilon must be finite and nonnegative"):
            call()


def test_zero_epsilon_accepted():
    spec = RiskMeasureSpec.es(0.9)
    assert not submodularity_gap(spec, [0.0, 1.0, 2.0], [2.0, 0.0, 1.0], epsilon=0).violated
    assert random_pair_sweep(spec, 5, 10, seed=0, epsilon=0.0).violations == 0


def test_sweep_rejects_negative_seed():
    with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
        random_pair_sweep(RiskMeasureSpec.es(0.9), 5, 10, seed=-1)


# ---------------------------------------------------------------------------
# violation rate


def test_violation_rate_arithmetic():
    ok = GapResult(gap=0.0, violated=False, epsilon=1e-8)
    bad = GapResult(gap=-1.0, violated=True, epsilon=1e-8)
    assert violation_rate([ok] * 10) == 0.0
    assert violation_rate([bad] * 3 + [ok] * 9) == 0.25


def test_violation_rate_matches_reported_precision():
    results = [GapResult(gap=-1.0, violated=True, epsilon=1e-8)] * 17_966
    results += [GapResult(gap=0.0, violated=False, epsilon=1e-8)] * (181_524 - 17_966)
    assert round(100 * violation_rate(results), 2) == 9.90


def test_violation_rate_empty():
    with pytest.raises(DomainError):
        violation_rate([])
