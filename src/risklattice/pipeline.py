"""Rolling-window violation analysis on daily price panels.

End-to-end flow: ingest adjusted closing prices from CSV (or generate a
synthetic panel), convert to log-loss series aligned on common dates with
complete-case deletion, evaluate configured risk measures on rolling windows,
test every unordered ticker pair each day for submodularity (and, for VaR,
subadditivity) violations, aggregate daily violation rates, and export
deterministic CSV/JSON reports.

Input CSV format: header ``date,ticker,adj_close``, ISO-8601 dates, decimal
prices, UTF-8.  Config files are flat ``key = value`` text with keys
``window``, ``epsilon``, ``levels``, ``aes_levels``, ``aes_penalties``,
``tickers``, ``seed``.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, DomainError
from .functions import AdjustmentGrid
from .lattice import _check_epsilon
from .specs import RiskMeasureSpec

__all__ = [
    "PricePanel",
    "LossPanel",
    "RollingConfig",
    "ViolationRecord",
    "ViolationTable",
    "DatedSeries",
    "DailyViolationSeries",
    "CorrelationResult",
    "load_prices_csv",
    "build_loss_panel",
    "rolling_eval",
    "pairwise_day_tests",
    "daily_violation_rate",
    "correlations",
    "synth_prices",
    "export_report",
    "read_violations_csv",
    "load_config",
    "config_to_rolling",
]

SUBMODULARITY = "submodularity"
SUBADDITIVITY = "subadditivity"


@dataclass(frozen=True)
class PricePanel:
    """Dense date-by-ticker matrix of adjusted closes; NaN marks missing cells."""

    dates: tuple[dt.date, ...]
    tickers: tuple[str, ...]
    closes: np.ndarray
    duplicates: int = 0

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise DataError("panel dates must be strictly increasing")
        present = ~np.isnan(self.closes)
        if np.any(self.closes[present] <= 0):
            raise DataError("panel prices must be positive")


@dataclass(frozen=True)
class LossPanel:
    """Complete-case log-loss matrix; row t is the loss from date pair (t-1, t)."""

    dates: tuple[dt.date, ...]
    tickers: tuple[str, ...]
    losses: np.ndarray

    def __post_init__(self):
        # the single validation gate for every rolling window cut from it
        if not np.all(np.isfinite(self.losses)):
            raise DataError("loss panel entries must be finite (no NaN or infinity)")

    def column(self, ticker: str) -> np.ndarray:
        try:
            return self.losses[:, self.tickers.index(ticker)]
        except ValueError:
            raise DomainError(f"ticker {ticker!r} not in panel {self.tickers}") from None


@dataclass(frozen=True)
class RollingConfig:
    """Window length, measures to test, and the violation threshold."""

    window: int
    measures: tuple[RiskMeasureSpec, ...]
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.window < 2:
            raise DomainError("rolling window must be at least 2")
        _check_epsilon(self.epsilon)
        object.__setattr__(self, "measures", tuple(self.measures))


@dataclass(frozen=True)
class ViolationRecord:
    """One (date, pair, measure) lattice test outcome."""

    date: dt.date
    pair: tuple[str, str]
    measure: str
    test: str
    gap: float
    violated: bool


def _record_key(r: ViolationRecord):
    return (r.date, r.pair, r.measure, r.test)


@dataclass(frozen=True, eq=False)
class ViolationTable(Sequence):
    """Every lattice-test gap of a pipeline run, in one array.

    ``gaps[k, p, d]`` is the gap of check ``checks[k]`` (a (measure label,
    test) pair) for ticker pair ``pairs[p]`` on the window ending at
    ``dates[d]``; ``violated`` flags the same cells.  ``epsilon`` is the
    threshold the flags were computed with (None for a table built from
    records, whose flags come with them).  NaN marks a cell with no test, which
    only tables built from sparse record lists have.

    The table is also a read-only sequence of ``ViolationRecord``s in (date,
    pair, measure, test) order, with ``len``, indexing, iteration and ``==``
    (equal when the records are).
    """

    dates: tuple[dt.date, ...]
    pairs: tuple[tuple[str, str], ...]
    checks: tuple[tuple[str, str], ...]
    gaps: np.ndarray
    violated: np.ndarray
    epsilon: float | None = None

    __hash__ = None

    @classmethod
    def from_records(cls, records) -> ViolationTable:
        """Columns of a plain record list.

        A (measure, test) that repeats within one (date, pair) cell gets one
        check column per repeat, in list order, as the pipeline gives a label
        configured twice.  Cells the list has no record for are NaN.
        """
        records = sorted(records, key=_record_key)
        slots: list[int] = []  # repeat number of each record within its key
        width: dict[tuple[str, str], int] = {}
        for n, r in enumerate(records):
            if np.isnan(r.gap):
                raise DataError(f"record {r} has a NaN gap")
            same = n > 0 and _record_key(records[n - 1]) == _record_key(r)
            slots.append(slots[-1] + 1 if same else 0)
            width[(r.measure, r.test)] = max(width.get((r.measure, r.test), 0), slots[-1] + 1)
        checks = tuple(c for c in sorted(width) for _ in range(width[c]))
        first = {c: checks.index(c) for c in width}
        dates = tuple(sorted({r.date for r in records}))
        pairs = tuple(sorted({r.pair for r in records}))
        d_index = {d: i for i, d in enumerate(dates)}
        p_index = {p: i for i, p in enumerate(pairs)}
        gaps = np.full((len(checks), len(pairs), len(dates)), np.nan)
        violated = np.zeros(gaps.shape, dtype=bool)
        for r, s in zip(records, slots):
            cell = (first[(r.measure, r.test)] + s, p_index[r.pair], d_index[r.date])
            gaps[cell] = r.gap
            violated[cell] = r.violated
        return cls(dates=dates, pairs=pairs, checks=checks, gaps=gaps, violated=violated)

    def _record(self, k: int, p: int, d: int) -> ViolationRecord:
        measure, test = self.checks[k]
        return ViolationRecord(
            date=self.dates[d], pair=self.pairs[p], measure=measure, test=test,
            gap=float(self.gaps[k, p, d]), violated=bool(self.violated[k, p, d]),
        )

    def _present(self) -> np.ndarray:
        """Cells holding a test, as a [date, pair, check] mask."""
        return ~np.isnan(self.gaps.transpose(2, 1, 0))

    def __len__(self) -> int:
        return int(np.count_nonzero(self._present()))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        present = self._present()
        d, p, k = np.unravel_index(np.flatnonzero(present)[i], present.shape)
        return self._record(k, p, d)

    def __iter__(self):
        for d, p, k in zip(*np.nonzero(self._present())):
            yield self._record(k, p, d)

    def __eq__(self, other):
        if isinstance(other, ViolationTable) and (
            (self.dates, self.pairs, self.checks) == (other.dates, other.pairs, other.checks)
        ):
            return bool(
                np.array_equal(self.gaps, other.gaps, equal_nan=True)
                and np.array_equal(self.violated, other.violated)
            )
        if isinstance(other, Sequence) and not isinstance(other, str):
            return list(self) == list(other)
        return NotImplemented


@dataclass(frozen=True)
class DatedSeries:
    """A labelled value per date."""

    dates: tuple[dt.date, ...]
    values: np.ndarray
    label: str


@dataclass(frozen=True)
class DailyViolationSeries:
    """Per-date violation rate with the underlying counts."""

    dates: tuple[dt.date, ...]
    rate: np.ndarray
    label: str
    violations: np.ndarray
    tests: np.ndarray

    def series(self) -> DatedSeries:
        return DatedSeries(dates=self.dates, values=self.rate, label=self.label)


@dataclass(frozen=True)
class CorrelationResult:
    """Pearson, Spearman (average ranks), and distance correlation.

    ``degenerate`` marks constant inputs, for which all three statistics are
    reported as 0 rather than raising mid-pipeline.
    """

    pearson: float
    spearman: float
    dcor: float
    degenerate: bool = False


# ---------------------------------------------------------------------------
# ingestion


def _read_text(path: Path) -> str:
    """The file's text, newlines untranslated; a file that is not UTF-8
    raises ``DataError`` naming it."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc


def load_prices_csv(path) -> PricePanel:
    """Read a ``date,ticker,adj_close`` CSV into a price panel.

    Rows are sorted by date; duplicate (date, ticker) cells keep the last
    value and are counted on the panel (with a warning).  Unparseable rows
    and nonpositive prices raise with their line number; a file with no data
    rows raises a "no data" error.
    """
    path = Path(path)
    cells: dict[tuple[dt.date, str], float] = {}
    duplicates = 0
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: no data (empty file)")
    if [c.strip().lower() for c in header] != ["date", "ticker", "adj_close"]:
        raise DataError(f"{path}: expected header 'date,ticker,adj_close', got {header}")
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        try:
            day = dt.date.fromisoformat(row[0].strip())
            price = float(row[2].strip())
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if not np.isfinite(price) or price <= 0:
            raise DataError(f"{path}:{lineno}: nonpositive or non-finite price {row[2]!r}")
        key = (day, row[1].strip())
        if key in cells:
            duplicates += 1
        cells[key] = price
    if not cells:
        raise DataError(f"{path}: no data rows")
    if duplicates:
        warnings.warn(f"{path}: {duplicates} duplicate (date,ticker) rows; last value wins")
    dates = tuple(sorted({k[0] for k in cells}))
    tickers = tuple(sorted({k[1] for k in cells}))
    closes = np.full((len(dates), len(tickers)), np.nan)
    d_index = {d: i for i, d in enumerate(dates)}
    t_index = {t: j for j, t in enumerate(tickers)}
    for (day, ticker), price in cells.items():
        closes[d_index[day], t_index[ticker]] = price
    return PricePanel(dates=dates, tickers=tickers, closes=closes, duplicates=duplicates)


def build_loss_panel(panel: PricePanel, tickers=None) -> LossPanel:
    """Log-loss panel ``L_t = -(ln P_t - ln P_{t-1})`` on common trading dates.

    Only dates where every requested ticker has a price survive (complete-case
    deletion; no forward-filling or interpolation), and losses are taken
    between consecutive surviving dates.  Requires at least 2 common dates.
    """
    tickers = tuple(tickers) if tickers is not None else panel.tickers
    cols = []
    for t in tickers:
        if t not in panel.tickers:
            raise DomainError(f"ticker {t!r} not present in the price panel")
        cols.append(panel.tickers.index(t))
    sub = panel.closes[:, cols]
    keep = ~np.isnan(sub).any(axis=1)
    if int(keep.sum()) < 2:
        raise DomainError(
            f"fewer than 2 common dates across {tickers}; cannot form returns"
        )
    prices = sub[keep]
    dates = tuple(d for d, k in zip(panel.dates, keep) if k)
    losses = -np.diff(np.log(prices), axis=0)
    return LossPanel(dates=dates[1:], tickers=tickers, losses=losses)


# ---------------------------------------------------------------------------
# rolling evaluation and pairwise tests


def rolling_eval(
    losses: LossPanel, ticker: str, config: RollingConfig, spec: RiskMeasureSpec
) -> DatedSeries:
    """Evaluate ``spec`` on every full rolling window of the ticker's losses.

    The window ending at date t includes the loss observed at t; the first
    ``window - 1`` dates carry no value.  Insufficient history yields an
    empty series with a warning.
    """
    series = losses.column(ticker)
    w = config.window
    if series.size < w:
        warnings.warn(
            f"ticker {ticker!r}: {series.size} losses < window {w}; empty rolling series"
        )
        return DatedSeries(dates=(), values=np.empty(0), label=f"{spec.label}@{ticker}")
    windows = sliding_window_view(series, w)
    values = spec.evaluate_batch(windows)
    return DatedSeries(dates=losses.dates[w - 1 :], values=values, label=f"{spec.label}@{ticker}")


def _pair_gaps(
    config: RollingConfig, kernels: list, series, values: list, i, j, batch, debug: bool
) -> list[np.ndarray]:
    """Gap rows ``[pair, date]``, one per (measure, test) check in config
    order, for the pairs ``(i[p], j[p])``.

    ``series`` holds one loss series per ticker, ``values[k][t]`` measure
    ``k``'s values on ticker ``t``'s windows, ``kernels`` the measures'
    kernels for the window width, and ``batch`` is a work array with room for
    3 windows per pair and date.
    """
    w = config.window
    m, d = i.size, series.shape[1] - w + 1
    # Only VaR's subadditivity test reads the summed-loss block; the other
    # measures evaluate meet and join alone.
    has_var = any(spec.kind == "var" for spec in config.measures)
    x, y = series[i], series[j]
    lanes = np.empty((3 if has_var else 2, m, series.shape[1]))  # meet, join[, x + y]
    np.minimum(x, y, out=lanes[0])
    np.maximum(x, y, out=lanes[1])
    if debug and not np.array_equal(lanes[0] + lanes[1], x + y):
        raise AssertionError("meet/join accounting failed: meet + join != x + y")
    if has_var:
        np.add(x, y, out=lanes[2])
    batch = batch[: len(lanes) * m * d]
    batch.reshape(len(lanes), m, d, w)[...] = sliding_window_view(lanes, w, axis=2)
    batch.sort(axis=1)
    rows = []
    for spec, kernel, v in zip(config.measures, kernels, values):
        vals = kernel(batch if spec.kind == "var" else batch[: 2 * m * d]).reshape(-1, m, d)
        pair_sum = v[i] + v[j]
        rows.append(pair_sum - (vals[0] + vals[1]))
        if spec.kind == "var":
            rows.append(pair_sum - vals[2])
    return rows


# Ticker pairs are tested in chunks whose work array holds about this many
# window cells (2 MB), or one pair when a pair needs more.  Many short
# windows then share one sort call and one call per kernel.
_PAIR_CHUNK_CELLS = 1 << 18


def _checks(config: RollingConfig) -> list[tuple[str, str]]:
    """The (measure label, test) checks in config order, as ``_pair_gaps`` rows."""
    out = []
    for spec in config.measures:
        out.append((spec.label, SUBMODULARITY))
        if spec.kind == "var":
            out.append((spec.label, SUBADDITIVITY))
    return out


def pairwise_day_tests(
    losses: LossPanel, config: RollingConfig, debug: bool = False, threads: int = 1
) -> ViolationTable:
    """Lattice-test every unordered ticker pair on every full-window date.

    For each pair and date the configured measures are evaluated on the two
    ticker windows and on their pointwise meet and join; VaR measures are
    additionally tested for subadditivity on the summed-loss window.

    Work is shared across pairs.  Each measure's kernel (its weight rows,
    reduced over their tail band; see ``measures._order_stat_batch``) is
    built once for the window width.  Each ticker's windows are sorted and
    evaluated once.  Pairs then go in chunks of about ``_PAIR_CHUNK_CELLS``
    window cells, with one sort and one call per kernel each, and a pair adds
    only its meet and join windows, plus its summed-loss windows when a VaR
    measure is configured.  A gap is ``(v(x) + v(y)) - (v(meet) +
    v(join))``, and a kernel gives a row the same value wherever the row
    sits, so dominated-pair gaps are exactly 0 and every gap is bit-equal to
    evaluating each pair's windows on their own.  The gap rows go straight
    into one ``ViolationTable`` array
    ``gaps[check, pair, date]``: checks in (measure label, test) order, config
    order breaking label ties; pairs in sorted-ticker order; dates the window
    end dates.  Read as a sequence, the table gives the records in (date,
    pair, measure, test) order, so runs are reproducible byte for byte.
    ``debug`` asserts the exact meet/join accounting ``meet + join == x + y``
    on every loss, hence on every window.  Pairs run serially: ``threads`` is
    accepted for compatibility and ignored, because a thread pool over pairs
    gave no speedup on 2 cores.
    """
    if len(losses.tickers) < 2:
        raise DomainError("pairwise tests need at least 2 tickers")
    if losses.losses.shape[0] < config.window:
        raise DomainError(
            f"panel has {losses.losses.shape[0]} loss rows < window {config.window}"
        )
    order = sorted(range(len(losses.tickers)), key=lambda k: losses.tickers[k])
    pairs = [(i, j) for a, i in enumerate(order) for j in order[a + 1 :]]
    checks = _checks(config)
    rank = sorted(range(len(checks)), key=checks.__getitem__)  # stable: config order on ties
    slot = np.argsort(rank)  # config-order row -> check index
    dates = losses.dates[config.window - 1 :]
    w, d = config.window, len(dates)
    kernels = [spec.kernel(w) for spec in config.measures]
    series = np.ascontiguousarray(losses.losses.T)  # one row per ticker
    # One work array serves every sort: a fresh one per chunk would fault in
    # its pages again each time.
    chunk = max(1, _PAIR_CHUNK_CELLS // (3 * d * w))
    batch = np.empty((3 * chunk * d, w))
    values = [np.empty((len(series), d)) for _ in kernels]
    for t, x in enumerate(series):
        Xs = batch[:d]
        Xs[...] = sliding_window_view(x, w)
        Xs.sort(axis=1)
        for v, kernel in zip(values, kernels):
            v[t] = kernel(Xs)
    first, second = np.array(pairs, dtype=np.intp).T
    gaps = np.empty((len(checks), len(pairs), d))
    for start in range(0, len(pairs), chunk):
        at = slice(start, start + chunk)
        gaps[slot, at] = _pair_gaps(config, kernels, series, values, first[at], second[at],
                                    batch, debug)
    return ViolationTable(
        dates=dates,
        pairs=tuple((losses.tickers[i], losses.tickers[j]) for i, j in pairs),
        checks=tuple(checks[c] for c in rank),
        gaps=gaps,
        violated=gaps < -config.epsilon,
        epsilon=config.epsilon,
    )


def _as_table(records) -> ViolationTable:
    return records if isinstance(records, ViolationTable) else ViolationTable.from_records(records)


def daily_violation_rate(
    records, label: str, test: str = SUBMODULARITY
) -> DailyViolationSeries:
    """Per-date violation proportion for one measure label (and test kind).

    ``records`` is a ``ViolationTable`` or a list of ``ViolationRecord``s
    (converted to a table first).  Counts are summed over the pair axis of
    every check column with this label and test, so a label configured twice
    counts twice.  Dates with zero tests are omitted.  An unknown label (no
    matching records) is a domain error.
    """
    table = _as_table(records)
    ks = [k for k, check in enumerate(table.checks) if check == (label, test)]
    if not ks:
        raise DomainError(f"no records for measure {label!r} with test {test!r}")
    tests = np.count_nonzero(~np.isnan(table.gaps[ks]), axis=(0, 1)).astype(np.int64)
    violations = np.count_nonzero(table.violated[ks], axis=(0, 1)).astype(np.int64)
    keep = tests > 0
    return DailyViolationSeries(
        dates=tuple(d for d, k in zip(table.dates, keep) if k),
        rate=violations[keep] / tests[keep],
        label=f"{label}/{test}",
        violations=violations[keep],
        tests=tests[keep],
    )


# ---------------------------------------------------------------------------
# dependence diagnostics


def correlations(a: DatedSeries, b: DatedSeries) -> CorrelationResult:
    """Pearson, Spearman, and distance correlation of two dated series.

    Series are aligned on common dates (at least 3 required).  Spearman uses
    average ranks for ties; the distance correlation is the exact O(n^2)
    double-centered form, in [0, 1].  Constant inputs return zeros with the
    ``degenerate`` flag instead of raising; a NaN or infinite value in either
    series is a domain error naming its label.
    """
    for s in (a, b):
        if not np.all(np.isfinite(s.values)):
            raise DomainError(f"series {s.label!r} has non-finite values")
    index = {d: i for i, d in enumerate(a.dates)}
    common = [(index[d], j) for j, d in enumerate(b.dates) if d in index]
    if len(common) < 3:
        raise DomainError(f"need >= 3 common dates, got {len(common)}")
    ia, ib = zip(*common)
    va = np.asarray(a.values, dtype=np.float64)[list(ia)]
    vb = np.asarray(b.values, dtype=np.float64)[list(ib)]
    if np.ptp(va) == 0.0 or np.ptp(vb) == 0.0:
        return CorrelationResult(pearson=0.0, spearman=0.0, dcor=0.0, degenerate=True)
    pearson = _pearson(va, vb)
    spearman = _pearson(_average_ranks(va), _average_ranks(vb))
    return CorrelationResult(pearson=pearson, spearman=spearman, dcor=_dcor(va, vb))


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of finite ``v``; tied values share the mean of their ranks.

    Every rank is an exact half-integer, so this equals
    ``scipy.stats.rankdata(v)`` bit for bit.
    """
    order = np.argsort(v, kind="stable")
    s = v[order]
    new_group = np.r_[True, s[1:] != s[:-1]]
    start = np.r_[np.flatnonzero(new_group), v.size]  # first sorted index of each group
    g = np.cumsum(new_group) - 1
    ranks = np.empty(v.size)
    ranks[order] = 0.5 * (start[g] + start[g + 1] + 1)
    return ranks


def _pearson(u: np.ndarray, v: np.ndarray) -> float:
    uc = u - u.mean()
    vc = v - v.mean()
    return float(uc @ vc / np.sqrt((uc @ uc) * (vc @ vc)))


def _dcor(u: np.ndarray, v: np.ndarray) -> float:
    A = _centered_distances(u)
    B = _centered_distances(v)
    dcov2 = float((A * B).mean())
    dvar_u = float((A * A).mean())
    dvar_v = float((B * B).mean())
    denom = np.sqrt(dvar_u * dvar_v)
    if denom <= 0.0:
        return 0.0
    return float(np.sqrt(max(dcov2, 0.0) / denom))


def _centered_distances(u: np.ndarray) -> np.ndarray:
    D = np.abs(u[:, None] - u[None, :])
    return D - D.mean(axis=0, keepdims=True) - D.mean(axis=1, keepdims=True) + D.mean()


# ---------------------------------------------------------------------------
# synthetic data


def synth_prices(
    seed: int, n_days: int, n_assets: int, vol: float, jump_prob: float
) -> PricePanel:
    """Geometric random-walk panel with occasional common jumps.

    Jump days add one shared shock (5x daily vol) to every asset, inducing
    tail co-movement.  Prices start at 100.0; with ``vol = 0`` the panel is
    constant.  Deterministic per seed.
    """
    if n_days < 1 or n_assets < 1:
        raise DomainError("need n_days >= 1 and n_assets >= 1")
    if vol < 0:
        raise DomainError("vol must be nonnegative")
    if not 0.0 <= jump_prob <= 1.0:
        raise DomainError("jump_prob must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((max(n_days - 1, 0), n_assets))
    jumps = rng.random(max(n_days - 1, 0)) < jump_prob
    shock = rng.standard_normal(max(n_days - 1, 0)) * (5.0 * vol)
    r = vol * z + np.where(jumps, shock, 0.0)[:, None]
    log_prices = np.vstack([np.zeros(n_assets), np.cumsum(r, axis=0)]) + np.log(100.0)
    start = dt.date(2020, 1, 1)
    dates = tuple(start + dt.timedelta(days=k) for k in range(n_days))
    tickers = tuple(f"A{i:02d}" for i in range(n_assets))
    return PricePanel(dates=dates, tickers=tickers, closes=np.exp(log_prices))


# ---------------------------------------------------------------------------
# reports


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_fields(*fields: str) -> str:
    """``fields`` encoded as part of a CSV row (quoted where needed), no newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()[:-1]


# violations.csv is formatted in blocks of dates holding about this many
# cells.  A block keeps the strings of its distinct gaps (about 75 bytes
# each), so this bounds them at about 1 MB.
_EXPORT_BLOCK_CELLS = 1 << 14


def _write_violations(fh, table: ViolationTable) -> None:
    # Each label is CSV-encoded once, into one %-template line per (pair,
    # check) cell (a literal '%' in a label is doubled).  Rows are formatted a
    # block of dates at a time, so the file is never held in memory as
    # strings.  A gap often repeats from one date to the next, so each
    # distinct gap of a block is formatted once, keyed by its bits so that
    # -0.0 and 0.0 keep their own text.
    lines = ["%s," + f"{_csv_fields('-'.join(pair))},{_csv_fields(*check)}".replace("%", "%%")
             + ",%s,%s\n" for pair in table.pairs for check in table.checks]
    full = "".join(lines)
    step = max(1, _EXPORT_BLOCK_CELLS // max(len(lines), 1))
    for start in range(0, len(table.dates), step):
        block = np.asarray(table.gaps[:, :, start : start + step], dtype=np.float64)
        distinct, index = np.unique(block.view(np.int64).ravel(), return_inverse=True)
        texts = np.array(["%.17g" % g for g in distinct.view(np.float64).tolist()], dtype=object)
        index = index.reshape(block.shape)
        for d, day in enumerate(table.dates[start : start + step]):
            keep = ~np.isnan(block[:, :, d].T.ravel())
            template = full if keep.all() else "".join(compress(lines, keep))
            args = [day.isoformat()] * (3 * int(np.count_nonzero(keep)))
            args[1::3] = texts[index[:, :, d].T.ravel()[keep]].tolist()
            violated = table.violated[:, :, start + d].T.ravel()[keep]
            args[2::3] = np.where(violated, "true", "false").tolist()
            fh.write(template % tuple(args))


def export_report(
    records,
    series,
    correlation_rows,
    outdir,
    config: RollingConfig | None = None,
    extra_summary: dict | None = None,
) -> dict[str, Path]:
    """Write ``violations.csv``, ``daily_rates.csv``, ``correlations.csv`` and
    ``summary.json`` into ``outdir``; column orders are fixed.

    ``records`` is a ``ViolationTable`` or a list of ``ViolationRecord``s
    (converted to a table first); ``violations.csv`` is written from the
    table's arrays one date at a time, in (date, pair, measure, test) order.
    ``correlation_rows`` is an iterable of ``(label_a, label_b,
    CorrelationResult)``.  Output is byte-stable for a fixed input: floats
    are written with 17 significant digits, and the JSON summary has sorted
    keys and no timestamps.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "violations": outdir / "violations.csv",
        "daily_rates": outdir / "daily_rates.csv",
        "correlations": outdir / "correlations.csv",
        "summary": outdir / "summary.json",
    }
    table = _as_table(records)
    with paths["violations"].open("w", newline="", encoding="utf-8") as fh:
        fh.write("date,pair,measure,params,gap,violated\n")
        _write_violations(fh, table)
    with paths["daily_rates"].open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["date", "measure", "rate", "tests"])
        for s in series:
            for day, rate, n in zip(s.dates, s.rate, s.tests):
                w.writerow([day.isoformat(), s.label, _fmt(rate), int(n)])
    with paths["correlations"].open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["series_a", "series_b", "pearson", "spearman", "dcor"])
        for la, lb, c in correlation_rows:
            w.writerow([la, lb, _fmt(c.pearson), _fmt(c.spearman), _fmt(c.dcor)])
    summary = {
        "n_records": len(table),
        "n_violations": int(np.count_nonzero(table.violated)),
        "measures": sorted({measure for measure, _ in table.checks}),
    }
    if config is not None:
        summary["window"] = config.window
        summary["epsilon"] = config.epsilon
        summary["configured_measures"] = [m.label for m in config.measures]
    if extra_summary:
        summary.update(extra_summary)
    with paths["summary"].open("w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def read_violations_csv(path) -> list[ViolationRecord]:
    """Round-trip loader for ``violations.csv``; a malformed row raises
    ``DataError`` with its line number."""
    out = []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["date", "pair", "measure", "params", "gap", "violated"]:
            raise DataError(f"{path}: unexpected violations header {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 6:
                raise DataError(f"{path}:{lineno}: expected 6 columns, got {len(row)}")
            a, dash, b = row[1].partition("-")
            if not dash:
                raise DataError(f"{path}:{lineno}: pair {row[1]!r} is not 'TICKER-TICKER'")
            try:
                day = dt.date.fromisoformat(row[0])
                gap = float(row[4])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            out.append(
                ViolationRecord(
                    date=day,
                    pair=(a, b),
                    measure=row[2],
                    test=row[3],
                    gap=gap,
                    violated=row[5] == "true",
                )
            )
    return out


# ---------------------------------------------------------------------------
# config files

_CONFIG_KEYS = ("window", "epsilon", "levels", "aes_levels", "aes_penalties", "tickers", "seed")


def load_config(path) -> dict:
    """Parse a flat ``key = value`` config file (``#`` comments allowed).

    An unknown key or a value that does not parse raises ``DataError`` with
    its line number.
    """
    cfg: dict = {}
    for lineno, raw in enumerate(_read_text(Path(path)).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise DataError(f"{path}:{lineno}: unknown key {key!r}; known keys: {_CONFIG_KEYS}")
        try:
            if key in ("window", "seed"):
                cfg[key] = int(value)
            elif key == "epsilon":
                cfg[key] = float(value)
            elif key == "tickers":
                cfg[key] = tuple(v.strip() for v in value.split(",") if v.strip())
            else:
                cfg[key] = tuple(float(v) for v in value.split(",") if v.strip())
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return cfg


def config_to_rolling(cfg: dict) -> RollingConfig:
    """Build a ``RollingConfig`` from a parsed config dict.

    Each entry of ``levels`` contributes a VaR and an ES measure; the AES
    measure is added when ``aes_levels``/``aes_penalties`` are present.
    """
    measures: list[RiskMeasureSpec] = []
    for p in cfg.get("levels", ()):
        measures.append(RiskMeasureSpec.var(p))
        measures.append(RiskMeasureSpec.es(p))
    if cfg.get("aes_levels"):
        grid = AdjustmentGrid(tuple(cfg["aes_levels"]), tuple(cfg.get("aes_penalties", ())))
        measures.append(RiskMeasureSpec.aes(grid))
    if not measures:
        raise DataError("config defines no measures: set 'levels' and/or 'aes_levels'")
    return RollingConfig(
        window=int(cfg.get("window", 250)),
        measures=tuple(measures),
        epsilon=float(cfg.get("epsilon", 1e-8)),
    )
