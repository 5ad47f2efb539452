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
import functools
import io
import json
import math
import re
import warnings
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, DomainError
from .functions import AdjustmentGrid
from .lattice import DEFAULT_EPSILON, _check_epsilon
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
    epsilon: float = DEFAULT_EPSILON

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


@dataclass(frozen=True, eq=False)
class ViolationTable(Sequence):
    """Every lattice-test gap of a pipeline run, in one array.

    ``gaps[k, p, d]`` is the gap of check ``checks[k]`` (a (measure label,
    test) pair) for ticker pair ``pairs[p]`` on the window ending at
    ``dates[d]``; ``violated`` flags the same cells.  ``epsilon`` is the
    threshold the flags were computed with, None for a table read back from
    ``violations.csv``.  The table is a full grid: every cell holds a test,
    and a NaN gap raises ``DataError``.  Tables are equal when their labels,
    gaps and flags are.  ``len(table)`` counts the cells, and ``table[i]``
    gives cell ``i`` as a ``ViolationRecord``, in (date, pair, check) order,
    the row order of ``violations.csv``.
    """

    dates: tuple[dt.date, ...]
    pairs: tuple[tuple[str, str], ...]
    checks: tuple[tuple[str, str], ...]
    gaps: np.ndarray
    violated: np.ndarray
    epsilon: float | None = None

    __hash__ = None

    def __post_init__(self):
        shape = (len(self.checks), len(self.pairs), len(self.dates))
        g, v = np.shape(self.gaps), np.shape(self.violated)
        if not (g == v == shape and getattr(self.violated, "dtype", None) == bool):
            raise DataError(f"gaps {g} and violated {v} need the shape {shape} of (checks, "
                            f"pairs, dates), and violated bool values")
        nan = np.flatnonzero(np.isnan(self.gaps.T))  # cell numbers, (date, pair, check) order
        if nan.size:
            raise DataError(f"{self[nan[0]]} has a NaN gap")

    def __len__(self) -> int:
        return self.gaps.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        d, p, k = np.unravel_index(range(len(self))[i], self.gaps.shape[::-1])
        measure, test = self.checks[k]
        return ViolationRecord(
            date=self.dates[d], pair=self.pairs[p], measure=measure, test=test,
            gap=float(self.gaps[k, p, d]), violated=bool(self.violated[k, p, d]),
        )

    def __eq__(self, other):
        if not isinstance(other, ViolationTable):
            return NotImplemented
        return bool(
            (self.dates, self.pairs, self.checks) == (other.dates, other.pairs, other.checks)
            and np.array_equal(self.gaps, other.gaps)
            and np.array_equal(self.violated, other.violated)
        )


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
    """The file's text, newlines untranslated and a leading byte order mark
    dropped; a file that is not UTF-8 raises ``DataError`` naming it."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc


def _blank(row) -> bool:
    return not any(map(str.strip, row))


def _check_row(path, lineno: int, row, days: dict) -> bool:
    """False for a blank row, True for a good data row; a bad row raises
    ``DataError`` naming ``path:lineno``.  ``days`` keeps each parsed date
    text."""
    if _blank(row):
        return False
    if len(row) != 3:
        raise DataError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
    try:
        if row[0] not in days:
            days[row[0]] = dt.date.fromisoformat(row[0].strip())
        price = float(row[2].strip())
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from exc
    if not math.isfinite(price) or price <= 0:
        raise DataError(f"{path}:{lineno}: nonpositive or non-finite price {row[2]!r}")
    if not row[1].strip():
        raise DataError(f"{path}:{lineno}: empty ticker")
    return True


def _data_rows(path, lines: io.StringIO) -> tuple:
    """The date, ticker and price columns of the non-blank data rows of
    ``lines``, the file's text, read again from its start one row at a time
    so that the first bad row raises ``DataError`` naming ``path:line``, the
    file line the row starts on; a row the CSV reader refuses names the line
    where the reader stopped."""
    lines.seek(0)
    reader = csv.reader(lines)
    days: dict = {}
    kept = ([], [], [])
    try:
        next(reader)  # the header, checked already
        lineno = reader.line_num + 1
        for row in reader:
            if _check_row(path, lineno, row, days):
                for column, text in zip(kept, row):
                    column.append(text)
            lineno = reader.line_num + 1
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    return kept


def _price_panel(path, date_texts: list, ticker_texts: list, price_texts: list):
    """The panel of the rows whose column texts these are, the last price of
    a cell winning, or None when a text fails its check (a blank row fails
    too).  Each distinct date and ticker text is parsed once, and the prices
    in one ``fromiter``."""
    try:
        day_of = {text: dt.date.fromisoformat(text.strip()) for text in set(date_texts)}
        prices = np.fromiter(map(float, map(str.strip, price_texts)), np.float64,
                             len(price_texts))
    except ValueError:
        return None
    name_of = {text: text.strip() for text in set(ticker_texts)}
    if "" in name_of.values() or not np.all((prices > 0) & (prices < np.inf)):
        return None
    if not prices.size:
        raise DataError(f"{path}: no data rows")
    dates = tuple(sorted(set(day_of.values())))
    tickers = tuple(sorted(set(name_of.values())))
    row = {day: i for i, day in enumerate(dates)}
    column = {name: j for j, name in enumerate(tickers)}
    row_of = {text: row[day] for text, day in day_of.items()}
    column_of = {text: column[name] for text, name in name_of.items()}
    cell = np.fromiter(map(row_of.__getitem__, date_texts), np.intp, prices.size) * len(tickers)
    cell += np.fromiter(map(column_of.__getitem__, ticker_texts), np.intp, prices.size)
    # the first of each cell in reverse file order is its last row
    cells, last = np.unique(cell[::-1], return_index=True)
    duplicates = prices.size - cells.size
    if duplicates:
        warnings.warn(f"{path}: {duplicates} duplicate (date,ticker) rows; last value wins")
    closes = np.full((len(dates), len(tickers)), np.nan)
    closes.ravel()[cells] = prices[::-1][last]
    return PricePanel(dates=dates, tickers=tickers, closes=closes, duplicates=duplicates)


def load_prices_csv(path) -> PricePanel:
    """Read a ``date,ticker,adj_close`` CSV into a price panel.

    Rows are sorted by date; duplicate (date, ticker) cells keep the last
    value and are counted on the panel (with a warning).  Blank rows are
    skipped.  Unparseable rows, empty tickers and nonpositive prices raise
    naming the file line the first bad row starts on, and a row the CSV
    reader refuses (a field over ``csv.field_size_limit()`` characters)
    names the line where the reader stopped; a file with no data rows raises
    a "no data" error.

    One ``csv.reader`` pass keeps the three texts of each 3-column row, and
    the panel is built from whole columns (``_price_panel``).  Only when a
    column holds a bad text (a blank 3-column row such as ``,,`` counts as
    one), a row has another column count and is not blank, or the reader
    refuses a row, is the text read again one row at a time (``_data_rows``),
    to name the first bad one or drop the blank ones.
    """
    path = Path(path)
    lines = io.StringIO(_read_text(path), newline="")
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    if header is None:
        raise DataError(f"{path}: no data (empty file)")
    if [c.strip().lower() for c in header] != ["date", "ticker", "adj_close"]:
        raise DataError(f"{path}: expected header 'date,ticker,adj_close', got {header}")
    texts = ([], [], [])
    add_date, add_ticker, add_price = (column.append for column in texts)
    try:
        for row in reader:
            if len(row) == 3:
                add_date(row[0])
                add_ticker(row[1])
                add_price(row[2])
            elif not _blank(row):
                break  # a row of another column count
        else:
            panel = _price_panel(path, *texts)
            if panel is not None:
                return panel
    except csv.Error:
        pass  # the row-by-row read names its line, after any bad row before it
    return _price_panel(path, *_data_rows(path, lines))


def build_loss_panel(panel: PricePanel, tickers=None) -> LossPanel:
    """Log-loss panel ``L_t = -(ln P_t - ln P_{t-1})`` on common trading dates.

    Only dates where every requested ticker has a price survive (complete-case
    deletion; no forward-filling or interpolation), and losses are taken
    between consecutive surviving dates.  Requires at least 2 common dates.
    """
    tickers = tuple(tickers) if tickers is not None else panel.tickers
    cols = []
    for i, t in enumerate(tickers):
        if t not in panel.tickers:
            raise DomainError(f"ticker {t!r} not present in the price panel")
        if t in tickers[:i]:
            raise DomainError(f"ticker {t!r} is listed twice")
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
    config: RollingConfig, kernels: list, series, values: list, i, j, batch
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


def pairwise_day_tests(losses: LossPanel, config: RollingConfig) -> ViolationTable:
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
    into one ``ViolationTable`` array ``gaps[check, pair, date]``: checks in
    (measure label, test) order, config order breaking label ties; pairs in
    sorted-ticker order; dates the window end dates.  Pairs run serially.
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
        gaps[slot, at] = _pair_gaps(config, kernels, series, values, first[at], second[at], batch)
    return ViolationTable(
        dates=dates,
        pairs=tuple((losses.tickers[i], losses.tickers[j]) for i, j in pairs),
        checks=tuple(checks[c] for c in rank),
        gaps=gaps,
        violated=gaps < -config.epsilon,
        epsilon=config.epsilon,
    )


def daily_violation_rate(
    records: ViolationTable, label: str, test: str = SUBMODULARITY
) -> DailyViolationSeries:
    """Per-date violation proportion for one measure label (and test kind).

    Every date of the table ``records`` counts every pair of every check
    column with this label and test, so a label configured twice counts
    twice.  An unknown label (no matching check) is a domain error.
    """
    ks = [k for k, check in enumerate(records.checks) if check == (label, test)]
    if not ks:
        raise DomainError(f"no records for measure {label!r} with test {test!r}")
    tests = len(ks) * len(records.pairs)
    violations = np.count_nonzero(records.violated[ks], axis=(0, 1)).astype(np.int64)
    return DailyViolationSeries(
        dates=records.dates,
        rate=violations / tests,
        label=f"{label}/{test}",
        violations=violations,
        tests=np.full(len(records.dates), tests, dtype=np.int64),
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
    # three n x n arrays: the two centred distance matrices, and one that
    # holds each product in turn
    A = _centered_distances(u)
    B = _centered_distances(v)
    work = np.multiply(A, B)
    dcov2 = float(work.mean())
    dvar_u = float(np.multiply(A, A, out=work).mean())
    dvar_v = float(np.multiply(B, B, out=work).mean())
    denom = np.sqrt(dvar_u * dvar_v)
    if denom <= 0.0:
        return 0.0
    return float(np.sqrt(max(dcov2, 0.0) / denom))


def _centered_distances(u: np.ndarray) -> np.ndarray:
    """``D - D.mean(axis=0) - D.mean(axis=1) + D.mean()`` for ``D = |u_i -
    u_j|``, evaluated left to right in place: the means all come from ``D``
    first, so the bits are those of the expression."""
    D = np.subtract.outer(u, u)
    np.abs(D, out=D)
    m0 = D.mean(axis=0, keepdims=True)
    m1 = D.mean(axis=1, keepdims=True)
    mm = D.mean()
    D -= m0
    D -= m1
    D += mm
    return D


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
    """``fields`` encoded as part of a CSV row (quoted where needed), no line
    end.  The writer quotes a field holding any character of its line
    terminator, so encoding with ``\r\n`` quotes ``\r`` as well as ``\n``: a
    bare ``\r`` in a field would end the row for a CSV reader."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2]


_VIOLATIONS_HEADER = "date,pair,measure,params,gap,violated"

# violations.csv is formatted in blocks of dates holding about this many
# cells.  A block keeps one piece (labels and text) per formatted cell and a
# few bytes per cell, and formatting needs about 90 bytes per formatted cell
# for a moment.  The writer also keeps one piece per row: 3,045 rows on the
# pipeline-wide benchmark panel, 34,650 at 100 tickers and 7 checks.  Its
# memory peaks at about 14 MB when every cell is formatted, at either row
# count (traced with tracemalloc).
_EXPORT_BLOCK_CELLS = 1 << 16


def _least_double_at_least(k: int) -> float:
    """The least double >= ``10**k``, for ``k <= 0``."""
    t = float(f"1e{k}")
    num, den = t.as_integer_ratio()
    return t if num * 10**-k >= den else math.nextafter(t, math.inf)


# |v| >= _DECADES[j] exactly when |v| >= 10**(j - 8), and |v| < 10 below the
# last; _format17g formats 1e-8 <= |v| < 10 in integer arithmetic
_DECADES = np.array([_least_double_at_least(k) for k in range(-8, 1)] + [10.0])
_POW5 = np.array([5**s for s in range(25)], dtype=np.uint64)
_POW10 = np.array([float(10**s) for s in range(25)])


@functools.cache
def _cell_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tables ``_cell_text`` reads: the ASCII text of each 4-digit group
    0000..9999 as one uint32, its count of trailing zeros, and the
    characters and keep mask of each shape of a formatted cell.  They are
    built on first use, from small arrays, so that a command that writes no
    report does not hold them (built at import they added about 0.7 MB to
    its resident memory).

    A cell is a sign, "0.000" (as much as 1e-4 <= |v| < 1 needs), the 17
    digits as d0 "." d1..d16 (filled in per value), "e-0d" below 1e-4, the
    flag column and the line end.  Shape ``((negative * 9 - X) * 17 + kept)
    * 2 + flag`` keeps ``kept`` fraction digits of a value with ``X =
    floor(log10 |v|)`` in -8..0."""
    digit = np.arange(48, 58, dtype=np.uint8)
    group_text = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1)
    group_zeros = np.zeros(10_000, dtype=np.int64)
    for step in (10, 100, 1000, 10_000):
        group_zeros[::step] += 1
    negative, minus_x, kept, flag = np.unravel_index(np.arange(2 * 9 * 17 * 2), (2, 9, 17, 2))
    chars = np.tile(np.frombuffer(b"-0.000d.dddddddddddddddde-0d,false\n", dtype=np.uint8),
                    (negative.size, 1))
    chars[:, 27] = 48 + minus_x
    chars[flag == 1, 28:] = np.frombuffer(b",true\n\n", dtype=np.uint8)
    scientific = minus_x > 4
    prefix = np.where(scientific, 0, minus_x + (minus_x > 0))  # "0." and -X - 1 zeros
    keep = np.empty(chars.shape, dtype=bool)
    keep[:, 0] = negative == 1
    keep[:, 1:6] = np.arange(5) < prefix[:, None]
    keep[:, 6] = True
    keep[:, 7] = (prefix == 0) & (kept > 0)
    keep[:, 8:24] = np.arange(16) < kept[:, None]
    keep[:, 24:28] = scientific[:, None]
    keep[:, 28:34] = True
    keep[:, 34] = flag == 0  # ",true\n" is a column shorter
    return group_text.view(np.uint32).ravel(), group_zeros, chars, keep


def _digits17(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits of each ``mag`` (0, or 1e-8 <= mag < 10) as
    an int64 ``D`` with ``mag ~ D * 10**(X - 16)``, and the exponent ``X``,
    exactly as ``'%.17e'`` rounds them (half to even).

    With ``mag = M * 2**(e - 53)`` (``frexp``), ``X = floor(log10 mag)``
    (``floor(log10 2**(e - 1))`` or one more, by exact decade bounds) and
    ``s = 16 - X``, ``D`` rounds ``10**s * mag = M * 5**s / 2**sh`` for ``sh
    = 53 - e - s``.  A float estimate ``N`` of its floor is off by at most
    about 25, so the remainder ``M * 5**s - N * 2**sh`` is within 2**61 of 0
    (``s <= 24``, ``sh <= 55``): computed in wrapping uint64 and read as
    int64 it is exact, and it corrects ``N``.  The dtypes stay explicit: an
    int64/uint64 mix becomes float64, and numpy 1.x casts Python scalars by
    value."""
    frac, e = np.frexp(mag)
    e = e.astype(np.int64)
    # [2**(e - 1), 2**e) spans at most one power of 10
    low = np.floor((e - 1) * math.log10(2.0)).astype(np.int64)
    exp10 = low + (mag >= _DECADES[low + 9])
    exp10[mag == 0.0] = 0
    s = 16 - exp10
    sh = 53 - e - s
    est = np.floor(mag * _POW10[s]).astype(np.int64)
    m = (frac * 2.0**53).astype(np.uint64)
    rem = (m * _POW5[s] - (est.view(np.uint64) << sh.astype(np.uint64))).view(np.int64)
    off = rem >> sh  # the estimate's error
    digits = est + off
    rem -= off << sh
    half = np.int64(1) << (sh - 1)
    digits += (rem > half) | ((rem == half) & ((digits & 1) == 1))
    carried = digits == 10**17  # rounded up into the next decade
    digits[carried] = 10**16
    exp10[carried] += 1
    return digits, exp10


def _cell_text(negative, digits, exp10, violated) -> bytes:
    """The ``b"%.17g,flag\\n"`` cells of ``_digits17``'s digits, joined."""
    group_text, group_zeros, shape_chars, shape_keep = _cell_tables()
    lead, tail = np.divmod(digits, 10**16)  # d0, and d1..d16 as 4 groups
    high, low = np.divmod(tail.astype(np.uint64), np.uint64(10**8))
    groups = np.empty((digits.size, 4), dtype=np.uint32)
    groups[:, 0], groups[:, 1] = np.divmod(high.astype(np.uint32), np.uint32(10**4))
    groups[:, 2], groups[:, 3] = np.divmod(low.astype(np.uint32), np.uint32(10**4))
    zeros = group_zeros[groups[:, 3]]  # trailing zeros of d1..d16
    for g in (2, 1, 0):
        zeros += (zeros == 4 * (3 - g)) * group_zeros[groups[:, g]]
    shape = ((negative * 9 - exp10) * 17 + 16 - zeros) * 2 + violated
    chars = np.take(shape_chars, shape, axis=0)
    chars[:, 6] = lead + 48
    chars[:, 8:24] = group_text[groups].view(np.uint8)
    del lead, tail, high, low, groups, zeros  # the text's arrays need the memory
    return chars[np.take(shape_keep, shape, axis=0)].tobytes()


def _format17g(values: np.ndarray, violated: np.ndarray) -> list[bytes]:
    """``b"%.17g,true\\n"`` or ``b"%.17g,false\\n"`` of each value and flag,
    as Python's ``%`` writes it.  Zeros and 1e-8 <= |v| < 10 are formatted
    in numpy, exactly (``_digits17``); every other value (subnormal, tiny,
    >= 10, infinite) is formatted by ``%``."""
    values = np.asarray(values, dtype=np.float64).ravel()
    violated = np.asarray(violated, dtype=bool).ravel()
    mag = np.abs(values)
    fast = ((mag >= _DECADES[0]) & (mag < _DECADES[-1])) | (mag == 0.0)
    text = _cell_text(np.signbit(values[fast]), *_digits17(mag[fast]), violated[fast])
    texts = text.splitlines(True)
    if fast.all():
        return texts
    out = np.empty(values.size, dtype=object)
    out[fast] = texts
    out[~fast] = [b"%.17g,%s\n" % (v, b"true" if f else b"false")
                  for v, f in zip(values[~fast].tolist(), violated[~fast].tolist())]
    return out.tolist()


def _row_labels(pairs, checks) -> list[str]:
    """The ``pair,measure,params,`` text of each row of a date, CSV-encoded."""
    pairs = [_csv_fields(pair) for pair in pairs]
    checks = [_csv_fields(*check) for check in checks]
    return [f"{pair},{check}," for pair in pairs for check in checks]


def _write_violations(fh, table: ViolationTable) -> None:
    # pieces[1 + row] holds the bytes "pair,measure,params,gap,flag\n" that
    # the row (a pair and a check) last wrote, so a date is its
    # "YYYY-MM-DD," joined with them (pieces[0] is b"": a table with no rows
    # writes nothing).  A cell whose gap bits (so -0.0 and 0.0 keep their own
    # text) and flag (so a table read back keeps its own flags) equal its
    # row's on the previous date, in this block or the one before, keeps its
    # piece; the other cells of a block of dates are formatted in one
    # _format17g call.  The file is never held in memory.
    labels = [label.encode() for label in
              _row_labels(["-".join(pair) for pair in table.pairs], table.checks)]
    rows = len(labels)
    labels = np.array([b"", *labels], dtype=object)
    pieces = np.full(rows + 1, b"", dtype=object)
    step = max(1, _EXPORT_BLOCK_CELLS // max(rows, 1))
    for start in range(0, len(table.dates), step):
        lo = max(start - 1, 0)  # the block, after its previous date if any
        n = len(table.dates[lo : start + step])
        # (date, pair, check) order, the order of the rows
        gaps = np.ascontiguousarray(table.gaps[:, :, lo : start + step].T,
                                    dtype=np.float64).reshape(n, rows)
        flags = table.violated[:, :, lo : start + step].T.reshape(n, rows)
        new = np.ones((n, rows), dtype=bool)
        new[1:] = (gaps[1:].view(np.int64) != gaps[:-1].view(np.int64)) | (flags[1:] != flags[:-1])
        new, gaps, flags = new[start - lo :], gaps[start - lo :], flags[start - lo :]
        row = np.nonzero(new)[1] + 1  # pieces[0] is the join's b""
        changed = labels[row] + np.array(_format17g(gaps[new], flags[new]), dtype=object)
        ends = np.count_nonzero(new, axis=1).cumsum().tolist()
        for date, begin, end in zip(table.dates[start : start + step], [0, *ends], ends):
            pieces[row[begin:end]] = changed[begin:end]
            fh.write(f"{date.isoformat()},".encode().join(pieces))
        del changed  # before the next block's: pieces hold what the rows still use


def _write_rates(fh, series) -> None:
    # Each label is CSV-encoded once (after an empty field, so that an empty
    # label stays an empty field) and each date's text is built once; a
    # series is joined and written whole.
    day_text: dict = {}
    for s in series:
        label = _csv_fields("", s.label)
        days = [day_text.get(day) or day_text.setdefault(day, day.isoformat())
                for day in s.dates]
        rates = np.asarray(s.rate, dtype=np.float64).tolist()
        tests = np.asarray(s.tests).tolist()
        fh.write("".join(f"{day}{label},{rate:.17g},{int(n)}\n"
                         for day, rate, n in zip(days, rates, tests)))


def export_report(
    records: ViolationTable,
    series,
    correlation_rows,
    outdir,
    config: RollingConfig | None = None,
    extra_summary: dict | None = None,
) -> dict[str, Path]:
    """Write ``violations.csv``, ``daily_rates.csv``, ``correlations.csv`` and
    ``summary.json`` into ``outdir``; column orders are fixed.

    ``violations.csv`` is written as UTF-8 bytes from the arrays of the
    table ``records``, one row per cell in (date, pair, check) order, a
    block of dates of about ``_EXPORT_BLOCK_CELLS`` cells at a time, so
    memory does not grow with the number of dates.  Each pair and check
    label is CSV-encoded and UTF-8-encoded once, and each (pair, check) row
    keeps the bytes it last wrote from one date to the next.  A cell that
    repeats the gap bits and flag of its row on the previous date, in the
    same block or not, writes those bytes again; the other cells of a block
    are formatted in one ``_format17g`` call.
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
    with paths["violations"].open("wb") as fh:
        fh.write(_VIOLATIONS_HEADER.encode() + b"\n")
        _write_violations(fh, records)
    with paths["daily_rates"].open("w", newline="", encoding="utf-8") as fh:
        fh.write("date,measure,rate,tests\n")
        _write_rates(fh, series)
    with paths["correlations"].open("w", newline="", encoding="utf-8") as fh:
        fh.write("series_a,series_b,pearson,spearman,dcor\n")
        fh.write("".join(f"{_csv_fields(la, lb)},{_fmt(c.pearson)},{_fmt(c.spearman)},"
                         f"{_fmt(c.dcor)}\n" for la, lb, c in correlation_rows))
    summary = {
        "n_records": len(records),
        "n_violations": int(np.count_nonzero(records.violated)),
        "measures": sorted({measure for measure, _ in records.checks}),
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


def _split_pairs(texts: list[str]) -> list:
    """Each pair text's two tickers, or None where the split is ambiguous.
    A text with one ``-`` splits there; a text with more splits where both
    sides are named by another text (as a side of any of its splits), if
    exactly one split is."""
    splits = [[(t[:i], t[i + 1 :]) for i, c in enumerate(t) if c == "-"] for t in texts]
    # a text counts each side it names once, so a count above 1 is another text
    named = Counter(side for s in splits for side in {side for split in s for side in split})
    out = []
    for s in splits:
        fits = [split for split in s if len(s) == 1 or min(named[side] for side in split) > 1]
        out.append(fits[0] if len(fits) == 1 else None)
    return out


def read_violations_csv(path) -> ViolationTable:
    """Read ``violations.csv`` back into a ``ViolationTable`` with ``epsilon``
    None, equal to the table ``export_report`` wrote, its gaps bit for bit.

    The first date's rows fix the pairs and the checks, and only they are
    CSV-decoded.  Every row must then hold its date text, the labels that
    the (date, pair, check) grid puts at its position (encoded as
    ``export_report`` encodes them), a gap and the flag ``true`` or
    ``false``.  A malformed row, a row off the grid (a cell missing, added or
    repeated), a NaN gap or any other flag raises ``DataError`` with
    ``path:line``.  A pair text splits at its ``-``.  ``("BRK-B", "C")`` is
    written ``BRK-B-C``, which also reads as ``("BRK", "B-C")``, so a text
    with more than one ``-`` splits where both sides are tickers that the
    other pair texts name (``A-BRK-B`` and ``A-C`` name ``BRK-B`` and
    ``C``, not ``BRK`` and ``B-C``).  Where no split or more than one split
    does, as in a file whose only pair is ``BRK-B-C``, it raises rather than
    be misread."""
    text = _read_text(Path(path))
    if not text.endswith("\n"):
        text += "\n"
    header = text[: text.index("\n")]
    if header != _VIOLATIONS_HEADER:
        raise DataError(f"{path}: unexpected violations header {header!r}")

    # one line at a time: an io.StringIO would copy the whole text
    reader = csv.reader(line[0] for line in re.finditer(".*\n", text))
    next(reader)
    first = []  # the first date's rows, CSV-decoded
    lines = {}  # the line of each pair text's first row
    try:
        for row in reader:
            if first and row[:1] != first[0][:1]:
                break
            if len(row) != 6:
                raise DataError(f"{path}:{reader.line_num}: expected 6 columns, got {len(row)}")
            if "-" not in row[1]:
                raise DataError(
                    f"{path}:{reader.line_num}: pair {row[1]!r} is not 'TICKER-TICKER'")
            first.append(row)
            lines.setdefault(row[1], reader.line_num)
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    # a pair that comes back later on the first date breaks the grid these fix
    pairs = list(lines)
    tickers = _split_pairs(pairs)
    for pair, split in zip(pairs, tickers):
        if split is None:
            raise DataError(f"{path}:{lines[pair]}: pair {pair!r} splits into two of the "
                            f"file's tickers more than one way")
    checks = [(row[2], row[3]) for row in first if row[1] == first[0][1]]
    labels = _row_labels(pairs, checks)

    def error(pos: int, message: str) -> DataError:
        return DataError("%s:%d: %s" % (path, text.count("\n", 0, pos) + 1, message))

    dates, gaps, violated = {}, [], []
    pos = len(header) + 1
    while pos < len(text):
        date_text = text[pos : text.find(",", pos)]
        try:
            day = dt.date.fromisoformat(date_text)
        except ValueError as exc:
            raise error(pos, str(exc)) from exc
        if day in dates:
            raise error(pos, f"date {date_text} repeats")
        dates[day] = None
        for label in labels:
            head = f"{date_text},{label}"
            if not text.startswith(head, pos):
                raise error(pos, f"row is off the (date, pair, check) grid: expected {head!r}")
            start = pos + len(head)
            pos = text.index("\n", start) + 1
            gap, _, flag = text[start : pos - 1].partition(",")
            try:
                gap = float(gap)
            except ValueError:
                gap = math.nan
            if flag not in ("true", "false") or math.isnan(gap):
                raise error(start, f"expected a gap and 'true' or 'false', got "
                                   f"{text[start : pos - 1]!r}")
            gaps.append(gap)
            violated.append(flag == "true")
    shape = (len(dates), len(pairs), len(checks))
    return ViolationTable(
        dates=tuple(dates),
        pairs=tuple(tickers),
        checks=tuple(checks),
        gaps=np.array(gaps, dtype=float).reshape(shape).T,
        violated=np.array(violated, dtype=bool).reshape(shape).T,
    )


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
        epsilon=float(cfg.get("epsilon", DEFAULT_EPSILON)),
    )
