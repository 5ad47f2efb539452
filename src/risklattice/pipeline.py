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
import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.stats import rankdata

from .errors import DataError, DomainError
from .functions import AdjustmentGrid
from .specs import RiskMeasureSpec

__all__ = [
    "PricePanel",
    "LossPanel",
    "RollingConfig",
    "ViolationRecord",
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
        if self.epsilon < 0:
            raise DomainError("epsilon must be nonnegative")
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
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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


def _pair_records(
    losses: LossPanel, config: RollingConfig, i: int, j: int, debug: bool
) -> list[ViolationRecord]:
    w = config.window
    eps = config.epsilon
    pair = (losses.tickers[i], losses.tickers[j])
    x = losses.losses[:, i]
    y = losses.losses[:, j]
    blocks = [sliding_window_view(v, w) for v in (x, y, np.minimum(x, y), np.maximum(x, y))]
    X, Y, M, J = blocks
    if debug and not np.array_equal(M + J, X + Y):
        raise AssertionError("meet/join accounting failed: meet + join != x + y")
    if any(spec.kind == "var" for spec in config.measures):
        blocks.append(sliding_window_view(x + y, w))
    dates = losses.dates[w - 1 :]
    d = len(dates)
    # The windows were validated at ingest; sort them once here for every
    # measure and both tests.  Only VaR's subadditivity test reads the
    # summed-loss block; the other measures evaluate the first four alone.
    batch = np.concatenate(blocks)
    batch.sort(axis=1)
    out: list[ViolationRecord] = []
    for spec in config.measures:
        vals = spec._evaluate_sorted(batch if spec.kind == "var" else batch[: 4 * d])
        pair_sum = vals[:d] + vals[d : 2 * d]
        tests = [(SUBMODULARITY, pair_sum - (vals[2 * d : 3 * d] + vals[3 * d : 4 * d]))]
        if spec.kind == "var":
            tests.append((SUBADDITIVITY, pair_sum - vals[4 * d :]))
        for test, gaps in tests:
            out.extend(
                ViolationRecord(
                    date=day, pair=pair, measure=spec.label, test=test,
                    gap=float(g), violated=bool(g < -eps),
                )
                for day, g in zip(dates, gaps)
            )
    return out


def pairwise_day_tests(
    losses: LossPanel, config: RollingConfig, debug: bool = False, threads: int = 1
) -> list[ViolationRecord]:
    """Lattice-test every unordered ticker pair on every full-window date.

    For each pair and date the configured measures are evaluated on the two
    ticker windows and on their pointwise meet and join; VaR measures are
    additionally tested for subadditivity on the summed-loss window.  Records
    come back sorted by (date, pair, measure, test), so runs are reproducible
    byte for byte.  ``debug`` asserts the exact meet/join accounting
    ``meet + join == x + y`` on every window.
    """
    if len(losses.tickers) < 2:
        raise DomainError("pairwise tests need at least 2 tickers")
    if losses.losses.shape[0] < config.window:
        raise DomainError(
            f"panel has {losses.losses.shape[0]} loss rows < window {config.window}"
        )
    order = sorted(range(len(losses.tickers)), key=lambda k: losses.tickers[k])
    pairs = [(i, j) for a, i in enumerate(order) for j in order[a + 1 :]]

    def run(ij):
        return _pair_records(losses, config, ij[0], ij[1], debug)

    if threads > 1 and len(pairs) > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            chunks = list(pool.map(run, pairs))
    else:
        chunks = [run(ij) for ij in pairs]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r.date, r.pair, r.measure, r.test))
    return records


def daily_violation_rate(
    records, label: str, test: str = SUBMODULARITY
) -> DailyViolationSeries:
    """Per-date violation proportion for one measure label (and test kind).

    Dates with zero tests are omitted.  An unknown label (no matching
    records) is a domain error.
    """
    chosen = [r for r in records if r.measure == label and r.test == test]
    if not chosen:
        raise DomainError(f"no records for measure {label!r} with test {test!r}")
    by_date: dict[dt.date, list[ViolationRecord]] = {}
    for r in chosen:
        by_date.setdefault(r.date, []).append(r)
    dates = tuple(sorted(by_date))
    tests = np.array([len(by_date[d]) for d in dates], dtype=np.int64)
    violations = np.array(
        [sum(1 for r in by_date[d] if r.violated) for d in dates], dtype=np.int64
    )
    return DailyViolationSeries(
        dates=dates,
        rate=violations / tests,
        label=f"{label}/{test}",
        violations=violations,
        tests=tests,
    )


# ---------------------------------------------------------------------------
# dependence diagnostics


def correlations(a: DatedSeries, b: DatedSeries) -> CorrelationResult:
    """Pearson, Spearman, and distance correlation of two dated series.

    Series are aligned on common dates (at least 3 required).  Spearman uses
    average ranks for ties; the distance correlation is the exact O(n^2)
    double-centered form, in [0, 1].  Constant inputs return zeros with the
    ``degenerate`` flag instead of raising.
    """
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
    spearman = _pearson(rankdata(va), rankdata(vb))
    return CorrelationResult(pearson=pearson, spearman=spearman, dcor=_dcor(va, vb))


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

    ``correlation_rows`` is an iterable of ``(label_a, label_b,
    CorrelationResult)``.  Output is byte-stable for a fixed input: records
    are re-sorted on (date, pair, measure, test), floats are written with
    17 significant digits, and the JSON summary has sorted keys and no
    timestamps.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "violations": outdir / "violations.csv",
        "daily_rates": outdir / "daily_rates.csv",
        "correlations": outdir / "correlations.csv",
        "summary": outdir / "summary.json",
    }
    records = sorted(records, key=lambda r: (r.date, r.pair, r.measure, r.test))
    with paths["violations"].open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["date", "pair", "measure", "params", "gap", "violated"])
        for r in records:
            w.writerow(
                [r.date.isoformat(), "-".join(r.pair), r.measure, r.test,
                 _fmt(r.gap), "true" if r.violated else "false"]
            )
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
        "n_records": len(records),
        "n_violations": sum(1 for r in records if r.violated),
        "measures": sorted({r.measure for r in records}),
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
    """Round-trip loader for ``violations.csv``."""
    out = []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["date", "pair", "measure", "params", "gap", "violated"]:
            raise DataError(f"{path}: unexpected violations header {header}")
        for row in reader:
            a, b = row[1].split("-", maxsplit=1)
            out.append(
                ViolationRecord(
                    date=dt.date.fromisoformat(row[0]),
                    pair=(a, b),
                    measure=row[2],
                    test=row[3],
                    gap=float(row[4]),
                    violated=row[5] == "true",
                )
            )
    return out


# ---------------------------------------------------------------------------
# config files

_CONFIG_KEYS = ("window", "epsilon", "levels", "aes_levels", "aes_penalties", "tickers", "seed")


def load_config(path) -> dict:
    """Parse a flat ``key = value`` config file (``#`` comments allowed)."""
    cfg: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
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
        if key in ("window", "seed"):
            cfg[key] = int(value)
        elif key == "epsilon":
            cfg[key] = float(value)
        elif key == "tickers":
            cfg[key] = tuple(v.strip() for v in value.split(",") if v.strip())
        else:
            cfg[key] = tuple(float(v) for v in value.split(",") if v.strip())
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
