import dataclasses
import datetime as dt
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import risklattice.pipeline as pl
from risklattice import (AdjustmentGrid, DataError, DomainError, RiskMeasureSpec, parse_measure_spec,
                         power_distortion)


def write_csv(path, rows):
    path.write_text("date,ticker,adj_close\n" + "".join(f"{r}\n" for r in rows))
    return path


# ---------------------------------------------------------------------------
# ingestion


def test_load_two_row_file(tmp_path):
    p = write_csv(tmp_path / "p.csv", ["2024-01-02,AAA,100.0", "2024-01-03,AAA,110.0"])
    panel = pl.load_prices_csv(p)
    assert panel.tickers == ("AAA",)
    assert len(panel.dates) == 2
    np.testing.assert_allclose(panel.closes[:, 0], [100.0, 110.0])


def test_load_missing_cell_marked(tmp_path):
    p = write_csv(tmp_path / "p.csv", [
        "2024-01-02,AAA,100.0", "2024-01-02,BBB,50.0", "2024-01-03,AAA,101.0",
    ])
    panel = pl.load_prices_csv(p)
    assert np.isnan(panel.closes[1, panel.tickers.index("BBB")])


def test_load_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(DataError, match="no data"):
        pl.load_prices_csv(p)
    p.write_text("date,ticker,adj_close\n")
    with pytest.raises(DataError, match="no data"):
        pl.load_prices_csv(p)


def test_load_bad_row_reports_line(tmp_path):
    p = write_csv(tmp_path / "p.csv", ["2024-01-02,AAA,100.0", "not-a-date,AAA,1.0"])
    with pytest.raises(DataError, match=":3"):
        pl.load_prices_csv(p)


def test_load_nonpositive_price_rejected(tmp_path):
    p = write_csv(tmp_path / "p.csv", ["2024-01-02,AAA,-3.0"])
    with pytest.raises(DataError, match="nonpositive"):
        pl.load_prices_csv(p)


@pytest.mark.parametrize("price", ["inf", "nan", "-inf", "1e999"])
def test_load_non_finite_price_rejected_with_line(tmp_path, price):
    p = write_csv(tmp_path / "p.csv", ["2024-01-02,AAA,100.0", f"2024-01-03,AAA,{price}"])
    with pytest.raises(DataError, match=f"p.csv:3: nonpositive or non-finite price '{price}'"):
        pl.load_prices_csv(p)


@pytest.mark.parametrize("row", ["2024-02-30,AAA,1.0", "2024-01-02,CCC,abc"])
def test_load_error_after_a_parsed_date_names_its_own_line(tmp_path, row):
    # line 3 reuses line 2's parsed date; line 4 fails on its own date or price
    p = write_csv(tmp_path / "p.csv", ["2024-01-02,AAA,100.0", "2024-01-02,BBB,50.0", row])
    with pytest.raises(DataError, match="p.csv:4: "):
        pl.load_prices_csv(p)


@pytest.mark.parametrize("rows, line", [
    # a quoted line break before the bad row moves it down one file line
    (['2024-01-02,"A\nB",1.0', "2024-01-03,C,x"], 4),
    # a bad row that holds a quoted line break names the line it starts on
    (["2024-01-02,A,1.0", '2024-01-03,"C\r\nD",x'], 3),
    # a refused row names the line where the reader stopped
    (['2024-01-02,"A\nB",1.0', f"2024-01-03,{'T' * 140_000},1.0"], 4),
])
def test_load_error_names_the_file_line(tmp_path, rows, line):
    p = write_csv(tmp_path / "p.csv", rows)
    with pytest.raises(DataError, match=f"p.csv:{line}: "):
        pl.load_prices_csv(p)


def count_readers(monkeypatch) -> list:
    """The ``csv.reader`` calls made from now on, one entry each."""
    calls, reader = [], pl.csv.reader

    def counted(*args, **kwargs):
        calls.append(args)
        return reader(*args, **kwargs)

    monkeypatch.setattr(pl.csv, "reader", counted)
    return calls


@pytest.mark.parametrize("rows", [
    ["2024-01-02,A,1.0"],
    ["2024-01-02,A,1.0", ",,", "2024-01-03,A,1.5"],  # a blank 3-column row is dropped
    ["2024-01-02,A,1.0", "2024-01-03,A,0"],
    ["2024-01-02,A,1.0", "2024-01-03,A"],
    ["2024-01-02,A,1.0", f"2024-01-03,{'T' * 140_000},1.0"],
])
def test_load_parses_the_file_with_one_reader(tmp_path, monkeypatch, rows):
    # the rows the first pass keeps are checked where they are: the text is
    # not parsed a second time, whatever the file holds
    p = write_csv(tmp_path / "p.csv", rows)
    readers = count_readers(monkeypatch)
    try:
        pl.load_prices_csv(p)
    except DataError:
        pass
    assert len(readers) == 1


@pytest.mark.parametrize("rows, line, message", [
    # a bad 3-column row, then a row of another column count
    (["2024-01-02,A,1.0", "2024-01-03,A,0", "2024-01-04,A", "2024-01-05,A,1.0"], 3,
     "nonpositive or non-finite price '0'"),
    # a bad 3-column row after a quoted line break, then an over-long field
    (['2024-01-02,"A\nB",1.0', "2024-01-03, ,1.0", f"2024-01-04,{'T' * 140_000},1.0"], 4,
     "empty ticker"),
    # a blank 3-column row is dropped; the row of another column count raises
    (["2024-01-02,A,1.0", ",,", '2024-01-03,"A\nB",1.0,x'], 4, "expected 3 columns, got 4"),
    (["2024-01-02,A,1.0", " , , ", f"2024-01-03,{'T' * 140_000},1.0"], 4,
     r"field larger than field limit \(131072\)"),
])
def test_load_names_a_bad_row_before_the_row_that_stops_the_pass(tmp_path, monkeypatch, rows,
                                                                 line, message):
    p = write_csv(tmp_path / "p.csv", rows)
    readers = count_readers(monkeypatch)
    with pytest.raises(DataError, match=f"p.csv:{line}: {message}$"):
        pl.load_prices_csv(p)
    assert len(readers) == 1


@pytest.mark.parametrize("ticker", ["", "  "])
def test_load_empty_ticker_reports_line(tmp_path, ticker):
    p = write_csv(tmp_path / "p.csv", ["2024-01-02,AAA,100.0", f"2024-01-02,{ticker},1.0"])
    with pytest.raises(DataError, match="p.csv:3: empty ticker"):
        pl.load_prices_csv(p)


def test_load_date_with_spaces_is_the_same_cell(tmp_path):
    p = write_csv(tmp_path / "p.csv", ["2024-01-02,AAA,100.0", " 2024-01-02 ,AAA,200.0",
                                       "2024-01-03 ,AAA,300.0"])
    with pytest.warns(UserWarning, match="1 duplicate"):
        panel = pl.load_prices_csv(p)
    assert panel.dates == (dt.date(2024, 1, 2), dt.date(2024, 1, 3))
    assert panel.duplicates == 1
    assert panel.closes[:, 0].tolist() == [200.0, 300.0]


def test_load_duplicates_last_wins(tmp_path):
    p = write_csv(tmp_path / "p.csv", [
        "2024-01-02,AAA,100.0", "2024-01-02,AAA,200.0", "2024-01-03,AAA,300.0",
    ])
    with pytest.warns(UserWarning, match="duplicate"):
        panel = pl.load_prices_csv(p)
    assert panel.duplicates == 1
    assert panel.closes[0, 0] == 200.0


def test_load_wrong_header(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("day,sym,px\n2024-01-02,AAA,1.0\n")
    with pytest.raises(DataError, match="header"):
        pl.load_prices_csv(p)


@pytest.mark.parametrize("load", [pl.load_prices_csv, pl.load_config, pl.read_violations_csv])
def test_load_non_utf8_file_names_it(tmp_path, load):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"date,ticker,adj_close\n2024-01-02,\xff,1.0\n")
    with pytest.raises(DataError, match="bad.txt: not UTF-8"):
        load(p)


def test_load_skips_utf8_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with EF BB BF; it is not part of
    # the first header cell or config key
    prices = b"date,ticker,adj_close\n2024-01-02,AAA,1.5\n2024-01-03,AAA,2.0\n"
    config = b"window = 250\nlevels = 0.9\n"
    for name, text in (("p.csv", prices), ("run.cfg", config)):
        (tmp_path / name).write_bytes(text)
        (tmp_path / f"bom-{name}").write_bytes(b"\xef\xbb\xbf" + text)
    assert pl.load_config(tmp_path / "bom-run.cfg") == pl.load_config(tmp_path / "run.cfg")
    a, b = pl.load_prices_csv(tmp_path / "p.csv"), pl.load_prices_csv(tmp_path / "bom-p.csv")
    assert (a.dates, a.tickers, a.duplicates) == (b.dates, b.tickers, b.duplicates)
    assert a.closes.tobytes() == b.closes.tobytes()


def loop_load_prices_csv(path) -> pl.PricePanel:
    """``load_prices_csv`` as one loop over the rows, each checked and stored
    as it is read: the reference for the columnar loader."""
    import csv
    import io
    import warnings

    path = Path(path)
    cells, days, duplicates = {}, {}, 0
    reader = csv.reader(io.StringIO(pl._read_text(path), newline=""))
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: no data (empty file)")
    if [c.strip().lower() for c in header] != ["date", "ticker", "adj_close"]:
        raise DataError(f"{path}: expected header 'date,ticker,adj_close', got {header}")
    start = reader.line_num + 1  # the file line the next row starts on
    for row in reader:
        lineno, start = start, reader.line_num + 1
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        try:
            day = days.get(row[0])
            if day is None:
                day = days[row[0]] = dt.date.fromisoformat(row[0].strip())
            price = float(row[2].strip())
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if not math.isfinite(price) or price <= 0:
            raise DataError(f"{path}:{lineno}: nonpositive or non-finite price {row[2]!r}")
        ticker = row[1].strip()
        if not ticker:
            raise DataError(f"{path}:{lineno}: empty ticker")
        duplicates += (day, ticker) in cells
        cells[day, ticker] = price
    if not cells:
        raise DataError(f"{path}: no data rows")
    if duplicates:
        warnings.warn(f"{path}: {duplicates} duplicate (date,ticker) rows; last value wins")
    dates = tuple(sorted({k[0] for k in cells}))
    tickers = tuple(sorted({k[1] for k in cells}))
    closes = np.full((len(dates), len(tickers)), np.nan)
    for (day, ticker), price in cells.items():
        closes[dates.index(day), tickers.index(ticker)] = price
    return pl.PricePanel(dates=dates, tickers=tickers, closes=closes, duplicates=duplicates)


def load_outcome(load, path):
    """What ``load`` does with the file: its panel and warnings, or its error."""
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            panel = load(path)
        except Exception as exc:  # the loaders must fail alike, whatever the error
            return type(exc), str(exc)
    return (panel.dates, panel.tickers, panel.closes.tobytes(), panel.duplicates,
            [str(w.message) for w in caught])


def csv_field(text: str) -> str:
    # quoted, '"' doubled, when it needs to be, and now and then when not
    if any(c in text for c in ',"\r\n') or text.startswith("q"):
        return '"' + text.replace('"', '""') + '"'
    return text


GOOD_CELLS = (["2024-01-02", "2024-01-03", " 2024-01-02 ", "2024-01-04\t"],
              ["AAA", "BBB", " AAA ", "q,1", 'Q"2', "C\rD"],
              ["1.5", " 2 ", "1e3", "3.25", "0.1", "1_000", "\x1c4.5", "\u20035.5", "6.5\x85"])
BAD_CELLS = (["2024-02-30", "not-a-date", "", " ", "2024-1-2"],
             ["", "  "],
             ["0", "-1", "nan", "inf", "1e999", "abc", ""])


def price_row(cells):
    return st.tuples(*map(st.sampled_from, cells)).map(lambda row: ",".join(map(csv_field, row)))


# mostly good rows, so that files often parse; then rows with one bad cell
# or any cells, blank rows, and rows of other column counts
ODD_ROWS = [
    st.integers(0, 2).flatmap(lambda bad: price_row(
        [BAD_CELLS[c] if c == bad else GOOD_CELLS[c] for c in range(3)])),
    price_row([good + bad for good, bad in zip(GOOD_CELLS, BAD_CELLS)]),
    st.sampled_from(["", ",,", "  ", " , , "]),
    st.sampled_from(["2024-01-02,AAA", "2024-01-02,AAA,1.0,x", '"a,b"']),
]
PRICE_ROWS = st.integers(0, 19).flatmap(
    lambda k: ODD_ROWS[k % 4] if k < 5 else price_row(GOOD_CELLS))


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(st.tuples(PRICE_ROWS, st.sampled_from(["\n", "\r\n", "\r"])),
                     max_size=12),
       bom=st.booleans(),
       header=st.sampled_from(["date,ticker,adj_close"] * 4 + [" Date,TICKER ,adj_close",
                                                              "date,ticker"]),
       last_end=st.booleans())
def test_load_matches_the_row_loop(rows, bom, header, last_end):
    # quoted tickers holding ',' or '"', CRLF and bare-CR line ends, a BOM,
    # blank, ',,' and whitespace-only rows, duplicate cells, dates with
    # spaces, and bad dates, prices, tickers and column counts
    import tempfile

    text = header + "\n" + "".join(row + end for row, end in rows)
    if rows and not last_end:
        text = text[: -len(rows[-1][1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode())
        assert load_outcome(pl.load_prices_csv, path) == load_outcome(loop_load_prices_csv, path)


@pytest.mark.parametrize("shape", [(40, 7), (3, 250)])
def test_load_matches_the_row_loop_on_a_panel(tmp_path, shape):
    # many rows, shuffled, with duplicates and missing cells: the columnar
    # path, and then the row path for a bad last row
    rng = np.random.default_rng(shape[0])
    days, names = shape
    rows = [f"{dt.date(2024, 1, 1) + dt.timedelta(days=int(d))},T{t},{price!r}"
            for d, t, price in zip(rng.integers(0, days, 4 * days * names),
                                   rng.integers(0, names, 4 * days * names),
                                   rng.lognormal(size=4 * days * names).tolist())]
    path = write_csv(tmp_path / "p.csv", rows)
    outcome = load_outcome(pl.load_prices_csv, path)
    assert outcome == load_outcome(loop_load_prices_csv, path)
    assert outcome[3] > 0 and "duplicate" in outcome[4][0]
    path = write_csv(tmp_path / "p.csv", rows + ["2024-01-01,T0,0"])
    assert load_outcome(pl.load_prices_csv, path) == (
        DataError, f"{path}:{len(rows) + 2}: nonpositive or non-finite price '0'")


# ---------------------------------------------------------------------------
# loss panel


def test_loss_panel_log_losses(tmp_path):
    p = write_csv(tmp_path / "p.csv", ["2024-01-02,AAA,100.0", "2024-01-03,AAA,110.0"])
    losses = pl.build_loss_panel(pl.load_prices_csv(p))
    assert losses.losses.shape == (1, 1)
    assert losses.losses[0, 0] == pytest.approx(-math.log(1.1), abs=1e-15)
    assert losses.dates == (dt.date(2024, 1, 3),)


def test_loss_panel_constant_prices_zero_losses():
    panel = pl.synth_prices(seed=1, n_days=10, n_assets=2, vol=0.0, jump_prob=0.0)
    losses = pl.build_loss_panel(panel)
    np.testing.assert_array_equal(losses.losses, 0.0)


def test_loss_panel_disjoint_dates(tmp_path):
    p = write_csv(tmp_path / "p.csv", [
        "2024-01-02,AAA,100.0", "2024-01-03,AAA,101.0",
        "2024-01-04,BBB,50.0", "2024-01-05,BBB,51.0",
    ])
    with pytest.raises(DomainError, match="common dates"):
        pl.build_loss_panel(pl.load_prices_csv(p))


def test_loss_panel_rejects_repeated_ticker():
    # a repeated column would test the self-pair, whose gap is always 0, and
    # write a report that cannot be read back
    panel = pl.synth_prices(seed=1, n_days=10, n_assets=2, vol=0.02, jump_prob=0.0)
    assert panel.tickers == ("A00", "A01")
    with pytest.raises(DomainError, match="ticker 'A00' is listed twice"):
        pl.build_loss_panel(panel, ["A00", "A00", "A01"])


def test_loss_panel_complete_case_deletion(tmp_path):
    # BBB is missing on 01-03; that date must drop entirely, and the loss
    # spans 01-02 -> 01-04 for both tickers
    p = write_csv(tmp_path / "p.csv", [
        "2024-01-02,AAA,100.0", "2024-01-02,BBB,10.0",
        "2024-01-03,AAA,990.0",
        "2024-01-04,AAA,120.0", "2024-01-04,BBB,12.0",
    ])
    losses = pl.build_loss_panel(pl.load_prices_csv(p))
    assert losses.losses.shape == (1, 2)
    assert losses.losses[0, 0] == pytest.approx(-math.log(1.2))
    assert losses.losses[0, 1] == pytest.approx(-math.log(1.2))


# ---------------------------------------------------------------------------
# rolling evaluation


def make_loss_panel(columns: dict[str, list[float]]) -> pl.LossPanel:
    tickers = tuple(sorted(columns))
    n = len(next(iter(columns.values())))
    dates = tuple(dt.date(2024, 1, 1) + dt.timedelta(days=k) for k in range(n))
    losses = np.column_stack([columns[t] for t in tickers])
    return pl.LossPanel(dates=dates, tickers=tickers, losses=losses)


def test_rolling_full_history_single_value():
    panel = make_loss_panel({"AAA": [0.05, 0.01, -0.02, 0.03, -0.01]})
    config = pl.RollingConfig(window=5, measures=(RiskMeasureSpec.es(0.6),))
    series = pl.rolling_eval(panel, "AAA", config, RiskMeasureSpec.es(0.6))
    assert len(series.dates) == 1
    assert series.values[0] == pytest.approx(0.04, abs=1e-15)


def test_rolling_constant_series():
    panel = make_loss_panel({"AAA": [0.01] * 8})
    config = pl.RollingConfig(window=4, measures=(RiskMeasureSpec.var(0.8),))
    series = pl.rolling_eval(panel, "AAA", config, RiskMeasureSpec.var(0.8))
    np.testing.assert_allclose(series.values, 0.01)
    assert len(series.dates) == 5  # first window-1 dates absent


def test_rolling_insufficient_history_warns():
    panel = make_loss_panel({"AAA": [0.01, 0.02]})
    config = pl.RollingConfig(window=10, measures=(RiskMeasureSpec.var(0.8),))
    with pytest.warns(UserWarning, match="window"):
        series = pl.rolling_eval(panel, "AAA", config, RiskMeasureSpec.var(0.8))
    assert len(series.dates) == 0


# ---------------------------------------------------------------------------
# pairwise tests


def test_var_subadditivity_fixture_recorded():
    # windows are exactly x = [1,0,0,0] and y = [0,1,0,0]: VaR(0.5) halves
    # are 0 but the summed window has second-largest loss 1
    panel = make_loss_panel({"AAA": [1.0, 0.0, 0.0, 0.0], "BBB": [0.0, 1.0, 0.0, 0.0]})
    config = pl.RollingConfig(window=4, measures=(RiskMeasureSpec.var(0.5),))
    records = pl.pairwise_day_tests(panel, config)
    subadd = [r for r in records if r.test == pl.SUBADDITIVITY]
    assert len(subadd) == 1
    assert subadd[0].gap == -1.0 and subadd[0].violated
    assert subadd[0].pair == ("AAA", "BBB")


def test_es_records_never_violate():
    panel = pl.build_loss_panel(pl.synth_prices(seed=5, n_days=50, n_assets=4, vol=0.03, jump_prob=0.15))
    config = pl.RollingConfig(window=15, measures=(RiskMeasureSpec.es(0.9), RiskMeasureSpec.var(0.9)))
    records = pl.pairwise_day_tests(panel, config)
    es_records = [r for r in records if r.measure == "ES(0.9)"]
    assert es_records
    assert not any(r.violated for r in es_records)


def test_dominated_pair_gaps_exactly_zero():
    # A = B + 0.01 everywhere, so meet = B and join = A on every window: each
    # pair's sorted rows repeat exactly and every gap must be exactly 0.  An odd
    # date count puts the four blocks at different row parities in the batch.
    b = np.random.default_rng(8).standard_normal(40) * 0.02
    panel = make_loss_panel({"AAA": b + 0.01, "BBB": b})
    measures = (
        RiskMeasureSpec.var(0.9),
        RiskMeasureSpec.es(0.9),
        RiskMeasureSpec.aes(AdjustmentGrid((0.6, 0.9), (0.0, 0.01))),
        RiskMeasureSpec.distortion(power_distortion(0.5)),
    )
    config = pl.RollingConfig(window=18, measures=measures)
    table = pl.pairwise_day_tests(panel, config)
    sub = [r for r in table if r.test == pl.SUBMODULARITY]
    assert len({r.date for r in sub}) % 2 == 1
    assert len(sub) == 23 * len(measures)
    assert all(r.gap == 0.0 for r in sub)
    ks = [k for k, (_, test) in enumerate(table.checks) if test == pl.SUBMODULARITY]
    assert table.gaps[ks].shape == (len(measures), 1, 23)
    assert np.all(table.gaps[ks] == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_loss_panel_rejects_non_finite(bad):
    with pytest.raises(DataError, match="finite"):
        make_loss_panel({"AAA": [0.01, bad, 0.02]})


def test_pairwise_needs_two_tickers():
    panel = make_loss_panel({"AAA": [0.1, 0.2, 0.3, 0.4]})
    config = pl.RollingConfig(window=2, measures=(RiskMeasureSpec.var(0.5),))
    with pytest.raises(DomainError, match="2 tickers"):
        pl.pairwise_day_tests(panel, config)


# ---------------------------------------------------------------------------
# daily rates


def test_daily_rate_single_violation():
    panel = make_loss_panel({"AAA": [1.0, 0.0, 0.0, 0.0], "BBB": [0.0, 1.0, 0.0, 0.0]})
    config = pl.RollingConfig(window=4, measures=(RiskMeasureSpec.var(0.5),))
    records = pl.pairwise_day_tests(panel, config)
    series = pl.daily_violation_rate(records, "VaR(0.5)", test=pl.SUBADDITIVITY)
    assert series.rate.tolist() == [1.0]
    assert series.tests.tolist() == [1]


def test_daily_rate_unknown_label():
    panel = make_loss_panel({"AAA": [1.0, 0.0, 0.0], "BBB": [0.0, 1.0, 0.0]})
    config = pl.RollingConfig(window=3, measures=(RiskMeasureSpec.var(0.5),))
    records = pl.pairwise_day_tests(panel, config)
    with pytest.raises(DomainError, match="no records"):
        pl.daily_violation_rate(records, "ES(0.99)")


def test_daily_rate_all_zero_for_es():
    panel = pl.build_loss_panel(pl.synth_prices(seed=8, n_days=30, n_assets=3, vol=0.02, jump_prob=0.2))
    config = pl.RollingConfig(window=10, measures=(RiskMeasureSpec.es(0.9),))
    records = pl.pairwise_day_tests(panel, config)
    series = pl.daily_violation_rate(records, "ES(0.9)")
    np.testing.assert_array_equal(series.rate, 0.0)


# ---------------------------------------------------------------------------
# correlations


def dated(values, label="s"):
    days = tuple(dt.date(2024, 1, 1) + dt.timedelta(days=k) for k in range(len(values)))
    return pl.DatedSeries(dates=days, values=np.asarray(values, dtype=float), label=label)


def test_correlations_affine_dependence():
    a = dated([1.0, 2.0, 3.0, 4.0, 5.0])
    b = dated([2 * v + 3 for v in (1.0, 2.0, 3.0, 4.0, 5.0)])
    c = pl.correlations(a, b)
    assert c.pearson == pytest.approx(1.0, abs=1e-12)
    assert c.spearman == pytest.approx(1.0, abs=1e-12)
    assert c.dcor == pytest.approx(1.0, abs=1e-12)


def test_correlations_sign_flip():
    a = dated([1.0, 2.0, 5.0, 3.0])
    b = dated([-1.0, -2.0, -5.0, -3.0])
    c = pl.correlations(a, b)
    assert c.pearson == pytest.approx(-1.0, abs=1e-12)
    assert c.spearman == pytest.approx(-1.0, abs=1e-12)
    assert c.dcor == pytest.approx(1.0, abs=1e-12)  # distance correlation is sign-blind


def test_correlations_monotone_quadratic():
    a = dated([1.0, 2.0, 3.0, 4.0])
    b = dated([1.0, 4.0, 9.0, 16.0])
    c = pl.correlations(a, b)
    assert c.spearman == pytest.approx(1.0, abs=1e-12)
    assert c.pearson == pytest.approx(0.9843740386976972, abs=1e-12)
    assert c.pearson < 1.0
    # frozen from the brute-force double-centered O(n^2) oracle
    assert c.dcor == pytest.approx(0.9880575600825113, abs=1e-12)


def test_correlations_degenerate_constant():
    c = pl.correlations(dated([1.0, 1.0, 1.0, 1.0]), dated([1.0, 2.0, 3.0, 4.0]))
    assert c.degenerate
    assert (c.pearson, c.spearman, c.dcor) == (0.0, 0.0, 0.0)


def expression_dcor(u, v) -> float:
    """The distance correlation as one expression per matrix and product."""
    def centered(x):
        D = np.abs(x[:, None] - x[None, :])
        return D - D.mean(axis=0, keepdims=True) - D.mean(axis=1, keepdims=True) + D.mean()

    A, B = centered(u), centered(v)
    denom = np.sqrt(float((A * A).mean()) * float((B * B).mean()))
    if denom <= 0.0:
        return 0.0
    return float(np.sqrt(max(float((A * B).mean()), 0.0) / denom))


@pytest.mark.parametrize("n", [3, 4, 17, 500])
def test_dcor_in_place_is_bit_equal_to_the_expression(n):
    rng = np.random.default_rng(n)
    u = rng.standard_normal(n)
    tied = np.round(rng.standard_normal(n), 1)  # many tied values
    for a, b in ((u, tied), (tied, tied), (u, u ** 3), (tied, np.zeros(n))):
        assert pl._dcor(a, b).hex() == expression_dcor(a, b).hex()


def test_correlations_need_three_common_dates():
    with pytest.raises(DomainError, match="common dates"):
        pl.correlations(dated([1.0, 2.0]), dated([3.0, 4.0]))


def test_correlations_align_on_common_dates():
    a = dated([1.0, 2.0, 3.0, 4.0, 5.0])
    b = pl.DatedSeries(dates=a.dates[2:], values=np.array([9.0, 16.0, 25.0]), label="b")
    c = pl.correlations(a, b)
    assert c.spearman == pytest.approx(1.0, abs=1e-12)


def test_average_ranks_hand_computed():
    assert pl._average_ranks(np.array([3.0, 1.0, 2.0, 2.0])).tolist() == [4.0, 1.0, 2.5, 2.5]


def test_spearman_with_ties_hand_computed():
    # ranks [1, 2.5, 2.5, 4] and [1, 3, 2, 4]: centered dot 4.5, squared norms 4.5 and 5
    c = pl.correlations(dated([1.0, 2.0, 2.0, 3.0]), dated([1.0, 3.0, 2.0, 4.0]))
    assert c.spearman == pytest.approx(math.sqrt(0.9), rel=1e-15)


def test_average_ranks_match_scipy_rankdata():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 60))
        v = rng.integers(0, int(rng.integers(1, 2 * n + 1)), size=n) * rng.choice([0.25, 1e-3, 7.0])
        expected = stats.rankdata(v)
        got = pl._average_ranks(v)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_correlations_reject_non_finite(bad):
    good = dated([1.0, 2.0, 3.0, 4.0], label="good")
    broken = dated([1.0, bad, 3.0, 4.0], label="rates")
    for a, b in ((broken, good), (good, broken)):
        with pytest.raises(DomainError, match="'rates'"):
            pl.correlations(a, b)


def test_cli_import_loads_no_scipy():
    src = str(Path(pl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, risklattice.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# synthetic prices


def test_synth_single_day_initial_level():
    panel = pl.synth_prices(seed=0, n_days=1, n_assets=3, vol=0.02, jump_prob=0.0)
    np.testing.assert_allclose(panel.closes, 100.0)


def test_synth_deterministic():
    a = pl.synth_prices(seed=4, n_days=20, n_assets=2, vol=0.02, jump_prob=0.3)
    b = pl.synth_prices(seed=4, n_days=20, n_assets=2, vol=0.02, jump_prob=0.3)
    np.testing.assert_array_equal(a.closes, b.closes)
    assert a.dates == b.dates


def test_synth_zero_vol_constant():
    panel = pl.synth_prices(seed=2, n_days=15, n_assets=2, vol=0.0, jump_prob=0.0)
    np.testing.assert_allclose(panel.closes, 100.0)


# ---------------------------------------------------------------------------
# reports


def run_small(outdir):
    panel = pl.build_loss_panel(pl.synth_prices(seed=9, n_days=30, n_assets=3, vol=0.02, jump_prob=0.2))
    config = pl.RollingConfig(window=10, measures=(RiskMeasureSpec.var(0.8), RiskMeasureSpec.es(0.8)))
    records, _, _, paths = pl.run_reports(panel, config, outdir)
    return paths, records


def empty_table():
    return pl.ViolationTable(dates=(), pairs=(), checks=(), gaps=np.empty((0, 0, 0)),
                             violated=np.empty((0, 0, 0), dtype=bool))


def test_table_refuses_arrays_off_its_labels():
    # 2 dates, 1 pair, 1 check: gaps and violated are (1, 1, 2) and bool
    labels = dict(dates=(dt.date(2024, 1, 2), dt.date(2024, 1, 3)), pairs=(("A", "B"),),
                  checks=(("VaR(0.9)", pl.SUBMODULARITY),))
    gaps = np.array([[[0.5, -1.0]]])
    pl.ViolationTable(**labels, gaps=gaps, violated=gaps < 0)
    for g, v in ((np.zeros((1, 1, 3)), np.zeros((1, 1, 2), dtype=bool)),
                 (gaps, np.zeros((1, 2, 1), dtype=bool)),
                 (gaps, np.zeros((1, 1, 2)))):
        with pytest.raises(DataError, match=re.escape(f"gaps {g.shape} and violated {v.shape}")):
            pl.ViolationTable(**labels, gaps=g, violated=v)


def test_export_headers_only_when_empty(tmp_path):
    paths = pl.export_report(empty_table(), [], [], tmp_path)
    assert paths["violations"].read_text() == "date,pair,measure,params,gap,violated\n"
    assert paths["daily_rates"].read_text() == "date,measure,rate,tests\n"
    assert paths["correlations"].read_text() == "series_a,series_b,pearson,spearman,dcor\n"
    back = pl.read_violations_csv(paths["violations"])
    assert back == empty_table() and len(back) == 0 and back.gaps.shape == (0, 0, 0)


@pytest.mark.parametrize("pairs, checks", [((), (("VaR(0.9)", pl.SUBMODULARITY),)),
                                            ((("A", "B"),), ())])
def test_export_table_with_no_rows_writes_only_the_header(tmp_path, pairs, checks):
    # dates, but no pair or no check: no row on any date
    days = (dt.date(2024, 1, 2), dt.date(2024, 1, 3))
    gaps = np.zeros((len(checks), len(pairs), len(days)))
    table = pl.ViolationTable(dates=days, pairs=pairs, checks=checks, gaps=gaps,
                              violated=gaps < 0)
    path = pl.export_report(table, [], [], tmp_path)["violations"]
    assert path.read_bytes() == b"date,pair,measure,params,gap,violated\n"


def test_export_round_trip(tmp_path):
    _, _, table = golden_table()
    back = pl.read_violations_csv(pl.export_report(table, [], [], tmp_path)["violations"])
    assert back == table and back.epsilon is None
    assert np.array_equal(back.gaps.view(np.int64), table.gaps.view(np.int64))


def hyphen_table(tickers) -> pl.ViolationTable:
    pairs = tuple((a, b) for i, a in enumerate(tickers) for b in tickers[i + 1 :])
    gaps = -0.5 * np.arange(1, 2 * len(pairs) + 1).reshape(1, len(pairs), 2)
    return pl.ViolationTable(
        dates=(dt.date(2024, 3, 1), dt.date(2024, 3, 4)), pairs=pairs,
        checks=(("VaR(0.5)", pl.SUBMODULARITY),), gaps=gaps, violated=gaps < -1,
    )


@pytest.mark.parametrize("tickers", [("A", "BRK-B", "C"), ("A-B", "C-D", "E-F"),
                                     ("A", "A-B", "B"), ("-", "X", "Y")])
def test_hyphenated_tickers_read_back(tmp_path, tickers):
    # BRK-B-C splits as ("BRK-B", "C") and as ("BRK", "B-C"); the other
    # pairs name BRK-B and C, so it reads back as written
    table = hyphen_table(tickers)
    paths = pl.export_report(table, [], [], tmp_path)
    if tickers[1] == "BRK-B":
        assert paths["violations"].read_text().splitlines()[3] == (
            "2024-03-01,BRK-B-C,VaR(0.5),submodularity,-2.5,true")
    assert pl.read_violations_csv(paths["violations"]) == table


def test_hyphenated_ticker_pair_is_not_misread(tmp_path):
    # with no other pair, BRK-B-C splits two ways and reading it refuses to guess
    paths = pl.export_report(hyphen_table(("BRK-B", "C")), [], [], tmp_path)
    assert paths["violations"].read_text().splitlines()[1] == (
        "2024-03-01,BRK-B-C,VaR(0.5),submodularity,-0.5,false")
    with pytest.raises(DataError, match="violations.csv:2: pair 'BRK-B-C' splits into two of "
                                        "the file's tickers more than one way"):
        pl.read_violations_csv(paths["violations"])


def test_carriage_return_label_is_quoted_and_reads_back(tmp_path):
    # a bare \r would end the row for a CSV reader, so the label is quoted
    gaps = np.array([[[0.5, -1.0], [0.25, -0.0]]])
    table = pl.ViolationTable(
        dates=(dt.date(2024, 1, 2), dt.date(2024, 1, 3)), pairs=(("A", "B"), ("B", "C\r")),
        checks=(("VaR(0.9)", pl.SUBMODULARITY),), gaps=gaps, violated=gaps < 0,
    )
    path = pl.export_report(table, [], [], tmp_path)["violations"]
    assert path.read_bytes().split(b"\n")[2] == (
        b'2024-01-02,"B-C\r",VaR(0.9),submodularity,0.25,false')
    back = pl.read_violations_csv(path)
    assert back == table
    assert np.array_equal(back.gaps.view(np.int64), table.gaps.view(np.int64))


def csv_writer_rows(rows) -> str:
    """``rows`` written one ``csv.writer`` row each, with "\\n" line ends;
    a field holding "\\r" is quoted, as a field holding "\\n" is."""
    import csv
    import io

    out = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        out.append(buf.getvalue()[:-2] + "\n")
    return "".join(out)


def test_rate_and_correlation_bytes_match_csv_writer(tmp_path):
    # labels holding ',', '"', "\r", "\n" and spaces, and an empty one; rates
    # of any size, -0.0 and a float32 series; series of their own dates
    days = [dt.date(2024, 1, 1) + dt.timedelta(days=k) for k in range(6)]
    rates = [0.0, -0.0, 1.0 / 3.0, 1.0, 1e-300, 12.5]
    labels = ["VaR(0.9)/submodularity", "AES(0.6:0,0.9:0.01)/submodularity", 'odd "q"', "a\rb",
              "c\nd", " spaced ", ""]
    series = [pl.DailyViolationSeries(
        dates=tuple(days[k % 2:]), rate=np.roll(rates, k)[k % 2:].astype(
            np.float32 if k == 3 else np.float64),
        label=label, violations=np.zeros(6 - k % 2, dtype=np.int64),
        tests=np.arange(6 - k % 2, dtype=np.int64) * 7) for k, label in enumerate(labels)]
    c = pl.CorrelationResult(pearson=0.1 + 0.2, spearman=-1.0, dcor=0.0)
    corr_rows = [(a, b, c) for a, b in zip(labels, labels[::-1])]
    paths = pl.export_report(empty_table(), series, corr_rows, tmp_path)
    assert paths["daily_rates"].read_bytes() == csv_writer_rows(
        [["date", "measure", "rate", "tests"]]
        + [[day.isoformat(), s.label, "%.17g" % rate, int(n)]
           for s in series for day, rate, n in zip(s.dates, s.rate, s.tests)]).encode()
    assert paths["correlations"].read_bytes() == csv_writer_rows(
        [["series_a", "series_b", "pearson", "spearman", "dcor"]]
        + [[a, b, "%.17g" % c.pearson, "%.17g" % c.spearman, "%.17g" % c.dcor]
           for a, b, c in corr_rows]).encode()


def test_carriage_return_labels_read_back_from_rates_and_correlations(tmp_path):
    # a bare "\r" would end the row for a CSV reader, so the label is quoted
    import csv

    day = dt.date(2024, 1, 2)
    series = [pl.DailyViolationSeries(dates=(day,), rate=np.array([0.5]), label="a\rb",
                                      violations=np.array([1]), tests=np.array([2]))]
    corr = pl.CorrelationResult(pearson=0.5, spearman=0.25, dcor=0.125)
    paths = pl.export_report(empty_table(), series, [("a\rb", "c", corr)], tmp_path)
    with paths["daily_rates"].open(newline="") as fh:
        assert list(csv.reader(fh)) == [["date", "measure", "rate", "tests"],
                                        ["2024-01-02", "a\rb", "0.5", "2"]]
    with paths["correlations"].open(newline="") as fh:
        assert list(csv.reader(fh)) == [["series_a", "series_b", "pearson", "spearman", "dcor"],
                                        ["a\rb", "c", "0.5", "0.25", "0.125"]]


def test_export_summary_echoes_config(tmp_path):
    import json

    paths, _ = run_small(tmp_path)
    summary = json.loads(paths["summary"].read_text())
    assert summary["window"] == 10
    assert summary["epsilon"] == 1e-8


def test_export_byte_identical(tmp_path):
    paths_a, _ = run_small(tmp_path / "a")
    paths_b, _ = run_small(tmp_path / "b")
    for key in paths_a:
        assert paths_a[key].read_bytes() == paths_b[key].read_bytes()


def test_run_reports_series_and_correlations_in_config_order(tmp_path):
    panel = pl.build_loss_panel(pl.synth_prices(seed=9, n_days=30, n_assets=3, vol=0.02, jump_prob=0.2))
    config = pl.RollingConfig(window=10, measures=(RiskMeasureSpec.es(0.8), RiskMeasureSpec.var(0.8)))
    table, series, rows, paths = pl.run_reports(panel, config, tmp_path)
    assert table == pl.pairwise_day_tests(panel, config)
    assert [s.label for s in series] == [
        "ES(0.8)/submodularity", "VaR(0.8)/submodularity", "VaR(0.8)/subadditivity"]
    for s in series:
        label, test = s.label.split("/")
        assert np.array_equal(s.rate, pl.daily_violation_rate(table, label, test).rate)
    (sub, add, corr), = rows
    assert (sub, add) == ("VaR(0.8)/submodularity", "VaR(0.8)/subadditivity")
    assert corr == pl.correlations(series[1].series(), series[2].series())
    assert set(paths) == {"violations", "daily_rates", "correlations", "summary"}


def test_run_reports_leaves_out_correlations_of_too_few_dates(tmp_path):
    # 12 days give 11 losses and, at window 10, a table of 2 dates: too few
    # for a correlation, so the run writes only the header of correlations.csv
    import json

    from risklattice.cli import main

    prices = pl.synth_prices(seed=4, n_days=12, n_assets=3, vol=0.02, jump_prob=0.1)
    config = pl.RollingConfig(window=10, measures=(RiskMeasureSpec.var(0.9), RiskMeasureSpec.es(0.9)))
    table, series, rows, paths = pl.run_reports(pl.build_loss_panel(prices), config,
                                                tmp_path / "lib", extra_summary={"seed": 4})
    assert len(table.dates) == 2 and len(series) == 3 and rows == []
    assert paths["correlations"].read_text() == "series_a,series_b,pearson,spearman,dcor\n"
    assert json.loads(paths["summary"].read_text())["seed"] == 4

    write_csv(tmp_path / "prices.csv", [f"{d.isoformat()},{t},{float(prices.closes[i, j])!r}"
                                        for i, d in enumerate(prices.dates)
                                        for j, t in enumerate(prices.tickers)])
    (tmp_path / "run.cfg").write_text("window = 10\nlevels = 0.9\n")
    assert main(["pipeline", "--prices", str(tmp_path / "prices.csv"),
                 "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "cli")]) == 0
    for name in ("violations.csv", "daily_rates.csv", "correlations.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


# ---------------------------------------------------------------------------
# config files


def test_config_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment\nwindow = 250\nepsilon = 1e-8\nlevels = 0.9, 0.95\n"
        "aes_levels = 0.9, 0.98\naes_penalties = 0.0, 0.01\ntickers = AAA, BBB\nseed = 7\n"
    )
    cfg = pl.load_config(cfg_file)
    assert cfg["window"] == 250 and cfg["tickers"] == ("AAA", "BBB")
    rolling = pl.config_to_rolling(cfg)
    labels = [m.label for m in rolling.measures]
    assert labels == ["VaR(0.9)", "ES(0.9)", "VaR(0.95)", "ES(0.95)", "AES(0.9:0,0.98:0.01)"]


def test_config_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("windw = 250\n")
    with pytest.raises(DataError, match="unknown key"):
        pl.load_config(cfg_file)


@pytest.mark.parametrize("line", ["window = abc", "levels = 0.9,x", "seed = 1.5", "epsilon = tiny"])
def test_config_bad_value_reports_line(tmp_path, line):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"# run\n{line}\n")
    with pytest.raises(DataError, match=f"run.cfg:2: bad value for '{line.split()[0]}'"):
        pl.load_config(cfg_file)


@pytest.mark.parametrize("epsilon", ["-1", "nan", "inf"])
def test_config_epsilon_must_be_finite_and_nonnegative(tmp_path, epsilon):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"levels = 0.9\nepsilon = {epsilon}\n")
    cfg = pl.load_config(cfg_file)
    with pytest.raises(DomainError, match="epsilon must be finite and nonnegative"):
        pl.config_to_rolling(cfg)
    with pytest.raises(DomainError, match="epsilon must be finite and nonnegative"):
        pl.RollingConfig(window=5, measures=(RiskMeasureSpec.es(0.9),), epsilon=float(epsilon))


@pytest.mark.parametrize("window", [10.0, 10.5, "10", 1, np.int64(1)])
def test_rolling_window_must_be_an_integer_of_at_least_2(window):
    with pytest.raises(DomainError, match="rolling window must be an integer of at least 2"):
        pl.RollingConfig(window=window, measures=(RiskMeasureSpec.var(0.9),))


def test_numpy_integer_window_accepted():
    panel = pl.build_loss_panel(pl.synth_prices(seed=2, n_days=60, n_assets=3, vol=0.01,
                                                jump_prob=0.02))
    measures = (RiskMeasureSpec.var(0.9),)
    table = pl.pairwise_day_tests(panel, pl.RollingConfig(window=np.int64(40), measures=measures))
    assert table == pl.pairwise_day_tests(panel, pl.RollingConfig(window=40, measures=measures))


@pytest.mark.parametrize("row", [
    "2024-01-02,AAABBB,VaR(0.9),submodularity,0.5,false",
    "2024-01-02,AAA-BBB-C,VaR(0.9),submodularity,0.5,false",
    "2024-01-02,AAA-BBB,VaR(0.9),submodularity,abc,false",
    "01/02/2024,AAA-BBB,VaR(0.9),submodularity,0.5,false",
    "2024-01-02,AAA-BBB,VaR(0.9),submodularity,0.5",
    "2024-01-02,AAA-BBB,VaR(0.9),submodularity,0.5,TRUE",
    "2024-01-02,AAA-BBB,VaR(0.9),submodularity,0.5,yes",
    "2024-01-02,AAA-BBB,VaR(0.9),submodularity,0.5,",
    "2024-01-02,AAA-BBB,VaR(0.9),submodularity,nan,false",
])
def test_read_violations_bad_row_reports_line(tmp_path, row):
    p = tmp_path / "violations.csv"
    p.write_text("date,pair,measure,params,gap,violated\n"
                 "2024-01-01,AAA-BBB,VaR(0.9),submodularity,0.5,false\n" + row + "\n")
    with pytest.raises(DataError, match="violations.csv:3: "):
        pl.read_violations_csv(p)


def test_verdict_serializes_into_summary(tmp_path):
    import json

    from risklattice import curvature_profile, linear_dominance_check, poly2exp_loss

    ell = poly2exp_loss()
    verdict = linear_dominance_check(curvature_profile(ell, -20, 20, 0.01), ell)
    paths = pl.export_report(empty_table(), [], [], tmp_path,
                             extra_summary={"dominance": {ell.name: verdict.to_dict()}})
    summary = json.loads(paths["summary"].read_text())
    assert summary["dominance"]["poly2exp"]["feasible"] is True


def test_aes_counterexample_through_pipeline():
    # the constructed ramp/fold pair, embedded as a 2-ticker loss panel with a
    # full-length window, produces a recorded adjusted-ES violation
    from risklattice import RiskMeasureSpec, aes_counterexample, aes_matched_grid

    x, y, predicted = aes_counterexample(1.0, 0.0, 0.5, 0.25, 200)
    panel = make_loss_panel({"RAMP": list(x), "FOLD": list(y)})
    spec = RiskMeasureSpec.aes(aes_matched_grid(1.0, 0.0, 0.5, 0.25))
    config = pl.RollingConfig(window=200, measures=(spec,))
    records = pl.pairwise_day_tests(panel, config)
    assert len(records) == 1
    assert records[0].violated
    assert -records[0].gap == pytest.approx(predicted, abs=5e-3)


def test_daily_rate_sector_scale_arithmetic():
    # 66 violations out of 1,485 pair tests on one day
    gaps = np.where(np.arange(1485) < 66, -1.0, 0.0).reshape(1, 1485, 1)
    table = pl.ViolationTable(
        dates=(dt.date(2024, 5, 6),), pairs=tuple((f"T{i:04d}", f"U{i:04d}") for i in range(1485)),
        checks=(("VaR(0.9)", pl.SUBMODULARITY),), gaps=gaps, violated=gaps < 0,
    )
    series = pl.daily_violation_rate(table, "VaR(0.9)")
    assert series.tests.tolist() == [1485]
    assert series.rate[0] == pytest.approx(66 / 1485, abs=1e-15)
    assert round(100 * series.rate[0], 2) == 4.44


# ---------------------------------------------------------------------------
# golden report bytes


# Tickers listed out of sorted order, VaR/ES/AES (the AES label holds commas,
# so it is quoted in the CSV), and a repeated level whose duplicate labels
# lock the tie order.
GOLDEN_PANEL = dict(seed=17, n_days=36, n_assets=4, vol=0.02, jump_prob=0.15)
GOLDEN_TICKERS = ("A02", "A00", "A03", "A01")


def golden_inputs(tmp_path):
    panel = pl.synth_prices(**GOLDEN_PANEL)
    rows = [f"{d.isoformat()},{t},{float(panel.closes[i, j])!r}"
            for i, d in enumerate(panel.dates) for j, t in enumerate(panel.tickers)]
    write_csv(tmp_path / "prices.csv", rows)
    (tmp_path / "run.cfg").write_text(
        "window = 12\nlevels = 0.9, 0.9\naes_levels = 0.6, 0.9\naes_penalties = 0.0, 0.01\n"
        f"tickers = {', '.join(GOLDEN_TICKERS)}\nseed = 5\n"
    )


# Reports of the record-list pipeline that preceded ViolationTable; the table
# must reproduce them byte for byte.
GOLDEN_SHA256 = {
    "violations.csv":
        "dfcbec6b3f86ba460437cb9fc5a9b7eb6b8717e9294d634df9715ae71853c5a8",
    "daily_rates.csv":
        "adb3b59375256e593896136c09ae8485cb8e4f7abc4294c14da3e92ebee4c5ec",
    "correlations.csv":
        "95924594ee65800513bc3d057862ed6760d9dd8247526a63714d7fcf40efcfd5",
    "summary.json":
        "b1d1231ff926480a51456d5e83260826d526fe7b476fcc84747ed8a4943c159e",
    "stdout":
        "a6413d18c69524dec4331c4a5ba70284c1814768777af805c719f7d523d080b5",
}


def test_pipeline_reports_golden_bytes(tmp_path, monkeypatch, capsys):
    import hashlib

    from risklattice.cli import main

    golden_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["pipeline", "--prices", "prices.csv", "--config", "run.cfg", "--out", "out"]) == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256 if name != "stdout"}
    digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == GOLDEN_SHA256


def golden_table():
    panel = pl.build_loss_panel(pl.synth_prices(**GOLDEN_PANEL), GOLDEN_TICKERS)
    config = pl.config_to_rolling({"window": 12, "levels": (0.9, 0.9),
                                   "aes_levels": (0.6, 0.9), "aes_penalties": (0.0, 0.01)})
    return panel, config, pl.pairwise_day_tests(panel, config)


# ---------------------------------------------------------------------------
# the columnar result


def reference_table(panel, config):
    """Per-pair, per-measure loop: each window evaluated on its own."""
    from numpy.lib.stride_tricks import sliding_window_view

    w = config.window
    tickers = sorted(panel.tickers)
    pairs = [(ta, tb) for a, ta in enumerate(tickers) for tb in tickers[a + 1:]]
    gaps = []  # gaps[pair][check] rows over the dates
    for ta, tb in pairs:
        x, y = panel.column(ta), panel.column(tb)
        X, Y, M, J, S = (sliding_window_view(v, w) for v in
                         (x, y, np.minimum(x, y), np.maximum(x, y), x + y))
        rows = []
        for spec in config.measures:
            tests = [(pl.SUBMODULARITY, spec.evaluate_batch(M) + spec.evaluate_batch(J))]
            if spec.kind == "var":
                tests.append((pl.SUBADDITIVITY, spec.evaluate_batch(S)))
            pair_sum = spec.evaluate_batch(X) + spec.evaluate_batch(Y)
            rows.extend(((spec.label, test), pair_sum - other) for test, other in tests)
        rows.sort(key=lambda row: row[0])  # stable: config order on label ties
        gaps.append([gap for _, gap in rows])
    gaps = np.array(gaps).transpose(1, 0, 2)
    return pl.ViolationTable(dates=panel.dates[w - 1:], pairs=tuple(pairs),
                             checks=tuple(check for check, _ in rows), gaps=gaps,
                             violated=gaps < -config.epsilon, epsilon=config.epsilon)


def test_table_reads_as_sorted_records():
    panel, config, table = golden_table()
    records = list(table)
    assert records == sorted(records, key=lambda r: (r.date, r.pair, r.measure, r.test))
    assert table == reference_table(panel, config)
    assert table.pairs == tuple(sorted(table.pairs))
    assert len(table) == len(records) == table.gaps.size == 24 * 6 * 7
    assert table[0] == records[0] and table[-1] == records[-1] and table[5] == records[5]
    assert table[2:4] == records[2:4]
    with pytest.raises(IndexError):
        table[len(records)]
    assert table == pl.pairwise_day_tests(panel, config)
    changed = table.gaps.copy()
    changed[-1, -1, -1] += 1.0
    assert table != dataclasses.replace(table, gaps=changed)
    assert table != records and records != table  # a table is not equal to a list


def test_table_iteration_matches_indexing():
    # iteration goes through indexing, and each record holds Python scalars
    _, _, table = golden_table()
    records = list(table)
    assert records == [table[i] for i in range(len(table))]
    assert all(type(r.gap) is float and type(r.violated) is bool for r in records)


def test_table_counts_match_record_counts():
    _, config, table = golden_table()
    records = list(table)
    for spec in config.measures:
        for test in (pl.SUBMODULARITY, pl.SUBADDITIVITY):
            chosen = [r for r in records if r.measure == spec.label and r.test == test]
            if not chosen:
                with pytest.raises(DomainError):
                    pl.daily_violation_rate(table, spec.label, test)
                continue
            series = pl.daily_violation_rate(table, spec.label, test)
            assert series.dates == tuple(sorted({r.date for r in chosen}))
            for day, n, v in zip(series.dates, series.tests, series.violations):
                on_day = [r for r in chosen if r.date == day]
                assert n == len(on_day)  # a label configured twice counts twice
                assert v == sum(r.violated for r in on_day)
    assert int(table.violated.sum()) == sum(r.violated for r in records) > 0


def test_read_back_off_grid_rows_report_line(tmp_path):
    # a full grid reads back; a cell missing, added or repeated raises with
    # the line that leaves the grid fixed by the first date's rows
    day1, day2 = dt.date(2024, 1, 2), dt.date(2024, 1, 3)
    gaps = np.array([[[0.5, -1.0]] * 2] * 2)  # day2's gaps are negative
    table = pl.ViolationTable(
        dates=(day1, day2), pairs=(("A", "B"), ("B", "C")),
        checks=(("ES(0.9)", pl.SUBMODULARITY), ("VaR(0.9)", pl.SUBMODULARITY)),
        gaps=gaps, violated=gaps < 0,
    )
    path = pl.export_report(table, [], [], tmp_path)["violations"]
    back = pl.read_violations_csv(path)
    assert back == table and len(back) == 8
    series = pl.daily_violation_rate(back, "VaR(0.9)")
    assert series.dates == (day1, day2)
    assert series.tests.tolist() == [2, 2] and series.violations.tolist() == [0, 2]
    lines = path.read_text().splitlines(True)
    extra = "2024-01-02,A-C,VaR(0.9),submodularity,0,false\n"
    for edited, line in [
        (lines[:2] + lines[3:], 4),  # day1's (A-B, VaR) missing
        (lines[:5] + lines[6:], 6),  # day2's (A-B, ES) missing
        (lines[:-1], 9),  # day2's (B-C, VaR) missing: the file ends early
        (lines[:5] + [extra] + lines[5:], 6),  # day1 gains (A-C, VaR) but no (A-C, ES)
        (lines + [extra.replace("01-02", "01-03")], 10),  # day2 gains (A-C, VaR) after its rows
        (lines + [lines[-1]], 10),  # a repeated cell
        (lines + lines[5:], 10),  # every cell of day2 repeated
        (lines[:5] + lines[1:3], 4),  # pair A-B again on day1: its checks are now 4
        # (A-B, ES) twice reads as ES configured twice, which B-C's rows break
        (lines[:2] + [lines[1]] + lines[2:], 6),
    ]:
        path.write_text("".join(edited))
        with pytest.raises(DataError, match=f"violations.csv:{line}: "):
            pl.read_violations_csv(path)
    gaps = table.gaps.copy()
    gaps[1, 1, 0] = np.nan
    with pytest.raises(DataError, match=r"2024, 1, 2\), pair=\('B', 'C'\), measure='VaR.*NaN"):
        dataclasses.replace(table, gaps=gaps)


def test_read_back_check_configured_twice(tmp_path):
    # a check that repeats within a (date, pair) cell is one column per
    # repeat, as the pipeline gives a label configured twice
    gaps = np.array([[[0.5, 0.5]], [[-0.25, -0.25]]])
    table = pl.ViolationTable(
        dates=(dt.date(2024, 1, 2), dt.date(2024, 1, 3)), pairs=(("A", "B"),),
        checks=(("VaR(0.9)", pl.SUBMODULARITY),) * 2, gaps=gaps, violated=gaps < 0,
    )
    path = pl.export_report(table, [], [], tmp_path)["violations"]
    back = pl.read_violations_csv(path)
    assert back == table
    assert back.violated[:, 0].tolist() == [[False, False], [True, True]]
    assert pl.daily_violation_rate(back, "VaR(0.9)").tests.tolist() == [2, 2]
    path.write_text("".join(path.read_text().splitlines(True)[:-1]))
    with pytest.raises(DataError, match="violations.csv:5: .*off the"):
        pl.read_violations_csv(path)


def flat_stretch_panel():
    # every price flat for 45 days (losses of -0.0 filling whole windows) and
    # one ticker flat for 6 more
    panel = pl.synth_prices(seed=11, n_days=120, n_assets=5, vol=0.02, jump_prob=0.1)
    closes = panel.closes.copy()
    closes[30:76] = closes[30]
    closes[90:97, 1] = closes[90, 1]
    return pl.build_loss_panel(dataclasses.replace(panel, closes=closes))


@pytest.mark.parametrize("measures", [
    (RiskMeasureSpec.var(0.8), RiskMeasureSpec.es(0.9),
     RiskMeasureSpec.aes(AdjustmentGrid((0.6, 0.9), (0.0, 0.01))), RiskMeasureSpec.var(0.99)),
    (RiskMeasureSpec.es(0.9), RiskMeasureSpec.aes(AdjustmentGrid((0.6, 0.9), (0.0, 0.01))),
     RiskMeasureSpec.distortion(power_distortion(0.5))),
], ids=["with-var", "without-var"])
@pytest.mark.parametrize("pairs_per_chunk", [1, 2, 3])
def test_pairwise_gaps_bit_equal_to_per_pair_loop(measures, pairs_per_chunk, monkeypatch):
    # Ticker values in chunks of 2 * pairs_per_chunk lanes (the 5 tickers
    # leave a remainder at 1 and 2 pairs per chunk), meet/join batches over
    # chunks of the 10 pairs and banded kernels (window 40 puts VaR's and
    # ES's band at column 32) give every gap bit for bit as evaluating each
    # pair's windows on their own, signed zeros included.
    monkeypatch.setattr(pl, "_PAIR_CHUNK_CELLS", pairs_per_chunk * 2 * 80 * 40)
    panel = flat_stretch_panel()
    assert np.any((panel.losses == 0.0) & np.signbit(panel.losses))
    config = pl.RollingConfig(window=40, measures=measures)
    table = pl.pairwise_day_tests(panel, config)
    assert table.gaps.shape[1:] == (10, 80)
    reference = reference_table(panel, config)
    assert (table.dates, table.pairs, table.checks) == (
        reference.dates, reference.pairs, reference.checks)
    assert np.array_equal(table.gaps.view(np.int64), reference.gaps.view(np.int64))
    assert np.array_equal(table.violated, reference.violated)
    has_var = any(spec.kind == "var" for spec in measures)
    assert any(test == pl.SUBADDITIVITY for _, test in table.checks) == has_var


def long_flat_panel():
    # 4 tickers x 400 days: every price flat for 280 days (losses of -0.0
    # filling most of a 300-day window) and one ticker flat for 20 more
    panel = pl.synth_prices(seed=5, n_days=400, n_assets=4, vol=0.02, jump_prob=0.1)
    closes = panel.closes.copy()
    closes[60:341] = closes[60]
    closes[340:361, 1] = closes[340, 1]
    return pl.build_loss_panel(dataclasses.replace(panel, closes=closes))


AES_HIGH = RiskMeasureSpec.aes(AdjustmentGrid((0.8, 0.95), (0.0, 0.01)))


@pytest.mark.parametrize("measures, blocks", [
    ((RiskMeasureSpec.var(0.95), RiskMeasureSpec.var(0.99)), [True, True]),
    ((RiskMeasureSpec.es(0.9), AES_HIGH), [True]),
    ((RiskMeasureSpec.var(0.95), RiskMeasureSpec.es(0.9), AES_HIGH,
      RiskMeasureSpec.distortion(power_distortion(0.5))), [False, True]),
], ids=["var", "es-aes", "with-whole-rows"])
@pytest.mark.parametrize("pairs_per_chunk", [0, 4])
def test_long_window_gaps_bit_equal_to_per_pair_loop(measures, blocks, pairs_per_chunk,
                                                     monkeypatch):
    # At window 300 the banded lanes share one sorted core per block of
    # windows (100 dates: three blocks of 32 and one of 4); dist:pow:0.5
    # reads whole rows, so it puts the meet and join lanes back on the plain
    # sort while the summed-loss lane keeps VaR's band.  `blocks` says which
    # of the meet/join and summed-loss lanes take blocks.  One pair per
    # chunk, and 4 of the 6 pairs in one chunk.
    monkeypatch.setattr(pl, "_PAIR_CHUNK_CELLS", max(1, pairs_per_chunk * 2 * 100 * 300))
    panel = long_flat_panel()
    assert np.any((panel.losses == 0.0) & np.signbit(panel.losses))
    config = pl.RollingConfig(window=300, measures=measures)
    kernels = [spec.kernel(300) for spec in measures]
    var_kernels = [k for k, spec in zip(kernels, measures) if spec.kind == "var"]
    assert [pl._block_windows(300, pl._band(ks, 300)) > 1
            for ks in (kernels, var_kernels) if ks] == blocks
    table = pl.pairwise_day_tests(panel, config)
    assert table.gaps.shape[1:] == (6, 100)
    reference = reference_table(panel, config)
    assert (table.dates, table.pairs, table.checks) == (
        reference.dates, reference.pairs, reference.checks)
    assert np.array_equal(table.gaps.view(np.int64), reference.gaps.view(np.int64))
    assert np.array_equal(table.violated, reference.violated)


SORT_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                        st.floats(-4, 4, allow_nan=False))


def window_lanes(m, w, d, pool, seed):
    """``m`` lanes for ``d`` windows of width ``w``, drawn from ``pool``, so
    that a small pool gives many ties."""
    rng = np.random.default_rng(seed)
    return np.array(pool)[rng.integers(0, len(pool), (m, d + w - 1))]


def sorted_band(lanes, w, band):
    from numpy.lib.stride_tricks import sliding_window_view

    return np.sort(sliding_window_view(lanes, w, axis=1), axis=2).reshape(-1, w)[:, w - band:]


@settings(max_examples=150, deadline=None)
@given(w=st.sampled_from([2, 7, 40, 66, 100, 130]), band=st.integers(1, 130),
       d=st.integers(1, 80), m=st.integers(1, 3),
       pool=st.lists(SORT_VALUES, min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
@example(w=100, band=1, d=5, m=2, pool=[0.0, -0.0, 1.0], seed=0)  # fewer windows than a block
@example(w=100, band=1, d=70, m=1, pool=[-0.0, 0.0], seed=1)  # 70 = 2 blocks of 32 and 6
@example(w=130, band=33, d=64, m=3, pool=[0.0, -0.0, -1.0, 2.0], seed=2)  # blocks only
@example(w=66, band=66, d=40, m=2, pool=[0.0, -0.0, 0.5], seed=3)  # the whole row
def test_sorted_windows_fill_the_band_of_a_full_sort(w, band, d, m, pool, seed):
    # The last `band` columns of each row equal those of the fully sorted
    # window, on the block path and the plain one; no row past the lanes'
    # windows is written.
    band = min(band, w)
    lanes = window_lanes(m, w, d, pool, seed)
    out = np.full((m * d + 1, w), np.nan)
    pl._sorted_windows(lanes, w, band, out)
    assert np.array_equal(out[:-1, w - band:], sorted_band(lanes, w, band))
    assert np.isnan(out[-1]).all()


@settings(max_examples=100, deadline=None)
@given(w=st.sampled_from([40, 100, 200, 300]), d=st.integers(1, 80),
       text=st.sampled_from(["var:0.95", "var:0.99", "es:0.9", "es:0.975", "aes:0.8:0,0.95:0.01"]),
       pool=st.lists(SORT_VALUES, min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
@example(w=100, d=70, text="var:0.95", pool=[0.0, -0.0], seed=0)
@example(w=300, d=33, text="es:0.975", pool=[0.0, -0.0, 1.0], seed=1)
@example(w=300, d=20, text="aes:0.8:0,0.95:0.01", pool=[-0.0, 0.0, -1.0], seed=2)
def test_sorted_windows_give_kernels_the_bits_of_a_full_sort(w, d, text, pool, seed):
    # A banded kernel on rows sorted only in its band gives bit for bit its
    # value on the fully sorted rows, signed zeros included.
    from numpy.lib.stride_tricks import sliding_window_view

    kernel = parse_measure_spec(text).kernel(w)
    lanes = window_lanes(2, w, d, pool, seed)
    out = np.empty((2 * d, w))
    pl._sorted_windows(lanes, w, pl._band([kernel], w), out)
    full = np.sort(sliding_window_view(lanes, w, axis=1), axis=2).reshape(-1, w)
    assert np.array_equal(kernel(out).view(np.int64), kernel(full).view(np.int64))


@pytest.mark.parametrize("w", [40, 300])
@pytest.mark.parametrize("text", ["var:0.95", "es:0.95", "aes:0.6:0,0.9:0.01", "dist:pow:0.5",
                                  "mmd:square:es:0.5"])
def test_rolling_eval_bit_equal_to_evaluate_batch(w, text):
    from numpy.lib.stride_tricks import sliding_window_view

    panel = long_flat_panel()
    spec = parse_measure_spec(text)
    config = pl.RollingConfig(window=w, measures=(spec,))
    for ticker in panel.tickers:
        series = pl.rolling_eval(panel, ticker, config, spec)
        expected = spec.evaluate_batch(sliding_window_view(panel.column(ticker), w))
        assert series.dates == panel.dates[w - 1:]
        assert np.array_equal(series.values.view(np.int64), expected.view(np.int64))


def test_pair_stage_memory_stays_at_its_work_array():
    # On the pipeline-deep benchmark panel (seed 3: 8 tickers x 1000 days,
    # window 500) the pair stage's traced peak is its 4 MB work array (two
    # windows per pair and date) and its results, 5.48 MB.  A third window
    # per pair and date reads 7.39 MB, and candidates written out of place
    # reached 9.25 MB.
    import tracemalloc

    panel = pl.build_loss_panel(pl.synth_prices(3, 1000, 8, 0.01, 0.02))
    config = pl.config_to_rolling({"window": 500, "levels": (0.95, 0.99),
                                   "aes_levels": (0.6, 0.9), "aes_penalties": (0.0, 0.01)})
    tracemalloc.start()
    try:
        pl.pairwise_day_tests(panel, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def plain_violations_csv(table) -> bytes:
    """``violations.csv`` written one ``csv.writer`` row per record."""
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["date", "pair", "measure", "params", "gap", "violated"])
    for r in table:
        w.writerow([r.date.isoformat(), "-".join(r.pair), r.measure, r.test, "%.17g" % r.gap,
                    "true" if r.violated else "false"])
    return buf.getvalue().encode()


@pytest.mark.parametrize("block_cells", [1, 36, 45, 1 << 14, pl._EXPORT_BLOCK_CELLS])
def test_export_bytes_match_plain_writer(tmp_path, monkeypatch, block_cells):
    # a full grid whose gaps repeat, with -0.0 and 0.0 apart, +-inf, values
    # in and out of _format17g's integer range (a tie, both sides of the
    # switch to an exponent), a check configured twice, tickers and labels
    # holding '%', ',' and '"' (quoted, '"' doubled), a non-ASCII letter
    # (UTF-8) and "\n" and "\r" (quoted), and flags that disagree with the
    # gap's sign, one gap carrying both flags on one date; one cell keeps
    # its gap and flag on every date, so its run crosses each border of
    # blocks of 1, 2 and 3 dates; written in blocks of 1, 2 and 3 dates, and
    # all of them
    monkeypatch.setattr(pl, "_EXPORT_BLOCK_CELLS", block_cells)
    formatted = []  # the number of cells each _format17g call formats
    format17g = pl._format17g

    def counted(values, violated):
        formatted.append(values.size)
        return format17g(values, violated)

    monkeypatch.setattr(pl, "_format17g", counted)
    days = [dt.date(2024, 1, 1) + dt.timedelta(days=k) for k in range(7)]
    pairs = [("10%", 'Q"1'), ("10%", "a,b"), ('Q"1', "a,b"), ("10%", "Zürich"),
             ('Q"1', "two\nlines\r")]
    checks = [("VaR(0.9)", pl.SUBMODULARITY), ("VaR(0.9)", pl.SUBADDITIVITY),
              ("AES(0.6:0,0.9:0.01)", pl.SUBMODULARITY), ('odd 50% "label"', pl.SUBMODULARITY),
              ('odd 50% "label"', pl.SUBMODULARITY)]
    values = [-0.0, 0.0, 1.0 / 3.0, -1e-300, 5e-324, 0.1 + 0.2, -2.5, math.inf, -math.inf,
              1e-8, -9.9999999999999995e-05, 1e-4, 1.0 + 2.0**-17, 9.999999999999998, 12.5,
              -7e-6, 0.00123]
    gaps = np.empty((len(checks), len(pairs), len(days)))
    violated = np.empty(gaps.shape, dtype=bool)
    for k, p, d in np.ndindex(gaps.shape):
        gaps[k, p, d] = values[(d // 2 + p + 4 * k) % len(values)]
        violated[k, p, d] = (gaps[k, p, d] < 0) != ((d + p) % 3 == 0)
    gaps[2, 1], violated[2, 1] = 0.1, False
    table = pl.ViolationTable(dates=tuple(days), pairs=tuple(pairs), checks=tuple(checks),
                              gaps=gaps, violated=violated)
    assert table.gaps.shape == (5, 5, 7) and table.checks.count(checks[-1]) == 2
    assert {"%.17g" % v for v in values} <= {"%.17g" % r.gap for r in table}
    flags = {}
    for r in table:
        flags.setdefault((r.date, "%.17g" % r.gap), set()).add(r.violated)
    assert any(len(f) == 2 for f in flags.values())
    assert any(r.violated and r.gap > 0 for r in table)
    assert any(not r.violated and r.gap < 0 for r in table)
    path = pl.export_report(table, [], [], tmp_path)["violations"]
    assert path.read_bytes() == plain_violations_csv(table)
    back = pl.read_violations_csv(path)
    assert back == table
    assert np.array_equal(back.gaps.view(np.int64), table.gaps.view(np.int64))
    # one _format17g call per block of dates formats the block's cells whose
    # gap bits or flag differ from their row's on the previous date, in the
    # block or the one before it, and every cell of the first date
    step = max(1, block_cells // 25)
    bits = table.gaps.view(np.int64)
    changed = np.ones(gaps.shape, dtype=bool)
    changed[..., 1:] = (bits[..., 1:] != bits[..., :-1]) | (violated[..., 1:] != violated[..., :-1])
    assert formatted == [np.count_nonzero(changed[..., start : start + step])
                         for start in range(0, len(days), step)]
    assert np.count_nonzero(changed) < table.gaps.size


def percent_texts(values, flags) -> list[bytes]:
    return [("%.17g,%s\n" % (v, "true" if f else "false")).encode()
            for v, f in zip(values.tolist(), flags.tolist())]


def assert_format17g(values):
    values = np.asarray(values, dtype=np.float64)
    flags = np.arange(values.size) % 3 == 0
    assert pl._format17g(values, flags) == percent_texts(values, flags)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.one_of(st.integers(0, 2047), st.integers(990, 1027)),
                          st.integers(0, 2**52 - 1), st.booleans()), min_size=1, max_size=40))
def test_format17g_matches_percent_on_any_bits(cells):
    # sign, biased exponent and mantissa fields: every exponent class
    # (zeros, subnormals, normals, and infinities for exponent 2047), and
    # 990..1027 again, around the integer range 1e-8 <= |v| < 10
    bits = [(sign << 63) | (exponent << 52) | (mantissa if exponent < 2047 else 0)
            for sign, exponent, mantissa, _ in cells]
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    flags = np.array([flag for *_, flag in cells])
    assert pl._format17g(values, flags) == percent_texts(values, flags)


def test_format17g_at_powers_of_ten_and_range_edges():
    tens = np.array([float(f"1e{k}") for k in range(-12, 17)])
    edges = np.array([1e-8, 10.0])  # the integer range, and the neighbour of each end
    values = np.concatenate([tens, edges, np.nextafter(np.concatenate([tens, edges]), 0.0),
                             np.nextafter(tens, np.inf), [0.0]])
    assert_format17g(np.concatenate([values, -values]))
    # the last double below 1e-4 needs an exponent, 1e-4 does not
    assert pl._format17g(np.array([9.9999999999999995e-05, 1e-4]), np.array([False, True])) == [
        b"9.9999999999999991e-05,false\n", b"0.0001,true\n"]


def test_format17g_rounds_ties_to_even():
    # n * 2**(X - 17) for odd n, in [10**X, 10**(X + 1)), has 18 significant
    # digits, the last a 5: the 17th digit rounds to even
    assert pl._format17g(np.array([1 + 2.0**-17, 1 + 3 * 2.0**-17]), np.array([False, False])) == [
        b"1.0000076293945312,false\n", b"1.0000228881835938,false\n"]
    ties = []
    for x in range(-8, 1):
        lo, hi = -(-(2 ** (17 - x)) // 10**-x), 10 * 2 ** (17 - x) // 10**-x
        ties += [math.ldexp(n, x - 17) for n in range(lo | 1, hi, 2 * max(1, (hi - lo) // 200))]
    for t in ties:
        digits = ("%.30e" % t).partition("e")[0].replace(".", "")  # exact
        assert digits[17] == "5" and digits[18:] == "0" * 13, t
    assert_format17g(ties)
