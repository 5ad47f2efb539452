import dataclasses
import datetime as dt
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import risklattice.pipeline as pl
from risklattice import AdjustmentGrid, DataError, DomainError, RiskMeasureSpec, power_distortion


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


@pytest.mark.parametrize("load", [pl.load_prices_csv, pl.load_config])
def test_load_non_utf8_file_names_it(tmp_path, load):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"date,ticker,adj_close\n2024-01-02,\xff,1.0\n")
    with pytest.raises(DataError, match="bad.txt: not UTF-8"):
        load(p)


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
    records = pl.pairwise_day_tests(panel, config, debug=True)
    subadd = [r for r in records if r.test == pl.SUBADDITIVITY]
    assert len(subadd) == 1
    assert subadd[0].gap == -1.0 and subadd[0].violated
    assert subadd[0].pair == ("AAA", "BBB")


def test_es_records_never_violate():
    panel = pl.build_loss_panel(pl.synth_prices(seed=5, n_days=50, n_assets=4, vol=0.03, jump_prob=0.15))
    config = pl.RollingConfig(window=15, measures=(RiskMeasureSpec.es(0.9), RiskMeasureSpec.var(0.9)))
    records = pl.pairwise_day_tests(panel, config, debug=True)
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
    table = pl.pairwise_day_tests(panel, config, debug=True)
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


def test_pairwise_thread_invariance():
    panel = pl.build_loss_panel(pl.synth_prices(seed=6, n_days=40, n_assets=3, vol=0.02, jump_prob=0.1))
    config = pl.RollingConfig(window=12, measures=(RiskMeasureSpec.var(0.8),))
    serial = pl.pairwise_day_tests(panel, config)
    threaded = pl.pairwise_day_tests(panel, config, threads=4)
    assert serial == threaded


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
    records = pl.pairwise_day_tests(panel, config)
    series = [pl.daily_violation_rate(records, "VaR(0.8)"),
              pl.daily_violation_rate(records, "VaR(0.8)", test=pl.SUBADDITIVITY)]
    rows = [(series[0].label, series[1].label,
             pl.correlations(series[0].series(), series[1].series()))]
    return pl.export_report(records, series, rows, outdir, config=config), records


def test_export_headers_only_when_empty(tmp_path):
    paths = pl.export_report([], [], [], tmp_path)
    assert paths["violations"].read_text() == "date,pair,measure,params,gap,violated\n"
    assert paths["daily_rates"].read_text() == "date,measure,rate,tests\n"
    assert paths["correlations"].read_text() == "series_a,series_b,pearson,spearman,dcor\n"


def test_export_round_trip(tmp_path):
    record = pl.ViolationRecord(
        date=dt.date(2024, 3, 1), pair=("AAA", "BBB"), measure="VaR(0.5)",
        test=pl.SUBMODULARITY, gap=-0.12345678901234567, violated=True,
    )
    paths = pl.export_report([record], [], [], tmp_path)
    assert pl.read_violations_csv(paths["violations"]) == [record]


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


@pytest.mark.parametrize("row", [
    "2024-01-02,AAABBB,VaR(0.9),submodularity,0.5,false",
    "2024-01-02,AAA-BBB,VaR(0.9),submodularity,abc,false",
    "01/02/2024,AAA-BBB,VaR(0.9),submodularity,0.5,false",
    "2024-01-02,AAA-BBB,VaR(0.9),submodularity,0.5",
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
    paths = pl.export_report([], [], [], tmp_path,
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
    records = pl.pairwise_day_tests(panel, config, debug=True)
    assert len(records) == 1
    assert records[0].violated
    assert -records[0].gap == pytest.approx(predicted, abs=5e-3)


def test_daily_rate_sector_scale_arithmetic():
    # 66 violations out of 1,485 pair tests on one day
    day = dt.date(2024, 5, 6)
    records = [
        pl.ViolationRecord(date=day, pair=(f"T{i:04d}", f"U{i:04d}"), measure="VaR(0.9)",
                           test=pl.SUBMODULARITY, gap=-1.0 if i < 66 else 0.0,
                           violated=i < 66)
        for i in range(1485)
    ]
    series = pl.daily_violation_rate(records, "VaR(0.9)")
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
    return panel, config, pl.pairwise_day_tests(panel, config, debug=True)


def test_export_record_list_matches_table_bytes(tmp_path):
    _, config, table = golden_table()
    series = [pl.daily_violation_rate(table, "VaR(0.9)")]
    a = pl.export_report(table, series, [], tmp_path / "a", config=config)
    b = pl.export_report(list(table), series, [], tmp_path / "b", config=config)
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes(), key


# ---------------------------------------------------------------------------
# the columnar result


def reference_records(panel, config):
    """Per-pair, per-measure record loop: each window evaluated on its own."""
    from numpy.lib.stride_tricks import sliding_window_view

    w = config.window
    out = []
    tickers = sorted(panel.tickers)
    for a, ta in enumerate(tickers):
        for tb in tickers[a + 1:]:
            x, y = panel.column(ta), panel.column(tb)
            X, Y, M, J, S = (sliding_window_view(v, w) for v in
                             (x, y, np.minimum(x, y), np.maximum(x, y), x + y))
            for spec in config.measures:
                tests = [(pl.SUBMODULARITY, spec.evaluate_batch(M) + spec.evaluate_batch(J))]
                if spec.kind == "var":
                    tests.append((pl.SUBADDITIVITY, spec.evaluate_batch(S)))
                pair_sum = spec.evaluate_batch(X) + spec.evaluate_batch(Y)
                for test, other in tests:
                    out.extend(
                        pl.ViolationRecord(date=day, pair=(ta, tb), measure=spec.label,
                                           test=test, gap=float(g),
                                           violated=bool(g < -config.epsilon))
                        for day, g in zip(panel.dates[w - 1:], pair_sum - other)
                    )
    return sorted(out, key=lambda r: (r.date, r.pair, r.measure, r.test))


def test_table_reads_as_sorted_records():
    panel, config, table = golden_table()
    records = list(table)
    assert records == sorted(records, key=lambda r: (r.date, r.pair, r.measure, r.test))
    assert records == reference_records(panel, config)
    assert table.pairs == tuple(sorted(table.pairs))
    assert len(table) == len(records) == table.gaps.size == 24 * 6 * 7
    assert table[0] == records[0] and table[-1] == records[-1] and table[5] == records[5]
    assert table[2:4] == records[2:4]
    with pytest.raises(IndexError):
        table[len(records)]
    assert table == records and records == table
    assert table == pl.pairwise_day_tests(panel, config)
    changed = records[:-1] + [dataclasses.replace(records[-1], gap=records[-1].gap + 1.0)]
    assert table != changed
    assert table != records[:-1]


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


def test_table_from_sparse_records():
    day1, day2 = dt.date(2024, 1, 2), dt.date(2024, 1, 3)

    def rec(day, pair, gap, measure="VaR(0.9)", test=pl.SUBMODULARITY):
        return pl.ViolationRecord(date=day, pair=pair, measure=measure, test=test,
                                  gap=gap, violated=gap < 0)

    records = [
        rec(day2, ("B", "C"), -1.0),
        rec(day1, ("A", "B"), 0.5),
        rec(day1, ("A", "B"), 0.25),  # a repeated key keeps its list order
        rec(day2, ("A", "B"), 2.0, measure="ES(0.9)"),
    ]
    table = pl.ViolationTable.from_records(records)
    assert table.checks == (("ES(0.9)", pl.SUBMODULARITY),) + (("VaR(0.9)", pl.SUBMODULARITY),) * 2
    assert table.gaps.shape == (3, 2, 2)
    assert len(table) == 4
    assert list(table) == sorted(records, key=lambda r: (r.date, r.pair, r.measure, r.test))
    series = pl.daily_violation_rate(records, "VaR(0.9)")
    assert series.dates == (day1, day2)
    assert series.tests.tolist() == [2, 1] and series.violations.tolist() == [0, 1]
    assert pl.daily_violation_rate(records, "ES(0.9)").dates == (day2,)
    with pytest.raises(DataError, match="NaN"):
        pl.ViolationTable.from_records([rec(day1, ("A", "B"), float("nan"))])


def flat_stretch_panel():
    # every price flat for 45 days (losses of -0.0 filling whole windows) and
    # one ticker flat for 6 more
    panel = pl.synth_prices(seed=11, n_days=120, n_assets=3, vol=0.02, jump_prob=0.1)
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
    # Per-ticker values, meet/join batches over chunks of pairs and banded
    # kernels (window 40 puts VaR's and ES's band at column 32) give every gap
    # bit for bit as evaluating each pair's windows on their own, signed
    # zeros included.
    monkeypatch.setattr(pl, "_PAIR_CHUNK_CELLS", pairs_per_chunk * 3 * 80 * 40)
    panel = flat_stretch_panel()
    assert np.any((panel.losses == 0.0) & np.signbit(panel.losses))
    config = pl.RollingConfig(window=40, measures=measures)
    table = pl.pairwise_day_tests(panel, config, debug=True)
    assert table.gaps.shape[1:] == (3, 80)
    reference = pl.ViolationTable.from_records(reference_records(panel, config))
    assert (table.dates, table.pairs, table.checks) == (
        reference.dates, reference.pairs, reference.checks)
    assert np.array_equal(table.gaps.view(np.int64), reference.gaps.view(np.int64))
    assert np.array_equal(table.violated, reference.violated)
    has_var = any(spec.kind == "var" for spec in measures)
    assert any(test == pl.SUBADDITIVITY for _, test in table.checks) == has_var


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


@pytest.mark.parametrize("block_cells", [1, 36, 1 << 14])
def test_export_bytes_match_plain_writer(tmp_path, monkeypatch, block_cells):
    # a sparse table (NaN cells) whose gaps repeat, with -0.0 and 0.0 apart,
    # written in blocks of 1 date, 3 dates, and all of them
    monkeypatch.setattr(pl, "_EXPORT_BLOCK_CELLS", block_cells)
    days = [dt.date(2024, 1, 1) + dt.timedelta(days=k) for k in range(7)]
    pairs = [("A", "B"), ("A", "C"), ("B", "C")]
    checks = [("VaR(0.9)", pl.SUBMODULARITY), ("VaR(0.9)", pl.SUBADDITIVITY),
              ("AES(0.6:0,0.9:0.01)", pl.SUBMODULARITY), ("odd 50% label", pl.SUBMODULARITY)]
    values = [-0.0, 0.0, 1.0 / 3.0, -1e-300, 5e-324, 0.1 + 0.2, -2.5]
    records = []
    for d, day in enumerate(days):
        for p, pair in enumerate(pairs):
            for k, (measure, test) in enumerate(checks):
                if d > 0 and (d + p + k) % 4 == 0:
                    continue  # no test in this cell: NaN in the table
                gap = values[(d // 2 + p + k) % len(values)]
                records.append(pl.ViolationRecord(date=day, pair=pair, measure=measure,
                                                  test=test, gap=gap, violated=gap < 0))
    table = pl.ViolationTable.from_records(records)
    assert np.isnan(table.gaps).any() and not np.isnan(table.gaps[:, :, 0]).any()
    assert {"-0", "0"} <= {"%.17g" % r.gap for r in table}
    path = pl.export_report(table, [], [], tmp_path)["violations"]
    assert path.read_bytes() == plain_violations_csv(table)
