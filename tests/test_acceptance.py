"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one ``[criterion N] PASS/FAIL`` line (visible with ``-s`` or
``-rA``).  Criterion 4b is marked as an expected failure: its generator
cannot produce a witness, provably -- see the note on that test -- and the
mathematically sound variant of the same claim is asserted right after it as
4b-witness.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import risklattice.pipeline as pl
from risklattice import (
    LossFunction,
    RiskMeasureSpec,
    aes_counterexample,
    aes_matched_grid,
    arctan_bend_loss,
    ce_counterexample,
    curvature_profile,
    cvar_loss,
    es_distortion,
    es_historical,
    expectile_loss,
    exponential_loss,
    linear_dominance_check,
    linear_loss,
    mmd_pair_from_triple,
    poly2exp_loss,
    quadlin_loss,
    random_pair_sweep,
    shortfall_jump_deficit,
    square_weight,
    submodularity_gap,
)

EPS = 1e-8


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def test_criterion_1_es_never_violates():
    t0 = time.time()
    total = 0
    for p in (0.9, 0.95, 0.99):
        for n_atoms in (10, 50):
            rep = random_pair_sweep(RiskMeasureSpec.es(p), n_atoms, 10_000, seed=7, epsilon=EPS)
            total += rep.violations
    elapsed = time.time() - t0
    ok = total == 0 and elapsed < 30.0
    assert report("1", ok, f"ES sweeps 3 levels x 2 sizes x 10k trials: "
                           f"{total} violations, {elapsed:.1f}s (< 30s)")


def test_criterion_2_oce_never_violates():
    t0 = time.time()
    total = 0
    for ell in (exponential_loss(1.0), cvar_loss(0.75), quadlin_loss()):
        rep = random_pair_sweep(RiskMeasureSpec.oce(ell), 10, 5_000, seed=11, epsilon=EPS)
        total += rep.violations
    elapsed = time.time() - t0
    ok = total == 0 and elapsed < 60.0
    assert report("2", ok, f"OCE sweeps over exp:1, cvar:0.75, quadlin: "
                           f"{total} violations, {elapsed:.1f}s (< 60s)")


def test_criterion_3_expected_loss_exact_modularity():
    rng = np.random.default_rng(123)
    square = LossFunction(fn=np.square, strictly_increasing=False, increasing=False,
                          convex=True, normalized=True, name="square")
    raw_exp = LossFunction(fn=np.exp, strictly_increasing=True, convex=True,
                           normalized=False, name="rawexp")
    worst = 0.0
    for ell in (linear_loss(), square, raw_exp):
        spec = RiskMeasureSpec.expected_loss(ell)
        for _ in range(10_000):
            x, y = rng.standard_normal((2, 10))
            worst = max(worst, abs(submodularity_gap(spec, x, y, epsilon=EPS).gap))
    ok = worst <= 1e-12
    assert report("3", ok, f"10k pairs x {{x, x^2, e^x}}: worst |gap| = {worst:.2e} (<= 1e-12)")


def test_criterion_4a_feasible_shortfalls_clean():
    details = []
    ok = True
    for ell in (exponential_loss(1.0), poly2exp_loss()):
        verdict = linear_dominance_check(curvature_profile(ell, -20, 20, 1e-3), ell)
        rep = random_pair_sweep(RiskMeasureSpec.shortfall(ell), 10, 5_000, seed=13, epsilon=EPS)
        ok = ok and verdict.feasible and rep.violations == 0
        details.append(f"{ell.name}: feasible={verdict.feasible}, violations={rep.violations}")
    assert report("4a", ok, "; ".join(details))


@pytest.mark.xfail(
    strict=True,
    reason="structurally unattainable as stated: on indicator ({0,1}) pairs the "
    "expectile shortfall reduces to a strictly concave function of the indicator "
    "count, and concave set functions of |A| are always submodular, so no number "
    "of two_point trials can find a violation (see decisions ledger); the sound "
    "variant of this claim is asserted as criterion 4b-witness below",
)
def test_criterion_4b_expectile_two_point_as_stated():
    rep = random_pair_sweep(
        RiskMeasureSpec.shortfall(expectile_loss(1.0)), 4, 50_000, seed=3,
        generator="two_point", epsilon=EPS,
    )
    assert report("4b", rep.violations >= 1,
                  f"expectile:1, two_point, n=4, 50k trials: {rep.violations} violations "
                  "(expected failure: indicator pairs provably cannot violate)")


def test_criterion_4b_witness_expectile_violations_exist():
    rep = random_pair_sweep(
        RiskMeasureSpec.shortfall(expectile_loss(1.0)), 4, 50_000, seed=3,
        generator="gaussian", epsilon=EPS,
    )
    ok = rep.violations >= 1
    assert report("4b-witness", ok,
                  f"expectile:1, gaussian, n=4, 50k trials: {rep.violations} violations, "
                  f"worst gap {rep.worst_gap:.3e}")


def test_criterion_5_aes_counterexample():
    a, b, q, p1 = 1.0, 0.0, 0.5, 0.25
    x, y, predicted = aes_counterexample(a, b, q, p1, 10_000)
    measured = es_historical(np.maximum(x, y), p1) - es_historical(x, p1)
    spec = RiskMeasureSpec.aes(aes_matched_grid(a, b, q, p1))
    res = submodularity_gap(spec, x, y, epsilon=EPS)
    ok = (abs(measured - 0.0416667) <= 1e-3) and res.gap < 0
    assert report("5", ok, f"ES excess measured {measured:.7f} vs 0.0416667 (tol 1e-3); "
                           f"matched AES deficit {-res.gap:.7f} > 0")


def test_criterion_6_shortfall_jump_deficit():
    measured, limit = shortfall_jump_deficit(1.0, 2.0, 1e-3)
    ratios = [shortfall_jump_deficit(1.0, 2.0, h)[0] for h in (0.1, 0.01, 0.001)]
    monotone = all(r2 <= r1 + 1e-6 for r1, r2 in zip(ratios, ratios[1:]))
    ok = abs(measured - (-0.05)) <= 5e-3 and monotone
    assert report("6", ok, f"gap/h at h=1e-3: {measured:.6f} vs limit {limit:g} (tol 5e-3); "
                           f"ratios over h in {{0.1, 0.01, 0.001}}: {[f'{r:.6f}' for r in ratios]}")


def test_criterion_7_mmd_counterexample():
    phi = es_distortion(0.5)
    x, y = mmd_pair_from_triple(phi, square_weight(), 0.6, 0.7, 0.8, 10)
    res = submodularity_gap(RiskMeasureSpec.mmd(square_weight(), phi), x, y, epsilon=EPS)
    ok = res.gap < 0
    assert report("7", ok, f"triple (0.6, 0.7, 0.8) on 10 atoms: deficit {-res.gap:.6f} > 0")


def test_criterion_8_ce_characterization():
    rep = random_pair_sweep(
        RiskMeasureSpec.certainty_equivalent(exponential_loss(1.0)), 10, 5_000, seed=17,
        epsilon=EPS,
    )
    x, y, gap = ce_counterexample(arctan_bend_loss())
    ok = rep.violations == 0 and gap < 0
    assert report("8", ok, f"CE(e^x) 5k-trial sweep: {rep.violations} violations; "
                           f"non-convex two-point search: gap {gap:.4f} at x={x.tolist()}")


def _pipeline_run(outdir: Path):
    panel = pl.synth_prices(seed=2024, n_days=60, n_assets=4, vol=0.02, jump_prob=0.1)
    losses = pl.build_loss_panel(panel)
    config = pl.RollingConfig(
        window=20,
        measures=(RiskMeasureSpec.var(0.9), RiskMeasureSpec.es(0.9), RiskMeasureSpec.es(0.95)),
        epsilon=EPS,
    )
    records = pl.pairwise_day_tests(losses, config)
    series = [
        pl.daily_violation_rate(records, "VaR(0.9)"),
        pl.daily_violation_rate(records, "VaR(0.9)", test=pl.SUBADDITIVITY),
        pl.daily_violation_rate(records, "ES(0.9)"),
        pl.daily_violation_rate(records, "ES(0.95)"),
    ]
    rows = [(series[0].label, series[1].label,
             pl.correlations(series[0].series(), series[1].series()))]
    paths = pl.export_report(records, series, rows, outdir, config=config)
    return paths, records, series


def test_criterion_9_pipeline_structural_reproduction(tmp_path):
    t0 = time.time()
    paths_a, records, series = _pipeline_run(tmp_path / "a")
    elapsed = time.time() - t0
    paths_b, _, _ = _pipeline_run(tmp_path / "b")
    deterministic = all(paths_a[k].read_bytes() == paths_b[k].read_bytes() for k in paths_a)

    es_rates = [s for s in series if s.label.startswith("ES")]
    es_zero = all(np.all(s.rate == 0.0) for s in es_rates)

    # VaR subadditivity fixture: windows exactly [1,0,0,0] and [0,1,0,0]
    fixture = pl.LossPanel(
        dates=tuple(pl.synth_prices(seed=1, n_days=4, n_assets=1, vol=0.0, jump_prob=0.0).dates),
        tickers=("XXX", "YYY"),
        losses=np.column_stack([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]),
    )
    fix_cfg = pl.RollingConfig(window=4, measures=(RiskMeasureSpec.var(0.5),), epsilon=EPS)
    fix_records = pl.pairwise_day_tests(fixture, fix_cfg)
    fix_viol = [r for r in fix_records if r.test == pl.SUBADDITIVITY and r.violated]

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = "data vintage" in readme

    ok = elapsed < 10.0 and deterministic and es_zero and len(fix_viol) == 1 and documented
    assert report("9", ok,
                  f"60d x 4 assets in {elapsed:.1f}s (< 10s); byte-identical={deterministic}; "
                  f"ES rates identically 0={es_zero}; VaR subadd fixture violation recorded="
                  f"{len(fix_viol) == 1} (gap {fix_viol[0].gap if fix_viol else 'n/a'}); "
                  f"rate-vintage caveat in README={documented}")


def test_criterion_10_cross_measure_consistency():
    rng = np.random.default_rng(31)
    worst_dist = 0.0
    worst_sf = 0.0
    n, p = 50, 0.9  # n (1 - p) = 5, an integer
    dist_spec = RiskMeasureSpec.distortion(es_distortion(p))
    for _ in range(1_000):
        x = rng.standard_normal(n)
        worst_dist = max(worst_dist, abs(dist_spec.evaluate(x) - es_historical(x, p)))
    sf = RiskMeasureSpec.shortfall(exponential_loss(1.0))
    ce = RiskMeasureSpec.certainty_equivalent(exponential_loss(1.0))
    for _ in range(1_000):
        x = rng.standard_normal(8)
        worst_sf = max(worst_sf, abs(sf.evaluate(x) - ce.evaluate(x)))
    ok = worst_dist <= 1e-12 and worst_sf <= 1e-8
    assert report("10", ok, f"distortion-vs-ES worst {worst_dist:.2e} (<= 1e-12); "
                            f"shortfall-vs-CE worst {worst_sf:.2e} (<= 1e-8); 1000 samples each")
