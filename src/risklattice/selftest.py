"""Self-contained invariant suite behind the ``selftest`` CLI subcommand.

Each check exercises one documented invariant of the library and returns a
pass/fail line; the CLI exits nonzero when any check fails.  The suite
overlaps the pytest tests on purpose -- it is the runtime health check users
can run without a test harness installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import counterexamples as ctrex
from . import pipeline as pl
from .curvature import curvature_profile, linear_dominance_check
from .functions import (
    es_distortion,
    exponential_loss,
    linear_loss,
    poly2exp_loss,
    square_weight,
)
from .lattice import _draw_pairs, _forget_pairs, random_pair_sweep, submodularity_gap
from .measures import (
    aes,
    certainty_equivalent,
    distortion_rho,
    es_historical,
    expected_loss,
    mmd_rho,
    oce,
    shortfall_rho,
    var_historical,
)
from .sample import pointwise_meet_join
from .specs import RiskMeasureSpec

__all__ = ["CheckResult", "run_selftest", "CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _monetary_specs() -> list[RiskMeasureSpec]:
    from .functions import AdjustmentGrid

    return [
        RiskMeasureSpec.var(0.8),
        RiskMeasureSpec.es(0.8),
        RiskMeasureSpec.aes(AdjustmentGrid((0.6, 0.9), (0.0, 0.01))),
        RiskMeasureSpec.distortion(es_distortion(0.75)),
        RiskMeasureSpec.shortfall(exponential_loss(1.0)),
        RiskMeasureSpec.oce(exponential_loss(1.0)),
        RiskMeasureSpec.mmd(square_weight(), es_distortion(0.75)),
    ]


def _require(ok, detail="") -> None:
    """``assert ok, detail`` that ``python -O`` does not strip."""
    if not ok:
        raise AssertionError(detail)


def _rng():
    return np.random.default_rng(20240901)


# --- measure invariants -----------------------------------------------------


def check_law_invariance() -> str:
    rng = _rng()
    x = rng.standard_normal(17)
    perm = rng.permutation(17)
    specs = _monetary_specs() + [RiskMeasureSpec.certainty_equivalent(exponential_loss(1.0))]
    for spec in specs:
        a, b = spec.evaluate(x), spec.evaluate(x[perm])
        _require(abs(a - b) <= 1e-12, f"{spec.label}: {a} vs {b}")
    return f"{len(specs)} functionals, random permutation, tol 1e-12"


def check_cash_invariance() -> str:
    rng = _rng()
    for _ in range(20):
        x = rng.standard_normal(11)
        c = float(rng.standard_normal())
        for spec in _monetary_specs():
            a = spec.evaluate(x + c)
            b = spec.evaluate(x) + c
            _require(abs(a - b) <= 1e-9, f"{spec.label}: |{a} - {b}|")
    return "7 monetary measures, 20 random (x, c), tol 1e-9"


def check_positive_homogeneity() -> str:
    rng = _rng()
    var = RiskMeasureSpec.var(0.7)
    for _ in range(20):
        x = rng.standard_normal(13)
        lam = float(rng.random() * 3 + 0.1)
        # selecting an order statistic scales bit-for-bit; the summed measures
        # carry one rounding step per term
        _require(var.evaluate(lam * x) == lam * var.evaluate(x))
        for spec in (RiskMeasureSpec.es(0.7), RiskMeasureSpec.distortion(es_distortion(0.7))):
            a, b = spec.evaluate(lam * x), lam * spec.evaluate(x)
            _require(abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-300), spec.label)
    return "VaR scales exactly; ES/distortion within rel 1e-12"


def check_monotonicity() -> str:
    from .functions import identity_weight

    rng = _rng()
    # the square-weight deviation measure is excluded: once the weight's slope
    # exceeds 1, a pointwise increase can lower the value (not monotone)
    specs = [m for m in _monetary_specs() if m.kind != "mmd"]
    specs.append(RiskMeasureSpec.mmd(identity_weight(), es_distortion(0.75)))
    for _ in range(20):
        x = rng.standard_normal(9)
        y = x + rng.random(9)  # y >= x entrywise
        for spec in specs:
            _require(spec.evaluate(x) <= spec.evaluate(y) + 1e-9, spec.label)
    return "entrywise dominance, monotone measures, tol 1e-9"


def check_es_dominates_var() -> str:
    rng = _rng()
    for _ in range(50):
        x = rng.standard_normal(14)
        p = float(rng.random() * 0.98 + 0.01)
        _require(es_historical(x, p) >= var_historical(x, p) - 1e-15)
    return "ES >= VaR at 50 random levels"


def check_comonotone_additivity() -> str:
    rng = _rng()
    phi = es_distortion(0.8)
    for _ in range(20):
        order = np.argsort(rng.standard_normal(12))
        x = np.sort(rng.standard_normal(12))[order]
        y = np.sort(rng.standard_normal(12))[order]  # same ranking as x
        lhs = distortion_rho(x + y, phi)
        rhs = distortion_rho(x, phi) + distortion_rho(y, phi)
        _require(abs(lhs - rhs) <= 1e-12)
    return "distortion additive on commonly-sorted pairs, tol 1e-12"


def check_expected_loss_modular() -> str:
    rng = _rng()
    ell = exponential_loss(1.0)
    for _ in range(50):
        x, y = rng.standard_normal((2, 10))
        meet, join = pointwise_meet_join(x, y)
        gap = expected_loss(x, ell) + expected_loss(y, ell) - expected_loss(meet, ell) - expected_loss(join, ell)
        _require(abs(gap) <= 1e-12)
    return "valuation identity on 50 random pairs, tol 1e-12"


def check_shortfall_matches_ce() -> str:
    rng = _rng()
    for gamma in (0.5, 1.0, 2.0):
        for _ in range(10):
            x = rng.standard_normal(8)
            a = shortfall_rho(x, exponential_loss(gamma))
            b = certainty_equivalent(x, exponential_loss(gamma))
            _require(abs(a - b) <= 1e-8, f"gamma={gamma}: {a} vs {b}")
    return "exponential shortfall == exponential CE, tol 1e-8"


def check_degenerate_single_atom() -> str:
    c = 0.37
    vals = [
        var_historical([c], 0.5),
        es_historical([c], 0.5),
        distortion_rho([c], es_distortion(0.9)),
        shortfall_rho([c], exponential_loss(1.0)),
        oce([c], exponential_loss(1.0)),
        certainty_equivalent([c], exponential_loss(1.0)),
        mmd_rho([c], square_weight(), es_distortion(0.9)),
    ]
    _require(all(abs(v - c) <= 1e-10 for v in vals), vals)
    return "n=1 sample: monetary measures return the loss"


# --- lattice invariants -------------------------------------------------------


def check_lattice_identity() -> str:
    rng = _rng()
    for _ in range(50):
        x, y = rng.standard_normal((2, 16))
        meet, join = pointwise_meet_join(x, y)
        _require(np.array_equal(meet + join, x + y))
    return "meet + join == x + y exactly, 50 pairs"


def check_gap_symmetry() -> str:
    rng = _rng()
    spec = RiskMeasureSpec.es(0.8)
    for _ in range(20):
        x, y = rng.standard_normal((2, 10))
        _require(submodularity_gap(spec, x, y).gap == submodularity_gap(spec, y, x).gap)
    return "gap(x, y) == gap(y, x) exactly"


def check_dominated_pairs_gap_zero() -> str:
    rng = _rng()
    for _ in range(10):
        x = rng.standard_normal(10)
        y = x + rng.random(10)  # x <= y entrywise: meet = x, join = y
        for spec in _monetary_specs():
            _require(submodularity_gap(spec, x, y).gap == 0.0, spec.label)
    return "entrywise-dominated pairs have exactly zero gap"


def check_sweep_determinism() -> str:
    spec = RiskMeasureSpec.es(0.9)
    a = random_pair_sweep(spec, n_atoms=10, trials=500, seed=42, generator="heavy_tail")
    _forget_pairs()  # b draws its pairs too
    b = random_pair_sweep(spec, n_atoms=10, trials=500, seed=42, generator="heavy_tail")
    _require(a.worst_gap == b.worst_gap)
    _require(a.violations == b.violations)
    _require(np.array_equal(a.worst_pair[0], b.worst_pair[0]))
    # a chunk border changes no trial's pair
    whole = _draw_pairs(10, 0, 500, 42, "heavy_tail")
    halves = [_draw_pairs(10, lo, hi, 42, "heavy_tail") for lo, hi in ((0, 250), (250, 500))]
    _require(np.array_equal(whole, np.concatenate(halves)))  # trial-major: trials on axis 0
    return "same seed: two sweeps agree bit for bit; trials [0, 500) drawn at once == [0, 250) + [250, 500)"


def check_es_sweeps_clean() -> str:
    for n_atoms in (10, 50):
        rep = random_pair_sweep(RiskMeasureSpec.es(0.95), n_atoms, trials=10_000, seed=7)
        _require(rep.violations == 0, f"n={n_atoms}: {rep.violations} violations")
    return "ES(0.95), n in {10, 50}, 10k trials each, zero violations"


# --- characterization invariants ---------------------------------------------


def check_feasible_losses_sweep_clean() -> str:
    for ell in (exponential_loss(1.0), poly2exp_loss()):
        prof = curvature_profile(ell, -20.0, 20.0, 1e-2)
        verdict = linear_dominance_check(prof, ell)
        _require(verdict.feasible, ell.name)
        rep = random_pair_sweep(RiskMeasureSpec.shortfall(ell), 10, trials=5_000, seed=11)
        _require(rep.violations == 0, f"{ell.name}: {rep.violations}")
    return "exp:1 and poly2exp: dominance feasible and 5k-trial sweeps clean"


def check_expectile_violation_found() -> str:
    # Necessity witness: the kinked expectile loss is not submodular, and
    # gaussian pairs at 4 atoms expose it quickly.  Indicator ({0,1}) pairs
    # provably cannot: on them the measure reduces to a concave function of
    # the indicator count, so that generator is skipped here (see the test
    # suite for the demonstration).
    from .functions import expectile_loss

    rep = random_pair_sweep(
        RiskMeasureSpec.shortfall(expectile_loss(1.0)), 4, trials=50_000, seed=3,
        generator="gaussian",
    )
    _require(rep.violations >= 1, "no violation found")
    return f"expectile:1, gaussian pairs, n=4: {rep.violations} violations in 50k trials"


def check_aes_counterexample_deficit() -> str:
    x, y, predicted = ctrex.aes_counterexample(1.0, 0.0, 0.5, 0.25, 10_000)
    spec = RiskMeasureSpec.aes(ctrex.aes_matched_grid(1.0, 0.0, 0.5, 0.25))
    res = submodularity_gap(spec, x, y)
    _require(res.gap < 0 and abs(-res.gap - predicted) <= 1e-3, (res.gap, predicted))
    return f"matched two-level AES: deficit {-res.gap:.6f} ~ predicted {predicted:.6f}"


def check_jump_deficit_monotone() -> str:
    ratios = [ctrex.shortfall_jump_deficit(1.0, 2.0, h)[0] for h in (0.1, 0.01, 0.001)]
    limit = ctrex.shortfall_jump_deficit(1.0, 2.0, 0.01)[1]
    _require(all(r2 <= r1 + 1e-6 for r1, r2 in zip(ratios, ratios[1:])), ratios)
    _require(abs(ratios[-1] - limit) <= 5e-3, (ratios[-1], limit))
    return f"ratios {['%.6f' % r for r in ratios]} -> limit {limit:g}"


def check_mmd_counterexample() -> str:
    x, y = ctrex.mmd_counterexample(es_distortion(0.5), square_weight(), 10)
    spec = RiskMeasureSpec.mmd(square_weight(), es_distortion(0.5))
    res = submodularity_gap(spec, x, y)
    _require(res.violated, res.gap)
    return f"nested-indicator pair violates: gap {res.gap:.6f}"


def check_ce_two_point_search() -> str:
    from .functions import arctan_bend_loss

    x, y, gap = ctrex.ce_counterexample(arctan_bend_loss())
    spec = RiskMeasureSpec.certainty_equivalent(arctan_bend_loss())
    _require(submodularity_gap(spec, x, y).violated)
    rep = random_pair_sweep(
        RiskMeasureSpec.certainty_equivalent(exponential_loss(1.0)), 10, trials=2_000, seed=5
    )
    _require(rep.violations == 0)
    return f"non-convex loss violates (gap {gap:.4f}); convex CE sweep clean"


# --- pipeline invariants -------------------------------------------------------


def _small_run(outdir):
    panel = pl.synth_prices(seed=90, n_days=40, n_assets=3, vol=0.02, jump_prob=0.1)
    losses = pl.build_loss_panel(panel)
    config = pl.RollingConfig(
        window=15, measures=(RiskMeasureSpec.var(0.9), RiskMeasureSpec.es(0.9)), epsilon=1e-8
    )
    table, _, _, paths = pl.run_reports(losses, config, outdir)
    return paths, table


def check_pipeline_determinism() -> str:
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        paths_a, _ = _small_run(Path(tmp) / "a")
        paths_b, _ = _small_run(Path(tmp) / "b")
        for key in paths_a:
            _require(paths_a[key].read_bytes() == paths_b[key].read_bytes(), key)
    return "two identical runs produce byte-identical reports"


def check_pipeline_es_clean() -> str:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _, table = _small_run(tmp)
    es = [k for k, (measure, _) in enumerate(table.checks) if measure == "ES(0.9)"]
    _require(es and not table.violated[es].any())
    return f"{table.gaps[es].size} ES records on a jumpy synthetic panel, zero violations"


def check_correlation_bounds() -> str:
    rng = _rng()
    import datetime as dt

    days = tuple(dt.date(2022, 1, 1) + dt.timedelta(days=k) for k in range(60))
    a = pl.DatedSeries(days, rng.standard_normal(60), "a")
    b = pl.DatedSeries(days, rng.standard_normal(60), "b")
    c = pl.correlations(a, b)
    _require(-1 <= c.pearson <= 1 and -1 <= c.spearman <= 1 and 0 <= c.dcor <= 1)
    self_c = pl.correlations(a, a)
    _require(abs(self_c.dcor - 1.0) <= 1e-12 and self_c.pearson == 1.0)
    return "pearson/spearman in [-1,1], dcor in [0,1], dcor(a,a) = 1"


CHECKS: list[tuple[str, Callable[[], str]]] = [
    ("measures.law_invariance", check_law_invariance),
    ("measures.cash_invariance", check_cash_invariance),
    ("measures.positive_homogeneity", check_positive_homogeneity),
    ("measures.monotonicity", check_monotonicity),
    ("measures.es_dominates_var", check_es_dominates_var),
    ("measures.comonotone_additivity", check_comonotone_additivity),
    ("measures.expected_loss_modular", check_expected_loss_modular),
    ("measures.shortfall_matches_ce", check_shortfall_matches_ce),
    ("measures.single_atom", check_degenerate_single_atom),
    ("lattice.identity", check_lattice_identity),
    ("lattice.gap_symmetry", check_gap_symmetry),
    ("lattice.dominated_pairs", check_dominated_pairs_gap_zero),
    ("lattice.sweep_determinism", check_sweep_determinism),
    ("lattice.es_sweeps_clean", check_es_sweeps_clean),
    ("theory.feasible_losses_clean", check_feasible_losses_sweep_clean),
    ("theory.expectile_violation", check_expectile_violation_found),
    ("theory.aes_counterexample", check_aes_counterexample_deficit),
    ("theory.jump_deficit", check_jump_deficit_monotone),
    ("theory.mmd_counterexample", check_mmd_counterexample),
    ("theory.ce_two_point", check_ce_two_point_search),
    ("pipeline.determinism", check_pipeline_determinism),
    ("pipeline.es_clean", check_pipeline_es_clean),
    ("pipeline.correlation_bounds", check_correlation_bounds),
]


def run_selftest(only: str | None = None) -> list[CheckResult]:
    """Run the invariant checks (optionally filtered by name substring)."""
    results = []
    for name, fn in CHECKS:
        if only and only not in name:
            continue
        try:
            detail = fn()
            results.append(CheckResult(name=name, passed=True, detail=detail))
        except Exception as exc:  # noqa: BLE001 - any failure is a finding
            results.append(CheckResult(name=name, passed=False, detail=f"{type(exc).__name__}: {exc}"))
    return results
