"""Synthetic panel through the full rolling-window violation pipeline.

Generates a jumpy 4-asset price panel, tests every pair each day for
submodularity (and VaR subadditivity) violations on rolling windows, and
writes the standard report files to demos/output/, then reads violations.csv
back and checks that it equals the table.

Run: python3 demos/05_pipeline.py
"""

from pathlib import Path

import risklattice.pipeline as pl
from risklattice import RiskMeasureSpec

panel = pl.synth_prices(seed=2024, n_days=220, n_assets=4, vol=0.02, jump_prob=0.08)
losses = pl.build_loss_panel(panel)
print(f"panel: {len(panel.dates)} days x {len(panel.tickers)} assets "
      f"-> {losses.losses.shape[0]} loss rows")

config = pl.RollingConfig(
    window=60,
    measures=(
        RiskMeasureSpec.var(0.9),
        RiskMeasureSpec.es(0.9),
        RiskMeasureSpec.var(0.95),
        RiskMeasureSpec.es(0.95),
        RiskMeasureSpec.aes(pl.AdjustmentGrid((0.9, 0.98), (0.0, 0.01))),
    ),
    epsilon=1e-8,
)

table = pl.pairwise_day_tests(losses, config, debug=True)
print(f"{len(table)} (date, pair, measure) cells tested: gaps[check, pair, date] "
      f"of shape {table.gaps.shape}, {int(table.violated.sum())} violations")

series = []
var_pairs = []  # (submodularity, subadditivity) series of each VaR measure
for spec in config.measures:
    s = pl.daily_violation_rate(table, spec.label)
    series.append(s)
    line = f"  {s.label:<34} mean rate {s.rate.mean():.4f}  max {s.rate.max():.4f}"
    if spec.kind == "var":
        add = pl.daily_violation_rate(table, spec.label, test=pl.SUBADDITIVITY)
        series.append(add)
        var_pairs.append((spec, s, add))
        line += f"   | subadditivity mean {add.rate.mean():.4f}"
    print(line)

corr_rows = []
for spec, sub, add in var_pairs:
    c = pl.correlations(sub.series(), add.series())
    corr_rows.append((sub.label, add.label, c))
    print(f"  {spec.label}: submodularity vs subadditivity rates: "
          f"pearson {c.pearson:.3f}, spearman {c.spearman:.3f}, dcor {c.dcor:.3f}"
          + ("  [degenerate]" if c.degenerate else ""))

out = Path(__file__).parent / "output"
paths = pl.export_report(table, series, corr_rows, out, config=config)
for key, path in paths.items():
    print(f"wrote {path}")

# violations.csv reads back into the same table, every gap bit for bit
back = pl.read_violations_csv(paths["violations"])
assert back == table and (back.gaps.view("int64") == table.gaps.view("int64")).all()
print(f"read back {paths['violations'].name}: {len(back)} cells, equal to the table")
