"""Synthetic panel through the full rolling-window violation pipeline.

Generates a jumpy 4-asset price panel and runs ``run_reports`` on it: every
pair is tested each day for submodularity (and VaR subadditivity) violations
on rolling windows, and the standard report files go to demos/output/.  The
demo prints the daily rates and correlations the run returns, then reads
violations.csv back and checks that it equals the table.

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

out = Path(__file__).parent / "output"
table, series, corr_rows, paths = pl.run_reports(losses, config, out)
print(f"{len(table)} (date, pair, measure) cells tested: gaps[check, pair, date] "
      f"of shape {table.gaps.shape}, {int(table.violated.sum())} violations")
for s in series:
    print(f"  {s.label:<34} mean rate {s.rate.mean():.4f}  max {s.rate.max():.4f}")
for sub, other, c in corr_rows:
    print(f"  {sub} vs {other}: pearson {c.pearson:.3f}, spearman {c.spearman:.3f}, "
          f"dcor {c.dcor:.3f}" + ("  [degenerate]" if c.degenerate else ""))
for key, path in paths.items():
    print(f"wrote {path}")

# violations.csv reads back into the same table, every gap bit for bit
back = pl.read_violations_csv(paths["violations"])
assert back == table and (back.gaps.view("int64") == table.gaps.view("int64")).all()
print(f"read back {paths['violations'].name}: {len(back)} cells, equal to the table")
