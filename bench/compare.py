"""Compare two benchmark result files, parent first.

Usage: python3 bench/compare.py PARENT.json CHANGE.json

Both files are written by ``suite.py``.  For each workload and each
end-to-end metric of BENCHMARK.json the report gives both sides' median and
quartiles over their runs and one verdict:

* ``better``: the change wins at least nine tenths of the runs paired by
  seed (ties count for neither side), and the medians differ, in the
  change's favour, by more than the parent's own quartile distance;
* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound, and either both spreads are within the bound or the change
  loses at least nine tenths of the pairs;
* ``unresolved``: a worse median that the spread does not confirm, or a
  spread (quartile distance over median, either side) wider than the bound
  unless every run of the change reads better than every run of the parent;
* ``unchanged``: otherwise.

Per-layer metrics of the traced runs follow, as medians with their
difference and ratio, for attribution.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import contract_metrics

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> list[dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))["runs"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    """``parent``/``change`` map seed -> value; see the module docstring."""
    a, b = list(parent.values()), list(change.values())
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    seeds = sorted(set(parent) & set(change))
    pairs = [(parent[s], change[s]) for s in seeds]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    gain = sign * (qb[1] - qa[1])
    worse_by = -gain / abs(qa[1]) if qa[1] else 0.0
    spread = max((qa[2] - qa[0]) / abs(qa[1]), (qb[2] - qb[0]) / abs(qb[1]))
    if pairs and wins >= 0.9 * len(pairs) and gain > qa[2] - qa[0]:
        return "better"
    if worse_by > bound:
        if spread <= bound or (pairs and losses >= 0.9 * len(pairs)):
            return "worse"
        return "unresolved"
    if spread > bound and not all(sign * (y - x) > 0 for x in a for y in b):
        return "unresolved"
    return "unchanged"


def by_workload(runs: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in runs:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load_runs(argv[1]), load_runs(argv[2])
    pa, ch = by_workload(parent, 0), by_workload(change, 0)
    for workload in sorted(set(pa) | set(ch)):
        ra, rb = pa.get(workload, []), ch.get(workload, [])
        fa = sum(r["failed"] for r in ra), sum(r["attempted"] for r in ra)
        fb = sum(r["failed"] for r in rb), sum(r["attempted"] for r in rb)
        print(f"{workload}: parent {len(ra)} runs ({fa[0]}/{fa[1]} failed), "
              f"change {len(rb)} runs ({fb[0]}/{fb[1]} failed)")
        if not ra or not rb:
            continue
        ma = {r["seed"]: contract_metrics(r["end_to_end"]) for r in ra if "end_to_end" in r}
        mb = {r["seed"]: contract_metrics(r["end_to_end"]) for r in rb if "end_to_end" in r}
        for m in spec["end_to_end"]:
            name = m["name"]
            a = {s: v[name]["value"] for s, v in ma.items()}
            b = {s: v[name]["value"] for s, v in mb.items()}
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            v = verdict(a, b, m["better"], m["bound"])
            print(f"  {name:<12} {m['unit']:<4} parent {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"  change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                  f"  {(qb[1] - qa[1]) / qa[1]:+.1%}  bound {m['bound']:.0%}  {v}")
    ta, tb = by_workload(parent, 1), by_workload(change, 1)
    for workload in sorted(set(ta) & set(tb)):
        print(f"{workload} per layer (traced runs: parent {len(ta[workload])}, "
              f"change {len(tb[workload])})")
        for m in spec["per_layer"]:
            name = m["name"]
            a = [r["per_layer"][name] for r in ta[workload] if name in r.get("per_layer", {})]
            b = [r["per_layer"][name] for r in tb[workload] if name in r.get("per_layer", {})]
            if not a or not b:
                continue
            x, y = statistics.median(a), statistics.median(b)
            ratio = f"x{y / x:.3f}" if x else "-"
            print(f"  {name:<46} {m['unit']:<5} {x:12.6g} -> {y:12.6g}  {y - x:+.6g}  {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
