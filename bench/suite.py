"""Run every workload from a given seed and print its end-to-end metrics.

Usage: python3 bench/suite.py --seed 1 [--runs 10] [--trace 1] [--out FILE]

For each seed ``seed .. seed+runs-1`` every workload runs once untraced, for
BENCHMARK.json's ``run_seconds``.  With ``--trace 1`` (the default) each
workload also gets one traced run at the first seed.  The table gives, per
workload, every end-to-end metric by name and unit as the median over runs
with its quartiles.  ``--out FILE`` appends the full results to FILE (created
if missing), which ``compare.py`` reads; run the parent and the change
alternately, seed by seed, into two files to compare them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run


def table(runs: list[dict]) -> None:
    for workload in run.WORKLOADS:
        rs = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        if not rs:
            continue
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        print(f"{workload}  ({len(rs)} runs, seeds {', '.join(str(r['seed']) for r in rs)})")
        names = [n for n in rs[0]["end_to_end"] if n != "failed_ratio"]
        for name in names:
            vals = [r["end_to_end"][name]["median"] for r in rs]
            unit = rs[0]["end_to_end"][name]["unit"]
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            line = (f"  {name:<14} {statistics.median(vals):.6g} {unit}  "
                    f"[q1 {q1:.6g}, q3 {q3:.6g}]  n={len(vals)}")
            if "raw" in rs[0]["end_to_end"][name]:
                raw = statistics.median(r["end_to_end"][name]["raw"]["median"] for r in rs)
                line += f"   as measured {raw:.6g}"
            print(line)
        print(f"  {'failed_ratio':<14} {failed / max(attempted, 1):.6g} ratio"
              f"  ({failed} / {attempted} commands)")
        for r in rs:
            for f in r["failures"]:
                print(f"  FAILED seed {r['seed']}: {f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", help="append the results to this JSON file")
    args = parser.parse_args(argv)
    if not (run.ROOT / "src" / "risklattice" / "cli.py").is_file():
        print(f"error: no risklattice sources under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in range(args.seed, args.seed + args.runs):
        for workload in run.WORKLOADS:
            runs.append(run.run(workload, seed, seconds, trace=False))
            print(f"ran {workload} seed {seed}: wall_s "
                  f"{runs[-1].get('end_to_end', {}).get('wall_s', {}).get('median')}", flush=True)
    if args.trace:
        for workload in run.WORKLOADS:
            runs.append(run.run(workload, args.seed, seconds, trace=True))
    if args.out:
        path = Path(args.out)
        old = json.loads(path.read_text())["runs"] if path.is_file() else []
        path.write_text(json.dumps({"benchmark": "risklattice", "runs": old + runs}, indent=1)
                        + "\n", encoding="utf-8")
    table(runs)
    return 1 if any(r["failed"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
