"""Record the reference outputs that ``checks.py`` compares against.

Usage: python3 bench/record_references.py [--seeds 0-19]

Runs each workload's commands once per seed, requires the checks that hold
for any seed to pass, and writes ``references.json``: for pipelines the
report fingerprint, for sweeps the JSON payload of each measure.  Record at
a commit whose outputs are known good, and only when a workload's inputs or
sizes change; a run whose sizes differ from the recorded ones is checked
without a reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import checks
import run


def record(workload: str, seed: int) -> dict:
    work = run.BENCH / "out" / f"record-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = run.prepare(work, workload, seed)
        res = run.run_child(work, "record", {"trace": False, "commands": plan["commands"]}, 170)
        checker = run.Checker(work, plan, seed, workload)
        checker.ref = None
        checker.child(res, plan["commands"], own=True)
        if checker.failed:
            raise SystemExit(f"{workload} seed {seed}: " + "; ".join(checker.failures))
        if plan["kind"] == "pipeline":
            return {"pipeline": checks.pipeline_fingerprint(work / plan["pipeline"]["out"])}
        return {c["id"]: checks.sweep_payload(c["stdout"]) for c in res["commands"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    refs = {}
    for workload, size in run.WORKLOADS.items():
        refs[workload] = {"sizes": size,
                          "seeds": {str(s): record(workload, s) for s in seeds}}
        print(f"recorded {workload} for seeds {seeds.start}-{seeds.stop - 1}", flush=True)
    checks.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
