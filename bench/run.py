"""risklattice benchmark: one seeded run of one workload.

Usage (from the root of a checkout):

    python3 bench/run.py --workload pipeline-deep --seed 1 --seconds 30 --trace 0

The benchmark writes its inputs (a price CSV and a config file, or sweep
arguments) from ``--seed``, then starts fresh interpreters that run the real
CLI commands through ``risklattice.cli.main`` with ``--threads 1`` against
the checkout's ``src/``.  With ``--trace 0`` it repeats the workload for
``--seconds`` seconds and reports the end-to-end metrics as medians over the
repetitions.  With ``--trace 1`` it runs the workload three times untraced
and twice traced, alternating, and reports per-layer metrics derived from the
spans the traced children record.  Every command's output is checked (see ``checks.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--result PATH``
also writes the full result, with the environment and size blocks.
"""

from __future__ import annotations

import argparse
import datetime as dt
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SWEEP_MEASURES = (
    ("es-0.95", "es:0.95"),
    ("var-0.95", "var:0.95"),
    ("aes-0.6-0.9", "aes:0.6:0,0.9:0.01"),
    ("dist-pow0.5", "dist:pow:0.5"),
    ("mmd-square-es0.5", "mmd:square:es:0.5"),
    ("ce-exp1", "ce:exp:1"),
    ("shortfall-expectile1", "shortfall:expectile:1"),
    ("shortfall-poly2exp", "shortfall:poly2exp"),
    ("oce-exp1", "oce:exp:1"),
)
SOLVER_IDS = ("ce-exp1", "shortfall-expectile1", "shortfall-poly2exp", "oce-exp1")
MEASURE_KINDS = ("var", "es", "aes")

# Sizes: see README.md for why each workload has the shape it has.
WORKLOADS = {
    "pipeline-deep": {"kind": "pipeline", "days": 1000, "tickers": 8, "window": 500},
    "pipeline-wide": {"kind": "pipeline", "days": 160, "tickers": 30, "window": 60},
    "sweep-mix": {"kind": "sweep", "atoms": 50, "trials": 4000},
}
# Layers a workload does not use are still probed in its traced run, at these
# small fixed sizes, so that every per-layer metric is measured on every
# workload.  Compare them only between runs of the same workload.
OFFPATH_PIPELINE = {"kind": "pipeline", "days": 120, "tickers": 4, "window": 40}
OFFPATH_SWEEP = {"kind": "sweep", "atoms": 50, "trials": 200}
VOL, JUMP_PROB = 0.01, 0.02
LEVELS = "0.95, 0.99"
AES_LEVELS, AES_PENALTIES = "0.6, 0.9", "0, 0.01"
VAR_LEVELS = 2
MEASURES = 2 * VAR_LEVELS + 1
SWEEP_CHUNK = 20_000  # random_pair_sweep's chunk cap

MIN_REPS = 3
DEADLINE_S = 165.0  # every run must end within 180 s
PINNED_THREADS = "1"
# Nominal wall time of reference.py; timings are reported at this speed (the
# value only sets the unit: it is close to the job's time on the machine the
# benchmark was tuned on, so scaled and raw figures are similar there).
REFERENCE_S = 1.0


# ---------------------------------------------------------------------------
# inputs


def synth_closes(seed: int, days: int, tickers: int) -> np.ndarray:
    """Geometric random walk with common jumps (the library's ``synth_prices``
    model, written out here so that the inputs do not depend on the code
    under test)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((days - 1, tickers))
    jumps = rng.random(days - 1) < JUMP_PROB
    shock = rng.standard_normal(days - 1) * (5.0 * VOL)
    r = VOL * z + np.where(jumps, shock, 0.0)[:, None]
    log_prices = np.vstack([np.zeros(tickers), np.cumsum(r, axis=0)]) + np.log(100.0)
    return np.exp(log_prices)


def write_pipeline_inputs(work: Path, prefix: str, size: dict, seed: int) -> dict:
    closes = synth_closes(seed, size["days"], size["tickers"])
    start = dt.date(2020, 1, 1)
    lines = ["date,ticker,adj_close"]
    for i in range(size["days"]):
        day = (start + dt.timedelta(days=i)).isoformat()
        lines.extend(f"{day},A{j:02d},{float(closes[i, j])!r}" for j in range(size["tickers"]))
    prices = work / f"{prefix}prices.csv"
    prices.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = work / f"{prefix}config.txt"
    config.write_text(
        f"window = {size['window']}\nlevels = {LEVELS}\naes_levels = {AES_LEVELS}\n"
        f"aes_penalties = {AES_PENALTIES}\nseed = {seed}\n",
        encoding="utf-8",
    )
    dates = size["days"] - size["window"]
    pairs = size["tickers"] * (size["tickers"] - 1) // 2
    return {
        "prices": prices.name,
        "config": config.name,
        "out": f"{prefix}out",
        "dates": dates,
        "pairs": pairs,
        "cells": dates * pairs * (MEASURES + VAR_LEVELS),
        "input_bytes": prices.stat().st_size + config.stat().st_size,
        "sort_batch_bytes_computed": 4 * dates * size["window"] * 8,
        "scale": float(np.abs(np.diff(np.log(closes), axis=0)).max()),
    }


def pipeline_commands(inp: dict) -> list[dict]:
    argv = ["--threads", "1", "pipeline", "--prices", inp["prices"], "--config", inp["config"],
            "--out", inp["out"]]
    return [{"id": "pipeline", "argv": argv}]


def sweep_commands(size: dict, seed: int) -> list[dict]:
    return [
        {"id": mid, "argv": ["--threads", "1", "--format", "json", "sweep", "--measure", text,
                             "--atoms", str(size["atoms"]), "--trials", str(size["trials"]),
                             "--seed", str(seed)]}
        for mid, text in SWEEP_MEASURES
    ]


def sweep_sizes(size: dict, commands: list[dict]) -> dict:
    return {
        "trials": size["trials"] * len(commands),
        "input_bytes": sum(len(a.encode()) for c in commands for a in c["argv"]),
        "sort_batch_bytes_computed": 4 * min(size["trials"], SWEEP_CHUNK) * size["atoms"] * 8,
    }


def prepare(work: Path, workload: str, seed: int) -> dict:
    """Write this workload's inputs; return its commands, probes and sizes."""
    size = WORKLOADS[workload]
    if size["kind"] == "pipeline":
        inp = write_pipeline_inputs(work, "", size, seed)
        commands = pipeline_commands(inp)
        offpath = sweep_commands(OFFPATH_SWEEP, seed)
        sizes = {k: inp[k] for k in ("dates", "pairs", "cells", "input_bytes",
                                     "sort_batch_bytes_computed")}
        probe = {"prices": inp["prices"], "config": inp["config"], **OFFPATH_SWEEP}
        return {"kind": "pipeline", "size": size, "commands": commands, "offpath": offpath,
                "sizes": sizes, "work": sizes["cells"], "pipeline": inp, "probe": probe}
    commands = sweep_commands(size, seed)
    inp = write_pipeline_inputs(work, "offpath_", OFFPATH_PIPELINE, seed)
    probe = {"prices": inp["prices"], "config": inp["config"], **size}
    sizes = sweep_sizes(size, commands)
    return {"kind": "sweep", "size": size, "commands": commands,
            "offpath": pipeline_commands(inp), "sizes": sizes, "work": sizes["trials"],
            "pipeline": inp, "probe": probe}


# ---------------------------------------------------------------------------
# children


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = PINNED_THREADS
    return env


def run_child(work: Path, tag: str, spec: dict, timeout: float) -> dict:
    """Start one child interpreter, wait for it, and time it from outside."""
    spec_path = work / f"{tag}.spec.json"
    result_path = work / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    for stale in work.glob("*out"):  # report directories of an earlier child
        shutil.rmtree(stale)
    with open(work / f"{tag}.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), spec_path.name, result_path.name],
            cwd=work, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"wall_s": t1 - t0, "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6}
    if result_path.is_file():
        out.update(json.loads(result_path.read_text(encoding="utf-8")))
        out["setup_s"] = out["t_ready"] - t0
    else:
        log_tail = (work / f"{tag}.log").read_text(errors="replace")[-2000:]
        out["error"] = f"child exited {proc.returncode} without a result:\n{log_tail}"
    return out


def run_reference(work: Path) -> float | None:
    """Wall time of the fixed reference job (``reference.py``), or None if it failed."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "reference.py")], cwd=work,
                          env=child_env(), capture_output=True, timeout=60)
    return time.monotonic() - t0 if proc.returncode == 0 else None


class Checker:
    """Checks each child's commands and counts attempted and failed commands."""

    def __init__(self, work: Path, plan: dict, seed: int, workload: str):
        self.work, self.plan = work, plan
        self.ref = checks.reference_for(checks.load_references(), workload, plan["size"], seed)
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.first: dict = {}

    def fail(self, cid: str, messages: list[str]) -> None:
        self.failed += 1
        self.failures.extend(f"{cid}: {m}" for m in messages)

    def child(self, res: dict, commands: list[dict], own: bool) -> None:
        """Check every command of one child; ``own`` marks the workload's own."""
        done = {c["id"]: c for c in res.get("commands" if own else "offpath", [])}
        for cmd in commands:
            self.attempted += 1
            got = done.get(cmd["id"])
            if got is None:
                self.fail(cmd["id"], [res.get("error") or "command did not run"])
            elif got["error"] or got["code"] != 0:
                self.fail(cmd["id"], [got["error"] or f"exit code {got['code']}"])
            else:
                problems = self._outputs(cmd, got, own)
                if problems:
                    self.fail(cmd["id"], problems)

    def _outputs(self, cmd: dict, got: dict, own: bool) -> list[str]:
        inp = self.plan["pipeline"]
        if cmd["id"] == "pipeline":
            outdir = self.work / inp["out"]
            try:
                hashes = checks.output_hashes(outdir)
            except OSError as exc:
                return [f"report missing: {exc}"]
            key = ("pipeline", own)
            if self.first.get(key) == hashes:
                return []  # byte-identical to an output already checked in full
            if key in self.first:
                return ["report differs from an earlier repetition of the same command"]
            self.first[key] = hashes
            try:
                fp = checks.pipeline_fingerprint(outdir)
            except (ValueError, OSError) as exc:
                return [f"unreadable report: {exc}"]
            ref = self.ref.get("pipeline") if (own and self.ref) else None
            return checks.check_pipeline(fp, inp["cells"], inp["scale"], ref)
        try:
            payload = checks.sweep_payload(got["stdout"])
        except ValueError as exc:
            return [f"unreadable sweep payload: {exc}"]
        key = (cmd["id"], own)
        if key in self.first:
            if self.first[key] != payload:
                return ["payload differs from an earlier repetition of the same command"]
            return []
        self.first[key] = payload
        size = self.plan["size"] if own else OFFPATH_SWEEP
        ref = self.ref.get(cmd["id"]) if (own and self.ref) else None
        return checks.check_sweep(payload, size["trials"], ref)


# ---------------------------------------------------------------------------
# metrics


def summarize(values: list[float]) -> dict:
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def end_to_end(reps: list[dict], work_items: int, kind: str, checker: Checker) -> dict:
    """Medians over repetitions.  Times are scaled to the reference job's
    nominal speed; ``raw`` holds the same statistics as measured."""
    scale = REFERENCE_S / statistics.median(r["reference_s"] for r in reps)
    walls = [r["wall_s"] for r in reps]
    setups = [r["setup_s"] for r in reps]
    throughput = [work_items / (w - s) for w, s in zip(walls, setups)]
    unit = "cells/s" if kind == "pipeline" else "trials/s"
    name = "cells_per_s" if kind == "pipeline" else "trials_per_s"

    def scaled(values, factor, unit):
        return {"unit": unit, **summarize([v * factor for v in values]), "raw": summarize(values)}

    return {
        "wall_s": scaled(walls, scale, "s"),
        "setup_s": scaled(setups, scale, "s"),
        name: scaled(throughput, 1.0 / scale, unit),
        "peak_rss_mb": {"unit": "MB", **summarize([r["peak_rss_mb"] for r in reps])},
        "reference_s": {"unit": "s", **summarize([r["reference_s"] for r in reps])},
        "failed_ratio": {"unit": "ratio", "value": checker.failed / max(checker.attempted, 1),
                         "failed": checker.failed, "attempted": checker.attempted},
    }


def contract_metrics(e2e: dict) -> dict:
    """The end-to-end metrics BENCHMARK.json names; ``work_per_s`` is
    ``cells_per_s`` or ``trials_per_s``, whichever the workload has."""
    work = e2e.get("cells_per_s") or e2e["trials_per_s"]
    return {
        "wall_s": {"value": e2e["wall_s"]["median"], "unit": "s"},
        "setup_s": {"value": e2e["setup_s"]["median"], "unit": "s"},
        "work_per_s": {"value": work["median"], "unit": "1/s"},
        "peak_rss_mb": {"value": e2e["peak_rss_mb"]["median"], "unit": "MB"},
    }


def _spans_index(spans: list[dict]):
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(i)

    def dur(i):
        return spans[i]["end"] - spans[i]["start"]

    def self_time(i):
        return dur(i) - sum(dur(c) for c in children.get(i, []))

    def under(i, name):
        p = spans[i]["parent"]
        while p is not None:
            if spans[p]["name"] == name:
                return True
            p = spans[p]["parent"]
        return False

    return dur, self_time, under, children


def layer_metrics(traced: dict, untraced: dict, report: dict) -> dict:
    """Per-layer metrics from one traced child's spans and counters."""
    spans = traced["spans"]
    dur, self_time, under, children = _spans_index(spans)
    live = [i for i, s in enumerate(spans) if s["run"] != "probe"]

    def total(name, idx=live, pred=lambda i: True):
        return float(sum(dur(i) for i in idx if spans[i]["name"] == name and pred(i)))

    m = {}
    for stage in ("load_prices_csv", "build_loss_panel", "pairwise_day_tests",
                  "daily_violation_rate", "correlations", "export_report"):
        m[f"pipeline.{stage}_s"] = total(f"pipeline.{stage}")
    m["pipeline.daily_violation_rate_calls"] = sum(
        1 for i in live if spans[i]["name"] == "pipeline.daily_violation_rate")
    m["pipeline.pairwise_day_tests.self_s"] = float(sum(
        self_time(i) for i in live if spans[i]["name"] == "pipeline.pairwise_day_tests"))
    m["specs.evaluate_batch_in_pairs_s"] = total(
        "specs.evaluate_batch", pred=lambda i: under(i, "pipeline.pairwise_day_tests"))
    m["sample.as_batch_in_pairs_s"] = total(
        "sample.as_batch", pred=lambda i: under(i, "pipeline.pairwise_day_tests"))
    m.update(report)
    probe = [i for i, s in enumerate(spans) if s["run"] == "probe"]
    for kind in MEASURE_KINDS:
        m[f"pipeline.rolling_eval_s.{kind}"] = total(
            "pipeline.rolling_eval", probe, lambda i, k=kind: spans[i]["attrs"].get("kind") == k)
    m["sample.as_batch_s"] = total("sample.as_batch", probe, lambda i: under(i, "probe.as_batch"))
    for mid, _ in SWEEP_MEASURES:
        m[f"lattice.random_pair_sweep_s.{mid}"] = total(
            "lattice.random_pair_sweep", pred=lambda i, k=mid: spans[i]["run"].endswith(f":{k}"))
        m[f"specs.evaluate_batch_s.{mid}"] = total(
            "probe.evaluate_batch.one", probe, lambda i, k=mid: spans[i]["attrs"].get("id") == k)
    # the sweep's own time: its span less the evaluate_batch spans inside it
    m["lattice.self_s"] = float(sum(
        self_time(i) for i in live if spans[i]["name"] == "lattice.random_pair_sweep"))
    for mid in SOLVER_IDS:
        m[f"measures.loss_calls.{mid}"] = traced["loss_calls"].get(mid, 0)
        m[f"measures.loss_points.{mid}"] = traced["loss_points"].get(mid, 0)
    roots = [i for i, s in enumerate(spans) if s["name"] == "cli.main" and s["run"].startswith("cmd:")]
    m["cli.self_s"] = float(sum(self_time(i) for i in roots))
    # measured within the traced child: against the untraced children, the
    # run-to-run noise (about 10%) would swamp the few percent not covered
    covered = sum(dur(c) for i in roots for c in children.get(i, []))
    m["trace.coverage"] = covered / (traced["t_commands_done"] - traced["t_ready"])
    extra = sum(dur(i) for i, s in enumerate(spans) if s["parent"] is None
                and not s["run"].startswith("cmd:"))
    m["trace.overhead_s"] = traced["wall_s"] - extra - untraced["wall_s"]
    return m


def report_facts(work: Path, outdir: str) -> dict:
    summary = json.loads((work / outdir / "summary.json").read_text(encoding="utf-8"))
    return {
        "pipeline.records": summary["n_records"],
        "pipeline.violations": summary["n_violations"],
        "pipeline.export_bytes": sum((work / outdir / n).stat().st_size
                                     for n in checks.PIPELINE_FILES),
    }


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            ctype = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if ctype in ("Data", "Unified"):
            caches[f"L{level}"] = {"size": size, "shared_cpu_list": shared}

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches_cpu0": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads_pinned": int(PINNED_THREADS),
    }


# ---------------------------------------------------------------------------
# runs


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    work = BENCH / "out" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = prepare(work, workload, seed)
        checker = Checker(work, plan, seed, workload)
        untraced_spec = {"trace": False, "commands": plan["commands"]}
        result = {"benchmark": "risklattice", "workload": workload, "seed": seed,
                  "seconds": seconds, "trace": int(trace), "env": environment(),
                  "sizes": {**plan["size"], **plan["sizes"]}}
        if not trace:
            reps = []
            t0 = time.monotonic()
            while True:
                t_rep = time.monotonic()
                reference = run_reference(work)
                res = run_child(work, "untraced", untraced_spec, deadline - t_rep)
                checker.child(res, plan["commands"], own=True)
                if "setup_s" in res and reference is not None:
                    reps.append({**res, "reference_s": reference})
                now = time.monotonic()
                step = now - t_rep
                if len(reps) >= MIN_REPS and now - t0 + step > seconds:
                    break
                if now + step > deadline or (not reps and now - t0 > seconds):
                    break
            result["repetitions"] = len(reps)
            if reps:
                result["end_to_end"] = end_to_end(reps, plan["work"], plan["kind"], checker)
        else:
            traced_spec = {"trace": True, "commands": plan["commands"],
                           "offpath": plan["offpath"], "probe": {**plan["probe"], "batch_seed": seed,
                                                                 "measures": SWEEP_MEASURES}}
            # untraced and traced children alternate, so that a slow spell of
            # the machine does not land on one side only
            untraced, traced = [], []
            for k in range(5):
                remaining = deadline - time.monotonic()
                if k % 2 == 0:
                    res = run_child(work, "untraced", untraced_spec, remaining)
                    checker.child(res, plan["commands"], own=True)
                    if "setup_s" in res:
                        untraced.append(res)
                    continue
                res = run_child(work, f"traced{k}", traced_spec, remaining)
                checker.child(res, plan["commands"], own=True)
                checker.child(res, plan["offpath"], own=False)
                if "spans" in res and (work / plan["pipeline"]["out"] / "summary.json").is_file():
                    traced.append((res, report_facts(work, plan["pipeline"]["out"])))
            counts = [(res["loss_calls"], res["loss_points"]) for res, _ in traced]
            layers = []
            if untraced:
                base = {k: statistics.median(r[k] for r in untraced) for k in ("wall_s", "setup_s")}
                layers = [layer_metrics(res, base, facts) for res, facts in traced]
            if len(counts) == 2 and counts[0] != counts[1]:
                checker.attempted += 1
                checker.fail("trace", ["measures.loss_calls/loss_points differ between two "
                                        "traced runs"])
            if layers:
                # counts repeat exactly (checked above); times take the median
                result["per_layer"] = {
                    k: v if isinstance(v, int) else statistics.median(d[k] for d in layers)
                    for k, v in layers[0].items()}
        result.update(correct=checker.failed == 0 and checker.attempted > 0,
                      attempted=checker.attempted, failed=checker.failed,
                      failures=checker.failures,
                      output_reference="recorded" if checker.ref else "none for this seed and size")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(result: dict) -> None:
    env = result["env"]
    caches = ", ".join(f"{k} {v['size']}" for k, v in env["caches_cpu0"].items())
    print(f"risklattice benchmark  workload {result['workload']}  seed {result['seed']}"
          f"  trace {result['trace']}")
    print(f"env: nproc {env['nproc']}  cpu {env['cpu_model']}  cache(cpu0) {caches}"
          f"  python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}"
          f"  BLAS threads pinned {env['blas_threads_pinned']}")
    print("sizes: " + "  ".join(f"{k} {v}" for k, v in result["sizes"].items()))
    for name, m in result.get("end_to_end", {}).items():
        if name == "failed_ratio":
            print(f"  {name:<14} {m['value']:.6g} {m['unit']}  ({m['failed']} / {m['attempted']})")
            continue
        line = (f"  {name:<14} {m['median']:.6g} {m['unit']}  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]"
                f"  n={m['n']}")
        if "raw" in m:
            line += f"   as measured {m['raw']['median']:.6g} [{m['raw']['q1']:.6g}, {m['raw']['q3']:.6g}]"
        print(line)
    for name, v in result.get("per_layer", {}).items():
        print(f"  {name:<42} {v:.6g}")
    print(f"output reference: {result['output_reference']}")
    for f in result["failures"]:
        print(f"FAILED {f}")


def per_layer_contract(values: dict) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", help="also write the full result to this JSON file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "risklattice" / "cli.py").is_file():
        print(f"error: no risklattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.result:
        Path(args.result).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_report(result)
    if args.trace:
        metrics = per_layer_contract(result["per_layer"]) if "per_layer" in result else {}
    else:
        metrics = contract_metrics(result["end_to_end"]) if "end_to_end" in result else {}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
