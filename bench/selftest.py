"""Self-test of the benchmark's output checks.

Usage: python3 bench/selftest.py

Runs a small pipeline and two small sweeps through the CLI in a child
interpreter, takes their outputs as the reference, and shows that the
checks pass them unchanged, pass a last-bit change of one gap, and count
each corrupted copy as a failed command.  Exits 0 when every case behaves.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

import checks
import run

SIZE = {"kind": "pipeline", "days": 90, "tickers": 3, "window": 30}
SWEEP = {"kind": "sweep", "atoms": 12, "trials": 50}
SEED = 3


def _rewrite(path, fn):
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(fn(lines)) + "\n", encoding="utf-8")


def _row(lines, want):
    """Index of the first data row for which ``want(measure, flag)`` holds."""
    for i, line in enumerate(lines[1:], start=1):
        head, _, flag = line.rsplit(",", 2)
        if want(head.split(",", 2)[2].rsplit(",", 1)[0], flag):
            return i
    raise LookupError("no matching row")


def _set(lines, i, gap=None, flag=None):
    head, g, f = lines[i].rsplit(",", 2)
    lines[i] = f"{head},{g if gap is None else gap},{f if flag is None else flag}"
    return lines


def _violations(edit):
    """A corruption of violations.csv: ``edit(lines)`` returns the new lines."""
    return lambda outdir: _rewrite(outdir / "violations.csv", edit)


def _move_gap(fn):
    def edit(lines):
        i = _row(lines, lambda m, f: f == "false")
        return _set(lines, i, gap=format(fn(float(lines[i].rsplit(",", 2)[1])), ".17g"))

    return _violations(edit)


def _flag(want):
    return _violations(lambda lines: _set(lines, _row(lines, want), flag="true"))


# case -> (corruption of the report directory, whether it must count as failed)
PIPELINE_CASES = {
    "unchanged": (None, False),
    "one gap moved by one ulp": (_move_gap(lambda g: float(np.nextafter(g, 1.0))), False),
    "one gap moved by 1e-6": (_move_gap(lambda g: g + 1e-6), True),
    "one flag flipped": (_flag(lambda m, f: f == "false" and not m.startswith("ES(")), True),
    "an ES cell marked violated": (_flag(lambda m, f: m.startswith("ES(")), True),
    "last row dropped": (_violations(lambda lines: lines[:-1]), True),
    "daily_rates.csv changed": (
        lambda p: _rewrite(p / "daily_rates.csv", lambda ls: ls[:-1] + [ls[-1] + "0"]), True),
    "summary.json changed": (
        lambda p: _rewrite(p / "summary.json", lambda ls: [ls[0], '  "extra": 1,'] + ls[1:]), True),
}


def _sweep_cases(payload):
    def edit(**kw):
        return {**payload, **kw}

    return {
        "unchanged": (payload, False),
        "worst_gap moved by 1e-15": (edit(worst_gap=payload["worst_gap"] + 1e-15), False),
        "one more violation": (edit(violations=payload["violations"] + 1), True),
        "worst_gap moved by 1e-6": (edit(worst_gap=payload["worst_gap"] + 1e-6), True),
        "fewer trials": (edit(trials=payload["trials"] - 1), True),
    }


def main() -> int:
    work = run.BENCH / "out" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inp = run.write_pipeline_inputs(work, "", SIZE, SEED)
        sweeps = [c for c in run.sweep_commands(SWEEP, SEED) if c["id"] in ("es-0.95", "var-0.95")]
        commands = run.pipeline_commands(inp) + sweeps
        res = run.run_child(work, "good", {"trace": False, "commands": commands}, 120)
        plan = {"pipeline": inp, "size": SWEEP}
        good = work / inp["out"]
        ref = {"pipeline": checks.pipeline_fingerprint(good)}
        for got in res["commands"][1:]:
            ref[got["id"]] = checks.sweep_payload(got["stdout"])
        ok = True

        def report(case, checker, expect_fail):
            nonlocal ok
            counted = checker.failed > 0
            ok &= counted == expect_fail
            verdict = "counted as failed" if counted else "passed"
            mark = "ok  " if counted == expect_fail else "FAIL"
            print(f"{mark} {case}: {verdict}" + "".join(f"\n       {f}" for f in checker.failures))

        for case, (corrupt, expect_fail) in PIPELINE_CASES.items():
            shutil.rmtree(good.with_name("copy"), ignore_errors=True)
            shutil.copytree(good, good.with_name("copy"))
            if corrupt:
                corrupt(good)
            checker = run.Checker(work, plan, SEED, "selftest")
            checker.ref = ref
            checker.child(res, commands[:1], own=True)
            report(f"pipeline, {case}", checker, expect_fail)
            shutil.rmtree(good)
            good.with_name("copy").rename(good)

        var_payload = ref["var-0.95"]
        for case, (payload, expect_fail) in _sweep_cases(var_payload).items():
            checker = run.Checker(work, plan, SEED, "selftest")
            checker.ref = ref
            bad = {"commands": [dict(res["commands"][2], stdout=json.dumps(payload))]}
            checker.child(bad, sweeps[1:], own=True)
            report(f"sweep var-0.95, {case}", checker, expect_fail)

        checker = run.Checker(work, plan, SEED, "selftest")
        promised = dict(ref["es-0.95"], violations=1)
        checker.child({"commands": [dict(res["commands"][1], stdout=json.dumps(promised))]},
                      sweeps[:1], own=True)
        report("sweep es-0.95, a violation where none is promised", checker, True)

        for case, bad in (("exit code 1", dict(res["commands"][1], code=1)),
                          ("raised", dict(res["commands"][1], error="Traceback ...")),
                          ("missing", None)):
            checker = run.Checker(work, plan, SEED, "selftest")
            checker.child({"commands": [bad] if bad else []}, sweeps[:1], own=True)
            report(f"sweep es-0.95, {case}", checker, True)
        print("selftest " + ("passed" if ok else "FAILED"))
        return 0 if ok else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
