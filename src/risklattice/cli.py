"""Command-line entry point.

Subcommands::

    check           curvature profile + linear-dominance verdict for a loss
    sweep           randomized submodularity sweep for a measure
    counterexample  construct an AES / MMD / shortfall-jump violating pair
    pipeline        rolling-window violation analysis on a price CSV
    selftest        run the library's invariant suite

Exit codes: 0 success, 1 violated expectations (a failed selftest check, a
sweep that promises zero violations but finds one, a counterexample that
fails to violate), 2 usage errors (bad arguments, unreadable or malformed
input files), each with an ``error:`` line on stderr.  Output is
deterministic for identical argv.

Importing this module loads the core modules (``errors``, ``functions``,
``sample``, ``measures``, ``specs``, ``lattice``), which are all that
``sweep`` runs.  Each other command imports its own module when it runs::

    check           curvature
    counterexample  counterexamples
    pipeline        pipeline
    selftest        selftest, and with it the three above

A process started with no bytecode cache compiles every module it imports,
and ``pipeline.py`` alone takes about 8 ms to compile, so a sweep does not
pay for modules it never calls.  ``random_pair_sweep`` and
``parse_measure_spec`` stay names of this module, where a caller may replace
them to wrap a sweep.

``main`` builds its parser at its first call and reuses it for every later
call in the process: a parser keeps no state between ``parse_args`` calls,
and a build costs about 1 ms (3 ms for the first), which a process running
many commands through ``main`` would pay for each.  Building it at import
would add those 3 ms to every command.  ``build_parser`` still returns a
fresh parser on each call.

Importing this module registers ``gc.freeze`` to run at interpreter exit.
Nothing is frozen while the process runs; at exit the interpreter's final
collection then skips the objects of the import graph (numpy's and this
package's modules, 22,000 to 23,500 tracked objects by command) instead of
tearing down their cycles one by one, and the operating system reclaims that
memory with the process.  That ends every CLI command about 20 ms sooner.
Every report is written and closed before ``main`` returns, and the standard
streams are flushed after the exit handlers run, so no output waits on the
collection.  ``import risklattice`` does not import this module; a process
that embeds ``main`` is unaffected until it exits.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import json
import sys

import numpy as np

from .errors import DomainError, RiskLatticeError
from .functions import parse_distortion_spec, parse_loss_spec, parse_weight_spec
from .lattice import DEFAULT_EPSILON, GENERATORS, random_pair_sweep, submodularity_gap
from .specs import RiskMeasureSpec, parse_measure_spec

__all__ = ["main", "build_parser"]

# At exit, skip the final collection's walk of the import heap: a sweep
# process takes 27 ms to exit, 6 ms frozen (Python 3.11, numpy 2.4).  Exit
# handlers registered after this import run before it (last in, first out).
atexit.register(gc.freeze)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risklattice",
        description="Risk functionals on finite samples and their lattice submodularity.",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="kept for compatibility and ignored (values below 1 are refused); all runs are serial",
    )
    parser.add_argument(
        "--format", choices=("text", "csv", "json"), default="text", help="machine output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="curvature profile and dominance verdict for a loss")
    p.add_argument("--loss", required=True, help="loss spec, e.g. exp:1, poly2exp, expectile:1")
    p.add_argument("--lo", type=float, default=-20.0)
    p.add_argument("--hi", type=float, default=20.0)
    p.add_argument("--step", type=float, default=1e-3)

    p = sub.add_parser("sweep", help="randomized submodularity sweep")
    p.add_argument("--measure", required=True, help="measure spec, e.g. es:0.95, shortfall:poly2exp")
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--generator", choices=GENERATORS, default="gaussian")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)

    p = sub.add_parser("counterexample", help="construct a violating pair")
    p.add_argument("--family", choices=("aes", "mmd", "shortfall-jump"), required=True)
    p.add_argument("--a", type=float, default=1.0, help="(aes) ramp slope")
    p.add_argument("--b", type=float, default=0.0, help="(aes) ramp offset")
    p.add_argument("--q", type=float, default=0.5, help="(aes) fold level")
    p.add_argument("--p1", type=float, default=0.25, help="(aes) tested mid-tail level")
    p.add_argument("--atoms", type=int, default=None,
                   help="(aes/mmd) atom count (default 10000 for aes, 10 for mmd)")
    p.add_argument("--phi", default="es:0.5", help="(mmd) distortion spec")
    p.add_argument("--weight", default="square", help="(mmd) deviation weight spec")
    p.add_argument("--sminus", type=float, default=1.0, help="(shortfall-jump) left slope")
    p.add_argument("--splus", type=float, default=2.0, help="(shortfall-jump) right slope")
    p.add_argument("--h", type=float, default=1e-3, help="(shortfall-jump) step size")

    p = sub.add_parser("pipeline", help="rolling-window violation analysis")
    p.add_argument("--prices", required=True, help="CSV with header date,ticker,adj_close")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--out", required=True, help="output directory for reports")

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.add_argument("--only", default=None, help="substring filter on check names")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` uses in this process, built at its first call."""
    return build_parser()


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        import csv as _csv
        import io

        buf = io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        keys = sorted(payload)
        writer.writerow(keys)
        writer.writerow([json.dumps(payload[k]) if isinstance(payload[k], (list, dict))
                         else payload[k] for k in keys])
        print(buf.getvalue(), end="")
    else:
        for line in text_lines:
            print(line)


def _cmd_check(args) -> int:
    from .curvature import curvature_profile, linear_dominance_check

    ell = parse_loss_spec(args.loss)
    profile = curvature_profile(ell, args.lo, args.hi, args.step)
    verdict = linear_dominance_check(profile, ell)
    payload = {
        "loss": ell.name,
        "grid_step": profile.step,
        "analytic_derivatives": profile.analytic_derivs,
        "R_min": float(np.min(profile.R_values)),
        "R_max": float(np.max(profile.R_values)),
        "L": profile.L,
        "kink_points": int(np.count_nonzero(profile.r_infinite)),
        **verdict.to_dict(),
    }
    lines = [
        f"loss {ell.name}  grid [{profile.lo:g}, {profile.hi:g}] step {profile.step:g}"
        f"  derivatives {'analytic' if profile.analytic_derivs else 'finite-difference'}",
        f"R in [{payload['R_min']:.6g}, {payload['R_max']:.6g}]  L = {profile.L:.6g}"
        + (f"  ({payload['kink_points']} effectively-infinite points)" if payload["kink_points"] else ""),
        f"sufficient condition (max R <= 2 min R): {'holds' if verdict.sufficient_condition_holds else 'fails'}",
    ]
    if verdict.feasible:
        lines.append(
            f"dominance: feasible  lambda interval [{verdict.alpha_plus:.6g}, {verdict.alpha_minus:.6g}]"
        )
    else:
        lines.append(
            "dominance: infeasible  witnesses at x = "
            + ", ".join(f"{w:g}" for w in verdict.witnesses)
        )
    _emit(args, payload, lines)
    return 0


def _cmd_sweep(args) -> int:
    spec = parse_measure_spec(args.measure)
    report = random_pair_sweep(
        spec,
        n_atoms=args.atoms,
        trials=args.trials,
        seed=args.seed,
        generator=args.generator,
        epsilon=args.epsilon,
    )
    promised = spec.promises_zero_violations
    payload = {
        "measure": report.label,
        "n_atoms": report.n_atoms,
        "trials": report.trials,
        "seed": report.seed,
        "generator": report.generator,
        "epsilon": report.epsilon,
        "violations": report.violations,
        "worst_gap": report.worst_gap,
        "promises_zero": promised,
    }
    lines = []
    if args.format == "text":  # the worst pair is redrawn only to be printed
        lines = [
            f"measure {report.label}  atoms {report.n_atoms}  trials {report.trials}"
            f"  seed {report.seed}  generator {report.generator}",
            f"violations: {report.violations} / {report.trials}   worst gap: {report.worst_gap:.6e}",
        ]
        if report.violations:
            wx, wy = report.worst_pair
            lines.append("worst pair x: " + np.array2string(wx, precision=6, separator=", "))
            lines.append("worst pair y: " + np.array2string(wy, precision=6, separator=", "))
        if promised:
            lines.append(
                "expectation: zero violations for this measure class -- "
                + ("OK" if report.violations == 0 else "BROKEN")
            )
    _emit(args, payload, lines)
    return 1 if (promised and report.violations > 0) else 0


def _cmd_counterexample(args) -> int:
    from . import counterexamples as ctrex

    if args.atoms is None:
        args.atoms = 10 if args.family == "mmd" else 10_000
    if args.family == "shortfall-jump":
        measured, limit = ctrex.shortfall_jump_deficit(args.sminus, args.splus, args.h)
        payload = {"measured_ratio": measured, "limit_ratio": limit, "h": args.h,
                   "s_minus": args.sminus, "s_plus": args.splus}
        _emit(args, payload, [
            f"piecewise loss slopes ({args.sminus:g}, {args.splus:g}), h = {args.h:g}",
            f"gap/h measured {measured:.6f}   closed-form limit {limit:.6f}",
        ])
        expects_violation = args.splus > args.sminus
        return 0 if (not expects_violation or measured < 0) else 1

    if args.family == "aes":
        x, y, predicted = ctrex.aes_counterexample(args.a, args.b, args.q, args.p1, args.atoms)
        spec = RiskMeasureSpec.aes(ctrex.aes_matched_grid(args.a, args.b, args.q, args.p1))
        res = submodularity_gap(spec, x, y)
        es_excess = float(
            RiskMeasureSpec.es(args.p1).evaluate(np.maximum(x, y))
            - RiskMeasureSpec.es(args.p1).evaluate(x)
        )
        payload = {"predicted_gap": predicted, "es_excess": es_excess,
                   "aes_gap": res.gap, "n_atoms": args.atoms, "measure": spec.label}
        _emit(args, payload, [
            f"ramp a={args.a:g} b={args.b:g}, fold q={args.q:g}, level p1={args.p1:g}, atoms {args.atoms}",
            f"ES_p1(join) - ES_p1(x): measured {es_excess:.6f}   predicted {predicted:.6f}",
            f"{spec.label} submodularity gap: {res.gap:.6f} ({'violated' if res.violated else 'not violated'})",
        ])
        return 0 if res.violated else 1

    phi = parse_distortion_spec(args.phi)
    weight = parse_weight_spec(args.weight)
    x, y = ctrex.mmd_counterexample(phi, weight, args.atoms)
    spec = RiskMeasureSpec.mmd(weight, phi)
    res = submodularity_gap(spec, x, y)
    payload = {"measure": spec.label, "n_atoms": args.atoms, "gap": res.gap,
               "x": [float(v) for v in x], "y": [float(v) for v in y]}
    _emit(args, payload, [
        f"{spec.label} on {args.atoms} atoms",
        "x: " + np.array2string(x, precision=6, separator=", "),
        "y: " + np.array2string(y, precision=6, separator=", "),
        f"submodularity gap: {res.gap:.6f} ({'violated' if res.violated else 'not violated'})",
    ])
    return 0 if res.violated else 1


def _cmd_pipeline(args) -> int:
    from . import pipeline as pl

    cfg = pl.load_config(args.config)
    config = pl.config_to_rolling(cfg)
    panel = pl.load_prices_csv(args.prices)
    losses = pl.build_loss_panel(panel, cfg.get("tickers") or None)
    table, series, _, paths = pl.run_reports(
        losses, config, args.out,
        extra_summary={"tickers": list(losses.tickers), "seed": cfg.get("seed", 0),
                       "prices": str(args.prices)},
        on_skip=lambda a, b, exc: print(f"note: correlation of {a} and {b} left out: {exc}",
                                        file=sys.stderr),
    )
    n_viol = int(np.count_nonzero(table.violated))
    print(f"tested {len(table)} (date, pair, measure) cells; {n_viol} violations")
    for s in series:
        overall = float(s.violations.sum() / s.tests.sum())
        print(f"  {s.label}: mean daily rate {float(s.rate.mean()):.4f}  overall {overall:.4f}")
    for key in ("violations", "daily_rates", "correlations", "summary"):
        print(f"wrote {paths[key]}")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    results = run_selftest(only=args.only)
    if not results:
        raise DomainError(f"no checks match --only {args.only!r}")
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        mark = "ok  " if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        print(f"{mark} {r.name:<{width}}  {r.detail}")
    if any(r.name == "theory.expectile_violation" for r in results):
        print(
            "note: the two_point (indicator) generator cannot witness expectile "
            "violations; on indicator pairs the expectile reduces to a concave "
            "function of the indicator count, which is always submodular.  The "
            "necessity check above therefore uses gaussian pairs."
        )
    print(f"{len(results) - failed} / {len(results)} checks passed")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.threads < 1:  # every run is serial; the flag is kept for compatibility
            raise DomainError("threads must be an integer of at least 1")
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "counterexample":
            return _cmd_counterexample(args)
        if args.command == "pipeline":
            return _cmd_pipeline(args)
        return _cmd_selftest(args)
    except (RiskLatticeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
