"""Benchmark child: runs risklattice CLI commands in one fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json

SPEC lists the CLI argument vectors to pass to ``risklattice.cli.main``.  The
parent starts this process and times it; the child reports the moment the
``import risklattice.cli`` finished, so the parent can split set-up from work.

With ``"trace": true`` the child also wraps public functions of the library's
modules in spans (name, start, end, parent, run id) before running the same
commands, counts loss-function evaluations of the solver measures, runs the
per-layer probes, and writes every span to RESULT when it ends.  Nothing of
the library is changed on disk; the wrappers live only in this process.
"""

import json
import sys
import time

import risklattice.cli as cli

T_READY = time.monotonic()

import contextlib  # noqa: E402  (imported after the timed set-up on purpose)
import dataclasses  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import traceback  # noqa: E402


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run = None

    @contextlib.contextmanager
    def span(self, name, **attrs):
        record = {"name": name, "start": time.monotonic(), "end": None,
                  "parent": self.stack[-1] if self.stack else None,
                  "run": self.run, "attrs": attrs}
        self.spans.append(record)
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.stack.pop()
            record["end"] = time.monotonic()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class LossCounter:
    """Counts calls of a loss function and the points it evaluates, per id."""

    def __init__(self):
        self.calls = {}
        self.points = {}

    def wrap(self, key, fn):
        self.calls.setdefault(key, 0)
        self.points.setdefault(key, 0)

        def counted(x):
            self.calls[key] += 1
            self.points[key] += int(getattr(x, "size", 1))
            return fn(x)

        return counted


# solver kinds -> the public RiskMeasureSpec constructor that takes their loss
_REBUILD = {"ce": "certainty_equivalent", "shortfall": "shortfall", "oce": "oce"}


def _install(tracer, counter, current):
    """Wrap the module boundaries the CLI commands call through."""
    import risklattice.lattice as lattice
    import risklattice.pipeline as pipeline
    import risklattice.specs as specs

    for name in ("load_config", "config_to_rolling", "load_prices_csv", "build_loss_panel",
                 "pairwise_day_tests", "daily_violation_rate", "correlations", "export_report"):
        setattr(pipeline, name, tracer.wrap(f"pipeline.{name}", getattr(pipeline, name)))
    sweep = tracer.wrap("lattice.random_pair_sweep", lattice.random_pair_sweep)
    cli.random_pair_sweep = sweep
    lattice.random_pair_sweep = sweep
    specs.as_batch = tracer.wrap("sample.as_batch", specs.as_batch)
    specs.RiskMeasureSpec.evaluate_batch = tracer.wrap(
        "specs.evaluate_batch", specs.RiskMeasureSpec.evaluate_batch)

    parse = cli.parse_measure_spec

    def parse_counted(text):
        with tracer.span("specs.parse_measure_spec"):
            spec = parse(text)
            if spec.kind not in _REBUILD:
                return spec
            ell = dataclasses.replace(spec.ell, fn=counter.wrap(current["id"], spec.ell.fn))
            return getattr(specs.RiskMeasureSpec, _REBUILD[spec.kind])(ell)

    cli.parse_measure_spec = parse_counted


def _run_commands(commands, tracer, current, run_prefix):
    results = []
    for cmd in commands:
        current["id"] = cmd["id"]
        if tracer is not None:
            tracer.run = f"{run_prefix}:{cmd['id']}"
        buf = io.StringIO()
        code, error = None, None
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    code = cli.main(cmd["argv"])
                else:
                    with tracer.span("cli.main"):
                        code = cli.main(cmd["argv"])
        except Exception:  # a raising command is a failed command, not a crashed run
            error = traceback.format_exc()
        results.append({"id": cmd["id"], "code": code, "stdout": buf.getvalue(),
                        "error": error})
    return results


def _probes(spec, tracer):
    """Per-layer probes: the kernels at the workload's own shapes."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    import risklattice.pipeline as pipeline
    import risklattice.sample as sample
    import risklattice.specs as specs

    tracer.run = "probe"
    probe = spec["probe"]
    evaluate = specs.RiskMeasureSpec.evaluate_batch.__wrapped__
    # load with the unwrapped readers so the probe adds no pipeline spans
    load = pipeline.load_prices_csv.__wrapped__
    build = pipeline.build_loss_panel.__wrapped__
    cfg = pipeline.load_config.__wrapped__(probe["config"])
    config = pipeline.config_to_rolling.__wrapped__(cfg)
    losses = build(load(probe["prices"]))
    with tracer.span("probe.rolling_eval"):
        for measure in config.measures:
            for ticker in losses.tickers:
                with tracer.span("pipeline.rolling_eval", kind=measure.kind):
                    pipeline.rolling_eval(losses, ticker, config, measure)
    as_batch = sample.as_batch
    with tracer.span("probe.as_batch"):
        for ticker in losses.tickers:
            windows = sliding_window_view(losses.column(ticker), config.window)
            with tracer.span("sample.as_batch"):
                as_batch(windows)
    rng = np.random.default_rng(probe["batch_seed"])
    xs = rng.standard_normal((probe["trials"], probe["atoms"]))
    ys = rng.standard_normal((probe["trials"], probe["atoms"]))
    batch = np.concatenate([xs, ys, np.minimum(xs, ys), np.maximum(xs, ys)])
    with tracer.span("probe.evaluate_batch"):
        for mid, text in probe["measures"]:
            measure = specs.parse_measure_spec(text)
            with tracer.span("probe.evaluate_batch.one", id=mid):
                evaluate(measure, batch)


def main(argv):
    spec_path, result_path = argv[1], argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {"t_ready": T_READY}
    if not spec.get("trace"):
        out["commands"] = _run_commands(spec["commands"], None, {}, "cmd")
    else:
        tracer, counter, current = Tracer(), LossCounter(), {"id": None}
        _install(tracer, counter, current)
        out["commands"] = _run_commands(spec["commands"], tracer, current, "cmd")
        out["t_commands_done"] = time.monotonic()
        out["offpath"] = _run_commands(spec["offpath"], tracer, current, "offpath")
        _probes(spec, tracer)
        out["spans"] = tracer.spans
        out["loss_calls"] = counter.calls
        out["loss_points"] = counter.points
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
