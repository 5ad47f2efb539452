import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from risklattice.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ROOT = Path(__file__).resolve().parents[1]
# -X dev -W error: a warning, an unclosed file or an error at exit reaches stderr
DEV = ["-X", "dev", "-W", "error"]


def python(*args, cwd=None, check=True):
    """Run a fresh interpreter on this checkout's ``src``."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, check=check, timeout=60)


@pytest.fixture(scope="module")
def start():
    """``start(commands)``: ``python(*argv, check=False)`` for each ``case:
    argv``, as futures, so that the fresh processes of a parametrized test
    run two at a time beside it."""
    with ThreadPoolExecutor(2) as pool:
        yield lambda commands: {case: pool.submit(python, *argv, check=False)
                                for case, argv in commands.items()}


def test_check_exponential_feasible(capsys):
    code, out, _ = run(capsys, "check", "--loss", "exp:1")
    assert code == 0
    assert "feasible" in out and "lambda interval" in out


def test_check_expectile_infeasible(capsys):
    code, out, _ = run(capsys, "check", "--loss", "expectile:1", "--lo", "-5", "--hi", "5",
                       "--step", "0.01")
    assert code == 0
    assert "infeasible" in out


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "--format", "json", "check", "--loss", "poly2exp")
    payload = json.loads(out)
    assert code == 0
    assert payload["feasible"] and payload["sufficient_condition_holds"]


# a non-finite bound escaped main as an OverflowError, a tiny step as numpy's
# "Maximum allowed size exceeded", and an infinite step built a NaN grid and
# exited 0 with a verdict
@pytest.mark.parametrize("flags", [("--hi", "inf"), ("--step", "1e-300"), ("--step", "inf")])
def test_check_bad_grid_exits_2(capsys, flags):
    code, out, err = run(capsys, "check", "--loss", "exp:1", *flags)
    assert (code, out) == (2, "")
    assert err.startswith("error: curvature grid") and err.count("\n") == 1


def test_sweep_es_clean_exit_zero(capsys):
    code, out, _ = run(capsys, "sweep", "--measure", "es:0.95", "--atoms", "20",
                       "--trials", "500", "--seed", "7")
    assert code == 0
    assert "violations: 0 / 500" in out


def test_sweep_deterministic_stdout(capsys):
    argv = ("sweep", "--measure", "var:0.8", "--atoms", "10", "--trials", "300", "--seed", "5")
    _, out_a, _ = run(capsys, *argv)
    _, out_b, _ = run(capsys, *argv)
    assert out_a == out_b


def test_sweep_var_violations_allowed(capsys):
    code, out, _ = run(capsys, "sweep", "--measure", "var:0.5", "--atoms", "6",
                       "--trials", "2000", "--seed", "5")
    assert code == 0  # VaR promises nothing, so violations are findings, not failures


# sha256 of `sweep --format text` stdout, 11 atoms, 500 trials, seed 0; a
# change to any draw, nudge or the worst-pair choice changes these
SWEEP_GOLDEN = {
    ("es:0.95", "gaussian"): "91265a0ac042759cfe07109e78f258161eb92a9740c1ec32c2309232d412c9be",
    ("es:0.95", "heavy_tail"): "4c5276201d897550d3691d489b58be1679b510330fab4810a9621459c3cad39d",
    ("es:0.95", "two_point"): "cc692b2c0263d0f614246cbf8cff5043519563469494c558f0834a83b0a7715c",
    ("var:0.5", "gaussian"): "bcbad1be94de14ab4f5bbbd5035f4a5c41c434c2e8b927e11522cea1b93ebd6c",
    ("var:0.5", "heavy_tail"): "d0466b4722a9138ad518b9ecb10f36b53d9ed4ea88ad090d5b0ac306543d592a",
    ("var:0.5", "two_point"): "e2c3fac0c390ec84b269ad1f239827fe7983489f96862c77fae20d8b49dfbe13",
    ("shortfall:expectile:1", "gaussian"):
        "f4c563f0581f71c8e02faf1e73991b903f423b2c866e3fb14f9396229aec0136",
    ("shortfall:expectile:1", "heavy_tail"):
        "f6ada22fea55a3234f1ab6cac3b00bae9913770654a20bf3232526d9887cc5f7",
    ("shortfall:expectile:1", "two_point"):
        "5637eb0af962e64829f313fde6103701fd40cf60926bf12dfbf42339d80f0e29",
    # the one pin of a sweep that runs the bracketed solver (no closed form)
    ("ce:arctan-bend", "gaussian"):
        "24bbb2c377ced732dd020035a4aacb7b8310ee3421ecb7c6433ca8b1e02bfe9c",
}


@pytest.mark.parametrize("measure, generator", sorted(SWEEP_GOLDEN))
def test_sweep_text_output_golden(capsys, measure, generator):
    code, out, _ = run(capsys, "--format", "text", "sweep", "--measure", measure, "--atoms",
                       "11", "--trials", "500", "--seed", "0", "--generator", generator)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_GOLDEN[measure, generator]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_machine_sweep_does_not_redraw_the_worst_pair(capsys, monkeypatch, fmt):
    # only the text output prints the worst pair; var:0.95 at 50 atoms violates
    from risklattice import lattice

    def unread(report):
        raise AssertionError("worst_pair read")

    monkeypatch.setattr(lattice.SweepReport, "worst_pair", property(unread))
    code, out, _ = run(capsys, "--format", fmt, "sweep", "--measure", "var:0.95", "--atoms",
                       "50", "--trials", "1000", "--seed", "3")
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["violations"] > 0
    with pytest.raises(AssertionError, match="worst_pair read"):
        main(["--format", "text", "sweep", "--measure", "var:0.95", "--atoms", "50",
              "--trials", "1000", "--seed", "3"])


def test_sweep_negative_seed_exits_2(capsys):
    code, out, err = run(capsys, "sweep", "--measure", "es:0.95", "--atoms", "10", "--trials",
                         "10", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: seed must be a nonnegative integer\n"


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_sweep_bad_threads_exits_2(capsys, threads):
    code, out, err = run(capsys, "--threads", threads, "sweep", "--measure", "es:0.95",
                         "--atoms", "10", "--trials", "10", "--seed", "0")
    assert code == 2
    assert out == ""
    assert err == "error: threads must be an integer of at least 1\n"


@pytest.mark.parametrize("command", ["check", "counterexample", "pipeline", "selftest"])
def test_every_command_refuses_bad_threads(capsys, tmp_path, command):
    # each command would succeed with --threads 1
    prices, cfg, report = tmp_path / "prices.csv", tmp_path / "run.cfg", tmp_path / "report"
    prices.write_text("date,ticker,adj_close\n" + "".join(
        f"2024-01-{day:02d},{ticker},{100 + day * (1 + k)}\n"
        for day in range(1, 11) for k, ticker in enumerate("AB")))
    cfg.write_text("window = 5\nlevels = 0.9\n")
    argv = {
        "check": ["check", "--loss", "exp:1"],
        "counterexample": ["counterexample", "--family", "mmd"],
        "pipeline": ["pipeline", "--prices", str(prices), "--config", str(cfg),
                     "--out", str(report)],
        "selftest": ["selftest", "--only", "lattice.identity"],
    }[command]
    assert run(capsys, *argv)[0] == 0
    for threads in ("0", "-3"):
        code, out, err = run(capsys, "--threads", threads, *argv)
        assert (code, out, err) == (2, "", "error: threads must be an integer of at least 1\n")


@pytest.mark.parametrize("epsilon", ["-1", "nan", "inf"])
def test_sweep_bad_epsilon_exits_2(capsys, epsilon):
    code, out, err = run(capsys, "sweep", "--measure", "es:0.95", "--atoms", "10", "--trials",
                         "50", "--seed", "0", "--epsilon", epsilon)
    assert code == 2
    assert out == ""
    assert err.startswith("error: epsilon must be finite and nonnegative")


def test_sweep_with_a_subnormal_gamma_finds_no_violation(capsys):
    # g (x - max x) fell among the subnormals: 94 violations and BROKEN
    code, out, _ = run(capsys, "sweep", "--measure", "ce:exp:1e-320", "--atoms", "10",
                       "--trials", "200", "--seed", "0")
    assert code == 0
    assert "violations: 0 / 200" in out and "-- OK" in out


def test_sweep_non_finite_loss_parameter_exits_2(capsys):
    code, out, err = run(capsys, "sweep", "--measure", "ce:exp:nan", "--atoms", "10",
                         "--trials", "200", "--seed", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "exponential loss requires finite gamma > 0" in err


def test_pipeline_unreadable_prices_exit_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("levels = 0.9\n")
    bad = tmp_path / "prices.csv"
    bad.write_bytes(b"date,ticker,adj_close\n2024-01-02,\xff,1.0\n")
    for prices in (tmp_path, bad):  # a directory, then a file that is not UTF-8
        code, out, err = run(capsys, "pipeline", "--prices", str(prices), "--config", str(cfg),
                             "--out", str(tmp_path / "report"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(prices) in err


def test_pipeline_bad_epsilon_exits_2(capsys, tmp_path):
    # a confidence level outside (0, 1) is refused as a bad epsilon is
    cfg = tmp_path / "run.cfg"
    for text, message in (("levels = 0.9\nepsilon = nan\n", "epsilon must be finite and nonnegative"),
                          ("levels = 1.5\n", "confidence level must lie in (0, 1), got 1.5"),
                          ("levels = 0\n", "confidence level must lie in (0, 1), got 0.0"),
                          ("levels = 0.9, nan\n", "confidence level must lie in (0, 1), got nan")):
        cfg.write_text(text)
        code, out, err = run(capsys, "pipeline", "--prices", str(tmp_path / "p.csv"), "--config",
                             str(cfg), "--out", str(tmp_path / "report"))
        assert code == 2
        assert err.startswith(f"error: {message}")


def _modules_cli_import_adds(prefix, *argv, module="risklattice.cli", cwd=None):
    # the modules named prefix* that importing module, then running argv
    # through cli.main if given, loads in a fresh interpreter, beyond those
    # that importing numpy loads
    code = ("import json, sys, numpy\n"
            "before = set(sys.modules)\n"
            f"import {module}\n"
            + (f"import risklattice.cli\nassert risklattice.cli.main({list(argv)!r}) == 0\n"
               if argv else "")
            + "print(json.dumps(sorted(m for m in set(sys.modules) - before"
            f" if m.startswith({prefix!r}))))")
    return json.loads(python("-c", code, cwd=cwd).stdout.splitlines()[-1])


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random loads on a sweep's first chunk; numpy 1.x imports it with
    # numpy itself, so count only what importing risklattice.cli adds
    assert _modules_cli_import_adds("numpy.random") == []


def test_cli_import_leaves_thread_pools_unloaded():
    # sweeps and the pipeline run serially and import no executor
    assert _modules_cli_import_adds("concurrent") == []


# ---------------------------------------------------------------------------
# the import graph: each command imports only the modules it runs

_COMMAND_MODULES = ["risklattice.counterexamples", "risklattice.curvature",
                    "risklattice.pipeline", "risklattice.selftest"]


def _command_modules_loaded(*argv, module="risklattice.cli", cwd=None):
    loaded = _modules_cli_import_adds("risklattice.", *argv, module=module, cwd=cwd)
    return [m for m in _COMMAND_MODULES if m in loaded]


@pytest.mark.parametrize("module", ["risklattice", "risklattice.cli"])
def test_package_import_loads_no_command_module(module):
    assert _command_modules_loaded(module=module) == []


def test_sweep_loads_no_command_module():
    argv = ["sweep", "--measure", "es:0.9", "--atoms", "5", "--trials", "50", "--seed", "0"]
    assert _command_modules_loaded(*argv) == []


def test_check_loads_curvature_only():
    argv = ["check", "--loss", "poly2exp", "--step", "0.01"]
    assert _command_modules_loaded(*argv) == ["risklattice.curvature"]


def test_pipeline_loads_pipeline_only(tmp_path):
    import risklattice.pipeline as pl

    panel = pl.synth_prices(seed=3, n_days=30, n_assets=3, vol=0.02, jump_prob=0.1)
    (tmp_path / "prices.csv").write_text("date,ticker,adj_close\n" + "".join(
        f"{d.isoformat()},{t},{float(panel.closes[i, j])!r}\n"
        for i, d in enumerate(panel.dates) for j, t in enumerate(panel.tickers)))
    (tmp_path / "run.cfg").write_text("window = 10\nlevels = 0.9\n")
    argv = ["pipeline", "--prices", "prices.csv", "--config", "run.cfg", "--out", "out"]
    assert _command_modules_loaded(*argv, cwd=tmp_path) == ["risklattice.pipeline"]
    assert (tmp_path / "out" / "summary.json").is_file()


# every name that importing the package bound when it imported each of its
# modules eagerly, by defining module; the module names are bound too
_PACKAGE_NAMES = {
    "counterexamples": ["aes_counterexample", "aes_matched_grid", "ce_counterexample",
                        "mmd_counterexample", "mmd_pair_from_triple", "shortfall_jump_deficit"],
    "curvature": ["CurvatureProfile", "DominanceVerdict", "curvature_profile",
                  "linear_dominance_check"],
    "errors": ["CounterexampleSearchError", "DataError", "DimensionError", "DomainError",
               "NumericError", "RiskLatticeError"],
    "functions": ["AdjustmentGrid", "DeviationWeight", "DistortionFunction", "LossFunction",
                  "arctan_bend_loss", "cvar_loss", "es_distortion", "exponential_loss",
                  "expectile_loss", "identity_distortion", "identity_weight", "linear_loss",
                  "parse_distortion_spec", "parse_loss_spec", "parse_weight_spec",
                  "piecewise_linear_loss", "poly2exp_loss", "power_distortion", "power_weight",
                  "quadlin_loss", "square_weight", "var_distortion"],
    "lattice": ["GapResult", "SweepReport", "random_pair_sweep", "subadditivity_gap",
                "submodularity_gap", "violation_rate"],
    "measures": ["aes", "certainty_equivalent", "distortion_rho", "es_historical",
                 "expected_loss", "mmd_rho", "oce", "shortfall_rho", "var_historical"],
    "sample": ["as_sample", "pointwise_meet_join"],
    "specs": ["RiskMeasureSpec", "parse_measure_spec"],
}

_PACKAGE_API_CHECK = """
import importlib, json, sys
mode, table = sys.argv[1], json.loads(sys.argv[2])
import risklattice
got = {}
for mod, names in table.items():
    # by attribute, each module before its names; by import, after them
    for name in ([mod, *names] if mode == "attr" else [*names, mod]):
        if mode == "attr":
            got[name] = getattr(risklattice, name)
        else:
            ns = {}
            exec(f"from risklattice import {name} as value", ns)
            got[name] = ns["value"]
for mod, names in table.items():
    module = importlib.import_module("risklattice." + mod)
    assert got[mod] is module, mod
    for name in names:
        assert got[name] is getattr(module, name), name
assert set(got) <= set(dir(risklattice)), set(got) - set(dir(risklattice))
ns = {}
exec("from risklattice import *", ns)
assert sorted(n for n in ns if n != "__builtins__") == sorted(got)
try:
    risklattice.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
print(len(got))
"""


@pytest.mark.parametrize("mode", ["attr", "from"])
def test_package_names_resolve_to_their_modules(mode):
    # in a fresh interpreter, where the lazy names are not yet loaded
    expected = sum(1 + len(names) for names in _PACKAGE_NAMES.values())
    out = python("-c", _PACKAGE_API_CHECK, mode, json.dumps(_PACKAGE_NAMES)).stdout
    assert out == f"{expected}\n"


def test_sweep_calls_through_the_cli_names(capsys, monkeypatch):
    # a benchmark's tracer wraps these two names of cli; a command that
    # imported them inside its function would bypass the wrappers
    from risklattice import cli

    called = []
    for name in ("random_pair_sweep", "parse_measure_spec"):
        def record(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            called.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, record)
    code, _, _ = run(capsys, "sweep", "--measure", "es:0.9", "--atoms", "5", "--trials", "20",
                     "--seed", "0")
    assert code == 0
    assert called == ["parse_measure_spec", "random_pair_sweep"]


def test_counterexample_shortfall_jump(capsys):
    code, out, _ = run(capsys, "counterexample", "--family", "shortfall-jump",
                       "--sminus", "1", "--splus", "2", "--h", "0.001")
    assert code == 0
    assert "-0.05" in out


def test_counterexample_aes(capsys):
    code, out, _ = run(capsys, "counterexample", "--family", "aes", "--atoms", "2000")
    assert code == 0
    assert "violated" in out


def test_counterexample_mmd(capsys):
    code, out, _ = run(capsys, "counterexample", "--family", "mmd", "--atoms", "10")
    assert code == 0
    assert "violated" in out


def test_counterexample_mmd_defaults_violate(capsys):
    # the default grid is 10 atoms, where the first triple's gap is far
    # outside epsilon
    code, out, _ = run(capsys, "counterexample", "--family", "mmd")
    assert code == 0
    assert "on 10 atoms" in out and "(violated)" in out


def test_counterexample_mmd_one_atom_is_usage_error(capsys):
    code, out, err = run(capsys, "counterexample", "--family", "mmd", "--atoms", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "at least 2 atoms" in err


def test_counterexample_mmd_triple_ending_on_last_level(capsys):
    # the first admissible triple on the 1/6 grid is (3/6, 4/6, 5/6)
    code, out, _ = run(capsys, "counterexample", "--family", "mmd", "--atoms", "6")
    assert code == 0
    assert "(violated)" in out


@pytest.mark.parametrize("atoms", [2**62, 2**21 + 1])
@pytest.mark.parametrize("command", [
    ["sweep", "--measure", "es:0.9", "--trials", "1", "--seed", "0"],
    ["counterexample", "--family", "aes"],
    ["counterexample", "--family", "mmd"],
], ids=["sweep", "aes", "mmd"])
def test_too_many_atoms_is_usage_error(capsys, command, atoms):
    # refused before any array is built: numpy would raise "array is too big"
    # or MemoryError, and the MMD search is quadratic in the atom count
    code, out, err = run(capsys, *command, "--atoms", str(atoms))
    assert code == 2 and out == ""
    assert err == f"error: n_atoms must be at most 2097152, got {atoms}\n"


@pytest.mark.parametrize("flag", ["--a=inf", "--a=nan", "--b=-inf"])
def test_aes_counterexample_refuses_a_non_finite_ramp(capsys, flag):
    # refused before any arithmetic: inf - inf warned twice and then failed
    # on the penalties, and ended in a traceback under -W error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "counterexample", "--family", "aes", flag, "--atoms", "100")
    assert code == 2 and out == ""
    assert err.startswith("error: ramp slope a and offset b must be finite") and err.count("\n") == 1


def test_atom_bound_admits_one_chunk_per_trial():
    from risklattice import DomainError, lattice

    assert lattice._MAX_ATOMS == 2**21 == lattice._CHUNK_BYTES // 32
    lattice._check_atom_bound(lattice._MAX_ATOMS)
    with pytest.raises(DomainError, match="at most 2097152"):
        lattice._check_atom_bound(lattice._MAX_ATOMS + 1)


def test_usage_error_exit_two(capsys):
    assert main(["sweep", "--measure", "es:0.95"]) == 2  # missing required flags
    assert main(["no-such-command"]) == 2
    assert main(["sweep", "--measure", "banana:1", "--atoms", "5", "--trials", "5",
                 "--seed", "1"]) == 2
    # an argument after an argument-free loss is refused, not dropped
    assert main(["sweep", "--measure", "ce:poly2exp:3", "--atoms", "10", "--trials", "10",
                 "--seed", "0"]) == 2


def test_one_parser_serves_many_commands(capsys):
    # main reuses one parser in a process: each command on it exits and
    # prints as the same argv does on a parser built for it alone
    from risklattice import cli

    sweep = ["sweep", "--measure", "var:0.95", "--atoms", "50", "--trials", "300", "--seed", "3"]
    commands = [
        sweep,
        ["--format", "json", *sweep],
        ["--format", "csv", *sweep],
        ["check", "--loss", "exp:1", "--step", "0.01"],
        ["counterexample", "--family", "mmd"],
        ["sweep", "--measure", "es:0.95"],  # usage error: required flags missing
        ["--threads", "0", *sweep],
        sweep,  # the first command again, after the refusals
    ]
    cli._parser.cache_clear()
    parser = cli._parser()
    shared = [run(capsys, *argv) for argv in commands]
    assert cli._parser() is parser
    fresh = []
    for argv in commands:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 2, 2, 0]
    assert "worst pair x" in shared[0][1] and "usage:" in shared[5][2]
    assert cli.build_parser() is not cli.build_parser()


def test_unknown_flag_rejected(capsys):
    assert main(["check", "--loss", "exp:1", "--frobnicate"]) == 2


def test_selftest_filtered(capsys):
    code, out, _ = run(capsys, "selftest", "--only", "lattice.identity")
    assert code == 0
    assert "ok" in out and "lattice.identity" in out


def test_law_invariance_detail_counts_its_functionals():
    from risklattice.selftest import run_selftest

    [result] = run_selftest(only="measures.law_invariance")
    assert result.passed and result.detail.startswith("8 functionals,")


def test_selftest_filter_matching_nothing_is_a_usage_error(capsys):
    code, out, err = run(capsys, "selftest", "--only", "zzz")
    assert (code, out) == (2, "")
    assert err == "error: no checks match --only 'zzz'\n"


def test_selftest_checks_fail_under_python_O():
    # a check must fail when the library breaks, also with assert statements
    # stripped: here ES reads -1e9, below every VaR
    code = ("import sys\n"
            "from risklattice import selftest\n"
            "selftest.es_historical = lambda x, p: -1e9\n"
            "[r] = selftest.run_selftest(only='measures.es_dominates_var')\n"
            "print(sys.flags.optimize, r.passed)")
    assert python("-O", "-c", code).stdout.strip() == "1 False"


def test_pipeline_end_to_end(tmp_path, capsys):
    import risklattice.pipeline as pl

    panel = pl.synth_prices(seed=42, n_days=40, n_assets=3, vol=0.02, jump_prob=0.1)
    prices = tmp_path / "prices.csv"
    lines = ["date,ticker,adj_close"]
    for i, d in enumerate(panel.dates):
        for j, t in enumerate(panel.tickers):
            lines.append(f"{d.isoformat()},{t},{panel.closes[i, j]:.12f}")
    prices.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = 15\nlevels = 0.9\nepsilon = 1e-8\nseed = 42\n")
    out_dir = tmp_path / "report"

    code, out, _ = run(capsys, "pipeline", "--prices", str(prices), "--config", str(cfg),
                       "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "violations.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert "ES(0.9)/submodularity: mean daily rate 0.0000" in out


def test_pipeline_bad_config_value_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("levels = 0.9\nwindow = abc\n")
    code, out, err = run(capsys, "pipeline", "--prices", str(tmp_path / "p.csv"), "--config",
                         str(cfg), "--out", str(tmp_path / "report"))
    assert code == 2
    assert err.startswith("error: ") and "run.cfg:2: bad value for 'window'" in err


def test_pipeline_notes_each_correlation_it_leaves_out(tmp_path, capsys):
    # 12 days give 11 losses and, at window 10, a table of 2 dates: too few
    # to correlate VaR(0.9)'s two series, so correlations.csv holds only its
    # header and stderr says why, while the exit code stays 0
    import risklattice.pipeline as pl

    panel = pl.synth_prices(seed=4, n_days=12, n_assets=3, vol=0.02, jump_prob=0.1)
    prices = tmp_path / "prices.csv"
    prices.write_text("date,ticker,adj_close\n" + "".join(
        f"{d.isoformat()},{t},{float(panel.closes[i, j])!r}\n"
        for i, d in enumerate(panel.dates) for j, t in enumerate(panel.tickers)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = 10\nlevels = 0.9\n")
    code, out, err = run(capsys, "pipeline", "--prices", str(prices), "--config", str(cfg),
                         "--out", str(tmp_path / "report"))
    assert code == 0
    assert out.startswith("tested 18 (date, pair, measure) cells; 0 violations\n")
    assert err == ("note: correlation of VaR(0.9)/submodularity and VaR(0.9)/subadditivity"
                   " left out: need >= 3 common dates, got 2\n")
    assert (tmp_path / "report" / "correlations.csv").read_text() == \
        "series_a,series_b,pearson,spearman,dcor\n"


@pytest.mark.parametrize("line", [1, 3])
def test_pipeline_oversized_field_exits_2(capsys, tmp_path, line):
    # a field over csv.field_size_limit() makes csv.reader raise csv.Error,
    # which the loader reports as a DataError naming the file and its line
    cfg = tmp_path / "run.cfg"
    cfg.write_text("levels = 0.9\n")
    rows = ["date,ticker,adj_close", "2024-01-02,A,1.0", "2024-01-03,A,1.1"]
    rows[line - 1] = f"2024-01-03,{'T' * 140_000},1.0"
    prices = tmp_path / "prices.csv"
    prices.write_text("\n".join(rows) + "\n")
    code, out, err = run(capsys, "pipeline", "--prices", str(prices), "--config", str(cfg),
                         "--out", str(tmp_path / "report"))
    assert code == 2
    assert out == ""
    assert err == f"error: {prices}:{line}: field larger than field limit (131072)\n"


# ---------------------------------------------------------------------------
# the exit path: importing the CLI registers gc.freeze with atexit


def test_cli_freezes_nothing_while_the_process_runs(capsys):
    import gc

    code, _, _ = run(capsys, "sweep", "--measure", "es:0.9", "--atoms", "5", "--trials", "50",
                     "--seed", "0")
    assert code == 0
    assert gc.get_freeze_count() == 0


def test_cli_freezes_the_heap_at_exit():
    # exit handlers run last in, first out: a probe registered before the
    # import runs after the CLI's freeze
    code = ("import atexit, gc\n"
            "atexit.register(lambda: print('at exit', gc.get_freeze_count() > 0))\n"
            "import risklattice.cli\n"
            "print('running', gc.get_freeze_count())\n")
    assert python("-c", code).stdout == "running 0\nat exit True\n"


# json and text (which prints the worst pair): two ce:arctan-bend sweeps that
# differ only in their seed, one of 500 trials, then a heavy_tail and a
# two_point sweep at 11 atoms (their per-vector draws), and the sweep-mix
# measures and ce:arctan-bend (no closed form: the bracketed solver) at 50
# atoms.  Each fresh process draws and sorts its pairs; this one keeps the
# last sorted rows and evaluates them for the next sweep on the same pairs
SWEEPS = [("json", "ce:arctan-bend", 20, "gaussian", 200, seed) for seed in (0, 3)] + [
    ("text", "ce:arctan-bend", 50, "gaussian", 500, 0)] + [
    (fmt, measure, atoms, generator, 4000, 0) for fmt in ("json", "text")
    for measure, atoms, generator in [
        ("shortfall:expectile:1", 11, "heavy_tail"), ("mmd:square:es:0.5", 11, "two_point"),
        *((m, 50, "gaussian") for m in ["es:0.95", "var:0.95", "aes:0.6:0,0.9:0.01",
                                        "dist:pow:0.5", "mmd:square:es:0.5", "ce:exp:1",
                                        "ce:arctan-bend", "shortfall:expectile:1",
                                        "shortfall:poly2exp", "oce:exp:1"])]]


def _sweep_argv(fmt, measure, atoms, generator, trials, seed):
    return ["--format", fmt, "sweep", "--measure", measure, "--atoms", str(atoms), "--trials",
            str(trials), "--seed", str(seed), "--generator", generator]


@pytest.fixture(scope="module")
def fresh_sweeps(start):
    return start({case: [*DEV, "-m", "risklattice.cli", *_sweep_argv(*case)] for case in SWEEPS})


@pytest.mark.parametrize("case", SWEEPS, ids=lambda case: "-".join(map(str, case)))
def test_sweep_of_a_cli_process_matches_in_process(capsys, fresh_sweeps, case):
    from risklattice import lattice

    child, argv = fresh_sweeps[case].result(), _sweep_argv(*case)
    assert (child.returncode, child.stdout, child.stderr) == (*run(capsys, *argv)[:2], "")
    # the kept rows: trial i's x, y, meet and join, sorted, are rows 4 i to 4 i + 3
    _, measure, atoms, generator, trials, seed = case
    xs, ys = lattice._draw_pairs(atoms, 0, trials, seed, generator)[:, :2].transpose(1, 0, 2)
    batch = np.stack([xs, ys, np.minimum(xs, ys), np.maximum(xs, ys)], axis=1)
    rows = lattice._pair_cache[1]
    assert not rows.flags.writeable and np.array_equal(rows, np.sort(batch.reshape(-1, atoms), 1))


def _prices_csv(panel, crlf):
    """A panel's price file, two of its tickers holding a non-ASCII letter and
    a '-'; with ``crlf``, CRLF line ends, a byte order mark and quoted tickers."""
    names = {"A01": "BRK-B", "A03": "Çam"}
    rows = [("date", "ticker", "adj_close")] + [
        (d.isoformat(), names.get(t, t), repr(float(panel.closes[i, j])))
        for i, d in enumerate(panel.dates) for j, t in enumerate(panel.tickers)]
    if crlf:
        return b"\xef\xbb\xbf" + "".join(f'{d},"{t}",{p}\r\n' for d, t, p in rows).encode()
    return "".join(f"{d},{t},{p}\n" for d, t, p in rows).encode()


# days, tickers, jump probability, window, levels, and whether the fresh
# process reads its panel with CRLF line ends (this one always reads LF).  The
# window-500 run sorts its windows in shared blocks, which window 60 never does
PIPELINES = {"window-20": (60, 4, 0.05, 20, "0.9, 0.95", False),
             "crlf": (120, 6, 0.02, 60, "0.95", True),
             "window-500": (700, 4, 0.02, 500, "0.95", False)}


@pytest.mark.parametrize("case", PIPELINES)
def test_pipeline_of_a_cli_process_writes_the_same_reports(tmp_path, capsys, monkeypatch, case):
    import risklattice.pipeline as pl

    days, tickers, jumps, window, levels, crlf = PIPELINES[case]
    panel = pl.synth_prices(seed=7, n_days=days, n_assets=tickers, vol=0.01, jump_prob=jumps)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"window = {window}\nlevels = {levels}\naes_levels = 0.6, 0.9\n"
                   "aes_penalties = 0, 0.01\n")
    argv = ["pipeline", "--prices", "prices.csv", "--config", str(cfg), "--out", "out"]
    for name, ends in (("child", crlf), ("here", False)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "prices.csv").write_bytes(_prices_csv(panel, ends))
    child = python(*DEV, "-m", "risklattice.cli", *argv, cwd=tmp_path / "child", check=False)
    monkeypatch.chdir(tmp_path / "here")
    assert (child.returncode, child.stdout, child.stderr) == (*run(capsys, *argv)[:2], "")
    for report in ("violations.csv", "daily_rates.csv", "correlations.csv", "summary.json"):
        written = (tmp_path / "child" / "out" / report).read_bytes()
        assert written == (tmp_path / "here" / "out" / report).read_bytes(), report
    # violations.csv reads back as the pair tests of its panel and config
    losses = pl.build_loss_panel(pl.load_prices_csv(tmp_path / "child" / "prices.csv"))
    assert {"BRK-B", "Çam"} <= set(losses.tickers)
    table = pl.pairwise_day_tests(losses, pl.config_to_rolling(pl.load_config(cfg)))
    assert pl.read_violations_csv(tmp_path / "child" / "out" / "violations.csv") == table


# Each command imports its own modules as it runs, which in-process tests cannot
# see once another test has loaded them.  An atom count no array can hold (numpy
# refuses it without allocating), a self-test filter that matches no check and
# a non-finite ramp are usage errors
CLI = ["-m", "risklattice.cli"]
CLEAN_EXITS = {"selftest": [*CLI, "selftest"], "demo": [str(ROOT / "demos" / "05_pipeline.py")],
               "check": [*CLI, "check", "--loss", "poly2exp"],
               "aes": [*CLI, "counterexample", "--family", "aes", "--atoms", "2000"],
               "mmd": [*CLI, "counterexample", "--family", "mmd"],
               "shortfall-jump": [*CLI, "counterexample", "--family", "shortfall-jump"]}
ATOMS = ["--atoms", str(2**62)]
USAGE_ERRORS = {"sweep-atoms": [*CLI, "sweep", "--measure", "es:0.9", "--trials", "1", "--seed",
                                "0", *ATOMS],
                "aes-atoms": [*CLI, "counterexample", "--family", "aes", *ATOMS],
                "mmd-atoms": [*CLI, "counterexample", "--family", "mmd", *ATOMS],
                "selftest-only": [*CLI, "selftest", "--only", "no-such-check"],
                "aes-ramp": [*CLI, "counterexample", "--family", "aes", "--a", "inf",
                             "--atoms", "100"]}


@pytest.fixture(scope="module")
def fresh_commands(start):
    return start({case: [*DEV, *argv] for case, argv in {**CLEAN_EXITS, **USAGE_ERRORS}.items()})


@pytest.mark.parametrize("case", [*CLEAN_EXITS, *USAGE_ERRORS])
def test_cli_process_exits_cleanly(fresh_commands, case):
    child = fresh_commands[case].result()
    if case in CLEAN_EXITS:
        assert (child.returncode, child.stderr) == (0, "")
    else:  # exit code 2 and one error: line, with no traceback and no warning
        assert child.returncode == 2 and re.fullmatch("error: .*\n", child.stderr), child.stderr


# 10,001 atoms x 1,000 trials: chunks of 209 trials keep the sorted rows at 64
# MB (one 1,000-trial chunk peaked at 533 MB), and kernels run in blocks of
# about 5 MB (whole-chunk calls peaked at 175 MB to 430 MB)
PEAK_BOUNDS_MB = {"es:0.95": 300, "shortfall:expectile:1": 160, "shortfall:quadlin": 160,
                  "ce:exp:1": 160, "oce:exp:1": 160, "oce:expectile:1": 160,
                  "mmd:square:es:0.5": 160, "ce:arctan-bend": 160}
# a sweep that prints its own peak RSS last: a spawned child's ru_maxrss
# starts at its parent's high-water mark, which here is the pytest process's
_PEAK_RSS = """import atexit, sys
def peak():
    with open("/proc/self/status") as status:
        print(*(line for line in status if line.startswith("VmHWM:")), end="", file=sys.stderr)
atexit.register(peak)
from risklattice.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.fixture(scope="module")
def sweep_peaks(start):
    return start({measure: ["-W", "error", "-c", _PEAK_RSS, "sweep", "--measure", measure,
                            "--atoms", "10001", "--trials", "1000", "--seed", "0"]
                  for measure in PEAK_BOUNDS_MB})


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc/self/status")
@pytest.mark.parametrize("measure", PEAK_BOUNDS_MB)
def test_wide_sweep_stays_within_its_memory_bound(sweep_peaks, measure):
    child = sweep_peaks[measure].result()
    peak_kb = re.fullmatch(r"VmHWM:\s*(\d+) kB\n", child.stderr)
    assert child.returncode == 0 and peak_kb, child.stderr
    peak_mb = int(peak_kb[1]) / 1024
    assert peak_mb < PEAK_BOUNDS_MB[measure], f"{measure} sweep peaked at {peak_mb:.1f} MB"
