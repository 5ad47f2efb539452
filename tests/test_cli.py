import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from risklattice.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python(*args, cwd=None, check=True):
    """Run a fresh interpreter on this checkout's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, check=check, timeout=60)


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


def _modules_cli_import_adds(prefix):
    # the modules named prefix* that importing risklattice.cli loads in a
    # fresh interpreter, beyond those that importing numpy loads
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import risklattice.cli\n"
            f"print(sorted(m for m in set(sys.modules) - before if m.startswith({prefix!r})))")
    return python("-c", code).stdout.strip()


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random loads on a sweep's first chunk; numpy 1.x imports it with
    # numpy itself, so count only what importing risklattice.cli adds
    assert _modules_cli_import_adds("numpy.random") == "[]"


def test_cli_import_leaves_thread_pools_unloaded():
    # sweeps and the pipeline run serially and import no executor
    assert _modules_cli_import_adds("concurrent") == "[]"


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


def test_sweep_of_a_cli_process_matches_in_process(capsys):
    # -X dev -W error: an unclosed file or a warning at exit fails the run
    argv = ["--format", "json", "sweep", "--measure", "ce:arctan-bend", "--atoms", "20",
            "--trials", "200", "--seed", "3"]
    child = python("-X", "dev", "-W", "error", "-m", "risklattice.cli", *argv, check=False)
    assert (child.returncode, child.stdout, child.stderr) == (*run(capsys, *argv)[:2], "")


def test_pipeline_of_a_cli_process_writes_the_same_reports(tmp_path, capsys, monkeypatch):
    import risklattice.pipeline as pl

    panel = pl.synth_prices(seed=7, n_days=60, n_assets=4, vol=0.01, jump_prob=0.05)
    prices = tmp_path / "prices.csv"
    prices.write_text("date,ticker,adj_close\n" + "".join(
        f"{d.isoformat()},{t},{float(panel.closes[i, j])!r}\n"
        for i, d in enumerate(panel.dates) for j, t in enumerate(panel.tickers)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = 20\nlevels = 0.9, 0.95\naes_levels = 0.6, 0.9\n"
                   "aes_penalties = 0, 0.01\n")
    argv = ["pipeline", "--prices", str(prices), "--config", str(cfg), "--out", "out"]
    for name in ("child", "here"):
        (tmp_path / name).mkdir()
    child = python("-X", "dev", "-W", "error", "-m", "risklattice.cli", *argv,
                   cwd=tmp_path / "child", check=False)
    monkeypatch.chdir(tmp_path / "here")
    assert (child.returncode, child.stdout, child.stderr) == (*run(capsys, *argv)[:2], "")
    for report in ("violations.csv", "daily_rates.csv", "correlations.csv", "summary.json"):
        written = (tmp_path / "child" / "out" / report).read_bytes()
        assert written == (tmp_path / "here" / "out" / report).read_bytes(), report
