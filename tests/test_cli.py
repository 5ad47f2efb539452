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
}


@pytest.mark.parametrize("measure, generator", sorted(SWEEP_GOLDEN))
def test_sweep_text_output_golden(capsys, measure, generator):
    code, out, _ = run(capsys, "--format", "text", "sweep", "--measure", measure, "--atoms",
                       "11", "--trials", "500", "--seed", "0", "--generator", generator)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_GOLDEN[measure, generator]


def test_sweep_negative_seed_exits_2(capsys):
    code, out, err = run(capsys, "sweep", "--measure", "es:0.95", "--atoms", "10", "--trials",
                         "10", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: seed must be a nonnegative integer\n"


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
    cfg = tmp_path / "run.cfg"
    cfg.write_text("levels = 0.9\nepsilon = nan\n")
    code, out, err = run(capsys, "pipeline", "--prices", str(tmp_path / "p.csv"), "--config",
                         str(cfg), "--out", str(tmp_path / "report"))
    assert code == 2
    assert err.startswith("error: epsilon must be finite and nonnegative")


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random loads on a sweep's first chunk; numpy 1.x imports it with
    # numpy itself, so count only what importing risklattice.cli adds
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import risklattice.cli\n"
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.random')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


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


def test_unknown_flag_rejected(capsys):
    assert main(["check", "--loss", "exp:1", "--frobnicate"]) == 2


def test_selftest_filtered(capsys):
    code, out, _ = run(capsys, "selftest", "--only", "lattice.identity")
    assert code == 0
    assert "ok" in out and "lattice.identity" in out


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
