import json
import os
import subprocess
import sys

import pytest

from damctl import cli, exact
from damctl.distributions import dist_from_dict

MM1_FLAGS = ["--lambda", "1", "--b1", "exp:1.25", "--b2", "exp:2",
             "--level", "5", "--j1", "1", "--j2", "1"]


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json(capsys):
    code, out, _ = run(capsys, ["analyze"] + MM1_FLAGS)
    assert code == 0
    rec = json.loads(out)
    assert rec["p1"] == pytest.approx(0.237329, abs=1e-6)
    assert rec["p2"] == pytest.approx(0.062215, abs=1e-6)
    assert rec["cost"] == pytest.approx(1.497720, abs=1e-5)
    assert rec["q_l"] == pytest.approx(3.68928, rel=1e-9)


def test_analyze_level_one(capsys):
    code, out, _ = run(capsys, ["analyze", "--lambda", "1", "--b1", "exp:1.25",
                                "--b2", "exp:2", "--level", "1"])
    assert code == 0
    rec = json.loads(out)
    assert rec["q_l"] == pytest.approx(1.8, rel=1e-9)  # 1/r_0, r_0 = 5/9


def test_missing_b2_exits_2(capsys):
    code, _, err = run(capsys, ["analyze", "--lambda", "1", "--b1", "exp:1.25",
                                "--level", "5"])
    assert code == 2
    assert "b2" in err


def test_numeric_degeneracy_exits_3(capsys):
    code, _, err = run(capsys, ["analyze", "--lambda", "1", "--b1", "det:800",
                                "--b2", "exp:2", "--level", "5"])
    assert code == 3
    assert "numeric error" in err


def test_text_and_json_agree(capsys):
    _, out_json, _ = run(capsys, ["analyze"] + MM1_FLAGS)
    _, out_text, _ = run(capsys, ["analyze"] + MM1_FLAGS + ["--format", "text"])
    rec = json.loads(out_json)
    text_vals = {}
    for line in out_text.splitlines():
        key, _, val = line.partition(" = ")
        text_vals[key] = val
    for key in ("p1", "p2", "cost", "q_l", "e_nu2"):
        assert float(text_vals[key]) == rec[key]


def test_json_round_trip(capsys):
    _, out, _ = run(capsys, ["analyze"] + MM1_FLAGS)
    rec = json.loads(out)
    model = exact.DamModel(lam=rec["model"]["lambda"],
                           b1=dist_from_dict(rec["model"]["b1"]),
                           b2=dist_from_dict(rec["model"]["b2"]),
                           level=rec["model"]["level"])
    p1, p2 = exact.stationary_probs(model)
    assert rec["p1"] == float("%.12g" % p1)
    assert rec["p2"] == float("%.12g" % p2)


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = {"lambda": 1.0, "b1": {"type": "exp", "rate": 1.25},
           "b2": {"type": "exp", "rate": 2.0}, "level": 1, "j1": 1.0, "j2": 1.0}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, ["analyze", "--config", str(path)])
    assert code == 0
    assert json.loads(out)["model"]["level"] == 1
    code, out, _ = run(capsys, ["analyze", "--config", str(path), "--level", "5"])
    assert code == 0
    rec = json.loads(out)
    assert rec["model"]["level"] == 5
    assert rec["p1"] == pytest.approx(0.237329, abs=1e-6)


def test_optimize_balanced(capsys):
    code, out, _ = run(capsys, ["optimize", "--lambda", "1", "--b1", "exp:1",
                                "--b2", "exp:2", "--level", "1000",
                                "--j1", "1", "--j2", "1"])
    assert code == 0
    rec = json.loads(out)
    assert rec["regime"] == "critical"
    assert rec["c_star"] == 0.0
    assert rec["predicted_cost"] == 2.0


def test_optimize_upper_penalized(capsys):
    code, out, _ = run(capsys, ["optimize", "--lambda", "1", "--b1", "exp:1",
                                "--b2", "exp:2", "--level", "1000",
                                "--j1", "2", "--j2", "1"])
    assert code == 0
    rec = json.loads(out)
    assert rec["regime"] == "upper_penalized"
    assert rec["c_star"] > 0
    assert rec["rho1_star"] == pytest.approx(1.0 + rec["c_star"] / 1000)


def test_optimize_exact_mode(capsys):
    code, out, _ = run(capsys, ["optimize", "--lambda", "1", "--b1", "exp:1",
                                "--b2", "exp:2", "--level", "100",
                                "--j1", "1", "--j2", "1", "--mode", "exact"])
    assert code == 0
    rec = json.loads(out)
    assert rec["mode"] == "exact"
    assert abs(rec["rho1_star"] - 1.0) <= 0.1


def test_verify_upper_csv(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, _, _ = run(capsys, ["verify", "--lambda", "1", "--b1", "exp:1",
                              "--b2", "exp:2", "--regime", "upper", "--c", "1",
                              "--levels", "500,1000,2000",
                              "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "L,delta,C,p1_exact,p1_asym,rel_err_p1,p2_exact,p2_asym,rel_err_p2"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["500", "1000", "2000"]
    errs = [float(r[5]) for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.05


def test_verify_critical(capsys):
    code, out, _ = run(capsys, ["verify", "--lambda", "1", "--b1", "exp:1",
                                "--b2", "exp:2", "--regime", "critical",
                                "--levels", "500,2000"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    for row in rows:
        level, p1_exact = float(row[0]), float(row[3])
        assert level * p1_exact == pytest.approx(1.0, rel=2e-2)


def test_verify_lower_reports_discrepancy(capsys):
    code, out, err = run(capsys, ["verify", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--regime", "lower", "--c", "1"])
    assert code == 0
    assert len(out.splitlines()) == 4  # header + 3 default levels
    assert "ground truth" in err


def test_simulate_reproducible_and_close(capsys):
    argv = ["simulate"] + MM1_FLAGS + ["--cycles", "50000", "--seed", "7"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    rec = json.loads(out1)
    assert rec["seed"] == 7
    assert all(v > 0 for v in rec["half_widths"].values())
    assert abs(rec["p1_hat"] - rec["exact"]["p1"]) <= 3 * rec["half_widths"]["p1"]


def test_sweep_monotone_and_limits(capsys):
    code, out, _ = run(capsys, ["sweep", "--lambda", "1", "--b1", "exp:1",
                                "--b2", "exp:2", "--j1", "1", "--j2", "1",
                                "--c-grid", "0:4:0.25"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "C,J_upper,J_lower"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert rows[0][1] == 2.0  # j1 * rho12_tilde at C = 0 under balanced costs
    uppers = [r[1] for r in rows]
    assert all(b >= a for a, b in zip(uppers, uppers[1:]))


def test_sweep_empty_grid_exits_2(capsys):
    code, _, _ = run(capsys, ["sweep", "--lambda", "1", "--b1", "exp:1",
                              "--b2", "exp:2", "--c-grid", ","])
    assert code == 2


def test_unknown_command_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "--lambda", "nan", "--b1", "exp:1.25", "--b2", "exp:2", "--level", "5"],
    ["analyze", "--lambda", "1", "--b1", "exp:inf", "--b2", "exp:2", "--level", "5"],
    ["analyze", "--lambda", "1", "--b1", "gamma:nan:1", "--b2", "exp:2", "--level", "5"],
    ["analyze"] + MM1_FLAGS[:-2] + ["--j2", "inf"],
    ["optimize", "--lambda", "1", "--b1", "exp:1", "--b2", "exp:2",
     "--level", "100", "--c-max", "nan"],
    ["sweep", "--lambda", "1", "--b1", "exp:1", "--b2", "exp:2",
     "--c-grid", "0,nan"],
])
def test_non_finite_input_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "config error" in err and "finite" in err


def test_optimize_zero_c_range_exits_0(capsys):
    code, out, _ = run(capsys, ["optimize", "--lambda", "1", "--b1", "exp:1",
                                "--b2", "exp:2", "--j1", "2", "--j2", "1",
                                "--level", "100", "--c-max", "0"])
    assert code == 0
    assert json.loads(out)["c_star"] == 0.0


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_simulate_seed_out_of_range_exits_2(capsys, seed):
    code, out, err = run(capsys, ["simulate"] + MM1_FLAGS +
                         ["--cycles", "100", "--seed", seed])
    assert code == 2
    assert out == ""
    assert "config error" in err and "seed" in err


def test_extended_precision_degeneracy_exits_3(capsys, monkeypatch):
    monkeypatch.setenv(exact.PRECISION_ENV_VAR, "30")
    code, _, err = run(capsys, ["analyze", "--lambda", "1", "--b1", "det:800",
                                "--b2", "exp:2", "--level", "5"])
    assert code == 3
    assert "numeric error" in err


def test_commands_do_not_import_scipy(tmp_path):
    """Every command runs on numpy and mpmath alone; scipy is test-only."""
    script = """
import contextlib, io, sys
from damctl import cli
model = ["--lambda", "1", "--b1", "exp:1", "--b2", "exp:2"]
runs = [
    ["analyze"] + model + ["--level", "50"],
    ["optimize"] + model + ["--level", "20", "--mode", "exact"],
    ["verify"] + model + ["--regime", "upper", "--levels", "50,100"],
    ["simulate"] + model + ["--level", "5", "--cycles", "256"],
    ["sweep"] + model + ["--c-grid", "0:1:0.5"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
