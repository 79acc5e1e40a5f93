import json
import os
import subprocess
import sys
import warnings

import pytest

from damctl import cli, exact, kernels, simulator
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
    ["sweep", "--lambda", "1", "--b1", "exp:1", "--b2", "exp:2",
     "--c-grid", "0:inf:1"],
    ["sweep", "--lambda", "1", "--b1", "exp:1", "--b2", "exp:2",
     "--c-grid", "0:1:nan"],
])
def test_non_finite_input_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "config error" in err and "finite" in err


CONFIG = {"lambda": 1, "b1": {"type": "exp", "rate": 1.25},
          "b2": {"type": "exp", "rate": 2}, "level": 5, "regime": "upper"}


def _run_config(tmp_path, capsys, cmd, **fields):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(CONFIG, **fields)))
    return run(capsys, [cmd, "--config", str(path)])


@pytest.mark.parametrize("cmd, field, value", [
    ("analyze", "b1", {"type": "erlang", "shape": 2.5, "rate": 2.5}),
    ("analyze", "b1", {"type": "erlang", "shape": True, "rate": 2.5}),
    ("analyze", "level", 10.7),
    ("analyze", "level", True),
    ("verify", "levels", [100, 200.5]),
    ("verify", "levels", 100.5),
    ("simulate", "cycles", 1000.5),
    ("simulate", "seed", 7.5),
    ("simulate", "batches", True),
])
def test_non_integer_input_exits_2(tmp_path, capsys, cmd, field, value):
    code, out, err = _run_config(tmp_path, capsys, cmd, **{field: value})
    assert code == 2
    assert out == ""
    assert "config error" in err and "integer" in err


@pytest.mark.parametrize("cmd, fields", [
    ("analyze", {"lambda": [1]}),
    ("analyze", {"b1": {"type": "hyper", "weights": 5, "rates": [1, 2]}}),
    ("analyze", {"b1": {"type": "hyper", "weights": [0.5, 0.5],
                        "rates": [1, None]}}),
    ("analyze", {"b1": {"type": "exp", "rate": True}}),
    ("analyze", {"j1": {"value": 1}}),
    ("verify", {"c": [1]}),
    ("sweep", {"c_grid": 5}),
    ("sweep", {"c_grid": [0, [1]]}),
])
def test_wrongly_typed_config_exits_2(tmp_path, capsys, cmd, fields):
    code, out, err = _run_config(tmp_path, capsys, cmd, **fields)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ") and "Traceback" not in err


def test_integral_floats_are_integers(tmp_path, capsys):
    code, out, _ = _run_config(
        tmp_path, capsys, "analyze", level=5.0,
        b1={"type": "erlang", "shape": 2.0, "rate": 2.5})
    assert code == 0
    assert '"b1": {"type": "erlang", "shape": 2, "rate": 2.5}' in out
    assert '"level": 5}' in out
    code, out, _ = _run_config(tmp_path, capsys, "verify", levels=100)
    assert code == 0
    assert out.splitlines()[1].startswith("100,")


@pytest.mark.parametrize("grid", ["0:1e308:1e-308", "0:1e9:1e-9",
                                  "-1e308:1e308:1", "0:1000000:1"])
def test_c_grid_point_count_is_bounded(capsys, grid):
    # refused before the list is built: 0:1e9:1e-9 alone asks for 1e18 points
    code, out, err = run(capsys, ["sweep", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--c-grid=" + grid])
    assert code == 2
    assert out == ""
    assert "config error" in err and "points" in err


def test_c_grid_of_many_points_runs(capsys):
    code, out, err = run(capsys, ["sweep", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--c-grid", "0:1:1e-4"])
    assert code == 0, err
    assert len(out.splitlines()) == 1 + 10001


def test_verify_level_zero_exits_2(capsys):
    code, out, err = run(capsys, ["verify", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--regime", "upper",
                                  "--levels", "100,0"])
    assert code == 2
    assert out == ""
    assert "config error" in err and "levels" in err


def _count_recurrences(monkeypatch):
    calls = []
    real = kernels.busy_period_recurrence

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)
    monkeypatch.setattr(kernels, "busy_period_recurrence", counting)
    return calls


class _Started(Exception):
    pass


def _never_simulate(config):
    raise _Started


def test_simulate_refuses_unbounded_work(capsys, monkeypatch):
    # rho1 = 2 at L = 3000: one busy period draws about 2^3000 services
    monkeypatch.setattr(simulator, "simulate", _never_simulate)
    calls = _count_recurrences(monkeypatch)
    code, out, err = run(capsys, ["simulate", "--lambda", "1", "--b1", "exp:0.5",
                                  "--b2", "exp:2", "--level", "3000",
                                  "--cycles", "1000"])
    assert code == 2
    assert out == ""
    assert "config error" in err and "services" in err
    assert calls == [3000]


def test_simulate_work_bound_counts_cycles(capsys, monkeypatch):
    # this model draws about 4.2 services per cycle, so 10^8 cycles pass the
    # bound of 10^9 services and 3 x 10^8 do not
    monkeypatch.setattr(simulator, "simulate", _never_simulate)
    flags = ["simulate"] + MM1_FLAGS[:8]
    code, _, err = run(capsys, flags + ["--cycles", str(3 * 10 ** 8)])
    assert code == 2 and "services" in err
    with pytest.raises(_Started):
        cli.main(flags + ["--cycles", str(10 ** 8)])


def test_simulate_runs_one_recurrence(capsys, monkeypatch):
    calls = _count_recurrences(monkeypatch)
    code, _, err = run(capsys, ["simulate"] + MM1_FLAGS[:8] + ["--cycles", "256"])
    assert code == 0, err
    assert calls == [5]


def test_optimize_zero_c_range_exits_0(capsys):
    code, out, _ = run(capsys, ["optimize", "--lambda", "1", "--b1", "exp:1",
                                "--b2", "exp:2", "--j1", "2", "--j2", "1",
                                "--level", "100", "--c-max", "0"])
    assert code == 0
    assert json.loads(out)["c_star"] == 0.0


def test_optimize_negative_c_range_exits_2(capsys):
    # a reversed search interval would recommend C < 0 (rho1 > 1 in the
    # lower-penalized regime)
    code, out, err = run(capsys, ["optimize", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--j1", "0.2", "--j2", "1",
                                  "--level", "100", "--c-max=-1"])
    assert code == 2
    assert out == ""
    assert "config error" in err and "c_max" in err


@pytest.mark.parametrize("grid", ["-1,0,1", "-2:0:1"])
def test_sweep_negative_c_exits_2(capsys, grid):
    code, out, err = run(capsys, ["sweep", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--c-grid=" + grid])
    assert code == 2
    assert out == ""
    assert "config error" in err and ">= 0" in err


@pytest.mark.parametrize("c", ["0", "-1"])
@pytest.mark.parametrize("regime", ["upper", "lower"])
def test_verify_non_positive_c_exits_2(capsys, regime, c):
    code, out, err = run(capsys, ["verify", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--regime", regime,
                                  "--c=" + c, "--levels", "100"])
    assert code == 2
    assert out == ""
    assert "config error" in err and "C > 0" in err


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


def test_asymptotic_paths_do_not_import_numpy(tmp_path):
    """Start-up, the asymptotic commands and config errors run without numpy;
    the first command that needs it pins OpenBLAS to one thread."""
    script = """
import contextlib, io, os, sys
def numpy_loaded():
    return any(m.split(".")[0] == "numpy" for m in sys.modules)
import damctl.cli
from damctl import cli, CostModel, DamModel, optimize_asymptotic
assert not numpy_loaded(), "import"
model = ["--lambda", "1", "--b1", "exp:1", "--b2", "exp:2"]
runs = [
    (["optimize"] + model + ["--level", "1000", "--j1", "2"], 0),
    (["optimize"] + model + ["--level", "1000", "--j1", "0.5", "--c-max", "3"], 0),
    (["sweep"] + model + ["--c-grid", "0:4:0.25"], 0),
    (["sweep"] + model + ["--c-grid", "0:inf:1"], 2),
    (["analyze", "--lambda", "nan", "--b1", "exp:1", "--b2", "exp:2",
      "--level", "5"], 2),
    (["simulate"] + model + ["--level", "5", "--seed", "-1"], 2),
    (["optimize"] + model + ["--level", "5", "--mode", "exact",
      "--rho1-max", "inf"], 2),
    (["--help"], 0),
]
for argv, want in runs:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == want, argv
    assert not numpy_loaded(), argv
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["analyze"] + model + ["--level", "5"]) == 0
assert numpy_loaded()
print(os.environ["OPENBLAS_NUM_THREADS"])
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_arithmetic_overflow_exits_3(capsys):
    # heavy_upper's e^(2C/rho12_tilde) leaves double range at C = 3000
    code, out, err = run(capsys, ["verify", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--regime", "upper",
                                  "--c", "3000", "--levels", "4000"])
    assert code == 3
    assert out == ""
    assert "numeric error" in err


@pytest.mark.parametrize("argv, key", [
    (["optimize", "--mode", "exact", "--b1", "exp:1", "--rho1-max", "1e300"],
     "predicted_cost"),
    (["analyze", "--b1", "exp:2e-300"], "cost"),
])
def test_tiny_r0_gives_a_finite_cost(capsys, argv, key):
    # r_0 near 1e-300 passes the floor; dividing by it must not overflow a
    # recurrence step into inf and then NaN
    code, out, err = run(capsys, argv + ["--lambda", "1", "--b2", "exp:2",
                                         "--level", "50"])
    assert code == 0, err
    assert json.loads(out)[key] == 25.0


def test_optimize_exact_non_finite_range_exits_2(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from the grid
        code, out, err = run(capsys, ["optimize", "--mode", "exact",
                                      "--lambda", "1", "--b1", "exp:1",
                                      "--b2", "exp:2", "--level", "50",
                                      "--rho1-max", "inf"])
    assert code == 2
    assert out == ""
    assert "config error" in err and "rho1_range" in err
