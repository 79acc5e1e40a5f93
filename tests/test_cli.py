import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from damctl import asymptotics, cli, exact, kernels, simulator
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
    # nested records flatten to one dotted key per leaf
    assert float(text_vals["model.b1.rate"]) == rec["model"]["b1"]["rate"]
    assert text_vals["model.b1.type"] == "exp"
    assert int(text_vals["model.level"]) == rec["model"]["level"]


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
    argv = ["simulate"] + MM1_FLAGS[:8] + ["--cycles", "50000", "--seed", "7"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    rec = json.loads(out1)
    assert rec["seed"] == 7
    assert all(v > 0 for v in rec["half_widths"].values())
    assert abs(rec["p1_hat"] - rec["exact"]["p1"]) <= 3 * rec["half_widths"]["p1"]


def test_simulate_slow_phase_past_exp_underflow(tmp_path):
    # one b1 service in 1,000 has mean 1000, and about half of those bring a
    # Poisson mean lam * S past 745, where exp(-lam S) is 0.0; run in a child
    # process, so that an arrival count that never ends fails at the budget
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    budget = 20.0
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "damctl.cli", "simulate", "--lambda", "1",
         "--b1", "hyper:0.999:1000:0.001:0.001", "--b2", "exp:2",
         "--level", "5", "--cycles", "20000"],
        env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
        capture_output=True, text=True, timeout=budget)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < budget
    rec = json.loads(proc.stdout)
    assert rec["e_nu2_hat"] > 0 and all(
        math.isfinite(v) for v in rec["half_widths"].values())


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


def test_sweep_prints_j_lower_where_only_its_exponential_overflows(capsys):
    # e^(rho12_tilde/2C) = e^709.8 overflows, C (j1 + k) e^709.8 does not
    code, out, err = run(capsys, ["sweep", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--j1", "2", "--j2", "1",
                                  "--c-grid", "0.0014088"])
    assert code == 0, err
    c, _, j_lower = out.splitlines()[1].split(",")
    assert c == "0.0014088"
    assert float(j_lower) == pytest.approx(7.9177381800692e305, rel=1e-12)


def test_sweep_j_upper_at_small_c(capsys):
    # k C + (rho12_tilde/2)(j1 + k) C/expm1(C) with rho12_tilde = 2, k = 1:
    # 3 at C = 1e-20, where e^C - 1 rounds to 0
    code, out, err = run(capsys, ["sweep", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--j1", "2", "--j2", "1",
                                  "--c-grid", "1e-20,1e-9"])
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    with mpmath.workdps(40):
        for c, j_upper, _ in rows:
            big_c = mpmath.mpf(c)
            want = big_c + 3 * big_c / mpmath.expm1(big_c)
            assert abs(float(j_upper) - want) <= 1e-12 * want, c
    assert rows[0][1] == "3"


def test_sweep_j_upper_where_2c_overflows(capsys):
    # 2C = 1.8e308 overflows, a/(e^a - 1) is its limit 0, and J_upper = k C
    # with k = 1
    code, out, err = run(capsys, ["sweep", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--c-grid", "8.9e307,9e307"])
    assert code == 0, err
    assert out.splitlines()[1:] == ["8.9e+307,8.9e+307,8.9e+307",
                                    "9e+307,9e+307,9e+307"]


def test_optimize_c_max_where_2c_overflows(capsys):
    # a --c-max of 1.7e308 is past where 2C overflows; the search finds
    # the optimum found under --c-max 1e308, within its bracket of 1e-8
    argv = ["optimize", "--lambda", "1", "--b1", "exp:1", "--b2", "exp:2",
            "--level", "100", "--j1", "2", "--j2", "1", "--c-max"]
    results = []
    for c_max in ("1.7e308", "1e308"):
        code, out, err = run(capsys, argv + [c_max])
        assert code == 0, err
        results.append(json.loads(out))
    for rec in results:
        assert rec["c_star"] == pytest.approx(1.03565848752, abs=1e-7)
        assert rec["predicted_cost"] == 2.74564357673


@pytest.mark.parametrize("c_max", ["1e308", "1.7e308"])
def test_optimize_search_does_not_grow_with_c_max(capsys, monkeypatch, c_max):
    # the search starts from the default c_max, 10 rho12_tilde, and widens
    # only while the cost still falls at its right end
    argv = ["optimize", "--lambda", "1", "--b1", "exp:1", "--b2", "exp:2",
            "--level", "100", "--j1", "2", "--j2", "1"]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    default = json.loads(out)
    calls = []
    j_upper = asymptotics.j_upper
    monkeypatch.setattr(asymptotics, "j_upper",
                        lambda *a: calls.append(a) or j_upper(*a))
    code, out, err = run(capsys, argv + ["--c-max", c_max])
    assert code == 0, err
    assert len(calls) <= 60
    rec = json.loads(out)
    assert rec["c_star"] == default["c_star"]
    assert rec["predicted_cost"] == default["predicted_cost"]


@pytest.mark.parametrize("mode", ["asymptotic", "exact"])
def test_optimize_prints_zero_drift_as_positive_zero(capsys, mode):
    # lower regime with j1 = 0: C* = 0; the exact range starts at rho1 = 1,
    # its optimum when p2 alone is charged
    code, out, err = run(capsys, [
        "optimize", "--lambda", "1", "--b1", "exp:1", "--b2", "exp:2",
        "--level", "100", "--j1", "0", "--j2", "1", "--mode", mode,
        "--rho1-min", "1"])
    assert code == 0, err
    rec = json.loads(out)
    assert rec["regime"] == "lower_penalized"
    assert rec["c_star"] == 0.0
    assert math.copysign(1.0, rec["delta_star"]) == 1.0


@pytest.mark.parametrize("c_max", ["83886080", "1e9", "1e308"])
def test_optimize_ends_where_the_literal_cost_is_flat(tmp_path, c_max):
    # with j1 = 0 the literal J_lower is flat to round-off at large C, where
    # a search's bracket narrows to a few ulps; run in a child process,
    # so that a search that never ends fails at the timeout
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "damctl.cli", "optimize", "--lambda", "1",
         "--b1", "exp:1", "--b2", "exp:2", "--level", "100", "--j1", "0",
         "--j2", "1", "--c-max", c_max],
        env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout)
    assert rec["regime"] == "lower_penalized"
    assert rec["rho1_star"] > 0


def test_verify_upper_at_small_c(capsys):
    code, out, err = run(capsys, ["verify", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--regime", "upper",
                                  "--c", "1e-20", "--levels", "100"])
    assert code == 0, err
    row = [float(x) for x in out.splitlines()[1].split(",")]
    assert all(math.isfinite(x) for x in row)
    # p1_asym = delta / a * a/expm1(a), with a = C and a/expm1(a) = 1
    assert row[4] == pytest.approx(0.01, rel=1e-12)


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


@pytest.mark.parametrize("regime, c", [
    ("critical", "-5"), ("critical", "nan"), ("critical", "inf"),
    ("upper", "inf"), ("lower", "inf"),
])
def test_verify_bad_c_exits_2_in_every_regime(capsys, regime, c):
    # test_verify_non_positive_c_exits_2 covers C <= 0 under upper and lower
    code, out, err = run(capsys, ["verify", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--regime", regime,
                                  "--c=" + c, "--levels", "100"])
    assert code == 2
    assert out == ""
    assert "config error" in err and repr(float(c)) in err


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


@pytest.mark.parametrize("grid, cs", [
    ("0:1:0.6", ["0", "0.6"]),
    ("0:0.3:0.1", ["0", "0.1", "0.2", "0.3"]),
])
def test_c_grid_ends_at_stop(capsys, grid, cs):
    # 0:1:0.6 stops short of 1.2; the rounding of 0.3 / 0.1 to
    # 2.9999999999999996 still keeps 0.3
    code, out, err = run(capsys, ["sweep", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--c-grid", grid])
    assert code == 0, err
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == cs


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


@pytest.mark.parametrize("argv", [
    ["analyze", "--level", "10000000000000"],
    ["analyze", "--level", "1048577"],
    ["simulate", "--level", "10000000000000"],
    ["optimize", "--mode", "exact", "--level", "10000000000000"],
    ["verify", "--regime", "upper", "--levels", "100,10000000000000"],
])
def test_level_above_exact_bound_exits_2(capsys, argv):
    model = ["--lambda", "1", "--b1", "exp:1", "--b2", "exp:2"]
    code, out, err = run(capsys, argv[:1] + model + argv[1:])
    assert code == 2
    assert out == ""
    assert "config error" in err and "1048576" in err


def test_asymptotic_optimize_keeps_large_levels(capsys):
    code, out, err = run(capsys, ["optimize", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--j1", "2", "--j2", "1",
                                  "--level", "10000000000000"])
    assert code == 0, err
    rec = json.loads(out)
    assert rec["level"] == 10000000000000
    assert rec["c_star"] == pytest.approx(1.03565848752, abs=1e-7)


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
    code, out, err = run(capsys, ["simulate"] + MM1_FLAGS[:8] +
                         ["--cycles", "100", "--seed", seed])
    assert code == 2
    assert out == ""
    assert "config error" in err and "seed" in err


def test_commands_do_not_import_scipy(tmp_path):
    """Every command runs on numpy alone; scipy and mpmath are test-only."""
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
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("scipy", "mpmath")))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_small_problems_do_not_import_numpy(tmp_path):
    """Start-up, the asymptotic commands, config errors, the argv argparse
    reads (--help, a missing or unknown command, a refused flag) and the
    exact commands on every law run without numpy, dataclasses or inspect,
    slow tails included, however many weights they read and whether or not
    their band settles before L; simulate loads numpy after its exact
    solve, and the first command that loads it pins OpenBLAS to one
    thread."""
    script = """
import contextlib, io, os, sys
def numpy_loaded():
    return any(m.split(".")[0] == "numpy" for m in sys.modules)
def loaded(*names):
    return [m for m in names if m in sys.modules]
import damctl.cli
from damctl import cli, exact, CostModel, DamModel, optimize_asymptotic
assert not numpy_loaded(), "import"
top = "4000"
model = ["--lambda", "1", "--b1", "exp:1", "--b2", "exp:2"]
runs = [
    (["optimize"] + model + ["--level", "1000", "--j1", "2"], 0),
    (["optimize"] + model + ["--level", "1000", "--j1", "0.5", "--c-max", "3"], 0),
    (["sweep"] + model + ["--c-grid", "0:4:0.25"], 0),
    (["sweep"] + model + ["--c-grid", "0:inf:1"], 2),
    (["analyze", "--lambda", "nan", "--b1", "exp:1", "--b2", "exp:2",
      "--level", "5"], 2),
    (["simulate"] + model + ["--level", "5", "--seed", "-1"], 2),
    (["simulate"] + model + ["--level", "5", "--j1", "2"], 2),
    (["optimize"] + model + ["--level", "5", "--mode", "exact",
      "--rho1-max", "inf"], 2),
    (["--help"], 0),
    (["sweep", "--help"], 0),
    ([], 2),
    (["frobnicate"], 2),
    (["analyze"] + model + ["--level", "5"], 0),
    (["analyze", "--lambda", "1", "--b1", "gamma:2.5:2", "--b2", "exp:2",
      "--level", top], 0),
    (["optimize"] + model + ["--level", "200", "--mode", "exact"], 0),
    (["optimize", "--lambda", "1", "--b1", "gamma:2.5:2.5", "--b2", "exp:2",
      "--level", "1000", "--mode", "exact"], 0),
    (["optimize", "--lambda", "1", "--b1", "hyper:0.4:0.5:0.6:3",
      "--b2", "exp:2", "--level", top, "--mode", "exact"], 0),
    (["verify"] + model + ["--regime", "upper", "--levels", "50," + top], 0),
    (["verify"] + model + ["--regime", "lower", "--c", "2",
      "--levels", "7,100"], 0),
    (["analyze"] + model + ["--level", str(int(top) + 1)], 0),
    # gamma(0.1): a band of about 480 increments that settles after about
    # 800 steps; gamma(0.01): 8,192 weights read, and at L = 1000 a band as
    # long as L, which reaches L unsettled; shape 1e-8: weights that fall
    # as (1 + 1e-8)^-j, a slow tail, 2^20 of them read; shape 5e-17, where
    # shape - 1 rounds to -1
    (["analyze", "--lambda", "1", "--b1", "gamma:0.1:0.1", "--b2", "exp:2",
      "--level", "2621"], 0),
    (["analyze", "--lambda", "1", "--b1", "gamma:0.01:0.01", "--b2", "exp:2",
      "--level", "200"], 0),
    (["analyze", "--lambda", "1", "--b1", "gamma:0.01:0.01", "--b2", "exp:2",
      "--level", "1000"], 0),
    (["analyze", "--lambda", "1", "--b1", "gamma:1e-8:1e-8", "--b2", "exp:2",
      "--level", "10"], 0),
    (["analyze", "--lambda", "1", "--b1", "gamma:5e-17:5e-17", "--b2",
      "exp:2", "--level", "5"], 0),
]
for argv, want in runs:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == want, argv
    assert not numpy_loaded(), argv
    assert not loaded("dataclasses", "inspect"), (argv, loaded(
        "dataclasses", "inspect"))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["simulate"] + model + ["--level", "5", "--cycles",
                                            "256"]) == 0
assert numpy_loaded()
print(os.environ["OPENBLAS_NUM_THREADS"])
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


# runs each argv of the JSON list in argv[1] through main in one fresh
# interpreter, none of which may load numpy, and prints each stdout as JSON
SOLVE_WITHOUT_NUMPY = """
import contextlib, io, json, sys
from damctl import cli
def numpy_loaded():
    return any(m.split(".")[0] == "numpy" for m in sys.modules)
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \\
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert not numpy_loaded(), argv
    print(json.dumps(out.getvalue()))
"""


def solve_without_numpy(tmp_path, runs):
    """Each run's stdout, from one fresh interpreter without numpy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", SOLVE_WITHOUT_NUMPY,
                           json.dumps(runs)],
                          env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(out) for out in proc.stdout.splitlines()]


def analyze_runs(analyses):
    return [["analyze", "--lambda", "1", "--b1", b1, "--b2", "exp:2",
             "--level", str(level)] for b1, level in analyses]


def assert_probs_are_the_numpy_routes(out):
    """p1 and p2 of an analyze record are the M/M/1 closed form's (exp) or
    those of the numpy route, which pytest runs."""
    rec = json.loads(out)
    model = exact.DamModel(lam=1.0, b1=dist_from_dict(rec["model"]["b1"]),
                           b2=dist_from_dict(rec["model"]["b2"]),
                           level=rec["model"]["level"])
    if rec["model"]["b1"]["type"] == "exp":
        with mpmath.workdps(40):
            rho = 1 / mpmath.mpf(model.b1.rate)
            q = (rho ** (model.level + 1) - 1) / (rho - 1)
        want = exact._probs(model, float(1 / q))
    else:
        sol = exact.solve(model)
        want = sol.p1, sol.p2
    assert (rec["p1"], rec["p2"]) == pytest.approx(want, rel=1e-10), rec


def test_phase_type_laws_solve_without_numpy(tmp_path):
    """exp, Erlang and hyper laws, Erlang(8) and Erlang(9) among them,
    solve on the settled band at any level, numpy unloaded: analyze at
    L = 4000 and at exact.MAX_LEVEL, verify and optimize --mode exact.  The
    M/M/1 p1 and p2 are the closed form's, the others those of the numpy
    route."""
    analyses = [(b1, 4000) for b1 in ("exp:0.9995", "erlang:2:2.001",
                                      "hyper:0.3:0.5:0.7:2.6", "erlang:8:8",
                                      "erlang:9:9")]
    analyses.append(("exp:0.9995", exact.MAX_LEVEL))
    runs = analyze_runs(analyses) + [
        ["verify", "--lambda", "1", "--b1", "erlang:2:2", "--b2", "exp:2",
         "--regime", "upper", "--c", "1", "--levels", "1000,4000"],
        ["optimize", "--mode", "exact", "--lambda", "1", "--b1",
         "hyper:0.3:0.5:0.7:2.6", "--b2", "exp:2", "--level", "1000"],
        # r_0 = 1e-300: Q_L is beyond double range, so p1 = 0, p2 = rho2
        ["analyze", "--lambda", "1", "--b1", "exp:1e-300", "--b2", "exp:2",
         "--level", "50", "--j1", "2", "--j2", "1"],
    ]
    outs = solve_without_numpy(tmp_path, runs)
    for out in outs[:len(analyses)]:
        assert_probs_are_the_numpy_routes(out)
    verify, optimize, tiny = outs[len(analyses):]
    assert len(verify.splitlines()) == 3
    assert json.loads(optimize)["mode"] == "exact"
    tiny = json.loads(tiny)
    assert (tiny["p1"], tiny["p2"], tiny["cost"]) == (0.0, 0.5, 25.0)


def test_simulate_prints_the_exact_numbers_analyze_prints(tmp_path):
    """simulate solves before it imports the simulator, and with it numpy,
    so its exact block is analyze's to the byte; each command runs in its
    own fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    call = "import sys; from damctl.cli import main; sys.exit(main(sys.argv[1:]))"

    def fresh(argv):
        proc = subprocess.run([sys.executable, "-c", call] + argv,
                              env=dict(os.environ, PYTHONPATH=src),
                              cwd=tmp_path, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    for b1 in ("erlang:3:3.15", "exp:1.02", "gamma:2.5:2.48"):
        model = ["--lambda", "1", "--b1", b1, "--b2", "exp:2", "--level", "200"]
        want = fresh(["analyze"] + model)
        got = fresh(["simulate"] + model + ["--cycles", "2000"])["exact"]
        for key in ("p1", "p2", "e_nu1", "e_nu2"):
            assert repr(got[key]) == repr(want[key]), (b1, key)


def test_banded_laws_solve_without_numpy(tmp_path, capsys):
    """Gamma and det laws at L = 4000, whose bands hold some 20-60
    increments, solve on Python floats, numpy unloaded: their p1 and p2,
    and verify's exact columns, are the numpy route's."""
    analyses = [("gamma:2.5:2.501", 4000), ("gamma:1.5:1.4", 4000),
                ("det:0.9995", 4000), ("det:1.0004", 4000)]
    verify = ["verify", "--lambda", "1", "--b1", "gamma:2.5:2.5", "--b2",
              "exp:2", "--regime", "critical", "--levels", "1000,2000,4000"]
    outs = solve_without_numpy(tmp_path, analyze_runs(analyses) + [verify])
    for out in outs[:-1]:
        assert_probs_are_the_numpy_routes(out)
    code, want, _ = run(capsys, verify)
    assert code == 0
    rows = [line.split(",") for line in outs[-1].splitlines()]
    want = [line.split(",") for line in want.splitlines()]
    assert len(rows) == 4 and rows[0] == want[0]
    exact_columns = [i for i, name in enumerate(want[0]) if "exact" in name]
    for row, want_row in zip(rows[1:], want[1:]):
        for i in exact_columns:
            assert float(row[i]) == pytest.approx(float(want_row[i]),
                                                  rel=1e-10), want[0][i]


def test_each_command_loads_only_what_it_runs(tmp_path):
    """Importing the CLI loads none of dataclasses, inspect, csv, numpy or
    the argv and JSON tooling (argparse, gettext, locale, json); the
    commands that need no numpy (the exact ones at small L included) load
    none of dataclasses, inspect or numpy, no well-formed request loads the
    tooling, --config loads json alone, --help and a refused flag load
    argparse, and no command loads dataclasses.  The argv argparse reads
    run last, after numpy is loaded; test_small_problems_do_not_import_numpy
    checks that they load none of dataclasses, inspect or numpy."""
    script = """
import contextlib, io, sys
def loaded(*names):
    return [m for m in names if m in sys.modules]
TOOLING = ("argparse", "gettext", "locale", "json")
import damctl.cli
from damctl import cli
assert not loaded("dataclasses", "inspect", "csv", "numpy", *TOOLING), loaded(
    "dataclasses", "inspect", "csv", "numpy", *TOOLING)
model = ["--lambda", "1", "--b1", "exp:1", "--b2", "exp:2"]
light = [
    (["optimize"] + model + ["--level", "1000", "--j1", "2"], 0),
    (["optimize"] + model + ["--level", "1000", "--j1", "0.5"], 0),
    (["sweep"] + model + ["--c-grid", "0:4:0.25"], 0),
    (["analyze", "--lambda", "nan", "--b1", "exp:1", "--b2", "exp:2",
      "--level", "5"], 2),
    (["optimize"] + model + ["--level", "5", "--mode", "exact",
      "--rho1-max", "inf"], 2),
    (["analyze"] + model + ["--level", "50"], 0),
    (["analyze"] + model + ["--level", "50", "--format", "text"], 0),
    (["optimize"] + model + ["--level", "20", "--mode", "exact"], 0),
    (["verify"] + model + ["--regime", "upper", "--levels", "50,100"], 0),
]
heavy = [
    (["simulate"] + model + ["--level", "5", "--cycles", "256"], 0),
]
with open("run.json", "w") as fh:
    fh.write('{"lambda": 1, "b1": "exp:1", "b2": "exp:2", "level": 50}')
config = [(["analyze", "--config", "run.json"], 0)]
parsed = [
    (["--help"], 0),
    (["sweep", "--help"], 0),
    ([], 2),
    (["frobnicate"], 2),
    (["simulate"] + model + ["--level", "5", "--j1", "2"], 2),
]
for argv, want in light + heavy + config + parsed:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == want, argv
    if (argv, want) in light:
        assert not loaded("dataclasses", "inspect", "numpy"), (argv, loaded(
            "dataclasses", "inspect", "numpy"))
    if (argv, want) in light + heavy:
        assert not loaded(*TOOLING), (argv, loaded(*TOOLING))
    if (argv, want) in config:
        assert loaded(*TOOLING) == ["json"], (argv, loaded(*TOOLING))
assert loaded("numpy", "csv", "argparse") == ["numpy", "csv", "argparse"]
print(loaded("dataclasses"))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_upper_past_exps_overflow(capsys):
    # e^(2C/rho12_tilde) leaves double range at C = 3000: p1_asym rounds to 0
    # and p2_asym = rho2/(1 - rho2) * delta with delta = C / L = 30
    code, out, err = run(capsys, ["verify", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--regime", "upper",
                                  "--c", "3000", "--levels", "100"])
    assert code == 0, err
    row = [float(x) for x in out.splitlines()[1].split(",")]
    assert row[4] == 0.0
    assert row[7] == 30.0


def test_verify_leaves_rel_err_empty_where_exact_underflows(capsys):
    # at C = 3000 and L = 4000 the exact p1 underflows to 0: its relative
    # error is undefined, and the L = 100 row before it is kept
    code, out, err = run(capsys, ["verify", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--regime", "upper",
                                  "--c", "3000", "--levels", "100,4000"])
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[5] == "1"
    row = lines[2].split(",")
    assert row[0] == "4000" and row[3] == "0"
    assert row[5] == ""
    assert float(row[8]) == pytest.approx(1.5, rel=1e-12)


def test_verify_lower_note_skips_undefined_rel_err(capsys, monkeypatch):
    # an exact p2 of 0 leaves rel_err_p2 undefined.  At rho1 = 0.8, L = 300
    # the true p2 is about 1.4e-30, but its numerator cancels to round-off
    # (8.3e-17 here, 2.5e-16 by the phase route), so 0 is forced
    real = exact.stationary_probs
    monkeypatch.setattr(exact, "stationary_probs",
                        lambda model: (real(model)[0], 0.0))
    code, out, err = run(capsys, ["verify", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--regime", "lower",
                                  "--c", "60", "--levels", "300"])
    assert code == 0, err
    row = out.splitlines()[1].split(",")
    assert row[6] == "0" and row[8] == ""
    assert "p1 0.0168, p2 nan" in err


@pytest.mark.parametrize("c, level", [("150", 100), ("100", 100),
                                      ("250", 200)])
def test_verify_lower_c_at_or_above_level_exits_2(capsys, c, level):
    # rho1 = 1 - C/L would be 0 or negative at the first level named
    code, out, err = run(capsys, ["verify", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--regime", "lower",
                                  "--c", c, "--levels", "%d,300" % level])
    assert code == 2
    assert out == ""
    assert "C < L" in err and "at L = %d" % level in err


def test_verify_lower_at_small_c_keeps_the_table(capsys):
    # e^(rho12_tilde/(2C)) overflows at C = 0.001: the literal columns and
    # their errors are left empty, the exact columns stay
    code, out, err = run(capsys, ["verify", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--regime", "lower",
                                  "--c", "0.001", "--levels", "100,200"])
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 2
    for row in rows:
        assert row[4:6] == ["", ""] and row[7:9] == ["", ""]
        assert 0 < float(row[3]) < 1 and 0 < float(row[6]) < 1
    assert "p1 nan, p2 nan" in err


def test_arithmetic_overflow_exits_3(capsys, monkeypatch):
    def overflow(model):
        raise OverflowError("math range error")

    monkeypatch.setattr(exact, "stationary_probs", overflow)
    code, out, err = run(capsys, ["verify", "--lambda", "1", "--b1", "exp:1",
                                  "--b2", "exp:2", "--regime", "upper",
                                  "--c", "1", "--levels", "100"])
    assert code == 3
    assert out == ""
    assert "numeric error: math range error" in err


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


# the flags a command does not read; each was accepted and ignored when every
# command took every model flag
@pytest.mark.parametrize("cmd, flag", [
    ("analyze", "--out"), ("optimize", "--out"),
    ("verify", "--level"), ("verify", "--j1"), ("verify", "--j2"),
    ("verify", "--format"),
    ("simulate", "--j1"), ("simulate", "--j2"), ("simulate", "--out"),
    ("sweep", "--level"), ("sweep", "--format"),
])
def test_flag_the_command_does_not_read_exits_2(capsys, tmp_path, cmd, flag):
    out_path = tmp_path / "t.csv"
    value = {"--out": str(out_path), "--format": "text"}.get(flag, "5")
    model = ["--lambda", "1", "--b1", "exp:1.25", "--b2", "exp:2"]
    rest = {"analyze": ["--level", "5"], "optimize": ["--level", "5"],
            "verify": ["--regime", "upper", "--levels", "50"],
            "simulate": ["--level", "5", "--cycles", "256"],
            "sweep": ["--c-grid", "0:1:0.5"]}[cmd]
    assert cli.main([cmd] + model + rest) == 0
    capsys.readouterr()
    code, out, err = run(capsys, [cmd] + model + rest + [flag, value])
    assert code == 2
    assert out == ""
    assert err.startswith("usage: damctl %s " % cmd)
    assert "unrecognized arguments: " + flag in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [["analyze", "--c", "3"],
                                  ["simulate", "--cyc", "100"]])
def test_abbreviated_flag_exits_2(capsys, monkeypatch, argv):
    opened = []
    monkeypatch.setattr(cli, "open", lambda *a, **k: opened.append(a),
                        raising=False)
    code, out, err = run(capsys, argv + MM1_FLAGS[:8])
    assert code == 2
    assert out == ""
    assert err.startswith("usage: damctl %s " % argv[0])
    assert "unrecognized arguments: " + argv[1] in err
    assert opened == []


@pytest.mark.parametrize("cmd, flags", [
    ("analyze", "config lambda b1 b2 level j1 j2 format"),
    ("optimize", "config lambda b1 b2 level j1 j2 mode c-max rho1-min "
                 "rho1-max format"),
    ("verify", "config lambda b1 b2 regime c levels out"),
    ("simulate", "config lambda b1 b2 level cycles seed batches format"),
    ("sweep", "config lambda b1 b2 j1 j2 c-grid out"),
])
def test_help_lists_exactly_the_options_read(capsys, cmd, flags):
    code, out, _ = run(capsys, [cmd, "--help"])
    assert code == 0
    options = out[out.index("options:"):]
    listed = set(re.findall(r"^  (?:-h, )?--([a-z0-9-]+)", options, re.M))
    assert listed == set(flags.split()) | {"help"}
    _, _, names, output = cli.COMMANDS[cmd]
    assert set(flags.split()) == {"config", output} | {
        n.replace("_", "-") for n in names}


def test_top_level_help_lists_every_command(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert out.startswith("usage: damctl [-h] "
                          "{analyze,optimize,verify,simulate,sweep} ...")
    for cmd, (_, help_, _, _) in cli.COMMANDS.items():
        assert re.search(r"^    %s +%s$" % (cmd, re.escape(help_)), out, re.M)


@pytest.mark.parametrize("argv, message", [
    ([], "damctl: error: the following arguments are required: cmd\n"),
    (["frobnicate"], "damctl: error: argument cmd: invalid choice: "
                     "'frobnicate'"),
    (["sweep", "--lambda", "1", "--b1", "exp:1", "--b2", "exp:2",
      "--c-grid", "0:1:0.5", "--level", "5"],
     "damctl sweep: error: unrecognized arguments: --level 5\n"),
])
def test_module_entry_reads_sys_argv(tmp_path, monkeypatch, capsys, argv,
                                     message):
    """python -m damctl.cli parses sys.argv and prints what cli.main(argv)
    prints: argparse's own message for a missing or unknown command, and
    the command's usage line for a flag it does not read."""
    monkeypatch.setenv("COLUMNS", "80")
    want = run(capsys, argv)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "damctl.cli"] + argv,
                          env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr) == want
    assert want[:2] == (2, "")
    usage = "usage: damctl %s" % (
        "sweep [-h] [--config CONFIG]" if argv[:1] == ["sweep"] else
        "[-h] {analyze,optimize,verify,simulate,sweep} ...")
    assert want[2].startswith(usage)
    assert message in want[2]


def test_config_key_that_names_no_option_exits_2(tmp_path, capsys):
    code, out, err = _run_config(tmp_path, capsys, "simulate", cylces=100)
    assert code == 2
    assert out == ""
    assert "config error" in err and "unknown option 'cylces'" in err
    # a key another command reads is accepted: one file serves both
    code, _, err = _run_config(tmp_path, capsys, "simulate", cycles=256)
    assert code == 0, err
    code, _, err = _run_config(tmp_path, capsys, "verify", levels=50)
    assert code == 0, err


# one request in a fresh interpreter, as perfbench/run.py times it
CALL_MAIN = ("import sys; from damctl.cli import main; "
             "sys.exit(main(sys.argv[1:]))")

# the same request in a fresh interpreter, with what main printed, returned
# and left in table.csv taken before the exit: os._exit skips the exit hook
MAIN_RETURNS = """
import contextlib, io, json, os, sys
from damctl.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(sys.argv[1:])
table = None
if os.path.exists("table.csv"):
    with open("table.csv", "rb") as f:
        table = f.read().hex()
print(json.dumps([code, out.getvalue(), err.getvalue(), table]), flush=True)
os._exit(0)
"""


@pytest.mark.parametrize("argv, code", [
    (["analyze", "--lambda", "1", "--b1", "gamma:2.5:2.4", "--b2", "exp:2",
      "--level", "4000"], 0),
    (["verify", "--lambda", "1", "--b1", "gamma:2.5:2.5", "--b2", "exp:2",
      "--regime", "lower", "--c", "2", "--levels", "1000,2000,4000",
      "--out", "table.csv"], 0),
    (["analyze", "--lambda", "nan", "--b1", "exp:1", "--b2", "exp:2",
      "--level", "4000"], 2),
    (["analyze", "--lambda", "1", "--b1", "det:800", "--b2", "exp:2",
      "--level", "4000"], 3),
])
def test_a_process_prints_and_writes_what_main_returns(tmp_path, argv, code):
    """The gc.freeze that main registers for the exit changes no stdout,
    stderr, exit code or written file: frozen objects are not finalized at
    exit, so a file must be complete when main returns.  Both sides run in
    fresh interpreters, so both take the same route to Q_L."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", MAIN_RETURNS] + argv,
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got, out, err, written = json.loads(proc.stdout)
    assert got == code
    table = tmp_path / "table.csv"
    if "--out" in argv:
        written = bytes.fromhex(written)
        assert written.count(b"\n") == 4  # the header and three levels
        table.unlink()
    proc = subprocess.run([sys.executable, "-c", CALL_MAIN] + argv, env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    if "--out" in argv:
        assert table.read_bytes() == written


def test_only_main_registers_the_exit_hook(tmp_path):
    """Importing damctl or its CLI and solving through the library register
    nothing at exit; main registers one callback, however often it runs."""
    script = """
import atexit, contextlib, io
before = atexit._ncallbacks()
import damctl
import damctl.cli
import damctl.control
from damctl import cli, CostModel, DamModel, Exponential, solve
solve(DamModel(lam=1.0, b1=Exponential(rate=1.25), b2=Exponential(rate=2.0),
               level=5), CostModel(j1=1.0, j2=1.0))
assert atexit._ncallbacks() == before, "library use"
model = ["--lambda", "1", "--b1", "exp:1", "--b2", "exp:2"]
for argv, want in [(["analyze"] + model + ["--level", "5"], 0),
                   (["analyze"] + model + ["--level", "5"], 0),
                   (["sweep"] + model + ["--c-grid", "0:1:0.5"], 0),
                   (["analyze"] + model, 2)]:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == want, argv
print(atexit._ncallbacks() - before)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


# every flag some command takes, so that each command meets flags it does
# not take; the values include ones that start with "-", the empty string
# and --format values argparse refuses
EVERY_FLAG = sorted(cli._flag(n)
                    for n in ["config", *cli.OPTIONS, "format", "out"])
PLAIN_VALUES = ["1", "exp:1.25", "json", "text", "JSON", "csv", "", "a b",
                "x=1", "analyze"]
FLAG_VALUES = ["-1", "-h", "--help", "--lambda", "-"]


@st.composite
def argvs(draw):
    """A command with some of its flags, each once and most with a value
    that does not start with "-", and at one place among them a few of:
    pairs of any flag and value, --flag=value, -h, --help and stray
    values."""
    cmd = draw(st.sampled_from(list(cli.COMMANDS)))
    _, _, names, output = cli.COMMANDS[cmd]
    own = [cli._flag(n) for n in ["config"] + names + [output]]
    # a flag cut short by one letter, which argparse refuses unabbreviated
    cut = [f[:-1] for f in own if len(f) > 3]
    plain = st.one_of(st.sampled_from(PLAIN_VALUES), st.text(max_size=3).filter(
        lambda v: not v.startswith("-")))
    value = st.one_of(plain, st.sampled_from(FLAG_VALUES))
    flag = st.one_of(st.sampled_from(own), st.sampled_from(EVERY_FLAG),
                     st.sampled_from(cut))
    part = st.one_of(
        st.tuples(flag, value),
        st.builds(lambda f, v: (f + "=" + v,), flag, value),
        st.sampled_from([("-h",), ("--help",), ("",), ("1",)]))
    argv = [cmd]
    for name in draw(st.lists(st.sampled_from(own), unique=True)):
        argv += [name, draw(st.one_of(plain, plain, plain, value))]
    at = 1 + 2 * draw(st.integers(0, (len(argv) - 1) // 2))
    argv[at:at] = [token for p in draw(st.lists(part, max_size=3))
                   for token in p]
    return argv


class ReachedArgparse(Exception):
    pass


@settings(derandomize=True, deadline=None, database=None, max_examples=400,
          print_blob=True)
@given(argvs())
def test_plain_argv_reads_as_argparse_does(argv):
    """An argv that the table reader accepts gives argparse's namespace, with
    no extras; every other argv reaches argparse."""
    args = cli._read_argv(argv)
    if args is None:
        with mock.patch.object(cli, "build_parser",
                               side_effect=ReachedArgparse), \
                pytest.raises(ReachedArgparse):
            cli.main(argv)
        return
    try:
        parsed, extra = cli.build_parser(argv[0]).parse_known_args(argv)
    except SystemExit:
        pytest.fail("argparse refuses %r" % (argv,))
    assert extra == []
    want = vars(parsed)
    del want["parser"]
    assert args == want


@pytest.mark.parametrize("argv", [
    ["analyze"] + MM1_FLAGS,
    # today's Infinity case: e_nu1 and the fields after it overflow
    ["analyze", "--lambda", "1", "--b1", "exp:0.5", "--b2", "exp:2",
     "--level", "2000"],
    ["optimize"] + MM1_FLAGS,
    ["optimize"] + MM1_FLAGS + ["--mode", "exact"],
    ["simulate"] + MM1_FLAGS[:8] + ["--cycles", "256"],
])
def test_records_are_written_as_json_dumps_writes_them(capsys, monkeypatch,
                                                         argv):
    records = []
    emit = cli._emit_record
    monkeypatch.setattr(cli, "_emit_record",
                        lambda rec, fmt: records.append(rec) or emit(rec, fmt))
    code, out, _ = run(capsys, argv)
    assert code == 0
    [rec] = records
    rec = cli._round12(rec)
    assert out == cli._json(rec) + "\n" == json.dumps(rec) + "\n"
    # only the second record overflows
    assert ("Infinity" in out) == (argv[4] == "exp:0.5")


def test_json_writer_on_every_kind_of_value():
    rec = {"none": None, "yes": True, "no": False, "int": -3, "big": 10 ** 30,
           "zero": -0.0, "tiny": 5e-324, "inf": -math.inf, "nan": math.nan,
           "list": [1, 2.5, [], {}, {"deep": {"x": math.inf}}],
           "text": "exp", "quote": 'a "b" \\ c', "tab": "a\tb", "ascii": "é",
           "keys": {1: "one"}, "tuple": (1, 2)}
    assert cli._json(rec) == json.dumps(rec)
