"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import layers
import run
from workloads import WORKLOADS, Generator, Request

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _argvs(workload, seed, rounds=2):
    gen = Generator(workload, seed)
    return [[r.argv for r in gen.round()] for _ in range(rounds)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload):
    assert _argvs(workload, 11) == _argvs(workload, 11)
    assert _argvs(workload, 11) != _argvs(workload, 12)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_requests_never_share_a_model(workload):
    gen = Generator(workload, 3)
    count = sum(len(gen.round()) for _ in range(4))
    assert len(gen.seen) == count


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in BENCH["workloads"]) == WORKLOADS


def _spawned(wall, scale=0.5, out="{}"):
    return {"wall": wall, "cpu": wall, "scale": scale, "code": 0, "out": out,
            "err": ""}


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    sim = json.dumps({"cycles": 100})
    results = [dict(_spawned(1.0 + i, out=sim if c == "simulate" else "{}"),
                    req=Request(c, (c,)), spans=None, error=None)
               for i, c in enumerate(run.COMMANDS)]
    setup = [_spawned(w) for w in (1.2, 1.1, 1.3)]
    report = run.end_to_end(results, [run._round_totals(results)], setup)
    line = run.result_line(report, 0, True, 6, 0)
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(v["value"] > 0 for v in line["metrics"].values())
    for cmd in run.COMMANDS:
        assert report[cmd + "_s"][2] == 1
    assert report["setup_s"][0] == pytest.approx(0.6)
    assert report["wall_s"][0] == pytest.approx(0.5 * 21.0)
    assert report["wall_raw_s"][0] == pytest.approx(21.0)
    assert report["error_rate"][:2] == (0.0, "ratio")
    assert report["sim_cycles_per_s"][0] == pytest.approx(100 / 3.0)


def _span(name, t0, t1, parent, attrs=None):
    return [name, t0, t1, parent, "r", attrs or {}]


def _fake_spans():
    model = {"model": "m"}
    return [
        _span("cli.main", 0.0, 10.0, -1),
        _span("control.optimize_exact", 1.0, 9.0, 0),
        _span("exact.cost", 2.0, 6.0, 1, model),
        _span("exact.stationary_probs", 2.5, 5.5, 2, model),
        _span("distributions.mixed_poisson_weights", 2.6, 2.8, 3, {"terms": 5}),
        _span("kernels.busy_period_recurrence", 3.0, 5.0, 3,
              {"L": 5, "madds": 10, "rescales": 1}),
        _span("asymptotics.j_upper", 6.5, 7.0, 1),
        _span("simulator.simulate", 9.2, 9.8, 0),
        _span("kernels.simulate_cycles", 9.3, 9.7, 7,
              {"cycles": 4, "services": 12, "longest": 6}),
    ]


def test_every_per_layer_metric_is_emitted_with_its_unit():
    tally = layers.request_metrics(_fake_spans())
    m = layers.round_metrics([tally], [11.0])
    m.update(("%s.import_s" % mod, 0.1) for mod in layers.MODULES)
    m["trace.overhead_s"] = 0.5
    line = run.result_line({k: (m[k], u, 1) for k, u in layers.LAYER_METRICS.items()},
                           1, True, 1, 0)
    want = {x["name"]: x["unit"] for x in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert m["exact.solve_calls"] == 1
    assert m["exact.self_s"] == pytest.approx(1.0 + 0.8)
    assert m["control.cost_evals"] == 1
    assert m["control.self_s"] == pytest.approx(8.0 - 4.0 - 0.5)
    assert m["cli.self_s"] == pytest.approx(10.0 - 8.0 - 0.6)
    assert m["cli.process_overhead_s"] == pytest.approx(1.0)
    assert m["kernels.recurrence_madds_per_s"] == pytest.approx(5.0)
    assert m["kernels.sim_services_per_s"] == pytest.approx(30.0)
    assert m["exact.useful_solve_ratio"] == 1.0


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      1713 |     145814 |       numpy\n"
            "import time:     12110 |     468113 |     damctl.distributions\n"
            "import time:      4471 |    1189363 | damctl.cli\n")
    assert layers.parse_importtime(text) == {"distributions": 0.468113,
                                             "cli": 1.189363}


def _exp_record(req, p1, p2):
    """An analyze record that meets every identity but the closed form."""
    lam = req.meta["lam"]
    e_idle = 1.0 / lam
    e_t = e_idle * (1.0 - p1) / p1
    return json.dumps({"model": {"lambda": lam}, "p1": p1, "p2": p2, "e_t": e_t,
                       "e_idle": e_idle, "e_nu1": 1.0, "e_nu2": lam * e_t})


def test_exponential_closed_form_check():
    gen = Generator("exact-large", 5)
    req = gen.round()[0]
    assert req.meta["family"] == "exp"
    rate1 = float(req.meta["b1"].split(":")[1])
    rate2 = float(req.meta["b2"].split(":")[1])
    lam = req.meta["lam"]
    p1, p2 = checks._exp_closed_form(lam, rate1, lam / rate2, req.meta["level"])
    assert p1 < 1e-3 and p2 < 1e-3
    assert checks.check(req, _exp_record(req, p1, p2), None) is None
    # damctl's own error is at most 4e-9 relative; 1e-6 relative must fail
    assert checks.check(req, _exp_record(req, p1 * (1 + 1e-8), p2), None) is None
    for bad in ((p1 * (1 + 1e-6), p2), (p1, p2 * (1 - 1e-6))):
        assert "closed form" in checks.check(req, _exp_record(req, *bad), None)


def test_launcher_records_nested_spans(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), DAMCTL_BACKEND="numpy")
    path = tmp_path / "spans.json"
    argv = ["analyze", "--lambda", "1", "--b1", "exp:1.25", "--b2", "exp:2",
            "--level", "5"]
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "launcher.py"),
                           str(path), "7"] + argv, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "analyze"
    spans = json.loads(path.read_text())
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    assert all(s[4] == "7" and s[3] < i and s[1] <= s[2] for i, s in enumerate(spans))
    names = {s[0] for s in spans}
    assert {"kernels.busy_period_recurrence",
            "distributions.mixed_poisson_weights"} <= names
    assert any(n.startswith("exact.") for n in names)
