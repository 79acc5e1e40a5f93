"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

Each criterion re-derives its expected values from an independent route
(closed forms, grid scans, formal series) rather than from the code under
test.  Each criterion also has a wall-clock budget.
"""

import json
import math
import time

import numpy as np

import conftest
import gf_reference
import grid_costs
from damctl import asymptotics, cli, control, exact, simulator
from damctl.distributions import (Deterministic, Erlang, Exponential, Gamma,
                                  HyperExponential)

B2 = Exponential(rate=2.0)  # rho2 = 0.5 at lam = 1

FAMILIES = {
    "exp": Exponential(rate=1.0),
    "erlang": Erlang(shape=3, rate=3.0),
    "gamma": Gamma(shape=0.7, rate=0.7),
    "det": Deterministic(duration=1.0),
    "hyper": HyperExponential(weights=(0.4, 0.6), rates=(0.5, 3.0)),
}


def mm1(rho1, level):
    return exact.DamModel(lam=1.0, b1=Exponential(rate=1.0 / rho1), b2=B2,
                          level=level)


def _report(num, name, ok, elapsed, budget, detail=""):
    in_time = elapsed < budget
    status = "PASS" if (ok and in_time) else "FAIL"
    line = "[criterion %2d] %s: %s (%.2fs, budget %gs)%s" % (
        num, status, name, elapsed, budget, " -- " + detail if detail else "")
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, "criterion %d failed: %s %s" % (num, name, detail)
    assert in_time, "criterion %d over budget: %.2fs >= %gs" % (
        num, elapsed, budget)


def test_criterion_01_mm1_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for rho1 in (0.5, 0.8, 1.0, 1.25):
        q = exact.busy_period_counts(mm1(rho1, 200))
        n = np.arange(201, dtype=float)
        if rho1 == 1.0:
            want = n + 1.0
        else:
            want = (1.0 - rho1 ** (n + 1.0)) / (1.0 - rho1)
        worst = max(worst, float(np.max(np.abs(q - want) / want)))
    _report(1, "geometric-sum closed form for exponential service", worst <= 1e-10,
            time.perf_counter() - t0, 1.0, "max rel err %.2e" % worst)


def test_criterion_02_dual_path_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for shape in FAMILIES.values():
        for rho1 in (0.8, 1.0, 1.25):
            model = exact.DamModel(lam=1.0, b1=shape.scale_to_mean(rho1),
                                   b2=B2, level=100)
            q = exact.busy_period_counts(model)
            g = gf_reference.gf_coefficients(model, 100)
            worst = max(worst, float(np.max(np.abs(q - g) / q)))
    _report(2, "recurrence vs generating-function series (5 families)",
            worst <= 1e-9, time.perf_counter() - t0, 1.0,
            "max rel err %.2e" % worst)


def test_criterion_03_critical_decay():
    t0 = time.perf_counter()
    p1, p2 = exact.stationary_probs(mm1(1.0, 2000))
    err1 = abs(2000 * p1 - 1.0)
    err2 = abs(2000 * p2 - 1.0)
    _report(3, "critical regime: L*p1 and L*p2 approach 1", max(err1, err2) <= 0.01,
            time.perf_counter() - t0, 1.0,
            "L*p1 err %.3g, L*p2 err %.3g" % (err1, err2))


def test_criterion_04_supercritical_limits():
    t0 = time.perf_counter()
    p1, p2 = exact.stationary_probs(mm1(1.25, 200))
    err2 = abs(p2 - 1.0 / 6.0) / (1.0 / 6.0)
    ratio = p1 / 0.8 ** 200
    err1 = abs(ratio - 0.133333) / 0.133333
    _report(4, "supercritical limits: p2 -> 1/6 and p1 geometric prefactor",
            max(err1, err2) <= 1e-3, time.perf_counter() - t0, 1.0,
            "prefactor err %.3g, p2 err %.3g" % (err1, err2))


def test_criterion_05_heavy_traffic_upper():
    t0 = time.perf_counter()
    rho12t, rho2 = 2.0, 0.5
    ok = True
    worst_final = 0.0
    for c in (0.5, 1.0, 2.0):
        errs = []
        for level in (500, 1000, 2000):
            delta = c / level
            p1, p2 = exact.stationary_probs(mm1(1.0 + delta, level))
            a1, a2 = asymptotics.heavy_upper(delta, c, rho12t, rho2)
            errs.append(max(abs(a1 - p1) / p1, abs(a2 - p2) / p2))
        ok = ok and errs[0] > errs[1] > errs[2] and errs[2] <= 0.05
        worst_final = max(worst_final, errs[2])
    _report(5, "heavy-traffic upper formulas: <=5% at L=2000 and shrinking",
            ok, time.perf_counter() - t0, 5.0,
            "worst rel err at L=2000: %.3g" % worst_final)


def test_criterion_06_lower_regime_table(capsys):
    t0 = time.perf_counter()
    ok = True
    n_rows = 0
    for c in (0.5, 1.0, 2.0):
        code = cli.main(["verify", "--lambda", "1", "--b1", "exp:1",
                         "--b2", "exp:2", "--regime", "lower",
                         "--c", str(c), "--levels", "500,1000,2000"])
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        ok = ok and code == 0 and len(rows) == 4
        ok = ok and "ground truth" in captured.err  # discrepancy summary
        n_rows += len(rows) - 1
    _report(6, "lower-regime comparison table with discrepancy summary", ok,
            time.perf_counter() - t0, 5.0, "%d table rows emitted" % n_rows)


def test_criterion_07_balanced_control():
    t0 = time.perf_counter()
    sol = control.optimize_asymptotic(exact.CostModel(1.0, 1.0), 0.5, 2.0, 2000)
    ok = sol.c_star == 0.0 and sol.predicted_cost == 1.0 * 2.0
    sol_x = control.optimize_exact(1.0, Exponential(rate=1.0), B2, 2000,
                                   exact.CostModel(1.0, 1.0))
    gap = abs(sol_x.rho1_star - 1.0)
    ok = ok and gap <= 20.0 / 2000.0
    _report(7, "balanced costs: exact zero drift and near-unit exact load", ok,
            time.perf_counter() - t0, 30.0,
            "|rho1* - 1| = %.4g (allowed %.4g)" % (gap, 20.0 / 2000.0))


def test_criterion_08_optimizer_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(20):
        j2 = rng.uniform(0.5, 2.0)
        rho2 = rng.uniform(0.2, 0.8)
        rho12t = rng.uniform(1.0, 2.0)
        pivot = j2 * rho2 / (1.0 - rho2)
        if k % 2 == 0:
            costs = exact.CostModel(pivot * rng.uniform(1.1, 3.0), j2)
            curve = lambda c: grid_costs.j_upper(c, rho12t, rho2, costs)
        else:
            costs = exact.CostModel(pivot * rng.uniform(0.2, 0.9), j2)
            curve = lambda c: grid_costs.j_lower(c, rho12t, rho2, costs)
        sol = control.optimize_asymptotic(costs, rho2, rho12t, 1000)
        grid = np.linspace(0.0, 10.0 * rho12t, 10 ** 6)
        want = float(grid[np.argmin(curve(grid))])
        worst = max(worst, abs(sol.c_star - want))
    _report(8, "asymptotic optimum vs million-point grid scan (20 tuples)",
            worst <= 1e-5, time.perf_counter() - t0, 10.0,
            "max |C* - grid| = %.2e" % worst)


def test_criterion_09_simulation_agreement():
    t0 = time.perf_counter()
    cfg = simulator.SimulationConfig(model=mm1(0.8, 5), n_cycles=10 ** 6, seed=42)
    rep = simulator.simulate(cfg)
    again = simulator.simulate(cfg)
    bytes_a = json.dumps(rep.to_dict()).encode()
    bytes_b = json.dumps(again.to_dict()).encode()
    d1 = abs(rep.p1_hat - 0.237329)
    d2 = abs(rep.p2_hat - 0.062215)
    ok = (d1 <= 3 * rep.half_widths["p1"] and d2 <= 3 * rep.half_widths["p2"]
          and bytes_a == bytes_b)
    _report(9, "million-cycle simulation within 3 half-widths, byte-stable", ok,
            time.perf_counter() - t0, 60.0,
            "p1 dev %.2g (hw %.2g), p2 dev %.2g (hw %.2g)" % (
                d1, rep.half_widths["p1"], d2, rep.half_widths["p2"]))


def test_criterion_10_invariant_suite():
    t0 = time.perf_counter()
    ok = True
    detail = []
    # weight normalization and moment identities
    for shape in FAMILIES.values():
        for lam in (0.5, 1.0, 2.0):
            r = shape.mixed_poisson_weights(lam, 2000)
            j = np.arange(2001, dtype=float)
            ok = ok and abs(math.fsum(r) - 1.0) < 1e-12
            ok = ok and abs(math.fsum(r * j) - lam * shape.mean()) < 1e-10
            m2 = lam * shape.mean() + lam ** 2 * shape.raw_moment(2)
            ok = ok and abs(math.fsum(r * j * j) - m2) / m2 < 1e-10
    if not ok:
        detail.append("weights")
    # identity chain and renewal-reward consistency across families and loads
    for shape in FAMILIES.values():
        for rho1 in (0.7, 1.0, 1.3):
            model = exact.DamModel(lam=1.0, b1=shape.scale_to_mean(rho1),
                                   b2=B2, level=40)
            bp = exact.busy_period_metrics(model)
            ok = ok and abs(model.lam * bp.e_t + 1.0
                            - (bp.e_nu1 + bp.e_nu2)) < 1e-9 * (bp.e_nu1 + bp.e_nu2)
            p1, p2 = exact.stationary_probs(model)
            cycle = bp.e_t + bp.e_idle
            ok = ok and abs(p1 - bp.e_idle / cycle) < 1e-12
            ok = ok and abs(p2 - bp.e_t2 / cycle) < 1e-12
    if not ok and not detail:
        detail.append("cycle identities")
    # upper limiting cost is nondecreasing in C under balanced costs
    for rho2 in (0.3, 0.5, 0.7):
        for rho12t in (1.2, 2.0, 3.0):
            j2 = 1.0
            costs = exact.CostModel(j2 * rho2 / (1.0 - rho2), j2)
            grid = np.linspace(0.0, 5.0 * rho12t, 2001)
            vals = [asymptotics.j_upper(c, rho12t, rho2, costs)
                    for c in grid.tolist()]
            ok = ok and bool(np.all(np.diff(vals) >= -1e-12))
    if not ok and not detail:
        detail.append("monotonicity")
    _report(10, "invariant property suite (weights, cycle identities, monotone cost)",
            ok, time.perf_counter() - t0, 10.0, ",".join(detail))
