import functools
import math

import numpy as np
import pytest

import golden_reference
import grid_costs
from damctl import asymptotics, control, exact
from damctl.distributions import (Deterministic, Erlang, Exponential, Gamma,
                                  HyperExponential)

B2 = Exponential(rate=2.0)


def test_classify_regime_examples():
    assert control.classify_regime(exact.CostModel(1.0, 1.0), 0.5) == control.REGIME_CRITICAL
    assert control.classify_regime(exact.CostModel(2.0, 1.0), 0.5) == control.REGIME_UPPER
    assert control.classify_regime(exact.CostModel(0.5, 1.0), 0.5) == control.REGIME_LOWER
    with pytest.raises(ValueError):
        control.classify_regime(exact.CostModel(1.0, 1.0), 1.0)


@pytest.mark.parametrize("alpha", [1e-3, 1.0, 1e3])
def test_classify_regime_scale_invariance(alpha):
    for j1, j2, rho2 in [(1.0, 1.0, 0.5), (2.0, 1.0, 0.5), (0.3, 1.0, 0.6)]:
        base = control.classify_regime(exact.CostModel(j1, j2), rho2)
        scaled = control.classify_regime(exact.CostModel(alpha * j1, alpha * j2), rho2)
        assert scaled == base


def _counted(f):
    """f, and a list that grows by one entry per call of it."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


def test_brent_quadratic():
    f, calls = _counted(lambda x: (x - 0.37) ** 2)
    x, fx = control.brent_minimize(f, 0.0, 2.0, 1e-10)
    assert x == pytest.approx(0.37, abs=1e-8)
    assert fx == (x - 0.37) ** 2
    assert len(calls) == len(set(calls)) <= 10


@pytest.mark.parametrize("where", [-1.0, 0.0, 1.0, 2.0])
def test_search_returns_the_end_itself(where):
    # a minimum at or beyond an end is that end, priced once
    f, calls = _counted(lambda x: (x - where) ** 2)
    x, fx = control._brent_and_ends(f, 0.0, 1.0, 1e-10)
    end = 0.0 if where < 0.5 else 1.0
    assert x == end
    assert fx == (end - where) ** 2
    assert calls.count(end) == 1


@pytest.mark.parametrize("end", [0.0, 1.0])
def test_an_end_wins_a_tie(end):
    # f is least on the 5e-11 next to an end, half of tol, where the search
    # stops: the end ties the best interior point and is returned
    f, calls = _counted(lambda x: max(abs(x - end), 5e-11))
    assert control.brent_minimize(f, 0.0, 1.0, 1e-10)[1] == 5e-11
    x, fx = control._brent_and_ends(f, 0.0, 1.0, 1e-10)
    assert x == end
    assert fx == 5e-11
    assert calls.count(end) == 1


@pytest.mark.parametrize("level", [100.0, 2.0 ** 20])
def test_search_stops_where_the_cost_is_flat(level):
    # with j1 = 0 the literal J_lower falls to within round-off of its
    # C = 0 value as C grows; the search takes 49 and 67 evaluations here,
    # golden section 50 and 70
    costs = exact.CostModel(0.0, 1.0)
    f, calls = _counted(lambda c: asymptotics.j_lower(c, 2.0, 0.5, costs))
    x, fx = control.brent_minimize(f, 0.0, math.nextafter(level, 0.0), 1e-8)
    assert 0.0 < x < level
    assert len(calls) <= 80


def test_search_stops_on_a_constant_near_overflow():
    # the bracket's midpoint is formed without a + b, which overflows here
    f, calls = _counted(lambda x: 1.0)
    x, fx = control.brent_minimize(f, 1e300, 1.7e308, 1e-8)
    assert 1e300 < x < 1.7e308
    assert fx == 1.0
    assert len(calls) <= 80


@pytest.mark.parametrize("f", [lambda x: abs(x - 0.3),
                               lambda x: max(2.0 * (0.3 - x), x - 0.3)])
def test_brent_finds_a_kink(f):
    g, calls = _counted(f)
    x, fx = control.brent_minimize(g, 0.0, 1.0, 1e-10)
    assert abs(x - 0.3) <= 1e-10
    assert fx == f(x)
    assert len(calls) <= 60


def test_optimize_asymptotic_balanced():
    sol = control.optimize_asymptotic(exact.CostModel(1.0, 1.0), 0.5, 2.0, 1000)
    assert sol.regime == control.REGIME_CRITICAL
    assert sol.c_star == 0.0
    assert sol.delta_star == 0.0
    assert sol.rho1_star == 1.0
    assert sol.b1_star == 1.0
    assert sol.predicted_cost == 1.0 * 2.0  # j1 * rho12_tilde, exactly
    assert sol.mode == "asymptotic"


def _grid_scan_minimizer(f, c_max, points=10 ** 6):
    grid = np.linspace(0.0, c_max, points)
    return float(grid[np.argmin(f(grid))])


@pytest.mark.parametrize("seed", [0, 1])
def test_optimizer_matches_grid_scan(seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        j2 = rng.uniform(0.5, 2.0)
        rho2 = rng.uniform(0.2, 0.8)
        rho12t = rng.uniform(1.0, 2.0)
        pivot = j2 * rho2 / (1.0 - rho2)
        j1 = pivot * rng.uniform(1.1, 3.0)  # upper-penalized
        costs = exact.CostModel(j1, j2)
        sol = control.optimize_asymptotic(costs, rho2, rho12t, 1000)
        want = _grid_scan_minimizer(
            lambda c: grid_costs.j_upper(c, rho12t, rho2, costs), 10 * rho12t)
        assert sol.c_star == pytest.approx(want, abs=1e-5)

        j1_low = pivot * rng.uniform(0.2, 0.9)  # lower-penalized
        costs = exact.CostModel(j1_low, j2)
        sol = control.optimize_asymptotic(costs, rho2, rho12t, 1000)
        want = _grid_scan_minimizer(
            lambda c: grid_costs.j_lower(c, rho12t, rho2, costs), 10 * rho12t)
        assert sol.c_star == pytest.approx(want, abs=1e-5)


def test_optimize_asymptotic_fills_recommendation():
    sol = control.optimize_asymptotic(exact.CostModel(2.0, 1.0), 0.5, 2.0,
                                      1000, lam=2.0)
    assert sol.regime == control.REGIME_UPPER
    assert sol.c_star > 0
    assert sol.delta_star == pytest.approx(sol.c_star / 1000)
    assert sol.rho1_star == pytest.approx(1.0 + sol.c_star / 1000)
    assert sol.b1_star == pytest.approx(sol.rho1_star / 2.0)

    sol = control.optimize_asymptotic(exact.CostModel(0.5, 1.0), 0.5, 2.0, 1000)
    assert sol.regime == control.REGIME_LOWER
    assert sol.delta_star == pytest.approx(-sol.c_star / 1000)


@pytest.mark.parametrize("j1, name", [(2.0, "j_upper"), (0.5, "j_lower")])
def test_a_zero_width_interval_is_priced_once(monkeypatch, j1, name):
    # c_max = 0 leaves [0, 0]: C* = 0, and the cost there, from one call
    costs = exact.CostModel(j1=j1, j2=1.0)
    cost = getattr(asymptotics, name)
    calls = []

    def counted(c, *args):
        calls.append(c)
        return cost(c, *args)
    monkeypatch.setattr(asymptotics, name, counted)
    sol = control.optimize_asymptotic(costs, 0.5, 1.0, 100, c_max=0.0)
    assert calls == [0.0]
    assert sol.c_star == 0.0
    assert sol.predicted_cost == cost(0.0, 1.0, 0.5, costs)
    f, calls = _counted(lambda x: (x - 0.25) ** 2)
    assert control._brent_and_ends(f, 0.5, 0.5, 1e-8) == (0.5, 0.0625)
    assert calls == [0.5]


def test_zero_drift_is_positive_zero():
    # lower regime, j1 = 0: C* = 0, and -1 * 0 / L would be -0.0
    sol = control.optimize_asymptotic(exact.CostModel(0.0, 1.0), 0.5, 2.0, 100)
    assert sol.regime == control.REGIME_LOWER
    assert sol.c_star == 0.0
    assert math.copysign(1.0, sol.delta_star) == 1.0
    # p2 alone is charged: rho1* is the range's low end, 1
    sol = control.optimize_exact(1.0, Exponential(rate=1.0), B2, 10,
                                 exact.CostModel(0.0, 1.0),
                                 rho1_range=(1.0, 1.5))
    assert sol.rho1_star == 1.0
    assert math.copysign(1.0, sol.delta_star) == 1.0


def test_optimize_exact_balanced_small_level():
    sol = control.optimize_exact(1.0, Exponential(rate=1.0), B2, 100,
                                 exact.CostModel(1.0, 1.0))
    assert sol.mode == "exact"
    assert abs(sol.rho1_star - 1.0) <= 10.0 / 100.0
    assert sol.c_star == pytest.approx(100 * abs(sol.rho1_star - 1.0))


def test_optimize_exact_single_sided_costs_hit_range_ends():
    # j2 = 0: only the idle probability is charged; p1 falls in rho1, so the
    # optimum sits at the top of the range.  j1 = 0 mirrors it.  A shallow
    # level keeps p2 above round-off at the subcritical end.
    sol = control.optimize_exact(1.0, Exponential(rate=1.0), B2, 10,
                                 exact.CostModel(1.0, 0.0))
    assert sol.rho1_star == pytest.approx(1.5, abs=1e-3)
    sol = control.optimize_exact(1.0, Exponential(rate=1.0), B2, 10,
                                 exact.CostModel(0.0, 1.0))
    assert sol.rho1_star == pytest.approx(0.5, abs=1e-3)


def test_monotone_costs_return_the_interval_end_itself():
    # Brent's search alone stops inside the interval; the end is priced too
    sol = control.optimize_asymptotic(exact.CostModel(2.0, 1.0), 0.5, 2.0,
                                      1000, c_max=0.5)  # C* is about 1.04
    assert sol.c_star == 0.5
    for costs, end in [(exact.CostModel(1.0, 0.0), 1.5),
                       (exact.CostModel(0.0, 1.0), 0.5)]:
        sol = control.optimize_exact(1.0, Exponential(rate=1.0), B2, 10, costs)
        assert sol.rho1_star == end


@pytest.mark.parametrize("level", [1, 3, 100])
@pytest.mark.parametrize("c_max", [1e9, 1e308])
def test_lower_regime_keeps_rho1_positive(level, c_max):
    # j1 = 0: the literal J_lower falls toward its C = 0 value as C grows,
    # and the search must not reach C >= L, where rho1 = 1 - C/L <= 0
    sol = control.optimize_asymptotic(exact.CostModel(0.0, 1.0), 0.5, 2.0,
                                      level, c_max=c_max)
    assert sol.regime == control.REGIME_LOWER
    assert 0.0 <= sol.c_star < level
    assert sol.rho1_star > 0.0


@pytest.mark.parametrize("level", [1, 3, 100])
def test_lower_regime_search_stays_below_level(level, monkeypatch):
    # a lower-regime cost that falls without end: the answer is the
    # largest C searched, which must stay below L
    monkeypatch.setattr(asymptotics, "j_lower", lambda c, *args: -c)
    sol = control.optimize_asymptotic(exact.CostModel(0.0, 1.0), 0.5, 2.0,
                                      level, c_max=1e9)
    assert level - 1e-6 < sol.c_star < level
    assert sol.rho1_star > 0.0


def test_optimize_exact_monotone_oracle():
    # grid scan confirms J is monotone in rho1 when only one side is charged
    for costs, sign in [(exact.CostModel(1.0, 0.0), -1), (exact.CostModel(0.0, 1.0), 1)]:
        vals = []
        for rho1 in np.linspace(0.5, 1.5, 21):
            model = exact.DamModel(1.0, Exponential(rate=1.0 / rho1), B2, 10)
            vals.append(exact.cost(model, costs))
        diffs = np.diff(vals) * sign
        assert np.all(diffs >= -1e-12)


EXACT_SHAPES = {
    "exp": Exponential(rate=1.0),
    "erlang": Erlang(shape=3, rate=3.0),
    "gamma": Gamma(shape=0.7, rate=0.7),
    "det": Deterministic(duration=1.0),
    "hyper": HyperExponential(weights=(0.4, 0.6), rates=(0.5, 3.0)),
}


@functools.lru_cache(maxsize=None)
def _dense_scan(family, level=200, points=2001):
    """(rho1 grid, p1s, p2s) of the exact model over [0.5, 1.5]."""
    rho1s = np.linspace(0.5, 1.5, points)
    probs = [exact.stationary_probs(exact.DamModel(
        1.0, EXACT_SHAPES[family].scale_to_mean(x), B2, level)) for x in rho1s]
    p1s, p2s = (np.array(p) for p in zip(*probs))
    return rho1s, p1s, p2s


@pytest.mark.parametrize("j1", [2.0, 0.5])  # upper- and lower-penalized
@pytest.mark.parametrize("family", sorted(EXACT_SHAPES))
def test_optimize_exact_matches_dense_scan(family, j1):
    # Brent's search alone needs one minimum in rho1; a 2,001-point scan of
    # the range would see a second, lower one
    costs = exact.CostModel(j1, 1.0)
    sol = control.optimize_exact(1.0, EXACT_SHAPES[family], B2, 200, costs)
    assert sol.regime != control.REGIME_CRITICAL
    rho1s, p1s, p2s = _dense_scan(family)
    vals = 200 * (costs.j1 * p1s + costs.j2 * p2s)
    i = int(np.argmin(vals))
    assert abs(sol.rho1_star - rho1s[i]) <= rho1s[1] - rho1s[0]
    assert sol.predicted_cost <= vals[i] * (1.0 + 1e-8)


@pytest.mark.parametrize("numpy_loaded", [False, True],
                         ids=["list_loop", "numpy_loop"])
@pytest.mark.parametrize("j1", [2.0, 0.5])  # upper- and lower-penalized
@pytest.mark.parametrize("family", sorted(EXACT_SHAPES))
def test_optimize_exact_matches_golden_section(family, j1, numpy_loaded,
                                               monkeypatch):
    # golden section's optimum, which took 39 solves, in at most 22, and
    # never costlier beyond round-off, on the band's loop on Python floats
    # and on numpy's
    monkeypatch.setattr(exact, "_numpy_loaded", lambda: numpy_loaded)
    costs = exact.CostModel(j1, 1.0)

    def cost(rho1):
        return exact.cost(exact.DamModel(
            1.0, EXACT_SHAPES[family].scale_to_mean(rho1), B2, 200), costs)

    ref_rho1, ref_cost = golden_reference.minimize(cost, 0.5, 1.5, 1e-7)
    calls, real_cost = [], exact.cost
    monkeypatch.setattr(exact, "cost",
                        lambda *a, **k: calls.append(a) or real_cost(*a, **k))
    sol = control.optimize_exact(1.0, EXACT_SHAPES[family], B2, 200, costs)
    assert abs(sol.rho1_star - ref_rho1) <= 1e-7
    assert sol.predicted_cost <= ref_cost * (1.0 + 1e-12)
    assert len(calls) <= 22


def test_optimize_exact_reports_the_winning_cost():
    costs = exact.CostModel(2.0, 1.0)
    sol = control.optimize_exact(1.0, Exponential(rate=1.0), B2, 60, costs)
    model = exact.DamModel(1.0, Exponential(rate=1.0 / sol.rho1_star), B2, 60)
    assert sol.predicted_cost == pytest.approx(exact.cost(model, costs), rel=1e-12)


@pytest.mark.parametrize("bad", [(0.5, math.inf), (-math.inf, 1.5),
                                 (0.5, math.nan), (1.5, 0.5)])
def test_optimize_exact_rejects_bad_range(bad):
    with pytest.raises(ValueError, match="rho1_range"):
        control.optimize_exact(1.0, Exponential(rate=1.0), B2, 10,
                               exact.CostModel(1.0, 1.0), rho1_range=bad)


def test_optimizers_evaluate_the_optimum_once(monkeypatch):
    rho1s, cs = [], []
    real_cost, real_j_upper = exact.cost, asymptotics.j_upper

    def cost(model, costs, **kwargs):
        rho1s.append(model.rho1)
        return real_cost(model, costs, **kwargs)

    def j_upper(c, *args):
        cs.append(c)
        return real_j_upper(c, *args)

    monkeypatch.setattr(exact, "cost", cost)
    monkeypatch.setattr(asymptotics, "j_upper", j_upper)
    costs = exact.CostModel(2.0, 1.0)
    sol = control.optimize_exact(1.0, Exponential(rate=1.0), B2, 40, costs)
    assert len(rho1s) == len(set(rho1s))
    sol = control.optimize_asymptotic(costs, 0.5, 2.0, 1000)
    assert sol.c_star > 0
    assert cs.count(sol.c_star) == 1
    assert sol.predicted_cost == real_j_upper(sol.c_star, 2.0, 0.5, costs)
