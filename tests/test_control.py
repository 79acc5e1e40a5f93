import functools
import math

import numpy as np
import pytest

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


def test_golden_section_quadratic():
    xstar = control.golden_section(lambda x: (x - 0.37) ** 2, 0.0, 2.0, 1e-10)
    assert xstar == pytest.approx(0.37, abs=1e-8)


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
    # golden section alone stops within tol of an end; the end is priced too
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
    # golden section alone needs one minimum in rho1; a 2,001-point scan of
    # the range would see a second, lower one
    costs = exact.CostModel(j1, 1.0)
    sol = control.optimize_exact(1.0, EXACT_SHAPES[family], B2, 200, costs)
    assert sol.regime != control.REGIME_CRITICAL
    rho1s, p1s, p2s = _dense_scan(family)
    vals = 200 * (costs.j1 * p1s + costs.j2 * p2s)
    i = int(np.argmin(vals))
    assert abs(sol.rho1_star - rho1s[i]) <= rho1s[1] - rho1s[0]
    assert sol.predicted_cost <= vals[i] * (1.0 + 1e-8)


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
