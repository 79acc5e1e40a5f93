"""Property tests of the exact solution and the exact optimizer.

Models are drawn over every service family, the arrival rate, both loads,
the costs and levels up to 200.  Examples are derandomized, so each run
checks the same ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from damctl import control, exact
from damctl.distributions import (Deterministic, Erlang, Exponential, Gamma,
                                  HyperExponential)

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=40)


@st.composite
def shapes(draw):
    """A unit-mean normal-regime law of any family."""
    family = draw(st.sampled_from(["exp", "erlang", "gamma", "det", "hyper"]))
    if family == "exp":
        return Exponential(rate=1.0)
    if family == "erlang":
        k = draw(st.integers(1, 6))
        return Erlang(shape=k, rate=float(k))
    if family == "gamma":
        a = draw(st.floats(0.2, 4.0))
        return Gamma(shape=a, rate=a)
    if family == "det":
        return Deterministic(duration=1.0)
    w = draw(st.floats(0.05, 0.95))
    rates = (draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0)))
    return HyperExponential(weights=(w, 1.0 - w), rates=rates).scale_to_mean(1.0)


@st.composite
def settings_(draw):
    """(lam, shape, b2, level) with rho2 in [0.05, 0.95]."""
    lam = draw(st.floats(0.2, 5.0))
    rho2 = draw(st.floats(0.05, 0.95))
    level = draw(st.integers(1, 200))
    return lam, draw(shapes()), Exponential(rate=lam / rho2), level


def _model(lam, shape, b2, level, rho1):
    return exact.DamModel(lam=lam, b1=shape.scale_to_mean(rho1 / lam), b2=b2,
                          level=level)


costs_ = st.builds(exact.CostModel, st.floats(0.0, 3.0), st.floats(0.0, 3.0))


@PROPERTY
@given(settings_(), st.floats(0.3, 2.0))
def test_probabilities_are_a_sub_distribution(setting, rho1):
    p1, p2 = exact.stationary_probs(_model(*setting, rho1))
    assert 0.0 <= p1 and 0.0 <= p2
    assert p1 + p2 <= 1.0


@PROPERTY
@given(settings_(), st.floats(0.3, 2.0))
def test_cycle_identity(setting, rho1):
    # every service ends with one departure: lam * E T + 1 = E nu1 + E nu2
    bp = exact.busy_period_metrics(_model(*setting, rho1))
    lam = setting[0]
    total = bp.e_nu1 + bp.e_nu2
    assert lam * bp.e_t + 1.0 == pytest.approx(total, rel=1e-9)


@PROPERTY
@given(settings_(), st.booleans(), st.floats(0.1, 3.0),
       st.lists(st.floats(0.3, 2.0), min_size=2, max_size=8, unique=True))
def test_one_sided_cost_is_monotone_in_rho1(setting, lower, j, rho1s):
    # charging only p1 rewards a faster release, charging only p2 a slower
    # one; a probability may be off by round-off (see the next test)
    costs = exact.CostModel(j, 0.0) if lower else exact.CostModel(0.0, j)
    vals = np.array([exact.cost(_model(*setting, x), costs)
                     for x in sorted(rho1s)])
    steps = np.diff(vals) * (-1.0 if lower else 1.0)
    assert steps.min() >= -1e-9 * vals.max() - 1e-12 * setting[3] * j


@PROPERTY
@given(settings_(), costs_, st.floats(0.3, 0.95), st.floats(1.05, 2.0))
def test_no_scan_point_beats_the_exact_optimum(setting, costs, lo, hi):
    # golden section alone is exact only if J has one minimum in rho1.  Deep
    # subcritical, p2 is round-off of order 1e-14 (its numerator cancels), so
    # J = L (j1 p1 + j2 p2) is compared up to 1e-12 in each probability
    lam, shape, b2, level = setting
    sol = control.optimize_exact(lam, shape, b2, level, costs,
                                 rho1_range=(lo, hi))
    best = min(exact.cost(_model(*setting, x), costs)
               for x in np.linspace(lo, hi, 65))
    slack = 1e-12 * level * (costs.j1 + costs.j2)
    assert sol.predicted_cost <= best * (1.0 + 1e-8) + slack
