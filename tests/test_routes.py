"""The two routes to Q_L agree: Python floats (small L, numpy not loaded)
and numpy.  pytest has numpy loaded, so each route is called directly;
tests/test_cli.py checks which route a fresh interpreter takes."""

import math
import os
import subprocess
import sys

import mpmath
import pytest

import mp_reference
from damctl import exact
from damctl.distributions import (Deterministic, Erlang, Exponential, Gamma,
                                  HyperExponential)
from damctl.errors import NumericDegeneracyError

B2 = Exponential(rate=2.0)  # rho2 = 0.5 at lam = 1
COSTS = exact.CostModel(j1=2.0, j2=1.0)

SHAPES = {
    "exp": Exponential(rate=1.0),
    "erlang": Erlang(shape=3, rate=3.0),
    "gamma0.5": Gamma(shape=0.5, rate=0.5),
    "gamma2.5": Gamma(shape=2.5, rate=2.5),
    "det": Deterministic(duration=1.0),
    "hyper": HyperExponential(weights=(0.4, 0.6), rates=(0.5, 3.0)),
}
LEVELS = [1, 2, 7, 50, 200, 256, exact.PYTHON_MAX_LEVEL]
LOADS = [0.5, 0.95, 1.0, 1.05, 1.5, 3.0]


def model(tag, rho1, level):
    return exact.DamModel(lam=1.0, b1=SHAPES[tag].scale_to_mean(rho1), b2=B2,
                          level=level)


def near(a, b, slack):
    """a and b within slack; equal where they are beyond double range."""
    return a == b or abs(a - b) <= slack


def solve_by(route, m, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(exact, "_q_top", route)
        return exact.solve(m, COSTS)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("tag", sorted(SHAPES))
def test_routes_agree(tag, level, monkeypatch):
    for rho1 in LOADS:
        m = model(tag, rho1, level)
        q_py = exact._python_q_top(m)
        q_np = exact._numpy_q_top(m)
        assert q_py == pytest.approx(q_np, rel=1e-12), rho1
        py = solve_by(exact._python_q_top, m, monkeypatch)
        np_ = solve_by(exact._numpy_q_top, m, monkeypatch)
        assert py.p1 == pytest.approx(np_.p1, rel=1e-12, abs=0.0), rho1
        assert py.cost == pytest.approx(np_.cost, rel=1e-12), rho1
        # p2 and e_nu2 are differences of terms of the sizes below, and
        # round-off on both routes where those cancel (rho1 < 1)
        inv_q = 1.0 / q_np
        p2_terms = m.rho2 * (inv_q + abs(m.rho1 - 1.0)) / (inv_q + m.rho1 - m.rho2)
        nu2_terms = (1.0 + abs(1.0 - m.rho1) * q_np) / (1.0 - m.rho2)
        assert near(py.p2, np_.p2, 1e-12 * p2_terms), rho1
        assert near(py.busy.e_nu2, np_.busy.e_nu2, 1e-12 * nu2_terms), rho1
        assert near(py.busy.e_t2, np_.busy.e_t2,
                    1e-12 * nu2_terms * B2.mean()), rho1


@pytest.mark.parametrize("level", [7, 50])
@pytest.mark.parametrize("tag", sorted(SHAPES))
@pytest.mark.parametrize("rho1", [0.95, 1.0, 1.05])
def test_python_route_matches_40_digit_reference(tag, level, rho1):
    m = model(tag, rho1, level)
    log_want = mp_reference.log_counts(m)[-1]
    with mpmath.workdps(40):
        err = abs(mpmath.log(exact._python_q_top(m)) - log_want)
    assert float(err) < 1e-12


def test_python_route_refuses_an_underflowing_r0():
    m = exact.DamModel(lam=1.0, b1=Deterministic(duration=800.0), b2=B2,
                       level=5)
    with pytest.raises(NumericDegeneracyError, match="r_0"):
        exact._python_q_top(m)


def test_python_route_refuses_a_non_finite_q(monkeypatch):
    def nan_renewal(a):
        return [math.nan] * len(a)

    monkeypatch.setattr(exact, "_python_renewal", nan_renewal)
    with pytest.raises(NumericDegeneracyError, match="non-finite"):
        exact._python_q_top(model("exp", 0.8, 10))


def test_slow_tail_is_handed_to_numpy():
    # shape 1e-8: the weights fall as (1 + 1e-8)^-j, past any list the
    # Python route sums; a fresh interpreter then loads numpy to solve it
    m = exact.DamModel(lam=1.0, b1=Gamma(shape=1e-8, rate=1e-8), b2=B2,
                       level=10)
    assert exact._python_q_top(m) is None
    script = """
import sys
from damctl import exact
from damctl.distributions import Exponential, Gamma
m = exact.DamModel(lam=1.0, b1=Gamma(shape=1e-8, rate=1e-8),
                   b2=Exponential(rate=2.0), level=10)
print(repr(exact.solve(m).busy.e_nu1), "numpy" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(exact.__file__)))
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    q, loaded = proc.stdout.split()
    assert loaded == "True"
    assert float(q) == exact._numpy_q_top(m)
