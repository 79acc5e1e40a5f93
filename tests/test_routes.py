"""The three routes to Q_L agree: a phase-type law's phases and Python
floats (both while numpy is not loaded) and numpy.  pytest has numpy
loaded, so each route is called directly; tests/test_cli.py checks which
route a fresh interpreter takes."""

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


def assert_agrees_with_numpy(route, tag, level, monkeypatch):
    for rho1 in LOADS:
        m = model(tag, rho1, level)
        q_py = route(m)
        q_np = exact._numpy_q_top(m)
        assert q_py == pytest.approx(q_np, rel=1e-12), rho1
        py = solve_by(route, m, monkeypatch)
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


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("tag", sorted(SHAPES))
def test_routes_agree(tag, level, monkeypatch):
    assert_agrees_with_numpy(exact._python_q_top, tag, level, monkeypatch)


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


# --- the phase route: exp, Erlang and hyper laws by their phases ---

PHASE_TAGS = ["exp", "erlang", "erlang40", "hyper"]


@pytest.fixture
def phases_up_to_40(monkeypatch):
    """The phase route for Erlang(40) too, past MAX_PHASES."""
    monkeypatch.setitem(SHAPES, "erlang40", Erlang(shape=40, rate=40.0))
    monkeypatch.setattr(exact, "MAX_PHASES", 40)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("tag", PHASE_TAGS)
def test_phase_route_agrees_with_numpy(tag, level, monkeypatch,
                                       phases_up_to_40):
    assert_agrees_with_numpy(exact._phase_q_top, tag, level, monkeypatch)


@pytest.mark.parametrize("tag, level, rho1", [
    ("erlang", 1000, 1.0), ("erlang40", 1000, 0.999), ("hyper", 1000, 1.001),
    ("hyper", 2000, 0.9995)])
def test_phase_route_matches_40_digit_reference(tag, level, rho1,
                                                phases_up_to_40):
    m = model(tag, rho1, level)
    log_want = mp_reference.log_counts(m)[-1]
    with mpmath.workdps(40):
        err = abs(mpmath.log(exact._phase_q_top(m)) - log_want)
    assert float(err) < 1e-12


@pytest.mark.parametrize("level", [4000, 16000, 32000])
@pytest.mark.parametrize("rho1", [0.8, 0.9995, 1.0, 1.0001, 1.5])
def test_phase_route_matches_mm1_closed_form(level, rho1):
    m = model("exp", rho1, level)
    with mpmath.workdps(40):
        rho = 1 / mpmath.mpf(m.b1.rate)
        want = (rho ** (level + 1) - 1) / (rho - 1) if rho != 1 else level + 1
        log_want = float(mpmath.log(want))
    q = exact._phase_q_top(m)
    if log_want > 709.0:
        assert q == math.inf
    else:
        assert q == pytest.approx(math.exp(log_want), rel=1e-11)


def test_phase_route_keeps_a_tiny_r0_finite(monkeypatch):
    # r_0 = 2e-300: v = R 1 / r_0 is 5e299, so each step multiplies the
    # state by about that; Q_L is beyond double range, p1 = 0, p2 = rho2
    m = exact.DamModel(lam=1.0, b1=Exponential(rate=2e-300), b2=B2, level=50)
    sol = solve_by(exact._phase_q_top, m, monkeypatch)
    assert (sol.busy.e_nu1, sol.p1, sol.p2, sol.cost) == (math.inf, 0.0, 0.5,
                                                           25.0)
    # r_0 = 1e-10: Q_30 = 1.0006e300 is finite, but the state is rescaled
    m = exact.DamModel(lam=1.0, b1=Erlang(shape=2, rate=1e-5), b2=B2,
                       level=30)
    assert exact._phase_q_top(m) == pytest.approx(exact._numpy_q_top(m),
                                                  rel=1e-12)


def test_phase_route_overflows_to_inf():
    assert exact._phase_q_top(model("exp", 10.0, 320)) == math.inf
    assert exact._numpy_q_top(model("exp", 10.0, 320)) == math.inf


def test_phase_route_raises_what_the_other_routes_raise(monkeypatch):
    # r_0 = (1e-160 / (1 + 1e-160))^2 underflows the floor
    m = exact.DamModel(lam=1.0, b1=Erlang(shape=2, rate=1e-160), b2=B2,
                       level=5)
    with pytest.raises(NumericDegeneracyError, match="r_0"):
        exact._phase_q_top(m)
    with pytest.raises(NumericDegeneracyError, match="r_0"):
        exact._numpy_q_top(m)
    m = model("exp", 0.8, exact.MAX_LEVEL + 1)
    with pytest.raises(ValueError, match="above the largest"):
        exact._phase_q_top(m)
    monkeypatch.setattr(Exponential, "phases",
                        lambda self, most: ((1.0,), (math.nan,), (0.0,)))
    with pytest.raises(NumericDegeneracyError, match="non-finite"):
        exact._phase_q_top(model("exp", 0.8, 10))


def test_phase_route_leaves_other_laws_to_the_others():
    for tag in ("gamma0.5", "gamma2.5", "det"):
        assert exact._phase_q_top(model(tag, 1.0, 50)) is None
    over = Erlang(shape=exact.MAX_PHASES + 1, rate=1.0)
    m = exact.DamModel(lam=1.0, b1=over, b2=B2, level=50)
    assert exact._phase_q_top(m) is None
