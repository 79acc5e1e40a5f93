"""The two routes to Q_L agree: a phase-type law's phases (while numpy is
not loaded) and the band, whose two loops, the list loop on Python floats
and numpy's in the kernels, agree with the unbanded loop on all of a_1..a_L
built here.  Every route reads the same weights, a list of Python floats.
pytest has numpy loaded, so `python_q_top` runs the band as a process
without numpy does; tests/test_cli.py checks which route a fresh
interpreter takes."""

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import mp_reference
from damctl import exact, kernels
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
LEVELS = [1, 2, 7, 50, 200, 256, 384]
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


def without_numpy(route):
    """route as a process without numpy runs it: within _PYTHON_MAX_WORK on
    the list loop."""
    def run(m):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exact, "_numpy_loaded", lambda: False)
            return route(m)
    return run


def full_increments(m):
    """(a_1..a_L, r_0) from all the weights r_0..r_N that leave out less
    than 2^-60 T_L, without a band."""
    L = int(m.level)
    n = 2 * L + 200
    while not exact._enough(r := exact._weights(m, n), L):
        n *= 2
    r = np.array(r)
    head = 1.0 - np.cumsum(r[:L + 1])[1:]
    tail = np.cumsum(r[:1:-1])[::-1][:L]
    return np.where(head >= 0.5, head, tail) / r[0], r[0]


def log_phi(m):
    """log of the 40-digit root phi where rho1 > 1, else 0."""
    if m.rho1 <= 1.0:
        return 0.0
    return float(mpmath.log(mp_reference.root_phi(m.lam, m.b1)))


def unbanded_q_top(m):
    """Q_L by the kernels' loop on all of a_1..a_L (K = L), tilted by the
    40-digit log phi: O(L^2), the reference for the band."""
    L = int(m.level)
    a, r0 = full_increments(m)
    x = log_phi(m)
    u, scales = kernels.busy_period_recurrence(
        a * np.exp(np.arange(1, L + 1) * x), L, x)
    q = exact._finite_q(float(np.dot(u[:-1], np.exp(-scales[:0:-1]))) / r0)
    with np.errstate(over="ignore"):
        return q * float(np.exp(scales[-1]))


python_q_top = without_numpy(exact._band_q_top)


def assert_agrees_with_numpy(route, tag, level, monkeypatch,
                             reference=exact._band_q_top):
    """route against reference, by default the band on numpy's weights and
    loop: the route of a process with numpy loaded."""
    for rho1 in LOADS:
        m = model(tag, rho1, level)
        q_py = route(m)
        q_np = reference(m)
        assert q_py == pytest.approx(q_np, rel=1e-12), rho1
        py = solve_by(route, m, monkeypatch)
        np_ = solve_by(reference, m, monkeypatch)
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


@pytest.fixture
def unbounded_band(monkeypatch):
    """The list loop for every law, however much work its band takes."""
    monkeypatch.setattr(exact, "_PYTHON_MAX_WORK", math.inf)


@pytest.mark.parametrize("level", LEVELS + [1000, 4000])
@pytest.mark.parametrize("tag", sorted(SHAPES))
def test_routes_agree(tag, level, monkeypatch, unbounded_band):
    # a process without numpy against one with it: list weights and loop
    # against numpy's; then each loop against the unbanded one on its weights
    assert_agrees_with_numpy(python_q_top, tag, level, monkeypatch)
    assert_agrees_with_numpy(python_q_top, tag, level, monkeypatch,
                             without_numpy(unbanded_q_top))
    assert_agrees_with_numpy(exact._band_q_top, tag, level, monkeypatch,
                             unbanded_q_top)


@pytest.mark.parametrize("level", [7, 50])
@pytest.mark.parametrize("tag", sorted(SHAPES))
@pytest.mark.parametrize("rho1", [0.95, 1.0, 1.05])
def test_python_route_matches_40_digit_reference(tag, level, rho1):
    m = model(tag, rho1, level)
    log_want = mp_reference.log_counts(m)[-1]
    with mpmath.workdps(40):
        err = abs(mpmath.log(python_q_top(m)) - log_want)
    assert float(err) < 1e-12


@pytest.mark.parametrize("tag", ["gamma0.5", "gamma2.5", "det"])
@pytest.mark.parametrize("rho1", [0.95, 1.0, 1.0015, 1.05])  # 1 + 1.5/L
def test_band_matches_40_digit_reference(tag, rho1, unbounded_band):
    m = model(tag, rho1, 1000)
    log_want = mp_reference.log_counts(m)[-1]
    with mpmath.workdps(40):
        err = abs(mpmath.log(python_q_top(m)) - log_want)
    assert float(err) < 1e-12


def test_band_matches_40_digit_reference_at_4000():
    # gamma(1.5) at rho1 = 1 + 1.5/L: u settles to a constant, where a
    # plain sum in the renewal loop was off by 1.3e-12 in log Q_L
    m = exact.DamModel(lam=1.0, b1=Gamma(shape=1.5, rate=1.5 / 1.000375),
                       b2=B2, level=4000)
    log_want = mp_reference.log_counts(m)[-1]
    with mpmath.workdps(40):
        err = abs(mpmath.log(python_q_top(m)) - log_want)
    assert float(err) < 1e-12


BAND_CASES = [(tag, rho1, level) for tag in ("gamma0.5", "gamma2.5", "det",
                                              "exp", "hyper")
              for rho1 in (0.5, 0.95, 1.0, 1.05, 3.0)
              for level in (7, 200, 1000, 4000)]


@pytest.mark.parametrize("tag, rho1, level", BAND_CASES)
def test_band_drops_at_most_its_share(tag, rho1, level):
    m = model(tag, rho1, level)
    a, x, _ = exact._band(m, level)
    tilted = full_increments(m)[0] * np.exp(np.arange(1, level + 1) * x)
    K = len(a)
    assert tilted[K:].sum() <= 2.0 ** -60 / level * tilted.sum()
    assert a == pytest.approx(tilted[:K], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("tag, rho1, level",
                         [case for case in BAND_CASES if case[1] > 1.0])
def test_band_tilt_is_the_kernels_tilt(tag, rho1, level):
    # the tilt the kernels run the band at is the log of the law's root phi
    m = model(tag, rho1, level)
    x = exact._band(m, level)[1]
    assert x == pytest.approx(log_phi(m), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("tag", ["det", "gamma2.5", "exp"])
@pytest.mark.parametrize("rho1", [1.0 + 1e-12, 1.0 + 1e-9, 1.05])
def test_tilted_renewal_stays_in_range(tag, rho1):
    # root_phi's error near rho1 = 1 leaves the tilted u near its limit
    L = 64000
    m = model(tag, rho1, L)
    a, x, _ = exact._band(m, L)
    u = kernels.busy_period_recurrence(a, L, x)[0]
    assert 0.5 <= u[L - 1] / u[L // 2] <= 2.0
    assert u.max() <= 2.0


def test_band_renewal_is_the_kernels_loop_on_the_band():
    # u of a_1..a_K alone, by either loop, is the full loop's u on a_1..a_K
    # and then zeros
    a = [0.3, 0.25, 0.2, 0.15, 0.05]
    u, scales = kernels.busy_period_recurrence(a + [0.0] * 15, 20, 0.0)
    assert not scales.any()
    assert exact._renewal(a, 20) == pytest.approx(list(u[:20]), rel=1e-15)
    band = kernels.busy_period_recurrence(a, 20, 0.0)[0]
    assert band.tolist() == pytest.approx(list(u), rel=1e-15)


def critical_q(m):
    """Q_L at rho1 = 1 but for terms that fall geometrically with L:
    2 L / (lam^2 m2) + 2 m3 / (3 lam m2^2), with m2 and m3 the normal-regime
    law's raw moments."""
    lam, m2, m3 = m.lam, m.b1.raw_moment(2), m.b1.raw_moment(3)
    return 2.0 * m.level / (lam * lam * m2) + 2.0 * m3 / (3.0 * lam * m2 * m2)


@pytest.mark.parametrize("level", [200, 4000, 64000])
@pytest.mark.parametrize("lam", [1.0, 0.7])
@pytest.mark.parametrize("tag", sorted(SHAPES))
def test_routes_meet_the_closed_form_at_rho1_one(tag, lam, level,
                                                 unbounded_band):
    m = exact.DamModel(lam=lam, b1=SHAPES[tag].scale_to_mean(1.0 / lam),
                       b2=B2, level=level)
    routes = [python_q_top, exact._band_q_top]
    if exact._phase_q_top(model(tag, 1.0, 1)) is not None:
        routes.append(exact._phase_q_top)
    for route in routes:
        assert route(m) == pytest.approx(critical_q(m), rel=4e-16 * level)


def test_numpy_loop_meets_the_closed_form_at_max_level():
    m = exact.DamModel(lam=1.0, b1=Deterministic(duration=1.0), b2=B2,
                       level=exact.MAX_LEVEL)
    assert exact._band_q_top(m) == pytest.approx(critical_q(m),
                                                 rel=4e-16 * exact.MAX_LEVEL)


def test_band_cuts_a_light_tail_far_below_the_level():
    # a gamma(2.5) law's increments fall by about 0.3 a step; det's faster
    for tag, most in (("gamma2.5", 45), ("det", 22)):
        for rho1 in (0.95, 1.0, 1.05):
            a = exact._band(model(tag, rho1, 4000), 4000)[0]
            assert len(a) <= most


def test_band_of_zero_increments_solves():
    # det(1e-300): r_0 + r_1 = 1 in doubles, so every a_k is 0 and the band
    # is a_1 = 0 alone; u = 1, 0, 0, ... and Q_L = 1 / r_0 on both loops
    m = exact.DamModel(lam=1.0, b1=Deterministic(duration=1e-300), b2=B2,
                       level=5)
    assert exact._band(m, 5)[0] == [0.0]
    for route in (python_q_top, exact._band_q_top):
        assert route(m) == 1.0 / exact._weights(m, 0)[0]


def test_python_route_refuses_an_underflowing_r0():
    m = exact.DamModel(lam=1.0, b1=Deterministic(duration=800.0), b2=B2,
                       level=5)
    with pytest.raises(NumericDegeneracyError, match="r_0"):
        python_q_top(m)


def test_python_route_refuses_a_level_above_max_level():
    with pytest.raises(ValueError, match="above the largest"):
        python_q_top(model("gamma2.5", 1.0, exact.MAX_LEVEL + 1))


def test_python_route_hands_work_past_its_bound_to_numpy(monkeypatch):
    # L K multiply-adds run on the list loop, and one more on numpy's
    m = model("gamma2.5", 1.0, 4000)
    K = len(exact._band(m, 4000)[0])
    want = unbanded_q_top(m)
    calls, real = [], kernels.busy_period_recurrence
    monkeypatch.setattr(kernels, "busy_period_recurrence",
                        lambda *args: calls.append(args[1]) or real(*args))
    monkeypatch.setattr(exact, "_PYTHON_MAX_WORK", 4000 * K)
    assert python_q_top(m) == pytest.approx(want, rel=1e-12)
    assert calls == []
    monkeypatch.setattr(exact, "_PYTHON_MAX_WORK", 4000 * K - 1)
    assert python_q_top(m) == pytest.approx(want, rel=1e-12)
    assert calls == [4000]


def test_python_route_refuses_a_non_finite_q(monkeypatch):
    def nan_renewal(a, L):
        return [math.nan] * L

    monkeypatch.setattr(exact, "_renewal", nan_renewal)
    with pytest.raises(NumericDegeneracyError, match="non-finite"):
        python_q_top(model("exp", 0.8, 10))


def test_slow_tail_solves_without_numpy():
    # shape 1e-8: the weights fall as (1 + 1e-8)^-j, so the band reads 2^20
    # of them and takes the rest as one term; a fresh interpreter reads
    # them on Python floats and runs the list loop, without numpy
    m = exact.DamModel(lam=1.0, b1=Gamma(shape=1e-8, rate=1e-8), b2=B2,
                       level=10)
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
    assert loaded == "False"
    assert float(q) == exact._band_q_top(m)


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
    for reference in (exact._band_q_top, unbanded_q_top):
        assert_agrees_with_numpy(exact._phase_q_top, tag, level, monkeypatch,
                                 reference)


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
    assert exact._phase_q_top(m) == pytest.approx(exact._band_q_top(m),
                                                  rel=1e-12)


def test_phase_route_overflows_to_inf():
    assert exact._phase_q_top(model("exp", 10.0, 320)) == math.inf
    assert exact._band_q_top(model("exp", 10.0, 320)) == math.inf


def test_phase_route_raises_what_the_other_routes_raise(monkeypatch):
    # r_0 = (1e-160 / (1 + 1e-160))^2 underflows the floor
    m = exact.DamModel(lam=1.0, b1=Erlang(shape=2, rate=1e-160), b2=B2,
                       level=5)
    with pytest.raises(NumericDegeneracyError, match="r_0"):
        exact._phase_q_top(m)
    with pytest.raises(NumericDegeneracyError, match="r_0"):
        exact._band_q_top(m)
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
