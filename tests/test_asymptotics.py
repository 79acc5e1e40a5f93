import math
import sys

import mpmath
import numpy as np
import pytest

import mp_reference
from damctl import asymptotics, exact
from damctl.distributions import (Deterministic, Erlang, Exponential, Gamma,
                                  HyperExponential)
from damctl.errors import RegimeError

B2 = Exponential(rate=2.0)

SHAPES = [
    Exponential(rate=1.0),
    Erlang(shape=3, rate=3.0),
    Gamma(shape=0.7, rate=0.7),
    Deterministic(duration=1.0),
    HyperExponential(weights=(0.4, 0.6), rates=(0.5, 3.0)),
]


def test_limit_subcritical():
    assert asymptotics.limit_subcritical(0.8) == (pytest.approx(0.2), 0.0)
    assert asymptotics.limit_subcritical(0.5) == (pytest.approx(0.5), 0.0)
    with pytest.raises(RegimeError):
        asymptotics.limit_subcritical(1.0)
    with pytest.raises(RegimeError):
        asymptotics.limit_subcritical(1.2)


def test_critical_decay():
    assert asymptotics.critical_decay(2.0, 0.5) == (1.0, pytest.approx(1.0))
    assert asymptotics.critical_decay(2.0, 1e-12)[1] == pytest.approx(0.0, abs=1e-10)
    assert asymptotics.critical_decay(1.0, 0.5) == (0.5, pytest.approx(0.5))
    with pytest.raises(ValueError):
        asymptotics.critical_decay(2.0, 1.0)
    with pytest.raises(ValueError):
        asymptotics.critical_decay(0.0, 0.5)


def test_root_phi_exponential_closed_form():
    assert asymptotics.root_phi(1.0, Exponential(rate=0.8)) == pytest.approx(0.8, abs=1e-12)
    assert asymptotics.root_phi(1.0, Exponential(rate=0.5)) == pytest.approx(0.5, abs=1e-12)


def test_root_phi_requires_supercritical():
    with pytest.raises(RegimeError):
        asymptotics.root_phi(1.0, Exponential(rate=1.0))
    with pytest.raises(RegimeError):
        asymptotics.root_phi(1.0, Exponential(rate=1.25))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("rho1", [1.05, 1.25, 2.0])
def test_root_phi_residual(shape, rho1):
    b1 = shape.scale_to_mean(rho1)
    phi = asymptotics.root_phi(1.0, b1)
    assert 0 < phi < 1
    assert abs(phi - b1.lst(1.0 - phi)) < 1e-12


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("delta", [1e-2, 1e-3])
def test_root_phi_small_delta_expansion(shape, delta):
    # phi = 1 - 2 delta / rho12_tilde + O(delta^2)
    rho12t = asymptotics.rho12_tilde(1.0, shape)
    b1 = shape.scale_to_mean(1.0 + delta)
    phi = asymptotics.root_phi(1.0, b1)
    assert abs(phi - (1.0 - 2.0 * delta / rho12t)) < 10.0 * delta ** 2


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("rho1", [1.001, 1.01, 1.25, 2.0, 10.0])
def test_root_phi_matches_40_digit_root(shape, rho1):
    # relative to 1 - phi, which sets the decay rate phi^L of p1
    b1 = shape.scale_to_mean(rho1)
    want = mp_reference.root_phi(1.0, b1)
    got = asymptotics.root_phi(1.0, b1)
    with mpmath.workdps(mp_reference.DIGITS):
        assert abs(got - want) <= 1e-9 * (1 - want)


@pytest.mark.parametrize("shape", SHAPES)
def test_root_phi_just_above_rho1_one(shape):
    # B1_hat(lam - lam z) - z is ill-conditioned there, but Newton from
    # z = 0 still returns a point of (0, 1) below 1
    phi = asymptotics.root_phi(1.0, shape.scale_to_mean(1.0 + 1e-8))
    assert 0.0 < phi < 1.0


def test_supercritical_example():
    model = exact.DamModel(lam=1.0, b1=Exponential(rate=0.8), b2=B2, level=5)
    pref, p2_lim, phi = asymptotics.supercritical(model)
    assert phi == pytest.approx(0.8, abs=1e-12)
    assert pref == pytest.approx(0.5 * 0.2 / 0.75, rel=1e-10)
    assert p2_lim == pytest.approx(1.0 / 6.0, rel=1e-12)
    with pytest.raises(RegimeError):
        asymptotics.supercritical(
            exact.DamModel(lam=1.0, b1=Exponential(rate=1.25), b2=B2, level=5))


def test_supercritical_prefactor_matches_exact_decay():
    # p1(L) / phi^L converges to the prefactor; within 0.1% by L = 200
    b1 = Exponential(rate=0.8)
    pref, _, phi = asymptotics.supercritical(
        exact.DamModel(lam=1.0, b1=b1, b2=B2, level=5))
    model = exact.DamModel(lam=1.0, b1=b1, b2=B2, level=200)
    p1, _ = exact.stationary_probs(model)
    assert p1 / phi ** 200 == pytest.approx(pref, rel=1e-3)


def test_heavy_upper_examples():
    p1, p2 = asymptotics.heavy_upper(0.001, 1.0, 2.0, 0.5)
    assert p1 == pytest.approx(0.001 / (math.e - 1.0), rel=1e-12)
    assert p2 == pytest.approx(0.001 * math.e / (math.e - 1.0), rel=1e-12)
    with pytest.raises(RegimeError):
        asymptotics.heavy_upper(0.001, 0.0, 2.0, 0.5)
    with pytest.raises(RegimeError):
        asymptotics.heavy_upper(-0.001, 1.0, 2.0, 0.5)


def test_heavy_upper_small_c_recovers_critical_rate():
    # L * p1 -> rho12_tilde / 2 as C -> 0 with delta = C / L
    level, c = 10 ** 6, 1e-3
    delta = c / level
    p1, _ = asymptotics.heavy_upper(delta, c, 2.0, 0.5)
    assert level * p1 == pytest.approx(1.0, rel=1e-2)


def test_heavy_upper_within_4_ulps_of_40_digits():
    # rho12_tilde = 2, so a = 2C / rho12_tilde = C exactly; rho2 = 0.5, so
    # p2 = delta + p1
    with mpmath.workdps(40):
        for c in np.geomspace(1e-12, 700.0, 3001).tolist():
            delta = c / 1000.0
            p1, p2 = asymptotics.heavy_upper(delta, c, 2.0, 0.5)
            want = mpmath.mpf(delta) / mpmath.expm1(mpmath.mpf(c))
            assert _ulps(p1, float(want)) <= 4, c
            assert _ulps(p2, float(delta + want)) <= 4, c


def test_heavy_upper_past_exps_overflow():
    # e^a overflows at a = 2C/rho12_tilde = 3000, where p1 = delta/(e^a - 1)
    # rounds to 0 and p2 = rho2/(1 - rho2) * delta
    p1, p2 = asymptotics.heavy_upper(30.0, 3000.0, 2.0, 0.5)
    assert p1 == 0.0
    assert p2 == 30.0


@pytest.mark.parametrize("c", [709.8, 720.0, 745.0, 751.0, 760.0])
def test_j_upper_past_exps_overflow(c):
    # rho2 = 0 leaves J_upper = rho12_tilde/2 * j1 * a/(e^a - 1), a = C here;
    # from 720 on the value is subnormal, so two of its ulps are allowed
    got = asymptotics.j_upper(c, 2.0, 0.0, exact.CostModel(j1=1.0, j2=1.0))
    want = float(mpmath.mpf(c) / mpmath.expm1(mpmath.mpf(c)))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-323)


def test_j_upper_and_heavy_upper_where_2c_overflows():
    # 2C = 1.8e308 overflows to a = inf, where a/(e^a - 1) is its limit 0
    got = asymptotics.j_upper(9e307, 2.0, 0.5, exact.CostModel(j1=2.0, j2=1.0))
    assert got == 9e307
    assert asymptotics.heavy_upper(1.0, 9e307, 2.0, 0.5) == (0.0, 1.0)


def test_heavy_lower_examples():
    p1, p2 = asymptotics.heavy_lower(0.001, 1.0, 2.0, 0.5)
    assert p1 == pytest.approx(0.001 * math.e, rel=1e-12)
    assert p2 == pytest.approx(0.001 * (math.e - 1.0), rel=1e-12)
    with pytest.raises(RegimeError):
        asymptotics.heavy_lower(0.001, 0.0, 2.0, 0.5)


def test_heavy_upper_tracks_exact_recurrence():
    costs_grid = [(0.5,), (1.0,), (2.0,)]
    for (c,) in costs_grid:
        prev = None
        for level in (500, 1000, 2000):
            delta = c / level
            b1 = Exponential(rate=1.0).scale_to_mean(1.0 + delta)
            model = exact.DamModel(lam=1.0, b1=b1, b2=B2, level=level)
            p1_ex, p2_ex = exact.stationary_probs(model)
            p1_as, p2_as = asymptotics.heavy_upper(delta, c, 2.0, 0.5)
            err = max(abs(p1_as - p1_ex) / p1_ex, abs(p2_as - p2_ex) / p2_ex)
            if prev is not None:
                assert err < prev
            prev = err
        assert prev <= 0.05


def test_j_upper_values():
    costs = exact.CostModel(j1=1.0, j2=1.0)
    assert asymptotics.j_upper(1.0, 2.0, 0.5, costs) == pytest.approx(
        1.0 + 2.0 / (math.e - 1.0), rel=1e-12)
    assert asymptotics.j_upper(0.0, 2.0, 0.5, costs) == pytest.approx(2.0)
    # j2 = 0: j1 * C / (e^C - 1) -> 0 as C grows
    solo = exact.CostModel(j1=1.0, j2=0.0)
    assert asymptotics.j_upper(200.0, 2.0, 0.5, solo) < 1e-50


def test_j_upper_monotone_under_balanced_costs():
    costs = exact.CostModel(j1=1.0, j2=1.0)  # balanced at rho2 = 0.5
    grid = np.linspace(0.0, 10.0, 400)
    vals = [asymptotics.j_upper(c, 2.0, 0.5, costs) for c in grid.tolist()]
    assert np.all(np.diff(vals) >= -1e-12)


def test_j_lower_values():
    costs = exact.CostModel(j1=1.0, j2=1.0)
    assert asymptotics.j_lower(1.0, 2.0, 0.5, costs) == pytest.approx(
        math.e + (math.e - 1.0), rel=1e-12)
    assert asymptotics.j_lower(0.0, 2.0, 0.5, costs) == pytest.approx(2.0)
    zero = exact.CostModel(j1=0.0, j2=1.0)
    for c in (0.5, 1.0, 5.0):
        assert asymptotics.j_lower(c, 2.0, 0.0, zero) == 0.0


@pytest.mark.parametrize("c", [1e4, 6.8e7, 1e12, 1e300, 1e308])
def test_j_lower_at_large_c_keeps_its_limit(c):
    # with j1 = 0, J_lower = C k (e^x - 1), x = rho12_tilde/(2C), falls to
    # k rho12_tilde/2 = 1 as C grows; e^x - 1 formed by subtraction cancels
    # there (0.99999999988 at C = 6.8e7), and 2C overflows at 1e308
    free = exact.CostModel(j1=0.0, j2=1.0)
    assert asymptotics.j_lower(c, 2.0, 0.5, free) == pytest.approx(
        1.0 + 0.5 / c + 1.0 / (6.0 * c * c), rel=1e-12)


def test_rho12_tilde():
    assert asymptotics.rho12_tilde(1.0, Exponential(rate=5.0)) == pytest.approx(2.0)
    assert asymptotics.rho12_tilde(1.0, Deterministic(duration=3.0)) == pytest.approx(1.0)
    assert asymptotics.rho12_tilde(2.0, Erlang(shape=2, rate=1.0)) == pytest.approx(1.5)


def test_j_lower_is_infinite_where_the_literal_formula_gives_nan():
    # j1 = 0 and e^(rho12_tilde/2C) overflowing: 0 * inf is NaN, the limit inf
    free = exact.CostModel(j1=0.0, j2=1.0)
    assert asymptotics.j_lower(1e-3, 2.0, 0.5, free) == math.inf


def _ulps(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


@pytest.mark.parametrize("fn", [asymptotics.j_upper, asymptotics.j_lower])
@pytest.mark.parametrize("rho12t, rho2, j1, j2", [
    (1.0, 0.5, 2.0, 1.0), (2.0, 0.3, 0.5, 1.0), (1.37, 0.8, 3.0, 0.25)])
def test_scalar_and_array_paths_agree(fn, rho12t, rho2, j1, j2):
    # the limiting costs take a float C; their ends: the continuous
    # extension at 0, the smallest positive C, and the linear limit.  At
    # the smallest C, J_upper is the critical cost and the literal J_lower
    # is truly infinite
    costs = exact.CostModel(j1, j2)
    critical = rho12t / 2.0 * (j1 + j2 * rho2 / (1.0 - rho2))
    assert fn(0.0, rho12t, rho2, costs) == pytest.approx(critical, rel=1e-15)
    if fn is asymptotics.j_upper:
        assert fn(5e-324, rho12t, rho2, costs) == pytest.approx(critical, rel=1e-15)
        assert fn(1e6, rho12t, rho2, costs) == j2 * rho2 / (1.0 - rho2) * 1e6
    else:
        assert fn(5e-324, rho12t, rho2, costs) == math.inf


def test_scalar_and_array_paths_agree_to_exps_conditioning():
    # against 40-digit values, with 2C / rho12_tilde = C exact in double
    # and k = j2 at rho2 = 0.5: J_upper goes through C / expm1(C), which
    # does not cancel as C -> 0, for upper- and lower-penalized costs.
    # The four extra points lie where e^(1/C) overflows and J_lower still
    # fits in a double
    costs = exact.CostModel(2.0, 1.0)
    extra = [0.0013981, 0.0013982, 0.0014, 0.0014088]
    with mpmath.workdps(40):
        for c in np.geomspace(1e-12, 700.0, 3001).tolist() + extra:
            big_c = mpmath.mpf(c)
            big_e = mpmath.exp(big_c)
            for j1, j2 in ((2.0, 1.0), (0.5, 1.0), (3.0, 0.25)):
                upper = float(big_c * (j1 + j2 * big_e) / (big_e - 1))
                got = asymptotics.j_upper(c, 2.0, 0.5, exact.CostModel(j1, j2))
                assert _ulps(got, upper) <= 4, (c, j1, j2)
            got = asymptotics.j_lower(c, 2.0, 0.5, costs)
            big_e = mpmath.exp(2.0 / (2.0 * c))
            lower = big_c * (2 * big_e + (big_e - 1))
            if lower > sys.float_info.max:
                assert got == math.inf, c
            elif 2 * big_e + (big_e - 1) > sys.float_info.max:
                # the bracket overflows before the factor C brings it back:
                # J_lower = C (j1 + k) e^(1/C) is taken through its log, and
                # exp magnifies the rounding of the exponent (about 710)
                assert got == pytest.approx(float(lower), rel=1e-12), c
            else:
                assert _ulps(got, float(lower)) <= 4, c
