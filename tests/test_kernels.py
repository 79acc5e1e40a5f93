import math

import mpmath
import numpy as np
import pytest

from damctl import exact, kernels
from damctl.distributions import (Deterministic, Erlang, Exponential, Gamma,
                                  HyperExponential)

B2 = Exponential(rate=2.0)


@pytest.mark.parametrize("rho1", [0.8, 1.0, 1.25])
def test_recurrence_numpy_matches_loop(rho1):
    # the reference is the 40-digit loop of the DAMCTL_PRECISION route
    model = exact.DamModel(lam=1.0, b1=Exponential(rate=1.0 / rho1), b2=B2,
                           level=300)
    want = exact.busy_period_counts(model, precision=40)
    got = exact.busy_period_counts(model)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_recurrence_numpy_matches_loop_on_rescaled_values():
    model = exact.DamModel(lam=1.0, b1=Exponential(rate=0.1), b2=B2, level=300)
    q, ex = exact._counts_scaled(model)
    assert ex[-1] > 0  # the rescaling path actually ran
    with mpmath.workdps(40):
        want = exact._counts_mp(model, 40)
        worst = max(abs(mpmath.ldexp(m, int(e)) / w - 1)
                    for m, e, w in zip(q.tolist(), ex, want))
    assert worst < 1e-12


# --- a scalar reference for the lane simulator ----------------------------
#
# One cycle at a time, in the order of the simulator's state machine:
# splitmix64 on Python ints masked to 64 bits, and numpy's log, cos and
# power on float64 scalars, which round as its array loops do.

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _smix(state):
    """One splitmix64 step: (next state, output)."""
    state = (state + _GOLDEN) & _MASK
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _stream_key(seed, idx):
    """Hash the seed, xor in the golden-ratio multiple of idx, hash again."""
    return _smix(_smix(seed)[1] ^ ((idx * _GOLDEN) & _MASK))[1]


class _Stream:
    def __init__(self, seed, idx):
        self.state = _stream_key(seed, idx)

    def u01(self):
        self.state, z = _smix(self.state)
        return np.float64((float(z >> 11) + 1.0) * 1.1102230246251565e-16)

    def gap(self, rate):
        return -np.log(self.u01()) / rate


def _scalar_gamma(a, rate, rng):
    # Marsaglia-Tsang; shape < 1 boosted via u^(1/shape)
    boost = 1.0
    if a < 1.0:
        boost = np.power(rng.u01(), 1.0 / a)
        a += 1.0
    d = a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        root = np.sqrt(-2.0 * np.log(rng.u01()))
        x = root * np.cos(2.0 * math.pi * rng.u01())
        t = 1.0 + c * x
        if t <= 0.0:
            continue
        v = t * t * t
        u = rng.u01()
        if u < 1.0 - 0.0331 * x * x * x * x:
            break
        if np.log(u) < 0.5 * x * x + d * (1.0 - v + np.log(v)):
            break
    return boost * d * v / rate


def _scalar_service(law, rng):
    kind = type(law)
    if kind is Exponential:
        return rng.gap(law.rate)
    if kind is Erlang:
        total = 0.0
        for _ in range(law.shape):
            total += -np.log(rng.u01())
        return total / law.rate
    if kind is Gamma:
        return _scalar_gamma(law.shape, law.rate, rng)
    if kind is Deterministic:
        return law.duration
    cuts = np.cumsum(law.weights)
    u = rng.u01()
    phase = 0
    while phase < len(cuts) - 1 and u > cuts[phase]:
        phase += 1
    return rng.gap(law.rates[phase])


def _scalar_cycles(n_cycles, seed, lam, level, b1, b2):
    rows = []
    for cyc in range(n_cycles):
        rng = _Stream(seed, cyc)
        idle = rng.gap(lam)
        n, below, above, k1, k2 = 1, 0.0, 0.0, 0, 0
        while n > 0:
            if n <= level:
                s = _scalar_service(b1, rng)
                below += s
                k1 += 1
            else:
                s = _scalar_service(b2, rng)
                above += s
                k2 += 1
            # arrivals during the service; a tie counts as after it
            t = rng.gap(lam)
            while t < s:
                n += 1
                t += rng.gap(lam)
            n -= 1
        rows.append((idle, below, above, k1, k2))
    idle, below, above, nu1, nu2 = zip(*rows)
    return (np.array(idle), np.array(below), np.array(above),
            np.array(nu1, dtype=np.int64), np.array(nu2, dtype=np.int64))


SIM_FAMILIES = {
    "exp": Exponential(rate=1.0),
    "erlang": Erlang(shape=3, rate=3.0),
    "gamma-boosted": Gamma(shape=0.7, rate=0.7),
    "gamma": Gamma(shape=2.5, rate=2.5),
    "det": Deterministic(duration=1.0),
    "hyper": HyperExponential(weights=(0.4, 0.6), rates=(0.5, 3.0)),
}


def _laws(family, rho1):
    shape = SIM_FAMILIES[family]
    return shape.scale_to_mean(rho1), shape.scale_to_mean(0.5)


def _assert_same_bytes(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("rho1", [0.8, 1.2])
@pytest.mark.parametrize("family", sorted(SIM_FAMILIES))
def test_lane_simulator_matches_scalar_kernel(family, rho1, monkeypatch):
    # a narrow lane pool makes finished lanes both take new cycles and,
    # once every cycle has started, drop out
    monkeypatch.setattr(kernels, "_LANES", 32)
    args = (300, 2024, 1.0, 3) + _laws(family, rho1)
    _assert_same_bytes(kernels.simulate_cycles(*args), _scalar_cycles(*args))


@pytest.mark.parametrize("family", sorted(SIM_FAMILIES))
def test_lane_width_does_not_change_cycles(family, monkeypatch):
    args = (2000, 17, 1.0, 3) + _laws(family, 1.2)
    wide = kernels.simulate_cycles(*args)
    monkeypatch.setattr(kernels, "_LANES", 32)
    _assert_same_bytes(kernels.simulate_cycles(*args), wide)


@pytest.mark.parametrize("width", [32, kernels._LANES])
def test_run_prefix_is_shorter_run(width, monkeypatch):
    monkeypatch.setattr(kernels, "_LANES", width)
    b1, b2 = SIM_FAMILIES["gamma-boosted"], SIM_FAMILIES["hyper"].scale_to_mean(0.5)
    full = kernels.simulate_cycles(1500, 3, 1.0, 4, b1, b2)
    part = kernels.simulate_cycles(400, 3, 1.0, 4, b1, b2)
    _assert_same_bytes([a[:400] for a in full], part)


@pytest.mark.parametrize("seed", [0, 1, 2 ** 40, 2 ** 64 - 1])
def test_stream_key_matches_splitting_rule(seed):
    for idx in (0, 1, 999):
        assert kernels.stream_key(seed, idx) == _stream_key(seed, idx)


def test_batched_rows_match_single_recurrence():
    # rho1 from 0.5 to 10 over three families, shuffled so that rows which
    # rescale (up to four times) and rows which do not sit side by side,
    # plus rows with r_0 = 2e-300 and 2.1e-9 that rescale below 1e300
    L = 300
    shapes = [Exponential(rate=1.0), Deterministic(duration=1.0),
              Gamma(shape=0.6, rate=0.6)]
    rho1 = np.random.default_rng(7).permutation(np.geomspace(0.5, 10.0, 101))
    laws = [shapes[i % 3].scale_to_mean(x) for i, x in enumerate(rho1)]
    laws[40:40] = [Exponential(rate=2e-300), Deterministic(duration=20.0)]
    r = np.array([law.mixed_poisson_weights(1.0, L - 1) for law in laws])
    mant, ex = kernels.busy_period_recurrence_rows(r, L)
    want = [kernels.busy_period_recurrence(row, L) for row in r]
    want_mant = np.array([q[-1] for q, _ in want])
    want_ex = np.array([e[-1] for _, e in want])
    assert np.array_equal(ex, want_ex)
    assert np.allclose(mant, want_mant, rtol=1e-12, atol=0.0)
    assert np.isfinite(mant).all()
    assert 0 < (want_ex > 0).sum() < len(r)


def test_batched_rows_edge_sizes():
    r = Exponential(rate=0.8).mixed_poisson_weights(1.0, 4)
    mant, ex = kernels.busy_period_recurrence_rows(r[None, :1], 1)
    assert mant[0] == 1.0 / r[0] and ex[0] == 0
    mant, ex = kernels.busy_period_recurrence_rows(np.empty((0, 5)), 5)
    assert mant.shape == ex.shape == (0,)
