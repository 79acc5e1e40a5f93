import math

import numpy as np
import pytest

import mp_reference
from damctl import exact, kernels
from damctl.distributions import (Deterministic, Erlang, Exponential, Gamma,
                                  HyperExponential)

B2 = Exponential(rate=2.0)


@pytest.mark.parametrize("rho1", [0.8, 1.0, 1.25])
def test_recurrence_numpy_matches_loop(rho1):
    # the reference is the 40-digit recurrence on 40-digit weights
    model = exact.DamModel(lam=1.0, b1=Exponential(rate=1.0 / rho1), b2=B2,
                           level=300)
    assert mp_reference.worst_log_error(model) < 1e-12


def test_recurrence_numpy_matches_loop_on_rescaled_values():
    # rho1 = 10: Q_320 is near 1e320, beyond double range, and the tilted
    # loop still gives every log Q_n
    model = exact.DamModel(lam=1.0, b1=Exponential(rate=0.1), b2=B2, level=320)
    assert exact.busy_period_counts(model)[-1] == math.inf
    assert mp_reference.worst_log_error(model) < 1e-12


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


# Laws that stretch the lookahead: many arrivals per service (a gap block
# that falls short of the service time, again and again), more draws per
# service than one block holds, Marsaglia-Tsang boosts and retries.
LOOKAHEAD_CASES = {
    "exp-rho1-3": (200, 5, 1.0, 3, Exponential(rate=1.0 / 3.0), B2),
    "hyper-slow-phase": (1500, 6, 1.0, 3,
                         HyperExponential((0.9, 0.1), (5.0, 0.1)), B2),
    "erlang-40": (300, 7, 1.0, 3, Erlang(shape=40, rate=40 / 1.1), B2),
    "gamma-0.2": (1000, 8, 1.0, 3, Gamma(shape=0.2, rate=0.2 / 1.1), B2),
    "gamma-0.05": (1000, 9, 1.0, 3, Gamma(shape=0.05, rate=0.05 / 1.1), B2),
    "hyper-3-phases": (1000, 10, 1.0, 3, HyperExponential(
        (0.2, 0.5, 0.3), (0.5, 2.0, 8.0)), B2),
    "gamma-b2": (1000, 11, 1.0, 3, Exponential(rate=1.0),
                 Gamma(shape=2.5, rate=5.0)),
    "level-0": (1000, 12, 1.0, 0, Exponential(rate=1.0), B2),
}
_SCALAR_RUNS = {}


@pytest.mark.parametrize("width", [32, kernels._LANES])
@pytest.mark.parametrize("case", sorted(LOOKAHEAD_CASES))
def test_lookahead_matches_scalar_kernel(case, width, monkeypatch):
    args = LOOKAHEAD_CASES[case]
    if case not in _SCALAR_RUNS:
        _SCALAR_RUNS[case] = _scalar_cycles(*args)
    monkeypatch.setattr(kernels, "_LANES", width)
    _assert_same_bytes(kernels.simulate_cycles(*args), _SCALAR_RUNS[case])


@pytest.mark.parametrize("ahead", [1, 8])
@pytest.mark.parametrize("family", sorted(SIM_FAMILIES))
def test_gap_lookahead_does_not_change_cycles(family, ahead, monkeypatch):
    args = (2000, 17, 1.0, 3) + _laws(family, 1.2)
    default = kernels.simulate_cycles(*args)
    monkeypatch.setattr(kernels, "_GAP_AHEAD", ahead)
    _assert_same_bytes(kernels.simulate_cycles(*args), default)


@pytest.mark.parametrize("seed", [0, 1, 2 ** 40, 2 ** 64 - 1])
def test_stream_key_matches_splitting_rule(seed):
    keys = kernels._stream_keys(seed, np.array([0, 1, 999]))
    assert keys.tolist() == [_stream_key(seed, idx) for idx in (0, 1, 999)]


def test_arrival_at_the_completion_instant_comes_after_it():
    # departure-first: cycle 0's first draw is its idle period and its second
    # the first arrival gap; a deterministic service of exactly that gap ties
    # the arrival with the completion, which then ends the cycle
    key = kernels._stream_keys(7, np.array([0]))
    g1 = float(-np.log(kernels._uniforms(key + kernels._OFFSET[1], 1)[0, 0]))
    args = (1, 7, 1.0, 5, Deterministic(duration=g1), Exponential(rate=2.0))
    assert kernels.simulate_cycles(*args)[3][0] == 1
    assert _scalar_cycles(*args)[3][0] == 1
