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
# One cycle at a time, one service after another: splitmix64 on Python ints
# masked to 64 bits, the counter layout of the `kernels` docstring, and
# numpy's log, cos, exp and power on float64 scalars, which round as its
# array loops do.

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_KIND_STEP = 1 << 62
_ARRIVALS, _B1, _B2 = 0, 1, 2


def _mix(x):
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _at(key, counter):
    """The 64-bit value of stream `key` at `counter`."""
    return _mix((key + counter * _GOLDEN) & _MASK)


def _unit(z):
    return np.float64((float(z >> 11) + 1.0) * 1.1102230246251565e-16)


def _stream_key(seed, idx):
    """Hash the seed, xor in the golden-ratio multiple of idx, hash again."""
    return _at(_at(seed, 1) ^ ((idx * _GOLDEN) & _MASK), 1)


def _slot_key(cycle_key, slot):
    return _at(cycle_key, slot + 1)


class _Stream:
    """Draws 1, 2, ... of one kind of a slot: counters kind * 2^62 + d."""

    def __init__(self, slot_key, kind):
        self.key, self.counter = slot_key, kind * _KIND_STEP

    def u01(self):
        self.counter += 1
        return _unit(_at(self.key, self.counter))

    def gap(self, rate):
        return -np.log(self.u01()) / rate


def _scalar_poisson(mean, rng):
    """Poisson(mean): equal parts of mean below 256, each by inversion."""
    parts = math.floor(mean / 256.0) + 1
    each = mean / parts
    total = 0
    for _ in range(parts):
        u = rng.u01()
        p = np.exp(-each)
        f, k = p, 0
        while u > f and p > 0.0:
            k += 1
            p = p * (each / k)
            f = f + p
        total += k
    return total


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
        key = _stream_key(seed, cyc)
        idle = -np.log(_unit(_at(key, 0))) / lam
        n, slot, below, above, k1, k2 = 1, 0, 0.0, 0.0, 0, 0
        while n > 0:
            slot_key = _slot_key(key, slot)
            if n <= level:
                s = _scalar_service(b1, _Stream(slot_key, _B1))
                below += s
                k1 += 1
            else:
                s = _scalar_service(b2, _Stream(slot_key, _B2))
                above += s
                k2 += 1
            n += _scalar_poisson(lam * s, _Stream(slot_key, _ARRIVALS)) - 1
            slot += 1
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
    # a narrow lane pool takes one-slot steps while finished lanes take new
    # cycles, then, once every cycle has started, wider steps as they drop out
    monkeypatch.setattr(kernels, "_LANES", 32)
    args = (300, 2024, 1.0, 3) + _laws(family, rho1)
    _assert_same_bytes(kernels.simulate_cycles(*args), _scalar_cycles(*args))


# every family on 32 lanes, and a pool of 1 << 14 lanes on a run longer
# than the default pool: it starts all 9,000 cycles at once and takes
# one-slot steps until fewer than 8,193 lanes are live
LANE_WIDTH_RUNS = [pytest.param(family, 2000, 32, id=family)
                   for family in sorted(SIM_FAMILIES)]
LANE_WIDTH_RUNS.append(
    pytest.param("exp", 9000, 1 << 14, id="exp-16384-lanes"))


@pytest.mark.parametrize("family, cycles, width", LANE_WIDTH_RUNS)
def test_lane_width_does_not_change_cycles(family, cycles, width, monkeypatch):
    args = (cycles, 17, 1.0, 3) + _laws(family, 1.2)
    default = kernels.simulate_cycles(*args)
    monkeypatch.setattr(kernels, "_LANES", width)
    _assert_same_bytes(kernels.simulate_cycles(*args), default)


# 32 lanes, and a pool wider than any run here has cycles
WIDTHS = [32, 1 << 14]


@pytest.mark.parametrize("width", WIDTHS)
def test_run_prefix_is_shorter_run(width, monkeypatch):
    monkeypatch.setattr(kernels, "_LANES", width)
    b1, b2 = SIM_FAMILIES["gamma-boosted"], SIM_FAMILIES["hyper"].scale_to_mean(0.5)
    full = kernels.simulate_cycles(1500, 3, 1.0, 4, b1, b2)
    part = kernels.simulate_cycles(400, 3, 1.0, 4, b1, b2)
    _assert_same_bytes([a[:400] for a in full], part)


# Laws that stretch a step: many arrivals per service (long inversions),
# more draws per service than one block holds, Marsaglia-Tsang boosts and
# retries, b1 never used, and one cycle of 229 services in a lone lane.
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
    "one-long-cycle": (1, 20, 1.0, 2, Gamma(shape=2.5, rate=2.5 / 0.97),
                       Gamma(shape=0.7, rate=0.7 / 0.97)),
}
_SCALAR_RUNS = {}


# "one-slot": the default lane pool with one slot a step, so every step is
# the one that draws one law per lane; level-0 leaves b1 no lanes,
# gamma-0.05 retries and hyper-slow-phase splits Poisson means
@pytest.mark.parametrize("width", WIDTHS + ["one-slot"])
@pytest.mark.parametrize("case", sorted(LOOKAHEAD_CASES))
def test_lookahead_matches_scalar_kernel(case, width, monkeypatch):
    args = LOOKAHEAD_CASES[case]
    if case not in _SCALAR_RUNS:
        _SCALAR_RUNS[case] = _scalar_cycles(*args)
    if width == "one-slot":
        monkeypatch.setattr(kernels, "_MAX_SLOTS", 1)
    else:
        monkeypatch.setattr(kernels, "_LANES", width)
    _assert_same_bytes(kernels.simulate_cycles(*args), _SCALAR_RUNS[case])


@pytest.mark.parametrize("slots", [1, 2, kernels._MAX_SLOTS])
@pytest.mark.parametrize("family", sorted(SIM_FAMILIES))
def test_slots_per_step_do_not_change_cycles(family, slots, monkeypatch):
    args = (2000, 17, 1.0, 3) + _laws(family, 1.2)
    default = kernels.simulate_cycles(*args)
    monkeypatch.setattr(kernels, "_MAX_SLOTS", slots)
    # the pool holds the whole run, so every step is `slots` wide
    monkeypatch.setattr(kernels, "_LANES", slots * args[0])
    _assert_same_bytes(kernels.simulate_cycles(*args), default)


@pytest.mark.parametrize("seed", [0, 1, 2 ** 40, 2 ** 64 - 1])
def test_stream_key_matches_splitting_rule(seed):
    cycles = [0, 1, 999]
    keys = kernels._stream_keys(seed, np.array(cycles))
    assert keys.tolist() == [_stream_key(seed, idx) for idx in cycles]
    # slot keys, and the first draws of each kind, as one array
    slots = np.array([0, 1, 7, 2 ** 40])
    got = kernels._slot_keys(keys, slots[:, None])
    want = [[_slot_key(key, slot) for key in keys.tolist()] for slot in slots.tolist()]
    assert got.tolist() == want
    for kind in (_ARRIVALS, _B1, _B2):
        draws = kernels._Slots(got.ravel() + kernels._KIND[kind])
        u = draws.take(3)
        for col, slot_key in enumerate(got.ravel().tolist()):
            stream = _Stream(slot_key, kind)
            assert u[:, col].tolist() == [stream.u01() for _ in range(3)]


def test_draw_counters_are_never_shared():
    # a cycle's counters are 0 for the idle draw and slot + 1 for each slot's
    # key; a slot's are kind * 2^62 + d (d >= 1) for its draws of each kind,
    # so however many draws a service takes, each counter has one use
    ranges = [(kind * _KIND_STEP + 1, (kind + 1) * _KIND_STEP)
              for kind in (_ARRIVALS, _B1, _B2)]
    for (lo, hi), (lo2, _) in zip(ranges, ranges[1:]):
        assert lo < hi <= lo2
    assert ranges[-1][1] <= 1 << 64
    # the kernel's kind offsets are those counters' golden multiples
    assert kernels._KIND.tolist() == [
        (kind * _KIND_STEP * _GOLDEN) & _MASK for kind in (_ARRIVALS, _B1, _B2)]
    # an Erlang(100) service (more draws than one block) and Gamma retries
    # move their own range only: the kernel's slots match the scalar
    # reference's, which reads each kind from its range
    args = (200, 4, 1.0, 3, Erlang(shape=100, rate=100 / 1.1),
            Gamma(shape=0.3, rate=0.6))
    _assert_same_bytes(kernels.simulate_cycles(*args), _scalar_cycles(*args))


def _poisson_pmf(mean, k):
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))


@pytest.mark.parametrize("mean", [1e-3, 1.0, 30.0])
def test_poisson_inversion_matches_pmf(mean):
    # one part: the counts of an even grid of uniforms give each pmf term to
    # within one grid step
    grid = 1 << 16
    u = (np.arange(grid) + 1.0) / grid
    counts = np.bincount(kernels._invert_poisson(np.full(grid, mean), u))
    for k, got in enumerate(counts):
        assert abs(got / grid - _poisson_pmf(mean, k)) <= 1.0 / grid
    assert _poisson_pmf(mean, len(counts)) < 2.0 / grid


@pytest.mark.parametrize("mean", [1e-3, 1.0, 30.0, 1000.0])
def test_poisson_counts_follow_the_pmf(mean):
    # counts drawn from the streams, split into parts at mean 1000: their
    # cdf against the Poisson cdf (Kolmogorov's 0.1% bound), mean and variance
    n = 40000
    keys = kernels._stream_keys(3, np.arange(n))
    counts = kernels._poisson_counts(np.full(n, mean), keys)
    top = int(mean + 12 * math.sqrt(mean) + 12)
    cdf = np.cumsum([_poisson_pmf(mean, k) for k in range(top)])
    ecdf = np.cumsum(np.bincount(counts, minlength=top)[:top]) / n
    assert np.max(np.abs(ecdf - cdf)) < 1.95 / math.sqrt(n)
    assert abs(counts.mean() - mean) < 4 * math.sqrt(mean / n)
    # the sample variance's sd is about sqrt((mean + 2 mean^2) / n)
    assert abs(counts.var() / mean - 1.0) < 4 * math.sqrt((1.0 / mean + 2.0) / n)


def test_poisson_counts_past_exp_underflow():
    # exp(-mean) is 0.0 past a mean of about 745; split into parts, every
    # count stays finite and near its mean
    mean = np.array([744.0, 746.0, 1e4, 1e6])
    keys = kernels._stream_keys(9, np.arange(len(mean)))
    counts = kernels._poisson_counts(mean, keys)
    assert np.all(np.abs(counts - mean) < 8 * np.sqrt(mean))
    assert counts.tolist() == [_scalar_poisson(m, _Stream(int(k), _ARRIVALS))
                               for m, k in zip(mean.tolist(), keys.tolist())]


@pytest.mark.parametrize("tail", [0, 1 << 20])
def test_poisson_tail_on_python_floats_matches_numpy(tail, monkeypatch):
    # the inversions finished on Python floats give the counts that numpy's
    # loop gives them, whether none of them, the last 32 or all of them run
    # on Python floats: means up to _POISSON_PART, uniforms next to 1, and
    # terms that underflow
    rng = np.random.default_rng(4)
    mean = np.concatenate((rng.exponential(1.0, 5000),
                           rng.uniform(0.0, kernels._POISSON_PART, 3000),
                           [255.9, 200.0, 1e-300]))
    u = np.concatenate((rng.uniform(size=8000), [1.0, 1.0, 1.0]))
    want = kernels._invert_poisson(mean, u)
    monkeypatch.setattr(kernels, "_POISSON_TAIL", tail)
    assert kernels._invert_poisson(mean, u).tolist() == want.tolist()
