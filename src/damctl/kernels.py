"""Hot numeric kernels: busy-period recurrence and cycle simulation.

The recurrence takes each step's inner product as one BLAS dot product;
``busy_period_recurrence`` is its one implementation, and every exact
quantity and optimizer evaluation runs through it.

The simulator runs many regeneration cycles at once as lanes of numpy
arrays, and each step advances every lane by one whole service (see
"Lane-vectorized simulator" below).  Each cycle draws from its own
counter-based splitmix64 stream keyed by (seed, cycle index), so
replications are reproducible regardless of execution order, and a lane
reads a service's draws, and a few arrival gaps, ahead as one block.
"""

import math

import numpy as np

from .distributions import family_tag


# ---------------------------------------------------------------------------
# Busy-period recurrence
#
# Q_0 = 1,  Q_{n+1} = (Q_n - sum_{j=1..n} r_j Q_{n-j+1}) / r_0.
#
# In the supercritical regime Q_n grows geometrically, so values are kept as
# (mantissa, binary exponent) pairs: whenever the working value passes 1e300
# the whole window is rescaled by 2^-1024 and the per-entry exponent records
# the cumulative shift at write time.
# ---------------------------------------------------------------------------

_RESCALE_BITS = 1024
_RESCALE_LIMIT = 1e300

# A step divides by r_0, so the values it reads must stay below
# DBL_MAX * r_0.  For r_0 below about 1e-7 the rescale threshold drops from
# 1e300 to _STEP_HEADROOM * r_0, which keeps every step finite down to the
# r_0 floor of exact; above it the threshold stays 1e300.
_STEP_HEADROOM = 1e307


def busy_period_recurrence(r, L):
    """Run the recurrence; returns (mantissas, binary exponents).

    Entry n equals mantissas[n] * 2**exponents[n].
    """
    r = np.ascontiguousarray(r, dtype=np.float64)
    L = int(L)
    q = np.empty(L + 1)
    ex = np.zeros(L + 1, dtype=np.int64)
    w = np.empty(L + 1)  # mantissas in the current scaling
    q[0] = w[0] = 1.0
    shift = 0
    r0 = float(r[0])
    limit = min(_RESCALE_LIMIT, _STEP_HEADROOM * r0)
    for n in range(L):
        # terms r_j * Q_{n-j+1}, j = 1..n, as one BLAS dot product.  The
        # terms are nonnegative, so uncompensated summation loses little:
        # against the exponential closed form at L=4000 the error is
        # 5.0e-11 at rho1 = 1, where an exactly rounded sum (math.fsum)
        # gives 4.8e-11 at about 25 times the cost.
        s = float(np.dot(r[1:n + 1], w[n:0:-1]))
        v = (w[n] - s) / r0
        if v > limit:
            w[:n + 1] = np.ldexp(w[:n + 1], -_RESCALE_BITS)
            v = math.ldexp(v, -_RESCALE_BITS)
            shift += _RESCALE_BITS
        w[n + 1] = v
        q[n + 1] = v
        ex[n + 1] = shift
    return q, ex


# ---------------------------------------------------------------------------
# Lane-vectorized simulator.
#
# Cycle i draws uniforms on (0, 1] from its own splitmix64 stream (Steele,
# Lea & Flood, OOPSLA 2014) started at stream_key(seed, i): hash the seed,
# xor in the golden-ratio multiple of i, hash again.  The stream is
# counter-based: from state x its j-th next draw is mix(x + j * golden), so
# a lane can read draws ahead and then consume only those it used (Salmon et
# al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
#
# Each lane carries one cycle, and each step advances every lane by one
# service.  A new cycle takes its idle period as it starts, so it begins at
# its first service.  A lane at a service start picks its law from the
# number in system and reads that service's draws as one block.  Then every
# lane reads _GAP_AHEAD arrival gaps and adds them, one after another, to
# the time since its service began.  The arrivals are the times before the
# first one at or after the service time (a tie counts as after it,
# departure-first); the lane consumes their gaps and that one.  A lane
# whose times all fall short consumes every gap it read and carries the
# time into the next step.  A finished lane hands its slot to the next
# cycle index; once every cycle has started it is parked instead, and
# parked lanes are dropped once they are half the pool.  A cycle's draws,
# and the arithmetic on them, depend neither on the lane that carries it
# nor on how far ahead it reads, so the per-cycle arrays depend on neither
# the lane width nor _GAP_AHEAD.
#
# log, cos and power are numpy's.  Their last bit can differ from the C
# library's and, since numpy picks a SIMD loop by CPU, between machines, so
# a run is byte-reproducible on one machine and numpy build.
# ---------------------------------------------------------------------------

# lanes in flight at once: from 4,096 to 65,536 lanes ran equally fast, and
# this width keeps the lane arrays to a few megabytes
_LANES = 1 << 14

# arrival gaps a lane reads per step
_GAP_AHEAD = 3

_GOLDEN_U64 = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# _OFFSET[c] advances a stream state past c draws.  It is an array because
# a product of np.uint64 scalars warns when it wraps; array arithmetic wraps
# modulo 2^64 silently.  At most _BLOCK draws are read at once.
_BLOCK = 32
_OFFSET = np.arange(_BLOCK + 1, dtype=np.uint64) * _GOLDEN_U64


def _mix(x):
    """splitmix64's output function of the states x."""
    z = x ^ (x >> np.uint64(30))
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    return z ^ (z >> np.uint64(31))


def _uniforms(state, m):
    """The next m uniforms on (0, 1] of each stream, one row per draw; the
    states do not move."""
    z = _mix(state + _OFFSET[1:m + 1, None])
    return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 1.1102230246251565e-16


def _take(lanes, idx, m):
    """Consume the next m uniforms of the given lanes, one row per draw."""
    state = lanes.state[idx]
    lanes.state[idx] = state + _OFFSET[m]
    return _uniforms(state, m)


def _stream_keys(seed, cycles):
    """stream_key(seed, i) for every i in `cycles`."""
    z1 = _mix(np.full(1, seed, dtype=np.uint64) + _GOLDEN_U64)
    return _mix((z1 ^ (cycles.astype(np.uint64) * _GOLDEN_U64)) + _GOLDEN_U64)


class _Lanes:
    """State of the cycles in flight, one array entry per lane."""

    _FIELDS = (
        ("cycle", np.int64), ("state", np.uint64), ("serving", np.bool_),
        ("n", np.int64), ("s", np.float64), ("t", np.float64),
        ("idle", np.float64), ("below", np.float64), ("above", np.float64),
        ("k1", np.int64), ("k2", np.int64),
    )

    def __init__(self, width):
        for name, dtype in self._FIELDS:
            setattr(self, name, np.zeros(width, dtype=dtype))

    def __len__(self):
        return len(self.cycle)

    def begin_cycles(self, slots, first, seed, lam):
        """Put cycles first, first+1, ... into the given lane slots, each
        past its idle period and at its first service."""
        cycles = np.arange(first, first + len(slots), dtype=np.int64)
        keys = _stream_keys(seed, cycles)
        self.cycle[slots] = cycles
        self.idle[slots] = -np.log(_uniforms(keys, 1)[0]) / lam
        self.state[slots] = keys + _OFFSET[1]
        self.serving[slots] = True
        self.n[slots] = 1
        self.below[slots] = 0.0
        self.above[slots] = 0.0
        self.k1[slots] = 0
        self.k2[slots] = 0

    def keep(self, mask):
        for name, _ in self._FIELDS:
            setattr(self, name, getattr(self, name)[mask])


# One class per service family: service(lanes, idx) draws one service time
# for each of the given lanes and consumes the draws it used.

class _ExpLanes:
    def __init__(self, d):
        self.rate = d.rate

    def service(self, lanes, idx):
        return -np.log(_take(lanes, idx, 1)[0]) / self.rate


class _ErlangLanes:
    def __init__(self, d):
        self.k = int(d.shape)
        self.rate = d.rate

    def service(self, lanes, idx):
        # the sum runs left to right, as one draw at a time would add it
        total = np.zeros(len(idx))
        for first in range(0, self.k, _BLOCK):
            for term in -np.log(_take(lanes, idx, min(_BLOCK, self.k - first))):
                total += term
        return total / self.rate


class _GammaLanes:
    """Marsaglia-Tsang; shape < 1 boosted via u^(1/shape).  An attempt reads
    three draws and consumes two when 1 + c x <= 0, three otherwise."""

    def __init__(self, d):
        a = d.shape
        self.rate = d.rate
        self.boosted = a < 1.0
        if self.boosted:
            self.inv_shape = 1.0 / a
            a += 1.0
        self.d = a - 1.0 / 3.0
        self.c = 1.0 / math.sqrt(9.0 * self.d)

    def service(self, lanes, idx):
        boost = np.ones(len(idx))
        if self.boosted:
            boost = np.power(_take(lanes, idx, 1)[0], self.inv_shape)
        s = np.empty(len(idx))
        pending = np.arange(len(idx))
        while len(pending):
            lane = idx[pending]
            u = _uniforms(lanes.state[lane], 3)
            log_u = np.log(u)
            x = np.sqrt(-2.0 * log_u[0]) * np.cos(2.0 * math.pi * u[1])
            t = 1.0 + self.c * x
            ok = t > 0.0
            lanes.state[lane] += _OFFSET[2 + ok]
            v = t * t * t
            accept = ok & (u[2] < 1.0 - 0.0331 * x * x * x * x)
            slow = (ok & ~accept).nonzero()[0]
            xs, vs = x[slow], v[slow]
            accept[slow] = log_u[2, slow] < 0.5 * xs * xs + self.d * (
                1.0 - vs + np.log(vs))
            done = pending[accept]
            s[done] = boost[done] * self.d * v[accept] / self.rate
            pending = pending[~accept]
        return s


class _DetLanes:
    def __init__(self, d):
        self.duration = d.duration

    def service(self, lanes, idx):
        return np.full(len(idx), self.duration)


class _HyperLanes:
    """Pick a phase with the first uniform, draw its exponential with the
    second."""

    def __init__(self, d):
        self.cuts = np.cumsum(d.weights)[:-1]
        self.rates = np.array(d.rates)

    def service(self, lanes, idx):
        u = _take(lanes, idx, 2)
        phase = np.searchsorted(self.cuts, u[0], side="left")
        return -np.log(u[1]) / self.rates[phase]


_LANE_FAMILIES = {"exp": _ExpLanes, "erlang": _ErlangLanes,
                  "gamma": _GammaLanes, "det": _DetLanes, "hyper": _HyperLanes}


def simulate_cycles(n_cycles, seed, lam, level, b1, b2):
    """Simulate regeneration cycles with service laws b1 (at most `level` in
    system at service initiation) and b2 (above it); returns per-cycle
    arrays (idle, below_time, above_time, nu1, nu2)."""
    n_cycles, seed, lam, level = int(n_cycles), int(seed), float(lam), int(level)
    out_idle = np.empty(n_cycles)
    out_below = np.empty(n_cycles)
    out_above = np.empty(n_cycles)
    out_nu1 = np.empty(n_cycles, dtype=np.int64)
    out_nu2 = np.empty(n_cycles, dtype=np.int64)
    laws = tuple(_LANE_FAMILIES[family_tag(d)](d) for d in (b1, b2))
    lanes = _Lanes(min(n_cycles, _LANES))
    lanes.begin_cycles(np.arange(len(lanes)), 0, seed, lam)
    started, parked = len(lanes), 0
    while len(lanes):
        serving = lanes.serving.nonzero()[0]
        upper = lanes.n[serving] > level
        for side, law in enumerate(laws):
            idx = serving[upper == side]
            if len(idx):
                s = law.service(lanes, idx)
                lanes.s[idx] = s
                if side:
                    lanes.above[idx] += s
                    lanes.k2[idx] += 1
                else:
                    lanes.below[idx] += s
                    lanes.k1[idx] += 1
        lanes.t[serving] = 0.0

        # arrival times since the service began; they never decrease, so
        # those before s are the arrivals during the service
        times = -np.log(_uniforms(lanes.state, _GAP_AHEAD)) / lam
        times[0] += lanes.t
        for j in range(1, _GAP_AHEAD):
            times[j] += times[j - 1]
        arrived = (times < lanes.s).sum(axis=0)
        departed = arrived < _GAP_AHEAD
        # the gaps of the arrivals and, on a departure, of the next arrival
        lanes.state += _OFFSET[arrived + departed]
        lanes.t = times[-1]
        n = lanes.n + arrived - departed
        lanes.n = n
        lanes.serving = departed & (n > 0)

        done = (n == 0).nonzero()[0]
        if len(done):
            cyc = lanes.cycle[done]
            out_idle[cyc] = lanes.idle[done]
            out_below[cyc] = lanes.below[done]
            out_above[cyc] = lanes.above[done]
            out_nu1[cyc] = lanes.k1[done]
            out_nu2[cyc] = lanes.k2[done]
            refill = min(len(done), n_cycles - started)
            if refill:
                lanes.begin_cycles(done[:refill], started, seed, lam)
                started += refill
            if refill < len(done):
                # parked: past its last departure, a lane's n only falls
                # from 0, so it neither serves nor finishes again
                lanes.cycle[done[refill:]] = -1
                parked += len(done) - refill
                if 2 * parked >= len(lanes):
                    lanes.keep(lanes.cycle >= 0)
                    parked = 0
    return out_idle, out_below, out_above, out_nu1, out_nu2


def stream_key(seed, idx):
    """64-bit stream key for (seed, idx); the splitting rule of the simulator."""
    return int(_stream_keys(seed, np.array([idx], dtype=np.uint64))[0])
