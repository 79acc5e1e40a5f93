"""Hot numeric kernels: busy-period recurrence and cycle simulation.

The recurrence takes each step's inner product as one BLAS dot product.
Its row-batched form, ``busy_period_recurrence_rows``, returns Q_L for many
weight vectors that share one L (the exact optimizer's coarse grid) from
one step loop, each row bit-identical to ``busy_period_recurrence``.

The simulator runs many regeneration cycles at once as lanes of numpy
arrays (see "Lane-vectorized simulator" below).  Each cycle draws from its
own counter-based splitmix64 stream keyed by (seed, cycle index), so
replications are reproducible regardless of execution order.
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


def _rescale_limit(r0):
    return np.minimum(_RESCALE_LIMIT, _STEP_HEADROOM * r0)


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
    limit = float(_rescale_limit(r0))
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


# Row-batched recurrence.  Each row keeps its history backwards, w_m at
# column L - m, so step n's terms are the contiguous slices r[:, 1:n+1] and
# w[:, L-n:L], and np.vecdot takes every row's inner product with the BLAS
# dot of the loop above.  Each row rescales on its own.


def busy_period_recurrence_rows(r, L):
    """Q_L for each row of weights r (r_0..r_{L-1} per row).

    Returns (mantissas, binary exponents), one entry per row, each equal to
    the last entry of `busy_period_recurrence` on that row.
    """
    r = np.ascontiguousarray(r, dtype=np.float64)
    L = int(L)
    w = np.zeros((len(r), L + 1))
    w[:, L] = 1.0
    ex = np.zeros(len(r), dtype=np.int64)
    r0 = r[:, 0]
    limit = _rescale_limit(r0)
    for n in range(L):
        v = (w[:, L - n] - np.vecdot(r[:, 1:n + 1], w[:, L - n:L])) / r0
        big = np.flatnonzero(v > limit)
        if len(big):
            w[big, L - n:] = np.ldexp(w[big, L - n:], -_RESCALE_BITS)
            v[big] = np.ldexp(v[big], -_RESCALE_BITS)
            ex[big] += _RESCALE_BITS
        w[:, L - n - 1] = v
    return w[:, 0].copy(), ex


# ---------------------------------------------------------------------------
# Lane-vectorized simulator.
#
# Cycle i draws uniforms on (0, 1] from its own splitmix64 stream (Steele,
# Lea & Flood, OOPSLA 2014) started at stream_key(seed, i): hash the seed,
# xor in the golden-ratio multiple of i, hash again.  Each lane carries one
# cycle.  On every step each lane in flight makes exactly one draw and
# advances: the idle period, then a service (one or more draws, by family;
# none for a deterministic one), then arrival gaps until the accumulated gap
# reaches the service time.  A finished lane hands its slot to the next
# cycle index; once every cycle has started, finished lanes are dropped.  A
# cycle's draws, and the arithmetic on them, do not depend on the lane that
# carries it, so the per-cycle arrays do not depend on the lane width.
#
# log, cos and power are numpy's.  Their last bit can differ from the C
# library's and, since numpy picks a SIMD loop by CPU, between machines, so
# a run is byte-reproducible on one machine and numpy build.
# ---------------------------------------------------------------------------

# lanes in flight at once: from 4,096 to 65,536 lanes ran equally fast, and
# this width keeps the lane arrays to a few megabytes
_LANES = 1 << 14

_PHASE_IDLE, _PHASE_SERVICE, _PHASE_GAP = 0, 1, 2

_GOLDEN_U64 = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_NO_LANES = (np.empty(0, dtype=np.intp), np.empty(0))


def _smix_lanes(state):
    """Advance splitmix64 states in place and return their outputs."""
    state += _GOLDEN_U64
    z = state ^ (state >> np.uint64(30))
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _u01_lanes(state):
    z = _smix_lanes(state)
    return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 1.1102230246251565e-16


def _stream_keys(seed, cycles):
    """stream_key(seed, i) for every i in `cycles`."""
    z1 = _smix_lanes(np.full(1, seed, dtype=np.uint64))
    return _smix_lanes(z1 ^ (cycles.astype(np.uint64) * _GOLDEN_U64))


class _Lanes:
    """State of the cycles in flight, one array entry per lane."""

    _FIELDS = (
        ("cycle", np.int64), ("state", np.uint64), ("phase", np.int8),
        ("n", np.int64), ("upper", np.bool_),
        ("s", np.float64), ("t", np.float64),
        ("idle", np.float64), ("below", np.float64), ("above", np.float64),
        ("k1", np.int64), ("k2", np.int64),
        # per-family working state
        ("sub", np.int8), ("count", np.int64), ("total", np.float64),
        ("boost", np.float64), ("root", np.float64), ("x", np.float64),
        ("v", np.float64),
    )

    def __init__(self, width):
        for name, dtype in self._FIELDS:
            setattr(self, name, np.zeros(width, dtype=dtype))

    def __len__(self):
        return len(self.cycle)

    def begin_cycles(self, slots, first, seed):
        """Put cycles first, first+1, ... into the given lane slots."""
        cycles = np.arange(first, first + len(slots), dtype=np.int64)
        self.cycle[slots] = cycles
        self.state[slots] = _stream_keys(seed, cycles)
        self.phase[slots] = _PHASE_IDLE
        self.n[slots] = 1
        self.below[slots] = 0.0
        self.above[slots] = 0.0
        self.k1[slots] = 0
        self.k2[slots] = 0

    def keep(self, mask):
        for name, _ in self._FIELDS:
            setattr(self, name, getattr(self, name)[mask])


# One class per service family.  begin(lanes, idx) starts a service on the
# given lanes and step(lanes, idx, u, log_u) feeds each of them one uniform;
# both return (lanes whose service time is now known, those times).

class _ExpLanes:
    def __init__(self, d):
        self.rate = d.rate

    def begin(self, lanes, idx):
        return _NO_LANES

    def step(self, lanes, idx, u, log_u):
        return idx, -log_u[idx] / self.rate


class _ErlangLanes:
    def __init__(self, d):
        self.k = int(d.shape)
        self.rate = d.rate

    def begin(self, lanes, idx):
        lanes.total[idx] = 0.0
        lanes.count[idx] = 0
        return _NO_LANES

    def step(self, lanes, idx, u, log_u):
        total = lanes.total[idx] + -log_u[idx]
        count = lanes.count[idx] + 1
        lanes.total[idx] = total
        lanes.count[idx] = count
        done = count == self.k
        return idx[done], total[done] / self.rate


class _GammaLanes:
    """Marsaglia-Tsang; shape < 1 boosted via u^(1/shape)."""

    BOOST, NORMAL_U1, NORMAL_U2, ACCEPT_U = 0, 1, 2, 3

    def __init__(self, d):
        a = d.shape
        self.rate = d.rate
        self.boosted = a < 1.0
        if self.boosted:
            self.inv_shape = 1.0 / a
            a += 1.0
        self.d = a - 1.0 / 3.0
        self.c = 1.0 / math.sqrt(9.0 * self.d)

    def begin(self, lanes, idx):
        lanes.boost[idx] = 1.0
        lanes.sub[idx] = self.BOOST if self.boosted else self.NORMAL_U1
        return _NO_LANES

    def step(self, lanes, idx, u, log_u):
        sub = lanes.sub[idx]
        boost = idx[sub == self.BOOST]
        if len(boost):
            lanes.boost[boost] = np.power(u[boost], self.inv_shape)
            lanes.sub[boost] = self.NORMAL_U1
        u1 = idx[sub == self.NORMAL_U1]
        lanes.root[u1] = np.sqrt(-2.0 * log_u[u1])
        lanes.sub[u1] = self.NORMAL_U2
        u2 = idx[sub == self.NORMAL_U2]
        x = lanes.root[u2] * np.cos(2.0 * math.pi * u[u2])
        t = 1.0 + self.c * x
        ok = t > 0.0
        lanes.sub[u2[~ok]] = self.NORMAL_U1
        u2, x, t = u2[ok], x[ok], t[ok]
        lanes.x[u2] = x
        lanes.v[u2] = t * t * t
        lanes.sub[u2] = self.ACCEPT_U
        last = idx[sub == self.ACCEPT_U]
        x, v = lanes.x[last], lanes.v[last]
        accept = u[last] < 1.0 - 0.0331 * x * x * x * x
        slow = np.flatnonzero(~accept)
        xs, vs = x[slow], v[slow]
        accept[slow] = log_u[last[slow]] < 0.5 * xs * xs + self.d * (
            1.0 - vs + np.log(vs))
        lanes.sub[last[~accept]] = self.NORMAL_U1
        done = last[accept]
        return done, lanes.boost[done] * self.d * lanes.v[done] / self.rate


class _DetLanes:
    def __init__(self, d):
        self.duration = d.duration

    def begin(self, lanes, idx):
        return idx, np.full(len(idx), self.duration)


class _HyperLanes:
    """Pick a phase with the first uniform, draw its exponential with the
    second."""

    def __init__(self, d):
        self.cuts = np.cumsum(d.weights)[:-1]
        self.rates = np.array(d.rates)

    def begin(self, lanes, idx):
        lanes.sub[idx] = 0
        return _NO_LANES

    def step(self, lanes, idx, u, log_u):
        picked = lanes.sub[idx] == 1
        pick = idx[~picked]
        lanes.count[pick] = np.searchsorted(self.cuts, u[pick], side="left")
        lanes.sub[pick] = 1
        draw = idx[picked]
        return draw, -log_u[draw] / self.rates[lanes.count[draw]]


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
    lanes.begin_cycles(np.arange(len(lanes)), 0, seed)
    started = len(lanes)

    def service_known(idx, s, upper):
        lanes.s[idx] = s
        lanes.t[idx] = 0.0
        lanes.phase[idx] = _PHASE_GAP
        if upper:
            lanes.above[idx] += s
            lanes.k2[idx] += 1
        else:
            lanes.below[idx] += s
            lanes.k1[idx] += 1

    def begin_service(idx):
        # the law is chosen at service initiation
        upper = lanes.n[idx] > level
        lanes.upper[idx] = upper
        lanes.phase[idx] = _PHASE_SERVICE
        for side, law in enumerate(laws):
            service_known(*law.begin(lanes, idx[upper == side]), side)

    while len(lanes):
        u = _u01_lanes(lanes.state)
        log_u = np.log(u)
        gap = -log_u / lam
        idling = np.flatnonzero(lanes.phase == _PHASE_IDLE)
        serving = np.flatnonzero(lanes.phase == _PHASE_SERVICE)
        waiting = np.flatnonzero(lanes.phase == _PHASE_GAP)

        upper = lanes.upper[serving]
        for side, law in enumerate(laws):
            idx = serving[upper == side]
            if len(idx):
                service_known(*law.step(lanes, idx, u, log_u), side)

        # arrivals during the service; a tie with the completion instant
        # counts as after it (departure-first)
        t = lanes.t[waiting] + gap[waiting]
        lanes.t[waiting] = t
        arrived = t < lanes.s[waiting]
        lanes.n[waiting[arrived]] += 1
        departed = waiting[~arrived]
        n = lanes.n[departed] - 1
        lanes.n[departed] = n

        lanes.idle[idling] = gap[idling]
        begin_service(np.concatenate((idling, departed[n > 0])))

        done = departed[n == 0]
        if len(done):
            cyc = lanes.cycle[done]
            out_idle[cyc] = lanes.idle[done]
            out_below[cyc] = lanes.below[done]
            out_above[cyc] = lanes.above[done]
            out_nu1[cyc] = lanes.k1[done]
            out_nu2[cyc] = lanes.k2[done]
            refill = min(len(done), n_cycles - started)
            lanes.begin_cycles(done[:refill], started, seed)
            started += refill
            if refill < len(done):
                mask = np.ones(len(lanes), dtype=bool)
                mask[done[refill:]] = False
                lanes.keep(mask)
    return out_idle, out_below, out_above, out_nu1, out_nu2


def stream_key(seed, idx):
    """64-bit stream key for (seed, idx); the splitting rule of the simulator."""
    return int(_stream_keys(seed, np.array([idx], dtype=np.uint64))[0])
