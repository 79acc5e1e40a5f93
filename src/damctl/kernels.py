"""Hot numeric kernels: busy-period recurrence and cycle simulation.

Two backends are provided for each kernel:

  * ``numba``  -- @njit-compiled loops (the default when numba imports),
  * ``numpy``  -- numpy fallback: the recurrence takes each step's inner
    product as one BLAS dot product, and the simulator runs many cycles at
    once as lanes of numpy arrays (see "Lane-vectorized simulator" below).

The recurrence also has a row-batched numpy form,
``busy_period_recurrence_rows``, which returns Q_L for many weight vectors
that share one L (the exact optimizer's coarse grid) from one step loop.
Each row comes out bit-identical to the single-model numpy recurrence.

Selection is via the environment variable ``DAMCTL_BACKEND`` (``numba`` or
``numpy``); unset means "numba if available".  All entry points also accept
an explicit ``backend=`` argument, which the benchmark uses to time both
paths in one process.

The simulator draws from a counter-based splittable stream: each
regeneration cycle gets its own splitmix64 stream keyed by
(seed, cycle index), so replications are reproducible regardless of
execution order.  The numpy simulator's arrays are bit-identical to those of
the scalar kernel that numba compiles.
"""

from functools import partial
import math
import os

import numpy as np

BACKEND_ENV_VAR = "DAMCTL_BACKEND"

try:
    from numba import njit
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    njit = None
    HAVE_NUMBA = False


def active_backend():
    """Backend chosen by the environment (numba unless told otherwise)."""
    req = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if req == "numpy":
        return "numpy"
    if req == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("DAMCTL_BACKEND=numba but numba is not importable")
        return "numba"
    if req:
        raise RuntimeError("unknown DAMCTL_BACKEND value %r" % (req,))
    return "numba" if HAVE_NUMBA else "numpy"


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


def _recurrence_numpy(r, L):
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
    the last entry of the numpy `busy_period_recurrence` on that row.
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


def _recurrence_loop(r, L):
    q = np.empty(L + 1)
    ex = np.zeros(L + 1, dtype=np.int64)
    w = np.empty(L + 1)
    q[0] = 1.0
    w[0] = 1.0
    shift = 0
    r0 = r[0]
    limit = min(1e300, 1e307 * r0)  # as _rescale_limit
    for n in range(L):
        # Kahan-compensated inner product
        s = 0.0
        c = 0.0
        for j in range(1, n + 1):
            y = r[j] * w[n - j + 1] - c
            t = s + y
            c = (t - s) - y
            s = t
        v = (w[n] - s) / r0
        if v > limit:
            for m in range(n + 1):
                w[m] = math.ldexp(w[m], -1024)
            v = math.ldexp(v, -1024)
            shift += 1024
        w[n + 1] = v
        q[n + 1] = v
        ex[n + 1] = shift
    return q, ex


if HAVE_NUMBA:
    _recurrence_numba = njit(cache=True)(_recurrence_loop)
else:  # pragma: no cover
    _recurrence_numba = None


def busy_period_recurrence(r, L, backend=None):
    """Run the recurrence; returns (mantissas, binary exponents).

    Entry n equals mantissas[n] * 2**exponents[n].
    """
    r = np.ascontiguousarray(r, dtype=np.float64)
    if backend is None:
        backend = active_backend()
    if backend == "numba":
        return _recurrence_numba(r, int(L))
    return _recurrence_numpy(r, int(L))


# ---------------------------------------------------------------------------
# Counter-based splittable RNG (splitmix64) and the cycle simulator.
#
# The factory below holds the scalar source of the simulator, which the
# numba backend jit-compiles.  Run uncompiled it uses np.uint64 scalar
# arithmetic, so integer wraparound warnings are silenced around the call;
# the numpy backend uses it only for stream_key() and runs the
# lane-vectorized form of the same kernel further down.
# ---------------------------------------------------------------------------

_U64 = np.uint64
_GOLDEN = 0x9E3779B97F4A7C15

# service-law encodings for the kernel
KIND_EXP = 0
KIND_ERLANG = 1
KIND_GAMMA = 2
KIND_DET = 3
KIND_HYPER = 4


def _build_sim(decorate):
    dec = decorate if decorate is not None else (lambda f: f)

    @dec
    def smix_next(state):
        state = state + _U64(0x9E3779B97F4A7C15)
        z = state
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        z = z ^ (z >> _U64(31))
        return state, z

    @dec
    def stream_key(seed, idx):
        # documented splitting rule: hash the seed, xor in the golden-ratio
        # multiple of the index, hash again
        s, z1 = smix_next(_U64(seed))
        s2 = z1 ^ (_U64(idx) * _U64(0x9E3779B97F4A7C15))
        s2, z2 = smix_next(s2)
        return z2

    @dec
    def u01(state):
        # uniform on (0, 1]; never 0, so log() is safe
        state, z = smix_next(state)
        return state, (float(z >> _U64(11)) + 1.0) * 1.1102230246251565e-16

    @dec
    def draw_gamma(state, shape, rate):
        # Marsaglia-Tsang; shape < 1 boosted via u^(1/shape)
        a = shape
        boost = 1.0
        if a < 1.0:
            state, u = u01(state)
            boost = u ** (1.0 / a)
            a += 1.0
        d = a - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            state, u1 = u01(state)
            state, u2 = u01(state)
            x = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            t = 1.0 + c * x
            if t <= 0.0:
                continue
            v = t * t * t
            state, u = u01(state)
            if u < 1.0 - 0.0331 * x * x * x * x:
                break
            if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
                break
        return state, boost * d * v / rate

    @dec
    def draw_service(kind, par, state):
        if kind == 0:    # exponential
            state, u = u01(state)
            return state, -math.log(u) / par[0]
        if kind == 1:    # Erlang: sum of integer-shape exponentials
            total = 0.0
            for _ in range(int(par[0])):
                state, u = u01(state)
                total += -math.log(u)
            return state, total / par[1]
        if kind == 2:    # Gamma
            return draw_gamma(state, par[0], par[1])
        if kind == 3:    # deterministic
            return state, par[0]
        # hyperexponential: par = [k, cumw_1..cumw_k, rate_1..rate_k]
        k = int(par[0])
        state, u = u01(state)
        idx = 0
        while idx < k - 1 and u > par[1 + idx]:
            idx += 1
        state, u2 = u01(state)
        return state, -math.log(u2) / par[1 + k + idx]

    @dec
    def simulate_cycles(n_cycles, seed, lam, level, kind1, par1, kind2, par2):
        idle = np.empty(n_cycles)
        below = np.empty(n_cycles)
        above = np.empty(n_cycles)
        nu1 = np.empty(n_cycles, dtype=np.int64)
        nu2 = np.empty(n_cycles, dtype=np.int64)
        for cyc in range(n_cycles):
            state = stream_key(seed, cyc)
            state, u = u01(state)
            t_idle = -math.log(u) / lam
            n = 1
            t_below = 0.0
            t_above = 0.0
            k1 = 0
            k2 = 0
            while n > 0:
                if n <= level:
                    state, s = draw_service(kind1, par1, state)
                    t_below += s
                    k1 += 1
                else:
                    state, s = draw_service(kind2, par2, state)
                    t_above += s
                    k2 += 1
                # arrivals during the service; exponential gaps, a tie with
                # the completion instant counts as after it (departure-first)
                state, u = u01(state)
                t = -math.log(u) / lam
                while t < s:
                    n += 1
                    state, u = u01(state)
                    t += -math.log(u) / lam
                n -= 1
            idle[cyc] = t_idle
            below[cyc] = t_below
            above[cyc] = t_above
            nu1[cyc] = k1
            nu2[cyc] = k2
        return idle, below, above, nu1, nu2

    return simulate_cycles, stream_key


_stream_key_numpy = _build_sim(None)[1]
if HAVE_NUMBA:
    _sim_numba, _stream_key_numba = _build_sim(njit)
else:  # pragma: no cover
    _sim_numba, _stream_key_numba = None, None


# ---------------------------------------------------------------------------
# Lane-vectorized simulator: the numpy backend.
#
# Each lane carries one regeneration cycle through the state machine of the
# scalar kernel above, with its own splitmix64 state keyed by
# stream_key(seed, cycle).  On every step each lane in flight makes exactly
# one draw and advances: the idle period, then a service (one or more draws,
# by family; none for a deterministic one), then arrival gaps until the
# accumulated gap reaches the service time.  A finished lane hands its slot
# to the next cycle index; once every cycle has started, finished lanes are
# dropped.  Each cycle sees the draws, and the arithmetic on them, of the
# scalar kernel in the same order, so the arrays are bit-identical to it.
#
# numpy's + - * / and sqrt round exactly as Python's do, but its log and
# power are not the C library's: on 10^6 uniforms np.log differs from
# math.log in the last bit on about 3,400, and np.power from the power
# operator on about 54,000.  np.cos has no promise to agree either.  So log,
# cos and power run through math (or the power operator) on Python floats,
# which costs most of the simulator's time.
# ---------------------------------------------------------------------------

# lanes in flight at once: from 4,096 to 65,536 lanes ran equally fast, and
# this width keeps the lane arrays to a few megabytes
_LANES = 1 << 14

_PHASE_IDLE, _PHASE_SERVICE, _PHASE_GAP = 0, 1, 2

_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_NO_LANES = (np.empty(0, dtype=np.intp), np.empty(0))


def _libm(fn, x):
    """fn over an array in Python floats, as the scalar kernel computes it."""
    return np.array(list(map(fn, x.tolist())), dtype=np.float64)


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
    def __init__(self, par):
        self.rate = par[0]

    def begin(self, lanes, idx):
        return _NO_LANES

    def step(self, lanes, idx, u, log_u):
        return idx, -log_u[idx] / self.rate


class _ErlangLanes:
    def __init__(self, par):
        self.k = int(par[0])
        self.rate = par[1]

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

    def __init__(self, par):
        a = par[0]
        self.rate = par[1]
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
            lanes.boost[boost] = _libm(partial(pow, exp=self.inv_shape),
                                       u[boost])
            lanes.sub[boost] = self.NORMAL_U1
        u1 = idx[sub == self.NORMAL_U1]
        lanes.root[u1] = np.sqrt(-2.0 * log_u[u1])
        lanes.sub[u1] = self.NORMAL_U2
        u2 = idx[sub == self.NORMAL_U2]
        x = lanes.root[u2] * _libm(math.cos, 2.0 * math.pi * u[u2])
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
            1.0 - vs + _libm(math.log, vs))
        lanes.sub[last[~accept]] = self.NORMAL_U1
        done = last[accept]
        return done, lanes.boost[done] * self.d * lanes.v[done] / self.rate


class _DetLanes:
    def __init__(self, par):
        self.duration = par[0]

    def begin(self, lanes, idx):
        return idx, np.full(len(idx), self.duration)


class _HyperLanes:
    """Pick a phase with the first uniform, draw its exponential with the
    second; par = [k, cumw_1..cumw_k, rate_1..rate_k]."""

    def __init__(self, par):
        k = int(par[0])
        self.cuts = par[1:k]
        self.rates = par[1 + k:1 + 2 * k]

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


_LANE_FAMILIES = {KIND_EXP: _ExpLanes, KIND_ERLANG: _ErlangLanes,
                  KIND_GAMMA: _GammaLanes, KIND_DET: _DetLanes,
                  KIND_HYPER: _HyperLanes}


def _simulate_lanes(n_cycles, seed, lam, level, kind1, par1, kind2, par2):
    out_idle = np.empty(n_cycles)
    out_below = np.empty(n_cycles)
    out_above = np.empty(n_cycles)
    out_nu1 = np.empty(n_cycles, dtype=np.int64)
    out_nu2 = np.empty(n_cycles, dtype=np.int64)
    laws = (_LANE_FAMILIES[kind1](par1), _LANE_FAMILIES[kind2](par2))
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
        log_u = _libm(math.log, u)
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


def simulate_cycles(n_cycles, seed, lam, level, kind1, par1, kind2, par2,
                    backend=None):
    """Simulate regeneration cycles; returns per-cycle arrays
    (idle, below_time, above_time, nu1, nu2)."""
    par1 = np.ascontiguousarray(par1, dtype=np.float64)
    par2 = np.ascontiguousarray(par2, dtype=np.float64)
    if backend is None:
        backend = active_backend()
    if backend == "numba":
        return _sim_numba(int(n_cycles), int(seed), float(lam), int(level),
                          int(kind1), par1, int(kind2), par2)
    return _simulate_lanes(int(n_cycles), int(seed), float(lam), int(level),
                           int(kind1), par1, int(kind2), par2)


def stream_key(seed, idx, backend=None):
    """64-bit stream key for (seed, idx); the splitting rule of the simulator."""
    if backend is None:
        backend = active_backend()
    if backend == "numba":
        return int(_stream_key_numba(int(seed), int(idx)))
    with np.errstate(over="ignore"):
        return int(_stream_key_numpy(int(seed), int(idx)))
