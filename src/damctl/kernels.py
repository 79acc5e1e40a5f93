"""Hot numeric kernels: busy-period recurrence and cycle simulation.

The recurrence is a renewal loop on the band of increments a_1..a_K that
`exact` builds from the arrival weights and tilts to stay in double range.
Its terms are all nonnegative, and it runs in blocks that double from 1
entry to _RENEWAL_BLOCK, each block two C-level convolutions whose history
reaches back K entries: O(L K).  ``busy_period_recurrence`` runs the band
wherever numpy is loaded; `exact` runs it on Python floats where it is not.

The simulator runs many regeneration cycles at once as lanes of numpy
arrays, and each step advances every lane by one whole service (see
"Lane-vectorized simulator" below).  Each cycle draws from its own
counter-based splitmix64 stream keyed by (seed, cycle index), so
replications are reproducible regardless of execution order.  Each service
law draws its own services (``ServiceDistribution.lane_services``); this
module keeps the streams and the step loop, and a lane reads a service's
draws, and a few arrival gaps, ahead as one block.
"""

import numpy as np


# ---------------------------------------------------------------------------
# Busy-period recurrence
#
# u is the renewal sequence of the band a_1..a_K that `exact` builds, u_0 = 1
# and u_m = sum_{k=1..min(m, K)} a_k u_{m-k}, with generating function U(z) =
# 1 / (1 - A(z)); `exact` sums it to the counts Q.  Every term is
# nonnegative, so nothing cancels, and `exact` has tilted the band so that
# every u_m stays at most 1.
#
# The loop runs in blocks.  Within a block [s, s + nb), u_{s+i} = h_i +
# sum_{k=1..i} a_k u_{s+i-k}, where the history h_i = sum_{j<s} a_{s+i-j}
# u_j holds every term that reaches back before s, and only its K newest
# entries, j >= s - K, meet a nonzero a.  The solution of this
# renewal equation with forcing h is h * u: U(z) (1 - A(z)) = 1, so the
# inverse of the block's lower-triangular Toeplitz matrix I - T_a is the
# lower-triangular Toeplitz matrix of u_0..u_{nb-1} (Brent & Kung, "Fast
# algorithms for manipulating formal power series", JACM 1978).  Both steps
# are sums of products of nonnegative numbers, so the blocks cancel no more
# than the plain loop does.  The inverse needs u_0..u_{nb-1}, all before s,
# so the first blocks double, [1, 2), [2, 4), ..., [16, 32), and every later
# one holds _RENEWAL_BLOCK entries.
# ---------------------------------------------------------------------------

# entries per block, once the first blocks have doubled up to it
_RENEWAL_BLOCK = 32


def busy_period_recurrence(a, L, x):
    """Run the renewal loop on the band a_1..a_K (K >= 1), tilted by x <= 0;
    returns (tilted values, log scales).

    Entry m of the untilted band's renewal sequence equals values[m] *
    exp(scales[m]), with scales[m] = -m x.
    """
    K = len(a)
    # zeros past a_K, so that a block's history reads a_1..a_{K+nb-1}
    a = np.concatenate((np.asarray(a, dtype=np.float64),
                        np.zeros(_RENEWAL_BLOCK)))
    L = int(L)
    u = np.empty(L + 1)
    u[0] = 1.0
    s = 1
    while s <= L:
        nb = min(_RENEWAL_BLOCK, s, L + 1 - s)
        lo = max(0, s - K)
        # h_i = sum_{lo<=j<s} a_{s+i-j} u_j: nb dot products of length s - lo
        h = np.convolve(a[:s - lo + nb - 1], u[lo:s], "valid")
        u[s:s + nb] = np.convolve(h, u[:nb])[:nb]
        s += nb
    return u, np.arange(L + 1) * -x


# ---------------------------------------------------------------------------
# Lane-vectorized simulator.
#
# Cycle i draws uniforms on (0, 1] from its own splitmix64 stream (Steele,
# Lea & Flood, OOPSLA 2014) started at _stream_keys(seed, i): hash the seed,
# xor in the golden-ratio multiple of i, hash again.  The stream is
# counter-based: from state x its j-th next draw is mix(x + j * golden), so
# a lane can read draws ahead and then consume only those it used (Salmon et
# al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
#
# Each lane carries one cycle, and each step advances every lane by one
# service.  A new cycle takes its idle period as it starts, so it begins at
# its first service.  A lane at a service start picks its law from the
# number in system, and the law's lane_services reads that service's draws
# as one block.  Then every lane reads _GAP_AHEAD arrival gaps and adds
# them, one after another, to the time since its service began.  The
# arrivals are the times before the first one at or after the service time
# (a tie counts as after it, departure-first); the lane consumes their gaps
# and that one.  A lane whose times all fall short consumes every gap it
# read and carries the time into the next step.  A finished lane hands its
# slot to the next cycle index; once every cycle has started it is parked
# instead, and parked lanes are dropped once they are half the pool.  A
# cycle's draws, and the arithmetic on them, depend neither on the lane
# that carries it nor on how far ahead it reads, so the per-cycle arrays
# depend on neither the lane width nor _GAP_AHEAD.
#
# log, cos and power are numpy's.  Their last bit can differ from the C
# library's and, since numpy picks a SIMD loop by CPU, between machines, so
# a run is byte-reproducible on one machine and numpy build.
# ---------------------------------------------------------------------------

# lanes in flight at once.  Over the 18 simulate-benchmark requests of seeds
# 1-3, run in process, 4,096 lanes took 10-12% less time than this width,
# with identical output, and about 10 page faults per request against
# 1,200-1,600 (a (3, 16384) float64 gap block is 384 KiB).  In fresh
# processes, where start-up dominates, three benchmark pairs showed no
# difference.
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


def _stream_keys(seed, cycles):
    """The 64-bit key of each cycle i in `cycles`: the splitting rule."""
    z1 = _mix(np.full(1, seed, dtype=np.uint64) + _GOLDEN_U64)
    return _mix((z1 ^ (cycles.astype(np.uint64) * _GOLDEN_U64)) + _GOLDEN_U64)


class _Lanes:
    """State of the cycles in flight, one array entry per lane; the service
    laws read its streams through take, peek and skip."""

    BLOCK = _BLOCK
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

    def take(self, idx, m):
        """Consume the next m uniforms of the given lanes, one row per draw."""
        state = self.state[idx]
        self.state[idx] = state + _OFFSET[m]
        return _uniforms(state, m)

    def peek(self, idx, m):
        """The next m uniforms of the given lanes, left unconsumed."""
        return _uniforms(self.state[idx], m)

    def skip(self, idx, counts):
        """Consume counts[i] draws of lane idx[i]."""
        self.state[idx] += _OFFSET[counts]

    def keep(self, mask):
        for name, _ in self._FIELDS:
            setattr(self, name, getattr(self, name)[mask])


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
    lanes = _Lanes(min(n_cycles, _LANES))
    lanes.begin_cycles(np.arange(len(lanes)), 0, seed, lam)
    started, parked = len(lanes), 0
    while len(lanes):
        serving = lanes.serving.nonzero()[0]
        upper = lanes.n[serving] > level
        for side, law in enumerate((b1, b2)):
            idx = serving[upper == side]
            if len(idx):
                s = law.lane_services(lanes, idx)
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

