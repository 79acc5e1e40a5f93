"""Hot numeric kernels: busy-period recurrence and cycle simulation.

The recurrence is a renewal loop on the band of increments a_1..a_K that
`exact` builds from the arrival weights and tilts to stay in double range.
Its terms are all nonnegative, and it runs in blocks that double from 1
entry to _RENEWAL_BLOCK, each block two C-level convolutions whose history
reaches back K entries: O(L K).  ``busy_period_recurrence`` runs the band
to L in a process that has loaded numpy; without numpy, `exact` runs it on
Python floats.

The simulator runs many regeneration cycles at once as lanes of numpy
arrays, and each step advances every lane by a block of service slots (see
"Lane-vectorized simulator" below).  The arrivals during a service are a
Poisson count given its length, so no arrival time is kept.  Each service
law draws its own services (``ServiceDistribution.lane_services``); this
module keeps the streams and the step loop.

The key rule.  splitmix64 (Steele, Lea & Flood, OOPSLA 2014) gives a
64-bit key k the value mix(k + p * golden) at counter p, and a uniform on
(0, 1] from that value's top 53 bits.  Cycle i has the key
c_i = _stream_keys(seed, i): hash the seed, xor in the golden-ratio
multiple of i, hash again.  Counter 0 of c_i is the cycle's idle uniform,
and its counter j + 1 is the key of slot j, the cycle's (j+1)-th service.
A slot's draws of kind 0 (arrival uniforms), 1 (b1 draws) and 2 (b2
draws) are its counters kind * 2^62 + d, d = 1, 2, ..., one counter range
per kind.  So each draw is keyed by (cycle, j, kind, d) and every counter
is read for one purpose only: however many draws a service takes (Erlang
shapes and Marsaglia-Tsang retries have no bound), it moves only its own
range, and a slot's draws do not depend on which slots were read before
it, or how far (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC 2011).  A run is reproducible cycle by cycle whatever the order of
execution.
"""

import numpy as np


# ---------------------------------------------------------------------------
# Busy-period recurrence
#
# u is the renewal sequence of the band a_1..a_K that `exact` builds, u_0 = 1
# and u_m = sum_{k=1..min(m, K)} a_k u_{m-k}, with generating function U(z) =
# 1 / (1 - A(z)); `exact` sums it to the counts Q.  Every term is
# nonnegative, so nothing cancels, and `exact` has tilted the band so that
# u tends to a constant: every u_m stays within a few percent of its limit.
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
# Every estimate needs only the number of arrivals during each service, not
# their times: given the service time S it is Poisson(lam S), drawn by
# inverting the slot's arrival uniforms (_poisson_counts).  The inversion
# sums the cdf a term at a time on numpy arrays of the entries still
# running, until at most _POISSON_TAIL are left; those finish on Python
# floats with the same IEEE operations in the same order, so a count does
# not depend on where the switch falls.  The draws follow the key rule of
# the module docstring.
#
# Each lane carries one cycle, and each step gives every live lane
# `width` slots, about _LANES in all.  A step of one slot, which the full
# lane pool takes, knows each lane's law from its n before any draw:
# it draws one service per lane, b1 at n <= level and b2 above it, as one
# array per law through the law's lane_services, and one arrival count per
# slot.  A wider step cannot know the law of a lane's later slots, so every
# slot gets both candidates, a b1 service and a b2 service, each with its
# arrival count.  Then a loop over the slots takes each lane's slot under
# b1 while n <= level and under b2 above it, and moves n by the count minus
# one; a lane whose n reaches 0 takes no more slots, and the loop stops at
# the slot after which every lane is at 0.  (Drawing there the
# law n predicts, and the other law from each lane's first crossing, was
# measured slower.)  After the step a finished lane's place goes to the
# next cycle index, or, once every cycle has started, is dropped.  A
# cycle's draws, and the arithmetic on them, depend neither on the lane
# that carries it nor on `width`, so the per-cycle arrays depend on neither
# the lane width nor the slots per step.
#
# log, cos, exp and power are numpy's.  Their last bit can differ from the
# C library's and, since numpy picks a SIMD loop by CPU, between machines,
# so a run is byte-reproducible on one machine and numpy build.
# ---------------------------------------------------------------------------

# lanes in flight at once, and service slots per step: each live lane gets
# _LANES // lanes of them, at least 1 and at most _MAX_SLOTS.  A step's
# arrays then hold about 8,192 entries (64 KiB of float64) whether 8,192
# lanes take one slot each or a run's last long cycles take 256.  The
# drain's widest steps use about a fifth of the slots they draw, but caps
# of 64 and 128 were measured no faster.  A pool of _LANES lanes takes
# one-slot steps, and lanes drop out only once every cycle has started, so
# a wider step, which needs at most _LANES // 2 live lanes, runs only in
# that drain, never beside a refill.
_LANES = 1 << 13
_MAX_SLOTS = 256

# the means drawn by inverting one uniform are those below _POISSON_PART.  A
# larger mean is split into equal parts below it (Poisson additivity), and
# part m (m >= 1) reads arrival draw m.  exp(-part) stays far from its
# underflow at 745, an inversion takes a few hundred terms at most, and a
# mean of 1e9 needs about 4M parts.
_POISSON_PART = 256.0

# an inversion with at most this many entries still running finishes them
# on Python floats
_POISSON_TAIL = 32

_GOLDEN_U64 = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# _OFFSET[c] advances a stream state past c draws.  It is an array because
# a product of np.uint64 scalars warns when it wraps; array arithmetic wraps
# modulo 2^64 silently.  At most _BLOCK draws are read at once.
_BLOCK = 32
_OFFSET = np.arange(_BLOCK + 1, dtype=np.uint64) * _GOLDEN_U64

# a slot's draw kinds after its arrivals (kind 0); _KIND[kind] moves a slot
# key to its counter kind * 2^62
_B1, _B2 = 1, 2
_KIND = (np.arange(3, dtype=np.uint64) << np.uint64(62)) * _GOLDEN_U64


def _mix(x):
    """splitmix64's output function of the states x, worked in place on
    one temporary."""
    z = x >> np.uint64(30)
    z ^= x
    z *= _MIX1
    t = z >> np.uint64(27)
    z ^= t
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _unit(z):
    """Uniforms on (0, 1] from the top 53 bits of the 64-bit values z."""
    return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 1.1102230246251565e-16


def _uniforms(state, m):
    """The next m uniforms on (0, 1] of each stream, one row per draw; the
    states do not move."""
    return _unit(_mix(state + _OFFSET[1:m + 1, None]))


def _stream_keys(seed, cycles):
    """The 64-bit key of each cycle i in `cycles`: the splitting rule."""
    z1 = _mix(np.full(1, seed, dtype=np.uint64) + _GOLDEN_U64)
    return _mix((z1 ^ (cycles.astype(np.uint64) * _GOLDEN_U64)) + _GOLDEN_U64)


def _slot_keys(keys, slots):
    """The key of service slot `slots` of the cycles with keys `keys`
    (broadcast): the value at the cycle's counter slot + 1."""
    return _mix(keys + (slots + 1).astype(np.uint64) * _GOLDEN_U64)


def _invert_poisson(mean, u):
    """The least k with u <= P(Poisson(mean) <= k), that cdf summed term by
    term from exp(-mean), or the first k whose term underflows to 0."""
    count = np.zeros(len(u), dtype=np.int64)
    p = np.exp(-mean)
    live = (u > p).nonzero()[0]
    mean, p, u = mean.take(live), p.take(live), u.take(live)
    f = p.copy()
    k = 0
    # the inversions still running, compacted by index each term (a gather
    # by index is far cheaper than one by boolean mask)
    while len(live) > _POISSON_TAIL:
        k += 1
        p *= mean / k
        f += p
        count[live] = k
        go = ((u > f) & (p > 0.0)).nonzero()[0]
        live, mean, p, f, u = (live.take(go), mean.take(go), p.take(go),
                               f.take(go), u.take(go))
    # the last few, whose long inversions cost numpy's per-call overhead a
    # term: the same operations on Python floats
    tail = []
    for m, pi, fi, ui in zip(mean.tolist(), p.tolist(), f.tolist(),
                             u.tolist()):
        ki, go = k, True
        while go:
            ki += 1
            pi *= m / ki
            fi += pi
            go = ui > fi and pi > 0.0
        tail.append(ki)
    count[live] = tail
    return count


def _poisson_counts(mean, keys):
    """Poisson(mean[i]) counts from the arrival stream at state keys[i %
    len(keys)].  A mean below _POISSON_PART inverts the stream's first draw;
    a larger one is split into floor(mean / _POISSON_PART) + 1 equal parts,
    part m read from draw m."""
    u = _unit(_mix(keys + _OFFSET[1]))
    u = np.concatenate((u,) * (len(mean) // len(keys)))
    if mean.max() < _POISSON_PART:
        return _invert_poisson(mean, u)
    split = (mean >= _POISSON_PART).nonzero()[0]
    parts = np.floor(mean[split] / _POISSON_PART) + 1.0
    each = mean.copy()
    each[split] = mean[split] / parts
    count = _invert_poisson(each, u)
    more = parts.astype(np.int64) - 1
    owner = np.repeat(split, more)
    # draws 2 .. parts of each split entry
    draw = np.arange(len(owner)) - np.repeat(np.cumsum(more) - more, more) + 2
    u = _unit(_mix(keys[owner % len(keys)] + draw.astype(np.uint64) * _GOLDEN_U64))
    np.add.at(count, owner, _invert_poisson(each[owner], u))
    return count


class _Slots:
    """Draw streams, one per entry, at states `state`; the service laws read
    them through take, peek and skip."""

    BLOCK = _BLOCK

    def __init__(self, state):
        self.state = state

    def __len__(self):
        return len(self.state)

    def take(self, m):
        """Consume the next m uniforms of every stream, one row per draw."""
        state = self.state
        self.state = state + _OFFSET[m]
        return _uniforms(state, m)

    def peek(self, idx, m):
        """The next m uniforms of the given streams, left unconsumed."""
        return _uniforms(self.state[idx], m)

    def skip(self, idx, counts):
        """Consume counts[i] draws of stream idx[i]."""
        self.state[idx] += _OFFSET[counts]


class _Lanes:
    """State of the cycles in flight, one array entry per lane."""

    # a live lane took every slot its steps gave it: its next slot is k1 + k2
    _FIELDS = (
        ("cycle", np.int64), ("key", np.uint64), ("n", np.int64),
        ("below", np.float64), ("above", np.float64),
        ("k1", np.int64), ("k2", np.int64),
    )

    def __init__(self, width):
        for name, dtype in self._FIELDS:
            setattr(self, name, np.zeros(width, dtype=dtype))

    def __len__(self):
        return len(self.cycle)

    def begin_cycles(self, lanes, first, seed, idle, lam):
        """Put cycles first, first+1, ... into the given lanes at their first
        service, and write their idle periods into `idle`."""
        cycles = np.arange(first, first + len(lanes), dtype=np.int64)
        keys = _stream_keys(seed, cycles)
        self.cycle[lanes] = cycles
        self.key[lanes] = keys
        idle[first:first + len(lanes)] = -np.log(_unit(_mix(keys))) / lam
        self.n[lanes] = 1
        self.below[lanes] = 0.0
        self.above[lanes] = 0.0
        self.k1[lanes] = 0
        self.k2[lanes] = 0

    def keep(self, lanes):
        """Keep only the given lanes, in order."""
        for name, _ in self._FIELDS:
            setattr(self, name, getattr(self, name).take(lanes))


def _running_sum(rows):
    """The column sums of `rows`, added row after row as one service at a
    time adds them.  numpy reduces across rows in that order, but sums one
    contiguous column pairwise."""
    if rows.shape[1] == 1:
        return np.cumsum(rows[:, 0])[-1:]
    return np.add.reduce(rows, axis=0)


def _one_slot_step(lanes, lam, level, b1, b2):
    """Give every lane one slot: its service is drawn under the law its n
    gives, b1 at or below the level and b2 above it."""
    keys = _slot_keys(lanes.key, lanes.k1 + lanes.k2)
    first = lanes.n <= level
    lo, hi = first.nonzero()[0], (~first).nonzero()[0]
    s = np.empty(len(lanes))
    s[lo] = b1.lane_services(_Slots(keys.take(lo) + _KIND[_B1]))
    s[hi] = b2.lane_services(_Slots(keys.take(hi) + _KIND[_B2]))
    lanes.n += _poisson_counts(lam * s, keys) - 1
    lanes.below = np.where(first, lanes.below + s, lanes.below)
    lanes.above = np.where(first, lanes.above, lanes.above + s)
    lanes.k1 += first
    lanes.k2 += ~first


def _block_step(lanes, width, lam, level, b1, b2):
    """Give every lane `width` slots, each drawn under both laws."""
    shape = (width, len(lanes))
    keys = _slot_keys(lanes.key,
                      lanes.k1 + lanes.k2 + np.arange(width)[:, None]).ravel()
    # row j of each (width, lanes) array is slot j of the step
    s1 = b1.lane_services(_Slots(keys + _KIND[_B1]))
    s2 = b2.lane_services(_Slots(keys + _KIND[_B2]))
    # both candidates' arrival counts read the slot's arrival draws
    net = _poisson_counts(lam * np.concatenate((s1, s2)), keys) - 1
    s1, s2 = s1.reshape(shape), s2.reshape(shape)
    net1, net2 = net[:keys.size].reshape(shape), net[keys.size:].reshape(shape)

    # n at the start of each slot; a lane at 0 takes no more slots, and the
    # loop stops once every lane is at 0
    start = np.empty(shape, dtype=np.int64)
    n = lanes.n
    for j in range(width):
        start[j] = n
        n = np.where(n > 0, n + np.where(n <= level, net1[j], net2[j]), 0)
        if not n.any():
            break
    start, s1, s2 = start[:j + 1], s1[:j + 1], s2[:j + 1]
    first = (start > 0) & (start <= level)
    second = start > level
    s1 *= first
    s1[0] += lanes.below
    lanes.below = _running_sum(s1)
    s2 *= second
    s2[0] += lanes.above
    lanes.above = _running_sum(s2)
    lanes.k1 += first.sum(axis=0)
    lanes.k2 += second.sum(axis=0)
    lanes.n = n


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
    lanes.begin_cycles(np.arange(len(lanes)), 0, seed, out_idle, lam)
    started = len(lanes)
    while len(lanes):
        width = min(_MAX_SLOTS, _LANES // len(lanes))
        if width == 1:
            _one_slot_step(lanes, lam, level, b1, b2)
        else:
            _block_step(lanes, width, lam, level, b1, b2)

        done = (lanes.n == 0).nonzero()[0]
        if len(done):
            cyc = lanes.cycle[done]
            out_below[cyc] = lanes.below[done]
            out_above[cyc] = lanes.above[done]
            out_nu1[cyc] = lanes.k1[done]
            out_nu2[cyc] = lanes.k2[done]
            refill = min(len(done), n_cycles - started)
            if refill:
                lanes.begin_cycles(done[:refill], started, seed, out_idle, lam)
                started += refill
            if refill < len(done):
                lanes.keep((lanes.n > 0).nonzero()[0])
    return out_idle, out_below, out_above, out_nu1, out_nu2
