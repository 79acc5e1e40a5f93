"""Exact finite-threshold analysis of the state-dependent M/GI/1 dam.

The expected number of below-threshold services per busy period, Q_L, is
the coefficient of z^L in r(z) / (r(z) - z), with r_j the arrival-count
weights of the normal-regime service law.  Since r(z) - z = (1 - z) r_0
(1 - A(z)), with increments a_k = T_k / r_0 and T_k = sum_{j>k} r_j, and
the renewal sequence u of a has U(z) (1 - A(z)) = 1, Q_0 = 1 and Q_n =
sum_{m<n} u_m / r_0: a partial sum of u, which a renewal loop, in which
nothing cancels, computes.  The remaining busy-period quantities follow
from Wald identities, and by the renewal reward theorem p1 = E idle /
(E T + E idle) is the long-run share of time idle and p2 = E T2 / (E T +
E idle) the share in b2 service.  The paper's p2 is P(L_t > L^upper): on
exp laws with rho2 = 0.5 a direct solve of the level chain gave that as
2 p2 at every L from 5 to 120.

The band.  The increments a_k fall geometrically past their mode (by
about 0.3 a step for gamma(2.5), faster for det's Poisson tail), so the
renewal loop reads only a_1..a_K: K is the least index past which the
tilted increments sum to at most 2^-60 / L of all of them, and weights
are read, from 128 on, only as far as that cut needs; past _MAX_WEIGHTS
the rest of a slow tail enters as one term.  Where rho1 > 1 u grows
geometrically, so the band is tilted to a_k e^{kx}, x = log phi with phi
from `asymptotics.root_phi`: A(phi) = 1 as r(phi) = phi, so the tilted u
tends to a constant (Feller, An Introduction to Probability Theory, Vol.
II, XI.6).  Q_L is exact for any x; root_phi's x is within 7e-14 relative
of a 40-digit root from rho1 = 1.05 on and 1.2e-8 absolute just above 1,
so up to MAX_LEVEL the tilted u stays within a few percent of its limit.
K is 16-22 for det laws, 38-56 for gamma(1.5-3) at L = 4000 (41-59 at
64000) and about 470-520 for gamma(0.1) at L = 4000-64000.  The weights
are one list of Python floats (about 0.3 s a read of 2^20).

The settled tail.  The tilted u is a sum of geometric terms, one for each
root of 1 - A(z).  The dominant one is 1 after the tilt, or the decay
g < 1 where rho1 < 1, and the others lie far from it (Feller, Vol. I,
ch. XIII; Takacs, Combinatorial Methods in the Theory of Stochastic
Processes, 1967), so u_m / u_{m-1} is constant to the last bits after
M = 25-215 steps for exp, Erlang, det, gamma(0.5-2.5) and hyper laws at
any L, and about 800 for gamma(0.1).  The list loop (`_renewal`), about
25 ns a multiply-add with every u_m correctly rounded (`math.fsum`),
stops once that ratio has held to 4 ulps for K + 1 steps: the K newest
entries, all that the loop reads, are then geometric, and so is the rest
of u.  Its ratio g is the root of sum a_k g^-k = 1 (`_log_root`), and the
rest of Q_L's sum is one geometric series in closed form (`_rest`), so a
solve costs O((M + K) K) at any L: 0.1-1.3 ms for those laws at L = 4000
and at 64000, and about 10 ms for gamma(0.1), in process on a 2-vCPU
x86_64 VM, Python 3.11.  A band as long as L (gamma(0.01) at L = 4000,
gamma(1e-3) at 16384) reaches L unsettled, in about L^2 / 2
multiply-adds: 4.5 s at L = 16384, against 0.65 s on numpy's loop.

The rule reads sys.modules (`_numpy_loaded`): a process that has loaded
numpy runs every solve on numpy's blocked loop in the kernels, to L in
O(L K), 1.3-2.4 ms for a det, gamma(2.5) or gamma(0.1) law at L = 4000
and 0.35-0.44 s at 2^20, and a process without numpy never loads it to
solve.  perfbench's launcher loads numpy to wrap
kernels.busy_period_recurrence, and its tests read that kernel's span
from an analyze, so the kernel and the rule stay until that benchmark
changes.  The settled tail agrees with numpy's loop to 1e-12 relative in
Q_L at L up to 64000, and with the list loop run to L to 1e-12 up to
L = 4000 (tests/test_routes.py); a change to the exact numerics must land
on both loops.
"""

import math
import operator
import sys
from bisect import bisect_right
from collections import deque
from itertools import accumulate, islice

from ._record import Record
from .asymptotics import _exp, root_phi as _root_phi
from .errors import NumericDegeneracyError
from .model import CostModel, DamModel  # re-exported as exact.DamModel etc.

__all__ = [
    "DamModel",
    "CostModel",
    "BusyPeriodMetrics",
    "ExactSolution",
    "busy_period_counts",
    "solve",
    "busy_period_metrics",
    "stationary_probs",
    "cost",
]

_R0_FLOOR = 1e-300

# the largest L solved: a settled band takes under a millisecond there and
# numpy's loop 0.4 s on a det or gamma band; a band as long as L would take
# the list loop hours
MAX_LEVEL = 1 << 20

# the weights left out past r_N, relative to T_K; and, over L, the
# increments the band leaves out, relative to all of them
_TAIL = 2.0 ** -60

# the weights read first, and the most summed before a slow tail is taken as
# one remainder term: gamma laws of shape 1e-4 and 1e-8 need 614,401 and
# billions of them
_FIRST_WEIGHTS = 1 << 7
_MAX_WEIGHTS = 1 << 20

class BusyPeriodMetrics(Record):
    e_nu1: float
    e_nu2: float
    e_t1: float
    e_t2: float
    e_t: float
    e_idle: float


class ExactSolution(Record):
    """Everything one Q_L gives for a model; cost is None without costs."""
    busy: BusyPeriodMetrics
    p1: float
    p2: float
    cost: float = None


def _check_r0(r0, model):
    if r0 < _R0_FLOOR:
        raise NumericDegeneracyError(
            "r_0 = %g underflows; the normal-regime service law puts its mass "
            "too far from the origin for arrival rate %g" % (r0, model.lam))


def _solvable_level(model):
    """L, refusing one above MAX_LEVEL."""
    L = int(model.level)
    if L > MAX_LEVEL:
        raise ValueError("level %d is above the largest the exact route "
                         "solves, %d" % (L, MAX_LEVEL))
    return L


def _numpy_loaded():
    """Whether this process has loaded numpy: the rule of every choice."""
    return "numpy" in sys.modules


def _weights(model, n):
    """r_0..r_n of the normal-regime law as a list, refusing an underflowing
    r_0."""
    r = model.b1.mixed_poisson_weights(model.lam, n)
    _check_r0(r[0], model)
    return r


def _enough(r, L):
    """Whether r_0..r_N leave out weights that sum to below _TAIL * T_L
    (only a T_L below 1/2 is read from the tail).

    The left-out sum is estimated as r_N q / (1 - q), q = r_N / r_{N-1}:
    every family's weights fall monotonically past their mode.
    """
    last = r[-1]
    if last == 0.0 or sum(r[:L + 1]) <= 0.5:
        return True
    q = last / r[-2]
    return q < 1.0 and last * q / (1.0 - q) <= _TAIL * sum(r[L + 1:])


def _finite_q(q):
    if not math.isfinite(q):
        raise NumericDegeneracyError(
            "the busy-period recurrence gave a non-finite Q_L")
    return q


def _increments(r, L):
    """(a, unseen): the increments a_1..a_m, m = min(L, N - 1) from
    r_0..r_N, and an estimate of a_{m+1} + ... + a_L, which the weights
    read do not give: inf while the weights still rise.

    a_k = T_k / r_0, and T_k = 1 - sum_{j<=k} r_j is exact enough while it
    is at least 1/2; below that the tail sum, added from its small end,
    keeps its relative accuracy.  Past r_N the weights are taken to fall
    geometrically, as `_enough` takes them, by q = r_N / r_{N-1}, so that
    sum_{k>=N} T_k = sum_{j>N} (j - N) r_j is r_N q / (1 - q)^2.
    """
    m = min(L, len(r) - 2)
    # 1 - sum_{j<=k} r_j, else sum_{j>k} r_j, for k = 1..m
    head = accumulate(islice(r, 1, m + 1), initial=r[0])
    tail = deque(accumulate(islice(reversed(r), len(r) - 2)), maxlen=m)
    a = [(1.0 - h if 1.0 - h >= 0.5 else t) / r[0]
         for h, t in zip(islice(head, 1, None), reversed(tail))]
    last = r[-1]
    if m == L or last == 0.0:
        return a, 0.0
    q = last / r[-2]
    if not q < 1.0:
        return a, math.inf
    return a, last * q / (1.0 - q) ** 2 / r[0]


def _cut(a, budget):
    """The least K >= 1 with a_{K+1} + a_{K+2} + ... <= budget, the tail
    summed from its small end; len(a) where there is none."""
    return max(1, len(a) - bisect_right(list(accumulate(reversed(a))), budget))


def _band(model, L):
    """(a, x, r_0): the increments a_1..a_K, tilted by x = log phi where
    rho1 > 1 and by x = 0 else.  K is the least index for which the tilted
    increments past it, read or not, sum to at most _TAIL / L of all of
    them; and the weights read give a_1..a_K to _TAIL relative (`_enough`),
    or end, past _MAX_WEIGHTS, in one term for the rest of the tail."""
    n = _FIRST_WEIGHTS
    r = _weights(model, n)
    # after the first read, which refuses an r_0 that would leave phi at 0
    x = math.log(_root_phi(model.lam, model.b1)) if model.rho1 > 1.0 else 0.0
    while True:
        whole = n >= _MAX_WEIGHTS
        if whole:
            # a tail too long to sum: the weights past r_n enter as one
            # term, 1 - sum(r), good to about 1e-16 / T_L relative
            r.append(max(1.0 - math.fsum(r), 0.0))
        a, unseen = _increments(r, L)
        if x:
            a = [v * math.exp(k * x) for k, v in enumerate(a, 1)]
            # each unread a_k, k > len(a), is tilted by at most this
            if unseen < math.inf:
                unseen *= math.exp((len(a) + 1) * x)
        budget = _TAIL / L * sum(a) - unseen
        K = _cut(a, budget)
        if whole or budget >= 0.0 and _enough(r, K):
            return a[:K], x, r[0]
        n = min(2 * n, _MAX_WEIGHTS)
        r = _weights(model, n)


def _log_root(a, s):
    """log g, g the root of sum_k a_k g^-k = 1, by two Newton steps from
    log g ~ s.  F(s) = sum_k a_k e^{-ks} - 1 is summed as one fsum of a, -1
    and the a_k expm1(-ks), each to full relative precision, so a log g
    near 0, where rho1 is near 1 and the settled tail is longest, keeps
    its own."""
    ks = range(1, len(a) + 1)
    for _ in range(2):
        d = [v * math.expm1(-k * s) for k, v in zip(ks, a)]
        slope = math.fsum(k * (v + e) for k, v, e in zip(ks, a, d))
        s += math.fsum(d + a + [-1.0]) / slope
    return s


def _renewal(a, L):
    """(u, log g): u_0, ..., u_{M-1} of the band a_1..a_K on Python floats,
    u_m = sum_{k<=min(m, K)} a_k u_{m-k} from a history of the K newest
    entries, and the log ratio of the rest.

    Each u_m is its sum correctly rounded: near rho1 = 1 u settles to a
    constant, and a plain sum's rounding then recurs at every step, 1.3e-12
    in Q_L at L = 4000.  The loop ends at M = L, with log g None, or once
    u_m / u_{m-1} has held to 4 ulps for K + 1 steps: the history is then
    geometric, so the rest of u is too, u_m = u_{M-1} g^{m-M+1}."""
    K = len(a)
    history = deque([1.0], maxlen=K)
    u = [1.0]
    ratio, tol, held = math.nan, 0.0, 0
    for _ in range(1, L):
        prev = history[0]
        v = math.fsum(map(operator.mul, a, history))
        history.appendleft(v)
        u.append(v)
        r = v / prev if prev else math.nan
        if abs(r - ratio) <= tol:
            held += 1
            if held > K:
                return u, _log_root(a, math.log(r))
        else:
            ratio, tol, held = r, 4.0 * math.ulp(r), 0
    return u, None


def _rest(last, n, lg, x):
    """sum_{j=1..n} last g^j e^{(n+1-j)x}, lg = log g: Q_L's tilted sum
    past a settled u_{M-1} = last, n = L - M terms of ratio e^{lg - x},
    summed in closed form from its largest term."""
    w = abs(lg - x)
    big = last * _exp(max(lg + n * x, n * lg + x))
    return big * (math.expm1(-n * w) / math.expm1(-w) if w else n)


def _q_top(model):
    """Q_L by the band; inf beyond double range.  The list loop runs it
    while numpy is not loaded, and the kernels' blocked loop, to L, once
    numpy is loaded."""
    L = _solvable_level(model)
    a, x, r0 = _band(model, L)
    if _numpy_loaded():
        from . import kernels
        u, lg = kernels.busy_period_recurrence(a, L, x)[0][:L].tolist(), None
    else:
        u, lg = _renewal(a, L)
    # with u the tilted sequence, Q_L e^{Lx} = sum_{m<L} u_m e^{(L-m)x} / r_0
    terms = [v * math.exp((L - m) * x) for m, v in enumerate(u)] if x else u
    if lg is not None:
        terms.append(_rest(u[-1], L - len(u), lg, x))
    q = _finite_q(math.fsum(terms) / r0)
    return q * _exp(-L * x)


def busy_period_counts(model):
    """Vector (Q_0, ..., Q_L); entries beyond double range come back as inf."""
    import numpy as np
    from . import kernels

    L = _solvable_level(model)
    a, x, r0 = _band(model, L)
    u, scales = kernels.busy_period_recurrence(a, L, x)
    with np.errstate(over="ignore"):
        return np.append(1.0, np.cumsum(u[:-1] * np.exp(scales[:-1])) / r0)


def _probs(model, inv_q):
    """(p1, p2) from 1/Q_L by the renewal-reward closed forms."""
    rho1, rho2 = model.rho1, model.rho2
    denom = inv_q + (rho1 - rho2)
    p1 = (1.0 - rho2) * inv_q / denom
    p2 = (rho2 * inv_q + rho2 * (rho1 - 1.0)) / denom
    # deep subcritical: the numerator of p2 cancels to round-off and can come
    # out a hair negative; the true value is a nonnegative probability
    return p1, max(p2, 0.0)


def _level_cost(model, costs, p1, p2):
    return model.level * (costs.j1 * p1 + costs.j2 * p2)


def busy_period_metrics(model):
    """Busy-period expectations via Wald identities; e_nu1 = Q_L."""
    e_nu1 = _q_top(model)
    rho1, rho2 = model.rho1, model.rho2
    e_nu2 = 1.0 / (1.0 - rho2) - (1.0 - rho1) / (1.0 - rho2) * e_nu1
    e_t1 = model.b1.mean() * e_nu1
    e_t2 = model.b2.mean() * e_nu2
    return BusyPeriodMetrics(
        e_nu1=e_nu1, e_nu2=e_nu2, e_t1=e_t1, e_t2=e_t2,
        e_t=e_t1 + e_t2, e_idle=1.0 / model.lam)


def stationary_probs(model):
    """(p1, p2) from the renewal-reward closed forms."""
    return _probs(model, 1.0 / _q_top(model))


def cost(model, costs):
    """Long-run average damage cost J(L) = L * (j1 * p1 + j2 * p2)."""
    p1, p2 = stationary_probs(model)
    return _level_cost(model, costs, p1, p2)


def solve(model, costs=None):
    """Busy-period metrics, (p1, p2) and, given costs, J(L) from one Q_L.

    The one recurrence runs inside `busy_period_metrics`, so a wrapper of
    that entry point (perfbench/launcher.py) sees the solve; p1 and p2
    then follow from e_nu1 = Q_L, which is inf only where 1/Q_L is 0.
    """
    busy = busy_period_metrics(model)
    p1, p2 = _probs(model, 1.0 / busy.e_nu1)
    cost_l = None if costs is None else _level_cost(model, costs, p1, p2)
    return ExactSolution(busy=busy, p1=p1, p2=p2, cost=cost_l)
