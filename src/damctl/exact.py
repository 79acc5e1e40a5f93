"""Exact finite-threshold analysis of the state-dependent M/GI/1 dam.

The expected number of below-threshold services per busy period, Q_L, is
the coefficient of z^L in r(z) / (r(z) - z), with r_j the arrival-count
weights of the normal-regime service law.  Since r(z) - z = (1 - z) r_0
(1 - A(z)), with increments a_k = T_k / r_0 and T_k = sum_{j>k} r_j, and
the renewal sequence u of a has U(z) (1 - A(z)) = 1, Q_0 = 1 and Q_n =
sum_{m<n} u_m / r_0: a partial sum of u, which the kernels' renewal loop,
in which nothing cancels, computes.  The remaining busy-period quantities
follow from Wald identities, and the stationary probabilities p1 (idle /
lower passage) and p2 (above-threshold occupation) from the renewal reward
theorem.

Q_L has three routes, chosen in `_q_top` alone by one rule.  While numpy
is not loaded, a law that lists its phases (`phases(MAX_PHASES)`: exp,
Erlang and hyperexponential laws of at most MAX_PHASES phases) runs the
phase route at any L up to MAX_LEVEL, and any other law runs the banded
route on Python floats while its band's work, L K multiply-adds, is at
most _PYTHON_MAX_WORK.  Everywhere else Q_L imports numpy and runs the
kernels' blocked loop; so does a model whose weights run past
_PYTHON_MAX_WEIGHTS before its band is found (a slow gamma tail).

The phase route.  A phase-type law's renewal sequence u also follows a
d-dimensional linear filter with nonnegative coefficients (Neuts,
Matrix-Geometric Solutions in Stochastic Models, 1981; Latouche and
Ramaswami, 1999, ch. 2), so Q_L costs O(L d) on Python floats, with no
weights, truncation or tilt: about (0.45 + 0.12 d) us a step, 2-3 ms at
L = 4000 for d <= 3.  MAX_PHASES is where it stops paying: whole
`optimize --mode exact` processes (about 17 solves, the command that
solves most often) on Erlang(d) laws, fresh, medians of 3-5 against numpy
imported first, took 0.10 against 0.13 s at d = 8 and L = 2000, 0.24
against 0.24 s at L = 4000, 0.27 against 0.33 s at L = 8000 and 0.60
against 0.88 s at L = 16000; at d = 10 they tied at L = 8000 and 16000,
and at d = 12 numpy was the faster at L = 4000-16000.

The banded route runs the numpy route's algorithm on Python floats, lists
and `math`: the same log-domain weights, increments and tilt, and the same
errors, with one cut.  The increments a_k fall geometrically past their
mode (by about 0.3 a step for gamma(2.5), faster for det's Poisson tail),
so the renewal loop reads only a_1..a_K, the band: K is the least index
past which the tilted increments sum to at most 2^-60 / L of all of them,
and only as many weights are read as that cut needs.  The loop is then
L K multiply-adds, about 25 ns each with every u_m correctly rounded
(`math.fsum`), and K is 16-21 for det laws, 28-56 for gamma(1.5-2.5) and
about 470-490 for gamma(0.1) at L = 4000 (det 5-8 ms, gamma(2.5)
8-13 ms, where numpy takes 3-4.5 ms).
_PYTHON_MAX_WORK sits between the crossovers of the two commands: fresh
processes on a 2-vCPU x86_64 VM, Python 3.11, gamma(0.1) laws, medians
of 11 of the banded route against numpy imported first.  A single
`analyze` took 68 against 127 ms at L = 1000 (K L = 0.45M), 87 against
116 ms at 2000 (0.95M), 102 against 117 ms at 3000 and 129 against
130 ms at 4000 (1.9M): it pays up to about 2M.  The ~17 solves of
`optimize --mode exact` took 127 against 170 ms at L = 250 (K = L, 62k
a solve), 151 against 170 ms at 350 (0.12M), 212 against 171 ms at 500
(0.22M) and 308 against 173 ms at 700 (0.31M): they pay up to about
0.17M.  At 2^18 the slower choice costs either command at most about
1.4-1.8 times the faster, and every gamma law of shape 1.5 or more
(K L <= 0.23M) and every det law takes the band up to L = 4000.

The rule reads sys.modules for two reasons.  Once numpy is loaded its route
is the faster per solve up to L = 4000 or so (0.2-0.3 ms against 0.5-0.7 ms
on the band at L = 200).  And a caller
that loaded numpy for its own use sees every solve go through the kernels:
perfbench/launcher.py loads them to wrap kernels.busy_period_recurrence.
The three routes agree to 1e-12 relative in Q_L (tests/test_routes.py);
a change to the exact numerics must land on all of them.
"""

import math
import operator
import sys
from bisect import bisect_right
from collections import deque
from itertools import accumulate

from ._record import Record
from .asymptotics import _exp
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

# the largest threshold L solved: numpy's recurrence is O(L^2) and takes
# 0.4 s at L = 64,000, so minutes at 2^20 (the phase route is O(L d), and
# the banded route runs only up to _PYTHON_MAX_WORK)
MAX_LEVEL = 1 << 20

# the weights left out past r_N, relative to T_L; and, over L, the
# increments the banded route leaves out, relative to all of them
_TAIL = 2.0 ** -60

# weights summed before a slow tail is taken as one remainder term: gamma
# laws of shape 1e-4 and 1e-8 need 614,401 and billions of them
_MAX_WEIGHTS = 1 << 20

# the most multiply-adds, L K, of a renewal loop run on Python floats while
# numpy is not loaded; the weights that route reads first, and the most it
# reads before it hands the model to numpy
_PYTHON_MAX_WORK = 1 << 18
_PYTHON_FIRST_WEIGHTS = 1 << 9
_PYTHON_MAX_WEIGHTS = 1 << 12

# the most phases of a law whose Q_L runs by its phases while numpy is not
# loaded, at any L up to MAX_LEVEL
MAX_PHASES = 8


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


def _weights(model, n):
    """r_0..r_n of the normal-regime law, refusing an underflowing r_0."""
    r = model.b1.mixed_poisson_weights(model.lam, n)
    _check_r0(r[0], model)
    return r


def _enough(r, L, total):
    """Whether r_0..r_N leave out weights that sum to below _TAIL * T_L
    (only a T_L below 1/2 is read from the tail); total sums a slice.

    The left-out sum is estimated as r_N q / (1 - q), q = r_N / r_{N-1}:
    every family's weights fall monotonically past their mode.
    """
    last = r[-1]
    if last == 0.0 or total(r[:L + 1]) <= 0.5:
        return True
    q = last / r[-2]
    return q < 1.0 and last * q / (1.0 - q) <= _TAIL * total(r[L + 1:])


def _series(model):
    """r_0..r_N, N doubled from 2L + 200 until `_enough`."""
    import numpy as np

    L = int(model.level)
    n = 2 * L + 200
    while True:
        r = _weights(model, n)
        if _enough(r, L, np.sum):
            return r
        if n >= _MAX_WEIGHTS:
            # a tail too long to sum: the weights past r_n enter as one
            # term, 1 - sum(r), good to about 1e-16 / T_L relative
            return np.append(r, max(1.0 - r.sum(), 0.0))
        n *= 2


def _counts(model):
    """(u, r_0, scales): the renewal sequence u tilted by the recurrence's
    x, so that Q_n = sum_{m<n} u[m] exp(scales[m]) / r_0 for n >= 1."""
    import numpy as np
    from . import kernels

    L = _solvable_level(model)
    r = _series(model)
    # the increments a_k = T_k / r_0: T_k = 1 - sum_{j<=k} r_j is exact
    # enough while it is at least 1/2; below that the tail sum, added from
    # its small end, keeps its relative accuracy
    head = 1.0 - np.cumsum(r[:L + 1])[1:]
    tail = np.cumsum(r[:1:-1])[::-1][:L]
    u, scales = kernels.busy_period_recurrence(
        np.where(head >= 0.5, head, tail) / r[0], L)
    return u, float(r[0]), scales


def busy_period_counts(model):
    """Vector (Q_0, ..., Q_L); entries beyond double range come back as inf."""
    import numpy as np

    u, r0, scales = _counts(model)
    with np.errstate(over="ignore"):
        return np.append(1.0, np.cumsum(u[:-1] * np.exp(scales[:-1])) / r0)


def _finite_q(q):
    if not math.isfinite(q):
        raise NumericDegeneracyError(
            "the busy-period recurrence gave a non-finite Q_L")
    return q


def _numpy_q_top(model):
    """Q_L by the kernels' blocked recurrence; inf beyond double range."""
    import numpy as np

    u, r0, scales = _counts(model)
    q = _finite_q(float(np.dot(u[:-1], np.exp(-scales[:0:-1]))) / r0)
    with np.errstate(over="ignore"):
        return q * float(np.exp(scales[-1]))


# --- the same Q_L on Python floats, lists and `math` alone, banded ---

def _python_increments(r, L):
    """(a, unseen): the increments a_1..a_m as `_counts` builds them, m =
    min(L, N - 1) from r_0..r_N, and an estimate of a_{m+1} + ... + a_L,
    which the weights read do not give: inf while the weights still rise.

    Past r_N the weights are taken to fall geometrically, as `_enough`
    takes them, by q = r_N / r_{N-1}, so that sum_{k>=N} T_k =
    sum_{j>N} (j - N) r_j is r_N q / (1 - q)^2.
    """
    m = min(L, len(r) - 2)
    # 1 - sum_{j<=k} r_j, else sum_{j>k} r_j, for k = 1..m
    head = list(accumulate(r[:m + 1]))[1:]
    tail = list(accumulate(reversed(r[2:])))[::-1]
    a = [(1.0 - h if 1.0 - h >= 0.5 else t) / r[0]
         for h, t in zip(head, tail)]
    last = r[-1]
    if m == L or last == 0.0:
        return a, 0.0
    q = last / r[-2]
    if not q < 1.0:
        return a, math.inf
    return a, last * q / (1.0 - q) ** 2 / r[0]


def _band(a, budget):
    """The least K with a_{K+1} + a_{K+2} + ... <= budget, the tail summed
    from its small end; len(a) where there is none."""
    return len(a) - bisect_right(list(accumulate(reversed(a))), budget)


def _python_band(model, L):
    """(a, x, r_0): the increments a_1..a_K, tilted by x, or None where
    the weights run past _PYTHON_MAX_WEIGHTS before the band K is found.

    K is the least index for which the increments past it, read or not,
    sum to at most _TAIL / L of all of them, each tilted by e^{kx}; and the
    weights read give a_1..a_K to _TAIL relative (`_enough`).  x is the
    tilt of the increments kept untilted by the same rule, and the tilted
    increments past that first cut are bounded by their untilted sum times
    the largest e^{kx} among them.
    """
    n = min(2 * L + 200, _PYTHON_FIRST_WEIGHTS)
    while n <= _PYTHON_MAX_WEIGHTS:
        r = model.b1.mixed_poisson_weight_list(model.lam, n)
        _check_r0(r[0], model)
        a, unseen = _python_increments(r, L)
        total = sum(a)
        # where the untilted sum is above 1, the tilted one is 1
        budget = _TAIL / L * min(total, 1.0) - unseen
        if budget >= 0.0:
            K = _band(a, budget)
            if _enough(r, K, sum):
                if total <= 1.0:
                    return a[:K], 0.0, r[0]
                x = _python_tilt(a[:K])
                past = (sum(a[K:]) + unseen) * math.exp((K + 1) * x)
                a = [v * math.exp(k * x) for k, v in enumerate(a[:K], 1)]
                return a[:_band(a, _TAIL / L * sum(a) - past)], x, r[0]
        n *= 2
    return None


def _python_tilt(a):
    """`kernels._tilt` on Python floats: the x < 0 with
    sum_k a_k e^{kx} = 1, given the increments a_1..a_K."""
    log_a = [math.log(v) if v > 0.0 else -math.inf for v in a]
    k = range(1, len(a) + 1)
    x = 0.0
    while True:
        e = [v + i * x for i, v in zip(k, log_a)]
        top = max(e)
        w = [math.exp(v - top) for v in e]
        total = sum(w)
        step = (top + math.log(total)) * total / sum(map(operator.mul, k, w))
        if not x - step < x:
            return x
        x -= step


def _python_renewal(a, L):
    """u_0, ..., u_{L-1} of the increments a_1..a_K: the kernels' renewal
    loop cut at the band, u_m = sum_{k<=min(m, K)} a_k u_{m-k}, from a
    history of the K newest entries.  Each u_m is its sum correctly
    rounded: near rho1 = 1 u settles to a constant, and a plain sum's
    rounding then recurs at every step, 1.3e-12 in Q_L at L = 4000."""
    history = deque([1.0], maxlen=len(a))
    u = [1.0]
    for _ in range(L - 1):
        history.appendleft(math.fsum(map(operator.mul, a, history)))
        u.append(history[0])
    return u


def _python_q_top(model):
    """Q_L as `_numpy_q_top` gives it, or None to hand the model over:
    where the weights run past _PYTHON_MAX_WEIGHTS, or the band's L K
    multiply-adds past _PYTHON_MAX_WORK."""
    L = _solvable_level(model)
    band = _python_band(model, L)
    if band is None or L * len(band[0]) > _PYTHON_MAX_WORK:
        return None
    a, x, r0 = band
    u = _python_renewal(a, L)
    # with u the tilted sequence, Q_L e^{Lx} = sum_{m<L} u_m e^{(L-m)x} / r_0
    tilt = [math.exp(k * x) for k in range(L, 0, -1)]
    q = _finite_q(math.fsum(map(operator.mul, u, tilt)) / r0)
    return q * _exp(-L * x)


# --- Q_L of a phase-type law by its d-dimensional filter, O(L d) ---

def _substitute(terms, move):
    """y_i = terms_i + move_i y_{i+1}, lists from the last phase to the
    first: the back substitution that solves (lam I - T) y = D terms, with
    T the law's upper-bidiagonal sub-generator and D = diag(lam + mu_i)."""
    y, out = 0.0, []
    for t, b in zip(terms, move):
        y = t + b * y
        out.append(y)
    return out


def _phase_q_top(model):
    """Q_L from the law's phases, or None for a law that is not phase-type
    or has more than MAX_PHASES; inf beyond double range.

    With T the sub-generator, t = -T 1 its exit rates and R = lam (lam I -
    T)^-1, the weights are r_j = alpha R^j h, h = (lam I - T)^-1 t, and
    R 1 + h = 1, so a_k = alpha R^k v with v = R 1 / r_0.  The renewal
    sequence is then u_0 = 1 and u_m = alpha s_m, s_1 = R v, s_{m+1} =
    R (s_m + v u_m): the same u as the renewal loop, from nonnegative terms
    alone, without weights, truncation or tilt.
    """
    phases = model.b1.phases(MAX_PHASES)
    if phases is None:
        return None
    L = _solvable_level(model)
    lam = model.lam
    alpha, rates, onward = (p[::-1] for p in phases)
    keep = [lam / (lam + mu) for mu in rates]
    move = [c * mu / (lam + mu) for c, mu in zip(onward, rates)]
    h = _substitute([(1.0 - c) * mu / (lam + mu)
                     for c, mu in zip(onward, rates)], move)
    r0 = sum(map(operator.mul, alpha, h))
    _check_r0(r0, model)
    v = [w / r0 for w in _substitute(keep, move)]
    s = _substitute(list(map(operator.mul, keep, v)), move)
    u = sum(map(operator.mul, alpha, s))
    # total = u_0 + ... + u_{m-1}, and s_m <= max(v) total since R 1 <= 1;
    # so while total <= limit no step leaves double range.  Past it, total,
    # s and u are scaled by 2^-e, exactly, and e is added to shift.
    limit = math.ldexp(1.0, 1020 - 2 * math.frexp(1.0 + max(v))[1])
    total, shift = 1.0, 0
    for _ in range(L - 1):
        if total > limit:
            e = math.frexp(total / limit)[1]
            total, u = math.ldexp(total, -e), math.ldexp(u, -e)
            s = [math.ldexp(x, -e) for x in s]
            shift += e
        total += u
        # s = R (s + v u) by the substitution, and u = alpha s beside it
        y = u_next = 0.0
        s_next = []
        for k, b, x, w, a in zip(keep, move, s, v, alpha):
            y = k * (x + w * u) + b * y
            u_next += a * y
            s_next.append(y)
        s, u = s_next, u_next
    frac, e = math.frexp(total)
    q = _finite_q(frac / r0)
    try:
        return math.ldexp(q, e + shift)
    except OverflowError:
        return math.inf


def _q_top(model):
    """Q_L; inf beyond double range.  The one choice of route: while numpy
    is not loaded, a law of at most MAX_PHASES phases by its phases, any
    other by its band on Python floats up to _PYTHON_MAX_WORK; else
    numpy."""
    if "numpy" not in sys.modules:
        q = _phase_q_top(model)
        if q is None:
            q = _python_q_top(model)
        if q is not None:
            return q
    return _numpy_q_top(model)


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
