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

Q_L has two routes, chosen in `_q_top` alone.  While numpy is not loaded,
a law that lists its phases (`phases(MAX_PHASES)`: exp, Erlang and
hyperexponential laws of at most MAX_PHASES phases) runs the phase route
at any L up to MAX_LEVEL; every other solve runs the band.

The phase route.  A phase-type law's renewal sequence u also follows a
d-dimensional linear filter with nonnegative coefficients (Neuts,
Matrix-Geometric Solutions in Stochastic Models, 1981; Latouche and
Ramaswami, 1999, ch. 2), so Q_L costs O(L d) on Python floats, with no
weights, truncation or tilt: about (0.45 + 0.12 d) us a step, 2-3 ms at
L = 4000 for d <= 3.  At d = MAX_PHASES the whole `optimize --mode
exact` process (about 17 solves, the command that solves most often) on
an Erlang(8) law, fresh, medians of 5 against numpy imported first and
its banded loop, took 0.17 against 0.20 s at L = 2000, 0.19 against 0.16
s at 4000 and 0.59 against 0.26 s at 16000.

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
K is 16-22 for det laws, 28-56 for gamma(1.5-2.5) and about 470-520 for
gamma(0.1) at L = 4000-64000.  The weights are one list of Python floats
(about 0.3 s a read of 2^20).  One of two loops runs the band in O(L K):
numpy's blocked loop in the kernels once numpy is loaded or where L K is
above _PYTHON_MAX_WORK, else a list loop, about 25 ns a multiply-add with
every u_m correctly rounded (`math.fsum`).
On numpy a det, gamma(2.5) or gamma(0.1) law solves in 1.3-2.4 ms at
L = 4000, 21-26 ms at 64000 and 0.35-0.44 s at 2^20.
_PYTHON_MAX_WORK sits between the crossovers of the two commands, which
`import numpy` sets: fresh processes on a 2-vCPU x86_64 VM, Python 3.11,
gamma(0.1) laws, medians of 11 of the list loop against numpy imported
first.  A single `analyze` took 68 against 127 ms at L = 1000 (K L =
0.45M), 87 against 116 ms at 2000 (0.95M), 102 against 117 ms at 3000 and
129 against 130 ms at 4000 (1.9M): it pays up to about 2M.  The ~17
solves of `optimize --mode exact` took 127 against 170 ms at L = 250
(K = L, 62k a solve), 151 against 170 ms at 350 (0.12M), 212 against 171
ms at 500 (0.22M) and 308 against 173 ms at 700 (0.31M): they pay up to
about 0.17M.  At 2^18 the slower choice costs either command at most
about 1.4-1.8 times the faster, and every gamma law of shape 1.5 or more
(K L <= 0.23M) and every det law takes the list loop up to L = 4000.

The rule reads sys.modules (`_numpy_loaded`) for two reasons.  Once numpy
is loaded its loop is the faster per solve (0.1-0.2 ms against 0.25-0.5
ms on the list loop at L = 200, for det and gamma(1.5-2.5) laws).  And a
caller that loaded numpy, as perfbench/launcher.py does to wrap
kernels.busy_period_recurrence, sees every solve go through it.  The phase
route and both loops agree to 1e-12 relative in Q_L (tests/test_routes.py);
a change to the exact numerics must land on both routes.
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

# the largest L solved: numpy's loop on a det or gamma band takes 0.4 s there
MAX_LEVEL = 1 << 20

# the weights left out past r_N, relative to T_K; and, over L, the
# increments the band leaves out, relative to all of them
_TAIL = 2.0 ** -60

# the weights read first, and the most summed before a slow tail is taken as
# one remainder term: gamma laws of shape 1e-4 and 1e-8 need 614,401 and
# billions of them
_FIRST_WEIGHTS = 1 << 7
_MAX_WEIGHTS = 1 << 20

# the most multiply-adds, L K, of the band's loop run on Python floats while
# numpy is not loaded
_PYTHON_MAX_WORK = 1 << 18

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


def _renewal(a, L):
    """u_0, ..., u_{L-1} of the band a_1..a_K on Python floats: u_m =
    sum_{k<=min(m, K)} a_k u_{m-k}, from a history of the K newest entries.
    Each u_m is its sum correctly rounded: near rho1 = 1 u settles to a
    constant, and a plain sum's rounding then recurs at every step, 1.3e-12
    in Q_L at L = 4000."""
    history = deque([1.0], maxlen=len(a))
    u = [1.0]
    for _ in range(L - 1):
        history.appendleft(math.fsum(map(operator.mul, a, history)))
        u.append(history[0])
    return u


def _band_q_top(model):
    """Q_L by the band; inf beyond double range.  The kernels' blocked loop
    runs it once numpy is loaded or past _PYTHON_MAX_WORK multiply-adds,
    and the list loop else."""
    L = _solvable_level(model)
    a, x, r0 = _band(model, L)
    if _numpy_loaded() or L * len(a) > _PYTHON_MAX_WORK:
        from . import kernels
        u = kernels.busy_period_recurrence(a, L, x)[0][:L].tolist()
    else:
        u = _renewal(a, L)
    # with u the tilted sequence, Q_L e^{Lx} = sum_{m<L} u_m e^{(L-m)x} / r_0
    if x:
        u = map(operator.mul, u, [math.exp(k * x) for k in range(L, 0, -1)])
    q = _finite_q(math.fsum(u) / r0)
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
    """Q_L; inf beyond double range.  The one choice of route: a law of at
    most MAX_PHASES phases by its phases while numpy is not loaded, else
    the band."""
    q = None if _numpy_loaded() else _phase_q_top(model)
    return _band_q_top(model) if q is None else q


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
