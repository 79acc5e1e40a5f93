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

Q_L has two routes, chosen in `_q_top` alone.  Up to L = PYTHON_MAX_LEVEL,
and while numpy is not loaded, it runs on Python floats, lists and `math`:
the same log-domain weights and truncation, increments, tilt and renewal
loop, one entry at a time (sum(map(operator.mul, a, history))), and the
same errors.  Everywhere else it imports numpy there and runs the kernels'
blocked loop; so does a model whose weights run past _PYTHON_MAX_WEIGHTS
(a slow gamma tail).  The loop is L^2/2 multiply-adds either way, about
50 ns each on Python floats, so a whole `optimize --mode exact` (39
solves) at L = 200 costs less on the interpreter than `import numpy`
(90-105 ms) alone.  Measured in fresh processes on a 2-vCPU x86_64 VM,
Python 3.11, medians of 11: at L = 256 that optimize took 0.15-0.23 s on
the Python route and 0.17-0.24 s on numpy, at L = 320 and 384 0.25 and
0.28 s against 0.23 and 0.24 s; so the crossover is near L = 256.

The rule reads sys.modules for two reasons.  Once numpy is loaded its route
is the faster per solve (0.3 ms against 1.3-2 ms at L = 200).  And a caller
that loaded numpy for its own use sees every solve go through the kernels:
perfbench/launcher.py loads them to wrap kernels.busy_period_recurrence.
The two routes agree to 1e-12 relative in Q_L (tests/test_routes.py); a
change to the exact numerics must land on both.
"""

import math
import operator
import sys
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

# the largest threshold L solved: the recurrence is O(L^2) and takes 0.4 s
# at L = 64,000, so minutes at 2^20
MAX_LEVEL = 1 << 20

# the weights left out past r_N, relative to T_L
_TAIL = 2.0 ** -60

# weights summed before a slow tail is taken as one remainder term: gamma
# laws of shape 1e-4 and 1e-8 need 614,401 and billions of them
_MAX_WEIGHTS = 1 << 20

# the largest L solved on Python floats while numpy is not loaded, and the
# most weights that route sums before it hands the model to numpy
PYTHON_MAX_LEVEL = 256
_PYTHON_MAX_WEIGHTS = 1 << 12


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

    L = int(model.level)
    if L > MAX_LEVEL:
        raise ValueError("level %d is above the largest the exact route "
                         "solves, %d" % (L, MAX_LEVEL))
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


# --- the same Q_L on Python floats, lists and `math` alone ---

def _python_series(model):
    """`_series` as a list, or None where the weights run past
    _PYTHON_MAX_WEIGHTS before they are `_enough`."""
    L = int(model.level)
    n = 2 * L + 200
    while n <= _PYTHON_MAX_WEIGHTS:
        r = model.b1.mixed_poisson_weight_list(model.lam, n)
        _check_r0(r[0], model)
        if _enough(r, L, sum):
            return r
        n *= 2
    return None


def _python_tilt(a):
    """`kernels._tilt` on Python floats: the x < 0 with
    sum_k a_k e^{kx} = 1, given the increments a_1..a_L."""
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


def _python_renewal(a):
    """u_{L-1}, ..., u_0 of the increments a_1..a_L, newest first: the
    kernels' renewal loop one entry at a time, u_m = sum_k a_k u_{m-k}."""
    history = [1.0]
    for _ in range(len(a) - 1):
        history.insert(0, sum(map(operator.mul, a, history)))
    return history


def _python_q_top(model):
    """Q_L as `_numpy_q_top` gives it, or None to hand the model over."""
    L = int(model.level)
    r = _python_series(model)
    if r is None:
        return None
    # the increments as `_counts` builds them: 1 - sum_{j<=k} r_j, else
    # sum_{j>k} r_j, for k = 1..L
    head = list(accumulate(r[:L + 1]))[1:]
    tail = list(accumulate(reversed(r[2:])))[::-1]
    a = [(1.0 - h if 1.0 - h >= 0.5 else t) / r[0]
         for h, t in zip(head, tail)]
    x = _python_tilt(a) if sum(a) > 1.0 else 0.0
    tilt = [math.exp(k * x) for k in range(1, L + 1)]
    u = _python_renewal(list(map(operator.mul, a, tilt)))
    # with u the tilted sequence, Q_L e^{Lx} = sum_{m<L} u_m e^{(L-m)x} / r_0
    q = _finite_q(sum(map(operator.mul, u, tilt)) / r[0])
    return q * _exp(-L * x)


def _q_top(model):
    """Q_L; inf beyond double range.  The one choice of route: Python
    floats up to PYTHON_MAX_LEVEL while numpy is not loaded, else numpy."""
    if int(model.level) <= PYTHON_MAX_LEVEL and "numpy" not in sys.modules:
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
