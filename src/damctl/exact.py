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
"""

import math

import numpy as np

from ._record import Record
from .errors import NumericDegeneracyError
from .model import CostModel, DamModel  # re-exported as exact.DamModel etc.
from . import kernels

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


def _weights(model, n):
    """r_0..r_n of the normal-regime law, refusing an underflowing r_0."""
    r = model.b1.mixed_poisson_weights(model.lam, n)
    if r[0] < _R0_FLOOR:
        raise NumericDegeneracyError(
            "r_0 = %g underflows; the normal-regime service law puts its mass "
            "too far from the origin for arrival rate %g" % (r[0], model.lam))
    return r


def _series(model):
    """r_0..r_N, N doubled from 2L + 200 until the weights left out sum
    to below _TAIL * T_L (only a T_L below 1/2 is read from the tail).

    The left-out sum is estimated as r_N q / (1 - q), q = r_N / r_{N-1}:
    every family's weights fall monotonically past their mode.
    """
    L = int(model.level)
    n = 2 * L + 200
    while True:
        r = _weights(model, n)
        last = r[-1]
        if last == 0.0 or r[:L + 1].sum() <= 0.5:
            return r
        q = last / r[-2]
        if q < 1.0 and last * q / (1.0 - q) <= _TAIL * r[L + 1:].sum():
            return r
        if n >= _MAX_WEIGHTS:
            # a tail too long to sum: the weights past r_n enter as one
            # term, 1 - sum(r), good to about 1e-16 / T_L relative
            return np.append(r, max(1.0 - r.sum(), 0.0))
        n *= 2


def _counts(model):
    """(u, r_0, scales): the renewal sequence u tilted by the recurrence's
    x, so that Q_n = sum_{m<n} u[m] exp(scales[m]) / r_0 for n >= 1."""
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
    u, r0, scales = _counts(model)
    with np.errstate(over="ignore"):
        return np.append(1.0, np.cumsum(u[:-1] * np.exp(scales[:-1])) / r0)


def _q_top(model):
    """Q_L; inf beyond double range."""
    u, r0, scales = _counts(model)
    q = float(np.dot(u[:-1], np.exp(-scales[:0:-1]))) / r0
    if not math.isfinite(q):
        raise NumericDegeneracyError(
            "the busy-period recurrence gave a non-finite Q_L")
    with np.errstate(over="ignore"):
        return q * float(np.exp(scales[-1]))


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
