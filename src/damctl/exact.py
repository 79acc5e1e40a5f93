"""Exact finite-threshold analysis of the state-dependent M/GI/1 dam.

The expected number of below-threshold services per busy period, Q_L, is
computed from the convolution recurrence

    Q_0 = 1,   Q_{n+1} = (Q_n - sum_{j=1..n} r_j Q_{n-j+1}) / r_0,

with r_j the arrival-count weights of the normal-regime service law.  The
remaining busy-period quantities follow from Wald identities, and the
stationary probabilities p1 (idle / lower passage) and p2 (above-threshold
occupation) from the renewal reward theorem.
"""

from dataclasses import dataclass
import math
import os

import numpy as np

from .errors import NumericDegeneracyError
from .model import CostModel, DamModel  # re-exported as exact.DamModel etc.
from . import kernels

__all__ = [
    "DamModel",
    "CostModel",
    "BusyPeriodMetrics",
    "ExactSolution",
    "busy_period_counts",
    "gf_coefficients",
    "solve",
    "busy_period_metrics",
    "stationary_probs",
    "cost",
    "cost_batch",
]

PRECISION_ENV_VAR = "DAMCTL_PRECISION"

_R0_FLOOR = 1e-300


@dataclass(frozen=True)
class BusyPeriodMetrics:
    e_nu1: float
    e_nu2: float
    e_t1: float
    e_t2: float
    e_t: float
    e_idle: float


@dataclass(frozen=True)
class ExactSolution:
    """Everything one Q_L gives for a model; cost is None without costs."""
    busy: BusyPeriodMetrics
    p1: float
    p2: float
    cost: float = None


def _env_precision():
    raw = os.environ.get(PRECISION_ENV_VAR, "").strip()
    if not raw:
        return None
    digits = int(raw)
    if digits <= 0:
        raise ValueError("DAMCTL_PRECISION must be a positive digit count")
    return digits


def _weights(model, n):
    """r_0..r_n of the normal-regime law, refusing an underflowing r_0."""
    r = model.b1.mixed_poisson_weights(model.lam, n)
    if r[0] < _R0_FLOOR:
        raise NumericDegeneracyError(
            "r_0 = %g underflows; the normal-regime service law puts its mass "
            "too far from the origin for arrival rate %g" % (r[0], model.lam))
    return r


def _counts_scaled(model):
    """(mantissas, binary exponents) of Q_0..Q_L."""
    L = int(model.level)
    return kernels.busy_period_recurrence(_weights(model, max(L - 1, 0)), L)


def _counts_mp(model, digits):
    """Extended-precision recurrence via mpmath (DAMCTL_PRECISION path)."""
    import mpmath

    L = int(model.level)
    weights = _weights(model, max(L - 1, 0))
    with mpmath.workdps(digits):
        r = [mpmath.mpf(x) for x in weights]
        q = [mpmath.mpf(1)]
        for n in range(L):
            s = mpmath.fsum(r[j] * q[n - j + 1] for j in range(1, n + 1))
            q.append((q[n] - s) / r[0])
        return q


def busy_period_counts(model, precision=None):
    """Vector (Q_0, ..., Q_L); entries beyond double range come back as inf."""
    if precision is None:
        precision = _env_precision()
    if precision is not None:
        return np.array([float(x) for x in _counts_mp(model, precision)])
    q, ex = _counts_scaled(model)
    with np.errstate(over="ignore"):
        return np.ldexp(q, ex)


def gf_coefficients(model, n):
    """First n+1 series coefficients of r(z) / (r(z) - z).

    Independent second route to Q_0..Q_n: formal power-series division of
    the weight generating function by (r(z) - z).
    """
    n = int(n)
    num = _weights(model, n)
    den = num.copy()
    den[1] -= 1.0
    out = np.empty(n + 1)
    out[0] = num[0] / den[0]
    for m in range(1, n + 1):
        s = math.fsum(den[1:m + 1] * out[m - 1::-1])
        out[m] = (num[m] - s) / den[0]
    return out


def _check_tops(mantissas):
    """Refuse a Q_L whose mantissa is inf or NaN rather than report it."""
    if not np.isfinite(mantissas).all():
        raise NumericDegeneracyError(
            "the busy-period recurrence gave a non-finite Q_L mantissa")


def _q_top(model, precision=None):
    """Q_L as a (mantissa, binary exponent) pair."""
    if precision is None:
        precision = _env_precision()
    if precision is not None:
        import mpmath
        q = _counts_mp(model, precision)[-1]
        m, e = mpmath.frexp(q)
    else:
        q, ex = _counts_scaled(model)
        m, e = q[-1], ex[-1]
    m, e = float(m), int(e)
    _check_tops(m)
    return m, e


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


def busy_period_metrics(model, precision=None):
    """Busy-period expectations via Wald identities; e_nu1 = Q_L."""
    m, e = _q_top(model, precision=precision)
    try:
        e_nu1 = math.ldexp(m, e)
    except OverflowError:
        e_nu1 = math.inf
    rho1, rho2 = model.rho1, model.rho2
    e_nu2 = 1.0 / (1.0 - rho2) - (1.0 - rho1) / (1.0 - rho2) * e_nu1
    e_t1 = model.b1.mean() * e_nu1
    e_t2 = model.b2.mean() * e_nu2
    return BusyPeriodMetrics(
        e_nu1=e_nu1, e_nu2=e_nu2, e_t1=e_t1, e_t2=e_t2,
        e_t=e_t1 + e_t2, e_idle=1.0 / model.lam)


def stationary_probs(model, precision=None):
    """(p1, p2) from the renewal-reward closed forms."""
    m, e = _q_top(model, precision=precision)
    # work with 1/Q_L so that supercritical growth cannot overflow
    return _probs(model, math.ldexp(1.0 / m, -e))


def cost(model, costs, precision=None):
    """Long-run average damage cost J(L) = L * (j1 * p1 + j2 * p2)."""
    p1, p2 = stationary_probs(model, precision=precision)
    return _level_cost(model, costs, p1, p2)


def cost_batch(models, costs):
    """[cost(m, costs) for m in models] for models that share one level.

    One row-batched recurrence serves all models, and each value equals
    `cost`'s.  Under DAMCTL_PRECISION each model goes through `cost`, so
    every value comes from one route.
    """
    if _env_precision() is not None:
        return [cost(m, costs) for m in models]
    if not models:
        return []
    L = int(models[0].level)
    if any(int(m.level) != L for m in models):
        raise ValueError("cost_batch needs models that share one level")
    mant, ex = kernels.busy_period_recurrence_rows(
        [_weights(m, L - 1) for m in models], L)
    _check_tops(mant)
    return [_level_cost(m, costs, *_probs(m, math.ldexp(1.0 / q, -e)))
            for m, q, e in zip(models, mant.tolist(), ex.tolist())]


def solve(model, costs=None, precision=None):
    """Busy-period metrics, (p1, p2) and, given costs, J(L) from one Q_L.

    The one recurrence runs inside `busy_period_metrics`, so a wrapper of
    that entry point (perfbench/launcher.py) sees the solve; p1 and p2
    then follow from e_nu1 = Q_L, which is inf only where 1/Q_L is 0.
    """
    busy = busy_period_metrics(model, precision=precision)
    p1, p2 = _probs(model, 1.0 / busy.e_nu1)
    cost_l = None if costs is None else _level_cost(model, costs, p1, p2)
    return ExactSolution(busy=busy, p1=p1, p2=p2, cost=cost_l)
