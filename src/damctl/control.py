"""Release-rate control: regime classification and cost minimization.

The sign of j1 - j2 * rho2 / (1 - rho2) decides the regime:

  * equality       -> critical: the optimum is rho1 = 1 (C = 0),
  * j1 greater     -> upper-penalized: minimize J_upper over C >= 0,
  * j1 smaller     -> lower-penalized: minimize J_lower over C >= 0.

Both optimizers run one golden-section search over an interval and also
price its two ends: `optimize_asymptotic` minimizes the limiting
functional, which is convex in C > 0, over [0, hi], where hi starts at
min(c_max, 10 rho12_tilde) and doubles, up to c_max, while the cost still
falls from hi/2 to hi; `optimize_exact` minimizes the exact finite-L cost
over the whole rho1 range, as a cross-check of the asymptotic answer.
"""

import math

from . import asymptotics
from ._record import Record
from .model import DamModel

__all__ = [
    "ControlSolution",
    "classify_regime",
    "optimize_asymptotic",
    "optimize_exact",
    "golden_section",
]

REGIME_CRITICAL = "critical"
REGIME_UPPER = "upper_penalized"
REGIME_LOWER = "lower_penalized"

_EQ_RTOL = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class ControlSolution(Record):
    regime: str
    c_star: float
    delta_star: float
    rho1_star: float
    b1_star: float
    predicted_cost: float
    mode: str


def classify_regime(costs, rho2):
    """Trichotomy on j1 vs j2 * rho2 / (1 - rho2)."""
    if not 0 < rho2 < 1:
        raise ValueError("rho2 must lie in (0, 1)")
    pivot = costs.j2 * rho2 / (1.0 - rho2)
    scale = max(abs(costs.j1), abs(pivot), 1e-300)
    if abs(costs.j1 - pivot) <= _EQ_RTOL * scale:
        return REGIME_CRITICAL
    return REGIME_UPPER if costs.j1 > pivot else REGIME_LOWER


def golden_section(f, a, b, tol):
    """Golden-section search for the minimum of a unimodal f on [a, b]."""
    lo, hi = (a, b) if a <= b else (b, a)
    # a bracket a few ulps wide stops shrinking, so tol never goes below that
    tol = max(tol, 16.0 * math.ulp(max(abs(lo), abs(hi))))
    h = hi - lo
    if h <= tol:
        return 0.5 * (lo + hi)
    c = hi - _INV_PHI * h
    d = lo + _INV_PHI * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            h = hi - lo
            c = hi - _INV_PHI * h
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            h = hi - lo
            d = lo + _INV_PHI * h
            fd = f(d)
    return 0.5 * (lo + hi)


def _golden_and_ends(f, lo, hi, tol):
    """(x, f(x)) at the minimum of f on [lo, hi].

    Golden section never prices lo or hi, so both are priced too, and an end
    wins a tie.  An end is the minimum where f is monotone, and C = 0 can be
    where f is not continuous: the literal J_lower diverges as C -> 0+, and
    its value at C = 0 is the critical-regime cost.
    """
    x = golden_section(f, lo, hi, tol)
    fx, x = min((f(lo), lo), (f(hi), hi), (f(x), x), key=lambda p: p[0])
    return x, fx


def optimize_asymptotic(costs, rho2, rho12t, level, lam=1.0, c_max=None):
    """Minimize the limiting cost over C; returns the full recommendation."""
    if level < 1:
        raise ValueError("level must be >= 1")
    regime = classify_regime(costs, rho2)
    default_c_max = 10.0 * rho12t
    if c_max is None:
        c_max = default_c_max
    if not (math.isfinite(c_max) and c_max >= 0):
        raise ValueError("c_max must be finite and >= 0, got %r" % (c_max,))

    if regime == REGIME_CRITICAL:
        c_star = 0.0
        predicted = asymptotics.j_upper(0.0, rho12t, rho2, costs)
    else:
        if regime == REGIME_UPPER:
            def f(c):
                return asymptotics.j_upper(c, rho12t, rho2, costs)
        else:
            def f(c):
                return asymptotics.j_lower(c, rho12t, rho2, costs)
        # the limiting cost is convex in C > 0, so its minimum lies in
        # [0, hi] once the cost no longer falls from hi/2 to hi; the search
        # starts from the default c_max, whose answer a larger c_max keeps
        hi = min(c_max, default_c_max)
        while hi < c_max and f(hi) < f(hi / 2.0):
            hi = min(2.0 * hi, c_max)
        c_star, predicted = _golden_and_ends(f, 0.0, hi, 1e-8)

    sign = {REGIME_CRITICAL: 0.0, REGIME_UPPER: 1.0, REGIME_LOWER: -1.0}[regime]
    delta = sign * c_star / level
    rho1 = 1.0 + delta
    return ControlSolution(regime=regime, c_star=c_star, delta_star=delta,
                           rho1_star=rho1, b1_star=rho1 / lam,
                           predicted_cost=predicted, mode="asymptotic")


def optimize_exact(lam, shape, b2, level, costs, rho1_range=(0.5, 1.5)):
    """Minimize the exact finite-L cost over rho1 within the given range.

    `shape` fixes the family of the normal-regime law; each candidate rho1
    is realized by rescaling it to mean rho1 / lam.  Golden-section search
    over the whole range, down to a bracket of 1e-7 in rho1, plus its two
    ends, prices each point with one `exact.cost`; the exact cost has one
    minimum in rho1
    (tests/test_control.py and tests/test_properties.py scan for others).
    """
    lo, hi = rho1_range
    if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo < hi):
        raise ValueError("rho1_range must satisfy 0 < lo < hi < inf, got %r"
                         % (rho1_range,))
    regime = classify_regime(costs, lam * b2.mean())
    from . import exact

    def model(rho1):
        return DamModel(lam=lam, b1=shape.scale_to_mean(rho1 / lam),
                        b2=b2, level=level)

    rho1_star, predicted = _golden_and_ends(
        lambda rho1: exact.cost(model(rho1), costs), lo, hi, 1e-7)
    delta = rho1_star - 1.0
    return ControlSolution(regime=regime, c_star=level * abs(delta),
                           delta_star=delta,
                           rho1_star=rho1_star, b1_star=rho1_star / lam,
                           predicted_cost=predicted, mode="exact")
