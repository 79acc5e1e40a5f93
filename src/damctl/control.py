"""Release-rate control: regime classification and cost minimization.

The sign of j1 - j2 * rho2 / (1 - rho2) decides the regime:

  * equality       -> critical: the optimum is rho1 = 1 (C = 0),
  * j1 greater     -> upper-penalized: minimize J_upper over C >= 0,
  * j1 smaller     -> lower-penalized: minimize J_lower over C >= 0.

Both optimizers run one Brent search (parabolic interpolation, golden
section where that stalls) over an interval and also price its two ends:
`optimize_asymptotic` minimizes the limiting functional, which is convex
in C > 0, over [0, hi], where hi starts at
min(c_max, 10 rho12_tilde) and doubles, up to c_max, while the cost still
falls from hi/2 to hi (in the lower regime C stays below L, so that
rho1 = 1 - C/L > 0); `optimize_exact` minimizes the exact finite-L cost
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
    "brent_minimize",
]

REGIME_CRITICAL = "critical"
REGIME_UPPER = "upper_penalized"
REGIME_LOWER = "lower_penalized"

_EQ_RTOL = 1e-9
# the golden section step, as a share of the longer side of the bracket
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0
# a step below a few ulps of x would price x again
_ULPS = 16.0 * 2.0 ** -52


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


def brent_minimize(f, a, b, tol):
    """(x, f(x)) at the minimum of f on [a, b], by Brent's method.

    Parabolic interpolation through the three best points, with a golden
    section step wherever the parabola would leave the bracket or not
    shrink it fast enough (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5; `fmin` of Forsythe, Malcolm & Moler, 1977).
    It stops once x lies within tol / 2 (and a few ulps) of both ends of
    the bracket, as golden section's bracket of tol would place it, and
    returns the best point evaluated, which lies strictly inside (a, b).
    """
    v = w = x = a + _GOLDEN_STEP * (b - a)
    fv = fw = fx = f(x)
    d = e = 0.0
    while True:
        xm = a + 0.5 * (b - a)
        tol1 = tol / 4.0 + _ULPS * abs(x)
        if max(x - a, b - x) <= 2.0 * tol1:
            return x, fx
        parabolic = False
        if abs(e) > tol1:
            # the vertex of the parabola through v, w and x is x + p / q;
            # take it inside the bracket, if under half the step before last
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            parabolic = (abs(p) < abs(0.5 * q * e)
                         and q * (a - x) < p < q * (b - x))
            e = d
        if parabolic:
            d = p / q
            if min(x + d - a, b - (x + d)) < 2.0 * tol1:
                d = math.copysign(tol1, xm - x)
        else:
            e = (b if x < xm else a) - x
            d = _GOLDEN_STEP * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _brent_and_ends(f, lo, hi, tol):
    """(x, f(x)) at the minimum of f on [lo, hi].

    Brent's search never prices lo or hi, so both are priced too, and an end
    wins a tie.  An end is the minimum where f is monotone, and C = 0 can be
    where f is not continuous: the literal J_lower diverges as C -> 0+, and
    its value at C = 0 is the critical-regime cost.  A zero-width interval
    is priced once.
    """
    if lo == hi:
        return lo, f(lo)
    ends = (f(lo), lo), (f(hi), hi)
    x, fx = brent_minimize(f, lo, hi, tol)
    fx, x = min(*ends, (fx, x), key=lambda p: p[0])
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
            # rho1 = 1 - C/L must stay positive: C < L
            c_max = min(c_max, math.nextafter(float(level), 0.0))
        # the limiting cost is convex in C > 0, so its minimum lies in
        # [0, hi] once the cost no longer falls from hi/2 to hi; the search
        # starts from the default c_max, whose answer a larger c_max keeps
        hi = min(c_max, default_c_max)
        while hi < c_max and f(hi) < f(hi / 2.0):
            hi = min(2.0 * hi, c_max)
        c_star, predicted = _brent_and_ends(f, 0.0, hi, 1e-8)

    sign = {REGIME_CRITICAL: 0.0, REGIME_UPPER: 1.0, REGIME_LOWER: -1.0}[regime]
    delta = sign * c_star / level + 0.0  # -0.0 + 0.0 is +0.0: no drift
    rho1 = 1.0 + delta
    return ControlSolution(regime=regime, c_star=c_star, delta_star=delta,
                           rho1_star=rho1, b1_star=rho1 / lam,
                           predicted_cost=predicted, mode="asymptotic")


def optimize_exact(lam, shape, b2, level, costs, rho1_range=(0.5, 1.5)):
    """Minimize the exact finite-L cost over rho1 within the given range.

    `shape` fixes the family of the normal-regime law; each candidate rho1
    is realized by rescaling it to mean rho1 / lam.  Brent's search over
    the whole range, to a tolerance of 1e-7 in rho1, plus its two ends,
    prices each point with one `exact.cost`: about 17 solves where golden
    section took 39.  The exact cost has one minimum in rho1
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

    rho1_star, predicted = _brent_and_ends(
        lambda rho1: exact.cost(model(rho1), costs), lo, hi, 1e-7)
    delta = rho1_star - 1.0
    return ControlSolution(regime=regime, c_star=level * abs(delta),
                           delta_star=delta,
                           rho1_star=rho1_star, b1_star=rho1_star / lam,
                           predicted_cost=predicted, mode="exact")
