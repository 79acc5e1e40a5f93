"""Release-rate control: regime classification and cost minimization.

The sign of j1 - j2 * rho2 / (1 - rho2) decides the regime:

  * equality       -> critical: the optimum is rho1 = 1 (C = 0),
  * j1 greater     -> upper-penalized: minimize J_upper over C >= 0,
  * j1 smaller     -> lower-penalized: minimize J_lower over C >= 0.

`optimize_asymptotic` minimizes the limiting functional (coarse grid plus
golden-section refinement); `optimize_exact` minimizes the exact finite-L
cost over rho1 directly, as a cross-check of the asymptotic answer.
"""

from dataclasses import dataclass, asdict
import math

import numpy as np

from . import asymptotics
from . import exact

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


@dataclass(frozen=True)
class ControlSolution:
    regime: str
    c_star: float
    delta_star: float
    rho1_star: float
    b1_star: float
    predicted_cost: float
    mode: str

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, rec):
        return cls(**{k: rec[k] for k in
                      ("regime", "c_star", "delta_star", "rho1_star",
                       "b1_star", "predicted_cost", "mode")})


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


def _grid_then_golden(f, lo, hi, grid_points, tol):
    grid = np.linspace(lo, hi, grid_points)
    vals = np.array([f(x) for x in grid])
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    x = golden_section(f, a, b, tol)
    # keep whichever of the refined point and the coarse minimum wins
    return float(x) if f(x) <= vals[i] else float(grid[i])


def optimize_asymptotic(costs, rho2, rho12t, level, lam=1.0, c_max=None):
    """Minimize the limiting cost over C; returns the full recommendation."""
    if level < 1:
        raise ValueError("level must be >= 1")
    regime = classify_regime(costs, rho2)
    if c_max is None:
        c_max = 10.0 * rho12t
    if not math.isfinite(c_max):
        raise ValueError("c_max must be finite, got %r" % (c_max,))

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
        c_star = _grid_then_golden(f, 0.0, c_max, 256, 1e-8)
        # boundary optimum at C = 0 is legal (nondecreasing functional)
        if f(0.0) <= f(c_star):
            c_star = 0.0
        predicted = f(c_star)

    sign = {REGIME_CRITICAL: 0.0, REGIME_UPPER: 1.0, REGIME_LOWER: -1.0}[regime]
    delta = sign * c_star / level
    rho1 = 1.0 + delta
    return ControlSolution(regime=regime, c_star=c_star, delta_star=delta,
                           rho1_star=rho1, b1_star=rho1 / lam,
                           predicted_cost=predicted, mode="asymptotic")


def optimize_exact(lam, shape, b2, level, costs, rho1_range=(0.5, 1.5),
                   grid_points=1024, tol=1e-7):
    """Minimize the exact finite-L cost over rho1 within the given range.

    `shape` fixes the family of the normal-regime law; each candidate rho1
    is realized by rescaling it to mean rho1 / lam.
    """
    lo, hi = rho1_range
    if not (0 < lo < hi):
        raise ValueError("rho1_range must satisfy 0 < lo < hi")
    rho2 = lam * b2.mean()

    def f(rho1):
        model = exact.DamModel(lam=lam, b1=shape.scale_to_mean(rho1 / lam),
                               b2=b2, level=level)
        return exact.cost(model, costs)

    rho1_star = _grid_then_golden(f, lo, hi, grid_points, tol)
    delta = rho1_star - 1.0
    return ControlSolution(regime=classify_regime(costs, rho2),
                           c_star=level * abs(delta), delta_star=delta,
                           rho1_star=rho1_star, b1_star=rho1_star / lam,
                           predicted_cost=float(f(rho1_star)), mode="exact")
