"""Closed-form limits for p1, p2 and the limiting cost functionals.

Covers the three large-threshold regimes (subcritical, critical,
supercritical), the heavy-traffic regimes rho1 = 1 +/- delta with
L * delta -> C, and the limiting costs J_upper / J_lower used by the
control problem.

The root phi is Newton's method from z = 0, rising monotonically to it.
J_upper and the upper heavy-traffic p1 go through a/(e^a - 1) by expm1:
no cancellation as C -> 0, and the critical-regime values at C = 0.

A caveat on the lower heavy-traffic formulas: they are evaluated literally
with exponent rho12_tilde / (2C).  That expression diverges as C -> 0
although the C = 0 case should recover the critical-regime limits; the
exact recurrence is the ground truth and `damctl verify
--regime lower` quantifies the discrepancy instead of hiding it.
"""

import math

from .errors import RegimeError

__all__ = [
    "limit_subcritical",
    "critical_decay",
    "root_phi",
    "supercritical",
    "heavy_upper",
    "heavy_lower",
    "j_upper",
    "j_lower",
    "rho12_tilde",
]


def limit_subcritical(rho1):
    """Limits of (p1, p2) for rho1 < 1."""
    if not 0 < rho1 < 1:
        raise RegimeError("subcritical limit needs 0 < rho1 < 1, got %r" % (rho1,))
    return 1.0 - rho1, 0.0


def critical_decay(rho12, rho2):
    """Limits of (L*p1, L*p2) at rho1 = 1."""
    if rho12 <= 0:
        raise ValueError("rho12 must be positive")
    if not 0 < rho2 < 1:
        raise ValueError("rho2 must lie in (0, 1)")
    lp1 = rho12 / 2.0
    return lp1, rho2 / (1.0 - rho2) * lp1


def root_phi(lam, b1):
    """Least root in (0,1) of z = B1_hat(lam - lam*z); requires rho1 > 1.
    Newton from z = 0 on g(z) = B1_hat(lam - lam z) - z, convex with g(0) > 0
    and g'(1) = rho1 - 1 > 0: the iterates rise to the root without passing
    it, and stop where a step no longer lands in (z, 1)."""
    rho1 = lam * b1.mean()
    if rho1 <= 1.0:
        raise RegimeError("root exists in (0,1) only for rho1 > 1, got rho1=%g" % rho1)
    z = 0.0
    while True:
        s = lam - lam * z
        step = (b1.lst(s) - z) / (1.0 + lam * b1.lst_derivative(s))
        if not z < z + step < 1.0:
            return z
        z += step


def supercritical(model):
    """(p1 prefactor, p2 limit, phi) for rho1 > 1: p1(L) ~ prefactor * phi^L."""
    rho1, rho2 = model.rho1, model.rho2
    if rho1 <= 1.0:
        raise RegimeError("supercritical limits need rho1 > 1")
    phi = root_phi(model.lam, model.b1)
    pref = (1.0 - rho2) * (1.0 + model.lam * model.b1.lst_derivative(
        model.lam - model.lam * phi)) / (rho1 - rho2)
    p2_limit = rho2 * (rho1 - 1.0) / (rho1 - rho2)
    return pref, p2_limit, phi


def _check_heavy_args(delta, c, rho12t, rho2):
    if delta <= 0:
        raise RegimeError("heavy-traffic formulas need delta > 0")
    if c <= 0:
        raise RegimeError("C must be positive; use critical_decay for C = 0")
    if rho12t <= 0:
        raise ValueError("rho12_tilde must be positive")
    if not 0 <= rho2 < 1:
        raise ValueError("rho2 must lie in [0, 1)")


def heavy_upper(delta, c, rho12t, rho2):
    """(p1, p2) for rho1 = 1 + delta with L*delta -> C > 0: with
    a = 2C/rho12_tilde, p1 = delta / (e^a - 1) and p2 = rho2/(1 - rho2) *
    (delta + p1)."""
    _check_heavy_args(delta, c, rho12t, rho2)
    a = 2.0 * c / rho12t
    p1 = delta / a * _g(a)
    return p1, rho2 / (1.0 - rho2) * (delta + p1)


def heavy_lower(delta, c, rho12t, rho2):
    """(p1, p2) for rho1 = 1 - delta with L*delta -> C > 0: the literal
    formulas with exponent rho12_tilde / (2C), inf where its exponential
    overflows (small C)."""
    _check_heavy_args(delta, c, rho12t, rho2)
    x = rho12t / 2.0 / c
    e = _exp(x)
    p1 = delta * e
    p2 = delta * rho2 / (1.0 - rho2) * (math.expm1(x) if e < math.inf else e)
    return p1, p2


def _critical_cost(rho12t, rho2, costs):
    return rho12t / 2.0 * (costs.j1 + costs.j2 * rho2 / (1.0 - rho2))


def _check_cost_args(rho12t, rho2):
    if rho12t <= 0:
        raise ValueError("rho12_tilde must be positive")
    if not 0 <= rho2 < 1:
        raise ValueError("rho2 must lie in [0, 1)")


def _exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _g(a):
    """a / (e^a - 1) through expm1, so without cancellation as a -> 0; 1 at 0.
    Where e^a overflows, e^a - 1 is e^a to double precision, and a e^-a,
    taken as one exp, falls through the subnormals to 0 by a = 752; at
    a = inf, where 2C overflows, it is its limit 0."""
    if not a:
        return 1.0
    if a == math.inf:
        return 0.0
    try:
        return a / math.expm1(a)
    except OverflowError:
        return math.exp(math.log(a) - a)


def j_upper(c, rho12t, rho2, costs):
    """Limiting cost in the upper regime, C (j1 + k e^a) / (e^a - 1) with
    a = 2C/rho12_tilde and k = j2 rho2/(1 - rho2), taken as
    k C + rho12_tilde/2 (j1 + k) a/(e^a - 1): the critical-regime cost at
    C = 0."""
    _check_cost_args(rho12t, rho2)
    k = costs.j2 * rho2 / (1.0 - rho2)
    return k * c + rho12t / 2.0 * (costs.j1 + k) * _g(2.0 * c / rho12t)


def j_lower(c, rho12t, rho2, costs):
    """Limiting cost in the lower regime (literal formula).

    At C = 0 the literal expression diverges; the continuous extension
    (the critical-regime cost) is returned instead.
    """
    _check_cost_args(rho12t, rho2)
    c = float(c)
    if c == 0.0:
        return _critical_cost(rho12t, rho2, costs)
    x = rho12t / 2.0 / c
    k = costs.j2 * rho2 / (1.0 - rho2)
    e = _exp(x)
    # e^x - 1 by expm1, which does not cancel at large C, where x -> 0
    val = c * (costs.j1 * e + k * (math.expm1(x) if e < math.inf else e))
    if not math.isfinite(val) and c > 0.0:
        # e^x, or j1 * e^x, overflowed before the factor C could bring it
        # back; there J_lower = C (j1 + k) e^x to double precision
        scale = c * (costs.j1 + k)
        return _exp(x + math.log(scale)) if scale > 0.0 else 0.0
    return val


def rho12_tilde(lam, shape_dist):
    """Normalized second moment of the scale family evaluated at rho1 = 1."""
    d = shape_dist.scale_to_mean(1.0 / lam)
    return lam ** 2 * d.raw_moment(2)
