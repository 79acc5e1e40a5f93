"""Golden-section search plus both ends: a reference for `control`'s search.

This is the search `control` ran before Brent's method replaced it, kept
here so that tests can hold the new optimum to the old one: the same bracket
of tol, the same few-ulp floor on it, and the same two ends priced, an end
winning a tie.
"""

import math

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, a, b, tol):
    """Midpoint of the final bracket, of width <= tol, around f's minimum."""
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


def minimize(f, lo, hi, tol):
    """(x, f(x)) at the least of lo, hi and golden section's midpoint."""
    x = golden_section(f, lo, hi, tol)
    fx, x = min((f(lo), lo), (f(hi), hi), (f(x), x), key=lambda p: p[0])
    return x, fx
