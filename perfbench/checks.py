"""Output checks for each benchmark request; they run after the timed region.

Each check takes the request and its stdout text and returns None when the
output is right, or a one-line reason.  The optimize-exact check compares the
answer with damctl's own exact cost at the range ends and at rho1 = 1, so it
needs `exact_cost(meta, rho1)` from the caller.
"""

import csv
import io
import json
import math

REL_TOL = 1e-9
# damctl's p1 and p2 at L=4000 near rho1 = 1 are good to 4e-9 relative
# (the closed form to about 1e-11), so this leaves a margin of about 25
PROB_REL_TOL = 1e-7


def _close(a, b, tol=REL_TOL):
    """a and b agree to tol relative."""
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _within(x, lo, hi):
    """lo <= x <= hi, allowing for the 12 significant digits damctl prints."""
    slack = REL_TOL * max(abs(lo), abs(hi))
    return lo - slack <= x <= hi + slack


def _exp_closed_form(lam, rate, rho2, level):
    """(p1, p2) for exponential B1: Q_L = (1 - rho1^(L+1)) / (1 - rho1)."""
    rho1 = lam * (1.0 / rate)
    if rho1 == 1.0:
        q = level + 1.0
    else:
        q = (1.0 - rho1 ** (level + 1)) / (1.0 - rho1)
    inv_q = 1.0 / q
    denom = inv_q + (rho1 - rho2)
    return ((1.0 - rho2) * inv_q / denom,
            (rho2 * inv_q + rho2 * (rho1 - 1.0)) / denom)


def check_analyze(req, out, exact_cost=None):
    rec = json.loads(out)
    p1, p2 = rec["p1"], rec["p2"]
    if not (p1 >= 0.0 and p2 >= 0.0 and p1 + p2 <= 1.0):
        return "p1=%r p2=%r not a pair of probabilities" % (p1, p2)
    lam = rec["model"]["lambda"]
    wald_lhs = lam * rec["e_t"] + 1.0
    wald_rhs = rec["e_nu1"] + rec["e_nu2"]
    if not _close(wald_lhs, wald_rhs):
        return "Wald identity: lam*E T + 1 = %r but E nu1 + E nu2 = %r" % (
            wald_lhs, wald_rhs)
    renewal = rec["e_idle"] / (rec["e_t"] + rec["e_idle"])
    if not _close(p1, renewal):
        return "p1=%r but E idle/(E T + E idle)=%r" % (p1, renewal)
    m = req.meta
    if m["family"] == "exp":
        # the exact inputs, not the 12-digit echo in the record
        rate1 = float(m["b1"].split(":")[1])
        rate2 = float(m["b2"].split(":")[1])
        want1, want2 = _exp_closed_form(m["lam"], rate1, m["lam"] / rate2,
                                        m["level"])
        if not (_close(p1, want1, PROB_REL_TOL) and _close(p2, want2, PROB_REL_TOL)):
            return "exponential closed form: got (%r, %r), want (%r, %r)" % (
                p1, p2, want1, want2)
    return None


def check_simulate(req, out, exact_cost=None):
    rec = json.loads(out)
    if rec["cycles"] != req.meta["cycles"]:
        return "cycles=%r, asked for %r" % (rec["cycles"], req.meta["cycles"])
    for key in ("p1", "p2"):
        hat, want, hw = rec[key + "_hat"], rec["exact"][key], rec["half_widths"][key]
        if not abs(hat - want) <= 5.0 * hw:
            return "%s_hat=%r is more than 5 half-widths (%r) from exact %r" % (
                key, hat, hw, want)
    return None


def check_optimize_exact(req, out, exact_cost):
    rec = json.loads(out)
    lo, hi = req.meta["rho1_min"], req.meta["rho1_max"]
    rho1 = rec["rho1_star"]
    if not _within(rho1, lo, hi):
        return "rho1*=%r outside [%r, %r]" % (rho1, lo, hi)
    best = rec["predicted_cost"]
    for point in (lo, 1.0, hi):
        ref = exact_cost(req.meta, point)
        if best > ref * (1.0 + REL_TOL):
            return "predicted cost %r exceeds the exact cost %r at rho1=%r" % (
                best, ref, point)
    return None


def check_optimize_asymptotic(req, out, exact_cost=None):
    rec = json.loads(out)
    m = req.meta
    pivot = m["j1"] - m["j2"] * m["rho2"] / (1.0 - m["rho2"])
    want = "upper_penalized" if pivot > 0 else "lower_penalized"
    if rec["regime"] != want:
        return "regime %r, but j1 - j2 rho2/(1-rho2) = %r" % (rec["regime"], pivot)
    if not _within(rec["c_star"], 0.0, m["c_max"]):
        return "C*=%r outside [0, %r]" % (rec["c_star"], m["c_max"])
    return None


def check_csv(req, out, exact_cost=None):
    rows = list(csv.reader(io.StringIO(out)))
    body = rows[1:]
    if len(body) != req.meta["rows"]:
        return "%d rows, want %d" % (len(body), req.meta["rows"])
    for row in body:
        if len(row) != req.meta["columns"]:
            return "row %r has %d columns, want %d" % (row, len(row),
                                                      req.meta["columns"])
        if not all(math.isfinite(float(v)) for v in row):
            return "non-finite value in row %r" % (row,)
    return None


CHECKS = {
    "analyze": check_analyze,
    "simulate": check_simulate,
    "optimize_exact": check_optimize_exact,
    "optimize_asymptotic": check_optimize_asymptotic,
    "verify": check_csv,
    "sweep": check_csv,
}


def check(req, out, exact_cost):
    """None if the request's stdout is right, else the reason it is not."""
    try:
        return CHECKS[req.command](req, out, exact_cost)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "unreadable output: %s: %s" % (type(exc).__name__, exc)
