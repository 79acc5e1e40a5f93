"""40-digit references for the exact route and the root phi.

The arrival-count weights r_j come from mpmath at 40 digits: the Poisson
and negative-binomial forms through loggamma, and a hyperexponential law as
the exact mixture of its phases' geometric weights.  The busy-period
recurrence Q_{n+1} = (Q_n - sum_{j=1..n} r_j Q_{n-j+1}) / r_0 then runs on
them at 40 digits, where its cancellation costs nothing a double can see.
Since the weights are the law's own and not a rounding of the double
weights, the reference holds none of the double weights' rounding error.
"""

import mpmath
import numpy as np

from damctl import exact, kernels
from damctl.distributions import family_tag

DIGITS = 40


def law_weights(d):
    """(kind, params) of service law d for `log_weights`."""
    tag = family_tag(d)
    if tag == "det":
        return "poisson", (d.duration,)
    if tag == "exp":
        return "negbin", (1.0, d.rate)
    if tag == "hyper":
        return "hyper", (d.weights, d.rates)
    return "negbin", (d.shape, d.rate)


def log_weights(kind, params, lam, n):
    """40-digit log r_0..log r_n as mpf values."""
    with mpmath.workdps(DIGITS):
        lam = mpmath.mpf(lam)
        if kind == "poisson":
            mu = lam * mpmath.mpf(params[0])
            return [-mu + j * mpmath.log(mu) - mpmath.loggamma(j + 1)
                    for j in range(n + 1)]
        if kind == "negbin":
            shape, rate = (mpmath.mpf(x) for x in params)
            log_p = mpmath.log(rate / (lam + rate))
            log_q = mpmath.log(lam / (lam + rate))
            return [mpmath.loggamma(shape + j) - mpmath.loggamma(j + 1)
                    - mpmath.loggamma(shape) + shape * log_p + j * log_q
                    for j in range(n + 1)]
        # a mixture of exponential phases: sum_i w_i p_i q_i^j
        phases = [(mpmath.mpf(w), mpmath.mpf(rate) / (lam + rate),
                   lam / (lam + rate)) for w, rate in zip(*params)]
        return [mpmath.log(mpmath.fsum(w * p * q ** j for w, p, q in phases))
                for j in range(n + 1)]


def lst(kind, params, s):
    """40-digit Laplace-Stieltjes transform at s of the law `law_weights`
    describes."""
    if kind == "poisson":
        return mpmath.exp(-mpmath.mpf(params[0]) * s)
    if kind == "negbin":
        shape, rate = (mpmath.mpf(x) for x in params)
        return (rate / (rate + s)) ** shape
    return mpmath.fsum(mpmath.mpf(w) * mpmath.mpf(rate) / (rate + s)
                       for w, rate in zip(*params))


def root_phi(lam, b1):
    """40-digit least root in (0, 1) of B1_hat(lam - lam z) = z, rho1 > 1:
    bisection on the sign of B1_hat(lam - lam z) - z, which is positive
    below the root and negative between it and 1."""
    kind, params = law_weights(b1)
    with mpmath.workdps(DIGITS):
        lam = mpmath.mpf(lam)
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(4 * DIGITS):
            mid = (lo + hi) / 2
            if lst(kind, params, lam - lam * mid) > mid:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def log_counts(model):
    """40-digit log Q_0..log Q_L of the model's normal-regime law."""
    L = int(model.level)
    kind, params = law_weights(model.b1)
    with mpmath.workdps(DIGITS):
        r = [mpmath.exp(x) for x in log_weights(kind, params, model.lam, L)]
        q = [mpmath.mpf(1)]
        for n in range(L):
            s = mpmath.fdot(r[1:n + 1], q[n:0:-1])
            q.append((q[n] - s) / r[0])
        return [mpmath.log(x) for x in q]


def double_counts(model):
    """(u, r_0, scales): the kernels' loop on the model's band, so that
    Q_n = sum_{m<n} u[m] exp(scales[m]) / r_0 for n >= 1."""
    a, x, r0 = exact._band(model, int(model.level))
    u, scales = kernels.busy_period_recurrence(a, model.level, x)
    return u, r0, scales


def double_log_q(model):
    """log Q_L from the double route's factors, finite also where Q_L is
    beyond double range."""
    u, r0, scales = double_counts(model)
    return float(np.log(np.dot(u[:-1], np.exp(-scales[:0:-1])) / r0)
                 + scales[-1])


def double_log_counts(model):
    """log Q_0..log Q_L from the double route's factors, finite also where
    Q_n is beyond double range: log Q_n is the log of
    sum_{m<n} u[m] exp(scales[m] - scales[n-1]) / r_0, plus scales[n-1]."""
    u, r0, scales = double_counts(model)
    sums = np.convolve(u[:-1], np.exp(-scales[:-1]))[:len(u) - 1]
    return np.concatenate(([0.0], np.log(sums / r0) + scales[:-1]))


def worst_log_error(model):
    """Largest |log Q_n - reference| over n = 0..L: for small values, the
    relative error of Q_n."""
    want = log_counts(model)
    got = double_log_counts(model)
    with mpmath.workdps(DIGITS):
        return max(float(abs(mpmath.mpf(g) - w)) for g, w in zip(got, want))
