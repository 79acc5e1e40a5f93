"""Regenerative discrete-event simulation of the threshold-modulated queue.

Each regeneration cycle is an idle period (exponential with the arrival
rate) followed by a busy period.  The service law is decided at service
initiation: at most `level` in system selects the normal-regime law,
otherwise the above-threshold law.  Below/above time is accounted per
service class, matching the Wald identities used by the exact analytics.

Randomness is a counter-based splittable stream keyed by (seed, cycle
index), so a run is reproducible cycle by cycle regardless of execution
order; see `kernels._stream_keys` for the splitting rule.
"""

import math

import numpy as np

from ._record import Record
from .model import SimulationConfig  # re-exported as simulator.SimulationConfig
from . import kernels

__all__ = ["SimulationConfig", "SimulationReport", "simulate"]


class SimulationReport(Record):
    p1_hat: float
    p2_hat: float
    e_nu1_hat: float
    e_nu2_hat: float
    e_t1_hat: float
    e_t2_hat: float
    half_widths: dict
    cycles: int
    seed: int


def _t_central(t, df):
    """P(|T| <= t) for Student's t with integer df: the finite series of
    Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df) in
    cos^2(theta) = 1/(1 + t^2/df), theta = atan(t/sqrt(df))."""
    log_c2 = -math.log1p(t * t / df)
    odd = df % 2
    coef, terms = 1.0, []
    for k in range((df - 1) // 2 if odd else df // 2):
        # cos^(2k) as one exp, so the rounding of cos^2 is not raised to
        # the k-th power
        terms.append(coef * math.exp(k * log_c2))
        coef *= (2 * k + 1 + odd) / (2 * k + 2 + odd)
    sin = t / math.sqrt(df + t * t)
    if odd:
        return 2.0 / math.pi * (math.atan(t / math.sqrt(df)) +
                                sin * math.exp(0.5 * log_c2) * math.fsum(terms))
    return sin * math.fsum(terms)


def _t_quantile(p, df):
    """Upper quantile (1/2 <= p < 1) of Student's t with integer df >= 1."""
    target = 2.0 * p - 1.0
    log_norm = (math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df)
                - 0.5 * math.log(df * math.pi))
    # Newton from t = 0: P(|T| <= t) is concave in t >= 0, so the iterates
    # rise monotonically to the root
    t = 0.0
    for _ in range(100):
        density = math.exp(log_norm - 0.5 * (df + 1) * math.log1p(t * t / df))
        step = (target - _t_central(t, df)) / (2.0 * density)
        t += step
        if step <= 1e-15 * t:
            break
    return t


def _batch_halfwidth(num, den, batch_count, tcrit):
    """Half-width of the batch ratios sum(num)/sum(den); a batch mean is the
    ratio with den all ones, as numpy's mean is sum / n."""
    sums_n = np.array([b.sum() for b in np.array_split(num, batch_count)])
    sums_d = np.array([b.sum() for b in np.array_split(den, batch_count)])
    ratios = sums_n / sums_d
    return tcrit * ratios.std(ddof=1) / np.sqrt(batch_count)


def simulate(config):
    """Run the configured number of cycles and return ratio estimates with
    95% batch-means confidence half-widths."""
    model = config.model
    idle, below, above, nu1, nu2 = kernels.simulate_cycles(
        config.n_cycles, config.seed, model.lam, model.level, model.b1, model.b2)

    cycle = idle + below + above
    total_cycle = cycle.sum()
    tcrit = _t_quantile(0.975, config.batch_count - 1)
    nu1f = nu1.astype(np.float64)
    nu2f = nu2.astype(np.float64)
    ones = np.ones(len(cycle))
    pairs = {"p1": (idle, cycle), "p2": (above, cycle), "e_nu1": (nu1f, ones),
             "e_nu2": (nu2f, ones), "e_t1": (below, ones), "e_t2": (above, ones)}
    hw = {key: float(_batch_halfwidth(num, den, config.batch_count, tcrit))
          for key, (num, den) in pairs.items()}
    return SimulationReport(
        p1_hat=float(idle.sum() / total_cycle),
        p2_hat=float(above.sum() / total_cycle),
        e_nu1_hat=float(nu1f.mean()),
        e_nu2_hat=float(nu2f.mean()),
        e_t1_hat=float(below.mean()),
        e_t2_hat=float(above.mean()),
        half_widths=hw,
        cycles=int(config.n_cycles),
        seed=int(config.seed),
    )
