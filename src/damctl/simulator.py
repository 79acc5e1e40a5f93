"""Regenerative discrete-event simulation of the threshold-modulated queue.

Each regeneration cycle is an idle period (exponential with the arrival
rate) followed by a busy period.  The service law is decided at service
initiation: at most `level` in system selects the normal-regime law,
otherwise the above-threshold law.  Below/above time is accounted per
service class, matching the Wald identities used by the exact analytics.

Randomness is a counter-based splittable stream keyed by (seed, cycle
index), so a run is reproducible cycle by cycle regardless of execution
order; see `kernels.stream_key` for the splitting rule.
"""

from dataclasses import dataclass, asdict
import math

import numpy as np

from .distributions import (Deterministic, Erlang, Exponential, Gamma,
                            HyperExponential)
from .exact import DamModel
from . import kernels

__all__ = ["SimulationConfig", "SimulationReport", "simulate", "sweep_simulate"]

_SEED_LIMIT = 2 ** 64


@dataclass(frozen=True)
class SimulationConfig:
    model: DamModel
    n_cycles: int
    seed: int = 0
    batch_count: int = 32

    def __post_init__(self):
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValueError("seed must lie in [0, 2**64), got %r" % (self.seed,))
        if self.batch_count < 2:
            raise ValueError("batch_count must be at least 2")
        if self.n_cycles < self.batch_count:
            raise ValueError("n_cycles must be at least batch_count")


@dataclass(frozen=True)
class SimulationReport:
    p1_hat: float
    p2_hat: float
    e_nu1_hat: float
    e_nu2_hat: float
    e_t1_hat: float
    e_t2_hat: float
    half_widths: dict
    cycles: int
    seed: int

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, rec):
        return cls(**{k: rec[k] for k in
                      ("p1_hat", "p2_hat", "e_nu1_hat", "e_nu2_hat",
                       "e_t1_hat", "e_t2_hat", "half_widths", "cycles", "seed")})


def _encode(dist):
    """(kind, params) encoding consumed by the simulation kernel."""
    if isinstance(dist, Exponential):
        return kernels.KIND_EXP, np.array([dist.rate])
    if isinstance(dist, Erlang):
        return kernels.KIND_ERLANG, np.array([float(dist.shape), dist.rate])
    if isinstance(dist, Gamma):
        return kernels.KIND_GAMMA, np.array([dist.shape, dist.rate])
    if isinstance(dist, Deterministic):
        return kernels.KIND_DET, np.array([dist.duration])
    if isinstance(dist, HyperExponential):
        cumw = np.cumsum(dist.weights)
        return kernels.KIND_HYPER, np.concatenate(
            ([float(len(dist.rates))], cumw, np.asarray(dist.rates)))
    raise ValueError("cannot encode distribution %r for simulation" % (dist,))


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


def _batch_ratio_halfwidth(num, den, batch_count, tcrit):
    sums_n = np.array([b.sum() for b in np.array_split(num, batch_count)])
    sums_d = np.array([b.sum() for b in np.array_split(den, batch_count)])
    ratios = sums_n / sums_d
    return tcrit * ratios.std(ddof=1) / np.sqrt(batch_count)


def _batch_mean_halfwidth(x, batch_count, tcrit):
    means = np.array([b.mean() for b in np.array_split(x, batch_count)])
    return tcrit * means.std(ddof=1) / np.sqrt(batch_count)


def simulate(config, backend=None):
    """Run the configured number of cycles and return ratio estimates with
    95% batch-means confidence half-widths."""
    model = config.model
    k1, p1 = _encode(model.b1)
    k2, p2 = _encode(model.b2)
    idle, below, above, nu1, nu2 = kernels.simulate_cycles(
        config.n_cycles, config.seed, model.lam, model.level,
        k1, p1, k2, p2, backend=backend)

    cycle = idle + below + above
    total_cycle = cycle.sum()
    tcrit = _t_quantile(0.975, config.batch_count - 1)
    nu1f = nu1.astype(np.float64)
    nu2f = nu2.astype(np.float64)

    hw = {
        "p1": float(_batch_ratio_halfwidth(idle, cycle, config.batch_count, tcrit)),
        "p2": float(_batch_ratio_halfwidth(above, cycle, config.batch_count, tcrit)),
        "e_nu1": float(_batch_mean_halfwidth(nu1f, config.batch_count, tcrit)),
        "e_nu2": float(_batch_mean_halfwidth(nu2f, config.batch_count, tcrit)),
        "e_t1": float(_batch_mean_halfwidth(below, config.batch_count, tcrit)),
        "e_t2": float(_batch_mean_halfwidth(above, config.batch_count, tcrit)),
    }
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


def simulate_raw(config, backend=None):
    """Per-cycle arrays (idle, below, above, nu1, nu2); test/diagnostic hook."""
    model = config.model
    k1, p1 = _encode(model.b1)
    k2, p2 = _encode(model.b2)
    return kernels.simulate_cycles(config.n_cycles, config.seed, model.lam,
                                   model.level, k1, p1, k2, p2, backend=backend)


def sweep_simulate(configs, backend=None):
    """Element-wise simulate().

    Each element is fully determined by its own config (cycle streams are
    keyed by (config.seed, cycle index)), so results are independent of
    list order and of serial vs parallel execution.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("sweep_simulate needs at least one config")
    return [simulate(c, backend=backend) for c in configs]
