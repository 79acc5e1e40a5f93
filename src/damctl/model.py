"""The dam model, its damage costs and a simulation run's settings.

Validated immutable records (`_record.Record`) with no numpy, so bad input
fails before a command loads it and the commands that never run the
recurrence (`optimize --mode asymptotic`, `sweep`) do not load it at all.
`damctl.exact` re-exports DamModel and CostModel, `damctl.simulator`
SimulationConfig.
"""

import math

from ._record import Record
from .distributions import ServiceDistribution

__all__ = ["DamModel", "CostModel", "SimulationConfig"]

_SEED_LIMIT = 2 ** 64


class DamModel(Record):
    """Arrival rate, below/above-threshold service laws and threshold."""
    lam: float
    b1: ServiceDistribution
    b2: ServiceDistribution
    level: int

    def _check(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError("arrival rate must be positive and finite")
        if int(self.level) != self.level or self.level < 1:
            raise ValueError("level must be an integer >= 1")
        if self.rho2 >= 1.0:
            raise ValueError("stability requires rho2 = lam * mean(b2) < 1")

    @property
    def rho1(self):
        return self.lam * self.b1.mean()

    @property
    def rho2(self):
        return self.lam * self.b2.mean()


class CostModel(Record):
    """Per-level damage costs for lower (j1) and upper (j2) passages."""
    j1: float
    j2: float

    def _check(self):
        if not (math.isfinite(self.j1) and math.isfinite(self.j2)):
            raise ValueError("damage costs must be finite")
        if self.j1 < 0 or self.j2 < 0:
            raise ValueError("damage costs must be nonnegative")


class SimulationConfig(Record):
    model: DamModel
    n_cycles: int
    seed: int = 0
    batch_count: int = 32

    def _check(self):
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValueError("seed must lie in [0, 2**64), got %r" % (self.seed,))
        if self.batch_count < 2:
            raise ValueError("batch_count must be at least 2")
        if self.n_cycles < self.batch_count:
            raise ValueError("n_cycles must be at least batch_count")
