"""Seeded request generator for the damctl CLI benchmark.

A workload is an endless stream of rounds; a round is the fixed request
list described below, drawn from a `random.Random` seeded with the run's
seed, so one seed always yields the same argv sequence.  damctl sees only
the argv.  Every request carries a model key and the generator redraws on a
repeat, so no two requests of a run share a model and no cache kept across
requests can help.

Sizes are chosen so that the cost of a round hardly depends on the seed:
problem sizes are fixed, families cycle in a fixed order, and loads are drawn
by jittered stratification inside fixed bands.
"""

from dataclasses import dataclass, field
import random

FAMILIES = ("exp", "erlang", "gamma", "det", "hyper")

EXACT_LEVEL = 4000
VERIFY_LEVELS = "1000,2000,4000"
CONTROL_LEVEL = 200
SIM_LEVEL = 5
SIM_CYCLES = 24000

# why each one was chosen is recorded in BENCHMARK.json
WORKLOADS = ("exact-large", "control", "simulate")


@dataclass(frozen=True)
class Request:
    """One CLI invocation: the command label, its argv and what checks need."""
    command: str
    argv: tuple
    meta: dict = field(default_factory=dict, compare=False)


def _num(x):
    """Shortest text that parses back to the same float."""
    return repr(float(x))


def b1_spec(family, mean, rng):
    """Service-law flag of the given family with the given mean."""
    if family == "exp":
        return "exp:%s" % _num(1.0 / mean)
    if family == "erlang":
        return "erlang:2:%s" % _num(2.0 / mean)
    if family == "gamma":
        shape = rng.uniform(1.5, 3.0)
        return "gamma:%s:%s" % (_num(shape), _num(shape / mean))
    if family == "det":
        return "det:%s" % _num(mean)
    if family == "hyper":
        # two phases with rate ratio 4; x fixes the mean
        w = rng.uniform(0.2, 0.5)
        x = (w / 2.0 + 2.0 * (1.0 - w)) / mean
        return "hyper:%s:%s:%s:%s" % (_num(w), _num(2.0 * x),
                                      _num(1.0 - w), _num(x / 2.0))
    raise ValueError("unknown family %r" % (family,))


class Generator:
    """Endless seeded source of request rounds for one workload."""

    def __init__(self, workload, seed):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r (expected one of %s)"
                             % (workload, ", ".join(WORKLOADS)))
        self.workload = workload
        self.rng = random.Random("damctl-bench/%s/%d" % (workload, seed))
        self.family_index = 0
        self.seen = set()

    def _family(self):
        fam = FAMILIES[self.family_index % len(FAMILIES)]
        self.family_index += 1
        return fam

    def _fresh(self, make):
        """Call make() until it returns a request whose model is new."""
        while True:
            req, key = make()
            if key not in self.seen:
                self.seen.add(key)
                return req

    def _common(self, rho2_lo, rho2_hi, lam_lo=0.5, lam_hi=2.0):
        lam = self.rng.uniform(lam_lo, lam_hi)
        rho2 = self.rng.uniform(rho2_lo, rho2_hi)
        return lam, rho2, "exp:%s" % _num(lam / rho2)

    def round(self):
        """The next round: a list of Request.

        Families restart at the same slot in every round, so all rounds of a
        workload have the same structure and differ only in drawn values.
        """
        self.family_index = 0
        return getattr(self, "_round_" + self.workload.replace("-", "_"))()

    # -- exact-large --------------------------------------------------------

    def _analyze(self, i):
        family = self._family()
        sign = 1.0 if i % 2 == 0 else -1.0

        def make():
            lam, rho2, b2 = self._common(0.3, 0.7)
            c = self.rng.uniform(0.5, 2.0)
            rho1 = 1.0 + sign * c / EXACT_LEVEL
            b1 = b1_spec(family, rho1 / lam, self.rng)
            j1, j2 = self.rng.uniform(0.5, 2.0), self.rng.uniform(0.5, 2.0)
            argv = ("analyze", "--lambda", _num(lam), "--b1", b1, "--b2", b2,
                    "--level", str(EXACT_LEVEL), "--j1", _num(j1),
                    "--j2", _num(j2))
            meta = {"family": family, "lam": lam, "b1": b1, "b2": b2,
                    "level": EXACT_LEVEL, "j1": j1, "j2": j2}
            return (Request("analyze", argv, meta),
                    ("model", lam, b1, b2, EXACT_LEVEL))
        return self._fresh(make)

    def _verify(self, regime):
        family = self._family()

        def make():
            lam, rho2, b2 = self._common(0.3, 0.7)
            c = self.rng.uniform(0.5, 2.0)
            b1 = b1_spec(family, 1.0 / lam, self.rng)
            argv = ("verify", "--lambda", _num(lam), "--b1", b1, "--b2", b2,
                    "--regime", regime, "--c", _num(c),
                    "--levels", VERIFY_LEVELS)
            meta = {"rows": len(VERIFY_LEVELS.split(",")), "columns": 9}
            return (Request("verify", argv, meta),
                    ("verify", lam, b1, b2, regime, c))
        return self._fresh(make)

    def _round_exact_large(self):
        reqs = [self._analyze(i) for i in range(6)]
        reqs.append(self._verify("upper"))
        reqs.append(self._verify("critical"))
        return reqs

    # -- control ------------------------------------------------------------

    def _costs(self, rho2, upper):
        """(j1, j2) strictly inside the upper- or lower-penalized regime."""
        j2 = self.rng.uniform(0.5, 2.0)
        pivot = j2 * rho2 / (1.0 - rho2)
        j1 = pivot * (self.rng.uniform(1.5, 3.0) if upper
                      else self.rng.uniform(0.3, 0.7))
        return j1, j2

    def _optimize_exact(self, upper):
        family = self._family()

        def make():
            lam, rho2, b2 = self._common(0.3, 0.7)
            b1 = b1_spec(family, 1.0 / lam, self.rng)
            j1, j2 = self._costs(rho2, upper)
            lo, hi = self.rng.uniform(0.5, 0.9), self.rng.uniform(1.1, 1.5)
            argv = ("optimize", "--mode", "exact", "--lambda", _num(lam),
                    "--b1", b1, "--b2", b2, "--level", str(CONTROL_LEVEL),
                    "--j1", _num(j1), "--j2", _num(j2),
                    "--rho1-min", _num(lo), "--rho1-max", _num(hi))
            meta = {"lam": lam, "b1": b1, "b2": b2, "level": CONTROL_LEVEL,
                    "j1": j1, "j2": j2, "rho1_min": lo, "rho1_max": hi}
            return (Request("optimize_exact", argv, meta),
                    ("control", lam, b1, b2, CONTROL_LEVEL, j1, j2))
        return self._fresh(make)

    def _optimize_asymptotic(self, upper):
        family = self._family()

        def make():
            lam, rho2, b2 = self._common(0.3, 0.7)
            b1 = b1_spec(family, 1.0 / lam, self.rng)
            j1, j2 = self._costs(rho2, upper)
            level = self.rng.randrange(500, 4001)
            c_max = self.rng.uniform(4.0, 10.0)
            argv = ("optimize", "--mode", "asymptotic", "--lambda", _num(lam),
                    "--b1", b1, "--b2", b2, "--level", str(level),
                    "--j1", _num(j1), "--j2", _num(j2), "--c-max", _num(c_max))
            meta = {"j1": j1, "j2": j2, "rho2": rho2, "c_max": c_max}
            return (Request("optimize_asymptotic", argv, meta),
                    ("control", lam, b1, b2, level, j1, j2))
        return self._fresh(make)

    def _sweep(self):
        family = self._family()

        def make():
            lam, rho2, b2 = self._common(0.3, 0.7)
            b1 = b1_spec(family, 1.0 / lam, self.rng)
            j1, j2 = self.rng.uniform(0.5, 2.0), self.rng.uniform(0.5, 2.0)
            step = self.rng.choice((0.125, 0.25, 0.5))
            k = self.rng.randrange(8, 25)
            grid = "0:%s:%s" % (_num(k * step), _num(step))
            argv = ("sweep", "--lambda", _num(lam), "--b1", b1, "--b2", b2,
                    "--j1", _num(j1), "--j2", _num(j2), "--c-grid", grid)
            meta = {"rows": k + 1, "columns": 3}
            return (Request("sweep", argv, meta),
                    ("sweep", lam, b1, b2, j1, j2, grid))
        return self._fresh(make)

    def _round_control(self):
        reqs = [self._optimize_exact(upper) for upper in (True, False, True, False)]
        reqs += [self._optimize_asymptotic(upper) for upper in (True, False)]
        reqs += [self._sweep(), self._sweep()]
        return reqs

    # -- simulate -----------------------------------------------------------

    def _simulate(self, rho1_lo, rho1_hi):
        family = self._family()

        def make():
            lam, rho2, b2 = self._common(0.45, 0.55, 0.8, 1.25)
            rho1 = self.rng.uniform(rho1_lo, rho1_hi)
            b1 = b1_spec(family, rho1 / lam, self.rng)
            seed = self.rng.randrange(2 ** 31)
            argv = ("simulate", "--lambda", _num(lam), "--b1", b1, "--b2", b2,
                    "--level", str(SIM_LEVEL), "--cycles", str(SIM_CYCLES),
                    "--seed", str(seed))
            meta = {"cycles": SIM_CYCLES}
            return (Request("simulate", argv, meta),
                    ("model", lam, b1, b2, SIM_LEVEL))
        return self._fresh(make)

    def _round_simulate(self):
        # strata: four subcritical loads in [0.75, 0.95], two supercritical
        # in [1.05, 1.15]; slots 1 and 4 are the supercritical ones
        sub = [0.75 + 0.05 * j for j in range(4)]
        sup = [1.05 + 0.05 * j for j in range(2)]
        bands = [sub[0], sup[0], sub[1], sub[2], sup[1], sub[3]]
        return [self._simulate(lo, lo + 0.05) for lo in bands]
