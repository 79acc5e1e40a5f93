"""Service-time distribution families.

Every family carries exact closed forms for its raw moments, its
Laplace-Stieltjes transform (LST) and the arrival-count weights

    r_j = integral of exp(-lam*x) * (lam*x)^j / j! dB(x),

i.e. the probability that exactly j Poisson(lam) arrivals occur during one
service.  The weights are evaluated in the log domain so that very deep
tails (or a tiny r_0) do not underflow prematurely.

numpy is imported only by the weight code, so building and describing a
distribution does not load it.
"""

from dataclasses import dataclass, fields
import math

__all__ = [
    "ServiceDistribution",
    "Exponential",
    "Erlang",
    "Gamma",
    "Deterministic",
    "HyperExponential",
    "dist_from_dict",
    "dist_to_dict",
    "parse_dist_spec",
    "family_tag",
    "as_integer",
    "as_number",
]

_WEIGHT_SUM_TOL = 1e-12


def _check_moment_order(k):
    if k not in (1, 2, 3):
        raise ValueError("raw_moment order must be 1, 2 or 3, got %r" % (k,))


def _check_s(s):
    if s < 0:
        raise ValueError("LST argument must be nonnegative, got %r" % (s,))


def _check_finite(name, *values):
    if not all(math.isfinite(v) for v in values):
        raise ValueError("%s parameters must be finite, got %r" % (name, values))


def _negbin_log_weights(shape, rate, lam, n):
    # r_j for Gamma(shape, rate) service: negative binomial with success
    # probability p = rate/(lam+rate), so r_j/r_{j-1} = q*(shape+j-1)/j.
    # log r_j = shape*log p + j*log q + log_coef_j, where log_coef_j is the
    # running sum of log1p((shape-1)/i) over i <= j; its terms are small, so
    # the sum keeps its accuracy out to thousands of terms.
    import numpy as np

    j = np.arange(n + 1, dtype=np.float64)
    log_p = math.log(rate) - math.log(lam + rate)
    log_q = math.log(lam) - math.log(lam + rate)
    log_coef = np.zeros(n + 1)
    np.cumsum(np.log1p((shape - 1.0) / j[1:]), out=log_coef[1:])
    return shape * log_p + j * log_q + log_coef


class ServiceDistribution:
    """Common surface of all supported service-time families."""

    def mean(self):
        return self.raw_moment(1)

    def raw_moment(self, k):
        raise NotImplementedError

    def lst(self, s):
        raise NotImplementedError

    def lst_derivative(self, s):
        raise NotImplementedError

    def _log_weights(self, lam, n):
        raise NotImplementedError

    def mixed_poisson_weights(self, lam, n):
        """Weights (r_0, ..., r_n) for Poisson arrival rate lam."""
        if not (math.isfinite(lam) and lam > 0):
            raise ValueError("arrival rate must be positive and finite, got %r" % (lam,))
        if n < 0:
            raise ValueError("weight count must be nonnegative")
        import numpy as np

        return np.exp(self._log_weights(float(lam), int(n)))

    def scale_to_mean(self, b):
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(ServiceDistribution):
    rate: float

    def __post_init__(self):
        _check_finite("Exponential", self.rate)
        if self.rate <= 0:
            raise ValueError("Exponential rate must be positive")

    def raw_moment(self, k):
        _check_moment_order(k)
        return math.factorial(k) / self.rate ** k

    def lst(self, s):
        _check_s(s)
        return self.rate / (self.rate + s)

    def lst_derivative(self, s):
        _check_s(s)
        return -self.rate / (self.rate + s) ** 2

    def _log_weights(self, lam, n):
        return _negbin_log_weights(1.0, self.rate, lam, n)

    def scale_to_mean(self, b):
        if b <= 0:
            raise ValueError("target mean must be positive")
        return Exponential(rate=1.0 / b)


@dataclass(frozen=True)
class Gamma(ServiceDistribution):
    shape: float
    rate: float

    def __post_init__(self):
        _check_finite("Gamma", self.shape, self.rate)
        if self.shape <= 0 or self.rate <= 0:
            raise ValueError("Gamma shape and rate must be positive")

    def raw_moment(self, k):
        _check_moment_order(k)
        m = 1.0
        for i in range(k):
            m *= (self.shape + i) / self.rate
        return m

    def lst(self, s):
        _check_s(s)
        return (self.rate / (self.rate + s)) ** self.shape

    def lst_derivative(self, s):
        _check_s(s)
        return -(self.shape / self.rate) * (self.rate / (self.rate + s)) ** (self.shape + 1.0)

    def _log_weights(self, lam, n):
        return _negbin_log_weights(self.shape, self.rate, lam, n)

    def scale_to_mean(self, b):
        if b <= 0:
            raise ValueError("target mean must be positive")
        return type(self)(shape=self.shape, rate=self.shape / b)


@dataclass(frozen=True)
class Erlang(Gamma):
    """Gamma with a positive integer shape: a sum of `shape` exponentials."""
    shape: int

    def __post_init__(self):
        _check_finite("Erlang", self.shape, self.rate)
        if int(self.shape) != self.shape or self.shape < 1:
            raise ValueError("Erlang shape must be a positive integer")
        if self.rate <= 0:
            raise ValueError("Erlang rate must be positive")


@dataclass(frozen=True)
class Deterministic(ServiceDistribution):
    duration: float

    def __post_init__(self):
        _check_finite("Deterministic", self.duration)
        if self.duration <= 0:
            raise ValueError("Deterministic duration must be positive")

    def raw_moment(self, k):
        _check_moment_order(k)
        return self.duration ** k

    def lst(self, s):
        _check_s(s)
        return math.exp(-s * self.duration)

    def lst_derivative(self, s):
        _check_s(s)
        return -self.duration * math.exp(-s * self.duration)

    def _log_weights(self, lam, n):
        # Poisson(mu) pmf, mu = lam * duration: log r_0 = -mu plus the running
        # sum of log(r_j/r_{j-1}) = log(mu/j); the partial sums are the log
        # weights themselves, so no large intermediate loses digits.
        import numpy as np

        mu = lam * self.duration
        steps = np.empty(n + 1)
        steps[0] = -mu
        steps[1:] = np.log(mu / np.arange(1, n + 1, dtype=np.float64))
        return np.cumsum(steps)

    def scale_to_mean(self, b):
        if b <= 0:
            raise ValueError("target mean must be positive")
        return Deterministic(duration=b)


@dataclass(frozen=True)
class HyperExponential(ServiceDistribution):
    weights: tuple
    rates: tuple

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        r = tuple(float(x) for x in self.rates)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rates", r)
        if len(w) != len(r) or not w:
            raise ValueError("HyperExponential needs matching nonempty weights and rates")
        _check_finite("HyperExponential", *w, *r)
        if any(x < 0 for x in w):
            raise ValueError("HyperExponential weights must be nonnegative")
        if abs(sum(w) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError("HyperExponential weights must sum to 1")
        if any(x <= 0 for x in r):
            raise ValueError("HyperExponential rates must be positive")

    def raw_moment(self, k):
        _check_moment_order(k)
        return sum(w * math.factorial(k) / r ** k
                   for w, r in zip(self.weights, self.rates))

    def lst(self, s):
        _check_s(s)
        return sum(w * r / (r + s) for w, r in zip(self.weights, self.rates))

    def lst_derivative(self, s):
        _check_s(s)
        return -sum(w * r / (r + s) ** 2 for w, r in zip(self.weights, self.rates))

    def _log_weights(self, lam, n):
        import numpy as np

        total = np.zeros(n + 1)
        for w, r in zip(self.weights, self.rates):
            if w > 0:
                total += w * np.exp(_negbin_log_weights(1.0, r, lam, n))
        with np.errstate(divide="ignore"):
            return np.log(total)

    def scale_to_mean(self, b):
        if b <= 0:
            raise ValueError("target mean must be positive")
        factor = self.mean() / b
        return HyperExponential(weights=self.weights,
                                rates=tuple(r * factor for r in self.rates))


# --- serialization: config files use tagged records, flags one-line specs ---

# tag -> family; a family's first tag is the one written out.  Lookups go by
# exact tag and class, never isinstance, since an Erlang is also a Gamma.
_FAMILIES = {"exp": Exponential, "erlang": Erlang, "gamma": Gamma,
             "det": Deterministic, "hyper": HyperExponential,
             "exponential": Exponential, "deterministic": Deterministic}
_TAG_OF = {cls: tag for tag, cls in reversed(_FAMILIES.items())}


def family_tag(d):
    """The tag of d's family, e.g. "erlang"."""
    try:
        return _TAG_OF[type(d)]
    except KeyError:
        raise ValueError("unknown distribution object %r" % (d,)) from None


def as_integer(value):
    """An integer option from a config value: an int, an integral float or a
    decimal string.  Refuses bools and numbers with a fractional part rather
    than truncate them."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError("expected an integer, got %r" % (value,))


def as_number(value):
    """A real option from a config value: a number or a numeric string.
    Refuses bools, lists, objects and null rather than end in a TypeError."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        return float(value)
    raise ValueError("expected a number, got %r" % (value,))


def _field_value(kind, value):
    if kind is int:
        return as_integer(value)
    if kind is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError("expected a list of numbers, got %r" % (value,))
        return tuple(as_number(x) for x in value)
    return as_number(value)


def _from_fields(cls, values):
    return cls(**{f.name: _field_value(f.type, v)
                  for f, v in zip(fields(cls), values)})


def dist_to_dict(d):
    rec = {"type": family_tag(d)}
    for f in fields(d):
        value = getattr(d, f.name)
        rec[f.name] = list(value) if f.type is tuple else value
    return rec


def dist_from_dict(rec):
    try:
        kind = rec["type"]
    except (TypeError, KeyError):
        raise ValueError("distribution record needs a 'type' tag: %r" % (rec,))
    try:
        cls = _FAMILIES[kind]
    except (TypeError, KeyError):
        raise ValueError("unknown distribution type %r" % (kind,)) from None
    return _from_fields(cls, [rec[f.name] for f in fields(cls)])


def parse_dist_spec(text):
    """Parse the one-line flag grammar, e.g. 'exp:1.25' or 'erlang:2:2.0'.

    Supported: exp:<rate>, erlang:<shape>:<rate>, gamma:<shape>:<rate>,
    det:<duration>, hyper:<w1>:<r1>:<w2>:<r2>[...]; the record aliases
    exponential and deterministic work too.
    """
    parts = str(text).split(":")
    cls, args = _FAMILIES.get(parts[0]), parts[1:]
    if cls is HyperExponential:
        if len(args) >= 4 and len(args) % 2 == 0:
            return _from_fields(cls, (args[0::2], args[1::2]))
    elif cls is not None and len(args) == len(fields(cls)):
        return _from_fields(cls, args)
    raise ValueError("cannot parse distribution spec %r" % (text,))
