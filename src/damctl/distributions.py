"""Service-time distribution families.

Each family is described once, by its class, an immutable record whose
fields are its parameters: exact closed forms for its raw moments, its
Laplace-Stieltjes transform (LST), its rescaling to a given mean, the
simulator's sampler of its services and the arrival-count weights

    r_j = integral of exp(-lam*x) * (lam*x)^j / j! dB(x),

i.e. the probability that exactly j Poisson(lam) arrivals occur during one
service.  The weights are evaluated in the log domain so that very deep
tails (or a tiny r_0) do not underflow prematurely.  Each family computes
them once, on Python floats (`_log_weights`), by one of three recipes:
negative binomial (exponential, Erlang, gamma), Poisson (deterministic) or
a mixture of phases (hyperexponential).

numpy is imported only by the samplers (`lane_services`), so building a
distribution, describing it and reading its weights do not load it.  The
serializers read each family's field names and types from its record
fields.
"""

import math
from itertools import accumulate

from ._record import Record

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


def _check_finite(name, *values):
    if not all(math.isfinite(v) for v in values):
        raise ValueError("%s parameters must be finite, got %r" % (name, values))


def _negbin_log_weights(shape, rate, lam, n):
    # r_j for Gamma(shape, rate) service: negative binomial with success
    # probability p = rate/(lam+rate), so r_j/r_{j-1} = q*(shape+j-1)/j.
    # log r_j = shape*log p + j*log q + log_coef_j, where log_coef_j is the
    # running sum of log1p((shape-1)/i) over i <= j, 0 at shape 1; its terms
    # are small, so the sum keeps its accuracy out to thousands of terms.
    # Below shape 1/2, shape - 1 rounds (to -1 below 5.6e-17), so the first
    # term is log(shape) itself.
    log_p = math.log(rate) - math.log(lam + rate)
    log_q = math.log(lam) - math.log(lam + rate)
    head = shape * log_p
    if shape == 1.0:
        return [head + j * log_q for j in range(n + 1)]
    terms = [math.log(shape) if shape < 0.5 else math.log1p(shape - 1.0)]
    terms += [math.log1p((shape - 1.0) / j) for j in range(2, n + 1)]
    log_coef = accumulate(terms[:n], initial=0.0)
    return [head + j * log_q + c for j, c in enumerate(log_coef)]


def _poisson_log_weights(mu, n):
    # Poisson(mu) pmf: log r_0 = -mu plus the running sum of
    # log(r_j/r_{j-1}) = log(mu/j); the partial sums are the log weights
    # themselves, so no large intermediate loses digits
    return list(accumulate([math.log(mu / j) for j in range(1, n + 1)],
                           initial=-mu))


def _mixture_log_weights(weights, rates, lam, n):
    """Log weights of a mixture of exponential phases."""
    total = [0.0] * (n + 1)
    for w, r in zip(weights, rates):
        if w > 0:
            total = [t + w * math.exp(x) for t, x in
                     zip(total, _negbin_log_weights(1.0, r, lam, n))]
    return [math.log(t) if t > 0.0 else -math.inf for t in total]


class ServiceDistribution(Record):
    """Common surface of all supported service-time families.

    A family annotates its parameters as record fields, checks them in
    _check, and defines _raw_moment(k), _lst(s), _lst_derivative(s),
    _log_weights(lam, n) (a list of Python floats) and _with_mean(b), whose
    arguments the public methods here check once, and lane_services(slots),
    the simulator's sampler: one service time per stream of slots.  It reads
    uniforms on (0, 1] only through slots.take(m) (every stream), peek(idx,
    m) and skip(idx, counts) (the streams in index array idx), at most
    slots.BLOCK at once (kernels._Slots), and consumes just the draws used.
    """

    def mean(self):
        return self.raw_moment(1)

    def raw_moment(self, k):
        if k not in (1, 2, 3):
            raise ValueError("raw_moment order must be 1, 2 or 3, got %r" % (k,))
        return self._raw_moment(k)

    def lst(self, s):
        if s < 0:
            raise ValueError("LST argument must be nonnegative, got %r" % (s,))
        return self._lst(s)

    def lst_derivative(self, s):
        if s < 0:
            raise ValueError("LST argument must be nonnegative, got %r" % (s,))
        return self._lst_derivative(s)

    def mixed_poisson_weights(self, lam, n):
        """Weights [r_0, ..., r_n] for Poisson arrival rate lam, a list of
        Python floats."""
        if not (math.isfinite(lam) and lam > 0):
            raise ValueError("arrival rate must be positive and finite, "
                             "got %r" % (lam,))
        if n < 0:
            raise ValueError("weight count must be nonnegative")
        return list(map(math.exp, self._log_weights(float(lam), int(n))))

    def scale_to_mean(self, b):
        if b <= 0:
            raise ValueError("target mean must be positive")
        return self._with_mean(b)


class Exponential(ServiceDistribution):
    rate: float

    def _check(self):
        _check_finite("Exponential", self.rate)
        if self.rate <= 0:
            raise ValueError("Exponential rate must be positive")

    def _raw_moment(self, k):
        return math.factorial(k) / self.rate ** k

    def _lst(self, s):
        return self.rate / (self.rate + s)

    def _lst_derivative(self, s):
        return -self.rate / (self.rate + s) ** 2

    def _log_weights(self, lam, n):
        return _negbin_log_weights(1.0, self.rate, lam, n)

    def _with_mean(self, b):
        return Exponential(rate=1.0 / b)

    def lane_services(self, slots):
        import numpy as np

        return -np.log(slots.take(1)[0]) / self.rate


class Gamma(ServiceDistribution):
    shape: float
    rate: float

    def _check(self):
        _check_finite("Gamma", self.shape, self.rate)
        if self.shape <= 0 or self.rate <= 0:
            raise ValueError("Gamma shape and rate must be positive")

    def _raw_moment(self, k):
        m = 1.0
        for i in range(k):
            m *= (self.shape + i) / self.rate
        return m

    def _lst(self, s):
        return (self.rate / (self.rate + s)) ** self.shape

    def _lst_derivative(self, s):
        return -(self.shape / self.rate) * (self.rate / (self.rate + s)) ** (self.shape + 1.0)

    def _log_weights(self, lam, n):
        return _negbin_log_weights(self.shape, self.rate, lam, n)

    def _with_mean(self, b):
        return type(self)(shape=self.shape, rate=self.shape / b)

    def lane_services(self, slots):
        """Marsaglia-Tsang; shape < 1 boosted via u^(1/shape).  An attempt
        reads three draws and consumes two when 1 + c x <= 0, three
        otherwise."""
        import numpy as np

        a = self.shape
        boost = None
        if a < 1.0:
            boost = np.power(slots.take(1)[0], 1.0 / a)
            a += 1.0
        d = a - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        s = np.empty(len(slots))
        pending = np.arange(len(slots))
        while len(pending):
            u = slots.peek(pending, 3)
            x = np.sqrt(-2.0 * np.log(u[0])) * np.cos(2.0 * math.pi * u[1])
            t = 1.0 + c * x
            ok = t > 0.0
            slots.skip(pending, 2 + ok)
            v = t * t * t
            accept = ok & (u[2] < 1.0 - 0.0331 * x * x * x * x)
            slow = (ok & ~accept).nonzero()[0]
            xs, vs = x[slow], v[slow]
            accept[slow] = np.log(u[2, slow]) < 0.5 * xs * xs + d * (
                1.0 - vs + np.log(vs))
            # every pending lane is written, and a rejected one rewritten
            # later: cheaper than gathering the accepted ones
            dv = d * v if boost is None else boost[pending] * d * v
            s[pending] = dv / self.rate
            pending = pending[~accept]
        return s


class Erlang(Gamma):
    """Gamma with a positive integer shape: a sum of `shape` exponentials."""
    shape: int

    def _check(self):
        _check_finite("Erlang", self.shape, self.rate)
        if int(self.shape) != self.shape or self.shape < 1:
            raise ValueError("Erlang shape must be a positive integer")
        if self.rate <= 0:
            raise ValueError("Erlang rate must be positive")

    def lane_services(self, slots):
        import numpy as np

        # the sum runs left to right from the first term, as one draw at a
        # time would add it
        k = int(self.shape)
        total = None
        for first in range(0, k, slots.BLOCK):
            terms = -np.log(slots.take(min(slots.BLOCK, k - first)))
            if total is None:
                total, terms = terms[0], terms[1:]
            for term in terms:
                total += term
        return total / self.rate


class Deterministic(ServiceDistribution):
    duration: float

    def _check(self):
        _check_finite("Deterministic", self.duration)
        if self.duration <= 0:
            raise ValueError("Deterministic duration must be positive")

    def _raw_moment(self, k):
        return self.duration ** k

    def _lst(self, s):
        return math.exp(-s * self.duration)

    def _lst_derivative(self, s):
        return -self.duration * math.exp(-s * self.duration)

    def _log_weights(self, lam, n):
        return _poisson_log_weights(lam * self.duration, n)

    def _with_mean(self, b):
        return Deterministic(duration=b)

    def lane_services(self, slots):
        import numpy as np

        return np.full(len(slots), self.duration)


class HyperExponential(ServiceDistribution):
    weights: tuple
    rates: tuple

    def _check(self):
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

    def _raw_moment(self, k):
        return sum(w * math.factorial(k) / r ** k
                   for w, r in zip(self.weights, self.rates))

    def _lst(self, s):
        return sum(w * r / (r + s) for w, r in zip(self.weights, self.rates))

    def _lst_derivative(self, s):
        return -sum(w * r / (r + s) ** 2 for w, r in zip(self.weights, self.rates))

    def _log_weights(self, lam, n):
        return _mixture_log_weights(self.weights, self.rates, lam, n)

    def _with_mean(self, b):
        factor = self.mean() / b
        return HyperExponential(weights=self.weights,
                                rates=tuple(r * factor for r in self.rates))

    def lane_services(self, slots):
        """Pick a phase with the first uniform, draw its exponential with the
        second."""
        import numpy as np

        u = slots.take(2)
        phase = np.searchsorted(np.cumsum(self.weights)[:-1], u[0], side="left")
        return -np.log(u[1]) / np.array(self.rates)[phase]


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
    return cls(**{name: _field_value(kind, v)
                  for (name, kind), v in zip(cls._fields.items(), values)})


def dist_to_dict(d):
    rec = {"type": family_tag(d)}
    for name, kind in d._fields.items():
        value = getattr(d, name)
        rec[name] = list(value) if kind is tuple else value
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
    for name in [*cls._fields, *rec]:
        if name not in rec:
            raise ValueError("distribution %r needs field %r" % (kind, name))
        if name not in cls._fields and name != "type":
            raise ValueError("distribution %r has no field %r" % (kind, name))
    return _from_fields(cls, [rec[name] for name in cls._fields])


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
    elif cls is not None and len(args) == len(cls._fields):
        return _from_fields(cls, args)
    raise ValueError("cannot parse distribution spec %r" % (text,))
