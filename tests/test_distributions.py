import math

import numpy as np
import pytest

import mp_reference
from damctl.distributions import (Deterministic, Erlang, Exponential, Gamma,
                                  HyperExponential, dist_from_dict,
                                  dist_to_dict, parse_dist_spec)

FAMILIES = [
    Exponential(rate=1.25),
    Erlang(shape=3, rate=2.0),
    Gamma(shape=0.7, rate=0.875),
    Deterministic(duration=0.8),
    HyperExponential(weights=(0.4, 0.6), rates=(0.5, 3.0)),
]


def test_means():
    assert Exponential(rate=2.0).mean() == 0.5
    assert Erlang(shape=3, rate=2.0).mean() == 1.5
    assert Deterministic(duration=1.7).mean() == 1.7


def test_raw_moments():
    assert Exponential(rate=1.0).raw_moment(2) == 2.0
    assert Deterministic(duration=2.0).raw_moment(3) == 8.0
    h = HyperExponential(weights=(0.5, 0.5), rates=(1.0, 2.0))
    assert h.raw_moment(2) == pytest.approx(1.25, rel=1e-15)


@pytest.mark.parametrize("d", FAMILIES)
def test_raw_moment_order_validation(d):
    for k in (0, 4):
        with pytest.raises(ValueError, match="order"):
            d.raw_moment(k)


@pytest.mark.parametrize("d", FAMILIES)
def test_lst_at_zero_is_one(d):
    assert d.lst(0.0) == pytest.approx(1.0, abs=1e-15)


def test_lst_values():
    assert Exponential(rate=1.0).lst(1.0) == 0.5
    assert Deterministic(duration=1.0).lst(1.0) == pytest.approx(math.exp(-1.0))


@pytest.mark.parametrize("d", FAMILIES)
def test_lst_rejects_negative_argument(d):
    for s in (-0.1, -1e-9):
        with pytest.raises(ValueError, match="nonnegative"):
            d.lst(s)
        with pytest.raises(ValueError, match="nonnegative"):
            d.lst_derivative(s)


@pytest.mark.parametrize("d", FAMILIES)
def test_lst_derivative_at_zero_is_minus_mean(d):
    assert d.lst_derivative(0.0) == pytest.approx(-d.mean(), rel=1e-12)


def test_lst_derivative_values():
    assert Exponential(rate=0.8).lst_derivative(0.2) == pytest.approx(-0.8)
    assert Deterministic(duration=1.0).lst_derivative(1.0) == pytest.approx(-math.exp(-1.0))


@pytest.mark.parametrize("d", FAMILIES)
@pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 3.0])
def test_lst_derivative_matches_finite_difference(d, s):
    h = 1e-6
    fd = (d.lst(s + h) - d.lst(s - h)) / (2 * h)
    assert d.lst_derivative(s) == pytest.approx(fd, rel=1e-6)


def test_weight_examples():
    r = Exponential(rate=1.0).mixed_poisson_weights(1.0, 2)
    assert np.allclose(r, [0.5, 0.25, 0.125], rtol=1e-14)
    r = Deterministic(duration=1.0).mixed_poisson_weights(1.0, 1)
    assert np.allclose(r, [math.exp(-1.0)] * 2, rtol=1e-14)
    r = Erlang(shape=2, rate=2.0).mixed_poisson_weights(1.0, 0)
    assert r[0] == pytest.approx((2.0 / 3.0) ** 2, rel=1e-14)


@pytest.mark.parametrize("d", FAMILIES)
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_weight_normalization_and_moments(d, lam):
    n = 4000  # far enough out that the tail is < 1e-10 for these laws
    r = np.array(d.mixed_poisson_weights(lam, n))
    assert np.all(r >= 0)
    assert abs(1.0 - r.sum()) < 1e-10
    j = np.arange(n + 1)
    assert float((j * r).sum()) == pytest.approx(lam * d.mean(), rel=1e-8)
    assert float((j * (j - 1) * r).sum()) == pytest.approx(
        lam ** 2 * d.raw_moment(2), rel=1e-8)


def test_weights_reject_bad_lambda():
    d = Exponential(rate=1.0)
    with pytest.raises(ValueError):
        d.mixed_poisson_weights(0.0, 5)
    with pytest.raises(ValueError):
        d.mixed_poisson_weights(-1.0, 5)


def test_weights_survive_deep_tails():
    # r_0 = exp(-600) is tiny but must come out positive, not zero
    r = Deterministic(duration=600.0).mixed_poisson_weights(1.0, 10)
    assert r[0] > 0
    assert r[0] == pytest.approx(math.exp(-600.0), rel=1e-10)


@pytest.mark.parametrize("d", FAMILIES)
@pytest.mark.parametrize("b", [0.25, 1.0, 3.0])
def test_scale_to_mean(d, b):
    scaled = d.scale_to_mean(b)
    assert type(scaled) is type(d)
    assert scaled.mean() == pytest.approx(b, rel=1e-12)
    ratio = b / d.mean()
    for k in (1, 2, 3):
        assert scaled.raw_moment(k) == pytest.approx(
            ratio ** k * d.raw_moment(k), rel=1e-12)


def test_scale_to_mean_examples():
    assert Exponential(rate=2.0).scale_to_mean(1.0) == Exponential(rate=1.0)
    assert Deterministic(duration=3.0).scale_to_mean(1.5) == Deterministic(duration=1.5)
    assert Erlang(shape=2, rate=1.0).scale_to_mean(1.0) == Erlang(shape=2, rate=2.0)


@pytest.mark.parametrize("d", FAMILIES)
def test_scale_to_mean_rejects_nonpositive(d):
    for b in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            d.scale_to_mean(b)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Exponential(rate=0.0)
    with pytest.raises(ValueError):
        Erlang(shape=0, rate=1.0)
    with pytest.raises(ValueError):
        Deterministic(duration=-1.0)
    with pytest.raises(ValueError):
        HyperExponential(weights=(0.5, 0.6), rates=(1.0, 2.0))
    with pytest.raises(ValueError):
        HyperExponential(weights=(0.5, 0.5), rates=(1.0, -2.0))


@pytest.mark.parametrize("d", FAMILIES)
def test_dict_round_trip(d):
    assert dist_from_dict(dist_to_dict(d)) == d


@pytest.mark.parametrize("d", FAMILIES)
def test_spec_round_trip(d):
    rec = dist_to_dict(d)
    values = [rec[name] for name in type(d)._fields]
    if isinstance(d, HyperExponential):
        values = [x for pair in zip(*values) for x in pair]
    spec = ":".join([rec["type"]] + [repr(v) for v in values])
    assert parse_dist_spec(spec) == d
    assert type(parse_dist_spec(spec)) is type(d)


def test_parse_dist_spec():
    assert parse_dist_spec("exp:1.25") == Exponential(rate=1.25)
    assert parse_dist_spec("erlang:2:2.0") == Erlang(shape=2, rate=2.0)
    assert parse_dist_spec("gamma:0.7:0.875") == Gamma(shape=0.7, rate=0.875)
    assert parse_dist_spec("det:1.7") == Deterministic(duration=1.7)
    assert parse_dist_spec("hyper:0.4:0.5:0.6:3.0") == HyperExponential(
        weights=(0.4, 0.6), rates=(0.5, 3.0))
    assert parse_dist_spec("exponential:1.25") == Exponential(rate=1.25)
    assert parse_dist_spec("deterministic:1.7") == Deterministic(duration=1.7)
    for bad in ("weird:1", "exp", "erlang:2.5:1", "hyper:0.4:0.5:0.6"):
        with pytest.raises(ValueError):
            parse_dist_spec(bad)


@pytest.mark.parametrize("d, kind, params", [
    (Gamma(shape=0.6, rate=0.6 / 1.0005), "negbin", (0.6, 0.6 / 1.0005)),
    (Gamma(shape=2.3, rate=2.3 * 1.0005), "negbin", (2.3, 2.3 * 1.0005)),
    (Erlang(shape=3, rate=3.0), "negbin", (3, 3.0)),
    (Deterministic(duration=0.9995), "poisson", (0.9995,)),
    (Deterministic(duration=25.0), "poisson", (25.0,)),
    (Deterministic(duration=600.0), "poisson", (600.0,)),
])
def test_weights_match_loggamma_reference(d, kind, params):
    n = 4000
    want = np.exp([float(x) for x in
                   mp_reference.log_weights(kind, params, 1.0, n)])
    normal = want > 1e-300  # compare where the reference is a normal double
    assert normal.sum() > 100
    got = np.array(d.mixed_poisson_weights(1.0, n))
    np.testing.assert_allclose(got[normal], want[normal], rtol=2e-11, atol=0)


@pytest.mark.parametrize("make", [
    lambda x: Exponential(rate=x),
    lambda x: Erlang(shape=2, rate=x),
    lambda x: Gamma(shape=x, rate=1.0),
    lambda x: Gamma(shape=1.0, rate=x),
    lambda x: Deterministic(duration=x),
    lambda x: HyperExponential(weights=(0.5, 0.5), rates=(1.0, x)),
    lambda x: HyperExponential(weights=(x, 0.5), rates=(1.0, 2.0)),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_constructors_reject_non_finite(make, bad):
    with pytest.raises(ValueError, match="finite"):
        make(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_weights_reject_non_finite_lambda(bad):
    with pytest.raises(ValueError):
        Exponential(rate=1.0).mixed_poisson_weights(bad, 5)
