import math

import mpmath
import numpy as np
import pytest

import damctl
import gf_reference
import mp_reference
from damctl import exact, kernels
from damctl.distributions import (Deterministic, Erlang, Exponential, Gamma,
                                  HyperExponential)
from damctl.errors import NumericDegeneracyError

B2 = Exponential(rate=2.0)  # rho2 = 0.5 at lam = 1


def mm1(rho1, level, lam=1.0, b2=B2):
    return exact.DamModel(lam=lam, b1=Exponential(rate=lam / rho1), b2=b2,
                          level=level)


def mm1_closed_form(rho1, level):
    if rho1 == 1.0:
        return level + 1.0
    return (1.0 - rho1 ** (level + 1)) / (1.0 - rho1)


def shape_family(tag):
    return {
        "exp": Exponential(rate=1.0),
        "erlang": Erlang(shape=3, rate=3.0),
        "gamma": Gamma(shape=0.7, rate=0.7),
        "det": Deterministic(duration=1.0),
        "hyper": HyperExponential(weights=(0.4, 0.6), rates=(0.5, 3.0)),
    }[tag]


ALL_FAMILIES = ["exp", "erlang", "gamma", "det", "hyper"]


def test_model_validation():
    with pytest.raises(ValueError):
        exact.DamModel(lam=0.0, b1=Exponential(1.0), b2=B2, level=5)
    with pytest.raises(ValueError):
        exact.DamModel(lam=1.0, b1=Exponential(1.0), b2=B2, level=0)
    with pytest.raises(ValueError):
        # rho2 = 2 violates stability
        exact.DamModel(lam=1.0, b1=Exponential(1.0), b2=Exponential(0.5), level=5)


@pytest.mark.parametrize("rho1", [0.5, 0.8, 1.0, 1.25])
def test_mm1_closed_form(rho1):
    model = mm1(rho1, 200)
    q = exact.busy_period_counts(model)
    want = np.array([mm1_closed_form(rho1, n) for n in range(201)])
    assert np.allclose(q, want, rtol=1e-10)


def test_first_steps():
    model = mm1(0.8, 5)
    q = exact.busy_period_counts(model)
    assert q[0] == 1.0
    r0 = model.b1.mixed_poisson_weights(model.lam, 0)[0]
    assert q[1] == pytest.approx(1.0 / r0, rel=1e-14)
    assert q[5] == pytest.approx(3.68928, rel=1e-12)


def test_critical_is_level_plus_one():
    q = exact.busy_period_counts(mm1(1.0, 9))
    assert q[9] == pytest.approx(10.0, rel=1e-12)


def test_supercritical_first_coefficient():
    model = mm1(1.25, 5)
    c = gf_reference.gf_coefficients(model, 1)
    assert c[1] == pytest.approx(2.25, rel=1e-12)  # 1/r_0 with r_0 = 4/9


@pytest.mark.parametrize("tag", ALL_FAMILIES)
@pytest.mark.parametrize("rho1", [0.8, 1.0, 1.25])
def test_dual_path_equivalence(tag, rho1):
    b1 = shape_family(tag).scale_to_mean(rho1)
    model = exact.DamModel(lam=1.0, b1=b1, b2=B2, level=100)
    q = exact.busy_period_counts(model)
    c = gf_reference.gf_coefficients(model, 100)
    assert np.allclose(c, q, rtol=1e-9)


@pytest.mark.parametrize("tag", ALL_FAMILIES)
@pytest.mark.parametrize("rho1", [0.5, 1.0, 1.5])
def test_counts_nondecreasing(tag, rho1):
    b1 = shape_family(tag).scale_to_mean(rho1)
    model = exact.DamModel(lam=1.0, b1=b1, b2=B2, level=150)
    q = exact.busy_period_counts(model)
    assert np.all(np.diff(q) >= -1e-12 * q[1:])
    assert np.all(q > 0)


def test_busy_period_metrics_example():
    model = mm1(0.8, 5)
    bp = exact.busy_period_metrics(model)
    assert bp.e_nu1 == pytest.approx(3.68928, rel=1e-12)
    assert bp.e_nu2 == pytest.approx(0.524288, rel=1e-12)
    assert bp.e_t1 == pytest.approx(0.8 * 3.68928, rel=1e-12)
    assert bp.e_t2 == pytest.approx(0.5 * 0.524288, rel=1e-12)
    assert bp.e_t == pytest.approx(bp.e_t1 + bp.e_t2, rel=1e-15)
    assert bp.e_idle == 1.0


def test_critical_e_nu2_is_level_free():
    for level in (3, 17, 60):
        bp = exact.busy_period_metrics(mm1(1.0, level))
        assert bp.e_nu2 == pytest.approx(2.0, rel=1e-12)   # 1/(1 - rho2)
        assert bp.e_t2 == pytest.approx(1.0, rel=1e-12)    # rho2/(lam(1-rho2))


@pytest.mark.parametrize("tag", ALL_FAMILIES)
@pytest.mark.parametrize("rho1", [0.7, 1.0, 1.3])
def test_identity_chain(tag, rho1):
    b1 = shape_family(tag).scale_to_mean(rho1)
    model = exact.DamModel(lam=1.0, b1=b1, b2=B2, level=40)
    bp = exact.busy_period_metrics(model)
    assert model.lam * bp.e_t + 1.0 == pytest.approx(bp.e_nu1 + bp.e_nu2,
                                                     rel=1e-9)


def test_stationary_probs_example():
    model = mm1(0.8, 5)
    p1, p2 = exact.stationary_probs(model)
    assert p1 == pytest.approx(0.237329, abs=1e-6)
    assert p2 == pytest.approx(0.062215, abs=1e-6)
    # cross-check: p2 = rho2 * e_nu2 / (e_nu1 + e_nu2)
    bp = exact.busy_period_metrics(model)
    assert p2 == pytest.approx(0.5 * bp.e_nu2 / (bp.e_nu1 + bp.e_nu2), rel=1e-12)


@pytest.mark.parametrize("tag", ALL_FAMILIES)
@pytest.mark.parametrize("rho1", [0.7, 1.0, 1.3])
def test_renewal_reward_consistency(tag, rho1):
    b1 = shape_family(tag).scale_to_mean(rho1)
    model = exact.DamModel(lam=1.0, b1=b1, b2=B2, level=30)
    p1, p2 = exact.stationary_probs(model)
    bp = exact.busy_period_metrics(model)
    cycle = bp.e_t + bp.e_idle
    assert abs(p1 - bp.e_idle / cycle) < 1e-12
    assert abs(p2 - bp.e_t2 / cycle) < 1e-12


def test_cost_examples():
    costs = exact.CostModel(j1=1.0, j2=1.0)
    # 1.497720 = 5 * (0.237329 + 0.062215) carries the rounding of the
    # six-decimal p values, so allow 5 * 1e-6 each way
    assert exact.cost(mm1(0.8, 5), costs) == pytest.approx(1.497720, abs=1e-5)
    assert exact.cost(mm1(0.8, 5), exact.CostModel(0.0, 0.0)) == 0.0
    assert exact.cost(mm1(1.0, 9), costs) == pytest.approx(1.5, rel=1e-12)


def test_supercritical_rescaling_path():
    # Q grows like (1/phi)^L = 1.5^L here; L = 4000 overflows plain doubles
    model = mm1(1.5, 4000)
    q = exact.busy_period_counts(model)
    assert q[-1] == math.inf  # float view saturates
    p1, p2 = exact.stationary_probs(model)
    assert p1 == 0.0
    assert p2 == pytest.approx(0.5 * 0.5 / 1.0, rel=1e-9)  # rho2(rho1-1)/(rho1-rho2)


def test_numeric_degeneracy():
    model = exact.DamModel(lam=1.0, b1=Deterministic(duration=800.0),
                           b2=B2, level=5)
    with pytest.raises(NumericDegeneracyError):
        exact.busy_period_counts(model)
    with pytest.raises(NumericDegeneracyError):
        gf_reference.gf_coefficients(model, 5)


def _reference_probs(model):
    """(p1, p2) from the 40-digit Q_L."""
    log_q = mp_reference.log_counts(model)[-1]
    return exact._probs(model, float(mpmath.exp(-log_q)))


def test_extended_precision_matches_double():
    model = mm1(0.8, 100)
    assert mp_reference.worst_log_error(model) < 1e-12
    assert exact.stationary_probs(model) == pytest.approx(
        _reference_probs(model), rel=1e-12)


@pytest.mark.parametrize("level", [4000, 16000, 32000])
@pytest.mark.parametrize("load", ["0.8", "1-2/L", "1", "1+1/L", "1.5"])
def test_mm1_closed_form_near_critical(level, load):
    # the optimum sits at rho1 = 1 +- C/L, where a subtractive recurrence
    # loses the most digits; the closed form is taken at the law's own
    # rho1 = 1/rate, at 40 digits
    rho1 = {"0.8": 0.8, "1-2/L": 1.0 - 2.0 / level, "1": 1.0,
            "1+1/L": 1.0 + 1.0 / level, "1.5": 1.5}[load]
    model = mm1(rho1, level)
    with mpmath.workdps(40):
        rho = 1 / mpmath.mpf(model.b1.rate)
        want = (rho ** (level + 1) - 1) / (rho - 1) if rho != 1 else level + 1
        log_want = float(mpmath.log(want))
    assert abs(mp_reference.double_log_q(model) - log_want) < 1e-11
    e_nu1 = exact.busy_period_metrics(model).e_nu1
    if log_want > 709.0:
        assert e_nu1 == math.inf
    else:
        assert e_nu1 == pytest.approx(math.exp(log_want), rel=1e-11)


@pytest.mark.parametrize("tag", ALL_FAMILIES)
@pytest.mark.parametrize("rho1", [0.995, 1.0, 1.005])
def test_counts_match_40_digit_reference_near_critical(tag, rho1):
    model = exact.DamModel(lam=1.0, b1=shape_family(tag).scale_to_mean(rho1),
                           b2=B2, level=200)
    assert mp_reference.worst_log_error(model) < 1e-12


_B = kernels._RENEWAL_BLOCK


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 8, 9, 16, 17, _B - 1, _B,
                                   _B + 1, 2 * _B, 2 * _B + 1])
@pytest.mark.parametrize("tag", ALL_FAMILIES)
@pytest.mark.parametrize("rho1", [0.995, 1.0, 1.005])
def test_counts_match_40_digit_reference_across_block_seams(level, tag, rho1):
    # the renewal loop's blocks start at 1, 2, 4, 8, 16, 32, 64, ...: these
    # levels end a run on and just past the doubling seams, and just before,
    # on and just past the first two full-block boundaries
    model = exact.DamModel(lam=1.0, b1=shape_family(tag).scale_to_mean(rho1),
                           b2=B2, level=level)
    assert mp_reference.worst_log_error(model) < 1e-12


@pytest.mark.parametrize("level", [10, 50])
def test_long_tailed_law_reads_its_weights_far_past_level(level):
    # a phase of mean 99 and weight 0.01: T_L falls as 0.99^L, so the
    # weights must run far past 2L + 200 before their left-out sum is
    # negligible next to it
    b1 = HyperExponential(weights=(0.99, 0.01), rates=(100.0, 0.0101))
    model = exact.DamModel(lam=1.0, b1=b1, b2=B2, level=level)
    assert mp_reference.worst_log_error(model) < 1e-12


def test_tail_too_long_to_sum_enters_as_one_remainder(monkeypatch):
    # shape 1e-8: the weights fall as (1 + 1e-8)^-j, so summing the tail
    # would take billions of them
    model = exact.DamModel(lam=1.0, b1=Gamma(shape=1e-8, rate=1e-8), b2=B2,
                           level=10)
    read, real = [], exact._weights
    monkeypatch.setattr(exact, "_weights",
                        lambda m, n: read.append(n) or real(m, n))
    assert mp_reference.worst_log_error(model) < 1e-12
    assert max(read) == exact._MAX_WEIGHTS


@pytest.mark.parametrize("tag", ALL_FAMILIES)
@pytest.mark.parametrize("rho1", [0.8, 1.0, 1.25])
def test_solve_matches_single_metric_entry_points(tag, rho1):
    model = exact.DamModel(lam=1.0, b1=shape_family(tag).scale_to_mean(rho1),
                           b2=B2, level=60)
    costs = exact.CostModel(j1=2.0, j2=0.5)
    sol = exact.solve(model, costs)
    assert sol.busy == exact.busy_period_metrics(model)
    assert (sol.p1, sol.p2) == exact.stationary_probs(model)
    assert sol.cost == exact.cost(model, costs)
    assert exact.solve(model).cost is None


def test_solve_runs_one_recurrence(monkeypatch):
    calls = []
    real = kernels.busy_period_recurrence

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "busy_period_recurrence", counting)
    exact.solve(mm1(1.0, 50), exact.CostModel(j1=1.0, j2=1.0))
    assert calls == [50]


def test_solve_goes_through_busy_period_metrics(monkeypatch):
    # tracing wrappers replace the module attribute; solve must still hit it
    calls = []
    real = exact.busy_period_metrics

    def counting(model, **kwargs):
        calls.append(model.level)
        return real(model, **kwargs)

    monkeypatch.setattr(exact, "busy_period_metrics", counting)
    exact.solve(mm1(1.0, 50))
    assert calls == [50]


@pytest.mark.parametrize("level", [exact.MAX_LEVEL + 1, 10 ** 13])
def test_level_above_bound_is_refused_before_the_weights(level, monkeypatch):
    def no_weights(model, n):
        raise AssertionError("weights computed for level %d" % model.level)

    monkeypatch.setattr(exact, "_weights", no_weights)
    model = mm1(1.0, level)
    for entry in (exact.solve, exact.busy_period_counts,
                  exact.stationary_probs):
        with pytest.raises(ValueError, match="largest"):
            entry(model)
    with pytest.raises(ValueError, match="largest"):
        exact.cost(model, exact.CostModel(1.0, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_models_reject_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        exact.DamModel(lam=bad, b1=Exponential(rate=1.25), b2=B2, level=5)
    with pytest.raises(ValueError, match="finite"):
        exact.CostModel(j1=bad, j2=1.0)
    with pytest.raises(ValueError, match="finite"):
        exact.CostModel(j1=1.0, j2=bad)


@pytest.mark.parametrize("b1", [Exponential(rate=2e-300),
                                Deterministic(duration=20.0),
                                Deterministic(duration=600.0)])
def test_tiny_r0_matches_extended_precision(b1):
    # r_0 = 2e-300, 2.1e-9 and 2.6e-261: a_k = T_k / r_0 reaches 1/r_0, and
    # the tilt x is near log r_0
    model = exact.DamModel(lam=1.0, b1=b1, b2=B2, level=50)
    costs = exact.CostModel(2.0, 1.0)
    want = exact._level_cost(model, costs, *_reference_probs(model))
    assert exact.cost(model, costs) == pytest.approx(want, rel=1e-12)
    assert exact.solve(model, costs).cost == pytest.approx(want, rel=1e-12)
    log_want = float(mp_reference.log_counts(model)[-1])
    assert mp_reference.double_log_q(model) == pytest.approx(log_want, rel=1e-12)


def test_non_finite_q_top_is_a_numeric_error(monkeypatch):
    def nan_single(a, L, x):
        return np.full(L + 1, np.nan), np.zeros(L + 1, dtype=np.int64)

    monkeypatch.setattr(kernels, "busy_period_recurrence", nan_single)
    costs = exact.CostModel(1.0, 1.0)
    with pytest.raises(NumericDegeneracyError, match="non-finite"):
        exact.cost(mm1(0.8, 10), costs)
    with pytest.raises(NumericDegeneracyError, match="non-finite"):
        exact.solve(mm1(0.8, 10))
