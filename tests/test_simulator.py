import numpy as np
import pytest

from damctl import exact, kernels, simulator
from damctl.distributions import (Deterministic, Erlang, Exponential, Gamma,
                                  HyperExponential)

B2 = Exponential(rate=2.0)
MM1 = exact.DamModel(lam=1.0, b1=Exponential(rate=1.25), b2=B2, level=5)


def test_config_validation():
    with pytest.raises(ValueError):
        simulator.SimulationConfig(model=MM1, n_cycles=10, batch_count=1)
    with pytest.raises(ValueError):
        simulator.SimulationConfig(model=MM1, n_cycles=8, batch_count=16)


def test_determinism():
    cfg = simulator.SimulationConfig(model=MM1, n_cycles=5000, seed=7)
    assert simulator.simulate(cfg) == simulator.simulate(cfg)


def test_seed_changes_estimates():
    a = simulator.simulate(simulator.SimulationConfig(model=MM1, n_cycles=5000, seed=1))
    b = simulator.simulate(simulator.SimulationConfig(model=MM1, n_cycles=5000, seed=2))
    assert a != b


def test_matches_exact_probabilities():
    cfg = simulator.SimulationConfig(model=MM1, n_cycles=300_000, seed=11)
    rep = simulator.simulate(cfg)
    p1, p2 = exact.stationary_probs(MM1)
    assert abs(rep.p1_hat - p1) <= 3 * rep.half_widths["p1"]
    assert abs(rep.p2_hat - p2) <= 3 * rep.half_widths["p2"]
    assert rep.p1_hat + rep.p2_hat <= 1.0 + rep.half_widths["p1"] + rep.half_widths["p2"]


@pytest.mark.parametrize("b1", [
    Exponential(rate=1.25),
    Erlang(shape=2, rate=2.5),
    Deterministic(duration=0.8),
    HyperExponential(weights=(0.4, 0.6), rates=(0.625, 3.0)),
])
def test_wald_consistency(b1):
    model = exact.DamModel(lam=1.0, b1=b1, b2=B2, level=5)
    cfg = simulator.SimulationConfig(model=model, n_cycles=200_000, seed=5)
    rep = simulator.simulate(cfg)
    assert abs(rep.e_t1_hat - model.b1.mean() * rep.e_nu1_hat) <= \
        3 * (rep.half_widths["e_t1"] + model.b1.mean() * rep.half_widths["e_nu1"])
    assert abs(rep.e_t2_hat - model.b2.mean() * rep.e_nu2_hat) <= \
        3 * (rep.half_widths["e_t2"] + model.b2.mean() * rep.half_widths["e_nu2"])
    # count balance: e_nu2 = 1/(1-rho2) - (1-rho1)/(1-rho2) * e_nu1
    rho1, rho2 = model.rho1, model.rho2
    want = 1.0 / (1.0 - rho2) - (1.0 - rho1) / (1.0 - rho2) * rep.e_nu1_hat
    slack = 3 * (rep.half_widths["e_nu2"]
                 + abs(1.0 - rho1) / (1.0 - rho2) * rep.half_widths["e_nu1"])
    assert abs(rep.e_nu2_hat - want) <= slack


def test_per_cycle_accounting():
    idle, below, above, nu1, nu2 = kernels.simulate_cycles(
        2000, 3, MM1.lam, MM1.level, MM1.b1, MM1.b2)
    assert np.all(idle > 0)
    assert np.all(nu1 >= 1)
    assert np.all(nu2 >= 0)
    assert np.all(below > 0)
    assert np.all((above > 0) == (nu2 > 0))


def test_confidence_interval_coverage():
    p1_exact, _ = exact.stationary_probs(MM1)
    hits = 0
    for seed in range(100):
        cfg = simulator.SimulationConfig(model=MM1, n_cycles=20_000, seed=seed)
        rep = simulator.simulate(cfg)
        if abs(rep.p1_hat - p1_exact) <= rep.half_widths["p1"]:
            hits += 1
    assert hits >= 90


def test_stream_key_splitting_rule():
    # distinct (seed, index) pairs map to distinct streams
    keys = {key for seed in range(4)
            for key in kernels._stream_keys(seed, np.arange(4)).tolist()}
    assert len(keys) == 16


# Reports of 2,000 cycles at seed 7 (rho1 = 0.8, L = 5).  numpy picks its
# log, cos and power loops by CPU, so these are compared to 1e-12, not to
# the last bit.
PINNED = [
    (Exponential(rate=1.25), dict(
        p1_hat=0.23887701259068045, p2_hat=0.058034607429739815,
        e_nu1_hat=3.624, e_nu2_hat=0.4875,
        e_t1_hat=2.857819048371433, e_t2_hat=0.2358912638867474,
        half_widths=dict(p1=0.02269314769937748, p2=0.01256187431341622,
                         e_nu1=0.3056195299649324, e_nu2=0.1129996479663968,
                         e_t1=0.2879589563474402, e_t2=0.06023649910941691))),
    (Gamma(shape=0.6, rate=0.75), dict(
        p1_hat=0.25730734303651664, p2_hat=0.07982148300909926,
        e_nu1_hat=3.1655, e_nu2_hat=0.5905,
        e_t1_hat=2.5013595269987503, e_t2_hat=0.3012081907150773,
        half_widths=dict(p1=0.020110100152022876, p2=0.016861988674373482,
                         e_nu1=0.22184950323613903, e_nu2=0.13097286967309524,
                         e_t1=0.23982321098663062, e_t2=0.07402027551927871))),
]


@pytest.mark.parametrize("b1, want", PINNED)
def test_pinned_reports(b1, want):
    model = exact.DamModel(lam=1.0, b1=b1, b2=B2, level=5)
    rep = simulator.simulate(simulator.SimulationConfig(model=model,
                                                        n_cycles=2000, seed=7))
    got, want = rep.to_dict(), dict(want)
    assert (got.pop("cycles"), got.pop("seed")) == (2000, 7)
    assert got.pop("half_widths") == pytest.approx(want.pop("half_widths"),
                                                   rel=1e-12)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
def test_config_rejects_out_of_range_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        simulator.SimulationConfig(model=MM1, n_cycles=100, seed=seed)


def test_config_accepts_seed_range_ends():
    for seed in (0, 2 ** 64 - 1):
        cfg = simulator.SimulationConfig(model=MM1, n_cycles=64, seed=seed)
        assert simulator.simulate(cfg).seed == seed


def test_t_quantile_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for df in list(range(1, 301)) + [1000, 100000]:
        for p in (0.975, 0.995, 0.6):
            want = stats.t.ppf(p, df)
            assert simulator._t_quantile(p, df) == pytest.approx(want, rel=1e-12)


def test_t_quantile_closed_forms():
    # df = 1 is Cauchy, df = 2 has t = (2p-1) * sqrt(2 / (1 - (2p-1)^2))
    assert simulator._t_quantile(0.975, 1) == pytest.approx(
        np.tan(np.pi * 0.475), rel=1e-13)
    a = 2 * 0.975 - 1
    assert simulator._t_quantile(0.975, 2) == pytest.approx(
        a * np.sqrt(2 / (1 - a * a)), rel=1e-13)
    assert simulator._t_quantile(0.5, 7) == 0.0
