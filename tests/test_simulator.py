import numpy as np
import pytest

from damctl import exact, kernels, simulator
from damctl.distributions import Deterministic, Erlang, Exponential, HyperExponential

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
    cfg = simulator.SimulationConfig(model=MM1, n_cycles=2000, seed=3)
    idle, below, above, nu1, nu2 = simulator.simulate_raw(cfg)
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


def test_sweep_is_elementwise_and_order_free():
    cfgs = [simulator.SimulationConfig(model=MM1, n_cycles=2000, seed=s)
            for s in (1, 2, 3)]
    reports = simulator.sweep_simulate(cfgs)
    assert reports[0] == simulator.simulate(cfgs[0])
    permuted = simulator.sweep_simulate(cfgs[::-1])
    assert permuted == reports[::-1]
    p1, p2 = exact.stationary_probs(MM1)
    for rep in simulator.sweep_simulate(
            [simulator.SimulationConfig(model=MM1, n_cycles=100_000, seed=s)
             for s in (21, 42)]):
        assert abs(rep.p1_hat - p1) <= 3 * rep.half_widths["p1"]
        assert abs(rep.p2_hat - p2) <= 3 * rep.half_widths["p2"]
    with pytest.raises(ValueError):
        simulator.sweep_simulate([])


def test_stream_key_splitting_rule():
    # distinct (seed, index) pairs map to distinct streams
    keys = {kernels.stream_key(seed, idx) for seed in range(4) for idx in range(4)}
    assert len(keys) == 16


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
