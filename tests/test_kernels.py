import numpy as np
import pytest

from damctl import exact, kernels, simulator
from damctl.distributions import (Deterministic, Erlang, Exponential, Gamma,
                                  HyperExponential)

B2 = Exponential(rate=2.0)

needs_numba = pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba not installed")


def test_backend_env_selection(monkeypatch):
    monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "numpy")
    assert kernels.active_backend() == "numpy"
    monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "bogus")
    with pytest.raises(RuntimeError):
        kernels.active_backend()
    monkeypatch.delenv(kernels.BACKEND_ENV_VAR)
    assert kernels.active_backend() in ("numba", "numpy")


@pytest.mark.parametrize("rho1", [0.8, 1.0, 1.25])
def test_recurrence_numpy_matches_loop(rho1):
    # _recurrence_loop is the source the numba backend compiles
    r = Exponential(rate=1.0 / rho1).mixed_poisson_weights(1.0, 299)
    q_np, e_np = kernels.busy_period_recurrence(r, 300, backend="numpy")
    q_loop, e_loop = kernels._recurrence_loop(r, 300)
    assert np.array_equal(e_np, e_loop)
    assert np.allclose(q_np, q_loop, rtol=1e-12, atol=0.0)


def test_recurrence_numpy_matches_loop_on_rescaled_values():
    r = Exponential(rate=0.1).mixed_poisson_weights(1.0, 299)
    q_np, e_np = kernels.busy_period_recurrence(r, 300, backend="numpy")
    q_loop, e_loop = kernels._recurrence_loop(r, 300)
    assert np.array_equal(e_np, e_loop)
    assert e_loop[-1] > 0  # the rescaling path actually ran
    assert np.allclose(q_np, q_loop, rtol=1e-12, atol=0.0)


SIM_FAMILIES = {
    "exp": Exponential(rate=1.0),
    "erlang": Erlang(shape=3, rate=3.0),
    "gamma-boosted": Gamma(shape=0.7, rate=0.7),
    "gamma": Gamma(shape=2.5, rate=2.5),
    "det": Deterministic(duration=1.0),
    "hyper": HyperExponential(weights=(0.4, 0.6), rates=(0.5, 3.0)),
}


@pytest.mark.parametrize("rho1", [0.8, 1.2])
@pytest.mark.parametrize("family", sorted(SIM_FAMILIES))
def test_lane_simulator_matches_scalar_kernel(family, rho1, monkeypatch):
    # a narrow lane pool makes finished lanes both take new cycles and,
    # once every cycle has started, drop out
    monkeypatch.setattr(kernels, "_LANES", 32)
    shape = SIM_FAMILIES[family]
    model = exact.DamModel(lam=1.0, b1=shape.scale_to_mean(rho1),
                           b2=shape.scale_to_mean(0.5), level=3)
    k1, p1 = simulator._encode(model.b1)
    k2, p2 = simulator._encode(model.b2)
    args = (300, 2024, model.lam, model.level, k1, p1, k2, p2)
    scalar_sim = kernels._build_sim(None)[0]
    with np.errstate(over="ignore"):
        want = scalar_sim(*args)
    got = kernels.simulate_cycles(*args, backend="numpy")
    for w, g in zip(want, got):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@needs_numba
@pytest.mark.parametrize("rho1", [0.8, 1.0, 1.25])
def test_recurrence_backends_agree(rho1):
    model = exact.DamModel(lam=1.0, b1=Exponential(rate=1.0 / rho1), b2=B2,
                           level=300)
    q_nb = exact.busy_period_counts(model, backend="numba")
    q_np = exact.busy_period_counts(model, backend="numpy")
    assert np.allclose(q_nb, q_np, rtol=1e-12)


@needs_numba
def test_recurrence_backends_agree_on_rescaled_values():
    r = Exponential(rate=1.0 / 1.5).mixed_poisson_weights(1.0, 3999)
    q_nb, e_nb = kernels.busy_period_recurrence(r, 4000, backend="numba")
    q_np, e_np = kernels.busy_period_recurrence(r, 4000, backend="numpy")
    assert np.array_equal(e_nb, e_np)
    assert e_nb[-1] > 0  # the rescaling path actually ran
    assert np.allclose(q_nb, q_np, rtol=1e-9)


@needs_numba
def test_stream_key_backends_agree():
    for seed in (0, 1, 2 ** 40):
        for idx in (0, 1, 999):
            assert kernels.stream_key(seed, idx, backend="numba") == \
                kernels.stream_key(seed, idx, backend="numpy")


@needs_numba
@pytest.mark.parametrize("b1", [Exponential(rate=1.25), Gamma(shape=0.7, rate=0.875)])
def test_simulation_backends_agree(b1):
    model = exact.DamModel(lam=1.0, b1=b1, b2=B2, level=5)
    cfg = simulator.SimulationConfig(model=model, n_cycles=1500, seed=9)
    assert simulator.simulate(cfg, backend="numba") == \
        simulator.simulate(cfg, backend="numpy")


def test_batched_rows_match_single_recurrence():
    # rho1 from 0.5 to 10 over three families, shuffled so that rows which
    # rescale (up to four times) and rows which do not sit side by side,
    # plus rows with r_0 = 2e-300 and 2.1e-9 that rescale below 1e300
    L = 300
    shapes = [Exponential(rate=1.0), Deterministic(duration=1.0),
              Gamma(shape=0.6, rate=0.6)]
    rho1 = np.random.default_rng(7).permutation(np.geomspace(0.5, 10.0, 101))
    laws = [shapes[i % 3].scale_to_mean(x) for i, x in enumerate(rho1)]
    laws[40:40] = [Exponential(rate=2e-300), Deterministic(duration=20.0)]
    r = np.array([law.mixed_poisson_weights(1.0, L - 1) for law in laws])
    mant, ex = kernels.busy_period_recurrence_rows(r, L)
    want = [kernels.busy_period_recurrence(row, L, backend="numpy") for row in r]
    want_mant = np.array([q[-1] for q, _ in want])
    want_ex = np.array([e[-1] for _, e in want])
    assert np.array_equal(ex, want_ex)
    assert np.allclose(mant, want_mant, rtol=1e-12, atol=0.0)
    assert np.isfinite(mant).all()
    assert 0 < (want_ex > 0).sum() < len(r)


def test_batched_rows_edge_sizes():
    r = Exponential(rate=0.8).mixed_poisson_weights(1.0, 4)
    mant, ex = kernels.busy_period_recurrence_rows(r[None, :1], 1)
    assert mant[0] == 1.0 / r[0] and ex[0] == 0
    mant, ex = kernels.busy_period_recurrence_rows(np.empty((0, 5)), 5)
    assert mant.shape == ex.shape == (0,)


@pytest.mark.parametrize("b1", [Exponential(rate=2e-300),
                                Deterministic(duration=20.0)])
def test_numba_source_stays_finite_at_tiny_r0(b1):
    # the loop numba compiles, run uncompiled, rescales below 1e300 as the
    # numpy recurrence does
    r = b1.mixed_poisson_weights(1.0, 59)
    q, ex = kernels._recurrence_loop(r, 60)
    want_q, want_ex = kernels.busy_period_recurrence(r, 60, backend="numpy")
    assert np.isfinite(q).all()
    assert np.array_equal(ex, want_ex)
    assert np.allclose(q, want_q, rtol=1e-12, atol=0.0)
