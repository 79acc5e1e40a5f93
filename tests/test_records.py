"""Every damctl record behaves as the frozen dataclass it replaced.

Each case is checked against a frozen dataclass with the same name, fields
and defaults, built here as the reference.
"""

import copy
import dataclasses
import pickle

import pytest

from damctl.control import ControlSolution
from damctl.distributions import (Deterministic, Erlang, Exponential, Gamma,
                                  HyperExponential)
from damctl.exact import BusyPeriodMetrics, ExactSolution
from damctl.model import CostModel, DamModel, SimulationConfig
from damctl.simulator import SimulationReport

MODEL = DamModel(1.0, Exponential(1.25), Exponential(2.0), 5)
BUSY = BusyPeriodMetrics(3.7, 0.5, 2.9, 0.25, 3.2, 1.0)

# class -> arguments for every field, in field order
CASES = {
    Exponential: (1.0,),
    Gamma: (0.7, 0.875),
    Erlang: (2, 1.0),
    Deterministic: (0.8,),
    HyperExponential: ((0.4, 0.6), (0.5, 3.0)),
    DamModel: (1.0, Exponential(1.25), Gamma(2.0, 4.0), 5),
    CostModel: (2.0, 1.0),
    SimulationConfig: (MODEL, 64, 3, 4),
    ControlSolution: ("upper_penalized", 1.03, 0.0103, 1.0103, 1.0103, 2.75,
                      "asymptotic"),
    BusyPeriodMetrics: (3.7, 0.5, 2.9, 0.25, 3.2, 1.0),
    ExactSolution: (BUSY, 0.23, 0.06, 1.49),
    SimulationReport: (0.24, 0.06, 3.7, 0.5, 2.9, 0.25,
                       {"p1": 0.01, "p2": 0.02}, 64, 3),
}
CLASSES = list(CASES)


def _twin(cls):
    """The frozen dataclass with cls's name, fields and defaults."""
    spec = [(name, kind, dataclasses.field(default=getattr(cls, name)))
            if hasattr(cls, name) else (name, kind)
            for name, kind in cls._fields.items()]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _record(cls):
    return cls(*CASES[cls])


@pytest.mark.parametrize("cls", CLASSES)
def test_positional_and_keyword_construction(cls):
    args = CASES[cls]
    names = list(cls._fields)
    assert len(names) == len(args)
    rec = cls(*args)
    assert cls(**dict(zip(names, args))) == rec
    assert cls(*args[:1], **dict(zip(names[1:], args[1:]))) == rec
    assert [getattr(rec, n) for n in names] == list(args)


def test_field_order():
    assert {cls.__name__: " ".join(cls._fields) for cls in CLASSES} == {
        "Exponential": "rate", "Gamma": "shape rate", "Erlang": "shape rate",
        "Deterministic": "duration", "HyperExponential": "weights rates",
        "DamModel": "lam b1 b2 level", "CostModel": "j1 j2",
        "SimulationConfig": "model n_cycles seed batch_count",
        "ControlSolution": "regime c_star delta_star rho1_star b1_star "
                           "predicted_cost mode",
        "BusyPeriodMetrics": "e_nu1 e_nu2 e_t1 e_t2 e_t e_idle",
        "ExactSolution": "busy p1 p2 cost",
        "SimulationReport": "p1_hat p2_hat e_nu1_hat e_nu2_hat e_t1_hat "
                            "e_t2_hat half_widths cycles seed",
    }


def test_erlang_keeps_gamma_field_order_with_an_integer_shape():
    assert Erlang._fields == {"shape": int, "rate": float}
    assert Gamma._fields == {"shape": float, "rate": float}
    assert Erlang(3, 2.0).shape == 3


def test_defaults():
    cfg = SimulationConfig(MODEL, 64)
    assert (cfg.seed, cfg.batch_count) == (0, 32)
    assert cfg == SimulationConfig(model=MODEL, n_cycles=64, seed=0,
                                   batch_count=32)
    assert ExactSolution(BUSY, 0.2, 0.1).cost is None
    assert repr(ExactSolution(BUSY, 0.2, 0.1)) == repr(
        _twin(ExactSolution)(BUSY, 0.2, 0.1))


@pytest.mark.parametrize("cls", CLASSES)
def test_missing_unknown_and_duplicated_fields_raise(cls):
    args = CASES[cls]
    first = next(iter(cls._fields))
    with pytest.raises(TypeError, match="missing"):
        cls()
    with pytest.raises(TypeError, match="unexpected"):
        cls(*args, bogus=1)
    with pytest.raises(TypeError, match="multiple"):
        cls(*args, **{first: args[0]})
    with pytest.raises(TypeError):
        cls(*args, args[0])


@pytest.mark.parametrize("cls", CLASSES)
def test_assignment_and_deletion_raise(cls):
    rec = _record(cls)
    for name in cls._fields:
        with pytest.raises(AttributeError, match="assign"):
            setattr(rec, name, None)
        with pytest.raises(AttributeError, match="delete"):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert rec == _record(cls)


@pytest.mark.parametrize("cls", CLASSES)
def test_equality_and_hash(cls):
    args = CASES[cls]
    rec = cls(*args)
    assert rec == cls(*args) and not rec != cls(*args)
    assert rec != _twin(cls)(*args)
    assert rec != args
    twin = _twin(cls)(*args)
    if cls is SimulationReport:  # a dict field: unhashable, as before
        with pytest.raises(TypeError):
            hash(rec)
        with pytest.raises(TypeError):
            hash(twin)
    else:
        assert hash(rec) == hash(twin) == hash(cls(*args))
        assert len({rec, cls(*args)}) == 1


def test_equality_is_by_exact_class():
    assert Erlang(2, 1.0) != Gamma(2.0, 1.0)
    assert Gamma(2.0, 1.0) != Erlang(2, 1.0)
    assert Erlang(2, 1.0) == Erlang(2, 1.0)
    assert Exponential(1.0) != Exponential(2.0)
    assert Exponential(1.0) != Deterministic(1.0)


@pytest.mark.parametrize("cls", CLASSES)
def test_repr_is_the_dataclass_form(cls):
    args = CASES[cls]
    assert repr(cls(*args)) == repr(_twin(cls)(*args))


def test_repr_examples():
    assert repr(Exponential(rate=1.0)) == "Exponential(rate=1.0)"
    assert repr(Erlang(2, 1.0)) == "Erlang(shape=2, rate=1.0)"
    assert repr(MODEL) == ("DamModel(lam=1.0, b1=Exponential(rate=1.25), "
                           "b2=Exponential(rate=2.0), level=5)")


@pytest.mark.parametrize("cls", [c for c in CLASSES if c not in (
    DamModel, SimulationConfig, ExactSolution)])
def test_to_dict_is_asdict(cls):
    args = CASES[cls]
    assert cls(*args).to_dict() == dataclasses.asdict(_twin(cls)(*args))


def test_to_dict_converts_nested_records():
    sol = ExactSolution(*CASES[ExactSolution])
    assert sol.to_dict() == {"busy": BUSY.to_dict(), "p1": 0.23, "p2": 0.06,
                             "cost": 1.49}
    assert MODEL.to_dict()["b1"] == {"rate": 1.25}


def test_to_dict_copies_the_half_widths():
    rep = _record(SimulationReport)
    d = rep.to_dict()
    assert d["half_widths"] == rep.half_widths
    assert d["half_widths"] is not rep.half_widths
    d["half_widths"]["p1"] = 1.0
    assert rep.half_widths["p1"] == 0.01


@pytest.mark.parametrize("cls", CLASSES)
def test_copy_and_pickle(cls):
    rec = _record(cls)
    for clone in (copy.copy(rec), copy.deepcopy(rec),
                  pickle.loads(pickle.dumps(rec))):
        assert clone == rec and type(clone) is cls


def test_validation_runs_at_construction():
    with pytest.raises(ValueError):
        Exponential(rate=-1.0)
    with pytest.raises(ValueError):
        CostModel(j1=-1.0, j2=1.0)
    with pytest.raises(ValueError):
        SimulationConfig(MODEL, n_cycles=16)  # fewer cycles than batches
    h = HyperExponential([0.5, 0.5], [1, 2])
    assert (h.weights, h.rates) == ((0.5, 0.5), (1.0, 2.0))
