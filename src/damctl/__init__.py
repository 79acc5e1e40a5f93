"""damctl: performance analysis and release-rate control of a
threshold-modulated M/GI/1 dam model.

The names below are re-exported lazily (PEP 562): `from damctl import
solve` imports `damctl.exact` on first use, so importing the package, or
a submodule that does not need numpy, does not load numpy.
"""

import importlib

_EXPORTS = {
    "distributions": ("Deterministic", "Erlang", "Exponential", "Gamma",
                      "HyperExponential", "ServiceDistribution",
                      "dist_from_dict", "dist_to_dict", "parse_dist_spec"),
    "errors": ("DamctlError", "NumericDegeneracyError", "RegimeError"),
    "model": ("CostModel", "DamModel", "SimulationConfig"),
    "exact": ("BusyPeriodMetrics", "ExactSolution", "busy_period_counts",
              "busy_period_metrics", "cost", "solve", "stationary_probs"),
    "asymptotics": ("critical_decay", "heavy_lower", "heavy_upper", "j_lower",
                    "j_upper", "limit_subcritical", "rho12_tilde", "root_phi",
                    "supercritical"),
    "control": ("ControlSolution", "classify_regime", "optimize_asymptotic",
                "optimize_exact"),
    "simulator": ("SimulationReport", "simulate"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        mod = _MODULE_OF[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name)) from None
    value = getattr(importlib.import_module("." + mod, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
