"""damctl: performance analysis and release-rate control of a
threshold-modulated M/GI/1 dam model."""

from .distributions import (Deterministic, Erlang, Exponential, Gamma,
                            HyperExponential, ServiceDistribution,
                            dist_from_dict, dist_to_dict, parse_dist_spec)
from .errors import DamctlError, NumericDegeneracyError, RegimeError
from .exact import (BusyPeriodMetrics, CostModel, DamModel, ExactSolution,
                    busy_period_counts, busy_period_metrics, cost,
                    gf_coefficients, solve, stationary_probs)
from .asymptotics import (AsymptoticRegime, critical_decay, heavy_lower,
                          heavy_upper, j_lower, j_upper, limit_subcritical,
                          rho12_tilde, root_phi, supercritical)
from .control import (ControlSolution, classify_regime, optimize_asymptotic,
                      optimize_exact)
from .simulator import (SimulationConfig, SimulationReport, simulate,
                        sweep_simulate)

__version__ = "0.1.0"
