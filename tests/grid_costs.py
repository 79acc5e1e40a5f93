"""The limiting costs over a whole grid of C at once, for grid-scan oracles.

These are the literal formulas of `asymptotics.j_upper` and `j_lower`,
evaluated with numpy so that a million-point scan takes milliseconds.  At
C = 0 both take the continuous extension, the critical-regime cost.  The
scans stop at C = 10 rho12_tilde, where 2C / rho12_tilde is far below exp's
overflow.
"""

import numpy as np


def _critical(rho12t, rho2, costs):
    return rho12t / 2.0 * (costs.j1 + costs.j2 * rho2 / (1.0 - rho2))


def j_upper(c, rho12t, rho2, costs):
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.exp(2.0 * c / rho12t)
        val = c * (costs.j1 / (e - 1.0)
                   + costs.j2 * rho2 * e / ((1.0 - rho2) * (e - 1.0)))
    return np.where(c == 0.0, _critical(rho12t, rho2, costs), val)


def j_lower(c, rho12t, rho2, costs):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.exp(rho12t / (2.0 * c))
        val = c * (costs.j1 * e + costs.j2 * rho2 / (1.0 - rho2) * (e - 1.0))
    return np.where(c == 0.0, _critical(rho12t, rho2, costs), val)
