"""A second route to Q_0..Q_n for the tests: the series coefficients of
r(z) / (r(z) - z) by formal power-series division, each step an exactly
rounded sum (math.fsum), independent of the renewal loop in damctl.kernels.
"""

import math

import numpy as np

from damctl import exact


def gf_coefficients(model, n):
    """First n+1 series coefficients of r(z) / (r(z) - z), from the model's
    double weights r_0..r_n (refusing an underflowing r_0 as exact does)."""
    n = int(n)
    num = np.array(exact._weights(model, n))
    den = num.copy()
    den[1] -= 1.0
    out = np.empty(n + 1)
    out[0] = num[0] / den[0]
    for m in range(1, n + 1):
        s = math.fsum(den[1:m + 1] * out[m - 1::-1])
        out[m] = (num[m] - s) / den[0]
    return out
