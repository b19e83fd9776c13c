"""A 30-digit mpmath oracle for the moments of the Dirichlet order statistics.

The r-th largest component of a symmetric Dirichlet(n, alpha) draw is
G_(j) / S with j = n - r + 1, where G_(j) is the j-th smallest of n iid
Gamma(alpha, 1) draws and S, their sum, is independent of the ratios.
So its mean is E[G_(j)] / (n alpha) and its second moment is
E[G_(j)**2] / (n alpha (n alpha + 1)).  Both expectations are integrated
here in s = ln t with mpmath.quad; scipy only places the breakpoints.
"""

import math

import numpy as np
import pytest
from scipy import special


def _breakpoints(n, alpha, j):
    """Float breakpoints around the peaks of t and t**2 times the density of ln G_(j)."""
    grid = np.linspace(-745.0, math.log(special.gammainccinv(alpha, 1e-300)), 40001)
    points = set()
    with np.errstate(all="ignore"):
        log_p = np.log(special.gammainc(alpha, np.exp(grid)))
        log_q = np.log(special.gammaincc(alpha, np.exp(grid)))
        for p in (1, 2):
            phi = (alpha + p) * grid - np.exp(grid) + (j - 1) * log_p + (n - j) * log_q
            phi[~np.isfinite(phi)] = -np.inf
            k = int(np.argmax(phi))
            keep, core = grid[phi > phi[k] - 80.0], grid[phi > phi[k] - 2.0]
            width = max(core[-1] - core[0], 1e-3)
            points |= {keep[0] - 0.1, keep[-1] + 0.1}
            points |= {x for d in (-4, -1, 0, 1, 4)
                       if keep[0] < (x := grid[k] + d * width) < keep[-1]}
    return sorted(float(x) for x in points)


def mp_rank_moments(n, alpha, rank):
    """(mean, sd) of the rank-th largest component, from 30-digit integrals."""
    mpmath = pytest.importorskip("mpmath")
    j = n - rank + 1
    points = _breakpoints(n, alpha, j)
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        log_gamma = mpmath.loggamma(a + 1)
        log_c = mpmath.log(mpmath.binomial(n - 1, j - 1)) - log_gamma
        cache = {}

        def log_integrand(s, p):
            """ln of t**p times the density of ln G_(j), over n alpha."""
            if s not in cache:
                with mpmath.workdps(50):  # so that 1 - P keeps 30 digits down to 1e-20
                    t = mpmath.exp(s)
                    # P(alpha, t) = t**alpha e**-t 1F1(1; alpha + 1; t) / Gamma(alpha + 1)
                    lower = mpmath.exp(a * s - t - log_gamma) * mpmath.hyp1f1(1, a + 1, t)
                    cache[s] = (log_c + a * s - t + (j - 1 and (j - 1) * mpmath.log(lower))
                                + (n - j and (n - j) * mpmath.log1p(-lower)))
            return cache[s] + p * s

        pts = [mpmath.mpf(x) for x in points]
        moments = []
        for p in (1, 2):
            top = max(log_integrand(x, p) for x in pts)
            value, err = mpmath.quad(lambda s: mpmath.exp(log_integrand(s, p) - top), pts,
                                     method="gauss-legendre", error=True)
            assert err <= 1e-20 * value, (n, alpha, rank, p, err / value)
            moments.append(value * mpmath.exp(top))
        mean, second = moments[0], moments[1] / (n * a + 1)
        return float(mean), float(mpmath.sqrt(second - mean**2))
