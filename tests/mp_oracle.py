"""A 30-digit mpmath oracle for the moments of the Dirichlet order statistics.

The r-th largest component of a symmetric Dirichlet(n, alpha) draw is
G_(j) / S with j = n - r + 1, where G_(j) is the j-th smallest of n iid
Gamma(alpha, 1) draws and S, their sum, is independent of the ratios.
So its mean is E[G_(j)] / (n alpha) and its second moment is
E[G_(j)**2] / (n alpha (n alpha + 1)).  Both expectations are integrated
here in s = ln t with mpmath.quad; scipy only places the breakpoints.
"""

import bisect
import math

import numpy as np
import pytest
from scipy import special


def _breakpoints(n, alpha, j):
    """Float breakpoints around the peaks of t and t**2 times the density of ln G_(j)."""
    width = 1.0 / math.sqrt(max(alpha, 1.0))  # the scale of ln G about its centre
    grid = np.union1d(
        np.linspace(-745.0, math.log(special.gammainccinv(alpha, 1e-300)), 40001),
        math.log(max(alpha, 1.0)) + width * np.linspace(-60.0, 60.0, 12001))
    points = set()
    with np.errstate(all="ignore"):
        log_p = np.log(special.gammainc(alpha, np.exp(grid)))
        log_q = np.log(special.gammaincc(alpha, np.exp(grid)))
        for p in (1, 2):
            phi = (alpha + p) * grid - np.exp(grid) + (j - 1) * log_p + (n - j) * log_q
            phi[~np.isfinite(phi)] = -np.inf
            k = int(np.argmax(phi))
            keep, core = grid[phi > phi[k] - 80.0], grid[phi > phi[k] - 2.0]
            step = max(core[-1] - core[0], 1e-3 * width)
            points |= {keep[0] - 0.1 * width, keep[-1] + 0.1 * width}
            points |= {x for d in (-4, -1, 0, 1, 4)
                       if keep[0] < (x := grid[k] + d * step) < keep[-1]}
    return sorted(float(x) for x in points)


def _lower_tail(alpha, log_gamma, start):
    """P(alpha, e**s) for s >= start, to the working precision.

    From the series t**alpha e**-t 1F1(1; alpha + 1; t) / Gamma(alpha + 1)
    up to alpha = 1e4.  Past it the series needs about 10 sqrt(alpha) terms
    near the peak, so it is summed once, at start, and every other P is
    carried from the nearest point already known below it by integrating
    the density of ln G, exp(alpha u - e**u) / Gamma(alpha), over the gap.
    """
    import mpmath

    def series(s):
        t = mpmath.exp(s)
        return mpmath.exp(alpha * s - t - log_gamma) * mpmath.hyp1f1(1, alpha + 1, t,
                                                                      maxterms=10**7)

    if alpha <= 1e4:
        return series
    log_norm = log_gamma - mpmath.log(alpha)  # ln Gamma(alpha)
    known, values = [start], [series(start)]

    def lower(s):
        i = bisect.bisect_right(known, s) - 1
        gap = mpmath.quad(lambda u: mpmath.exp(alpha * u - mpmath.exp(u) - log_norm),
                          [known[i], s], method="gauss-legendre")
        known.insert(i + 1, s)
        values.insert(i + 1, values[i] + gap)
        return values[i + 1]

    return lower


def mp_rank_moments(n, alpha, rank):
    """(mean, sd) of the rank-th largest component, from 30-digit integrals."""
    mpmath = pytest.importorskip("mpmath")
    j = n - rank + 1
    points = _breakpoints(n, alpha, j)
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        cache = {}
        # ln Gamma(alpha + 1) reaches 2e11 at alpha = 1e10: an error in it
        # scales E[X**2] and E[X]**2 apart, so it needs 50 digits too
        with mpmath.workdps(50):
            log_gamma = mpmath.loggamma(a + 1)
            log_c = mpmath.log(mpmath.binomial(n - 1, j - 1)) - log_gamma
            lower_tail = _lower_tail(a, log_gamma, mpmath.mpf(points[0]))

        def log_integrand(s, p):
            """ln of t**p times the density of ln G_(j), over n alpha."""
            if s not in cache:
                with mpmath.workdps(50):  # so that 1 - P keeps 30 digits down to 1e-20
                    t = mpmath.exp(s)
                    lower = lower_tail(s)
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
            moments.append((value * mpmath.exp(top), err * mpmath.exp(top)))
        (mean, mean_err), (second, second_err) = moments
        second, second_err = second / (n * a + 1), second_err / (n * a + 1)
        variance = second - mean**2
        # and the variance's bound from those errors, through the digits
        # that cancel when the sd is far below the mean (1e-5 of it at
        # n = 11, alpha = 1e9)
        assert 2 * mean * mean_err + second_err <= 1e-12 * variance, (n, alpha, rank)
        return float(mean), float(mpmath.sqrt(variance))
