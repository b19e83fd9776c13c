"""The package's scalar special functions, on the standard library alone:
digamma, ln Gamma(1 + a) near a = 0 and the zeta values behind it,
Stirling's remainder and ln B(a, b) in the Stirling-difference form of
DiDonato & Morris (1986, ACM TOMS 12:377), and the one modified Lentz
loop, on which the incomplete beta fraction (DLMF 8.17.22) runs as its odd
part: analysis takes Student's t tail from that fraction, and _gamma the
lengths of its recurrences from its step counts and Legendre's fraction's.
"""

from __future__ import annotations

import functools
import math
import numbers

from .errors import DomainError

_EULER = 0.5772156649015329
_LN_SQRT_2PI = 0.9189385332046728
# B_2 .. B_16, for Stirling's series and for the zeta values of ln Gamma(1+a)
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)

_LN10_HI = 2.302585092994046
_LN10_LO = -2.1707562233822494e-16  # ln 10 - _LN10_HI
# psi(y) - ln(y) is the sum of c * w**p, w = 1/y, over these (c, p) for
# y >= 10: -w/2, then -B_2k w**2k / 2k through B_12
_PSI_TERMS = ((-1 / 2, 1), (-1 / 12, 2), (1 / 120, 4), (-1 / 252, 6), (1 / 240, 8),
              (-1 / 132, 10), (691 / 32760, 12))


def digamma(x) -> float:
    """Digamma function of a real scalar x > 0.

    Below 10 the argument is raised by ten steps of psi(x) = psi(x+1) - 1/x.
    ln(x + 10) is split as ln 10 + log1p(x/10), and the ten reciprocals are
    taken off ln 10 before anything else is added, so that no rounding
    happens at the size of ln 10 and psi stays accurate where it crosses
    zero (x = 1.4616...).
    """
    if not (isinstance(x, numbers.Real) and math.isfinite(x) and x > 0):
        raise DomainError(f"digamma requires finite x > 0, got {x!r}")
    x = float(x)
    w = 1.0 / (x + 10.0 if x < 10.0 else x)
    rest = sum([c * w**p for c, p in _PSI_TERMS])
    if x >= 10.0:
        return math.log(x) + rest
    parts = [_LN10_HI, _LN10_LO, math.log1p(x / 10.0), rest]
    return math.fsum(parts + [-1.0 / (x + i) for i in range(10)])


def _zeta(k: int) -> float:
    """Riemann zeta at an integer k >= 2, by Euler-Maclaurin from 20 on."""
    n = 20
    total = math.fsum(m ** -k for m in range(1, n)) + n ** (1 - k) / (k - 1) + 0.5 * n ** -k
    rising = k  # k (k+1) ... (k + 2j - 2)
    for j, b in enumerate(_BERNOULLI[:5], start=1):
        total += b / math.factorial(2 * j) * rising * n ** (-k - 2 * j + 1)
        rising *= (k + 2 * j - 1) * (k + 2 * j)
    return total


@functools.lru_cache(maxsize=8)
def lgamma1p(a: float) -> float:
    """ln Gamma(1 + a) for a > 0, to relative precision as a falls to 0."""
    if a >= 0.25:
        return math.lgamma(1.0 + a)
    # -gamma a + sum_{k>=2} (-1)**k zeta(k) a**k / k
    terms = [(-a) ** k * _zeta(k) / k for k in range(30, 1, -1)]
    return math.fsum(terms + [-_EULER * a])


def stirling(z: float) -> float:
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln sqrt(2 pi)) for z > 0."""
    if z < 10.0:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + _LN_SQRT_2PI)
    w2 = 1.0 / (z * z)
    return sum(b / ((2 * k + 2) * (2 * k + 1)) * w2 ** k for k, b in enumerate(_BERNOULLI)) / z


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) as ln sqrt(2 pi (a+b) / (a b)) - a log1p(b/a) - b log1p(a/b)
    plus Stirling remainders, free of the cancelling a ln a + b ln b - (a+b) ln(a+b)."""
    return (0.5 * math.log((a + b) / (a * b)) + _LN_SQRT_2PI - a * math.log1p(b / a)
            - b * math.log1p(a / b) + stirling(a) + stirling(b) - stirling(a + b))


def lentz(first: float, terms) -> tuple[float, int]:
    """(h, m) of a continued fraction by the modified Lentz method, given its
    first denominator and its later terms (a_k, b_k): h is 1/first times
    c d of every step, from c = 1e300 and d = 1/first, and m the steps until
    c d is within 1e-15 of 1.  A zero denominator is taken as 1e-300."""
    c = 1e300
    h = d = 1.0 / (first or 1e-300)
    for k, (a, b) in enumerate(terms, start=1):
        d, c = 1.0 / ((a * d + b) or 1e-300), (b + a / c) or 1e-300
        h *= c * d
        if abs(c * d - 1.0) <= 1e-15:
            return h, k
    raise ArithmeticError("continued fraction did not converge")


def beta_fraction(a: float, b: float, x: float, y: float) -> tuple[float, int]:
    """(h, m): h = 1 / (1 + d_1 / (1 + d_2 / (1 + ...))), the fraction with
    I_x(a, b) = x**a (1-x)**b h / (a B(a, b)) (DLMF 8.17.22), from m steps
    of its odd part, whose m-th approximant is its (2m+1)-th; it converges
    fast below x = (a+1)/(a+b+2).  Near x = 1 the odd terms d_2k+1 = -x r_k,
    r_k = (a+k)(a+b+k) / ((a+2k)(a+2k+1)), cancel in 1 + d_2k+1, which is
    taken as (1 - r_k) + y r_k where r_k <= 1, y = 1 - x to its own precision."""
    def term(n):
        m = n // 2
        if n % 2:
            return -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        return m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))

    def odd(k):
        """1 + d_2k+1."""
        s = a * (2 * k + 1.0 - b) + k * (3 * k + 2.0 - b)  # (1 - r_k) (a+2k)(a+2k+1)
        if s < 0.0:
            return 1.0 + term(2 * k + 1)
        return (s + (a + k) * (a + b + k) * y) / ((a + 2 * k) * (a + 2 * k + 1.0))

    return lentz(odd(0), ((-term(2 * k - 1) * term(2 * k), odd(k) + term(2 * k))
                          for k in range(1, 100000)))
