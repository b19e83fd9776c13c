"""The order-statistic moments and bands of a symmetric Dirichlet, and
the regularized incomplete gamma and beta ratios behind them, in numpy
and the stdlib.

Only dirichlet's order-statistic functions import this module, inside
themselves, each through one entry point: order_statistic_moments, a
fixed-rule quadrature of every rank's normalized-gamma moments, and
order_statistic_bands, an inversion of the iid-Beta order statistics.
Both take the concentrations from 5e-3/(n-1) to 1e10 and raise the same
NumericalError outside them (_check_domain).
For Gamma(a, 1) with a scalar a, log_pq gives (ln P, ln Q) at t = e**s,
each accurate to relative precision in its own tail: it computes the
smaller tail directly and the other as log1p(-exp(.)).
The methods follow DiDonato & Morris (1986, ACM TOMS 12:377) and Gil,
Segura & Temme (2012, SIAM J. Sci. Comput. 34:A2965):

- a < 1 and t <= 2.5: P = t**a / Gamma(1+a) * (1 + a J) and
  Q = -expm1(ln of the first factor) - a (first factor) J, with
  J = sum_{k>=1} (-t)**k / (k! (a+k)), so both tails are direct;
- otherwise below t = a + 1: the power series of P;
- above it: Legendre's continued fraction of Q;
- a >= _TEMME_A with |t/a - 1| < 0.3: Temme's uniform expansion, whose
  coefficients are generated once from their Taylor series in eta.

Interpolant is a cheap stand-in for log_pq that places the moment
windows; its nodes span the range where P, Q > 1e-300.
order_statistic_quantiles inverts the iid-Beta order statistics at the
exact tail each bound cuts off: a binomial tail for the Beta(j, n-j+1)
step, then the ratio I_x(a, b) from the continued fraction of DLMF
8.17.22 (its prefactor in the Stirling-difference form of DiDonato &
Morris' brcomp) or, for a + b above _BETA_CF_MAX, from the gamma mixture
E[P(a, G x/(1-x))] with G ~ Gamma(b).  ln Gamma(1 + a) and the Lentz loop
that counts the steps of each continued fraction come from _special.
No element's value depends on the array it is computed in: the series
stop where their terms no longer change any sum, and each continued
fraction takes a number of steps fixed by the parameters alone.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ._special import _BERNOULLI, _LN_SQRT_2PI, beta_fraction, lentz, lgamma1p
from .errors import NumericalError

_TEMME_A, _TEMME_ORDERS, _TEMME_DEGREE = 25.0, 14, 34
_BETA_CF_MAX = 1e4
_SMALL_A_T = 2.5
_SMALLEST_NORMAL = 2.2250738585072014e-308
_NODES = 128  # Gauss-Legendre nodes of the moment windows and the gamma mixture
_INTERPOLANT_STEP = 0.08  # node spacing of Interpolant in v


@functools.lru_cache(maxsize=1)
def gauss_legendre():
    """_NODES Gauss-Legendre nodes on [0, 1] and their weights.  leggauss
    takes them from an eigenvalue solve, whose LinAlgError is raised as
    NumericalError."""
    from numpy.polynomial.legendre import leggauss

    try:
        x, w = leggauss(_NODES)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"numerical failure (LinAlgError: {exc})") from None
    return (x + 1.0) / 2.0, w / 2.0


def log_t_density(a: float, log_gamma: float, s):
    """ln(t * density of Gamma(a, 1) at t) at t = e**s, given ln Gamma(a)."""
    return a * s - np.exp(s) - log_gamma


def _stirling(z):
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln sqrt(2 pi)), elementwise for z > 0."""
    z = np.asarray(z, dtype=float)
    big = np.maximum(z, 10.0)
    w2 = 1.0 / (big * big)
    series = sum(b / ((2 * k + 2) * (2 * k + 1)) * w2 ** k
                 for k, b in enumerate(_BERNOULLI)) / big
    small = z < 10.0
    if small.any():
        zs = z[small]
        exact = np.array([math.lgamma(v) for v in zs.ravel()]).reshape(zs.shape)
        series = np.array(series, dtype=float)
        series[small] = exact - ((zs - 0.5) * np.log(zs) - zs + _LN_SQRT_2PI)
    return series


def _pmx(mu, weight, log_lambda):
    """mu - log1p(mu) for mu > -1, to be multiplied by weight, with
    log1p(mu) taken as the given log_lambda below mu = -1/2.  Where
    weight * |mu| > 5 and |mu| < 1/2, an atanh series replaces the
    subtraction, whose absolute error of about 2e-16 |mu| the weight
    would multiply."""
    mu = np.asarray(mu, dtype=float)
    out = np.where(mu < -0.5, mu - log_lambda, mu - np.log1p(np.maximum(mu, -0.5)))
    near = (np.abs(mu) < 0.5) & (weight * np.abs(mu) > 5.0)
    if near.any():
        m = mu[near]
        r = m / (2.0 + m)  # log1p(m) = 2 atanh(r), and m - 2r = m r
        r2 = r * r
        # sum_k r2**k / (2k+3), to the first term below 1e-17 (r2 < 1/9)
        top = r2.max()
        terms = 1 if top == 0.0 else min(17, math.ceil(-17.0 / math.log10(top)))
        tail = 1.0 / (2 * terms + 3)
        for k in range(terms - 1, -1, -1):
            tail = 1.0 / (2 * k + 3) + r2 * tail
        out[near] = m * r - 2.0 * r * r2 * tail
    return out


def _log_prefactor(a: float, s, t):
    """ln(t**a e**-t / Gamma(1 + a))."""
    if a < 10.0:
        return a * s - t - lgamma1p(a)
    drop = a * _pmx((t - a) / a, a, s - math.log(a))
    return -drop - 0.5 * math.log(a) - _LN_SQRT_2PI - float(_stirling(a))


def _sum_series(t, ratio, first):
    """sum_k term_k with term_0 = first and term_k = term_{k-1} * t * ratio(k),
    elementwise, until the terms no longer change the sum.  The terms fall
    in magnitude, so summing past an element's last significant term
    leaves it as it is."""
    term = first * np.ones_like(t)
    total = term.copy()
    k = 0
    while True:
        for _ in range(4):
            k += 1
            term *= t
            term *= ratio(k)
            total += term
        if (np.abs(term) <= 1e-17 * np.abs(total)).all():
            return total


def _series_small_a(a, s, t):
    """(ln P, ln Q) for a < 1, t <= _SMALL_A_T."""
    v = a * s - lgamma1p(a)
    # J = sum_{k>=1} (-t)**k / (k! (a+k)) = t * sum_{k>=0} (-t)**k (-1) / ((k+1)! (a+k+1))
    total = _sum_series(t, lambda k: -(a + k) / ((k + 1) * (a + k + 1.0)), -1.0 / (a + 1.0)) * t
    log_p = v + np.log1p(a * total)
    log_q = np.log(-np.expm1(v) - a * np.exp(v) * total)
    return log_p, log_q


def _series_p(a, s, t):
    """ln P by its power series, for t < a + 1."""
    return _log_prefactor(a, s, t) + np.log(_sum_series(t, lambda k: 1.0 / (a + k), 1.0))


@functools.lru_cache(maxsize=8)
def _fraction_steps(a: float) -> int:
    """Steps of Legendre's fraction for Q(a, t) at the smallest t log_pq
    gives it, until a modified Lentz step moves it by at most 1e-15; at
    larger t it converges in fewer."""
    t = max(a + 1.0, _SMALL_A_T if a < 1.0 else 0.0, 1.3 * a if a >= _TEMME_A else 0.0)
    b = itertools.accumulate(itertools.repeat(2.0, 99999), initial=t + 1.0 - a)  # b_i = b_i-1 + 2
    return lentz(next(b), ((-i * (i - a), b_i) for i, b_i in enumerate(b, 1)))[1]


def _fraction_q(a, s, t):
    """ln Q by Legendre's continued fraction, for t >= a + 1: every
    element takes the steps the fraction needs at the smallest such t, and
    two more, of the forward recurrence of its convergents, so that its
    value depends on a and t alone.  Beyond t = max(1e15, 1e8 a), where the
    recurrence could overflow, Q = t**(a-1) e**-t / Gamma(a) (1 + (a-1)/t)
    to within (a/t)**2."""
    far = max(1e15, 1e8 * a)
    u = np.minimum(t, far)
    # rows A, B of the last two convergents of 1/(b_1 - 1(1-a)/(b_2 - 2(2-a)/(...)))
    last, before = np.stack([np.ones_like(u), u + (1.0 - a)]), np.stack([np.zeros_like(u), np.ones_like(u)])
    for i in range(1, _fraction_steps(a) + 3):
        last, before = (u + (2 * i + 1.0 - a)) * last - i * (i - a) * before, last
        if i % 8 == 0:
            scale = 1.0 / last[1]
            last, before = last * scale, before * scale
    fraction = _log_prefactor(a, s, t) + math.log(a) + np.log(last[0] / last[1])
    return np.where(t > far, (a - 1.0) * s - t - math.lgamma(a) + np.log1p((a - 1.0) / t), fraction)


@functools.lru_cache(maxsize=1)
def _temme_coefficients() -> np.ndarray:
    """Taylor coefficients in eta of Temme's c_k(eta), k < _TEMME_ORDERS.

    With lambda = t/a and eta = sign(lambda - 1) sqrt(2 (lambda - 1 - ln lambda)),
    Q = erfc(eta sqrt(a/2))/2 + e**(-a eta**2/2) / sqrt(2 pi a) sum_k c_k(eta) a**-k,
    c_0 = 1/(lambda-1) - 1/eta and c_k = c_{k-1}'/eta + (-1)**k g_k/(lambda-1),
    g_k the Stirling coefficients of Gamma*(a) (DLMF 8.12).
    """
    depth = _TEMME_DEGREE + 2 * _TEMME_ORDERS + 2
    # mu = lambda - 1 = sum a_m eta**m solves mu mu' = eta (1 + mu)
    am = [0.0, 1.0]
    for m in range(2, depth + 2):
        conv = sum((m + 1 - i) * am[i] * am[m + 1 - i] for i in range(2, m))
        am.append((am[m - 1] - conv) / (m + 1))
    # eta / mu = sum b_k eta**k
    b = [1.0]
    for k in range(1, depth + 1):
        b.append(-sum(am[i + 1] * b[k - i] for i in range(1, k + 1)))
    # Stirling coefficients: Gamma*(a) = exp(sum B_2m / (2m (2m-1)) a**(1-2m)) = sum g_k a**-k
    log_terms = [0.0] * (_TEMME_ORDERS + 1)
    for m, bern in enumerate(_BERNOULLI, start=1):
        if 2 * m - 1 <= _TEMME_ORDERS:
            log_terms[2 * m - 1] = bern / (2 * m * (2 * m - 1))
    g = [1.0]
    for k in range(1, _TEMME_ORDERS + 1):
        g.append(sum(i * log_terms[i] * g[k - i] for i in range(1, k + 1)) / k)
    rows = [b[1:]]
    for k in range(1, _TEMME_ORDERS):
        prev = rows[-1]
        rows.append([(p + 2) * prev[p + 2] + (-1) ** k * g[k] * b[p + 1]
                     for p in range(len(prev) - 2)])
    return np.array([row[:_TEMME_DEGREE + 1] for row in rows])


def _temme(a, t):
    """(ln P, ln Q) by Temme's uniform expansion, for large a and t near a."""
    mu = (t - a) / a
    eta = np.sign(mu) * np.sqrt(2.0 * _pmx(mu, a, np.log1p(mu)))
    z = np.maximum(0.5 * a * eta * eta, 1e-300)
    coef = _temme_coefficients().T @ a ** -np.arange(float(_TEMME_ORDERS))
    series = np.polynomial.polynomial.polyval(eta, coef)
    _, log_half_q = log_pq(0.5, np.log(z))
    sign = np.where(eta >= 0.0, 1.0, -1.0)
    ratio = 2.0 * series * np.exp(-z - log_half_q) / math.sqrt(2.0 * math.pi * a)
    log_small = log_half_q - math.log(2.0) + np.log1p(sign * ratio)
    log_large = np.log1p(-np.exp(log_small))
    upper = eta >= 0.0
    return np.where(upper, log_large, log_small), np.where(upper, log_small, log_large)


def log_pq(a: float, s):
    """(ln P(a, t), ln Q(a, t)) of Gamma(a, 1) at t = e**s, for a > 0."""
    s = np.asarray(s, dtype=float)
    t = np.exp(np.minimum(s, 709.0))  # t of 8e307 is in the tails of every a <= 1e10
    log_p, log_q = np.empty_like(s), np.empty_like(s)
    rest = np.ones(s.shape, dtype=bool)
    if a >= _TEMME_A:
        near = np.abs(t - a) < 0.3 * a
        if near.any():
            log_p[near], log_q[near] = _temme(a, t[near])
            rest &= ~near
    if a < 1.0:
        small = rest & (t <= _SMALL_A_T)
        if small.any():
            log_p[small], log_q[small] = _series_small_a(a, s[small], t[small])
            rest &= ~small
    lower = rest & (t < a + 1.0)
    if lower.any():
        log_p[lower] = _series_p(a, s[lower], t[lower])
        log_q[lower] = np.log1p(-np.exp(log_p[lower]))
    upper = rest & ~lower
    if upper.any():
        log_q[upper] = _fraction_q(a, s[upper], t[upper])
        log_p[upper] = np.log1p(-np.exp(log_q[upper]))
    return log_p, log_q


def tail_bounds(a: float, log_tail: float) -> tuple[float, float]:
    """(lo, hi) in s with ln P(a, e**lo) <= log_tail and ln Q(a, e**hi) <= log_tail.

    ln P <= a s - ln Gamma(1+a), and the Chernoff bounds
    ln P, ln Q <= -a (mu - log1p(mu)) at t = a (1 + mu), below and above a,
    with mu - log1p(mu) >= mu**2 / 2 below and >= mu**2 / (2 (1 + mu)) above.
    """
    c = -log_tail / a
    lo = (log_tail + lgamma1p(a)) / a
    if c < 0.5:
        lo = max(lo, math.log(a) + math.log1p(-math.sqrt(2.0 * c)))
    return lo, math.log(a) + math.log1p(c + math.sqrt(c * c + 2.0 * c))


class Interpolant:
    """A cheap stand-in for log_pq on [low, high]: cubic Hermite pieces of
    ln P and ln Q + t, on nodes _INTERPOLANT_STEP apart in v = asinh((s - c) / w),
    with c = ln max(a, 1) and w = 1/sqrt(max(a, 1)), so that they are dense
    where the ratios bend and sparse out in their near-linear tails.  Its
    error only places the moment windows, which take ln Q up to
    ``multiple`` times: about 1e-4 in ln P, and in ln Q the curvature of t
    in v, about 1.1e-6 sqrt(a) at that spacing (0.11 at a = 1e10).  That
    error falls as the spacing to the fourth power, so the spacing shrinks
    until ``multiple`` times it is at most about 1.
    """

    def __init__(self, a: float, low: float, high: float, multiple: int):
        self.a, self.log_gamma = a, math.lgamma(a)
        self.centre, self.width = math.log(max(a, 1.0)), 1.0 / math.sqrt(max(a, 1.0))
        self.v_lo = math.asinh((low - self.centre) / self.width)
        v_hi = math.asinh((high - self.centre) / self.width)
        step = _INTERPOLANT_STEP * min(1.0, (9e5 / (multiple * math.sqrt(max(a, 1.0)))) ** 0.25)
        self.pieces = max(math.ceil((v_hi - self.v_lo) / step), 1)
        self.h = (v_hi - self.v_lo) / self.pieces
        v = np.linspace(self.v_lo, v_hi, self.pieces + 1)
        self.s = np.clip(self.centre + self.width * np.sinh(v), low, high)
        log_p, log_q = log_pq(a, self.s)
        t = np.exp(self.s)
        self.values = np.stack([log_p, log_q + t])
        h_p, h_q = self.slopes(self.s, log_p, log_q)
        self.derivatives = np.stack([h_p, t - h_q]) * (self.h * self.width * np.cosh(v))

    def slopes(self, s, log_p, log_q):
        """d ln P / ds and -d ln Q / ds."""
        log_tf = log_t_density(self.a, self.log_gamma, s)
        return np.exp(log_tf - log_p), np.exp(log_tf - log_q)

    def __call__(self, s):
        """(ln P, ln Q) at s."""
        w = (np.arcsinh((s - self.centre) / self.width) - self.v_lo) / self.h
        k = np.clip(np.floor(w), 0, self.pieces - 1).astype(int)
        f = w - k
        g = 1.0 - f
        y0, y1 = self.values[:, k], self.values[:, k + 1]
        d0, d1 = self.derivatives[:, k], self.derivatives[:, k + 1]
        y = g * g * ((1.0 + 2.0 * f) * y0 + f * d0) + f * f * ((3.0 - 2.0 * f) * y1 - g * d1)
        return y[0], y[1] - np.exp(s)


def _softplus(z):
    """ln(1 + e**z), elementwise."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _log_beta_scale(a, b):
    """ln(1/B(a, b)) less the exponent of its Stirling form, which
    _log_beta_density adds back."""
    total = a + b
    return (0.5 * np.log(a * b / total) - _LN_SQRT_2PI
            - _stirling(a) - _stirling(b) + _stirling(total))


def _log_beta_density(a, b, scale, log_x, log_1mx):
    """ln(x**a (1-x)**b / B(a, b)) in the Stirling-difference form of
    DiDonato & Morris' brcomp, exact to rounding where the terms a ln x and
    b ln(1-x) are large and nearly cancel; up to a + b = 200, where that
    cancellation costs at most about 1e-13, as the plain sum of the logs."""
    x0 = a / (a + b)
    if np.max(a + b) <= 200.0:
        return scale + a * (log_x - np.log(x0)) + b * (log_1mx - np.log1p(-x0))
    d = np.exp(log_x) - x0
    return (scale - a * _pmx(d / x0, a, log_x - np.log(x0))
            - b * _pmx(-d / (1.0 - x0), b, log_1mx - np.log1p(-x0)))


@functools.lru_cache(maxsize=4)
def _integer_beta_scales(n: int) -> np.ndarray:
    """_log_beta_scale(i, n + 2 - i) for i = 1..n+1, at index i - 1."""
    i = np.arange(1.0, n + 2.0)
    return _log_beta_scale(i, n + 2.0 - i)


@functools.lru_cache(maxsize=4)
def _log_binomials(n: int) -> np.ndarray:
    """ln C(n, i) for i = 0..n, as running sums: accurate in differences."""
    i = np.arange(n, dtype=float)
    return np.concatenate([[0.0], np.cumsum(np.log((n - i) / (i + 1.0)))])


def binomial_tail(n: int, k, log_p, log_q):
    """(ln P(Bin(n, p) >= k), ln P(Bin(n, p) < k)) elementwise, for
    integers 1 <= k <= n, from ln p and ln(1 - p).

    The terms are summed away from the mode: up from k when k lies above
    it, else down from k - 1, so that they fall from the first one, which
    is taken to rounding from _log_beta_density.  The first 4.5 sqrt(n) + 20
    terms cover every sd of the sum many times over.
    """
    high = k > (n + 1.0) * np.exp(log_p)
    first = np.where(high, k, k - 1).astype(int)
    a = first + 1.0
    log_first = (_log_beta_density(a, n + 2.0 - a, _integer_beta_scales(n)[first], log_p, log_q)
                 - log_p - log_q - math.log(n + 1.0))
    offsets = np.arange(min(n + 1, math.ceil(4.5 * math.sqrt(n)) + 20))
    log_c = _log_binomials(n)
    # ln of term i over term `first`, the terms running up from k or down from k - 1
    rise = np.where(high, log_p - log_q, log_q - log_p)
    total = np.empty(first.shape)
    for b in range(0, total.size, 64):  # 64 rows at a time keep the arrays small
        f = first[b:b + 64, None]
        i = np.where(high[b:b + 64, None], f + offsets, f - offsets)
        rel = np.where((i >= 0) & (i <= n), log_c[np.clip(i, 0, n)] - log_c[f], -np.inf)
        total[b:b + 64] = np.exp(rel + offsets * rise[b:b + 64, None]).sum(axis=1)
    near = log_first + np.log(total)
    far = np.log1p(-np.exp(near))
    return np.where(high, near, far), np.where(high, far, near)


class _IntegerBeta:
    """I_u(j, n-j+1) = P(Bin(n, u) >= j) for an integer array j, as a
    function of y = logit(u)."""

    def __init__(self, n: int, j):
        self.n, self.j = n, np.asarray(j, dtype=float)
        self.scale = _integer_beta_scales(n - 1)[self.j.astype(int) - 1]

    def evaluate(self, y, idx):
        """(ln I, ln(1 - I), ln(u (1-u) f(u)), its slope in y) for the elements idx."""
        j = self.j[idx]
        log_u, log_v = -_softplus(-y), -_softplus(y)
        lower, upper = binomial_tail(self.n, j, log_u, log_v)
        log_dens = _log_beta_density(j, self.n + 1.0 - j, self.scale[idx], log_u, log_v)
        return lower, upper, log_dens, j - (self.n + 1.0) * np.exp(log_u)


class _Beta:
    """I_x(a, b) for scalars a, b, as a function of y = logit(x).

    Numerical Recipes' betacf is taken for the lower tail up to
    x = (a + 1 + 2 sqrt(a+1)) / (a + b + 2), capped at 1/2, and for the
    upper tail, as I_{1-x}(b, a), above it.  The fraction needs the most
    steps at that pivot, from either side, so every element takes k + 2
    double steps of the forward recurrence of its convergents, k the
    steps of the odd part (_special.beta_fraction) there, whose k-th
    approximant is the fraction's (2k+1)-th: its value then depends on a,
    b and x alone.  Numerical Recipes' pivot, (a+1)/(a+b+2), needs 25
    steps just above it for a = 0.77, b = 22.3, this one 14; the upper
    tail there is still about 1e-2 for a near 1 and 2e-4 for a = 0.016,
    so that taking it as 1 - I costs at most a few hundred ulps.
    """

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b
        self.scale = float(_log_beta_scale(a, b))
        root = 2.0 * math.sqrt(a + 1.0)
        self.pivot = min(math.log((a + 1.0 + root) / (b + 1.0 - root)) if b + 1.0 > root else 0.0,
                         0.0)
        x, y = 1.0 / (1.0 + math.exp(-self.pivot)), 1.0 / (1.0 + math.exp(self.pivot))
        steps = 2 + max(beta_fraction(a, b, x, y)[1], beta_fraction(b, a, y, x)[1])
        m = np.arange(1.0, steps + 1.0)
        # the partial numerators over x: odd and even steps, for (a, b) and (b, a)
        self.numerators = np.array([[m * (q - m) / ((p + 2 * m - 1.0) * (p + 2 * m)),
                                     -(p + m) * (a + b + m) / ((p + 2 * m) * (p + 2 * m + 1.0))]
                                    for p, q in ((a, b), (b, a))]).transpose(2, 1, 0).reshape(-1, 2)

    def evaluate(self, y, idx):
        """(ln I, ln(1 - I), ln(x (1-x) f(x)), its slope in y) at y."""
        a, b = self.a, self.b
        log_x, log_1mx = -_softplus(-y), -_softplus(y)
        log_dens = _log_beta_density(a, b, self.scale, log_x, log_1mx)
        swap = y > self.pivot
        x = np.exp(np.where(swap, log_1mx, log_x))
        fraction = np.empty_like(x)
        for c in range(0, x.size, 512):  # 512 elements at a time keep the arrays small
            xc, sc = x[c:c + 512], swap[c:c + 512]
            # rows A, B of the last two convergents of 1 + d1/(1 + d2/(1 + ...)),
            # whose inverse B/A is betacf's value
            last = np.stack([1.0 - np.where(sc, (a + b) / (b + 1.0), (a + b) / (a + 1.0)) * xc,
                             np.ones_like(xc)])
            before = np.ones_like(last)
            for k, d in enumerate(np.where(sc, self.numerators[:, 1:], self.numerators[:, :1]) * xc):
                last, before = last + d * before, last
                if k % 16 == 15:
                    scale = 1.0 / last[0]
                    last, before = last * scale, before * scale
            fraction[c:c + 512] = last[1] / last[0]
        near = log_dens + np.log(fraction) - np.where(swap, math.log(b), math.log(a))
        far = np.log1p(-np.exp(np.minimum(near, 0.0)))
        return (np.where(swap, far, near), np.where(swap, near, far), log_dens,
                a - (a + b) * np.exp(log_x))


class _GammaMixture:
    """I_x(a, b) = E[P(a, G x/(1-x))], G ~ Gamma(b), for scalars a and a
    large b, by Gauss-Legendre nodes over ln G within 12 sds of its mode."""

    def __init__(self, a: float, b: float):
        u, w = gauss_legendre()
        gap = 12.0 / math.sqrt(b) * (2.0 * u - 1.0)  # ln G - ln b
        log_w = np.log(w) - b * (np.expm1(gap) - gap)
        self.a, self.log_gamma = a, math.lgamma(a)
        self.log_g = math.log(b) + gap
        self.log_w = log_w - np.log(np.exp(log_w).sum())

    def evaluate(self, y, idx):
        s = self.log_g + y[:, None]
        log_p, log_q = log_pq(self.a, s)
        log_tf = log_t_density(self.a, self.log_gamma, s)
        return (*(_log_sum(self.log_w + part) for part in (log_p, log_q, log_tf)), None)


def _log_sum(log_terms, weights=1.0):
    """ln sum_k weights_k e**log_terms[:, k] per row, shifted by the row's largest term."""
    top = log_terms.max(axis=1)
    return top + np.log((weights * np.exp(log_terms - top[:, None])).sum(axis=1))


def _beta_logit_quantile(beta, log_tail, upper, y):
    """y = logit(x) with ln I_x = log_tail, or ln(1 - I_x) where upper,
    elementwise, by Halley steps from y (Newton steps where beta gives no
    slope of its log density).  An element stops when its step falls below
    1e-14 (1 + |y|), or below 1e-10 (1 + |y|) without halving, where
    rounding has taken over, or after a Halley step below 1e-5 over the
    scale of the derivatives, which leaves an error of order 1e-10 step.
    A step is held to 64 (1 + |y|): from a start deep in the other tail,
    where that tail is flat, it would throw y out of the float range."""
    y = np.array(y, dtype=float)
    live = np.arange(y.size)
    sign = np.where(upper, -1.0, 1.0)
    last = np.full(y.size, np.inf)
    for _ in range(200):
        if not live.size:
            return y
        yl, up, sg = y[live], upper[live], sign[live]
        lower_tail, upper_tail, log_dens, bend = beta.evaluate(yl, live)
        tail = np.where(up, upper_tail, lower_tail)
        slope = np.exp(log_dens - tail)  # |d tail / dy|
        step = sg * (tail - log_tail[live]) / slope
        if bend is not None:  # g''/g' is bend - slope for ln I and bend + slope for ln(1 - I)
            step /= np.clip(1.0 - 0.5 * step * (bend - sg * slope), 0.5, 2.0)
        scale = 1.0 + np.abs(yl)
        step = np.clip(step, -64.0 * scale, 64.0 * scale)
        y[live] = yl - step
        size = np.abs(step)
        done = (size <= 1e-14 * scale) | ((size <= 1e-10 * scale) & (size >= 0.5 * last[live]))
        if bend is not None:  # a Halley step leaves an error near (scale * step)**2 * step
            done |= size * (1.0 + np.abs(bend) + slope) <= 1e-5
        last[live] = size
        live = live[~done]
    raise ArithmeticError("incomplete beta inversion did not converge")


def _normal_quantile(log_tail):
    """|z| with Phi(-|z|) = e**log_tail, to 4.5e-4 (Abramowitz & Stegun 26.2.23)."""
    t = np.sqrt(-2.0 * np.asarray(log_tail))
    return t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))


def _logit_beta_start(a, b, z):
    """The Cornish-Fisher quantile of logit X, X ~ Beta(a, b), at the
    standard normal quantile z: logit X is ln G_a - ln G_b, with cumulants
    psi(a) - psi(b), psi'(a) + psi'(b) and psi''(a) - psi''(b); the
    polygammas are taken six steps up, from their asymptotic series."""
    cumulants = []
    for c in (np.asarray(a, dtype=float), np.asarray(b, dtype=float)):
        w = c + 6.0
        steps = [c + i for i in range(6)]
        v = 1.0 / (w * w)
        cumulants.append((
            np.log(w) - 0.5 / w - v * (1 / 12 - v * (1 / 120 - v / 252)) - sum(1.0 / x for x in steps),
            (1.0 + 0.5 / w + v * (1 / 6 - v / 30)) / w + sum(1.0 / (x * x) for x in steps),
            -v * (1.0 + 1.0 / w + v * (0.5 - v / 6)) - sum(2.0 / x ** 3 for x in steps)))
    (psi_a, tri_a, tetra_a), (psi_b, tri_b, tetra_b) = cumulants
    sd = np.sqrt(tri_a + tri_b)
    return psi_a - psi_b + sd * (z + (tetra_a - tetra_b) / sd ** 3 * (z * z - 1.0) / 6.0)


def order_statistic_quantiles(n: int, a: float, j, tail, upper):
    """Quantiles of the j-th smallest of n iid Beta(a, (n-1) a) draws that
    cut ``tail`` off the lower side, or off the upper side where ``upper``,
    elementwise in the integer array j, clamped to [smallest normal, 1],
    for a in the domain of _check_domain.

    The j-th smallest has CDF I_F(x)(j, n-j+1), so U, the Beta(j, n-j+1)
    quantile, comes first, then x with I_x(a, (n-1) a) = U, each solved
    in logit space from its smaller tail.
    """
    j = np.asarray(j, dtype=float)
    upper = np.broadcast_to(upper, j.shape)
    log_q = np.log(np.broadcast_to(np.asarray(tail, dtype=float), j.shape))
    start = _logit_beta_start(j, n + 1.0 - j, np.where(upper, 1.0, -1.0) * _normal_quantile(log_q))
    y_u = _beta_logit_quantile(_IntegerBeta(n, j), log_q, upper, start)
    log_u, log_v = -_softplus(-y_u), -_softplus(y_u)
    b = (n - 1) * a
    upper, log_tail = log_v < log_u, np.minimum(log_u, log_v)
    beta = _GammaMixture(a, b) if a + b > _BETA_CF_MAX else _Beta(a, b)
    start = _logit_beta_start(a, b, np.where(upper, 1.0, -1.0) * _normal_quantile(log_tail))
    y = _beta_logit_quantile(beta, log_tail, upper, start)
    return np.clip(np.exp(-_softplus(-y)), _SMALLEST_NORMAL, 1.0)


def order_statistic_bands(n: int, alpha: float, level: float) -> tuple[np.ndarray, np.ndarray]:
    """(low, high) of every rank's central ``level`` band, rank 1 first,
    in one order_statistic_quantiles call that cuts (1 - level)/2 off each
    side; NumericalError where the concentration or the inversion fails."""
    _check_domain(n, alpha)
    smallest = np.arange(n, 0, -1)  # order-statistic index of each rank
    try:
        bands = order_statistic_quantiles(n, alpha, np.tile(smallest, 2), (1.0 - level) / 2.0,
                                          np.repeat([False, True], n))
    except ArithmeticError:
        raise NumericalError(f"quantile inversion failed at level={level}") from None
    return bands[:n], bands[n:]


# The moment engine works in s = ln t.  Each rank's window holds its first-
# and second-moment integrands down to exp(-_DROP) of their peaks; the 128
# nodes of gauss_legendre span it, for _BLOCK ranks at a time (128 KB
# arrays).
# As (n - 1) alpha falls to 0 the top rank's variance becomes a difference
# of numbers near 1: at 5e-4 its sd is off mpmath by up to 2e-10, at
# _MIN_SPREAD by 3e-12.  Near _MAX_ALPHA the sds miss 1e-10 at large n:
# against mpmath, rank 750 of n = 1500 is off by 4.8e-10 at alpha = 1e9
# and by 4.5e-9 at 1e10, while the means stay within 1e-13.
_DROP, _BLOCK = 50.0, 128
_MIN_SPREAD, _MAX_ALPHA = 5e-3, 1e10
_LOG_RANGE_END = math.log(1e-300)


def _check_domain(n: int, alpha: float) -> None:
    """NumericalError for a concentration outside [_MIN_SPREAD / (n - 1), _MAX_ALPHA]."""
    floor = _MIN_SPREAD / (n - 1)
    if not floor <= alpha <= _MAX_ALPHA:
        side, bound = ("below", floor) if alpha < floor else ("above", _MAX_ALPHA)
        raise NumericalError(
            f"concentration {alpha:.3g} is {side} {bound:.3g}, where the order-statistic "
            f"moments of n = {n} components miss their error bound")


def _phi(n: int, alpha: float, j, p, s, log_p, log_q):
    """phi = ln(t**p * density of ln G_(j)) + const at s = ln t, given
    (ln P, ln Q) of Gamma(alpha, 1) there.

    G_(j) is the j-th smallest of n iid Gamma(alpha, 1) draws; phi is
    concave in s.
    """
    x = s - np.log(alpha + p)
    return (alpha + p) * (x - np.expm1(x)) + (j - 1) * log_p + (n - j) * log_q


def _log_integrand(n: int, alpha: float, j, p, s, log_cdfs):
    """phi, phi' and phi'' in s (see _phi), with ln P, ln Q and their
    slopes from the Interpolant log_cdfs."""
    t = np.exp(s)
    log_p, log_q = log_cdfs(s)
    h_p, h_q = log_cdfs.slopes(s, log_p, log_q)  # d ln P/ds, -d ln Q/ds
    phi = _phi(n, alpha, j, p, s, log_p, log_q)
    d1 = alpha + p - t + (j - 1) * h_p - (n - j) * h_q
    d2 = -t + (j - 1) * h_p * (alpha - t - h_p) - (n - j) * h_q * (alpha - t + h_q)
    return phi, d1, d2


def _moment_windows(n: int, alpha: float, j):
    """Windows [low, high] in s: from where the first-moment integrand has
    fallen by _DROP left of its peak to where the second-moment one has
    fallen by _DROP right of its own, inside the nodes of an Interpolant
    of ln P and ln Q that spans the range where P, Q > 1e-300.

    phi is taken at those nodes, which brackets every peak between the
    neighbours of its best node and every edge between two nodes.  Newton
    steps on phi' inside the bracket then place the peaks, and Newton
    steps on phi - peak + _DROP, which, phi being concave, stay outside
    the edge once they have crossed it, the edges, started by linear
    interpolation between their nodes.
    """
    low, high = tail_bounds(alpha, _LOG_RANGE_END)
    log_cdfs = Interpolant(alpha, max(low, _LOG_RANGE_END), high, n - 1)
    grid = log_cdfs.s
    s_lo, s_hi = grid[0], grid[-1]
    p, side = np.array([[1.0], [2.0]]), np.array([[-1.0], [1.0]])
    log_p, log_q = log_cdfs(grid)
    at = np.arange(grid.size)
    parts = []
    for b in (slice(k, k + 32) for k in range(0, n, 32)):  # 32 ranks keep phi small
        phi = _phi(n, alpha, j[b][:, None], p[..., None], grid, log_p, log_q)
        k = np.argmax(phi, axis=-1)
        below = phi < np.take_along_axis(phi, k[..., None], -1) - _DROP
        # the last node below the drop left of the best node, the first right of it
        cross = np.where(side == -1.0, np.where(below & (at < k[..., None]), at, -1).max(-1),
                         np.where(below & (at > k[..., None]), at, grid.size).min(-1))
        near = np.clip(cross, 0, grid.size - 1)
        far = np.clip(cross - side.astype(int), 0, grid.size - 1)
        parts.append((k, cross, near, far, np.take_along_axis(phi, near[..., None], -1)[..., 0],
                      np.take_along_axis(phi, far[..., None], -1)[..., 0]))
    best, cross, near, far, phi_near, phi_far = (np.concatenate(v, axis=-1) for v in zip(*parts))
    s = grid[best]
    lo, hi = grid[np.maximum(best - 1, 0)], grid[np.minimum(best + 1, grid.size - 1)]
    for _ in range(200):
        peak, d1, d2 = _log_integrand(n, alpha, j, p, s, log_cdfs)
        lo, hi = np.where(d1 > 0, s, lo), np.where(d1 > 0, hi, s)
        # within 0.05 sd of the peak, or pinned to an end of the range
        done = (d1 * d1 <= -2.5e-3 * d2) | (hi - lo <= 1e-9 * (1.0 + np.abs(s)))
        if done.all():
            break
        step = s - np.divide(d1, d2, out=np.full_like(d1, np.inf), where=d2 < 0)
        s = np.where(done, s, np.where((step >= lo) & (step <= hi), step, (lo + hi) / 2.0))
    else:
        raise NumericalError(f"moment windows did not converge at n={n}, alpha={alpha:.3g}")
    # linear interpolation of phi between the two nodes around each edge
    share = np.clip((peak - _DROP - phi_near) / np.where(phi_far > phi_near, phi_far - phi_near, 1.0),
                    0.0, 1.0)
    edge = np.where((cross < 0) | (cross >= grid.size), np.where(side < 0, s_lo, s_hi),
                    grid[near] + share * (grid[far] - grid[near]))
    for _ in range(8):
        phi, d1, _ = _log_integrand(n, alpha, j, p, edge, log_cdfs)
        # an edge whose slope points away from its peak is pinned at a range end
        gap = np.where(d1 * side < 0, phi - peak + _DROP, 0.0)
        if (np.abs(gap) <= 0.1).all():
            break
        edge = np.clip(edge - gap / d1, s_lo, s_hi)
    return edge[0], edge[1]


def _gamma_moments(n: int, alpha: float, j, low, high):
    """Per row: the mean m of G_(j) within its window [low, high], the
    probability p of the window, and Var G_(j) / (p m**2) + p.

    The nodes give m and the variance about it within the window (the
    density is needed only up to a constant, and each row is scaled by its
    largest term); the Beta(j, n-j+1) law of P(G_(j)) gives the
    probabilities of falling below, inside and above the window.
    """
    u, w = gauss_legendre()
    s = low[:, None] + (high - low)[:, None] * u
    # one evaluation for the nodes and, in the last two columns, the window ends
    log_p, log_q = log_pq(alpha, np.column_stack([s, low, high]))
    (log_p, log_p_low, log_p_high), (log_q, log_q_low, log_q_high) = (
        np.split(part, [u.size, u.size + 1], axis=1) for part in (log_p, log_q))
    log_density = _phi(n, alpha, j[:, None], 0.0, s, log_p, log_q)
    log_mass = _log_sum(log_density, w)
    log_mean = _log_sum(log_density + s, w) - log_mass
    # (t / mean - 1)**2 as exp(2 max(gap, 0)) * expm1(-|gap|)**2, free of cancellation
    gap = s - log_mean[:, None]
    spread = np.exp(_log_sum(log_density + 2.0 * np.maximum(gap, 0.0),
                             w * np.expm1(-np.abs(gap)) ** 2) - log_mass)
    # G_(j) < e**low when at least j of the n draws are, G_(j) > e**high
    # when at least n - j + 1 are
    tails, rests = np.exp(binomial_tail(
        n, np.concatenate([j, n - j + 1]), np.concatenate([log_p_low, log_q_high])[:, 0],
        np.concatenate([log_q_low, log_p_high])[:, 0]))
    below, above = np.split(tails, 2)
    inside = np.split(rests, 2)[0] - above
    return np.exp(log_mean), inside, spread + below + above


def order_statistic_moments(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(mean, sd) of every rank of the symmetric Dirichlet (n, alpha),
    rank 1 first, from the moments of the j-th smallest G_(j) of n iid
    Gamma(alpha, 1) (see dirichlet.order_statistic_moments).

    Each G_(j) is summed over nodes in its own window of s = ln t (see
    _moment_windows), one row of a node matrix of _BLOCK ranks, so that
    log_pq runs once per matrix.  Variances are taken over the squared
    window mean, so that sds far below 1e-154 stay finite.  A
    concentration outside [_MIN_SPREAD / (n - 1), _MAX_ALPHA], or a result
    that fails the sum identities of the means and second moments, raises
    NumericalError.
    """
    _check_domain(n, alpha)
    j = np.arange(1.0, n + 1.0)
    low, high = _moment_windows(n, alpha, j)
    blocks = [slice(k, k + _BLOCK) for k in range(0, n, _BLOCK)]
    window_mean, inside, rest = (np.concatenate(part) for part in zip(
        *(_gamma_moments(n, alpha, j[b], low[b], high[b]) for b in blocks)))
    scale = n * alpha
    means = (inside * window_mean / scale)[::-1]
    variance = inside * (rest - inside / scale) / (scale * (scale + 1.0))  # over window_mean**2
    sds = (window_mean * np.sqrt(np.maximum(variance, 0.0)))[::-1]
    # both identities are exact: sum of means 1, sum of E[X**2] (alpha+1)/(n alpha+1)
    total = math.fsum(means)
    second = math.fsum(means * means + sds * sds) * (scale + 1.0) / (alpha + 1.0)
    if not (np.isfinite((means, sds)).all() and abs(total - 1.0) <= 1e-12
            and abs(second - 1.0) <= 1e-10):
        raise NumericalError(
            f"order-statistic moments failed at alpha={alpha:.3g}: means sum to {total!r} "
            f"and second moments to {second!r} of (alpha+1)/(n alpha+1), not 1")
    return means, sds
