"""Oracle checks of phonodist._gamma, the incomplete gamma and beta ratios
behind the order-statistic moments and bands, against 40-digit mpmath."""

import math
from importlib.resources import files

import numpy as np
import pytest

from phonodist import _gamma, _special, dirichlet, io
from phonodist.analysis import band_coverage, fit_language
from phonodist.dirichlet import DirichletSpec, predict_alpha
from phonodist.entropy import CountVector
from phonodist.errors import NumericalError

mpmath = pytest.importorskip("mpmath")

LOG_TINY = math.log(1e-300)
SMALLEST_NORMAL = 2.2250738585072014e-308
# the concentrations the moment engine accepts, from 5e-3/(n-1) at n = 2000 to 1e10,
# with the method boundaries of log_pq (a = 1, 10, 25) on both sides
ALPHAS = [5e-3 / 1999, 1e-4, 3e-3, 0.0157, 0.157, 0.5, 0.77, 0.999, 1.0, 2.0, 7.3, 9.99, 10.0,
          24.9, 25.0, 30.0, 100.0, 1234.5, 1e5, 1e8, 1e10]


def quantile(spec, j, tail, upper=False):
    """The quantile of the j-th smallest of n iid Beta(alpha, (n-1) alpha)
    draws that cuts ``tail`` off its lower side, or off its upper side
    where ``upper``, by the engine order_statistic_bands calls."""
    return float(_gamma.order_statistic_quantiles(spec.n, spec.alpha, np.array([j]), tail, upper)[0])


def mp_log_tails(a, s):
    """(ln P, ln Q, t d ln P/dt, -t d ln Q/dt) of Gamma(a, 1) at t = e**s: the
    lower tail through 1F1 below t = a, the upper through mpmath's upper
    incomplete gamma above it, and the other tail as the complement."""
    with mpmath.workdps(40):
        a, t = mpmath.mpf(a), mpmath.exp(mpmath.mpf(s))
        log_tf = a * mpmath.log(t) - t - mpmath.loggamma(a)  # ln(t * density)
        if t < a:
            p = mpmath.exp(log_tf - mpmath.log(a)) * mpmath.hyp1f1(1, a + 1, t, maxterms=10**7)
            q = 1 - p
        else:
            q = mpmath.gammainc(a, t, mpmath.inf, regularized=True)
            p = 1 - q
        return mpmath.log(p), mpmath.log(q), mpmath.exp(log_tf - mpmath.log(p)), \
            mpmath.exp(log_tf - mpmath.log(q))


@pytest.mark.parametrize("a", ALPHAS)
def test_log_pq_against_mpmath_in_both_tails(a):
    # both tails from 1e-300 to 1/2; the tolerance adds the rounding of
    # t = e**s, which moves ln P by t |d ln P/dt| times an ulp of t
    low, high = _gamma.tail_bounds(a, LOG_TINY)
    points = 7 if a > 1e4 else 41
    s = np.concatenate([np.linspace(max(low, -700.0), high, points),
                        math.log(a) + np.linspace(-3.0, 3.0, 5) / math.sqrt(max(a, 1.0))])
    log_p, log_q = _gamma.log_pq(a, s)
    for si, got_p, got_q in zip(s, log_p, log_q):
        ref_p, ref_q, slope_p, slope_q = mp_log_tails(a, si)
        for got, ref, slope in ((got_p, ref_p, slope_p), (got_q, ref_q, slope_q)):
            if ref < LOG_TINY:
                continue
            bound = 1e-12 + float(slope) * 2.0 ** -52
            assert abs(got - ref) <= bound, (a, si, got, float(ref))


@pytest.mark.parametrize("a", [0.77, 30.0, 1e10])
def test_log_pq_is_elementwise(a):
    s = math.log(a) + np.linspace(-2.0, 2.0, 33) * (1.0 if a < 10 else 3.0 / math.sqrt(a))
    log_p, log_q = _gamma.log_pq(a, s)
    for k in (0, 16, 32):
        one_p, one_q = _gamma.log_pq(a, s[k:k + 1])
        assert (one_p[0], one_q[0]) == (log_p[k], log_q[k])


def test_lgamma1p_keeps_relative_precision_near_zero():
    for a in (1e-30, 2.5e-6, 1e-3, 0.1, 0.2499, 0.25, 0.7):
        with mpmath.workdps(80):
            ref = mpmath.loggamma(1 + mpmath.mpf(a))
        assert _special.lgamma1p(a) == pytest.approx(float(ref), rel=1e-14, abs=0)


@pytest.mark.parametrize("n", [5, 30, 400])
def test_binomial_tail_against_mpmath(n):
    rng = np.random.default_rng(n)
    k = rng.integers(1, n + 1, size=12)
    p = rng.uniform(0.0, 1.0, size=12) ** 3
    upper, lower = _gamma.binomial_tail(n, k, np.log(p), np.log1p(-p))
    for ki, pi, up, lo in zip(k, p, upper, lower):
        with mpmath.workdps(40):
            j, x = int(ki), mpmath.mpf(pi)
            ref_up = mpmath.betainc(j, n - j + 1, 0, x, regularized=True)
            ref_lo = mpmath.betainc(n - j + 1, j, 0, 1 - x, regularized=True)
            assert up == pytest.approx(float(mpmath.log(ref_up)), rel=1e-12, abs=1e-14)
            assert lo == pytest.approx(float(mpmath.log(ref_lo)), rel=1e-12, abs=1e-14)


def mp_beta_tails(a, b, x):
    """(I_x(a, b), 1 - I_x(a, b)), the second as I_(1-x)(b, a): mpmath's
    betainc over (x, 1) overflows for a near 1e-100.  For a + b above 1e4,
    where mpmath's series slow down and give up, by mpmath.quad of the
    log-concave density of logit X over 60 pieces on either side of logit
    x, out to 60 sds of the mode."""
    if a + b < 1e4:
        return (mpmath.betainc(a, b, 0, x, regularized=True),
                mpmath.betainc(b, a, 0, 1 - x, regularized=True))
    y, sd = mpmath.log(x / (1 - x)), mpmath.sqrt(1 / a + 1 / b)
    log_beta = mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)
    peak = a * mpmath.log(a / (a + b)) + b * mpmath.log(b / (a + b)) - log_beta

    def density(v):
        return mpmath.exp(a * v - (a + b) * mpmath.log1p(mpmath.exp(v)) - log_beta - peak)

    mode = mpmath.log(a / b)
    left = mpmath.quad(density, mpmath.linspace(min(y, mode) - 60 * sd, y, 61))
    right = mpmath.quad(density, mpmath.linspace(y, max(y, mode) + 60 * sd, 61))
    return left / (left + right), right / (left + right)


def mp_order_tails(n, alpha, r, x):
    """(G(x), 1 - G(x), F(x), 1 - F(x)) for G(x) = I_F(x)(r, n-r+1), the CDF
    of the r-th smallest of n iid Beta(alpha, (n-1) alpha) draws, whose CDF is F."""
    a, b, x = mpmath.mpf(alpha), (n - 1) * mpmath.mpf(alpha), mpmath.mpf(x)
    u, v = mp_beta_tails(a, b, x)
    return (mpmath.betainc(r, n - r + 1, 0, u, regularized=True),
            mpmath.betainc(r, n - r + 1, u, 1, regularized=True), u, v)


def mp_relative_error(n, alpha, r, tail, upper, x):
    """(x - x*) / x* to first order, x* the exact quantile that
    order_statistic_quantiles inverts: x* has I_F(x*)(r, n-r+1) = tail, or
    1 - tail where upper, with F the CDF of Beta(alpha, (n-1) alpha), so
    x - x* = (G(x) - G(x*)) / G'(x) for G(x) = I_F(x)(r, n-r+1); each tail
    is taken on its own side."""
    with mpmath.workdps(40):
        a, b, x, tail = mpmath.mpf(alpha), (n - 1) * mpmath.mpf(alpha), mpmath.mpf(x), mpmath.mpf(tail)
        below, above, u, v = mp_order_tails(n, alpha, r, x)
        gap = tail - above if upper else below - tail
        log_slope = ((r - 1) * mpmath.log(u) + (n - r) * mpmath.log(v)
                     - mpmath.log(mpmath.beta(r, n - r + 1))
                     + a * mpmath.log(x) + b * mpmath.log1p(-x) - mpmath.log(mpmath.beta(a, b)))
        return float(gap / mpmath.exp(log_slope))


def mp_root_relative_error(n, alpha, r, tail, upper, x):
    """(x - x*) / x* for x within about 1e-9 of 1, where G is too far from
    linear for mp_relative_error: x* = 1 - v* by bisection in ln v at 60
    digits, with the marginal's upper tail 1 - F(1 - v) taken as
    I_v((n-1) alpha, alpha) and 1 - G as I_{1-F}(n-r+1, r)."""
    with mpmath.workdps(60):
        a, b, tail = mpmath.mpf(alpha), (n - 1) * mpmath.mpf(alpha), mpmath.mpf(tail)
        target = tail if upper else 1 - tail  # of 1 - G, which rises with v

        def excess(log_v):
            f_upper = mpmath.betainc(b, a, 0, mpmath.exp(log_v), regularized=True)
            return mpmath.betainc(n - r + 1, r, 0, f_upper, regularized=True) - target

        v = 1 - mpmath.mpf(x)
        low, high = mpmath.log(v) - 1, mpmath.log(v) + 1
        while excess(low) > 0:
            low -= 1
        while excess(high) < 0:
            high += 1
        for _ in range(110):
            middle = (low + high) / 2
            low, high = (middle, high) if excess(middle) < 0 else (low, middle)
        root = mpmath.exp((low + high) / 2)
        return float((root - v) / (1 - root))


@pytest.mark.parametrize("n,law", [(2, "default"), (5, "default"), (11, "default"), (30, "default"),
                                   (160, "default"), (22, "alpha=1"), (11, "alpha=1e4")])
def test_order_statistic_quantile_against_mpmath(n, law):
    alpha = {"default": predict_alpha(n), "alpha=1": 1.0, "alpha=1e4": 1e4}[law]
    spec = DirichletSpec(n, alpha)
    # the tails of the 0.95 band, the median, and those of the band at
    # level 1 - 1e-12, where 1 - (1 + level)/2 misses the tail by 1.1e-4 relative
    far = (1.0 - (1.0 - 1e-12)) / 2.0
    for r in sorted({1, 2, (n + 1) // 2, n}):
        for tail, upper in ((0.025, False), (0.5, False), (0.025, True), (far, False), (far, True)):
            x = quantile(spec, r, tail, upper)
            assert abs(mp_relative_error(n, alpha, r, tail, upper, x)) <= 1e-12, (r, tail, upper, x)


def test_large_concentration_bands_against_mpmath():
    # above a + b = 1e4 the beta ratio comes from the gamma mixture
    spec = DirichletSpec(11, 1e9)
    for r in (1, 11):
        for upper in (False, True):
            x = quantile(spec, r, 0.025, upper)
            assert abs(mp_relative_error(11, 1e9, r, 0.025, upper, x)) <= 1e-12, (r, upper, x)


def test_bands_keep_the_smallest_normal_floor():
    # the exact lower band of rank 1800 at n = 1800 is 9.04e-311, below the
    # normal range; it prints as the smallest normal float, as it always has
    low, high = dirichlet.order_statistic_bands(DirichletSpec(1800, predict_alpha(1800)), 0.95)
    assert low[-1] == 2.2250738585072014e-308
    assert np.all((0 < low) & (low < high) & (high < 1))


def assert_quantile(n, alpha, r, tail, upper, x):
    """x is within 1e-12 of the exact quantile, or at the clamp beyond which
    the exact quantile lies: at most the smallest normal float, or within an
    ulp of 1.  Within 1e-9 of 1 the exact quantile is a direct root."""
    if x == SMALLEST_NORMAL:
        assert mp_relative_error(n, alpha, r, tail, upper, x) >= -1e-12, (r, tail, upper, x)
    elif x == 1.0:
        assert mp_relative_error(n, alpha, r, tail, upper, 1.0 - 2.0 ** -53) <= 1e-12, (r, tail, upper, x)
    elif x > 1.0 - 1e-9:
        assert abs(mp_root_relative_error(n, alpha, r, tail, upper, x)) <= 1e-12, (r, tail, upper, x)
    else:
        assert abs(mp_relative_error(n, alpha, r, tail, upper, x)) <= 1e-12, (r, tail, upper, x)


# count tables whose fits reach the ends of the concentrations a fit gives, with
# the concentration each fits: near-uniform tables give large ones, above 1e10,
# and one dominant phoneme tiny ones, below 5e-3/(n-1)
FITTED_EXTREMES = {
    "near-uniform-2": ([5 * 10**13 + 12 * 10**6, 5 * 10**13 - 12 * 10**6], 1.06e13),
    "near-uniform-3": ([5 * 10**16 + 6 * 10**8, 5 * 10**16 - 6 * 10**8, 5 * 10**16], 4.85e16),
    "dominant-3": ([10**7, 2, 1], 1.56e-6),
    "dominant-5": ([10**30, 1, 1, 1, 1], 2.2e-17),
}


@pytest.mark.parametrize("name", FITTED_EXTREMES)
def test_bands_and_coverage_at_fitted_extremes_against_mpmath(name):
    # the fits lie outside the bands' domain, so the coverage raises the
    # moments' NumericalError for them
    counts, fitted = FITTED_EXTREMES[name]
    table = CountVector({f"ph{i}": c for i, c in enumerate(counts)})
    fit = fit_language(name, table)
    assert fit.alpha_hat == pytest.approx(fitted, rel=0.01)
    with pytest.raises(NumericalError) as info:
        band_coverage(table)
    with pytest.raises(NumericalError) as moments:
        dirichlet.order_statistic_moments(DirichletSpec(fit.n, fit.alpha_hat))
    assert str(info.value) == str(moments.value)


@pytest.mark.parametrize("name", ["samoan", "bengali"])
def test_band_coverage_counts_the_shares_inside_the_exact_bands(name):
    # samoan's 13 shares all lie inside their bands, 3 of bengali's 40 do not
    table = io.load_frequency_table(str(files("phonodist") / "data" / f"{name}.tsv"))
    fit = fit_language(name, table)
    n, alpha = fit.n, fit.alpha_hat
    counts = sorted(table.positive_counts(), reverse=True)
    low, high = dirichlet.order_statistic_bands(DirichletSpec(n, alpha), 0.95)
    total, inside = sum(counts), 0
    for rank, c in enumerate(counts, start=1):
        r = n - rank + 1
        assert_quantile(n, alpha, r, 0.025, False, low[rank - 1])
        assert_quantile(n, alpha, r, 0.025, True, high[rank - 1])
        # the share lies in the exact band when neither tail of G beyond it is below 0.025
        with mpmath.workdps(40):
            below, above, _, _ = mp_order_tails(n, alpha, r, mpmath.mpf(c) / total)
        inside += below >= 0.025 and above >= 0.025
    assert band_coverage(table) == inside / n


def test_bands_at_the_ends_of_the_concentration_range():
    # 1e10 and the floor 5e-3/(n - 1); at n = 3 rank 3's upper bound is 1 - 4.2e-12
    for n, alpha in ((7, 1e10), (2, 5e-3), (3, 2.5e-3)):
        low, high = dirichlet.order_statistic_bands(DirichletSpec(n, alpha), 0.95)
        for rank in range(1, n + 1):
            assert_quantile(n, alpha, n - rank + 1, 0.025, False, low[rank - 1])
            assert_quantile(n, alpha, n - rank + 1, 0.025, True, high[rank - 1])


@pytest.mark.parametrize("n,alpha", [(3, 2.0), (4, 1.0), (6, 0.5)])
def test_bands_where_the_first_fraction_denominator_is_zero(n, alpha):
    # at alpha = 2/(n - 2) the fraction's first denominator 1 - (a + b) x/(a + 1)
    # is exactly 0 at the pivot x = 1/2; (4, 1) is the flat Dirichlet
    spec = DirichletSpec(n, alpha)
    low, high = dirichlet.order_statistic_bands(spec, 0.95)
    mean = dirichlet.order_statistic_moments(spec).mean
    assert np.all((0 < low) & (low < mean) & (mean < high) & (high < 1))
    for rank in range(1, n + 1):
        assert_quantile(n, alpha, n - rank + 1, 0.025, False, low[rank - 1])
        assert_quantile(n, alpha, n - rank + 1, 0.025, True, high[rank - 1])


# just outside both ends of the domain at n = 3, [5e-3/2, 1e10], and far outside
@pytest.mark.parametrize("alpha", [1e-101, math.nextafter(2.5e-3, 0.0), math.nextafter(1e10, math.inf),
                                   1e101])
def test_concentrations_outside_the_range_raise(alpha):
    spec = DirichletSpec(3, alpha)
    side, bound = ("below", "0.0025") if alpha < 1.0 else ("above", "1e+10")
    message = (f"concentration {alpha:.3g} is {side} {bound}, where the order-statistic "
               f"moments of n = 3 components miss their error bound")
    for call in (dirichlet.order_statistic_moments, lambda spec: dirichlet.order_statistic_bands(spec, 0.95)):
        with pytest.raises(NumericalError) as info:
            call(spec)
        assert str(info.value) == message


@pytest.mark.parametrize("n,r,q", [(7, 7, 1e-30), (7, 7, 1e-300), (30, 30, 1e-200), (7, 1, 1e-300)])
def test_extreme_levels_against_mpmath(n, r, q):
    # the Cornish-Fisher start of the Beta(r, n-r+1) inversion lies in the
    # other tail for the top ranks here
    alpha = predict_alpha(n)
    assert_quantile(n, alpha, r, q, False, quantile(DirichletSpec(n, alpha), r, q))
