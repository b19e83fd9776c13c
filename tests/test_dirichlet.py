import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from phonodist.dirichlet import (
    AlphaScalingLaw,
    DirichletSpec,
    digamma,
    expected_entropy,
    marginal_cdf,
    marginal_pdf,
    order_statistic_moments,
    order_statistic_pdf,
    order_statistic_quantile,
    predict_alpha,
    reconstruct_from_inventory,
    solve_alpha,
)
from phonodist.errors import DomainError, InfeasibleError

EULER_GAMMA = 0.5772156649015328606


def digamma_oracle(x: float) -> float:
    """Independent digamma: recurrence past 20, then the Bernoulli
    asymptotic series."""
    acc = 0.0
    while x < 20:
        acc -= 1.0 / x
        x += 1.0
    bernoulli = [1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6]
    s = math.log(x) - 1.0 / (2.0 * x)
    for k, b2k in enumerate(bernoulli, start=1):
        s -= b2k / (2 * k * x ** (2 * k))
    return s + acc


def whitworth_means(n: int) -> np.ndarray:
    """Closed-form order-statistic means at alpha=1 (harmonic numbers)."""
    return np.array([sum(1.0 / i for i in range(r, n + 1)) / n for r in range(1, n + 1)])


class TestDigamma:
    def test_known_identities(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-14)

    @pytest.mark.parametrize("x", [26.6, 0.3, 1.7, 5.5, 123.4])
    def test_against_series_oracle(self, x):
        assert digamma(x) == pytest.approx(digamma_oracle(x), rel=1e-10)

    @pytest.mark.parametrize("x", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_errors(self, x):
        with pytest.raises(DomainError):
            digamma(x)
        with pytest.raises(DomainError):
            digamma(np.array([1.0, x]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        root = 1.4616321449683622  # where digamma crosses zero
        reals = np.concatenate(
            [
                np.logspace(-300, 300, 1201),
                np.linspace(0.5, 12.0, 2301),
                root + np.linspace(-1e-3, 1e-3, 101),
                [root, np.nextafter(root, 0), np.nextafter(root, 2), 1e-300, 1e300],
            ]
        )
        # integer arguments, as CWJ totals reach them, up to 2**63 - 1
        ints = np.unique(
            np.concatenate(
                [np.arange(1, 200), 2 ** np.arange(8, 63), 3 ** np.arange(5, 40)]
            ).astype(np.int64)
        )
        ints = np.append(ints, np.int64(2**63 - 1))
        with mpmath.workdps(30):
            for values in (reals, ints):
                array = digamma(values)
                for x, from_array in zip(values, array):
                    ref = mpmath.digamma(mpmath.mpf(float(x)))
                    # 2e-15 relative, or 1e-15 absolute within 0.5 of the root
                    bound = max(
                        2e-15 * abs(float(ref)), 1e-15 if abs(x - root) < 0.5 else 0.0
                    )
                    for got in (digamma(x), from_array):
                        assert abs(mpmath.mpf(float(got)) - ref) <= bound, (x, got)

    def test_array_matches_shape(self):
        x = np.array([[0.3, 5.0], [12.0, 1e6]])
        out = digamma(x)
        assert out.shape == x.shape
        assert out[0, 1] == pytest.approx(digamma(5.0), rel=2e-15)


class TestExpectedEntropy:
    def test_half_nat_at_uniform_pair(self):
        assert expected_entropy(DirichletSpec(2, 1.0)) == pytest.approx(0.5, abs=1e-14)

    def test_converges_to_log_n(self):
        assert expected_entropy(DirichletSpec(10, 1e9)) == pytest.approx(
            math.log(10), abs=1e-6
        )

    def test_east_taa_scale(self):
        # recomputed from the digamma identity at (n=160, alpha=0.157)
        value = expected_entropy(DirichletSpec(160, 0.157))
        assert value == pytest.approx(3.588384826735701, abs=1e-12)
        assert value / math.log(160) == pytest.approx(0.71, abs=0.01)

    @given(
        alpha=st.floats(0.05, 10.0),
        n=st.integers(2, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_log_n(self, alpha, n):
        value = expected_entropy(DirichletSpec(n, alpha))
        assert 0.0 < value < math.log(n)


class TestSolveAlpha:
    def test_uniform_pair_inverse(self):
        assert solve_alpha(0.5, 2) == pytest.approx(1.0, rel=1e-10)

    def test_round_trip(self):
        target = expected_entropy(DirichletSpec(34, 0.7))
        assert solve_alpha(target, 34) == pytest.approx(0.7, rel=1e-9)

    def test_east_taa_against_bisection_oracle(self):
        lo, hi = 1e-4, 10.0
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if expected_entropy(DirichletSpec(160, mid)) > 3.61:
                hi = mid
            else:
                lo = mid
        assert solve_alpha(3.61, 160) == pytest.approx(lo, abs=1e-8)
        assert solve_alpha(3.61, 160) == pytest.approx(0.16, abs=0.01)

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.log(7), 5.0])
    def test_infeasible_targets(self, bad):
        with pytest.raises(InfeasibleError):
            solve_alpha(bad, 7)

    @given(
        alpha=st.floats(0.05, 10.0),
        n=st.integers(5, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_identity_on_grid(self, alpha, n):
        recovered = solve_alpha(expected_entropy(DirichletSpec(n, alpha)), n)
        assert recovered == pytest.approx(alpha, rel=1e-9)

    def test_against_mpmath_root(self):
        mpmath = pytest.importorskip("mpmath")

        def oracle(target, n):
            # root of psi(n a + 1) - psi(a + 1) = target in x = ln a, 30 digits
            with mpmath.workdps(30):
                def gap(x):
                    a = mpmath.exp(x)
                    return mpmath.digamma(n * a + 1) - mpmath.digamma(a + 1) - target

                return float(mpmath.exp(mpmath.findroot(gap, (-40, 40), solver="pegasus")))

        rng = random.Random(2026)
        cases = [
            (n, frac)
            for n in (2, 3, 7, 40, 160, 1000, 3000)
            for frac in (1e-3, 1e-2, 0.1, 0.5, 0.9, 0.99, 0.999)
        ]
        cases += [(rng.randint(2, 3000), rng.uniform(1e-3, 0.999)) for _ in range(20)]
        for n, frac in cases:
            target = frac * math.log(n)
            expected = oracle(target, n)
            assert solve_alpha(target, n) == pytest.approx(expected, rel=1e-10), (n, frac)

    @pytest.mark.parametrize("frac", [1e-9, 1.0 - 1e-12])
    @pytest.mark.parametrize("n", [2, 3, 11, 160, 1000, 3000])
    def test_flat_extremes_still_pass_the_residual_check(self, n, frac):
        # near both ends the digamma difference loses most of its digits to
        # cancellation, so alpha is only loosely determined; the solver must
        # still return a root that passes the residual check, as the
        # Brent-based solver did at every n here, and not raise
        target = frac * math.log(n)
        alpha = solve_alpha(target, n)
        assert math.isfinite(alpha) and alpha > 0
        assert abs(expected_entropy(DirichletSpec(n, alpha)) - target) <= 1e-10


class TestPredictAlpha:
    def test_endpoints(self):
        assert predict_alpha(160) == pytest.approx(0.16, abs=0.01)
        assert predict_alpha(11) == pytest.approx(2.00, abs=0.01)

    def test_crossing_point_near_one(self):
        assert predict_alpha(23) == pytest.approx(0.99, abs=0.01)

    def test_custom_law(self):
        law = AlphaScalingLaw(coeff_a=2.0, exponent_b=-1.0)
        assert predict_alpha(4, law) == pytest.approx(0.5)


class TestMarginal:
    def test_uniform_density(self):
        assert marginal_pdf(DirichletSpec(2, 1.0), 0.3) == pytest.approx(1.0)

    def test_beta_2_4_density(self):
        # B(2,4) = 1/20, density = 20 * x * (1-x)^3
        assert marginal_pdf(DirichletSpec(3, 2.0), 0.5) == pytest.approx(1.25, rel=1e-12)

    @pytest.mark.parametrize("n,alpha", [(2, 1.0), (3, 2.0), (5, 0.5)])
    def test_pdf_normalizes(self, n, alpha):
        spec = DirichletSpec(n, alpha)
        value, _ = integrate.quad(lambda x: marginal_pdf(spec, x), 0, 1, limit=200)
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_cdf_uniform_and_bounds(self):
        spec = DirichletSpec(2, 1.0)
        assert marginal_cdf(spec, 0.3) == pytest.approx(0.3, abs=1e-12)
        assert marginal_cdf(DirichletSpec(5, 0.7), 0.0) == 0.0
        assert marginal_cdf(DirichletSpec(5, 0.7), 1.0) == 1.0

    @pytest.mark.parametrize("n,alpha", [(3, 2.0), (7, 0.4), (20, 1.3)])
    def test_cdf_matches_pdf_quadrature(self, n, alpha):
        spec = DirichletSpec(n, alpha)
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.01, 0.99, size=50):
            oracle, _ = integrate.quad(
                lambda t: marginal_pdf(spec, t), 0, x, limit=200, points=[0.0]
            )
            assert marginal_cdf(spec, x) == pytest.approx(oracle, abs=1e-8)

    def test_domain_errors(self):
        spec = DirichletSpec(3, 2.0)
        with pytest.raises(DomainError):
            marginal_pdf(spec, 0.0)
        with pytest.raises(DomainError):
            marginal_pdf(spec, 1.0)
        with pytest.raises(DomainError):
            marginal_cdf(spec, -0.1)
        with pytest.raises(DomainError):
            marginal_cdf(spec, 1.1)


class TestOrderStatisticPdf:
    def test_uniform_pair_hand_value(self):
        # f_(2,2)(x) = 2 F(x) f(x) with uniform marginal
        assert order_statistic_pdf(DirichletSpec(2, 1.0), 2, 0.7) == pytest.approx(1.4)

    def test_rank_out_of_range(self):
        spec = DirichletSpec(5, 0.5)
        for bad in (0, 6, -1):
            with pytest.raises(DomainError):
                order_statistic_pdf(spec, bad, 0.5)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_normalization(self, r):
        spec = DirichletSpec(5, 0.5)
        value, _ = integrate.quad(
            lambda x: order_statistic_pdf(spec, r, x), 0, 1, limit=400, points=[0.0, 1.0]
        )
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_finite_in_log_space_at_scale(self):
        spec = DirichletSpec(200, 0.05)
        for r in (1, 100, 200):
            for x in (1e-6, 0.01, 0.5, 0.999):
                assert math.isfinite(order_statistic_pdf(spec, r, x))


class TestOrderStatisticMoments:
    def test_uniform_pair(self):
        summary = order_statistic_moments(DirichletSpec(2, 1.0))
        assert summary.mean == pytest.approx([0.75, 0.25], abs=1e-10)
        assert summary.sd[0] == pytest.approx(math.sqrt(1.0 / 48.0), abs=1e-10)

    @pytest.mark.parametrize("n", [5, 34])
    def test_whitworth_closed_form(self, n):
        summary = order_statistic_moments(DirichletSpec(n, 1.0))
        assert np.max(np.abs(summary.mean - whitworth_means(n))) < 1e-6

    @pytest.mark.parametrize("n,alpha", [(5, 0.5), (11, 2.0), (34, 0.7)])
    def test_sum_and_monotonicity(self, n, alpha):
        summary = order_statistic_moments(DirichletSpec(n, alpha))
        assert summary.mean.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(np.diff(summary.mean) < 0)
        assert np.all(summary.sd >= 0)


class TestOrderStatisticQuantile:
    def test_uniform_pair_median(self):
        # F(x)^2 = 0.5 for the larger of two, so the median is sqrt(1/2)
        x = order_statistic_quantile(DirichletSpec(2, 1.0), 2, 0.5)
        assert x == pytest.approx(math.sqrt(0.5), abs=1e-10)

    def test_limits(self):
        spec = DirichletSpec(4, 1.5)
        assert order_statistic_quantile(spec, 2, 1e-9) < 1e-3
        tail = [order_statistic_quantile(spec, 3, 1.0 - 10.0 ** -k) for k in (3, 9, 15)]
        assert np.all(np.diff(tail) > 0)
        assert tail[-1] > 0.98

    def test_monotone_in_q(self):
        spec = DirichletSpec(6, 0.8)
        qs = np.linspace(0.01, 0.99, 25)
        values = [order_statistic_quantile(spec, 3, q) for q in qs]
        assert np.all(np.diff(values) > 0)

    def test_simulation_oracle(self):
        # empirical 95th percentile of the 3rd smallest of 5 iid draws from
        # the Beta(alpha, (n-1)alpha) marginal, per the order-statistic
        # construction the quantile inverts
        spec = DirichletSpec(5, 2.0)
        rng = np.random.default_rng(42)
        draws = rng.beta(spec.beta_a, spec.beta_b, size=(10**6, 5))
        third = np.sort(draws, axis=1)[:, 2]
        empirical = np.quantile(third, 0.95)
        x = order_statistic_quantile(spec, 3, 0.95)
        # MC standard error of the quantile via the density at x
        density = order_statistic_pdf(spec, 3, x)
        se = math.sqrt(0.95 * 0.05 / 10**6) / density
        assert abs(x - empirical) < 3 * se


class TestReconstruct:
    def test_forced_alpha_one(self):
        # coefficient chosen so alpha(2) = 1 exactly
        law = AlphaScalingLaw(coeff_a=2.0 ** 0.95, exponent_b=-0.95)
        summary = reconstruct_from_inventory(2, law)
        assert summary.alpha == pytest.approx(1.0, rel=1e-12)
        assert summary.mean == pytest.approx([0.75, 0.25], abs=1e-8)

    def test_rotokas_alpha(self):
        summary = reconstruct_from_inventory(11)
        assert summary.alpha == pytest.approx(2.00, abs=0.01)
        assert summary.mean.sum() == pytest.approx(1.0, abs=1e-6)

    def test_bands_bracket_means(self):
        summary = reconstruct_from_inventory(34)
        assert np.all(summary.ci_low <= summary.mean)
        assert np.all(summary.mean <= summary.ci_high)
        assert summary.level == 0.95

    def test_invalid_inventory(self):
        with pytest.raises(DomainError):
            reconstruct_from_inventory(1)
