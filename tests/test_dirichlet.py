import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from phonodist import _gamma
from phonodist.dirichlet import (
    AlphaScalingLaw,
    DirichletSpec,
    digamma,
    expected_entropy,
    order_statistic_bands,
    order_statistic_moments,
    predict_alpha,
    reconstruct_from_inventory,
    solve_alpha,
)
from phonodist.errors import DomainError, InfeasibleError, NumericalError

from mp_oracle import mp_rank_moments

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


def quantile(spec: DirichletSpec, j: int, tail: float, upper: bool = False) -> float:
    """The quantile of the j-th smallest of n iid Beta(alpha, (n-1) alpha)
    draws that cuts ``tail`` off its lower side, or off its upper side
    where ``upper``, by the engine order_statistic_bands calls."""
    return float(_gamma.order_statistic_quantiles(spec.n, spec.alpha, np.array([j]), tail, upper)[0])


def iid_order_statistic_pdf(spec: DirichletSpec, r: int, x: float) -> float:
    """Density at x of the r-th smallest of n iid Beta(alpha, (n-1)alpha)
    draws, the construction the band quantiles invert."""
    marginal = stats.beta(spec.alpha, (spec.n - 1) * spec.alpha)
    cdf = marginal.cdf(x)
    n = spec.n
    return r * math.comb(n, r) * marginal.pdf(x) * cdf ** (r - 1) * (1.0 - cdf) ** (n - r)


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
            for x in [*reals, *ints]:
                got = digamma(x)
                ref = mpmath.digamma(mpmath.mpf(float(x)))
                # 2e-15 relative, or 1e-15 absolute within 0.5 of the root
                bound = max(2e-15 * abs(float(ref)), 1e-15 if abs(x - root) < 0.5 else 0.0)
                assert abs(mpmath.mpf(got) - ref) <= bound, (x, got)

    def test_array_is_rejected(self):
        # every caller passes a scalar; an array is outside the domain
        for x in (np.array(1.0), np.array([1.0]), np.array([[0.3, 5.0]])):
            with pytest.raises(DomainError):
                digamma(x)


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

    def test_target_within_rounding_of_ln_n_is_infeasible(self):
        # one ulp below ln 3: the float expected entropy never climbs that
        # close before the bracket stops widening
        target = math.nextafter(math.log(3), 0.0)
        with pytest.raises(InfeasibleError, match="within rounding of ln n"):
            solve_alpha(target, 3)

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

    @pytest.mark.parametrize(
        "n, law",
        [(1000, AlphaScalingLaw(exponent_b=1e10)), (10**400, AlphaScalingLaw(exponent_b=0.95))],
    )
    def test_overflowing_power_names_the_concentration(self, n, law):
        # n ** exponent_b overflows a float before the concentration exists
        with pytest.raises(DomainError, match="overflows a float"):
            predict_alpha(n, law)

    def test_inventory_beyond_the_floats(self):
        # n**b is taken as exp(b ln n) where n is no float
        assert predict_alpha(10**309) == pytest.approx(19.47 * 10.0 ** (-0.95 * 309), rel=1e-12)
        assert predict_alpha(10**400, AlphaScalingLaw(exponent_b=0.0)) == 19.47
        with pytest.raises(DomainError, match="got 0.0"):
            predict_alpha(10**400)


class TestGaussLegendre:
    def test_nodes_increase_inside_the_unit_interval(self):
        nodes, weights = _gamma.gauss_legendre()
        assert len(nodes) == len(weights) == _gamma._NODES
        assert 0.0 < nodes[0] and nodes[-1] < 1.0
        assert np.all(np.diff(nodes) > 0)

    def test_integrates_every_power_up_to_the_rule_degree(self):
        nodes, weights = _gamma.gauss_legendre()
        for k in range(2 * _gamma._NODES):
            got = math.fsum(weights * nodes**k)
            assert got == pytest.approx(1.0 / (k + 1), rel=1e-12, abs=0), k

    def test_matches_scipy_roots_legendre(self):
        special = pytest.importorskip("scipy.special")
        x, w = special.roots_legendre(_gamma._NODES)
        nodes, weights = _gamma.gauss_legendre()
        np.testing.assert_allclose(nodes, (x + 1.0) / 2.0, rtol=1e-10, atol=0)
        np.testing.assert_allclose(weights, w / 2.0, rtol=1e-10, atol=0)


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

    @pytest.mark.parametrize("alpha", [1e-300, 5e-324])
    def test_lost_curve_raises_instead_of_returning(self, alpha):
        # far below the concentration floor (n - 1) alpha = 5e-3, the top
        # rank's sd would be a difference of two numbers near 1; the
        # engine names the floor instead of returning a curve
        with pytest.raises(NumericalError, match=r"below 0\.000263, where the order-statistic"):
            order_statistic_moments(DirichletSpec(20, alpha))

    def test_above_the_ceiling_raises(self):
        with pytest.raises(NumericalError, match=r"concentration 2e\+10 is above 1e\+10"):
            order_statistic_moments(DirichletSpec(20, 2e10))

    @pytest.mark.parametrize("n", [2, 11, 160, 1000, 1800])
    @pytest.mark.parametrize("law", ["default", "alpha=1"])
    def test_against_mpmath(self, n, law):
        # every rank at small n, the two ends and the middle at large n
        alpha = predict_alpha(n) if law == "default" else 1.0
        ranks = range(1, n + 1) if n <= 11 else sorted({1, 2, math.ceil(n / 2), n - 1, n})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            summary = order_statistic_moments(DirichletSpec(n, alpha))
        for rank in ranks:
            mean, sd = mp_rank_moments(n, alpha, rank)
            assert summary.mean[rank - 1] == pytest.approx(mean, rel=1e-10, abs=0), rank
            assert summary.sd[rank - 1] == pytest.approx(sd, rel=1e-10, abs=0), rank

    @pytest.mark.parametrize("alpha", [1e3, 1e6, 1e9])
    def test_large_concentrations_against_mpmath(self, alpha):
        # toward the ceiling ln G_(j) narrows to about 1/sqrt(alpha), and
        # the sd falls to about 1e-5 of the mean at 1e9
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            summary = order_statistic_moments(DirichletSpec(11, alpha))
        for rank in (1, 6, 11):
            mean, sd = mp_rank_moments(11, alpha, rank)
            assert summary.mean[rank - 1] == pytest.approx(mean, rel=1e-10, abs=0), rank
            assert summary.sd[rank - 1] == pytest.approx(sd, rel=1e-10, abs=0), rank

    @pytest.mark.parametrize("n", [1500, 2000])
    def test_windows_at_the_concentration_ceiling(self, n):
        # at alpha = 1e10 the interpolated ln Q erred by about 0.1 at the
        # default node spacing, which n - j multiplies in phi, and the
        # windows lost mass: `reconstruct --n 2000 --coeff-a 1e10
        # --exponent-b 0` exited 4 with the means summing to 0.99975
        summary = order_statistic_moments(DirichletSpec(n, 1e10))
        assert math.fsum(summary.mean) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 20, 2000])
    def test_at_the_concentration_floor_against_mpmath(self, n):
        # the top rank's sd is the worst conditioned value there
        alpha = 5e-3 / (n - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            summary = order_statistic_moments(DirichletSpec(n, alpha))
        for rank in (1, 2):
            mean, sd = mp_rank_moments(n, alpha, rank)
            assert summary.mean[rank - 1] == pytest.approx(mean, rel=1e-10, abs=0), rank
            assert summary.sd[rank - 1] == pytest.approx(sd, rel=1e-10, abs=0), rank
        with pytest.raises(NumericalError, match="is below"):
            order_statistic_moments(DirichletSpec(n, alpha * 0.99))

    def test_low_ranks_at_a_small_concentration_against_mpmath(self):
        # coeff_a 0.01 at n = 200: most of a low rank's integrand lies below
        # t = 1e-300, where its window stops, so its mean needs the window's
        # probability to relative precision, far below 1e-16
        alpha = predict_alpha(200, AlphaScalingLaw(coeff_a=0.01))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            summary = order_statistic_moments(DirichletSpec(200, alpha))
        for rank in (18, 20, 30):
            mean, sd = mp_rank_moments(200, alpha, rank)
            assert summary.mean[rank - 1] == pytest.approx(mean, rel=1e-10, abs=0), rank
            assert summary.sd[rank - 1] == pytest.approx(sd, rel=1e-10, abs=0), rank

    def test_self_check_catches_truncated_windows(self, monkeypatch):
        # windows cut where the integrands have fallen by only e**-3 lose
        # mass; the sum and second-moment identities must refuse the curve
        monkeypatch.setattr(_gamma, "_DROP", 3.0)
        with pytest.raises(NumericalError, match="means sum to"):
            order_statistic_moments(DirichletSpec(30, predict_alpha(30)))


class TestOrderStatisticQuantile:
    def test_uniform_pair_median(self):
        # F(x)^2 = 0.5 for the larger of two, so the median is sqrt(1/2)
        x = quantile(DirichletSpec(2, 1.0), 2, 0.5)
        assert x == pytest.approx(math.sqrt(0.5), abs=1e-10)

    def test_limits(self):
        spec = DirichletSpec(4, 1.5)
        assert quantile(spec, 2, 1e-9) < 1e-3
        tail = [quantile(spec, 3, 10.0 ** -k, upper=True) for k in (3, 9, 15)]
        assert np.all(np.diff(tail) > 0)
        assert tail[-1] > 0.98

    def test_monotone_in_q(self):
        spec = DirichletSpec(6, 0.8)
        qs = np.linspace(0.01, 0.99, 25)
        values = [quantile(spec, 3, min(q, 1.0 - q), q > 0.5) for q in qs]
        assert np.all(np.diff(values) > 0)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_matches_density_quadrature(self, r):
        # the iid density integrated up to the quantile gives back its level
        spec = DirichletSpec(5, 0.5)
        for tail, upper in ((0.05, False), (0.5, False), (0.05, True)):
            x = quantile(spec, r, tail, upper)
            mass, _ = integrate.quad(
                lambda t: iid_order_statistic_pdf(spec, r, t), 0, x, limit=400, points=[0.0]
            )
            assert mass == pytest.approx(1.0 - tail if upper else tail, abs=1e-8), (tail, upper)

    def test_simulation_oracle(self):
        # empirical 95th percentile of the 3rd smallest of 5 iid draws from
        # the Beta(alpha, (n-1)alpha) marginal, per the order-statistic
        # construction the quantile inverts
        spec = DirichletSpec(5, 2.0)
        rng = np.random.default_rng(42)
        draws = rng.beta(spec.alpha, (spec.n - 1) * spec.alpha, size=(10**6, 5))
        third = np.sort(draws, axis=1)[:, 2]
        empirical = np.quantile(third, 0.95)
        x = quantile(spec, 3, 0.05, upper=True)
        # MC standard error of the quantile via the density at x
        density = iid_order_statistic_pdf(spec, 3, x)
        se = math.sqrt(0.95 * 0.05 / 10**6) / density
        assert abs(x - empirical) < 3 * se


class TestOrderStatisticBands:
    @pytest.mark.parametrize("n", [2, 11, 160, 600])
    @pytest.mark.parametrize("level", [0.5, 0.95, 0.999])
    def test_equal_the_scalar_quantiles_bit_for_bit(self, n, level):
        spec = DirichletSpec(n, predict_alpha(n))
        low, high = order_statistic_bands(spec, level)
        for rank in range(1, n + 1):
            j = n - rank + 1
            assert low[rank - 1] == quantile(spec, j, (1.0 - level) / 2.0)
            assert high[rank - 1] == quantile(spec, j, (1.0 - level) / 2.0, upper=True)

    @pytest.mark.parametrize("level", [0.0, -0.2, 1.0, 1.5, math.nan])
    def test_level_outside_the_open_unit_interval_raises(self, level):
        message = re.escape(f"confidence level must lie in (0, 1), got {level!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=message):
                order_statistic_bands(DirichletSpec(11, predict_alpha(11)), level)
        # reconstruct checks the level first, before the inventory size
        with pytest.raises(DomainError, match=message):
            reconstruct_from_inventory(1, level=level)


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
