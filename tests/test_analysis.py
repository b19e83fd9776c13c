import math

import numpy as np
import pytest

from phonodist.analysis import (
    _t_two_sided_p,
    band_coverage,
    compensation_report,
    implied_scaling_law,
    loglog_regression,
    pearson_test,
)
from phonodist.dirichlet import AlphaScalingLaw, predict_alpha
from phonodist.entropy import CountVector
from phonodist.errors import DomainError
from phonodist.maxent import MaxEntProblem, solve


def law_points(ns, law=None, rng=None, sigma=0.0):
    law = law or AlphaScalingLaw()
    out = []
    for n in ns:
        alpha = law.coeff_a * n ** law.exponent_b
        if rng is not None and sigma > 0:
            alpha *= math.exp(rng.normal(scale=sigma))
        out.append((float(n), alpha))
    return out


class TestLoglogRegression:
    def test_noiseless_recovery(self):
        fit = loglog_regression(law_points(range(11, 161, 7)))
        assert fit.slope == pytest.approx(-0.95, abs=1e-10)
        assert fit.intercept == pytest.approx(math.log(19.47), abs=1e-10)
        assert fit.se_slope == pytest.approx(0.0, abs=1e-8)
        assert fit.p_slope < 1e-10

    def test_noisy_monte_carlo(self):
        rng = np.random.default_rng(101)
        ns = rng.integers(11, 161, size=224)
        fit = loglog_regression(law_points(ns, rng=rng, sigma=0.1))
        assert abs(fit.slope - (-0.95)) < 3 * fit.se_slope
        assert fit.n_points == 224

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(4)
        pts = law_points(range(10, 100, 5), rng=rng, sigma=0.3)
        fit = loglog_regression(pts)
        x = np.log([p[0] for p in pts])
        y = np.log([p[1] for p in pts])
        resid = y - (fit.intercept + fit.slope * x)
        assert abs(resid.sum()) < 1e-10
        assert abs(resid @ x) < 1e-9

    def test_origin_covariates(self):
        rng = np.random.default_rng(8)
        pts_a = law_points(range(10, 90, 5), rng=rng, sigma=0.05)
        law_b = AlphaScalingLaw(coeff_a=25.0, exponent_b=-1.05)
        pts_b = law_points(range(12, 92, 5), law=law_b, rng=rng, sigma=0.05)
        origins = ["a"] * len(pts_a) + ["b"] * len(pts_b)
        fit = loglog_regression(pts_a + pts_b, origins=origins)
        # baseline slope should track dataset a, not the pooled mixture
        assert fit.slope == pytest.approx(-0.95, abs=0.1)

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            loglog_regression(law_points([10, 20]))

    def test_nonpositive_coordinates(self):
        with pytest.raises(DomainError):
            loglog_regression([(10.0, 1.0), (20.0, -0.5), (30.0, 0.2)])

    def test_no_variance_in_n(self):
        with pytest.raises(DomainError):
            loglog_regression([(10.0, 1.0), (10.0, 1.1), (10.0, 0.9)])

    def test_zero_residual_variance(self):
        # an exact fit has no standard error and no finite t statistic
        with pytest.raises(DomainError, match="zero residual variance"):
            loglog_regression([(2.0, 1.0), (4.0, 1.0), (8.0, 1.0)])

    def test_misaligned_origins(self):
        with pytest.raises(DomainError):
            loglog_regression(law_points([10, 20, 30]), origins=["a", "b"])


class TestStudentT:
    @pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 10, 30, 100, 1000])
    def test_against_mpmath(self, df):
        mpmath = pytest.importorskip("mpmath")
        ts = np.concatenate([[0.0], np.linspace(0.05, 4.0, 80), np.logspace(-3, 15, 109)])
        with mpmath.workdps(30):
            for t in ts:
                x = df / (df + mpmath.mpf(float(t)) ** 2)
                ref = mpmath.betainc(mpmath.mpf(df) / 2, 0.5, 0, x, regularized=True)
                if ref < mpmath.mpf("1e-300"):
                    continue
                for signed in (t, -t):
                    got = _t_two_sided_p(float(signed), df)
                    assert abs(got - ref) <= 1e-13 * ref, (df, signed, got)
        assert _t_two_sided_p(math.inf, df) == 0.0
        assert _t_two_sided_p(-math.inf, df) == 0.0

    def test_small_p_from_an_exact_line(self):
        mpmath = pytest.importorskip("mpmath")
        # three rows on alpha = 20 / n: t is about -8.6e14 with one degree of
        # freedom, so p = (2 / pi) atan(1 / |t|) is about 7.4e-16
        fit = loglog_regression([(10.0, 2.0), (20.0, 1.0), (40.0, 0.5)])
        assert fit.t_slope == pytest.approx(-8.6e14, rel=0.01)
        with mpmath.workdps(30):
            ref = 2 / mpmath.pi * mpmath.atan(1 / abs(mpmath.mpf(fit.t_slope)))
        assert fit.p_slope == pytest.approx(7.4e-16, rel=0.01)
        assert abs(fit.p_slope - ref) <= 1e-13 * ref


class TestImpliedScalingLaw:
    def test_round_trip_through_regression(self):
        fit = loglog_regression(law_points(range(11, 161, 7)))
        law = implied_scaling_law(fit)
        assert law.coeff_a == pytest.approx(19.47, rel=1e-9)
        assert law.exponent_b == pytest.approx(-0.95, abs=1e-10)
        # prediction through the implied law matches the default law
        assert law.coeff_a * 50 ** law.exponent_b == pytest.approx(
            predict_alpha(50), rel=1e-9
        )

    def test_delta_method_se(self):
        fit = loglog_regression(law_points(range(11, 161, 7)))
        law = implied_scaling_law(fit)
        assert law.se_a == pytest.approx(law.coeff_a * fit.se_intercept, rel=1e-12)
        assert law.se_b == fit.se_slope


class TestPearson:
    def test_perfect_correlation(self):
        result = pearson_test([1, 2, 3, 4], [2, 4, 6, 8])
        assert result.r == 1.0
        assert result.p == 0.0

    def test_published_inventory_entropy_example(self):
        # r = 0.36 over 53 languages gives t ~ 2.76, p ~ 0.008
        rng = np.random.default_rng(0)
        target_r = 0.36
        x = rng.normal(size=53)
        x -= x.mean()
        noise = rng.normal(size=53)
        noise -= noise.mean()
        noise -= noise @ x / (x @ x) * x
        y = target_r * x / np.std(x) + math.sqrt(1 - target_r**2) * noise / np.std(noise)
        result = pearson_test(x, y)
        assert result.r == pytest.approx(0.36, abs=1e-10)
        assert result.t == pytest.approx(2.7556, abs=1e-3)
        assert result.df == 51
        assert result.p == pytest.approx(0.0082, abs=5e-4)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=20), rng.normal(size=20)
        a = pearson_test(x, y)
        b = pearson_test(y, x)
        assert a.r == pytest.approx(b.r, abs=1e-14)
        assert a.p == pytest.approx(b.p, abs=1e-14)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=20), rng.normal(size=20)
        base = pearson_test(x, y)
        moved = pearson_test(3.0 * x - 7.0, 0.5 * y + 2.0)
        assert moved.r == pytest.approx(base.r, abs=1e-12)
        assert pearson_test(-x, y).r == pytest.approx(-base.r, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(DomainError):
            pearson_test([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            pearson_test([1.0, 2.0], [1.0, 2.0, 3.0])


class TestBandCoverage:
    def test_well_specified_sample_is_mostly_covered(self):
        rng = np.random.default_rng(77)
        n = 25
        probs = rng.dirichlet(np.full(n, predict_alpha(n)))
        counts = rng.multinomial(30000, probs)
        counts = {f"p{i}": int(c) for i, c in enumerate(counts) if c > 0}
        assert band_coverage(CountVector(counts)) >= 0.8

    def test_result_is_a_fraction(self):
        rng = np.random.default_rng(78)
        counts = rng.multinomial(5000, rng.dirichlet(np.full(12, 1.5)))
        cov = band_coverage(
            CountVector({f"p{i}": int(c) for i, c in enumerate(counts) if c > 0})
        )
        assert 0.0 <= cov <= 1.0


def synthetic_language(name, n, tokens, seed):
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(tokens, rng.dirichlet(np.full(n, predict_alpha(n))))
    return (
        name,
        CountVector({f"p{i}": int(c) for i, c in enumerate(counts) if c > 0}),
        n,
    )


class TestCompensationReport:
    def test_rows_and_regression(self):
        langs = [
            synthetic_language(f"lang{i}", n, 20000, 200 + i)
            for i, n in enumerate([13, 20, 34, 60, 110])
        ]
        report = compensation_report(langs)
        assert len(report.rows) == 5
        for row in report.rows:
            assert row.alpha_hat is not None
            assert 0.0 < row.relative_entropy <= 1.0
            assert row.h_max == pytest.approx(math.log(row.n))
        assert report.regression is not None
        assert report.law is not None
        assert report.law.exponent_b == pytest.approx(-0.95, abs=0.3)

    def test_infeasible_entropy_gets_note_not_crash(self):
        # uniform counts push the CWJ estimate to (or past) ln n
        langs = [
            ("uniformish", CountVector({"a": 500, "b": 500, "c": 500}), 3),
            synthetic_language("ok1", 20, 20000, 301),
            synthetic_language("ok2", 40, 20000, 302),
            synthetic_language("ok3", 80, 20000, 303),
        ]
        report = compensation_report(langs)
        first = report.rows[0]
        if first.alpha_hat is None:
            assert first.note is not None and "infeasible" in first.note
        assert report.regression is not None  # three valid points remain

    def test_no_regression_below_three_points(self):
        langs = [
            synthetic_language("ok1", 20, 20000, 311),
            synthetic_language("ok2", 40, 20000, 312),
        ]
        report = compensation_report(langs)
        assert report.regression is None
        assert report.law is None

    def test_guessed_relative_entropy_attached_and_dominates(self):
        name, counts, n = synthetic_language("lang", 10, 20000, 305)
        # a maxent fit constrained only weakly sits at/above the observed
        arr = np.sort(counts.positive_counts())[::-1].astype(float)
        obs = arr / arr.sum()
        feats = -np.log(obs).reshape(-1, 1)
        problem = MaxEntProblem(
            tuple(f"p{i}" for i in range(len(obs))), feats, feats.T @ obs
        )
        sol = solve(problem)
        report = compensation_report([(name, counts, n)], solutions={name: sol})
        row = report.rows[0]
        assert row.guessed_relative_entropy is not None
        assert row.guessed_relative_entropy <= 1.0
        assert row.guessed_relative_entropy >= row.relative_entropy - 0.05
