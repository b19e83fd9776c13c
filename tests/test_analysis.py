import itertools
import math
import random
from importlib.resources import files

import numpy as np
import pytest

from phonodist.analysis import (
    _t_two_sided_p,
    band_coverage,
    compensation_report,
    fit_language,
    implied_scaling_law,
    loglog_regression,
)
from phonodist.dirichlet import AlphaScalingLaw, predict_alpha
from phonodist.entropy import CountVector
from phonodist.errors import DomainError, InfeasibleError
from phonodist.io import load_frequency_table


def data_path(name):
    return str(files("phonodist") / "data" / name)


def law_points(ns, law=None, rng=None, sigma=0.0, wobble=0.0):
    """(n, alpha) on a scaling law, with lognormal noise or an alternating
    relative ``wobble`` of +-wobble."""
    law = law or AlphaScalingLaw()
    out = []
    for i, n in enumerate(ns):
        alpha = law.coeff_a * n ** law.exponent_b * (1.0 + wobble * (-1) ** i)
        if rng is not None and sigma > 0:
            alpha *= math.exp(rng.normal(scale=sigma))
        out.append((float(n), alpha))
    return out


# exact float power laws alpha = a * n**b; a float evaluation leaves only
# rounding noise around the line, which the fit must not read as scatter
EXACT_LAW_GRID = list(itertools.product(
    [1e-6, 0.3, 1.0, 19.47, 1e6],
    [-3.0, -0.95, 0.0, 0.5, 2.0],
    [(10, 20, 40), (11, 40, 160), tuple(range(11, 161, 7)), (100, 1000, 10000),
     (500, 1000, 2000), tuple(range(2, 200))],
))


def ols_reference(points):
    """30-digit OLS of ln(alpha) on the two-column design: intercept and ln n."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        xs = [mpmath.log(n) for n, _ in points]
        ys = [mpmath.log(a) for _, a in points]
        design = mpmath.matrix([[1, x] for x in xs])
        gram_inv = (design.T * design) ** -1
        coef = gram_inv * (design.T * mpmath.matrix(ys))
        resid = mpmath.matrix(ys) - design * coef
        df = len(points) - design.cols
        s2 = mpmath.fsum(r * r for r in resid) / df
        se_slope = mpmath.sqrt(s2 * gram_inv[1, 1])
        t = coef[1] / se_slope
        p = mpmath.betainc(mpmath.mpf(df) / 2, 0.5, 0, df / (df + t * t), regularized=True)
        return {
            "slope": coef[1], "intercept": coef[0], "se_slope": se_slope,
            "se_intercept": mpmath.sqrt(s2 * gram_inv[0, 0]), "t_slope": t, "p_slope": p,
        }


class TestLoglogRegression:
    def test_noiseless_recovery(self):
        # an exact float power law is a degenerate fit (see
        # test_exact_power_laws_have_zero_residual_variance); a 1e-12 wobble
        # stays far below every tolerance here
        fit = loglog_regression(law_points(range(11, 161, 7), wobble=1e-12))
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

    def test_exact_power_laws_have_zero_residual_variance(self):
        for a, b, ns in EXACT_LAW_GRID:
            law = AlphaScalingLaw(coeff_a=a, exponent_b=b)
            with pytest.raises(DomainError, match="zero residual variance"):
                loglog_regression(law_points(ns, law=law))

    def test_line_with_1e9_jitter_still_fits(self):
        for a, b, ns in EXACT_LAW_GRID:
            law = AlphaScalingLaw(coeff_a=a, exponent_b=b)
            fit = loglog_regression(law_points(ns, law=law, wobble=1e-9))
            assert fit.slope == pytest.approx(b, abs=1e-8), (a, b, ns)
            assert 0 < fit.se_slope < 1e-8, (a, b, ns)

    @pytest.mark.parametrize("groups", [1, 2, 3])
    def test_against_mpmath_mixed_laws(self, groups):
        # points from one, two or three laws, pooled into one line
        rng = np.random.default_rng(40 + groups)
        laws = [AlphaScalingLaw(), AlphaScalingLaw(25.0, -1.05), AlphaScalingLaw(12.0, -0.8)]
        points = []
        for law in laws[:groups]:
            ns = rng.integers(11, 161, size=12)
            points += law_points(ns, law=law, rng=rng, sigma=0.1)
        fit = loglog_regression(points)
        for name, want in ols_reference(points).items():
            got = getattr(fit, name)
            assert abs(got - want) <= 1e-12 * abs(want), (name, got, want)
        assert fit.n_points == len(points)


class TestStudentT:
    @pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 10, 30, 100, 999, 1000, 1001, 10000])
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
        # t = -8.6e14 with one degree of freedom, the t that rounding noise
        # gives a least-squares fit of alpha = 20 / n at three rows, so
        # p = (2 / pi) atan(1 / |t|) is about 7.4e-16
        t = -8.6e14
        with mpmath.workdps(30):
            ref = 2 / mpmath.pi * mpmath.atan(1 / abs(mpmath.mpf(t)))
        p = _t_two_sided_p(t, 1)
        assert p == pytest.approx(7.4e-16, rel=0.01)
        assert abs(p - ref) <= 1e-13 * ref

    def test_x_below_the_normal_floats(self):
        mpmath = pytest.importorskip("mpmath")
        # above |t| = 1.3e154, x = df / (df + t**2) is no longer a normal
        # float, while p = (2 / pi) atan(1 / |t|) at df = 1 still is
        for t in (1e150, 2e154, 1e200, -1e300, 1.7e308):
            with mpmath.workdps(30):
                ref = 2 / mpmath.pi * mpmath.atan(1 / abs(mpmath.mpf(t)))
            assert abs(_t_two_sided_p(t, 1) - ref) <= 1e-13 * ref, t


class TestImpliedScalingLaw:
    def test_round_trip_through_regression(self):
        fit = loglog_regression(law_points(range(11, 161, 7), wobble=1e-12))
        law = implied_scaling_law(fit)
        assert law.coeff_a == pytest.approx(19.47, rel=1e-9)
        assert law.exponent_b == pytest.approx(-0.95, abs=1e-10)
        # prediction through the implied law matches the default law
        assert law.coeff_a * 50 ** law.exponent_b == pytest.approx(
            predict_alpha(50), rel=1e-9
        )

    def test_delta_method_se(self):
        fit = loglog_regression(law_points(range(11, 161, 7), wobble=1e-12))
        law = implied_scaling_law(fit)
        assert law.se_a == pytest.approx(law.coeff_a * fit.se_intercept, rel=1e-12)
        assert law.se_b == fit.se_slope


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

    def test_shares_beyond_int64_do_not_wrap(self):
        # the four counts sum past 2**63-1; the exact shares are 0.4, 0.4,
        # 0.2 and 2.6e-19
        counts = CountVector({"a": 2**62, "b": 2**62, "c": 2**61, "d": 3})
        assert band_coverage(counts) == 0.75

    def test_infeasible_counts_raise_the_fit_note(self):
        # uniform counts: the CWJ entropy exceeds ln 3, so no concentration fits
        counts = CountVector({"a": 100, "b": 100, "c": 100})
        note = fit_language("", counts).note
        assert note.startswith("alpha infeasible: H=")
        with pytest.raises(InfeasibleError) as info:
            band_coverage(counts)
        assert str(info.value) == note


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

    @pytest.mark.parametrize("names, reason", [
        (("samoan", "samoan", "samoan"), "no variance in ln(n)"),
        (("samoan", "samoan", "kaiwa"), "zero residual variance"),
    ])
    def test_undefined_regression_keeps_the_rows(self, caplog, names, reason):
        langs = [(name, load_frequency_table(data_path(f"{name}.tsv")), None) for name in names]
        report = compensation_report(langs)
        assert [row.name for row in report.rows] == list(names)
        assert all(row.alpha_hat is not None for row in report.rows)
        assert report.regression is None and report.law is None
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [f"no regression: degenerate regression: {reason}"]


class TestFitLanguage:
    def test_declared_inventory_below_support_is_refused(self):
        counts = CountVector({"a": 5, "b": 3, "c": 2})
        with pytest.raises(DomainError, match="^declared inventory size 2 is below the 3 "):
            fit_language("x", counts, 2)
        assert fit_language("x", counts, 3).n == 3
        assert fit_language("x", counts).n == 3

    def test_infeasible_entropy_is_a_note(self):
        fit = fit_language("flat", CountVector({"a": 100, "b": 100, "c": 100}))
        assert fit.alpha_hat is None
        assert fit.note == "alpha infeasible: H=1.10195 not inside (0, ln n=1.09861)"

    def test_entropy_within_rounding_of_ln_n_is_a_note(self):
        # H_cwj is one ulp below ln 3, closer than the float expected
        # entropy climbs, so no concentration fits
        counts = CountVector({"a": 10**15, "b": 10**15 + 82, "c": 10**15 + 75})
        fit = fit_language("near", counts)
        assert fit.entropy_cwj == math.nextafter(math.log(3), 0.0)
        assert fit.alpha_hat is None
        assert fit.note == (
            "alpha infeasible: H=1.0986122886681096 within rounding of ln n=1.0986122886681098"
        )

    def test_never_raises_on_near_uniform_tables(self):
        """Seeded near-uniform tables, n in {2, ..., 160}, counts from 1e2
        to 1e18: every fit returns, with an alpha_hat or a note."""
        rng = random.Random(7)
        within_rounding = 0
        for _ in range(4000):
            n = rng.choice((2, 3, 4, 5, 10, 40, 160))
            digits = rng.randint(2, 18)
            spread = 10 ** rng.randint(0, digits)
            counts = CountVector({f"p{i}": 10**digits + rng.randrange(spread) for i in range(n)})
            fit = fit_language("x", counts)
            assert (fit.alpha_hat is None) == (fit.note is not None)
            within_rounding += fit.note is not None and "within rounding" in fit.note
        assert within_rounding > 0
