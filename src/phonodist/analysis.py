"""Cross-language statistics.

The per-language concentration fit behind fit-alpha, estimate-entropy
and report, the log-log regression of the fits on inventory size with a
t-test of its slope, and the compensation report of every language's fit
with the pooled regression.  The regression is one closed-form
least-squares line, and the Student-t tail probability of its slope is
an incomplete beta ratio from the one continued fraction of _special,
so this module imports no numpy; ``band_coverage`` loads it through the
bands.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

from . import _special
from .dirichlet import AlphaScalingLaw, DirichletSpec, order_statistic_bands, solve_alpha
from .entropy import CountVector, cwj_estimate, relative_entropy
from .errors import DomainError, InfeasibleError

__all__ = [
    "CompensationReport",
    "LanguageFit",
    "RegressionFit",
    "band_coverage",
    "compensation_report",
    "fit_language",
    "implied_scaling_law",
    "loglog_regression",
]


class RegressionFit(NamedTuple):
    slope: float
    intercept: float
    se_slope: float
    se_intercept: float
    t_slope: float
    p_slope: float
    n_points: int


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with integer ``df`` >= 1: I_x(a, 1/2),
    a = df/2, at x = df / (df + t**2), or 1 - I_{1-x}(1/2, a) above the
    fraction's pivot, where p > 0.08.  x and y = 1 - x are ratios of
    integers rounded once, and y keeps the fraction's steps free of
    cancellation near x = 1.  x**a takes the first-order term of the rounding of x, which
    would cost 2e-13 at df = 1000; where x would leave the normal floats,
    it is scaled by an even power of 2."""
    if not math.isfinite(t):
        return 0.0
    num, den = abs(t).as_integer_ratio()
    low, high = df * den * den, num * num
    total = low + high
    shift = 2 * max(0, (total.bit_length() - low.bit_length()) // 2 - 500)
    x, y = (low << shift) / total, high / total
    top, bottom = x.as_integer_ratio()
    error = ((low << shift) * bottom - top * total) / (total * top)  # (exact x - x) / x
    a, b = df / 2, 0.5
    front = math.ldexp(math.pow(x, a) * (1.0 + a * error) * math.sqrt(y)  # x**a (1-x)**b / B
                       * math.exp(-_special.log_beta(a, b)), -shift * df // 2)
    if y < (b + 1.0) / (a + b + 2.0):
        return 1.0 - front * _special.beta_fraction(b, a, y, x)[0] / b
    return front * _special.beta_fraction(a, b, math.ldexp(x, -shift), y)[0] / a


# a residual standard error within this many ulps of the largest
# |ln alpha_hat| or |slope * ln n| is rounding noise, not scatter: float
# power laws alpha = a * n**b, evaluated exactly, stay below 2 of them
_EXACT_FIT_ULPS = 16


def loglog_regression(points: Sequence[tuple[float, float]]) -> RegressionFit:
    """OLS of ln(alpha_hat) on ln(n), in closed form.

    Residuals at the level of rounding noise, as an exact float power law
    leaves, count as zero residual variance.
    """
    if len(points) < 3:
        raise DomainError("regression needs at least 3 points")
    if not all(n > 0 and alpha > 0 for n, alpha in points):
        raise DomainError("all (n, alpha_hat) coordinates must be positive")
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(alpha) for _, alpha in points]
    if min(xs) == max(xs):
        raise DomainError("degenerate regression: no variance in ln(n)")

    k = len(points)
    mx, my = math.fsum(xs) / k, math.fsum(ys) / k
    dx = [x - mx for x in xs]
    sxx = math.fsum(d * d for d in dx)
    slope = math.fsum(d * (y - my) for d, y in zip(dx, ys)) / sxx
    intercept = my - slope * mx
    df = k - 2
    s2 = math.fsum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys)) / df
    scale = max(max(abs(y), abs(slope * x)) for x, y in zip(xs, ys))
    if math.sqrt(s2) <= _EXACT_FIT_ULPS * sys.float_info.epsilon * scale:
        raise DomainError("degenerate regression: zero residual variance")
    se_slope = math.sqrt(s2 * (1.0 / sxx))
    t_slope = slope / se_slope
    return RegressionFit(
        slope=slope,
        intercept=intercept,
        se_slope=se_slope,
        se_intercept=math.sqrt(s2 * (1.0 / k + mx * mx / sxx)),
        t_slope=t_slope,
        p_slope=_t_two_sided_p(t_slope, df),
        n_points=k,
    )


def implied_scaling_law(fit: RegressionFit) -> AlphaScalingLaw:
    """Scaling law alpha(n) = exp(intercept) * n**slope implied by a fit."""
    coeff = math.exp(fit.intercept)
    return AlphaScalingLaw(
        coeff_a=coeff,
        exponent_b=fit.slope,
        se_a=coeff * fit.se_intercept,  # delta method
        se_b=fit.se_slope,
    )


def band_coverage(counts: CountVector) -> float:
    """Share of observed rank probabilities inside the fitted bands.

    Fits the concentration with ``fit_language`` (``InfeasibleError``
    with its note where none fits), then checks each observed rank
    probability against the 95 % order-statistic interval of the fit.
    A fitted concentration outside [5e-3 / (n - 1), 1e10], where the
    bands are not computed, raises ``NumericalError``.
    """
    fit = fit_language("", counts)
    if fit.alpha_hat is None:
        raise InfeasibleError(fit.note)
    low, high = order_statistic_bands(DirichletSpec(fit.n, fit.alpha_hat), 0.95)
    ranked = sorted(counts.positive_counts(), reverse=True)
    total = sum(ranked)  # exact shares of Python ints, whatever their size
    inside = sum(lo <= c / total <= hi for lo, hi, c in zip(low, high, ranked))
    return int(inside) / len(ranked)


class LanguageFit(NamedTuple):
    name: str
    n: int
    entropy_cwj: float
    h_max: float
    relative_entropy: float
    alpha_hat: float | None
    note: str | None = None


class CompensationReport(NamedTuple):
    rows: tuple[LanguageFit, ...]
    regression: RegressionFit | None
    law: AlphaScalingLaw | None


def _warn(message: str, *args) -> None:
    """Log a warning; logging is loaded only when a run has one to give."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


def fit_language(name: str, counts: CountVector, n: int | None = None) -> LanguageFit:
    """CWJ entropy and fitted concentration of one language of inventory size n.

    Where no concentration fits, ``alpha_hat`` is None and ``note`` says why.
    """
    positive = counts.positive_counts()
    if n is not None and n < len(positive):
        raise DomainError(
            f"declared inventory size {n} is below the {len(positive)} phonemes observed"
        )
    n = len(positive) if n is None else n
    h_cwj = cwj_estimate(positive)
    h_max = math.log(n)
    rel = relative_entropy(h_cwj, n)
    if not 0.0 < h_cwj < h_max:
        note = f"alpha infeasible: H={h_cwj:.6g} not inside (0, ln n={h_max:.6g})"
    else:
        try:
            return LanguageFit(name, n, h_cwj, h_max, rel, solve_alpha(h_cwj, n))
        except InfeasibleError:
            note = f"alpha infeasible: H={h_cwj!r} within rounding of ln n={h_max!r}"
    return LanguageFit(name, n, h_cwj, h_max, rel, alpha_hat=None, note=note)


def compensation_report(
    languages: Sequence[tuple[str, CountVector, int | None]],
) -> CompensationReport:
    """Per-language entropy/concentration fits plus the pooled regression.

    ``languages`` holds (name, counts, declared inventory size); a None
    size defaults to the observed support.  Points that admit no
    regression leave the regression and the law None, with a warning
    naming the reason.
    """
    rows = []
    for name, counts, declared_n in languages:
        row = fit_language(name, counts, declared_n)
        if row.note is not None:
            _warn("%s: %s", name, row.note)
        rows.append(row)
    points = [(row.n, row.alpha_hat) for row in rows if row.alpha_hat is not None]
    try:
        regression = loglog_regression(points)
    except DomainError as exc:
        _warn("no regression: %s", exc)
        return CompensationReport(tuple(rows), None, None)
    return CompensationReport(tuple(rows), regression, implied_scaling_law(regression))
