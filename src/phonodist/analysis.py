"""Cross-language statistics.

Log-log regression of the fitted concentration on inventory size,
Pearson correlation with t-tests, and the compensation report comparing
observed and guessed relative entropies across languages.  The
regression is closed-form least squares and the Student-t tail
probabilities come from the finite sums for integer degrees of freedom,
so only ``band_coverage`` imports numpy.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .dirichlet import AlphaScalingLaw, DirichletSpec, order_statistic_bands, solve_alpha
from .entropy import CountVector, cwj_estimate, relative_entropy
from .errors import DomainError

if TYPE_CHECKING:
    from .maxent import MaxEntSolution

__all__ = [
    "CompensationReport",
    "CorrelationResult",
    "LanguageFit",
    "RegressionFit",
    "band_coverage",
    "compensation_report",
    "implied_scaling_law",
    "loglog_regression",
    "pearson_test",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RegressionFit:
    slope: float
    intercept: float
    se_slope: float
    se_intercept: float
    t_slope: float
    p_slope: float
    n_points: int


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    t: float
    df: int
    p: float


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with integer ``df`` >= 1.

    Abramowitz & Stegun 26.7.3-4 give 1 - p as the first df // 2 terms of a
    power series in c**2 = df / (df + t**2) (plus an arctangent for odd df);
    the whole series sums to 1.  A large p is 1 minus those terms; a small p
    is the sum of the other terms, so it never cancels.  Term k holds
    c**(2k), so c**2 is carried to double-double precision.  The cost grows
    linearly in df.
    """
    from fractions import Fraction  # only regress and report need it

    if not math.isfinite(t):
        return 0.0
    t = abs(t)
    half, odd = divmod(df, 2)
    root = math.sqrt(df)
    h = math.hypot(root, t)
    # sin(theta), times cos(theta) for odd df, where tan(theta) = t / sqrt(df)
    weight = t / h * (root / h if odd else 1.0)
    exact = df / (df + Fraction(t) ** 2)
    cos2 = float(exact)
    low = float(exact - Fraction(cos2)) / cos2 if cos2 else 0.0
    # term_k carries cos2**k; the true power (cos2 * (1 + low))**k is
    # term_k * (1 + k * low), so s1 sums k * term_k for the correction
    term, s0, s1 = 1.0, 0.0, 0.0
    for k in range(half):
        s0 += term
        s1 += k * term
        term *= cos2 * (2 * k + 1 + odd) / (2 * k + 2 + odd)
    head = weight * (s0 + low * s1)
    p = (math.atan2(root, t) - head) * (2 / math.pi) if odd else 1.0 - head
    if p >= 0.1:
        return p
    # the terms fall at least as fast as powers of c**2, so what is left
    # after a term is below term / sin(theta)**2
    k, s0, s1, floor = half, 0.0, 0.0, 1e-17 * (t / h) ** 2
    while term > floor * s0:
        s0 += term
        s1 += k * term
        term *= cos2 * (2 * k + 1 + odd) / (2 * k + 2 + odd)
        k += 1
    tail = weight * (s0 + low * s1)
    return tail * (2 / math.pi) if odd else tail


# a residual standard error within this many ulps of the largest
# |ln alpha_hat| or |slope * ln n| is rounding noise, not scatter: float
# power laws alpha = a * n**b, evaluated exactly, stay below 2 of them
_EXACT_FIT_ULPS = 16


def _line(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float, float, float]:
    """Least-squares line through one group of points.

    Returns the intercept, the slope, the residual sum of squares and the
    diagonal of (X'X)^-1 for the intercept and the slope.
    """
    k = len(xs)
    mx, my = math.fsum(xs) / k, math.fsum(ys) / k
    dx = [x - mx for x in xs]
    sxx = math.fsum(d * d for d in dx)
    slope = math.fsum(d * (y - my) for d, y in zip(dx, ys)) / sxx
    intercept = my - slope * mx
    rss = math.fsum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
    return intercept, slope, rss, 1.0 / k + mx * mx / sxx, 1.0 / sxx


def loglog_regression(
    points: Sequence[tuple[float, float]],
    origins: Sequence[str] | None = None,
) -> RegressionFit:
    """OLS of ln(alpha_hat) on ln(n).

    With ``origins`` given, dataset origin and its interaction with
    ln(n) enter as dummy-coded covariates; the reported slope is then the
    baseline-group coefficient on ln(n).  With every group's intercept and
    slope free, the baseline (first origin in sort order) coefficients are
    that group's own least-squares line, and the residual variance pools
    every group's residuals over N - 2g degrees of freedom, so the fit is
    closed-form.  Residuals at the level of rounding noise, as an exact
    float power law leaves, count as zero residual variance.
    """
    if len(points) < 3:
        raise DomainError("regression needs at least 3 points")
    if not all(n > 0 and alpha > 0 for n, alpha in points):
        raise DomainError("all (n, alpha_hat) coordinates must be positive")
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(alpha) for _, alpha in points]
    if min(xs) == max(xs):
        raise DomainError("degenerate regression: no variance in ln(n)")

    if origins is None:
        origins = [""] * len(points)
    elif len(origins) != len(points):
        raise DomainError("origins must align with points")
    groups: dict[str, tuple[list[float], list[float]]] = {}
    for origin, x, y in zip(origins, xs, ys):
        gx, gy = groups.setdefault(origin, ([], []))
        gx.append(x)
        gy.append(y)
    if any(min(gx) == max(gx) for gx, _ in groups.values()):
        raise DomainError("degenerate regression design (collinear covariates)")
    df = len(points) - 2 * len(groups)
    if df <= 0:
        raise DomainError("not enough points for the requested covariates")
    lines = {origin: _line(*groups[origin]) for origin in groups}
    intercept, slope, _, v_intercept, v_slope = lines[min(groups)]
    s2 = math.fsum(line[2] for line in lines.values()) / df
    scale = max(max(abs(y), abs(lines[o][1] * x)) for o, x, y in zip(origins, xs, ys))
    if math.sqrt(s2) <= _EXACT_FIT_ULPS * sys.float_info.epsilon * scale:
        raise DomainError("degenerate regression: zero residual variance")
    se_slope = math.sqrt(s2 * v_slope)
    t_slope = slope / se_slope
    return RegressionFit(
        slope=slope,
        intercept=intercept,
        se_slope=se_slope,
        se_intercept=math.sqrt(s2 * v_intercept),
        t_slope=t_slope,
        p_slope=_t_two_sided_p(t_slope, df),
        n_points=len(points),
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


def pearson_test(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Sample Pearson correlation with a two-sided t-test."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    if len(x) != len(y):
        raise DomainError("x and y must have equal length")
    if len(x) < 3:
        raise DomainError("correlation needs at least 3 pairs")
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
    xc = [v - mx for v in x]
    yc = [v - my for v in y]
    sx = math.fsum(v * v for v in xc)
    sy = math.fsum(v * v for v in yc)
    if sx == 0 or sy == 0:
        raise DomainError("correlation undefined for zero-variance input")
    r = math.fsum(a * b for a, b in zip(xc, yc)) / math.sqrt(sx * sy)
    r = max(-1.0, min(1.0, r))
    df = len(x) - 2
    if abs(r) == 1.0:
        t = math.inf if r > 0 else -math.inf
    else:
        t = r * math.sqrt(df / (1.0 - r * r))
    return CorrelationResult(r=r, t=t, df=df, p=_t_two_sided_p(t, df))


def band_coverage(counts: CountVector) -> float:
    """Fraction of observed rank probabilities inside the fitted bands.

    Fits the concentration from the CWJ entropy, then checks each
    observed rank probability against the 95 % order-statistic interval
    of the fitted Dirichlet.
    """
    import numpy as np

    positive = counts.positive_counts()
    n = len(positive)
    alpha_hat = solve_alpha(cwj_estimate(positive), n)
    low, high = order_statistic_bands(DirichletSpec(n, alpha_hat), 0.95)
    ranked = np.sort(positive)[::-1]
    observed = ranked / ranked.sum()
    inside = (low <= observed) & (observed <= high)
    return int(inside.sum()) / len(observed)


@dataclass(frozen=True)
class LanguageFit:
    name: str
    n: int
    entropy_cwj: float
    h_max: float
    relative_entropy: float
    alpha_hat: float | None
    guessed_relative_entropy: float | None = None
    note: str | None = None


@dataclass(frozen=True)
class CompensationReport:
    rows: tuple[LanguageFit, ...]
    regression: RegressionFit | None
    law: AlphaScalingLaw | None


def compensation_report(
    languages: Sequence[tuple[str, CountVector, int | None]],
    solutions: Mapping[str, MaxEntSolution] | None = None,
) -> CompensationReport:
    """Per-language entropy/concentration fits plus the pooled regression.

    ``languages`` holds (name, counts, declared inventory size); a None
    size defaults to the observed support.  Optional maxent solutions add
    guessed relative entropies.
    """
    rows = []
    for name, counts, declared_n in languages:
        positive = counts.positive_counts()
        h_cwj = cwj_estimate(positive)
        n = declared_n if declared_n is not None else len(positive)
        h_max = math.log(n)
        rel = relative_entropy(h_cwj, n)
        note = None
        if 0.0 < h_cwj < h_max:
            alpha_hat = solve_alpha(h_cwj, n)
        else:
            alpha_hat = None
            note = f"alpha infeasible: H={h_cwj:.6g} not inside (0, ln n={h_max:.6g})"
            log.warning("%s: %s", name, note)
        guessed = None
        if solutions is not None and name in solutions:
            guessed = min(solutions[name].entropy / h_max, 1.0)
        rows.append(
            LanguageFit(
                name=name,
                n=n,
                entropy_cwj=h_cwj,
                h_max=h_max,
                relative_entropy=rel,
                alpha_hat=alpha_hat,
                guessed_relative_entropy=guessed,
                note=note,
            )
        )
    points = [(row.n, row.alpha_hat) for row in rows if row.alpha_hat is not None]
    regression = loglog_regression(points) if len(points) >= 3 else None
    law = implied_scaling_law(regression) if regression is not None else None
    return CompensationReport(rows=tuple(rows), regression=regression, law=law)
