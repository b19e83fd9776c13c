"""Cross-language statistics.

Log-log regression of the fitted concentration on inventory size,
Pearson correlation with t-tests, and the compensation report comparing
observed and guessed relative entropies across languages.  Student-t
tail probabilities come from the finite sums for integer degrees of
freedom, so this module needs numpy alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dirichlet import AlphaScalingLaw, DirichletSpec, order_statistic_bands, solve_alpha
from .entropy import CountVector, cwj_entropy, relative_entropy
from .errors import DomainError
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


def loglog_regression(
    points: Sequence[tuple[float, float]],
    origins: Sequence[str] | None = None,
) -> RegressionFit:
    """OLS of ln(alpha_hat) on ln(n).

    With ``origins`` given, dataset origin and its interaction with
    ln(n) enter as dummy-coded covariates; the reported slope is then the
    baseline-group coefficient on ln(n).
    """
    if len(points) < 3:
        raise DomainError("regression needs at least 3 points")
    ns = np.array([p[0] for p in points], dtype=float)
    alphas = np.array([p[1] for p in points], dtype=float)
    if np.any(ns <= 0) or np.any(alphas <= 0):
        raise DomainError("all (n, alpha_hat) coordinates must be positive")
    x = np.log(ns)
    y = np.log(alphas)
    if np.ptp(x) == 0:
        raise DomainError("degenerate regression: no variance in ln(n)")

    if origins is None:
        origins = ()
    elif len(origins) != len(points):
        raise DomainError("origins must align with points")
    # intercept and ln(n) come first, so coef[0] and coef[1] are theirs
    cols = [np.ones_like(x), x]
    for level in sorted(set(origins))[1:]:
        dummy = np.array([1.0 if o == level else 0.0 for o in origins])
        cols += [dummy, dummy * x]
    design = np.column_stack(cols)

    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise DomainError("degenerate regression design (collinear covariates)")
    resid = y - design @ coef
    df = len(points) - design.shape[1]
    if df <= 0:
        raise DomainError("not enough points for the requested covariates")
    s2 = float(resid @ resid) / df
    cov = s2 * np.linalg.inv(design.T @ design)
    se = np.sqrt(np.diag(cov))
    if not np.all(se > 0):
        raise DomainError("degenerate regression: zero residual variance")
    slope = float(coef[1])
    se_slope = float(se[1])
    t_slope = slope / se_slope
    return RegressionFit(
        slope=slope,
        intercept=float(coef[0]),
        se_slope=se_slope,
        se_intercept=float(se[0]),
        t_slope=float(t_slope),
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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise DomainError("x and y must have equal length")
    if x.size < 3:
        raise DomainError("correlation needs at least 3 pairs")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0 or sy == 0:
        raise DomainError("correlation undefined for zero-variance input")
    r = float(xc @ yc / math.sqrt(sx * sy))
    r = max(-1.0, min(1.0, r))
    df = x.size - 2
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
    estimate = cwj_entropy(counts)
    n = estimate.support_size
    alpha_hat = solve_alpha(estimate.value, n)
    low, high = order_statistic_bands(DirichletSpec(n, alpha_hat), 0.95)
    positive = np.sort(counts.positive_counts())[::-1]
    observed = positive / positive.sum()
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
        estimate = cwj_entropy(counts)
        n = declared_n if declared_n is not None else estimate.support_size
        h_max = math.log(n)
        rel = relative_entropy(estimate, n)
        note = None
        if 0.0 < estimate.value < h_max:
            alpha_hat = solve_alpha(estimate.value, n)
        else:
            alpha_hat = None
            note = f"alpha infeasible: H={estimate.value:.6g} not inside (0, ln n={h_max:.6g})"
            log.warning("%s: %s", name, note)
        guessed = None
        if solutions is not None and name in solutions:
            guessed = min(solutions[name].entropy / h_max, 1.0)
        rows.append(
            LanguageFit(
                name=name,
                n=n,
                entropy_cwj=estimate.value,
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
