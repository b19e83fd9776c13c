"""Symmetric-Dirichlet machinery for rank-frequency modelling.

A language with ``n`` distinct phonemes is modelled as a draw from a
symmetric Dirichlet with concentration ``alpha``; its marginals are
Beta(alpha, (n-1)*alpha).  The rank-frequency curve is the sequence of
order-statistic means of that marginal (rank 1 = largest order statistic),
and the concentration itself follows a power law in the inventory size.
All entropies are in nats.  scipy.special is imported inside the functions
that need it, so that importing this module loads numpy alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError, NumericalError

__all__ = [
    "AlphaScalingLaw",
    "DirichletSpec",
    "OrderStatSummary",
    "digamma",
    "expected_entropy",
    "marginal_cdf",
    "marginal_pdf",
    "order_statistic_moments",
    "order_statistic_pdf",
    "order_statistic_quantile",
    "predict_alpha",
    "reconstruct_from_inventory",
    "solve_alpha",
]

_QUAD_TOL = 1e-12
_QUAD_LIMIT = 500


def _check_inventory(n) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"inventory size must be an integer, got {n!r}")
    if n < 2:
        raise DomainError(f"inventory size must be >= 2, got {n}")
    return int(n)


def _check_concentration(alpha: float) -> float:
    if not (math.isfinite(alpha) and alpha > 0):
        raise DomainError(f"concentration must be finite and > 0, got {alpha}")
    return alpha


@dataclass(frozen=True)
class DirichletSpec:
    """Symmetric Dirichlet over the (n-1)-simplex with concentration alpha."""

    n: int
    alpha: float

    def __post_init__(self):
        _check_inventory(self.n)
        _check_concentration(self.alpha)

    @property
    def beta_a(self) -> float:
        return self.alpha

    @property
    def beta_b(self) -> float:
        return (self.n - 1) * self.alpha


@dataclass(frozen=True)
class AlphaScalingLaw:
    """Power law alpha(n) = coeff_a * n**exponent_b with optional standard errors."""

    coeff_a: float = 19.47
    exponent_b: float = -0.95
    se_a: float | None = None
    se_b: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.coeff_a) and self.coeff_a > 0):
            raise DomainError(f"coeff_a must be finite and > 0, got {self.coeff_a}")
        if not math.isfinite(self.exponent_b):
            raise DomainError(f"exponent_b must be finite, got {self.exponent_b}")


@dataclass(frozen=True)
class OrderStatSummary:
    """Per-rank moments (and optionally confidence bands) of the fitted curve.

    Arrays are indexed by rank - 1; rank 1 is the most frequent phoneme.
    """

    n: int
    alpha: float
    mean: np.ndarray
    sd: np.ndarray
    ci_low: np.ndarray | None = None
    ci_high: np.ndarray | None = None
    level: float | None = None

    def rank_rows(self):
        """Yield (rank, mean, sd, ci_low, ci_high) rows; bands None if absent."""
        for i in range(self.n):
            lo = None if self.ci_low is None else float(self.ci_low[i])
            hi = None if self.ci_high is None else float(self.ci_high[i])
            yield i + 1, float(self.mean[i]), float(self.sd[i]), lo, hi


_LN10_HI = 2.302585092994046
_LN10_LO = -2.1707562233822494e-16  # ln 10 - _LN10_HI
_SHIFTS = np.arange(10.0)
# psi(y) - ln(y) is the sum of c * w**p, w = 1/y, over these (c, p) for
# y >= 10: -w/2, then -B_2k w**2k / 2k through B_12
_PSI_TERMS = ((-1 / 2, 1), (-1 / 12, 2), (1 / 120, 4), (-1 / 252, 6), (1 / 240, 8),
              (-1 / 132, 10), (691 / 32760, 12))
_PSI_COEFFS, _PSI_POWERS = (np.array(column) for column in zip(*_PSI_TERMS))


def digamma(x):
    """Digamma function on the positive reals, for a scalar or an array.

    Below 10 the argument is raised by ten steps of psi(x) = psi(x+1) - 1/x.
    ln(x + 10) is split as ln 10 + log1p(x/10), and the ten reciprocals are
    taken off ln 10 before anything else is added, so that no rounding
    happens at the size of ln 10 and psi stays accurate where it crosses
    zero (x = 1.4616...).  Scalars return a float, arrays an array.
    """
    if np.isscalar(x):
        if not (math.isfinite(x) and x > 0):
            raise DomainError(f"digamma requires finite x > 0, got {x!r}")
        x = float(x)
        w = 1.0 / (x + 10.0 if x < 10.0 else x)
        rest = sum([c * w**p for c, p in _PSI_TERMS])
        if x >= 10.0:
            return math.log(x) + rest
        parts = [_LN10_HI, _LN10_LO, math.log1p(x / 10.0), rest]
        return math.fsum(parts + [-1.0 / (x + i) for i in range(10)])
    x = np.asarray(x, dtype=float)
    if x.size and not (x.min() > 0 and x.max() < math.inf):
        raise DomainError("digamma requires finite x > 0 everywhere")
    small = x < 10.0
    y = x + 10.0 * small
    rest = (1.0 / y)[..., None] ** _PSI_POWERS @ _PSI_COEFFS
    # computed for every element, kept where x < 10; cumsum takes the
    # reciprocals off ln 10 one by one, in order
    parts = -1.0 / (x[..., None] + _SHIFTS)
    parts[..., 0] += _LN10_HI
    raised = parts.cumsum(axis=-1)[..., -1] + (np.log1p(x / 10.0) + _LN10_LO)
    return np.where(small, raised, np.log(y)) + rest


def expected_entropy(spec: DirichletSpec) -> float:
    """Expected Shannon entropy (nats) of a distribution drawn from ``spec``."""
    return digamma(spec.alpha * spec.n + 1) - digamma(spec.alpha + 1)


def solve_alpha(entropy_hat: float, n: int, tol: float = 1e-12) -> float:
    """Invert expected_entropy in alpha for a fixed inventory size.

    The map alpha -> expected entropy is strictly increasing with range
    (0, ln n), so the root is unique; it is bracketed on a log-alpha grid
    and found by bisection in log alpha.
    """
    n = _check_inventory(n)
    h_max = math.log(n)
    if not (math.isfinite(entropy_hat) and 0.0 < entropy_hat < h_max):
        raise InfeasibleError(
            f"target entropy {entropy_hat!r} outside the attainable open interval "
            f"(0, ln n = {h_max:.6g}) for n={n}"
        )

    def gap(log_alpha: float) -> float:
        a = math.exp(log_alpha)
        return digamma(a * n + 1) - digamma(a + 1) - entropy_hat

    lo, hi = math.log(1e-8), math.log(1e8)
    # widen if the target sits in the extreme tails of the default bracket
    while gap(lo) > 0 and lo > -200:
        lo -= 10
    while gap(hi) < 0 and hi < 200:
        hi += 10
    if gap(lo) > 0 or gap(hi) < 0:
        raise NumericalError("failed to bracket the concentration root")
    # stop at the width Brent's method was run to (xtol=1e-15, rtol=8.9e-16)
    while hi - lo > 1e-15 + 8.9e-16 * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if gap(mid) > 0 else (mid, hi)
    alpha = math.exp(0.5 * (lo + hi))
    if abs(expected_entropy(DirichletSpec(n, alpha)) - entropy_hat) > max(tol, 1e-10):
        raise NumericalError("concentration root did not reach tolerance")
    return alpha


def predict_alpha(n: int, law: AlphaScalingLaw = AlphaScalingLaw()) -> float:
    """Concentration predicted from inventory size via the scaling law."""
    n = _check_inventory(n)
    return _check_concentration(law.coeff_a * n ** law.exponent_b)


def _log_marginal_pdf(spec: DirichletSpec, x: float) -> float:
    from scipy import special
    a, b = spec.beta_a, spec.beta_b
    return (a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - special.betaln(a, b)


def marginal_pdf(spec: DirichletSpec, x: float) -> float:
    """Beta(alpha, (n-1)alpha) density of a single Dirichlet component."""
    if not (0.0 < x < 1.0):
        raise DomainError(f"marginal_pdf requires 0 < x < 1, got {x!r}")
    return math.exp(_log_marginal_pdf(spec, x))


def marginal_cdf(spec: DirichletSpec, x: float) -> float:
    """Regularized incomplete beta CDF of a single Dirichlet component."""
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"marginal_cdf requires 0 <= x <= 1, got {x!r}")
    from scipy import special
    return float(special.betainc(spec.beta_a, spec.beta_b, x))


def _log_order_statistic_pdf(spec: DirichletSpec, r: int, x: float) -> float:
    from scipy import special
    n = spec.n
    log_comb = (
        special.gammaln(n + 1) - special.gammaln(r) - special.gammaln(n - r + 1)
    )
    cdf = marginal_cdf(spec, x)
    return (
        log_comb
        + _log_marginal_pdf(spec, x)
        + special.xlogy(r - 1, cdf)
        + special.xlog1py(n - r, -cdf)
    )


def _check_rank(spec: DirichletSpec, r) -> int:
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool):
        raise DomainError(f"order-statistic index must be an integer, got {r!r}")
    if not 1 <= r <= spec.n:
        raise DomainError(f"order-statistic index {r} outside 1..{spec.n}")
    return int(r)


def order_statistic_pdf(spec: DirichletSpec, r: int, x: float) -> float:
    """Density of the r-th smallest of n Dirichlet components at x.

    Evaluated in log space so factorial ratios stay finite up to n ~ 200.
    """
    r = _check_rank(spec, r)
    if not (0.0 < x < 1.0):
        raise DomainError(f"order_statistic_pdf requires 0 < x < 1, got {x!r}")
    return math.exp(_log_order_statistic_pdf(spec, r, x))


def _gamma_orderstat_raw_moment(n: int, alpha: float, j: int, power: int) -> float:
    """E[G_(j)**power] for the j-th smallest of n iid Gamma(alpha, 1) draws.

    Integrated by adaptive quadrature in log space; when alpha < 1 the
    t**(alpha-1) endpoint singularity is absorbed with the change of
    variables u = t**alpha before the density is evaluated.
    """
    from scipy import integrate, special  # imported here so only this path pays for it
    log_comb = special.gammaln(n + 1) - special.gammaln(j) - special.gammaln(n - j + 1)
    log_gamma_norm = special.gammaln(alpha)

    def integrand(t: float) -> float:
        if t <= 0.0:
            return 0.0
        cdf = special.gammainc(alpha, t)
        log_density = (
            log_comb
            + (alpha - 1) * math.log(t)
            - t
            - log_gamma_norm
            + special.xlogy(j - 1, cdf)
            + special.xlog1py(n - j, -cdf)
        )
        return t ** power * math.exp(log_density)

    # the order statistic concentrates between these CDF levels; mass
    # outside is < 1e-14 and contributes negligibly to low-order moments
    u_lo = float(special.betaincinv(j, n - j + 1, 1e-14))
    u_hi = float(special.betaincinv(j, n - j + 1, 1.0 - 1e-14))
    t_lo = float(special.gammaincinv(alpha, max(u_lo, 1e-300)))
    t_hi = float(special.gammaincinv(alpha, min(u_hi, 1.0 - 1e-16)))
    split = float(special.gammaincinv(alpha, max(j - 0.5, 0.25) / n))
    split = min(max(split, t_lo), t_hi)

    total, err = 0.0, 0.0
    with warnings.catch_warnings():
        # the error estimate is validated below; quad's own warning about
        # slow convergence on near-zero pieces is noise
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if alpha < 1:
            inv = 1.0 / alpha

            def lower(u: float) -> float:
                t = u ** inv
                return integrand(t) * inv * u ** (inv - 1.0)

            v, e = integrate.quad(
                lower, t_lo ** alpha, split ** alpha,
                epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=_QUAD_LIMIT,
            )
        else:
            v, e = integrate.quad(
                integrand, t_lo, split,
                epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=_QUAD_LIMIT,
            )
        total, err = total + v, err + e
        v, e = integrate.quad(
            integrand, split, t_hi,
            epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=_QUAD_LIMIT,
        )
        total, err = total + v, err + e
    if err > 1e-8 * max(1.0, n * alpha):
        raise NumericalError(
            f"quadrature error estimate {err:.3g} too large for order statistic {j}/{n}"
        )
    return total


def order_statistic_moments(spec: DirichletSpec) -> OrderStatSummary:
    """Mean and standard deviation of every rank, by adaptive quadrature.

    Rank r corresponds to the (n-r+1)-th smallest component.  Components
    are dependent (they share the simplex constraint), so the moments are
    taken through the normalized-gamma representation: the Dirichlet
    vector equals iid Gamma(alpha, 1) draws divided by their sum, and the
    sum is independent of the normalized vector.  Hence

        E[X_(j)]    = E[G_(j)] / (n alpha)
        E[X_(j)**2] = E[G_(j)**2] / (n alpha (n alpha + 1))

    with the gamma order-statistic expectations as 1-D integrals.  At
    alpha = 1 this reproduces the harmonic-number closed form exactly.
    """
    n, alpha = spec.n, spec.alpha
    means = np.empty(n)
    sds = np.empty(n)
    scale = n * alpha
    for rank in range(1, n + 1):
        j = n - rank + 1  # order-statistic index for this rank
        first = _gamma_orderstat_raw_moment(n, alpha, j, 1)
        second = _gamma_orderstat_raw_moment(n, alpha, j, 2)
        mu = first / scale
        var = second / (scale * (scale + 1.0)) - mu * mu
        means[rank - 1] = mu
        sds[rank - 1] = math.sqrt(max(var, 0.0))
    return OrderStatSummary(n=n, alpha=spec.alpha, mean=means, sd=sds)


def order_statistic_quantile(spec: DirichletSpec, r: int, q: float) -> float:
    """Quantile of the r-th order statistic of the Beta marginal.

    The order-statistic CDF is I_F(x)(r, n-r+1), so the quantile is two
    nested incomplete-beta inversions.
    """
    r = _check_rank(spec, r)
    if not (0.0 < q < 1.0):
        raise DomainError(f"quantile level must lie in (0, 1), got {q!r}")
    from scipy import special
    u = float(special.betaincinv(r, spec.n - r + 1, q))
    x = float(special.betaincinv(spec.beta_a, spec.beta_b, u))
    if not math.isfinite(x):
        raise NumericalError(f"quantile inversion failed for r={r}, q={q}")
    return x


def reconstruct_from_inventory(
    n: int,
    law: AlphaScalingLaw = AlphaScalingLaw(),
    level: float = 0.95,
) -> OrderStatSummary:
    """Predicted rank-frequency curve (with confidence bands) from n alone."""
    if not (0.0 < level < 1.0):
        raise DomainError(f"confidence level must lie in (0, 1), got {level!r}")
    spec = DirichletSpec(_check_inventory(n), predict_alpha(n, law))
    summary = order_statistic_moments(spec)
    q_lo, q_hi = (1.0 - level) / 2.0, (1.0 + level) / 2.0
    ci_low = np.empty(n)
    ci_high = np.empty(n)
    for rank in range(1, n + 1):
        j = n - rank + 1
        ci_low[rank - 1] = order_statistic_quantile(spec, j, q_lo)
        ci_high[rank - 1] = order_statistic_quantile(spec, j, q_hi)
    return OrderStatSummary(
        n=n,
        alpha=spec.alpha,
        mean=summary.mean,
        sd=summary.sd,
        ci_low=ci_low,
        ci_high=ci_high,
        level=level,
    )
