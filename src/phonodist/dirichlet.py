"""Symmetric-Dirichlet machinery for rank-frequency modelling.

A language with ``n`` distinct phonemes is modelled as a draw from a
symmetric Dirichlet with concentration ``alpha``; its marginals are
Beta(alpha, (n-1)*alpha).  The rank-frequency curve is the sequence of
order-statistic means of that marginal (rank 1 = largest order statistic),
and the concentration itself follows a power law in the inventory size.
All entropies are in nats.  numpy and the private _gamma module, which
computes the incomplete gamma and beta ratios with numpy alone, are
imported inside the order-statistic functions, so that importing this
module, or fitting and predicting a concentration, loads neither.  No
function here needs scipy.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, InfeasibleError, NumericalError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AlphaScalingLaw",
    "DirichletSpec",
    "OrderStatSummary",
    "digamma",
    "expected_entropy",
    "order_statistic_bands",
    "order_statistic_moments",
    "predict_alpha",
    "reconstruct_from_inventory",
    "solve_alpha",
]

def _check_inventory(n) -> int:
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise DomainError(f"inventory size must be an integer, got {n!r}")
    if n < 2:
        raise DomainError(f"inventory size must be >= 2, got {n}")
    return int(n)


def _check_concentration(alpha: float) -> float:
    if not (math.isfinite(alpha) and alpha > 0):
        raise DomainError(f"concentration must be finite and > 0, got {alpha}")
    return alpha


class _DirichletSpec(NamedTuple):
    n: int
    alpha: float


class DirichletSpec(_DirichletSpec):
    """Symmetric Dirichlet over the (n-1)-simplex with concentration alpha."""

    __slots__ = ()

    def __new__(cls, n: int, alpha: float):
        _check_inventory(n)
        _check_concentration(alpha)
        return super().__new__(cls, n, alpha)

    @classmethod
    def _make(cls, fields):  # _replace builds through _make: check there too
        return cls(*fields)


class _AlphaScalingLaw(NamedTuple):
    coeff_a: float = 19.47
    exponent_b: float = -0.95
    se_a: float | None = None
    se_b: float | None = None


class AlphaScalingLaw(_AlphaScalingLaw):
    """Power law alpha(n) = coeff_a * n**exponent_b with optional standard errors."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        law = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(law.coeff_a) and law.coeff_a > 0):
            raise DomainError(f"coeff_a must be finite and > 0, got {law.coeff_a}")
        if not math.isfinite(law.exponent_b):
            raise DomainError(f"exponent_b must be finite, got {law.exponent_b}")
        return law

    @classmethod
    def _make(cls, fields):  # _replace builds through _make: check there too
        return cls(*fields)


class OrderStatSummary(NamedTuple):
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
# psi(y) - ln(y) is the sum of c * w**p, w = 1/y, over these (c, p) for
# y >= 10: -w/2, then -B_2k w**2k / 2k through B_12
_PSI_TERMS = ((-1 / 2, 1), (-1 / 12, 2), (1 / 120, 4), (-1 / 252, 6), (1 / 240, 8),
              (-1 / 132, 10), (691 / 32760, 12))


def digamma(x) -> float:
    """Digamma function of a real scalar x > 0.

    Below 10 the argument is raised by ten steps of psi(x) = psi(x+1) - 1/x.
    ln(x + 10) is split as ln 10 + log1p(x/10), and the ten reciprocals are
    taken off ln 10 before anything else is added, so that no rounding
    happens at the size of ln 10 and psi stays accurate where it crosses
    zero (x = 1.4616...).
    """
    if not (isinstance(x, numbers.Real) and math.isfinite(x) and x > 0):
        raise DomainError(f"digamma requires finite x > 0, got {x!r}")
    x = float(x)
    w = 1.0 / (x + 10.0 if x < 10.0 else x)
    rest = sum([c * w**p for c, p in _PSI_TERMS])
    if x >= 10.0:
        return math.log(x) + rest
    parts = [_LN10_HI, _LN10_LO, math.log1p(x / 10.0), rest]
    return math.fsum(parts + [-1.0 / (x + i) for i in range(10)])


def _mean_entropy(n: int, alpha: float) -> float:
    """psi(n*alpha + 1) - psi(alpha + 1), the expected entropy at (n, alpha)."""
    return digamma(alpha * n + 1) - digamma(alpha + 1)


def expected_entropy(spec: DirichletSpec) -> float:
    """Expected Shannon entropy (nats) of a distribution drawn from ``spec``."""
    return _mean_entropy(spec.n, spec.alpha)


def solve_alpha(entropy_hat: float, n: int) -> float:
    """Invert expected_entropy in alpha for a fixed inventory size.

    The map alpha -> expected entropy is strictly increasing with range
    (0, ln n), so the root is unique; it is bracketed on a log-alpha grid
    and found by bisection in log alpha.  A target so close to ln n that
    the float expected entropy never reaches it raises InfeasibleError.
    """
    n = _check_inventory(n)
    h_max = math.log(n)
    if not (math.isfinite(entropy_hat) and 0.0 < entropy_hat < h_max):
        raise InfeasibleError(
            f"target entropy {entropy_hat!r} outside the attainable open interval "
            f"(0, ln n = {h_max:.6g}) for n={n}"
        )

    def gap(log_alpha: float) -> float:
        return _mean_entropy(n, math.exp(log_alpha)) - entropy_hat

    lo, hi = math.log(1e-8), math.log(1e8)
    # widen if the target sits in the extreme tails of the default bracket
    while gap(lo) > 0 and lo > -200:
        lo -= 10
    while gap(hi) < 0 and hi < 200:
        hi += 10
    if gap(hi) < 0:
        raise InfeasibleError(
            f"target entropy {entropy_hat!r} within rounding of ln n = {h_max!r} "
            f"for n={n}: no float concentration reaches it"
        )
    if gap(lo) > 0:
        raise NumericalError("failed to bracket the concentration root")
    # stop at the width Brent's method was run to (xtol=1e-15, rtol=8.9e-16)
    while hi - lo > 1e-15 + 8.9e-16 * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if gap(mid) > 0 else (mid, hi)
    alpha = math.exp(0.5 * (lo + hi))
    if abs(_mean_entropy(n, alpha) - entropy_hat) > 1e-10:
        raise NumericalError("concentration root did not reach tolerance")
    return alpha


def predict_alpha(n: int, law: AlphaScalingLaw = AlphaScalingLaw()) -> float:
    """Concentration predicted from inventory size via the scaling law."""
    n = _check_inventory(n)
    try:
        alpha = law.coeff_a * n ** law.exponent_b
    except OverflowError:
        raise DomainError("concentration coeff_a * n**exponent_b overflows a float") from None
    return _check_concentration(alpha)


# The moment engine works in s = ln t.  Each rank's window holds its first-
# and second-moment integrands down to exp(-_DROP) of their peaks; the 128
# nodes of _gamma.gauss_legendre span it, for _BLOCK ranks at a time (128 KB
# arrays).
# As (n - 1) alpha falls to 0 the top rank's variance becomes a difference
# of numbers near 1: at 5e-4 its sd is off mpmath by up to 2e-10, at
# _MIN_SPREAD by 3e-12.  The log density at a node carries a rounding error
# of about 1e-16 sqrt(alpha), 1e-11 at _MAX_ALPHA.
_DROP, _BLOCK = 50.0, 128
_MIN_SPREAD, _MAX_ALPHA = 5e-3, 1e10
_LOG_RANGE_END = math.log(1e-300)


def _phi(n: int, alpha: float, j, p, s, log_p, log_q):
    """phi = ln(t**p * density of ln G_(j)) + const at s = ln t, given
    (ln P, ln Q) of Gamma(alpha, 1) there.

    G_(j) is the j-th smallest of n iid Gamma(alpha, 1) draws; phi is
    concave in s.
    """
    import numpy as np

    x = s - np.log(alpha + p)
    return (alpha + p) * (x - np.expm1(x)) + (j - 1) * log_p + (n - j) * log_q


def _log_integrand(n: int, alpha: float, j, p, s, log_cdfs):
    """phi, phi' and phi'' in s (see _phi), with ln P, ln Q and their
    slopes from the _gamma.Interpolant log_cdfs."""
    import numpy as np

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
    fallen by _DROP right of its own, inside the range where P, Q > 1e-300.

    phi is taken at the nodes of an interpolant of ln P and ln Q, which
    brackets every peak between the neighbours of its best node and every
    edge between two nodes.  Newton steps on phi' inside the bracket then
    place the peaks, and Newton steps on phi - peak + _DROP, which, phi
    being concave, stay outside the edge once they have crossed it, the
    edges, started by linear interpolation between their nodes.
    """
    import numpy as np

    from . import _gamma

    low, high = _gamma.tail_bounds(alpha, _LOG_RANGE_END)
    log_cdfs = _gamma.Interpolant(alpha, max(low, _LOG_RANGE_END), high, n - 1)
    s_lo, s_hi = log_cdfs.quantile([_LOG_RANGE_END] * 2, [False, True])
    if log_cdfs.log_p[0] >= _LOG_RANGE_END:
        s_lo = -690.0
    p, side = np.array([[1.0], [2.0]]), np.array([[-1.0], [1.0]])
    inside = (log_cdfs.s > s_lo) & (log_cdfs.s < s_hi)
    grid = np.concatenate([[s_lo], log_cdfs.s[inside], [s_hi]])
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
    import numpy as np

    from . import _gamma

    u, w = _gamma.gauss_legendre()
    s = low[:, None] + (high - low)[:, None] * u
    # one evaluation for the nodes and, in the last two columns, the window ends
    log_p, log_q = _gamma.log_pq(alpha, np.column_stack([s, low, high]))
    (log_p, log_p_low, log_p_high), (log_q, log_q_low, log_q_high) = (
        np.split(part, [u.size, u.size + 1], axis=1) for part in (log_p, log_q))
    log_density = _phi(n, alpha, j[:, None], 0.0, s, log_p, log_q)

    def log_sum(log_terms, factor=1.0):
        top = log_terms.max(axis=1)
        return top + np.log((w * factor * np.exp(log_terms - top[:, None])).sum(axis=1))

    log_mass = log_sum(log_density)
    log_mean = log_sum(log_density + s) - log_mass
    # (t / mean - 1)**2 as exp(2 max(gap, 0)) * expm1(-|gap|)**2, free of cancellation
    gap = s - log_mean[:, None]
    spread = np.exp(log_sum(log_density + 2.0 * np.maximum(gap, 0.0), np.expm1(-np.abs(gap)) ** 2)
                    - log_mass)
    # G_(j) < e**low when at least j of the n draws are, G_(j) > e**high
    # when at least n - j + 1 are
    tails, rests = np.exp(_gamma.binomial_tail(
        n, np.concatenate([j, n - j + 1]), np.concatenate([log_p_low, log_q_high])[:, 0],
        np.concatenate([log_q_low, log_p_high])[:, 0]))
    below, above = np.split(tails, 2)
    inside = np.split(rests, 2)[0] - above
    return np.exp(log_mean), inside, spread + below + above


def order_statistic_moments(spec: DirichletSpec) -> OrderStatSummary:
    """Mean and standard deviation of every rank, by a fixed-rule quadrature.

    Rank r corresponds to the (n-r+1)-th smallest component.  Components
    are dependent (they share the simplex constraint), so the moments are
    taken through the normalized-gamma representation: the Dirichlet
    vector equals iid Gamma(alpha, 1) draws divided by their sum, and the
    sum is independent of the normalized vector.  Hence

        E[X_(j)]    = E[G_(j)] / (n alpha)
        E[X_(j)**2] = E[G_(j)**2] / (n alpha (n alpha + 1))

    Each G_(j) is summed over nodes in its own window of s = ln t (see
    _moment_windows), one row of a node matrix of _BLOCK ranks, so that
    _gamma.log_pq runs once per matrix.  Variances are taken over
    the squared window mean, so that sds far below 1e-154 stay finite;
    a mean below about 1e-300 underflows to 0, and so may its sd.  A
    concentration outside [_MIN_SPREAD / (n - 1), _MAX_ALPHA] raises
    NumericalError: there the result would miss its error bound.
    """
    import numpy as np

    n, alpha = spec.n, spec.alpha
    floor = _MIN_SPREAD / (n - 1)
    if not floor <= alpha <= _MAX_ALPHA:
        side, bound = ("below", floor) if alpha < floor else ("above", _MAX_ALPHA)
        raise NumericalError(
            f"concentration {alpha:.3g} is {side} {bound:.3g}, where the order-statistic "
            f"moments of n = {n} components miss their error bound")
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
    return OrderStatSummary(n=n, alpha=spec.alpha, mean=means, sd=sds)


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise DomainError(f"confidence level must lie in (0, 1), got {level!r}")


# The bands take concentrations from 1e-100 to 1e100, which hold every
# one solve_alpha returns (e**-208.4 to e**208.4): below, the start of the
# inversion overflows; above, its skewness term underflows.
_MIN_BAND_ALPHA, _MAX_BAND_ALPHA = 1e-100, 1e100


def order_statistic_bands(spec: DirichletSpec, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Every rank's central ``level`` band (low, high), indexed by rank - 1.

    Rank r is the j = (n-r+1)-th smallest component.  Its band runs from
    the (1-level)/2 to the (1+level)/2 quantile of the j-th smallest of n
    iid draws from the Beta(alpha, (n-1) alpha) marginal, whose CDF is
    I_F(x)(j, n-j+1) for the marginal CDF F; so each bound is two nested
    incomplete-beta inversions, all taken in one array call.  A bound
    below the smallest normal float is returned as that float.  A level
    outside (0, 1) raises DomainError; a concentration outside
    [_MIN_BAND_ALPHA, _MAX_BAND_ALPHA] raises NumericalError.
    """
    _check_level(level)
    if not _MIN_BAND_ALPHA <= spec.alpha <= _MAX_BAND_ALPHA:
        raise NumericalError(
            f"concentration {spec.alpha:.3g} is outside [{_MIN_BAND_ALPHA:g}, {_MAX_BAND_ALPHA:g}], "
            f"where the order-statistic quantiles are computed")
    import numpy as np

    from . import _gamma

    smallest = np.arange(spec.n, 0, -1)  # order-statistic index of each rank
    levels = np.repeat([(1.0 - level) / 2.0, (1.0 + level) / 2.0], spec.n)
    try:
        bands = _gamma.order_statistic_quantiles(spec.n, spec.alpha, np.tile(smallest, 2), levels)
    except ArithmeticError:
        raise NumericalError(f"quantile inversion failed at level={level}") from None
    return bands[:spec.n], bands[spec.n:]


def reconstruct_from_inventory(
    n: int,
    law: AlphaScalingLaw = AlphaScalingLaw(),
    level: float = 0.95,
) -> OrderStatSummary:
    """Predicted rank-frequency curve (with confidence bands) from n alone."""
    _check_level(level)
    spec = DirichletSpec(n, predict_alpha(n, law))
    summary = order_statistic_moments(spec)
    ci_low, ci_high = order_statistic_bands(spec, level)
    return summary._replace(ci_low=ci_low, ci_high=ci_high, level=level)
