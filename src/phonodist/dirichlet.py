"""Symmetric-Dirichlet machinery for rank-frequency modelling.

A language with ``n`` distinct phonemes is modelled as a draw from a
symmetric Dirichlet with concentration ``alpha``; its marginals are
Beta(alpha, (n-1)*alpha).  The rank-frequency curve is the sequence of
order-statistic means of that marginal (rank 1 = largest order statistic),
and the concentration itself follows a power law in the inventory size.
All entropies are in nats.  The order-statistic moments and bands are
computed in numpy by the private _gamma module, which the two
order-statistic functions import inside themselves, so that importing
this module, or fitting and predicting a concentration, loads neither
_gamma nor numpy.  No function here needs scipy.  digamma is the
private stdlib module _special's, exported from here.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING, NamedTuple

from ._special import digamma
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
    """Concentration predicted from inventory size via the scaling law.

    Where n or n**exponent_b leaves the floats, the power is taken as
    exp(exponent_b ln n); DomainError where that overflows too.
    """
    n = _check_inventory(n)
    try:
        alpha = law.coeff_a * n ** law.exponent_b
    except OverflowError:
        try:
            alpha = law.coeff_a * math.exp(law.exponent_b * math.log(n))
        except OverflowError:
            raise DomainError("concentration coeff_a * n**exponent_b overflows a float") from None
    return _check_concentration(alpha)


def order_statistic_moments(spec: DirichletSpec) -> OrderStatSummary:
    """Mean and standard deviation of every rank, by a fixed-rule quadrature.

    Rank r corresponds to the (n-r+1)-th smallest component.  Components
    are dependent (they share the simplex constraint), so the moments are
    taken through the normalized-gamma representation: the Dirichlet
    vector equals iid Gamma(alpha, 1) draws divided by their sum, and the
    sum is independent of the normalized vector.  Hence

        E[X_(j)]    = E[G_(j)] / (n alpha)
        E[X_(j)**2] = E[G_(j)**2] / (n alpha (n alpha + 1))

    The moments of every G_(j) come from _gamma.order_statistic_moments.
    A mean below about 1e-300 underflows to 0, and so may its sd.  A
    concentration outside [5e-3 / (n - 1), 1e10] raises NumericalError:
    there the result would miss its error bound.
    """
    from . import _gamma

    means, sds = _gamma.order_statistic_moments(spec.n, spec.alpha)
    return OrderStatSummary(n=spec.n, alpha=spec.alpha, mean=means, sd=sds)


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise DomainError(f"confidence level must lie in (0, 1), got {level!r}")


def order_statistic_bands(spec: DirichletSpec, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Every rank's central ``level`` band (low, high), indexed by rank - 1.

    Rank r is the j = (n-r+1)-th smallest component.  Its band cuts a tail
    of (1-level)/2 off each side of the law of the j-th smallest of n iid
    draws from the Beta(alpha, (n-1) alpha) marginal, whose CDF is
    I_F(x)(j, n-j+1) for the marginal CDF F; so each bound is two nested
    incomplete-beta inversions, all taken in one array call of
    _gamma.order_statistic_bands.  A bound below the smallest normal
    float is returned as that float.  A level outside (0, 1) raises
    DomainError; a concentration outside [5e-3 / (n - 1), 1e10], the
    domain of order_statistic_moments, raises its NumericalError.
    """
    _check_level(level)
    from . import _gamma

    return _gamma.order_statistic_bands(spec.n, spec.alpha, level)


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
