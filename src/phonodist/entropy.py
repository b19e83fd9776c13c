"""Entropy estimation from count data.

Provides the naive plug-in estimator and the bias-corrected
Chao-Wang-Jost (CWJ) estimator, which uses singleton/doubleton counts to
account for unseen categories under undersampling.  Values are in nats.
Both take raw counts, such as a CountVector's ``positive_counts()``, and
are sums over Python numbers, so this module imports no numpy; the count
arguments may still be numpy arrays.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from typing import Iterable, Mapping, NamedTuple

from ._special import digamma
from .dirichlet import _check_inventory
from .errors import DomainError

__all__ = [
    "CountVector",
    "cwj_estimate",
    "plugin_estimate",
    "relative_entropy",
]


class _CountVector(NamedTuple):
    entries: Mapping[str, int]


class CountVector(_CountVector):
    """Phoneme labels with non-negative integer counts."""

    __slots__ = ()

    def __new__(cls, entries: Mapping[str, int]):
        positive = 0
        for label, c in entries.items():
            if isinstance(c, bool) or not isinstance(c, numbers.Integral):
                raise DomainError(f"count for {label!r} must be an integer, got {c!r}")
            if c < 0:
                raise DomainError(f"count for {label!r} must be non-negative, got {c}")
            if c > 0:
                positive += 1
        if positive < 2:
            raise DomainError("need at least 2 labels with positive counts")
        return super().__new__(cls, dict(entries))

    @classmethod
    def _make(cls, fields):  # _replace builds through _make: check there too
        return cls(*fields)

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    def positive_counts(self) -> list[int]:
        return [int(c) for c in self.entries.values() if c > 0]


def plugin_estimate(counts: Iterable[float]) -> float:
    """Plug-in Shannon entropy of raw positive counts (no bias correction).

    Integer counts keep an exact total.  A share above one half takes its
    log as log1p(-(T - c)/T), where T - c is exact, so a dominant share
    near 1 keeps its -(1 - p) ln(1 - p) term.
    """
    positive = [c for c in counts if c > 0]
    exact = all(isinstance(c, numbers.Integral) for c in positive)
    positive = [int(c) if exact else float(c) for c in positive]
    total = sum(positive) if exact else math.fsum(positive)
    return -math.fsum(
        c / total * (math.log1p((c - total) / total) if 2 * c > total else math.log(c / total))
        for c in positive
    )


def cwj_estimate(counts: Iterable[int]) -> float:
    """Chao-Wang-Jost entropy estimate from raw positive integer counts.

    Accepts a single category (returns 0); the package-level contract for
    language distributions is enforced by CountVector instead.
    """
    # f_x, the number of categories seen exactly x times; counts are cast
    # to int once per distinct value
    freq: Counter[int] = Counter()
    for x, m in Counter(counts).items():
        if int(x) > 0:
            freq[int(x)] += m
    total = sum(x * m for x, m in freq.items())
    if sum(freq.values()) <= 1 or total <= 1:
        return 0.0

    # observed part: sum over categories of (X_i/N) * sum_{k=X_i}^{N-1} 1/k,
    # one term per distinct count
    psi_total = digamma(total)
    estimate = math.fsum(m * (x / total) * (psi_total - digamma(x)) for x, m in freq.items())

    f1 = freq.get(1, 0)
    f2 = freq.get(2, 0)
    if f1 == 0:
        return estimate

    if f2 > 0:
        a_cov = 2.0 * f2 / ((total - 1) * f1 + 2.0 * f2)
    else:
        a_cov = 2.0 / ((total - 1) * (f1 - 1) + 2.0)

    # unseen-species term, written as its convergent tail series
    #   (f1/N) * sum_{j>=1} (1-A)^j / (N-1+j)
    # which avoids the cancellation in the (1-A)^(1-N)*(-ln A - ...) form.
    # f1 = 1 with f2 = 0 gives A = 1, and the series is 0.
    ratio = 1.0 - a_cov
    term = 0.0
    power = 1.0
    j = 1
    while True:
        power *= ratio
        increment = power / (total - 1 + j)
        term += increment
        if increment < 1e-15 * max(term, 1e-300) or power == 0.0:
            break
        j += 1
        if j > 10_000_000:  # geometric tail truncation guard
            break
    estimate += f1 / total * term
    return estimate


def relative_entropy(value: float, n: int) -> float:
    """An entropy (nats) as a fraction of its maximum ln(n), clamped into (0, 1]."""
    ratio = value / math.log(_check_inventory(n))
    if ratio > 1.0:
        import logging  # loaded only when a value is clamped

        logging.getLogger(__name__).warning(
            "relative entropy %r exceeds 1 for n=%d; clamping to 1", ratio, n
        )
        return 1.0
    return ratio
