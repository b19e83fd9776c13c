"""Entropy estimation from count data.

Provides the naive plug-in estimator and the bias-corrected
Chao-Wang-Jost (CWJ) estimator, which uses singleton/doubleton counts to
account for unseen categories under undersampling.  Values are in nats.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .dirichlet import digamma
from .errors import DomainError

__all__ = [
    "CountVector",
    "EntropyEstimate",
    "cwj_entropy",
    "cwj_estimate",
    "plugin_entropy",
    "plugin_estimate",
    "relative_entropy",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CountVector:
    """Phoneme labels with non-negative integer counts."""

    entries: Mapping[str, int]

    def __post_init__(self):
        positive = 0
        for label, c in self.entries.items():
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
                raise DomainError(f"count for {label!r} must be an integer, got {c!r}")
            if c < 0:
                raise DomainError(f"count for {label!r} must be non-negative, got {c}")
            if c > 0:
                positive += 1
        if positive < 2:
            raise DomainError("need at least 2 labels with positive counts")
        object.__setattr__(self, "entries", dict(self.entries))

    @classmethod
    def from_counts(cls, counts: Iterable[int]) -> "CountVector":
        return cls({f"c{i}": int(c) for i, c in enumerate(counts)})

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    def positive_counts(self) -> np.ndarray:
        return np.array([c for c in self.entries.values() if c > 0], dtype=np.int64)


@dataclass(frozen=True)
class EntropyEstimate:
    value: float  # nats
    method: str  # "plug_in" or "cwj"
    support_size: int


def plugin_estimate(counts: np.ndarray) -> float:
    """Plug-in Shannon entropy of raw positive counts (no bias correction)."""
    counts = np.asarray(counts, dtype=float)
    counts = counts[counts > 0]
    p = counts / counts.sum()
    return float(-np.sum(p * np.log(p)))


def cwj_estimate(counts: np.ndarray) -> float:
    """Chao-Wang-Jost entropy estimate from raw positive integer counts.

    Accepts a single category (returns 0); the package-level contract for
    language distributions is enforced by CountVector instead.
    """
    counts = np.asarray(counts, dtype=np.int64)
    counts = counts[counts > 0]
    total = int(counts.sum())
    if counts.size <= 1 or total <= 1:
        return 0.0

    # observed part: sum over 1 <= X_i <= N-1 of (X_i/N) * sum_{k=X_i}^{N-1} 1/k
    observed = counts[counts <= total - 1]
    partial_harmonic = digamma(total) - digamma(observed)
    estimate = float(np.sum(observed / total * partial_harmonic))

    f1 = int(np.count_nonzero(counts == 1))
    f2 = int(np.count_nonzero(counts == 2))
    if f1 <= 1:
        return estimate

    if f2 > 0:
        a_cov = 2.0 * f2 / ((total - 1) * f1 + 2.0 * f2)
    else:
        a_cov = 2.0 / ((total - 1) * (f1 - 1) + 2.0)

    # unseen-species term, written as its convergent tail series
    #   (f1/N) * sum_{j>=1} (1-A)^j / (N-1+j)
    # which avoids the cancellation in the (1-A)^(1-N)*(-ln A - ...) form.
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


def plugin_entropy(counts: CountVector) -> EntropyEstimate:
    """Plug-in Shannon entropy of a count vector."""
    positive = counts.positive_counts()
    return EntropyEstimate(
        value=plugin_estimate(positive), method="plug_in", support_size=positive.size
    )


def cwj_entropy(counts: CountVector) -> EntropyEstimate:
    """Bias-corrected (Chao-Wang-Jost) entropy of a count vector."""
    positive = counts.positive_counts()
    if counts.total < 2:
        raise DomainError("CWJ estimation needs a sample of at least 2 tokens")
    return EntropyEstimate(
        value=cwj_estimate(positive), method="cwj", support_size=positive.size
    )


def relative_entropy(estimate: EntropyEstimate, n: int) -> float:
    """Entropy as a fraction of its maximum ln(n), clamped into (0, 1]."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
        raise DomainError(f"inventory size must be an integer >= 2, got {n!r}")
    ratio = estimate.value / math.log(n)
    if ratio > 1.0:
        log.warning(
            "relative entropy %.6g exceeds 1 for n=%d; clamping to 1", ratio, n
        )
        return 1.0
    return ratio
