import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonodist.entropy import (
    CountVector,
    cwj_estimate,
    plugin_estimate,
    relative_entropy,
)
from phonodist.errors import DomainError


def cwj_reference(counts):
    """Direct transcription of the estimator: observed harmonic part plus
    the (1-A)^(1-N)-form unseen-species term."""
    counts = [c for c in counts if c > 0]
    total = sum(counts)
    observed = sum(
        c / total * sum(1.0 / k for k in range(c, total)) for c in counts if c <= total - 1
    )
    f1 = sum(1 for c in counts if c == 1)
    f2 = sum(1 for c in counts if c == 2)
    if f1 == 0:
        return observed
    if f2 > 0:
        a_cov = 2.0 * f2 / ((total - 1) * f1 + 2.0 * f2)
    else:
        a_cov = 2.0 / ((total - 1) * (f1 - 1) + 2.0)
    if a_cov == 1.0:  # f1 = 1, f2 = 0: nothing unseen
        return observed
    bracket = -math.log(a_cov) - sum(
        (1.0 / r) * (1.0 - a_cov) ** r for r in range(1, total)
    )
    return observed + f1 / total * (1.0 - a_cov) ** (-(total - 1)) * bracket


class TestCountVector:
    def test_rejects_single_category(self):
        with pytest.raises(DomainError):
            CountVector({"a": 10})

    def test_rejects_fractional_counts(self):
        with pytest.raises(DomainError):
            CountVector({"a": 1.5, "b": 2})

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            CountVector({"a": -1, "b": 2})

    def test_zero_counts_allowed_but_not_counted(self):
        cv = CountVector({"a": 3, "b": 1, "c": 0})
        assert cv.total == 4
        assert sorted(cv.positive_counts()) == [1, 3]


class TestPlugin:
    def test_uniform_pair(self):
        assert plugin_estimate([5, 5]) == pytest.approx(math.log(2))

    def test_hand_value(self):
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert plugin_estimate([3, 1]) == pytest.approx(expected, abs=1e-12)

    @given(st.lists(st.integers(1, 50), min_size=2, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_relabeling_and_scaling_invariance(self, counts):
        base = plugin_estimate(counts)
        shuffled = plugin_estimate(counts[::-1])
        scaled = plugin_estimate([7 * c for c in counts])
        assert shuffled == pytest.approx(base, abs=1e-12)
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_dominant_share_keeps_its_own_term(self):
        # ln(c/T) rounds to 0 here; -(1 - p) ln(1 - p) is 1e-18
        expected = 1e-18 + 1e-18 * math.log(1e18)
        assert plugin_estimate([10**18, 1]) == pytest.approx(expected, rel=1e-15, abs=0)

    @given(st.integers(1, 2**63 - 1), st.lists(st.integers(1, 10**6), min_size=1, max_size=6))
    @example(10**18, [1])
    @example(2**63 - 1, [1, 2])
    @example(3, [1])
    @settings(max_examples=100, deadline=None)
    def test_against_mpmath(self, dominant, rest):
        mpmath = pytest.importorskip("mpmath")
        counts = [dominant, *rest]
        with mpmath.workdps(50):
            total = mpmath.mpf(sum(counts))
            exact = -mpmath.fsum(c / total * mpmath.log(c / total) for c in counts)
        assert plugin_estimate(counts) == pytest.approx(float(exact), rel=1e-12, abs=0)


class TestCwj:
    def test_converges_to_plugin_for_large_counts(self):
        value = cwj_estimate([1000, 1000])
        assert value == pytest.approx(math.log(2), abs=1e-3)

    def test_hand_formula_with_singletons(self):
        counts = [2, 1, 1]
        assert cwj_estimate(np.array(counts)) == pytest.approx(
            cwj_reference(counts), rel=1e-12
        )

    @pytest.mark.parametrize(
        "counts",
        [[2, 1, 1], [1, 1, 1, 1], [5, 3, 1, 1, 1], [10, 1, 1], [4, 2, 2, 1, 1, 1],
         [3, 2, 1], [4, 2, 2, 1], [5, 3, 1]],
    )
    def test_matches_reference_formula(self, counts):
        assert cwj_estimate(np.array(counts)) == pytest.approx(
            cwj_reference(counts), rel=1e-10
        )

    def test_no_singletons_reduces_to_observed_part(self):
        counts = np.array([5, 3, 2, 2])
        total = counts.sum()
        observed = sum(
            c / total * sum(1.0 / k for k in range(c, total)) for c in counts
        )
        assert cwj_estimate(counts) == pytest.approx(observed, rel=1e-12)

    def test_one_singleton_with_doubletons_adds_the_unseen_term(self):
        # Chao, Wang & Jost (2013): A < 1 whenever f1 >= 1 and f2 > 0
        observed = sum(c / 6 * sum(1.0 / k for k in range(c, 6)) for c in (3, 2, 1))
        assert cwj_estimate([3, 2, 1]) > observed + 0.01

    def test_single_category_is_zero(self):
        assert cwj_estimate(np.array([17])) == 0.0

    @given(st.lists(st.integers(1, 30), min_size=2, max_size=15))
    @settings(max_examples=80, deadline=None)
    def test_dominates_plugin(self, counts):
        arr = np.array(counts)
        assert cwj_estimate(arr) >= plugin_estimate(arr) - 1e-12

    def test_smaller_bias_than_plugin_when_undersampled(self):
        rng = np.random.default_rng(3)
        support = 30
        weights = 1.0 / np.arange(1, support + 1)
        probs = weights / weights.sum()
        true_h = -np.sum(probs * np.log(probs))
        plugin_errs, cwj_errs = [], []
        for _ in range(1000):
            sample = rng.multinomial(2 * support, probs)
            sample = sample[sample > 0]
            plugin_errs.append(plugin_estimate(sample) - true_h)
            cwj_errs.append(cwj_estimate(sample) - true_h)
        assert abs(np.mean(cwj_errs)) < abs(np.mean(plugin_errs))


class TestRelativeEntropy:
    def test_maximal_uniform(self):
        assert relative_entropy(plugin_estimate([5, 5]), 2) == pytest.approx(1.0)

    def test_east_taa_and_rotokas_scales(self):
        assert relative_entropy(3.61, 160) == pytest.approx(0.71, abs=0.005)
        assert relative_entropy(2.19, 11) == pytest.approx(0.91, abs=0.005)

    def test_clamps_above_one(self, caplog):
        with caplog.at_level("WARNING"):
            assert relative_entropy(5.0, 2) == 1.0
        assert "clamping" in caplog.text

    def test_warning_prints_the_ratio_it_clamps(self, caplog):
        # a ratio a few ulps above 1 once printed as "relative entropy 1 exceeds 1"
        value = math.nextafter(math.nextafter(math.log(4), math.inf), math.inf)
        ratio = value / math.log(4)
        assert ratio > 1.0
        with caplog.at_level("WARNING"):
            assert relative_entropy(value, 4) == 1.0
        assert f"relative entropy {ratio!r} exceeds 1 for n=4" in caplog.text
        assert "relative entropy 1 exceeds" not in caplog.text

    def test_rejects_small_inventory(self):
        with pytest.raises(DomainError):
            relative_entropy(plugin_estimate([5, 5]), 1)
