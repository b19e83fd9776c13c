import math

import numpy as np
import pytest

from phonodist.maxent import (
    MaxEntProblem,
    check_feasibility,
    guessed_distribution,
    logsumexp,
    solve,
)
from phonodist.errors import DomainError, InfeasibleError


def labels(m):
    return tuple(f"s{i}" for i in range(m))


def entropy(p):
    return float(-np.sum(p * np.log(p)))


def dual(lam, feats, targets):
    scores = feats @ lam
    m = np.max(scores)
    return m + math.log(np.sum(np.exp(scores - m))) - float(lam @ targets)


def feasible_slice(feats, targets):
    """Particular solution and null-space basis of {p : 1.p=1, F^T p = c}."""
    a = np.vstack([np.ones(feats.shape[0]), feats.T])
    b = np.concatenate([[1.0], targets])
    particular = np.linalg.lstsq(a, b, rcond=None)[0]
    _, s, vt = np.linalg.svd(a)
    null = vt[np.sum(s > 1e-12) :].T
    return particular, null


class TestProblemValidation:
    def test_rejects_single_label(self):
        with pytest.raises(DomainError):
            MaxEntProblem(("a",), np.zeros((1, 1)), np.zeros(1))

    def test_rejects_row_mismatch(self):
        with pytest.raises(DomainError):
            MaxEntProblem(labels(3), np.zeros((2, 1)), np.zeros(1))

    def test_rejects_target_mismatch(self):
        with pytest.raises(DomainError):
            MaxEntProblem(labels(3), np.zeros((3, 2)), np.zeros(1))

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            MaxEntProblem(labels(2), np.array([[np.nan], [0.0]]), np.zeros(1))


class TestFeasibility:
    def test_column_range_violation_names_direction(self):
        problem = MaxEntProblem(
            labels(3), np.array([[0.0], [1.0], [2.0]]), np.array([2.5])
        )
        with pytest.raises(InfeasibleError, match="feature 0"):
            check_feasibility(problem)

    def test_jointly_infeasible_despite_per_column_ranges(self):
        # each target inside its own column range, but p2 + p3 = 1.2 > 1
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        problem = MaxEntProblem(labels(3), feats, np.array([0.6, 0.6]))
        with pytest.raises(InfeasibleError):
            check_feasibility(problem)

    def test_boundary_target_is_feasible(self):
        problem = MaxEntProblem(
            labels(3), np.array([[0.0], [1.0], [2.0]]), np.array([2.0])
        )
        check_feasibility(problem)


class TestGuessedDistribution:
    def test_zero_multipliers_give_uniform(self):
        probs = guessed_distribution(np.zeros(2), np.random.default_rng(0).normal(size=(5, 2)))
        assert probs == pytest.approx(np.full(5, 0.2))

    def test_never_returns_exact_zero(self):
        probs = guessed_distribution(np.array([2000.0]), np.array([[0.0], [1.0]]))
        assert np.all(probs > 0)
        assert probs.sum() == pytest.approx(1.0)


class TestLogSumExp:
    def test_bit_identical_to_scipy(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(20)
        for _ in range(2000):
            m = int(rng.integers(1, 50))
            a = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=m)
            if rng.random() < 0.5:  # ties at the maximum
                a[rng.integers(0, m, size=rng.integers(1, m + 1))] = a.max()
            if rng.random() < 0.3:  # ties anywhere
                a = np.round(a, 1)
            if rng.random() < 0.3:
                a[rng.integers(0, m, size=rng.integers(1, m + 1))] = -np.inf
            with np.errstate(divide="ignore"):
                expected = special.logsumexp(a)
            got = logsumexp(a)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes(), a

    def test_all_minus_infinity(self):
        with np.errstate(divide="ignore"):
            assert logsumexp(np.full(3, -np.inf)) == -np.inf


class TestSolve:
    def test_unconstrained_is_uniform(self):
        sol = solve(MaxEntProblem(labels(6), np.zeros((6, 0)), np.zeros(0)))
        assert sol.probs == pytest.approx(np.full(6, 1.0 / 6.0), abs=1e-12)
        assert sol.entropy == pytest.approx(math.log(6), abs=1e-12)

    def test_two_point_closed_form(self):
        # single indicator feature with target 0.3 forces p = (0.7, 0.3)
        sol = solve(MaxEntProblem(labels(2), np.array([[0.0], [1.0]]), np.array([0.3])))
        assert sol.probs == pytest.approx([0.7, 0.3], abs=1e-10)
        assert sol.lambdas[0] == pytest.approx(math.log(0.3 / 0.7), abs=1e-8)

    def test_mean_constrained_die_against_slice_grid(self):
        # E[face] = 4.5 on a six-sided die; oracle = fine grid search over
        # the 4-dim feasible slice is too big, so use one pinned feature
        # set with a 1-dim slice instead
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 4.0]])
        targets = np.array([1.2, 0.9])
        problem = MaxEntProblem(labels(4), feats, targets)
        sol = solve(problem)
        particular, null = feasible_slice(feats, targets)
        assert null.shape[1] == 1
        direction = null[:, 0]
        with np.errstate(divide="ignore"):
            upper = np.min(
                np.where(direction < 0, particular / -direction, np.inf)
            )
            lower = -np.min(
                np.where(direction > 0, particular / direction, np.inf)
            )
        grid = np.linspace(lower + 1e-9, upper - 1e-9, 200001)
        best = -np.inf
        for t in grid:
            p = particular + t * direction
            if np.all(p > 0):
                h = entropy(p)
                if h > best:
                    best = h
        assert sol.entropy == pytest.approx(best, abs=1e-6)
        assert np.max(np.abs(sol.residuals)) <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_recovers_synthetic_multipliers(self, seed):
        rng = np.random.default_rng(seed)
        m, k = 12, 3
        feats = rng.normal(size=(m, k))
        true_lam = rng.normal(size=k)
        scores = feats @ true_lam
        p_true = np.exp(scores - scores.max())
        p_true /= p_true.sum()
        targets = feats.T @ p_true
        sol = solve(MaxEntProblem(labels(m), feats, targets))
        assert sol.probs == pytest.approx(p_true, abs=1e-8)
        # multipliers unique up to the affine span; generic features are
        # full rank so they match after removing the normalization shift
        centered = feats - feats.mean(axis=0)
        proj = np.linalg.lstsq(centered, centered @ true_lam, rcond=None)[0]
        proj_sol = np.linalg.lstsq(centered, centered @ sol.lambdas, rcond=None)[0]
        assert proj_sol == pytest.approx(proj, abs=1e-6)

    def test_kkt_gibbs_form(self):
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(10, 2))
        p = rng.dirichlet(np.ones(10))
        sol = solve(MaxEntProblem(labels(10), feats, feats.T @ p))
        # log p must lie exactly in span{1, feature columns}
        design = np.column_stack([np.ones(10), feats])
        coef, *_ = np.linalg.lstsq(design, np.log(sol.probs), rcond=None)
        assert np.max(np.abs(design @ coef - np.log(sol.probs))) < 1e-10
        assert coef[0] == pytest.approx(sol.lambda0, abs=1e-8)
        assert coef[1:] == pytest.approx(sol.lambdas, abs=1e-8)

    def test_entropy_dominates_feasible_samples(self):
        rng = np.random.default_rng(21)
        feats = rng.normal(size=(8, 2))
        base = rng.dirichlet(np.ones(8))
        targets = feats.T @ base
        sol = solve(MaxEntProblem(labels(8), feats, targets))
        particular, null = feasible_slice(feats, targets)
        found_other = 0
        for _ in range(500):
            y = rng.normal(size=null.shape[1])
            for scale in (1.0, 0.3, 0.1, 0.03):
                p = particular + null @ (scale * y)
                if np.all(p > 1e-12):
                    found_other += 1
                    assert entropy(p) <= sol.entropy + 1e-10
                    break
        assert found_other > 100

    def test_rejects_bad_tolerance(self):
        problem = MaxEntProblem(labels(2), np.array([[0.0], [1.0]]), np.array([0.5]))
        with pytest.raises(DomainError):
            solve(problem, tolerance=0.0)


class TestDual:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(9, 3))
        targets = feats.T @ rng.dirichlet(np.ones(9))
        h = 1e-6
        for _ in range(20):
            lam = rng.normal(scale=0.5, size=3)
            grad = feats.T @ guessed_distribution(lam, feats) - targets
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd = (dual(lam + e, feats, targets) - dual(lam - e, feats, targets)) / (2 * h)
                assert grad[k] == pytest.approx(fd, abs=1e-6)

    def test_convexity_along_chords(self):
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(7, 2))
        targets = feats.T @ rng.dirichlet(np.ones(7))
        for _ in range(50):
            a = rng.normal(size=2)
            b = rng.normal(size=2)
            mid = dual((a + b) / 2, feats, targets)
            assert mid <= (dual(a, feats, targets) + dual(b, feats, targets)) / 2 + 1e-12

    def test_minimum_at_solution(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(6, 2))
        targets = feats.T @ rng.dirichlet(np.ones(6))
        sol = solve(MaxEntProblem(labels(6), feats, targets))
        d_star = dual(sol.lambdas, feats, targets)
        for _ in range(100):
            assert d_star <= dual(sol.lambdas + rng.normal(scale=0.1, size=2), feats, targets) + 1e-12


class TestDegeneracy:
    def test_duplicate_column_warns_and_uses_min_norm(self):
        feats = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        targets = np.array([0.8, 0.8])
        single = solve(MaxEntProblem(labels(3), feats[:, :1], targets[:1]))
        with pytest.warns(RuntimeWarning, match="affinely dependent"):
            sol = solve(MaxEntProblem(labels(3), feats, targets))
        assert sol.probs == pytest.approx(single.probs, abs=1e-9)
        # min-norm multipliers split the single-column multiplier evenly
        assert sol.lambdas[0] == pytest.approx(sol.lambdas[1], abs=1e-10)
        assert sol.lambdas.sum() == pytest.approx(single.lambdas[0], abs=1e-7)


class TestInvariances:
    def test_support_permutation(self):
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(6, 2))
        targets = feats.T @ rng.dirichlet(np.ones(6))
        perm = rng.permutation(6)
        sol = solve(MaxEntProblem(labels(6), feats, targets))
        sol_p = solve(MaxEntProblem(labels(6), feats[perm], targets))
        assert sol_p.probs == pytest.approx(sol.probs[perm], abs=1e-9)

    def test_constant_shift_of_feature_column(self):
        rng = np.random.default_rng(12)
        feats = rng.normal(size=(6, 2))
        targets = feats.T @ rng.dirichlet(np.ones(6))
        shifted = feats.copy()
        shifted[:, 0] += 5.0
        sol = solve(MaxEntProblem(labels(6), feats, targets))
        sol_s = solve(
            MaxEntProblem(labels(6), shifted, targets + np.array([5.0, 0.0]))
        )
        assert sol_s.probs == pytest.approx(sol.probs, abs=1e-9)
        assert sol_s.entropy == pytest.approx(sol.entropy, abs=1e-10)

    def test_column_rescaling(self):
        rng = np.random.default_rng(13)
        feats = rng.normal(size=(6, 2))
        targets = feats.T @ rng.dirichlet(np.ones(6))
        scaled = feats.copy()
        scaled[:, 1] *= 4.0
        sol = solve(MaxEntProblem(labels(6), feats, targets))
        sol_s = solve(
            MaxEntProblem(labels(6), scaled, targets * np.array([1.0, 4.0]))
        )
        assert sol_s.probs == pytest.approx(sol.probs, abs=1e-9)
        assert sol_s.lambdas[1] == pytest.approx(sol.lambdas[1] / 4.0, abs=1e-7)
