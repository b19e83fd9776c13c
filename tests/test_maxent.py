import math
import re
import warnings
from importlib.resources import files

import numpy as np
import pytest

from phonodist import corpus, io, maxent
from phonodist.maxent import (
    MaxEntProblem,
    logsumexp,
    solve,
)
from phonodist.errors import DomainError, InfeasibleError, NumericalError


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

    def test_rejects_magnitudes_past_2_to_the_510(self):
        edge = 2.0**510
        MaxEntProblem(labels(2), [[-edge], [edge]], [edge])
        past = math.nextafter(edge, math.inf)
        for feats, targets in (([[-edge], [past]], [0.0]), ([[-edge], [edge]], [-past])):
            with pytest.raises(DomainError, match=re.escape("at most 2**510 in magnitude")):
                MaxEntProblem(labels(2), feats, targets)


class TestFeasibility:
    def test_column_range_violation_names_direction(self):
        problem = MaxEntProblem(
            labels(3), np.array([[0.0], [1.0], [2.0]]), np.array([2.5])
        )
        with pytest.raises(InfeasibleError, match="feature 0"):
            maxent._check(problem)

    def test_jointly_infeasible_despite_per_column_ranges(self):
        # each target inside its own column range, but p2 + p3 = 1.2 > 1;
        # inside the affine hull, so the Newton loop finds the separation
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        problem = MaxEntProblem(labels(3), feats, np.array([0.6, 0.6]))
        maxent._check(problem)
        with pytest.raises(InfeasibleError, match="separated at iteration"):
            solve(problem)

    @pytest.mark.parametrize(
        "feats, targets",
        [
            # two labels cannot reach a point off the segment between them
            ([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.4]),
            # a duplicated column with two different targets
            ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [0.8, 0.9]),
        ],
    )
    def test_off_the_affine_hull(self, feats, targets):
        problem = MaxEntProblem(labels(len(feats)), np.array(feats), np.array(targets))
        with pytest.raises(InfeasibleError, match="affine hull"):
            maxent._check(problem)

    def test_hull_gap_is_the_distance_from_the_affine_hull(self):
        # the rows lie on the line x = y through their mean (1, 1); the
        # target (1.5, 0.5) is (0.5, -0.5) from it, at right angles
        problem = MaxEntProblem(labels(3), [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [1.5, 0.5])
        with pytest.raises(InfeasibleError, match=re.escape("off the affine hull by 0.707)")):
            maxent._check(problem)

    def test_boundary_target_is_feasible(self):
        problem = MaxEntProblem(
            labels(3), np.array([[0.0], [1.0], [2.0]]), np.array([2.0])
        )
        maxent._check(problem)


class TestGuessedDistribution:
    def test_zero_multipliers_give_uniform(self):
        feats = np.random.default_rng(0).normal(size=(5, 2))
        _, probs = maxent._gibbs(feats @ np.zeros(2))
        assert probs == pytest.approx([0.2] * 5)

    def test_never_returns_exact_zero(self):
        _, probs = maxent._gibbs([0.0, 2000.0])
        assert all(p > 0 for p in probs)
        assert math.fsum(probs) == pytest.approx(1.0)


class TestLogSumExp:
    # scipy.special.logsumexp's worst error on these vectors is 2.34169 ulp
    # (vector 1674: a maximum of -0.565 and a result of 0.127)
    ULPS = 2.3417

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
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
            got = logsumexp(a)
            finite = [mpmath.mpf(float(x)) for x in a if np.isfinite(x)]
            if not finite:
                assert got == -math.inf, a
                continue
            with mpmath.workdps(50):
                exact = mpmath.log(mpmath.fsum(mpmath.exp(x) for x in finite))
                error = abs(mpmath.mpf(got) - exact) / math.ulp(float(exact))
            assert error <= self.ULPS, a

    def test_all_minus_infinity(self):
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


def test_one_gibbs_evaluation_per_iterate(monkeypatch):
    """Apart from the line-search trials (the _dual calls), solve takes
    log Z once per iterate: the returned solution is the last iterate's."""
    data = files("phonodist") / "data"
    lexicon = io.load_lexicon(str(data / "toy_a.lex"))
    table = corpus.build_feature_table(lexicon, io.load_incidence(str(data / "toy_incidence.tsv")))
    problem = MaxEntProblem(
        table.phonemes, table.feature_matrix(), corpus.constraint_expectations(table).as_array()
    )
    calls = {"logsumexp": 0, "dual": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(maxent, "logsumexp", counted("logsumexp", maxent.logsumexp))
    monkeypatch.setattr(maxent, "_dual", counted("dual", maxent._dual))
    sol = solve(problem)
    assert sol.iterations > 1
    assert calls["logsumexp"] - calls["dual"] == sol.iterations


class TestDual:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(9, 3))
        targets = feats.T @ rng.dirichlet(np.ones(9))
        h = 1e-6
        for _ in range(20):
            lam = rng.normal(scale=0.5, size=3)
            grad = feats.T @ maxent._gibbs(feats @ lam)[1] - targets
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
        assert math.fsum(sol.lambdas) == pytest.approx(single.lambdas[0], abs=1e-7)

    @pytest.mark.parametrize("seed", range(5))
    def test_affine_dependence_uses_min_norm(self, seed):
        # three labels, three features: the centred features have rank 2,
        # and moving lambda along their null vector leaves the distribution
        # as it is; the minimum-norm multipliers have no part along it
        rng = np.random.default_rng(seed)
        feats = rng.uniform(0, 3, size=(3, 3)) + rng.uniform(-50, 50, size=3)
        targets = feats.T @ rng.dirichlet(np.ones(3))
        with pytest.warns(RuntimeWarning, match="affinely dependent"):
            sol = solve(MaxEntProblem(labels(3), feats, targets))
        assert max(map(abs, sol.residuals)) <= 1e-10
        null = np.linalg.svd(feats - feats.mean(axis=0))[2][-1]
        assert abs(null @ sol.lambdas) <= 1e-12 * math.hypot(*sol.lambdas)


class TestInvariances:
    def test_support_permutation(self):
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(6, 2))
        targets = feats.T @ rng.dirichlet(np.ones(6))
        perm = rng.permutation(6)
        sol = solve(MaxEntProblem(labels(6), feats, targets))
        sol_p = solve(MaxEntProblem(labels(6), feats[perm], targets))
        assert sol_p.probs == pytest.approx(np.asarray(sol.probs)[perm], abs=1e-9)

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

    @pytest.mark.parametrize("k", [250, 280, 500])
    def test_power_of_two_rescaling_is_exact(self, k):
        """Features, targets and tolerance times 2**k give the same probs
        and the multipliers times 2**-k, bit for bit: every SVD runs on an
        exactly scaled copy, so no norm overflows."""
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(12, 3))
        targets = feats.T @ rng.dirichlet(np.ones(12))
        base = solve(MaxEntProblem(labels(12), feats, targets))
        scaled = MaxEntProblem(labels(12), feats * 2.0**k, targets * 2.0**k)
        sol = solve(scaled, tolerance=1e-10 * 2.0**k)
        assert sol.iterations == base.iterations
        assert list(sol.probs) == list(base.probs)
        assert [math.ldexp(x, k) for x in sol.lambdas] == list(base.lambdas)


_CERTIFICATES = (
    ("column", "outside feature column range"),
    ("affine", "off the affine hull"),
    ("separated", "separated at iteration"),
)


def _oracle_case(rng, kind, few_labels):
    """Features and targets of one seeded feasibility case; with
    ``few_labels`` there are at most K + 1 labels for K features."""
    k = int(rng.integers(1, 5))
    m = int(rng.integers(2, k + 3)) if few_labels else int(rng.integers(3, 41))
    style = rng.integers(3)
    if style == 0:
        feats = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=(m, k))
    elif style == 1:
        feats = rng.integers(0, 2, size=(m, k)).astype(float)
    else:
        feats = rng.integers(-3, 4, size=(m, k)).astype(float)
    weights = rng.dirichlet(np.ones(m))
    if kind == "interior":
        targets = feats.T @ weights
    elif kind == "face":
        keep = rng.random(m) < 0.5
        keep[rng.integers(m)] = True
        targets = feats.T @ (weights * keep / (weights * keep).sum())
    elif kind == "vertex":
        targets = feats[rng.integers(m)].copy()
    elif kind == "outside":
        # beyond a vertex, away from an interior point, by 1-100 %
        vertex = feats[rng.integers(m)]
        targets = vertex + rng.uniform(0.01, 1.0) * (vertex - feats.T @ weights)
    else:  # anywhere in the box of the column ranges
        lo, hi = feats.min(axis=0), feats.max(axis=0)
        targets = lo + rng.random(k) * (hi - lo)
    return feats, targets


def _checked_verdict(optimize, feats, targets):
    """solve's verdict on one case, checked against HiGHS: InfeasibleError
    exactly when no p >= 0 has sum p = 1 and F^T p = c, and residuals within
    1e-10 otherwise."""
    m = feats.shape[0]
    lp = optimize.linprog(
        np.zeros(m),
        A_eq=np.vstack([np.ones(m), feats.T]),
        b_eq=np.concatenate([[1.0], targets]),
        bounds=(0, None),
        method="highs",
    )
    problem = MaxEntProblem(labels(m), feats, targets)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sol = solve(problem)
    except InfeasibleError as exc:
        assert not lp.success, (feats, targets, exc)
        return next(name for name, phrase in _CERTIFICATES if phrase in str(exc))
    assert lp.success, (feats, targets)
    assert np.max(np.abs(sol.residuals)) <= 1e-10
    return "converged"


def test_feasibility_verdicts_match_a_linear_program():
    """solve raises InfeasibleError exactly when HiGHS finds no p >= 0 with
    sum p = 1 and F^T p = c, and converges otherwise: no target stalls.
    Every case is checked again with a near copy of one column, times
    1 + 1e-13 N(0, 1) entry by entry, under that column's target: the copy's
    noise must not read as a direction off the affine hull."""
    optimize = pytest.importorskip("scipy.optimize")
    rng, noise = np.random.default_rng(2026), np.random.default_rng([2026, 7])
    kinds = ("interior", "face", "vertex", "outside", "box")
    verdicts = {}
    for trial in range(600):
        kind, few_labels = kinds[trial % len(kinds)], trial % 4 == 0
        feats, targets = _oracle_case(rng, kind, few_labels)
        verdict = _checked_verdict(optimize, feats, targets)
        key = (kind, few_labels, verdict)
        verdicts[key] = verdicts.get(key, 0) + 1
        m, k = feats.shape
        near = feats[:, trial % k] * (1.0 + 1e-13 * noise.normal(size=m))
        _checked_verdict(optimize, np.column_stack([feats, near]),
                         np.append(targets, targets[trial % k]))
    # every certificate is exercised, with few labels and with many
    for few_labels in (True, False):
        for certificate in ("converged", "column", "affine", "separated"):
            assert any(k[1:] == (few_labels, certificate) for k in verdicts), certificate
    for kind, total in (("interior", 120), ("face", 120), ("vertex", 120)):
        assert verdicts[kind, True, "converged"] + verdicts[kind, False, "converged"] == total
    assert verdicts["outside", False, "separated"] > 0


def test_thin_face_target_converges():
    """Trial 456 of the sweep above, a face target (m = 5, K = 4, features
    up to 270) whose Hessian passes condition 1e12 on the way (3.8e12 at
    the last step), converges: the Newton step keeps every singular value
    Jacobi can tell from zero."""
    rng = np.random.default_rng(2026)
    kinds = ("interior", "face", "vertex", "outside", "box")
    for trial in range(457):
        feats, targets = _oracle_case(rng, kinds[trial % len(kinds)], trial % 4 == 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sol = solve(MaxEntProblem(labels(feats.shape[0]), feats, targets))
    assert max(map(abs, sol.residuals)) <= 1e-10


def test_unreachable_tolerance_fails_fast():
    """A tolerance below the rounding of the residuals stops as soon as two
    full Newton steps in a row leave the residual where it was, instead of
    spinning through every iteration."""
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(12, 3))
    problem = MaxEntProblem(labels(12), feats, feats.T @ rng.dirichlet(np.ones(12)))
    with pytest.raises(NumericalError, match="no convergence: lambda stuck") as excinfo:
        solve(problem, tolerance=1e-300)
    iteration = int(re.search(r"at iteration (\d+)", str(excinfo.value)).group(1))
    assert iteration <= 20
