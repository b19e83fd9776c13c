"""Maximum-entropy solver over a finite phoneme support.

Maximizes Shannon entropy subject to normalization and fixed feature
expectations.  The solution has the Gibbs form log p(x) = lambda0 +
sum_k lambda_k f_k(x); the multipliers are found by minimizing the smooth
convex dual D(lambda) = log Z(lambda) - lambda . c with a safeguarded
Newton iteration (Hessian = feature covariance under the current Gibbs
distribution), falling back to gradient steps when the Hessian is
ill-conditioned.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import DomainError, InfeasibleError, NumericalError

__all__ = [
    "MaxEntProblem",
    "MaxEntSolution",
    "guessed_distribution",
    "solution_entropy",
    "solve",
]

_MAX_ITER = 10_000
_HULL_TOL = 1e-12


@dataclass(frozen=True)
class MaxEntProblem:
    """Support labels, an (m, K) feature matrix, and K target expectations."""

    support: tuple[str, ...]
    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        feats = np.atleast_2d(np.asarray(self.features, dtype=float))
        targets = np.atleast_1d(np.asarray(self.targets, dtype=float))
        if len(self.support) < 2:
            raise DomainError("support must contain at least 2 labels")
        if feats.size == 0:
            feats = feats.reshape(len(self.support), 0)
        if feats.shape[0] != len(self.support):
            raise DomainError(
                f"feature matrix has {feats.shape[0]} rows for {len(self.support)} labels"
            )
        if feats.shape[1] != targets.size:
            raise DomainError(
                f"{feats.shape[1]} feature columns but {targets.size} targets"
            )
        if not (np.all(np.isfinite(feats)) and np.all(np.isfinite(targets))):
            raise DomainError("features and targets must be finite")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", targets)

    @property
    def n_constraints(self) -> int:
        return int(self.targets.size)


@dataclass(frozen=True)
class MaxEntSolution:
    lambda0: float
    lambdas: np.ndarray
    probs: np.ndarray
    residuals: np.ndarray
    entropy: float
    iterations: int


def check_feasibility(problem: MaxEntProblem) -> None:
    """Verify the targets admit a distribution on the support.

    Column-wise bound checks give a named violating direction; a linear
    program on the simplex then certifies joint feasibility.
    """
    feats, targets = problem.features, problem.targets
    for k in range(problem.n_constraints):
        col = feats[:, k]
        lo, hi = col.min(), col.max()
        span = max(hi - lo, 1.0)
        if targets[k] < lo - _HULL_TOL * span or targets[k] > hi + _HULL_TOL * span:
            raise InfeasibleError(
                f"target c[{k}]={targets[k]:.6g} outside feature column range "
                f"[{lo:.6g}, {hi:.6g}] (violating hull direction: feature {k})"
            )
    if problem.n_constraints == 0:
        return
    from scipy.optimize import linprog  # imported here so only this path pays for it
    m = feats.shape[0]
    a_eq = np.vstack([np.ones(m), feats.T])
    b_eq = np.concatenate([[1.0], targets])
    res = linprog(np.zeros(m), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise InfeasibleError(
            "targets are jointly infeasible on the simplex "
            f"(LP status: {res.message.strip()})"
        )


def guessed_distribution(lambdas: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Gibbs distribution exp(lambda0 + F lambda), overflow-protected."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if not (np.all(np.isfinite(features)) and np.all(np.isfinite(lambdas))):
        raise DomainError("features and multipliers must be finite")
    scores = features @ lambdas if lambdas.size else np.zeros(features.shape[0])
    logp = scores - logsumexp(scores)
    probs = np.exp(logp)
    tiny = np.finfo(float).tiny
    if np.any(probs < tiny):
        probs = np.maximum(probs, tiny)
        probs /= probs.sum()
    return probs


def _dual(lambdas: np.ndarray, feats: np.ndarray, targets: np.ndarray) -> float:
    scores = feats @ lambdas if lambdas.size else np.zeros(feats.shape[0])
    return float(logsumexp(scores) - lambdas @ targets)


def solve(problem: MaxEntProblem, tolerance: float = 1e-10) -> MaxEntSolution:
    """Find the multipliers whose Gibbs distribution meets the targets.

    Converged when every constraint residual E[f_k] - c_k is within
    ``tolerance`` in absolute value.
    """
    if not tolerance > 0:
        raise DomainError(f"tolerance must be positive, got {tolerance!r}")
    check_feasibility(problem)
    feats, targets = problem.features, problem.targets
    m, k = feats.shape

    rank_deficient = False
    if k > 0:
        centered = feats - feats.mean(axis=0)
        if np.linalg.matrix_rank(centered, tol=1e-10 * max(1.0, abs(centered).max())) < k:
            rank_deficient = True
            warnings.warn(
                "feature columns are affinely dependent; selecting the "
                "minimum-norm multipliers",
                RuntimeWarning,
            )

    lam = np.zeros(k)
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        probs = guessed_distribution(lam, feats)
        grad = feats.T @ probs - targets if k else np.zeros(0)
        if k == 0 or np.max(np.abs(grad)) <= tolerance:
            break
        mean = feats.T @ probs
        hess = (feats.T * probs) @ feats - np.outer(mean, mean)
        try:
            step = -np.linalg.solve(hess, grad)
            if np.linalg.cond(hess) > 1e12 or not np.all(np.isfinite(step)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(hess, -grad, rcond=1e-12)
            if not np.all(np.isfinite(step)) or step @ grad >= 0:
                step = -grad
        # backtracking line search on the dual
        d0 = _dual(lam, feats, targets)
        slope = grad @ step
        if -slope <= 1e-13 * max(1.0, abs(d0)):
            # predicted decrease is below the dual's floating-point
            # resolution; inside the Newton basin, take the full step
            lam = lam + step
            continue
        t = 1.0
        while t > 1e-14:
            if _dual(lam + t * step, feats, targets) <= d0 + 1e-4 * t * slope:
                break
            t *= 0.5
        if t <= 1e-14:
            # dual already flat along every direction we can compute
            if np.max(np.abs(grad)) <= 10 * tolerance:
                break
            raise NumericalError(
                f"line search stalled with residual {np.max(np.abs(grad)):.3g}"
            )
        lam = lam + t * step
    else:
        raise NumericalError(f"no convergence within {_MAX_ITER} iterations")

    if rank_deficient and k > 0:
        # same Gibbs distribution, minimum-norm multipliers
        lam = np.linalg.pinv(feats, rcond=1e-12) @ (feats @ lam)

    probs = guessed_distribution(lam, feats)
    residuals = (feats.T @ probs - targets) if k else np.zeros(0)
    scores = feats @ lam if k else np.zeros(m)
    lambda0 = float(-logsumexp(scores))
    entropy = float(-np.sum(probs * np.log(probs)))
    return MaxEntSolution(
        lambda0=lambda0,
        lambdas=lam,
        probs=probs,
        residuals=residuals,
        entropy=entropy,
        iterations=iterations,
    )


def solution_entropy(solution: MaxEntSolution) -> float:
    """Shannon entropy (nats) of the solved distribution."""
    p = solution.probs
    return float(-np.sum(p * np.log(p)))
