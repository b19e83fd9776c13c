"""Maximum-entropy solver over a finite phoneme support.

Maximizes Shannon entropy subject to normalization and fixed feature
expectations.  The solution has the Gibbs form log p(x) = lambda0 +
sum_k lambda_k f_k(x); the multipliers are found by minimizing the smooth
convex dual D(lambda) = log Z(lambda) - lambda . c with a safeguarded
Newton iteration (Hessian = feature covariance under the current Gibbs
distribution), falling back to gradient steps when the Hessian is
ill-conditioned.  Feasibility needs numpy alone: ``check_feasibility``
tests column ranges and the affine hull, and the Newton loop certifies
targets outside the convex hull by a separating direction.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InfeasibleError, NumericalError

__all__ = [
    "MaxEntProblem",
    "MaxEntSolution",
    "solve",
]

_MAX_ITER = 10_000
_HULL_TOL = 1e-12
_CERT_TOL = 1e-9  # scale-relative slack of the feasibility certificates


class _MaxEntProblem(NamedTuple):
    support: tuple[str, ...]
    features: np.ndarray
    targets: np.ndarray


class MaxEntProblem(_MaxEntProblem):
    """Support labels, an (m, K) feature matrix, and K target expectations."""

    __slots__ = ()

    def __new__(cls, support: tuple[str, ...], features: np.ndarray, targets: np.ndarray):
        feats = np.atleast_2d(np.asarray(features, dtype=float))
        targets = np.atleast_1d(np.asarray(targets, dtype=float))
        if len(support) < 2:
            raise DomainError("support must contain at least 2 labels")
        if feats.size == 0:
            feats = feats.reshape(len(support), 0)
        if feats.shape[0] != len(support):
            raise DomainError(
                f"feature matrix has {feats.shape[0]} rows for {len(support)} labels"
            )
        if feats.shape[1] != targets.size:
            raise DomainError(
                f"{feats.shape[1]} feature columns but {targets.size} targets"
            )
        if not (np.all(np.isfinite(feats)) and np.all(np.isfinite(targets))):
            raise DomainError("features and targets must be finite")
        return super().__new__(cls, support, feats, targets)

    @classmethod
    def _make(cls, fields):  # _replace builds through _make: check there too
        return cls(*fields)


class MaxEntSolution(NamedTuple):
    lambda0: float
    lambdas: np.ndarray
    probs: np.ndarray
    residuals: np.ndarray
    entropy: float
    iterations: int


def check_feasibility(problem: MaxEntProblem) -> None:
    """Verify the targets lie in each column's range and in the affine hull.

    Column-wise bound checks give a named violating direction; the
    least-squares residual of [1; F^T] p = [1; c] then shows whether any p,
    of either sign, meets every constraint.  ``solve`` settles p >= 0.
    """
    feats, targets = problem.features, problem.targets
    for k in range(targets.size):
        col = feats[:, k]
        lo, hi = col.min(), col.max()
        span = max(hi - lo, 1.0)
        if targets[k] < lo - _HULL_TOL * span or targets[k] > hi + _HULL_TOL * span:
            raise InfeasibleError(
                f"target c[{k}]={targets[k]:.6g} outside feature column range "
                f"[{lo:.6g}, {hi:.6g}] (violating hull direction: feature {k})"
            )
    a_eq = np.vstack([np.ones(feats.shape[0]), feats.T])
    b_eq = np.concatenate([[1.0], targets])
    p = np.linalg.lstsq(a_eq, b_eq, rcond=None)[0]
    gap = np.max(np.abs(a_eq @ p - b_eq))
    if gap > _CERT_TOL * (np.abs(a_eq).max() * np.abs(p).sum() + np.abs(b_eq).max()):
        raise InfeasibleError("targets are jointly infeasible on the simplex "
                              f"(off the affine hull by {gap:.3g})")


def logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D array, by scipy.special.logsumexp's algorithm.

    The k entries equal to the maximum m are kept out of the shifted sum s,
    and the result is log1p(s / k) + log(k) + m, which is bit-identical to
    scipy's.  A non-finite maximum falls back to log(sum(exp(a))), as scipy
    does.
    """
    a = np.asarray(a, dtype=float)
    top = a.max()
    if not np.isfinite(top):
        with np.errstate(divide="ignore", over="ignore"):
            return np.log(np.sum(np.exp(a)))
    at_top = a == top
    k = np.count_nonzero(at_top)
    s = np.sum(np.exp(np.where(at_top, -np.inf, a) - top)) / k
    return np.log1p(s) + np.log(np.float64(k)) + top


def _gibbs(lam: np.ndarray, feats: np.ndarray) -> tuple[float, np.ndarray]:
    """log Z and the Gibbs distribution exp(F lam - log Z), so lambda0 = -log Z.

    No probability is left below the smallest normal float.
    """
    scores = feats @ lam
    log_z = logsumexp(scores)
    probs = np.exp(scores - log_z)
    tiny = np.finfo(float).tiny
    if np.any(probs < tiny):
        probs = np.maximum(probs, tiny)
        probs /= probs.sum()
    return log_z, probs


def _dual(lambdas: np.ndarray, feats: np.ndarray, targets: np.ndarray) -> float:
    return float(logsumexp(feats @ lambdas) - lambdas @ targets)


def solve(problem: MaxEntProblem, tolerance: float = 1e-10) -> MaxEntSolution:
    """Find the multipliers whose Gibbs distribution meets the targets.

    Converged when every constraint residual E[f_k] - c_k is within
    ``tolerance`` in absolute value.  Each step first tries y = lambda and
    y = -residual as separating directions: max_x y.(f(x) - c) < 0 rules out
    every feasible p, for which sum_x p(x) y.(f(x) - c) = 0.
    """
    if not tolerance > 0:
        raise DomainError(f"tolerance must be positive, got {tolerance!r}")
    check_feasibility(problem)
    feats, targets = problem.features, problem.targets
    k = feats.shape[1]

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
    shifted = feats - targets  # rows f(x) - c
    slack = _CERT_TOL * np.abs(shifted).max(initial=0.0)
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        log_z, probs = _gibbs(lam, feats)
        mean = feats.T @ probs
        grad = mean - targets
        if k == 0 or np.max(np.abs(grad)) <= tolerance:
            break
        if any(np.max(shifted @ y) < -slack * np.abs(y).sum() for y in (lam, -grad)):
            raise InfeasibleError("targets are jointly infeasible on the simplex "
                                  f"(separated at iteration {iterations})")
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
        d0 = float(log_z - lam @ targets)
        slope = grad @ step
        if -slope <= 1e-13 * max(1.0, abs(d0)):
            # predicted decrease is below the dual's floating-point
            # resolution; inside the Newton basin, take the full step.  A
            # step that rounds back to lambda would repeat until _MAX_ITER
            if np.array_equal(lam + step, lam):
                raise NumericalError(f"no convergence: lambda stuck at iteration {iterations} "
                                     f"with residual {np.max(np.abs(grad)):.3g}")
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

    if rank_deficient:
        # same Gibbs distribution, minimum-norm multipliers
        lam = np.linalg.pinv(feats, rcond=1e-12) @ (feats @ lam)

    log_z, probs = _gibbs(lam, feats)
    return MaxEntSolution(
        lambda0=float(-log_z),
        lambdas=lam,
        probs=probs,
        residuals=feats.T @ probs - targets,
        entropy=float(-np.sum(probs * np.log(probs))),
        iterations=iterations,
    )
