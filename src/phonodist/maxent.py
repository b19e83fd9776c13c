"""Maximum-entropy solver over a finite phoneme support.

Maximizes Shannon entropy subject to normalization and fixed feature
expectations.  The solution has the Gibbs form log p(x) = lambda0 +
sum_k lambda_k f_k(x); the multipliers minimize the smooth convex dual
D(lambda) = log Z(lambda) - lambda . c.  ``solve`` tests column ranges
and the affine hull, then runs a safeguarded Newton iteration (a gradient
step where the Newton step is no descent direction) that certifies
targets outside the convex hull by a separating direction.

The rank of the centred features is decided once, by one SVD, and Newton
runs in the coordinates of an orthonormal basis of their row space, so
the multipliers are the minimum-norm ones by construction.  The module
runs on the standard library (``math.fsum`` sums, one-sided Jacobi SVDs),
so importing it loads no numpy.
"""

from __future__ import annotations

import math
import warnings
from array import array
from itertools import chain, repeat
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, InfeasibleError, NumericalError

__all__ = [
    "MaxEntProblem",
    "MaxEntSolution",
    "solve",
]

_MAX_ITER = 10_000
_HULL_TOL = 1e-12
_CERT_TOL = 1e-9  # scale-relative slack of the feasibility certificates
_EPS = 2.0**-52
_TINY = 2.2250738585072014e-308  # the smallest normal float
# the Newton step drops the Hessian's singular values at or below this
# share of the largest: Jacobi gets each to a few ulps of the largest, so
# smaller ones cannot be told from zero
_STEP_RCOND = 64 * _EPS
_SWEEPS = 60  # Jacobi sweeps; a few suffice, each one squares the off-diagonal
_BOUND = 2.0**510  # the largest |f| or |c|: past it (f_i - c_i)(f_j - c_j) can overflow


class _MaxEntProblem(NamedTuple):
    support: tuple[str, ...]
    features: tuple[tuple[float, ...], ...]
    targets: tuple[float, ...]


def _floats(values) -> tuple[float, ...]:
    try:
        return tuple(map(float, values))
    except TypeError:  # a single number
        return (float(values),)


class MaxEntProblem(_MaxEntProblem):
    """Support labels, an (m, K) feature matrix given as m rows (any row
    sequence, a numpy array too), and K target expectations; rows and
    targets are kept as tuples of floats."""

    __slots__ = ()

    def __new__(cls, support: tuple[str, ...], features: Iterable[Sequence[float]],
                targets: Iterable[float]):
        targets = _floats(targets)
        if len(support) < 2:
            raise DomainError("support must contain at least 2 labels")
        try:
            feats = tuple(tuple(map(float, row)) for row in features)
        except TypeError:
            raise DomainError("features must be a sequence of rows") from None
        if not feats:
            feats = ((),) * len(support)
        if len(feats) != len(support):
            raise DomainError(f"feature matrix has {len(feats)} rows for {len(support)} labels")
        for row in feats:
            if len(row) != len(targets):
                raise DomainError(f"{len(row)} feature columns but {len(targets)} targets")
        if not all(abs(x) <= _BOUND for x in chain(targets, *feats)):
            raise DomainError("features and targets must be finite and at most 2**510 in magnitude")
        return super().__new__(cls, support, feats, targets)

    @classmethod
    def _make(cls, fields):  # _replace builds through _make: check there too
        return cls(*fields)


class MaxEntSolution(NamedTuple):
    lambda0: float
    lambdas: array
    probs: array
    residuals: array
    entropy: float
    iterations: int


def _dot(x, y) -> float:
    return math.fsum(map(mul, x, y))


def _svd(columns):
    """SVD of a small matrix with these columns, by one-sided Jacobi.

    Hestenes' method rotates pairs of columns until every pair is
    orthogonal to working precision, accumulating the rotations in V:
    A V = U diag(sigma).  Returns the (sigma, u, v) triples, so that
    A = sum sigma u v^T; a zero column keeps its u unnormalized.  Jacobi
    gets small singular values to high relative accuracy (Demmel and
    Veselic 1992), and no Gram matrix is formed.
    """
    r, n = len(columns[0]), len(columns)
    fsum = math.fsum
    # scaled by the power of two that brings the largest |entry| into
    # [0.5, 1): exact, so every rotation is the unscaled one, and no
    # product of two norms overflows
    scale = math.frexp(max(map(abs, chain(*columns))))[1]
    columns = [[math.ldexp(e, -scale) for e in col] for col in columns]
    # each column of A stacked on its column of V = I, so that one
    # rotation turns both; dot products read the first r entries
    a = [[*col, *(float(i == j) for i in range(n))] for j, col in enumerate(columns)]
    pairs = [(j, l) for j in range(n) for l in range(j + 1, n)]
    tol = _EPS * r
    # a column below eps ||A||_F is noise: every cut of the callers drops
    # it, and rotating it cycles on rounding
    floor = (_EPS * math.hypot(*chain(*columns))) ** 2
    for _ in range(_SWEEPS):
        # squared column norms, taken afresh each sweep and carried
        # through its rotations
        norms = [fsum(map(mul, x, x[:r])) for x in a]
        rotated = False
        for j, l in pairs:
            alpha, beta = norms[j], norms[l]
            if alpha <= floor or beta <= floor:
                continue
            x, y = a[j], a[l]
            gamma = fsum(map(mul, x, y[:r]))
            if abs(gamma) <= tol * math.sqrt(alpha * beta):
                continue
            rotated = True
            zeta = (beta - alpha) / (2.0 * gamma)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            c = 1.0 / math.hypot(1.0, t)
            s = c * t
            a[j] = [c * p - s * q for p, q in zip(x, y)]
            a[l] = [s * p + c * q for p, q in zip(x, y)]
            norms[j], norms[l] = alpha - t * gamma, beta + t * gamma
        if not rotated:
            break
    else:
        raise NumericalError(f"Jacobi SVD did not converge in {_SWEEPS} sweeps")
    triples = []
    for x in a:
        u = x[:r]
        sigma = math.hypot(*u)
        triples.append((math.ldexp(sigma, scale), [e / sigma for e in u] if sigma else u, x[r:]))
    return triples


def _pinv_solve(triples, b, cut: float) -> list[float]:
    """sum x (y . b) / sigma over the (sigma, y, x) triples with sigma > cut:
    the minimum-norm least-squares solution of A x = b for
    A = sum sigma y x^T, singular values at or below the cut taken as zero."""
    out = [0.0] * len(triples[0][2])
    for sigma, y, x in triples:
        if sigma > cut:
            w = _dot(y, b) / sigma
            out = [o + w * xi for o, xi in zip(out, x)]
    return out


def _check(problem: MaxEntProblem) -> list[list[float]]:
    """Verify the targets lie in each column's range (naming a violating
    direction) and in the affine hull of the feature rows; return an
    orthonormal basis of the row space of the centred features C = F - 1
    mean^T: C's right singular vectors with sigma > 1e-10 max(1, max|C|).
    Any p with sum p = 1 gives F^T p = mean + C^T p, in mean plus that
    space, so the hull test is the distance of c - mean from it."""
    feats, targets = problem.features, problem.targets
    cols = list(zip(*feats))
    for k, (col, target) in enumerate(zip(cols, targets)):
        lo, hi = min(col), max(col)
        span = max(hi - lo, 1.0)
        if target < lo - _HULL_TOL * span or target > hi + _HULL_TOL * span:
            raise InfeasibleError(
                f"target c[{k}]={target:.6g} outside feature column range "
                f"[{lo:.6g}, {hi:.6g}] (violating hull direction: feature {k})"
            )
    if not cols:
        return []
    m = len(feats)
    means = [math.fsum(col) / m for col in cols]
    centered = [[x - mean for x in col] for col, mean in zip(cols, means)]
    cut = 1e-10 * max(1.0, max(map(abs, chain(*centered))))
    basis = [v for sigma, _, v in _svd(centered) if sigma > cut]
    off = list(map(sub, targets, means))
    for v in basis:
        w = _dot(v, off)
        off = [x - w * y for x, y in zip(off, v)]
    gap = math.hypot(*off)
    if gap > _CERT_TOL * max(1.0, *map(abs, chain(targets, *cols))):
        raise InfeasibleError("targets are jointly infeasible on the simplex "
                              f"(off the affine hull by {gap:.3g})")
    return basis


def logsumexp(a: Iterable[float]) -> float:
    """log(sum(exp(a))) of a sequence of floats, by scipy.special.logsumexp's
    algorithm.

    The k entries equal to the maximum m are kept out of the shifted sum
    s, and the result is log1p(s / k) + log(k) + m; s is the correctly
    rounded sum of math.fsum.  With no finite maximum the result is the
    maximum (every entry -inf, or one +inf), or nan if an entry is nan.
    """
    a = list(a)
    top = max(a)
    if not math.isfinite(top):
        return math.nan if any(map(math.isnan, a)) else top
    k = a.count(top)
    # the k entries at the top contribute exp(0) = 1 each; fsum cancels them exactly
    s = math.fsum(chain(map(math.exp, map(sub, a, repeat(top))), (-k,))) / k
    return math.log1p(s) + math.log(k) + top


def _combine(cols, y, n: int) -> list[float]:
    """sum_i y_i cols[i]: the product A y from the columns of an n-row A,
    zeros when A has none."""
    out = [0.0] * n
    for col, w in zip(cols, y):
        out = list(map(add, out, map(mul, col, repeat(w))))
    return out


def _gibbs(scores: Sequence[float]) -> tuple[float, list[float]]:
    """log Z = log sum exp(scores) and the Gibbs distribution
    exp(scores - log Z).

    No probability is left below the smallest normal float.
    """
    log_z = logsumexp(scores)
    probs = list(map(math.exp, map(sub, scores, repeat(log_z))))
    if min(probs) < _TINY:
        probs = [max(p, _TINY) for p in probs]
        total = math.fsum(probs)
        probs = [p / total for p in probs]
    return log_z, probs


def _dual(beta: Sequence[float], reduced, m: int) -> float:
    """D = log Z - lambda . c = log sum_x exp(beta . g(x)) at lambda =
    sum_i beta_i basis_i, from the m-row reduced columns g_i = basis_i . (f - c)."""
    return logsumexp(_combine(reduced, beta, m))


def solve(problem: MaxEntProblem, tolerance: float = 1e-10) -> MaxEntSolution:
    """Find the multipliers whose Gibbs distribution meets the targets.

    Converged when every constraint residual E[f_k] - c_k is within
    ``tolerance`` in absolute value.  Newton runs in the coordinates beta
    of lambda = sum_i beta_i basis_i on _check's basis, through which
    alone lambda moves the distribution.  Each step first tries y = lambda
    and y = -residual as separating directions: max_x y.(f(x) - c) < 0
    rules out every feasible p, for which sum_x p(x) y.(f(x) - c) = 0.
    """
    if not tolerance > 0:
        raise DomainError(f"tolerance must be positive, got {tolerance!r}")
    basis = _check(problem)
    targets = problem.targets
    m, k, r = len(problem.support), len(targets), len(basis)
    if k == 0:  # no constraint: the uniform distribution
        log_m = math.log(m)
        return MaxEntSolution(-log_m, array("d"), array("d", [1.0 / m] * m), array("d"),
                              log_m, 1)
    if r < k:
        warnings.warn("feature columns are affinely dependent; selecting the "
                      "minimum-norm multipliers", RuntimeWarning)
    cols = list(zip(*problem.features))

    beta = [0.0] * r
    unchecked = math.inf  # the residual before the last step taken without a line search
    shifted = [[x - c for x in col] for col, c in zip(cols, targets)]  # f(x) - c
    slack = _CERT_TOL * max(map(abs, chain(*shifted)))
    # the reduced columns g_i = basis_i . (f - c), with beta . g = lambda .
    # (f - c), and the products g_i g_j of each pair: the Hessian is their
    # mean less rgrad_i rgrad_j, which cancels little when c is far from 0
    reduced = [_combine(shifted, v, m) for v in basis]
    pairs = [(i, j, list(map(mul, reduced[i], reduced[j]))) for i in range(r) for j in range(i, r)]
    for iterations in range(1, _MAX_ITER + 1):
        # the Gibbs distribution of the scores, whose log Z is the dual
        scores = _combine(reduced, beta, m)
        d0, probs = _gibbs(scores)
        mean = [_dot(col, probs) for col in cols]
        grad = list(map(sub, mean, targets))
        worst = max(map(abs, grad))
        if worst <= tolerance:
            break
        if (max(scores) < -slack * math.fsum(map(abs, _combine(basis, beta, k)))
                or min(_combine(shifted, grad, m)) > slack * math.fsum(map(abs, grad))):
            raise InfeasibleError("targets are jointly infeasible on the simplex "
                                  f"(separated at iteration {iterations})")
        # the minimum-norm Newton step on the r x r Hessian, from the
        # singular values that Jacobi can tell from zero
        rgrad = [_dot(v, grad) for v in basis]
        step = []
        if basis:
            hess = [[0.0] * r for _ in range(r)]
            for i, j, prod in pairs:
                hess[i][j] = hess[j][i] = _dot(prod, probs) - rgrad[i] * rgrad[j]
            svd = _svd(hess)
            step = [-x for x in _pinv_solve(svd, rgrad, _STEP_RCOND * max(s for s, _, _ in svd))]
        slope = _dot(rgrad, step)
        if not (math.isfinite(slope) and slope < 0):
            step = [-g for g in rgrad]
            slope = -_dot(rgrad, rgrad)
        # backtracking line search on the dual
        if -slope <= 1e-13 * max(1.0, abs(d0)):
            # predicted decrease is below the dual's floating-point
            # resolution; inside the Newton basin, take the full step.
            # Two such steps in a row that do not lower the residual only
            # move beta in its last bits, and would repeat until _MAX_ITER
            if worst >= unchecked:
                raise NumericalError(f"no convergence: lambda stuck at iteration {iterations} "
                                     f"with residual {worst:.3g}")
            unchecked = worst
            beta = [x + s for x, s in zip(beta, step)]
            continue
        t = 1.0
        while t > 1e-14:
            if _dual([x + t * s for x, s in zip(beta, step)], reduced, m) <= d0 + 1e-4 * t * slope:
                break
            t *= 0.5
        if t <= 1e-14:
            # dual already flat along every direction we can compute
            if worst <= 10 * tolerance:
                break
            raise NumericalError(f"line search stalled with residual {worst:.3g}")
        unchecked = math.inf
        beta = [x + t * s for x, s in zip(beta, step)]
    else:
        raise NumericalError(f"no convergence within {_MAX_ITER} iterations")

    lam = _combine(basis, beta, k)
    return MaxEntSolution(
        lambda0=-(d0 + _dot(lam, targets)),
        lambdas=array("d", lam),
        probs=array("d", probs),
        residuals=array("d", grad),
        entropy=-math.fsum(p * math.log(p) for p in probs),
        iterations=iterations,
    )
