"""Digest of what maxent.solve does on 3,000 seeded problems.

Runs ``solve`` on the feasibility cases of tests/test_maxent.py
(``_oracle_case``: interior, face, vertex, outside and box targets, every
fourth with at most K + 1 labels), 600 per seed for the seeds 2026, 1, 2,
3 and 4.  Every third problem gets a copy of one of its columns, and every
third another an affine combination of its columns with the matching
target, so two thirds are rank-deficient.  Prints one line per problem:
seed, trial, "converged" or the error text, whether the rank warning was
given, the iterations, the sha256 (first 16 hex digits) of lambda0,
lambdas, probs, residuals and entropy, and that of the probs rounded to 12
decimals.  A diff of two trees' output checks that a change keeps every
verdict and every solution bit for bit; a diff without the sixth column,
that it keeps the probs within 1e-12 (a prob within rounding of a 12th
decimal's boundary can move the second hash too, so read the probs of a
line that moves there):

    python3 scripts/maxent_digest.py > after.txt
    python3 scripts/maxent_digest.py --src ../parent/src > before.txt
    diff before.txt after.txt
    diff <(cut -f1-5,7 before.txt) <(cut -f1-5,7 after.txt)
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import warnings
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (2026, 1, 2, 3, 4)
TRIALS = 600
KINDS = ("interior", "face", "vertex", "outside", "box")


def problems():
    """(seed, trial, features, targets) of every problem, in order."""
    import numpy as np
    from test_maxent import _oracle_case

    for seed in SEEDS:
        # the extra columns come from a generator of their own, so that
        # the base problems are those of the test's sweep
        rng, extra = np.random.default_rng(seed), np.random.default_rng([seed, 1])
        for trial in range(TRIALS):
            feats, targets = _oracle_case(rng, KINDS[trial % len(KINDS)], trial % 4 == 0)
            k = feats.shape[1]
            if trial % 3 == 1:  # a duplicated column
                weights, shift = np.eye(k)[extra.integers(k)], 0.0
            elif trial % 3 == 2:  # an affinely dependent column
                weights, shift = extra.normal(size=k), extra.normal()
            else:
                yield seed, trial, feats, targets
                continue
            feats = np.column_stack([feats, feats @ weights + shift])
            yield seed, trial, feats, np.append(targets, targets @ weights + shift)


def lines():
    """The digest line of every problem, solved by the phonodist on sys.path."""
    from phonodist.errors import PhonodistError
    from phonodist.maxent import MaxEntProblem, solve

    for seed, trial, feats, targets in problems():
        labels = tuple(f"s{i}" for i in range(feats.shape[0]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                sol = solve(MaxEntProblem(labels, feats, targets))
            except PhonodistError as exc:
                verdict, iterations, digest = f"{type(exc).__name__}: {exc}", "-", "-\t-"
            else:
                values = array("d", [sol.lambda0, *sol.lambdas, *sol.probs, *sol.residuals,
                                     sol.entropy])
                verdict, iterations = "converged", sol.iterations
                rounded = array("d", [round(p, 12) for p in sol.probs])
                digest = "\t".join(hashlib.sha256(x.tobytes()).hexdigest()[:16]
                                   for x in (values, rounded))
        warned = any("affinely dependent" in str(w.message) for w in caught)
        yield "\t".join(map(str, (seed, trial, verdict, f"warned={int(warned)}",
                                  iterations, digest)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        default=str(ROOT / "src"),
        help="source tree holding the phonodist package (default: this checkout's src)",
    )
    args = parser.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "tests")]
    for line in lines():
        print(line)


if __name__ == "__main__":
    main()
