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
decimals.  The first line names the numpy version and the machine, since
the cases are numpy draws.

tests/golden/maxent_digest.txt holds this output, and tests/test_golden.py
builds the digest in process and names the first line that moved.  A line
that moves only in the fifth column keeps every verdict and the probs
within 1e-12 (a prob within rounding of a 12th decimal's boundary can move
the sixth column too, so read the probs of a line that moves there).  A
change that moves lines on purpose rewrites the file in its own commit:

    python3 scripts/maxent_digest.py > tests/golden/maxent_digest.txt
"""

from __future__ import annotations

import hashlib
import platform
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


def header() -> str:
    import numpy as np

    return f"# numpy {np.__version__} on {platform.machine()}"


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
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    print(header())
    for line in lines():
        print(line)


if __name__ == "__main__":
    main()
