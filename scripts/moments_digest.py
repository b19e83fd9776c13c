"""Digest of the order-statistic moments and bands on a fixed grid.

Runs ``dirichlet.order_statistic_moments`` and
``dirichlet.order_statistic_bands`` in process and prints one line per
case: the kind, n, the concentration's label and value (and the band
level), then the error text or the sha256 (first 16 hex digits) of the
bytes of the mean and sd arrays, or of the low and high band arrays.

Moments: n in {2, 3, 5, 11, 20, 30, 60, 100, 160, 400, 1000, 1500, 1800,
2000} times alpha in {the default law, 1, 37, the floor 5e-3/(n-1), 1e9,
1e10, the law with coeff_a 0.01}.  Bands: n in {2, 3, 11, 30, 160, 1500}
times the default law, thirteen concentrations from 1e-100 to 1e100 and
the two ends of n's domain, 5e-3/(n-1) and 1e10, and n = 22 at alpha = 1,
the unit-alpha case of perfbench's rank-curve workload, each at the
levels 0.5, 0.95 and 0.999; the concentrations outside that domain read
its NumericalError.  The first line names the numpy version and the
machine, since the hashes cover the bits of numpy's vectorised math.

tests/golden/moments_digest.txt holds this output, and
tests/test_golden.py builds the digest in process and names the first line
that moved.  A change that moves lines on purpose rewrites the file in its
own commit:

    python3 scripts/moments_digest.py > tests/golden/moments_digest.txt

The run writes no bytecode, so it leaves no __pycache__ in the tree.
"""

from __future__ import annotations

import hashlib
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MOMENT_NS = (2, 3, 5, 11, 20, 30, 60, 100, 160, 400, 1000, 1500, 1800, 2000)
BAND_NS = (2, 3, 11, 30, 160, 1500)
BAND_ALPHAS = (1e-100, 1e-20, 1e-5, 0.0158, 0.3, 2.0, 37.0, 1e3, 1e5, 1e9, 1e11, 1e50, 1e100)
LEVELS = (0.5, 0.95, 0.999)


def _digest(*arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()[:16]


def header() -> str:
    import numpy as np

    return f"# numpy {np.__version__} on {platform.machine()}"


def lines():
    """The digest line of every case, computed by the phonodist on sys.path."""
    from phonodist import dirichlet
    from phonodist.errors import PhonodistError

    def outcome(call, *args):
        try:
            return _digest(*call(*args))
        except PhonodistError as exc:
            return f"{type(exc).__name__}: {exc}"

    def moments(spec):
        summary = dirichlet.order_statistic_moments(spec)
        return summary.mean, summary.sd

    for n in MOMENT_NS:
        alphas = (("default", dirichlet.predict_alpha(n)), ("1", 1.0), ("37", 37.0),
                  ("floor", 5e-3 / (n - 1)), ("1e9", 1e9), ("1e10", 1e10),
                  ("coeff_a=0.01", dirichlet.predict_alpha(n, dirichlet.AlphaScalingLaw(0.01))))
        for label, alpha in alphas:
            result = outcome(moments, dirichlet.DirichletSpec(n, alpha))
            yield f"moments\tn={n}\t{label}\talpha={alpha!r}\t{result}"
    bands = [(n, alpha) for n in BAND_NS
             for alpha in (dirichlet.predict_alpha(n), *BAND_ALPHAS, 5e-3 / (n - 1), 1e10)]
    for n, alpha in bands + [(22, 1.0)]:
        for level in LEVELS:
            result = outcome(dirichlet.order_statistic_bands, dirichlet.DirichletSpec(n, alpha),
                             level)
            yield f"bands\tn={n}\talpha={alpha!r}\tlevel={level!r}\t{result}"


def main() -> None:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    print(header())
    for line in lines():
        print(line)


if __name__ == "__main__":
    main()
