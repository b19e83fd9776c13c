"""Digest of what the phonodist CLI does on the bundled fixtures.

Runs a fixed list of CLI calls, each in a fresh interpreter, and prints
one line per call: the argv, the exit code and sha256 digests (first 16
hex digits) of stdout, stderr and the -o file ("-" when the call writes
none).  Paths are printed and hashed as $DATA and $TMP, so two source
trees give comparable lines.  Diff the output of two trees to check that
a change keeps every CLI artifact byte-identical:

    python3 scripts/cli_digest.py > after.txt
    python3 scripts/cli_digest.py --src ../parent/src > before.txt
    diff before.txt after.txt

The calls: predict-alpha and reconstruct; fit-alpha and estimate-entropy
on all five tables, with and without --n; features on both toy lexicons
and maxent on each result; regress on the five fitted (n, alpha_hat)
rows; report over the five tables in two orders; and a few edge inputs
(an overflowing and an underflowing law, a flat and an exact-line
regression).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TABLES = ("amenglish", "bengali", "kaiwa", "samoan", "swedish")
LEXICONS = ("toy_a", "toy_b")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        default=str(Path(__file__).resolve().parents[1] / "src"),
        help="source tree holding the phonodist package (default: this checkout's src)",
    )
    args = parser.parse_args()
    src = Path(args.src).resolve()
    data = src / "phonodist" / "data"
    env = {**os.environ, "PYTHONPATH": str(src)}

    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        names = {str(data): "$DATA", str(tmp): "$TMP"}

        def show(text: str) -> str:
            for path, name in names.items():
                text = text.replace(path, name)
            return text

        def run(*argv: str, output: Path | None = None) -> bytes:
            full = [*argv, "-o", str(output)] if output else list(argv)
            proc = subprocess.run(
                [sys.executable, "-m", "phonodist.cli", *full], env=env, capture_output=True
            )
            written = output.read_bytes() if output and output.exists() else None
            print(
                show(" ".join(full)),
                f"exit={proc.returncode}",
                f"stdout={_digest(proc.stdout)}",
                f"stderr={_digest(show(proc.stderr.decode()).encode())}",
                f"out={'-' if written is None else _digest(written)}",
                sep="\t",
            )
            return proc.stdout

        run("predict-alpha", "--n", "40")
        run("reconstruct", "--n", "11", output=tmp / "reconstruct.tsv")

        fits = []
        for name in TABLES:
            table = str(data / f"{name}.tsv")
            fit = run("fit-alpha", table)
            run("fit-alpha", table, "--n", "60")
            run("estimate-entropy", table)
            run("estimate-entropy", table, "--n", "60")
            if fit:
                row = json.loads(fit)
                fits.append(f"{row['n']}\t{row['alpha_hat']!r}\n")

        for name in LEXICONS:
            features = tmp / f"features_{name}.tsv"
            run("features", str(data / f"{name}.lex"), str(data / "toy_incidence.tsv"),
                output=features)
            run("maxent", str(features))

        (tmp / "fits.tsv").write_text("".join(fits), encoding="utf-8")
        run("regress", str(tmp / "fits.tsv"))
        tables = [str(data / f"{name}.tsv") for name in TABLES]
        run("report", *tables)
        run("report", *reversed(tables))

        run("predict-alpha", "--n", "3", "--coeff-a", "1e308", "--exponent-b", "2")
        run("predict-alpha", "--n", "1000", "--coeff-a", "1e-300", "--exponent-b", "-100")
        (tmp / "flat.tsv").write_text("2\t1\n4\t1\n8\t1\n", encoding="utf-8")
        run("regress", str(tmp / "flat.tsv"))
        (tmp / "line.tsv").write_text("10\t2\n20\t1\n40\t0.5\n", encoding="utf-8")
        run("regress", str(tmp / "line.tsv"))


if __name__ == "__main__":
    main()
