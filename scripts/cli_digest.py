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

tests/test_golden.py reruns the same calls through ``run_calls`` and
compares each artifact with the text committed under tests/golden/.

The calls: predict-alpha and reconstruct (also at n = 160 with a 0.8
band, at n = 60 under another law, and at the ends of the concentration
domain: n = 200 with coeff_a 0.01, whose bands meet the smallest normal
float, n = 11 with alpha 1e9, and n = 1800); fit-alpha and estimate-entropy
on all five tables, with and without --n; features on both toy lexicons
and maxent on each result; regress on the five fitted (n, alpha_hat)
rows; report over the five tables in two orders; and a few edge inputs
(an overflowing and an underflowing law, a flat and an exact-line
regression, fit-alpha and estimate-entropy on uniform counts, which no
concentration fits, report over tables whose points give no regression,
fit-alpha and estimate-entropy with an --n below the table's support,
features on toy_a with an incidence table that leaves out "p", above and
below the coverage floor, and a near-uniform table whose CWJ entropy lies
one ulp below ln 3, through fit-alpha, estimate-entropy and report with
the five tables, and maxent on a feature table whose seg_info column
copies cost, which warns that the columns are affinely dependent), and,
last, reconstruct at the flat Dirichlet (n = 4, alpha = 1).
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


def _calls(run, data: Path, tmp: Path) -> None:
    """Make every call through ``run(*argv, output=None)``, which returns
    the call's stdout; ``data`` holds the fixtures, ``tmp`` is scratch."""
    run("predict-alpha", "--n", "40")
    run("reconstruct", "--n", "11", output=tmp / "reconstruct.tsv")
    run("reconstruct", "--n", "160", "--gamma", "0.8")
    run("reconstruct", "--n", "60", "--coeff-a", "0.3", "--exponent-b", "-0.5")
    # the ends of the concentration domain: floored bands, Temme's range, n = 1800
    run("reconstruct", "--n", "200", "--coeff-a", "0.01")
    run("reconstruct", "--n", "11", "--coeff-a", "1e9", "--exponent-b", "0")
    run("reconstruct", "--n", "1800")

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
    (tmp / "uniform.tsv").write_text("a\t100\nb\t100\nc\t100\n", encoding="utf-8")
    run("fit-alpha", str(tmp / "uniform.tsv"))
    run("estimate-entropy", str(tmp / "uniform.tsv"))
    samoan, kaiwa = str(data / "samoan.tsv"), str(data / "kaiwa.tsv")
    run("report", samoan, samoan, samoan)
    run("report", samoan, samoan, kaiwa)
    run("fit-alpha", str(data / "amenglish.tsv"), "--n", "20")
    run("estimate-entropy", kaiwa, "--n", "5")
    rows = (data / "toy_incidence.tsv").read_text(encoding="utf-8").splitlines(True)
    partial = tmp / "partial_incidence.tsv"
    partial.write_text("".join(r for r in rows if not r.startswith("p\t")), encoding="utf-8")
    toy_a = str(data / "toy_a.lex")
    run("features", toy_a, str(partial), "--coverage-floor", "0.5",
        output=tmp / "features_partial.tsv")
    run("features", toy_a, str(partial))
    near = tmp / "near_uniform.tsv"
    near.write_text("a\t1000000000000000\nb\t1000000000000082\nc\t1000000000000075\n",
                    encoding="utf-8")
    run("fit-alpha", str(near))
    run("estimate-entropy", str(near))
    run("report", str(near), *tables)
    dependent = tmp / "features_dependent.tsv"
    dependent.write_text("phoneme\tobserved_prob\tcost\tseg_info\tlex_div\n"
                         "a\t0.4\t0.1\t0.1\t1.8\n" "t\t0.3\t0.35\t0.35\t1.6\n"
                         "k\t0.2\t0.45\t0.45\t1.7\n" "i\t0.1\t0.6\t0.6\t0.9\n",
                         encoding="utf-8")
    run("maxent", str(dependent))
    # the flat Dirichlet, whose first fraction denominator is exactly 0
    run("reconstruct", "--n", "4", "--coeff-a", "1", "--exponent-b", "0")


def run_calls(src: Path) -> list[dict]:
    """Run every call, each in a fresh interpreter, against the phonodist
    package under ``src``.

    One record per call, in order: the argv, the exit code, and stdout,
    stderr and the -o file (None when the call writes none) as text, with
    paths written as $DATA and $TMP.
    """
    src = src.resolve()
    data = src / "phonodist" / "data"
    env = {**os.environ, "PYTHONPATH": str(src)}
    records = []
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        names = {str(data): "$DATA", str(tmp): "$TMP"}

        def show(text: str) -> str:
            for path, name in names.items():
                text = text.replace(path, name)
            return text

        def run(*argv: str, output: Path | None = None) -> str:
            full = [*argv, "-o", str(output)] if output else list(argv)
            proc = subprocess.run(
                [sys.executable, "-m", "phonodist.cli", *full], env=env, capture_output=True
            )
            written = output.read_bytes().decode() if output and output.exists() else None
            stdout = proc.stdout.decode()
            records.append({
                "argv": show(" ".join(full)),
                "exit": proc.returncode,
                "stdout": show(stdout),
                "stderr": show(proc.stderr.decode()),
                "out": None if written is None else show(written),
            })
            return stdout

        _calls(run, data, tmp)
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        default=str(Path(__file__).resolve().parents[1] / "src"),
        help="source tree holding the phonodist package (default: this checkout's src)",
    )
    args = parser.parse_args()
    for record in run_calls(Path(args.src)):
        digests = {field: "-" if record[field] is None else _digest(record[field].encode())
                   for field in ("stdout", "stderr", "out")}
        print(record["argv"], f"exit={record['exit']}",
              *(f"{field}={digest}" for field, digest in digests.items()), sep="\t")


if __name__ == "__main__":
    main()
