"""Batch command-line front end.

Subcommands: fit-alpha, predict-alpha, reconstruct, estimate-entropy,
features, maxent, regress, report.  Outputs are deterministic: floats are
printed with 12 significant digits, JSON keys are sorted, and every
output embeds the configuration it was produced with.

Exit codes: 0 success, 2 usage, 3 ingest, 4 numerical/infeasibility.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, corpus, dirichlet, entropy, io, maxent
from .errors import (
    CoverageError,
    DomainError,
    InfeasibleError,
    IngestError,
    NumericalError,
)

SCHEMA_VERSION = 2

_EXIT_INGEST = 3
_EXIT_NUMERICAL = 4


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(obj):
    """Round every float to 12 significant digits for byte-stable output."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit_json(payload: dict, out: str | None) -> None:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    try:
        text = json.dumps(
            _round12(payload), sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False
        )
    except ValueError as exc:  # NaN or infinity, which JSON cannot hold
        raise NumericalError(f"non-finite value in output ({exc})") from exc
    _emit(text + "\n", out)


def _inventory_arg(value: str) -> int:
    try:
        n = int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from exc
    if n < 2:
        raise argparse.ArgumentTypeError(f"inventory size must be >= 2, got {n}")
    return n


def _positive_arg(value: str) -> float:
    try:
        x = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number") from exc
    if not x > 0:
        raise argparse.ArgumentTypeError(f"value must be positive, got {x}")
    return x


def _gamma_arg(value: str) -> float:
    x = _positive_arg(value)
    if not x < 1:
        raise argparse.ArgumentTypeError(f"confidence level must lie in (0, 1), got {x}")
    return x


def _law_from_args(args) -> dirichlet.AlphaScalingLaw:
    return dirichlet.AlphaScalingLaw(coeff_a=args.coeff_a, exponent_b=args.exponent_b)


def _add_law_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coeff-a", type=_positive_arg, default=19.47,
                   help="scaling-law coefficient (default 19.47)")
    p.add_argument("--exponent-b", type=float, default=-0.95,
                   help="scaling-law exponent (default -0.95)")


def _fit_language(name: str, counts: entropy.CountVector, n: int | None) -> dict:
    h_plugin = entropy.plugin_entropy(counts)
    h_cwj = entropy.cwj_entropy(counts)
    if n is None:
        n = h_cwj.support_size
    h_max = math.log(n)
    if not 0.0 < h_cwj.value < h_max:
        raise InfeasibleError(
            f"{name}: CWJ entropy {h_cwj.value:.6g} not inside (0, ln n = {h_max:.6g}); "
            "no finite concentration fits"
        )
    alpha_hat = dirichlet.solve_alpha(h_cwj.value, n)
    return {
        "language": name,
        "n": n,
        "tokens": counts.total,
        "H_plugin": h_plugin.value,
        "H_cwj": h_cwj.value,
        "alpha_hat": alpha_hat,
        "relative_entropy": entropy.relative_entropy(h_cwj, n),
    }


def cmd_fit_alpha(args) -> None:
    counts = io.load_frequency_table(args.table)
    name = args.language or Path(args.table).stem
    payload = _fit_language(name, counts, args.n)
    payload["config"] = {"n_override": args.n}
    _emit_json(payload, args.output)


def cmd_predict_alpha(args) -> None:
    law = _law_from_args(args)
    payload = {
        "n": args.n,
        "alpha_predicted": dirichlet.predict_alpha(args.n, law),
        "config": {"coeff_a": law.coeff_a, "exponent_b": law.exponent_b},
    }
    _emit_json(payload, args.output)


def cmd_reconstruct(args) -> None:
    law = _law_from_args(args)
    summary = dirichlet.reconstruct_from_inventory(args.n, law, level=args.gamma)
    lines = [
        f"# schema_version\t{SCHEMA_VERSION}",
        f"# config\tn={args.n}\tcoeff_a={_fmt(law.coeff_a)}\t"
        f"exponent_b={_fmt(law.exponent_b)}\tgamma={_fmt(args.gamma)}\t"
        f"alpha={_fmt(summary.alpha)}",
        "rank\tmean\tsd\tci_low\tci_high",
    ]
    for rank, mean, sd, lo, hi in summary.rank_rows():
        lines.append(f"{rank}\t{_fmt(mean)}\t{_fmt(sd)}\t{_fmt(lo)}\t{_fmt(hi)}")
    _emit("\n".join(lines) + "\n", args.output)


def cmd_estimate_entropy(args) -> None:
    counts = io.load_frequency_table(args.table)
    h_plugin = entropy.plugin_entropy(counts)
    h_cwj = entropy.cwj_entropy(counts)
    n = args.n if args.n is not None else h_cwj.support_size
    payload = {
        "language": args.language or Path(args.table).stem,
        "n": n,
        "tokens": counts.total,
        "H_plugin": h_plugin.value,
        "H_cwj": h_cwj.value,
        "H_max": math.log(n),
        "relative_entropy": entropy.relative_entropy(h_cwj, n),
        "config": {"n_override": args.n},
    }
    _emit_json(payload, args.output)


def cmd_features(args) -> None:
    lexicon = io.load_lexicon(args.lexicon)
    incidence = io.load_incidence(args.incidence)
    table = corpus.build_feature_table(lexicon, incidence, coverage_floor=args.coverage_floor)
    if table.excluded:
        print(
            "excluded (no incidence match): " + ", ".join(sorted(table.excluded)),
            file=sys.stderr,
        )
    constraints = corpus.constraint_expectations(table)
    lines = [
        f"# schema_version\t{SCHEMA_VERSION}",
        f"# config\tcoverage_floor={_fmt(args.coverage_floor)}",
        "phoneme\tobserved_prob\tcost\tseg_info\tlex_div",
    ]
    for i, p in enumerate(table.phonemes):
        lines.append(
            f"{p}\t{_fmt(float(table.observed_prob[i]))}\t{_fmt(float(table.cost[i]))}"
            f"\t{_fmt(float(table.seg_info[i]))}\t{_fmt(float(table.lex_div[i]))}"
        )
    lines.append(
        f"# c1={_fmt(constraints.c1)}\tc2={_fmt(constraints.c2)}"
        f"\tc3={_fmt(constraints.c3)}\tcoverage={_fmt(table.coverage)}"
    )
    _emit("\n".join(lines) + "\n", args.output)


def cmd_maxent(args) -> None:
    table = io.load_feature_table(args.features)
    constraints = corpus.constraint_expectations(table)
    problem = maxent.MaxEntProblem(
        support=table.phonemes,
        features=table.feature_matrix(),
        targets=constraints.as_array(),
    )
    solution = maxent.solve(problem, tolerance=args.tol)
    n = len(table.phonemes)
    h_obs = entropy.plugin_estimate(table.observed_prob)
    payload = {
        "lambda0": solution.lambda0,
        "lambdas": list(solution.lambdas),
        "probs": {p: float(v) for p, v in zip(table.phonemes, solution.probs)},
        "residuals": list(solution.residuals),
        "iterations": solution.iterations,
        "entropy_guessed": solution.entropy,
        "entropy_observed": h_obs,
        "relative_entropy_guessed": solution.entropy / math.log(n),
        "relative_entropy_observed": h_obs / math.log(n),
        "targets": list(problem.targets),
        "config": {"tolerance": args.tol},
    }
    _emit_json(payload, args.output)


def cmd_regress(args) -> None:
    points = io.load_fit_points(args.fits)
    fit = analysis.loglog_regression(points)
    law = analysis.implied_scaling_law(fit)
    payload = {
        "fit": dataclasses.asdict(fit),
        "law": dataclasses.asdict(law),
        "config": {},
    }
    _emit_json(payload, args.output)


def cmd_report(args) -> None:
    languages = [
        (Path(path).stem, io.load_frequency_table(path), None) for path in args.tables
    ]
    report = analysis.compensation_report(languages)
    rows = []
    for row in report.rows:
        rows.append(
            {
                "language": row.name,
                "n": row.n,
                "H_cwj": row.entropy_cwj,
                "H_max": row.h_max,
                "relative_entropy": row.relative_entropy,
                "alpha_hat": row.alpha_hat,
                "guessed_relative_entropy": row.guessed_relative_entropy,
                "note": row.note,
            }
        )
    payload = {
        "languages": rows,
        "regression": None,
        "law": None,
        "config": {},
    }
    if report.regression is not None:
        payload["regression"] = dataclasses.asdict(report.regression)
        payload["law"] = dataclasses.asdict(report.law)
    _emit_json(payload, args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonodist",
        description="Phoneme frequency distributions: Dirichlet fits and maxent guessing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-alpha", help="fit the concentration from a frequency table")
    p.add_argument("table")
    p.add_argument("--n", type=_inventory_arg, default=None,
                   help="declared inventory size (default: distinct phonemes in table)")
    p.add_argument("--language", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_fit_alpha)

    p = sub.add_parser("predict-alpha", help="concentration predicted from inventory size")
    p.add_argument("--n", type=_inventory_arg, required=True)
    _add_law_args(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_predict_alpha)

    p = sub.add_parser("reconstruct", help="rank-frequency table from inventory size alone")
    p.add_argument("--n", type=_inventory_arg, required=True)
    p.add_argument("--gamma", type=_gamma_arg, default=0.95,
                   help="confidence level for the bands (default 0.95)")
    _add_law_args(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("estimate-entropy", help="plug-in and CWJ entropy of a table")
    p.add_argument("table")
    p.add_argument("--n", type=_inventory_arg, default=None)
    p.add_argument("--language", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_estimate_entropy)

    p = sub.add_parser("features", help="extract maxent features from a lexicon")
    p.add_argument("lexicon")
    p.add_argument("incidence")
    p.add_argument("--coverage-floor", type=_gamma_arg, default=0.85)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("maxent", help="solve the maximum-entropy problem for a feature table")
    p.add_argument("features")
    p.add_argument("--tol", type=_positive_arg, default=1e-10)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_maxent)

    p = sub.add_parser("regress", help="log-log regression over (n, alpha_hat) rows")
    p.add_argument("fits")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("report", help="compensation report over many frequency tables")
    p.add_argument("tables", nargs="+")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INGEST
    except (InfeasibleError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except (DomainError, CoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INGEST
    except (OverflowError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure ({type(exc).__name__}: {exc})", file=sys.stderr)
        return _EXIT_NUMERICAL
    return 0


if __name__ == "__main__":
    sys.exit(main())
