"""Batch command-line front end.

Subcommands: fit-alpha, predict-alpha, reconstruct, estimate-entropy,
features, maxent, regress, report.  Outputs are deterministic: floats are
printed with 12 significant digits, JSON keys are sorted, and every
output embeds the configuration it was produced with.

Exit codes: 0 success, 2 usage, 3 ingest/domain/coverage, 4 numerical/infeasibility.

Only features and maxent import the corpus module, and only maxent the
maxent module; neither loads numpy.  Only reconstruct loads numpy, with
phonodist._gamma, through dirichlet.  No subcommand loads scipy.
The records are named tuples, so no module here imports dataclasses, and
logging is imported only to emit a warning (a clamped relative entropy,
or a report language with no fit or no regression).  Every warning, the
library's ``warnings.warn`` ones too, prints as one line: its message.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from pathlib import Path

from . import analysis, dirichlet, entropy, io
from .errors import InfeasibleError, IngestError, NumericalError, PhonodistError

SCHEMA_VERSION = 2

_EXIT_INGEST = 3
_EXIT_NUMERICAL = 4
# reconstruct's cost grows with n without bound; the library takes any n
_RECONSTRUCT_MAX_N = 2000
# argparse reads -1 and -.5 as negative numbers but -1e-2 as an option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


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
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot write {out}: {exc.strerror or exc}") from exc


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


def _reconstruct_n_arg(value: str) -> int:
    n = _inventory_arg(value)
    if n > _RECONSTRUCT_MAX_N:
        raise argparse.ArgumentTypeError(f"reconstruct takes n <= {_RECONSTRUCT_MAX_N}, got {n}")
    return n


def _positive_arg(value: str) -> float:
    try:
        x = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number") from exc
    if not x > 0:
        raise argparse.ArgumentTypeError(f"value must be positive, got {x}")
    return x


def _unit_interval_arg(value: str) -> float:
    x = _positive_arg(value)
    if not x < 1:
        raise argparse.ArgumentTypeError(f"value must lie in (0, 1), got {x}")
    return x


def _law_from_args(args) -> dirichlet.AlphaScalingLaw:
    return dirichlet.AlphaScalingLaw(coeff_a=args.coeff_a, exponent_b=args.exponent_b)


def _add_law_args(p: argparse.ArgumentParser) -> None:
    law = dirichlet.AlphaScalingLaw()
    p.add_argument("--coeff-a", type=_positive_arg, default=law.coeff_a,
                   help=f"scaling-law coefficient (default {law.coeff_a})")
    p.add_argument("--exponent-b", type=float, default=law.exponent_b,
                   help=f"scaling-law exponent (default {law.exponent_b})")


def _fit_table(args) -> tuple[analysis.LanguageFit, dict]:
    """One table's fit, and the fields that fit-alpha and estimate-entropy share."""
    counts = io.load_frequency_table(args.table)
    fit = analysis.fit_language(args.language or Path(args.table).stem, counts, args.n)
    return fit, {
        "language": fit.name,
        "n": fit.n,
        "tokens": counts.total,
        "H_plugin": entropy.plugin_estimate(counts.positive_counts()),
        "H_cwj": fit.entropy_cwj,
        "relative_entropy": fit.relative_entropy,
        "config": {"n_override": args.n},
    }


def cmd_fit_alpha(args) -> None:
    fit, payload = _fit_table(args)
    if fit.alpha_hat is None:
        raise InfeasibleError(f"{fit.name}: {fit.note}")
    _emit_json({**payload, "alpha_hat": fit.alpha_hat}, args.output)


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
    fit, payload = _fit_table(args)
    _emit_json({**payload, "H_max": fit.h_max}, args.output)


def cmd_features(args) -> None:
    from . import corpus

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
    columns = (table.observed_prob, table.cost, table.seg_info, table.lex_div)
    for p, *values in zip(table.phonemes, *columns):
        lines.append("\t".join([p, *map(_fmt, values)]))
    lines.append(
        f"# c1={_fmt(constraints.c1)}\tc2={_fmt(constraints.c2)}"
        f"\tc3={_fmt(constraints.c3)}\tcoverage={_fmt(table.coverage)}"
    )
    _emit("\n".join(lines) + "\n", args.output)


def cmd_maxent(args) -> None:
    from . import corpus, maxent

    table = io.load_feature_table(args.features)
    constraints = corpus.constraint_expectations(table)
    problem = maxent.MaxEntProblem(
        support=table.phonemes,
        features=zip(table.cost, table.seg_info, table.lex_div),
        targets=constraints,
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
        "fit": fit._asdict(),
        "law": law._asdict(),
        "config": {},
    }
    _emit_json(payload, args.output)


def cmd_report(args) -> None:
    languages = [
        (Path(path).stem, io.load_frequency_table(path), None) for path in args.tables
    ]
    report = analysis.compensation_report(languages)
    renamed = {"name": "language", "entropy_cwj": "H_cwj", "h_max": "H_max"}
    rows = [
        {renamed.get(key, key): value for key, value in row._asdict().items()}
        for row in report.rows
    ]
    fitted = report.regression is not None
    payload = {
        "languages": rows,
        "regression": report.regression._asdict() if fitted else None,
        "law": report.law._asdict() if fitted else None,
        "config": {},
    }
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
    p.set_defaults(func=cmd_fit_alpha)

    p = sub.add_parser("predict-alpha", help="concentration predicted from inventory size")
    p.add_argument("--n", type=_inventory_arg, required=True)
    _add_law_args(p)
    p.set_defaults(func=cmd_predict_alpha)

    p = sub.add_parser("reconstruct", help="rank-frequency table from inventory size alone")
    p.add_argument("--n", type=_reconstruct_n_arg, required=True,
                   help=f"inventory size, 2 to {_RECONSTRUCT_MAX_N}")
    p.add_argument("--gamma", type=_unit_interval_arg, default=0.95,
                   help="confidence level for the bands (default 0.95)")
    _add_law_args(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("estimate-entropy", help="plug-in and CWJ entropy of a table")
    p.add_argument("table")
    p.add_argument("--n", type=_inventory_arg, default=None)
    p.add_argument("--language", default=None)
    p.set_defaults(func=cmd_estimate_entropy)

    p = sub.add_parser("features", help="extract maxent features from a lexicon")
    p.add_argument("lexicon")
    p.add_argument("incidence")
    p.add_argument("--coverage-floor", type=_unit_interval_arg, default=0.85)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("maxent", help="solve the maximum-entropy problem for a feature table")
    p.add_argument("features")
    p.add_argument("--tol", type=_positive_arg, default=1e-10)
    p.set_defaults(func=cmd_maxent)

    p = sub.add_parser("regress", help="log-log regression over (n, alpha_hat) rows")
    p.add_argument("fits")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("report", help="compensation report over many frequency tables")
    p.add_argument("tables", nargs="+")
    p.set_defaults(func=cmd_report)

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("-o", "--output", default=None)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.  While it runs, a
    warning printed to stderr is its message alone on one line; hooks the
    caller installed still receive every warning."""
    args = build_parser().parse_args(argv)
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"{message}\n"
    try:
        args.func(args)
    except PhonodistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        numerical = isinstance(exc, (InfeasibleError, NumericalError))
        return _EXIT_NUMERICAL if numerical else _EXIT_INGEST
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: numerical failure ({type(exc).__name__}: {exc})", file=sys.stderr)
        return _EXIT_NUMERICAL
    finally:
        warnings.formatwarning = formatwarning
    return 0


if __name__ == "__main__":
    sys.exit(main())
