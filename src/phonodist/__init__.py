"""Phoneme frequency distributions: Dirichlet order-statistic fits and
maximum-entropy guessing from corpus-derived constraints.

The names below are loaded on first access (PEP 562), so that importing
the package, or a subcommand that needs only scalar arithmetic, loads no
numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "CompensationReport",
        "RegressionFit",
        "compensation_report",
        "fit_language",
        "implied_scaling_law",
        "loglog_regression",
    ),
    "corpus": (
        "ConstraintVector",
        "FeatureTable",
        "IncidenceTable",
        "PhonemizedLexicon",
        "build_feature_table",
        "constraint_expectations",
        "lexical_information_gain_exact",
    ),
    "dirichlet": (
        "AlphaScalingLaw",
        "DirichletSpec",
        "OrderStatSummary",
        "digamma",
        "expected_entropy",
        "order_statistic_bands",
        "order_statistic_moments",
        "predict_alpha",
        "reconstruct_from_inventory",
        "solve_alpha",
    ),
    "entropy": (
        "CountVector",
        "cwj_estimate",
        "plugin_estimate",
        "relative_entropy",
    ),
    "errors": (
        "CoverageError",
        "DomainError",
        "InfeasibleError",
        "IngestError",
        "NumericalError",
        "PhonodistError",
    ),
    "maxent": ("MaxEntProblem", "MaxEntSolution", "solve"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
