"""Phoneme frequency distributions: Dirichlet order-statistic fits and
maximum-entropy guessing from corpus-derived constraints."""

from .analysis import (
    CompensationReport,
    CorrelationResult,
    RegressionFit,
    compensation_report,
    implied_scaling_law,
    loglog_regression,
    pearson_test,
)
from .corpus import (
    ConstraintVector,
    FeatureTable,
    IncidenceTable,
    PhonemizedLexicon,
    build_feature_table,
    constraint_expectations,
    lexical_conditional_diversity,
    lexical_information_gain_exact,
    phoneme_probabilities,
    physical_cost,
    segmental_information,
)
from .dirichlet import (
    AlphaScalingLaw,
    DirichletSpec,
    OrderStatSummary,
    digamma,
    expected_entropy,
    marginal_cdf,
    marginal_pdf,
    order_statistic_moments,
    order_statistic_pdf,
    order_statistic_quantile,
    predict_alpha,
    reconstruct_from_inventory,
    solve_alpha,
)
from .entropy import (
    CountVector,
    EntropyEstimate,
    cwj_entropy,
    plugin_entropy,
    relative_entropy,
)
from .errors import (
    CoverageError,
    DomainError,
    InfeasibleError,
    IngestError,
    NumericalError,
    PhonodistError,
)
from .maxent import MaxEntProblem, MaxEntSolution, guessed_distribution, solve

__version__ = "0.1.0"
