"""The package's record types: field order, and the checks of the five
records that validate their input.

Every record is a ``typing.NamedTuple``, so callers may build one
positionally; the field order below is part of the interface.  A
validating record checks its fields in ``__new__``, and ``_replace`` and
``_make`` go through the same checks.
"""

from types import MappingProxyType

import numpy as np
import pytest

from phonodist import analysis, corpus, dirichlet, entropy, maxent
from phonodist.errors import DomainError

FIELDS = {
    dirichlet.DirichletSpec: ("n", "alpha"),
    dirichlet.AlphaScalingLaw: ("coeff_a", "exponent_b", "se_a", "se_b"),
    dirichlet.OrderStatSummary: ("n", "alpha", "mean", "sd", "ci_low", "ci_high", "level"),
    entropy.CountVector: ("entries",),
    analysis.RegressionFit: (
        "slope", "intercept", "se_slope", "se_intercept", "t_slope", "p_slope", "n_points",
    ),
    analysis.LanguageFit: (
        "name", "n", "entropy_cwj", "h_max", "relative_entropy", "alpha_hat", "note",
    ),
    analysis.CompensationReport: ("rows", "regression", "law"),
    corpus.PhonemizedLexicon: ("entries",),
    corpus.LexicalGains: ("gains", "per_phoneme", "lexical_entropy", "weighted_total"),
    corpus.IncidenceTable: ("probs",),
    corpus.FeatureTable: (
        "phonemes", "observed_prob", "cost", "seg_info", "lex_div", "excluded", "coverage",
    ),
    corpus.ConstraintVector: ("c1", "c2", "c3"),
    maxent.MaxEntProblem: ("support", "features", "targets"),
    maxent.MaxEntSolution: ("lambda0", "lambdas", "probs", "residuals", "entropy", "iterations"),
}


@pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
def test_fields_keep_their_order(record):
    assert record._fields == FIELDS[record]


# each validating record: positional arguments it accepts, and one bad field
VALIDATING = {
    dirichlet.DirichletSpec: ((5, 0.5), {"alpha": 0.0}),
    dirichlet.AlphaScalingLaw: ((2.0, -0.5, 0.1, 0.01), {"exponent_b": float("nan")}),
    entropy.CountVector: (({"a": 3, "b": 0, "c": 1},), {"entries": {"a": 3, "b": 0}}),
    corpus.IncidenceTable: (({"a": 0.5, "b": 1.0},), {"probs": {"a": 1.5}}),
    maxent.MaxEntProblem: ((("a", "b"), [[0.0], [1.0]], [0.25]), {"targets": [0.25, 0.5]}),
}


def _same(a, b):
    if isinstance(b, list):  # MaxEntProblem keeps its rows and targets as tuples
        b = tuple(tuple(x) if isinstance(x, list) else x for x in b)
    return a == b


@pytest.mark.parametrize("record", VALIDATING, ids=lambda record: record.__name__)
def test_positional_arguments_fill_the_fields_in_order(record):
    args, _ = VALIDATING[record]
    built = record(*args)
    assert type(built) is record
    for name, arg in zip(record._fields, args):
        assert _same(getattr(built, name), arg), name


@pytest.mark.parametrize("record", VALIDATING, ids=lambda record: record.__name__)
def test_bad_fields_raise_from_every_constructor(record):
    args, bad = VALIDATING[record]
    good = record(*args)
    fields = {**good._asdict(), **bad}
    with pytest.raises(DomainError):
        record(**fields)
    with pytest.raises(DomainError):
        record(*fields.values())
    with pytest.raises(DomainError):
        good._replace(**bad)
    with pytest.raises(DomainError):
        record._make(fields.values())


def test_replace_keeps_the_conversions():
    counts = entropy.CountVector({"a": 1, "b": 2})._replace(
        entries=MappingProxyType({"a": 4, "b": 2}))
    assert type(counts.entries) is dict and counts.total == 6
    problem = maxent.MaxEntProblem(("a", "b"), np.array([[0], [1]]), [0.5])._replace(targets=0.25)
    assert problem.targets == (0.25,)
    assert problem.features == ((0.0,), (1.0,))
    assert all(type(x) is float for x in (*problem.targets, *problem.features[1]))
    with pytest.raises(DomainError):
        problem._replace(features=[[0.0, 1.0], [1.0, 0.0]])
