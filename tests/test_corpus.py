import math
import random
import tracemalloc
from array import array
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from phonodist import io
from phonodist.corpus import (
    END_MARKER,
    IncidenceTable,
    PhonemizedLexicon,
    build_feature_table,
    constraint_expectations,
    lexical_information_gain_exact,
)
from phonodist.entropy import cwj_estimate, plugin_estimate
from phonodist.errors import CoverageError, DomainError


def seg_info_oracle(entries, p):
    """Brute-force prefix table, independent of the trie implementation."""
    freq_op = defaultdict(int)
    freq_o_any = defaultdict(int)
    for seq, c in entries:
        aug = tuple(seq) + (END_MARKER,)
        for i, sym in enumerate(aug):
            o = aug[:i]
            freq_o_any[o] += c
            if sym == p:
                freq_op[o] += c
    weight = sum(freq_op.values())
    return sum(
        w / weight * math.log(freq_o_any[o] / w) for o, w in freq_op.items()
    )


def inventory(lex):
    """Every phoneme that occurs in the lexicon's entries."""
    return {p for seq, _ in lex.entries for p in seq}


def full_table(lex):
    """Feature table of a lexicon whose every phoneme has incidence 0.5."""
    return build_feature_table(lex, IncidenceTable(dict.fromkeys(inventory(lex), 0.5)))


def seg_info(lex):
    """The seg_info column of a feature table that matches every phoneme."""
    table = full_table(lex)
    return dict(zip(table.phonemes, table.seg_info))


def lex_div(lex):
    """The lex_div column of a feature table that matches every phoneme."""
    table = full_table(lex)
    return dict(zip(table.phonemes, table.lex_div))


def observed(lex):
    """The observed_prob column of a feature table that matches every phoneme."""
    table = full_table(lex)
    return dict(zip(table.phonemes, table.observed_prob.tolist()))


def cost(incidence):
    """The cost column for a one-word lexicon of the incidence table's phonemes."""
    lex = PhonemizedLexicon.build([(tuple(incidence), 1)])
    table = build_feature_table(lex, IncidenceTable(incidence))
    return dict(zip(table.phonemes, table.cost.tolist()))


def word_entropy_oracle(entries, prefix):
    counts = [c for seq, c in entries if (tuple(seq) + (END_MARKER,))[: len(prefix)] == prefix]
    return plugin_estimate(np.asarray(counts, dtype=float))


FIXTURE = [
    (("p", "a", "t"), 3),
    (("p", "a", "k"), 2),
    (("t", "a"), 4),
    (("k", "a", "t", "a"), 1),
    (("a", "k"), 2),
]


def fixture_lexicon():
    return PhonemizedLexicon.build(FIXTURE)


words_strategy = st.lists(
    st.tuples(
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=5).map(tuple),
        st.integers(1, 10),
    ),
    min_size=1,
    max_size=50,
)


def heavy_rows(seed):
    """Rows whose heavy words spell "p" alone, beside 200 singletons that
    contain it, so that its weighted gains cancel in their sum."""
    rng = random.Random(seed)
    others = [f"q{i}" for i in range(9)]
    rows = [(("p",) * k, 10**4 * (7 - k)) for k in (1, 2, 3)]
    for _ in range(200):
        word = rng.choices(others, k=rng.randint(1, 4))
        word.insert(rng.randrange(len(word) + 1), "p")
        rows.append((tuple(word), 1))
    for _ in range(40):
        rows.append((tuple(rng.choices(others, k=rng.randint(2, 5))), rng.randint(3, 5)))
    return rows


class TestLexiconConstruction:
    def test_merges_homophones(self):
        lex = PhonemizedLexicon.build([(("a", "b"), 1), (("a", "b"), 2)])
        assert lex.entries == ((("a", "b"), 3),)

    def test_rejects_empty_word(self):
        with pytest.raises(DomainError):
            PhonemizedLexicon.build([((), 1)])

    def test_rejects_empty_lexicon(self):
        with pytest.raises(DomainError):
            PhonemizedLexicon.build([])

    def test_rejects_reserved_marker(self):
        with pytest.raises(DomainError):
            PhonemizedLexicon.build([((END_MARKER,), 1)])

    @pytest.mark.parametrize("count", ["3", None, True, 2.0, 0, -1])
    def test_rejects_non_positive_or_non_integer_counts(self, count):
        with pytest.raises(DomainError, match="positive integer"):
            PhonemizedLexicon.build([(("a",), count)])

    def test_accepts_numpy_integer_counts(self):
        lex = PhonemizedLexicon.build([(("a",), np.int64(2)), (("a",), 1)])
        assert lex.entries == ((("a",), 3),)


class TestPhonemeProbabilities:
    """The observed_prob column: token-weighted phoneme shares."""

    def test_two_tokens(self):
        lex = PhonemizedLexicon.build([(("a", "b"), 1)])
        assert observed(lex) == {"a": 0.5, "b": 0.5}

    def test_token_weighting(self):
        lex = PhonemizedLexicon.build([(("a", "a"), 1), (("b",), 2)])
        assert observed(lex) == {"a": 0.5, "b": 0.5}

    @given(words_strategy)
    @settings(max_examples=40, deadline=None)
    def test_normalization(self, rows):
        lex = PhonemizedLexicon.build(rows)
        assume(len(inventory(lex)) >= 2)
        assert sum(observed(lex).values()) == pytest.approx(1.0)

    def test_counts_beyond_float_precision(self):
        # 2**53 + 1 is no float: summed as floats, the shares would be
        # 1.0 and 2**-53; from the integer counts they are correctly rounded
        big = 2**53 + 1
        lex = PhonemizedLexicon.build([(("a",), big), (("b",), 1)])
        assert observed(lex) == {
            "a": float(Fraction(big, big + 1)),
            "b": float(Fraction(1, big + 1)),
        }


class TestPhysicalCost:
    """The cost column: negative log cross-linguistic incidence."""

    def test_universal_phoneme(self):
        assert cost({"a": 1.0, "b": 0.5})["a"] == 0.0

    def test_half_incidence(self):
        assert cost({"a": 0.5, "b": 1.0})["a"] == pytest.approx(math.log(2))

    def test_rare_phoneme(self):
        assert cost({"a": 0.05, "b": 1.0})["a"] == pytest.approx(2.9957, abs=1e-4)

    def test_missing_signals_exclusion(self):
        lex = PhonemizedLexicon.build([(("a", "b", "q"), 1)])
        table = build_feature_table(lex, IncidenceTable({"a": 0.5, "b": 0.5}), 0.5)
        assert table.excluded == ("q",)
        assert table.phonemes == ("a", "b")
        assert table.cost.tolist() == [math.log(2), math.log(2)]


class TestSegmentalInformation:
    def test_forced_continuation_is_zero(self):
        # b always and only follows "a", and nothing else can follow "a"
        lex = PhonemizedLexicon.build([(("a", "b"), 3)])
        assert seg_info(lex)["b"] == 0.0

    def test_two_equiprobable_continuations(self):
        lex = PhonemizedLexicon.build([(("a", "b"), 1), (("a", "c"), 1)])
        assert seg_info(lex)["b"] == pytest.approx(math.log(2))

    def test_fixture_against_brute_force(self):
        lex = fixture_lexicon()
        values = seg_info(lex)
        assert sorted(values) == sorted(inventory(lex))
        for p in sorted(inventory(lex)):
            assert values[p] == pytest.approx(seg_info_oracle(FIXTURE, p), abs=1e-12)

    def test_absent_phoneme(self):
        # a phoneme that never occurs gets no value
        assert "z" not in seg_info(fixture_lexicon())

    @given(words_strategy)
    @settings(max_examples=40, deadline=None)
    def test_non_negative(self, rows):
        lex = PhonemizedLexicon.build(rows)
        assume(len(inventory(lex)) >= 2)  # a feature table needs two phonemes
        assert all(v >= -1e-12 for v in seg_info(lex).values())


class TestLexicalConditionalDiversity:
    def test_single_word_type(self):
        lex = PhonemizedLexicon.build([(("a", "b"), 5), (("c",), 1)])
        assert lex_div(lex)["b"] == 0.0

    def test_two_large_equal_word_types(self):
        lex = PhonemizedLexicon.build([(("a", "b"), 500), (("b", "c"), 500)])
        assert lex_div(lex)["b"] == pytest.approx(math.log(2), abs=1e-3)

    def test_compositional_oracle(self):
        lex = fixture_lexicon()
        values = lex_div(lex)
        for p in sorted(inventory(lex)):
            sub = np.array([c for seq, c in FIXTURE if p in seq], dtype=np.int64)
            assert values[p] == pytest.approx(cwj_estimate(sub), abs=1e-12)

    def test_absent_phoneme(self):
        # an incidence entry for a phoneme that never occurs makes no row
        lex = fixture_lexicon()
        incidence = IncidenceTable(dict.fromkeys([*inventory(lex), "z"], 0.5))
        table = build_feature_table(lex, incidence)
        assert sorted(table.phonemes) == sorted(inventory(lex))
        assert len(table.lex_div) == len(inventory(lex))


class TestLexicalInformationGain:
    def test_single_word(self):
        for count in (3, 4):
            lex = PhonemizedLexicon.build([(("a", "b"), count)])
            result = lexical_information_gain_exact(lex)
            assert result.lexical_entropy == 0.0
            assert all(g == 0.0 for g in result.gains.values())

    def test_disambiguating_phoneme(self):
        lex = PhonemizedLexicon.build([(("a", "b"), 1), (("a", "c"), 1)])
        result = lexical_information_gain_exact(lex)
        assert result.gains[("b", ("a",))] == pytest.approx(math.log(2))
        assert result.weighted_total == pytest.approx(result.lexical_entropy, abs=1e-12)

    @given(words_strategy)
    @example(FIXTURE)
    @settings(max_examples=60, deadline=None)
    def test_fixture_against_brute_force(self, rows):
        lex = PhonemizedLexicon.build(rows)
        result = lexical_information_gain_exact(lex)
        for (sym, prefix), gain in result.gains.items():
            oracle = word_entropy_oracle(lex.entries, prefix) - word_entropy_oracle(
                lex.entries, prefix + (sym,)
            )
            assert gain == pytest.approx(oracle, abs=1e-12)
        assert result.lexical_entropy == pytest.approx(
            word_entropy_oracle(lex.entries, ()), abs=1e-12
        )

    @given(words_strategy)
    @settings(max_examples=60, deadline=None)
    def test_telescoping_identity(self, rows):
        lex = PhonemizedLexicon.build(rows)
        result = lexical_information_gain_exact(lex)
        assert abs(result.weighted_total - result.lexical_entropy) < 1e-10

    @given(words_strategy)
    @example(FIXTURE)
    @example(heavy_rows(0))
    @settings(max_examples=60, deadline=None)
    def test_weighted_means_are_summed_exactly(self, rows):
        # the weighted sums of the returned gains are exact, and each mean
        # rounds twice: the sum, then the division; heavy_rows makes the
        # weighted gains of "p" cancel, which a running sum does not survive
        lex = PhonemizedLexicon.build(rows)
        result = lexical_information_gain_exact(lex)
        weights = defaultdict(int)
        for seq, c in lex.entries:
            word = tuple(seq) + (END_MARKER,)
            for i, sym in enumerate(word):
                weights[(sym, word[:i])] += c
        total = sum(c for _, c in lex.entries)
        exact = sum(weights[t] * Fraction(g) for t, g in result.gains.items()) / total
        assert abs(Fraction(result.weighted_total) - exact) <= 2**-52 * abs(exact)
        for p, mean in result.per_phoneme.items():
            edges = [t for t in result.gains if t[0] == p]
            exact = sum(weights[t] * Fraction(result.gains[t]) for t in edges) / sum(
                weights[t] for t in edges
            )
            assert abs(Fraction(mean) - exact) <= 2**-52 * abs(exact)

    def test_mutual_information_decomposition(self):
        # joint over (word, phoneme-token): p(w, p) ~ count(w) * multiplicity
        lex = fixture_lexicon()
        joint = defaultdict(float)
        for seq, c in lex.entries:
            for p in seq:
                joint[(seq, p)] += c
        total = sum(joint.values())
        joint = {k: v / total for k, v in joint.items()}
        pw = defaultdict(float)
        pp = defaultdict(float)
        for (w, p), v in joint.items():
            pw[w] += v
            pp[p] += v
        h_w = -sum(v * math.log(v) for v in pw.values())
        h_w_given_p = -sum(
            v * math.log(v / pp[p]) for (w, p), v in joint.items()
        )
        mutual = sum(
            v * math.log(v / (pw[w] * pp[p])) for (w, p), v in joint.items()
        )
        assert abs(h_w - (mutual + h_w_given_p)) < 1e-10
        assert mutual >= -1e-12


def toy_incidence():
    return IncidenceTable({"p": 0.55, "a": 0.9, "t": 0.7, "k": 0.65})


class TestFeatureTable:
    def test_full_coverage(self):
        table = build_feature_table(fixture_lexicon(), toy_incidence())
        assert table.excluded == ()
        assert table.coverage == 1.0
        assert math.fsum(table.observed_prob) == pytest.approx(1.0, abs=1e-12)

    def test_exclusion_and_renormalization(self):
        lex = PhonemizedLexicon.build(FIXTURE + [(("p", "a", "q"), 1)])
        table = build_feature_table(lex, toy_incidence(), coverage_floor=0.75)
        assert table.excluded == ("q",)
        assert "q" not in table.phonemes
        assert math.fsum(table.observed_prob) == pytest.approx(1.0, abs=1e-12)
        assert table.coverage == pytest.approx(4 / 5)

    def test_coverage_floor(self):
        lex = PhonemizedLexicon.build(FIXTURE)
        sparse = IncidenceTable({"p": 0.5, "a": 0.9})
        with pytest.raises(CoverageError):
            build_feature_table(lex, sparse, coverage_floor=0.85)

    def test_relabeling_invariance(self):
        mapping = {"p": "P", "a": "A", "t": "T", "k": "K"}
        relabeled_rows = [
            (tuple(mapping[s] for s in seq), c) for seq, c in FIXTURE
        ]
        base = build_feature_table(fixture_lexicon(), toy_incidence())
        other = build_feature_table(
            PhonemizedLexicon.build(relabeled_rows),
            IncidenceTable({mapping[p]: v for p, v in toy_incidence().probs.items()}),
        )
        lookup = dict(zip(other.phonemes, zip(other.cost, other.seg_info, other.lex_div)))
        for i, p in enumerate(base.phonemes):
            cost, seg, lex = lookup[mapping[p]]
            assert base.cost[i] == pytest.approx(cost, abs=1e-12)
            assert base.seg_info[i] == pytest.approx(seg, abs=1e-12)
            assert base.lex_div[i] == pytest.approx(lex, abs=1e-12)

    @given(words_strategy, st.sets(st.sampled_from("abcde"), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_one_pass_matches_oracles(self, rows, unlisted):
        lex = PhonemizedLexicon.build(rows)
        incidence = IncidenceTable(
            {p: (i + 1) / 5 for i, p in enumerate("abcde") if p not in unlisted}
        )
        matched = [p for p in inventory(lex) if p not in unlisted]
        assume(len(matched) >= 2)
        table = build_feature_table(lex, incidence, coverage_floor=0.0)
        assert set(table.excluded) == inventory(lex) & unlisted
        tokens = {p: sum(c * seq.count(p) for seq, c in lex.entries) for p in matched}
        for i, p in enumerate(table.phonemes):
            assert table.observed_prob[i] == pytest.approx(
                tokens[p] / sum(tokens.values()), rel=1e-14
            )
            assert table.cost[i] == -math.log(incidence.probs[p])
            assert table.seg_info[i] == pytest.approx(
                seg_info_oracle(lex.entries, p), abs=1e-12
            )
            word_set = [c for seq, c in lex.entries if p in seq]
            assert table.lex_div[i] == cwj_estimate(np.asarray(word_set, dtype=np.int64))


class _CountedEntries(tuple):
    """Lexicon entries that count the passes made over them."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize(
    "reader",
    [
        lambda lex: build_feature_table(lex, toy_incidence()),
        lexical_information_gain_exact,
    ],
    ids=["build_feature_table", "lexical_information_gain_exact"],
)
def test_one_pass_over_the_entries(reader):
    entries = _CountedEntries(fixture_lexicon().entries)
    reader(PhonemizedLexicon(entries))
    assert entries.passes == 1


@pytest.mark.parametrize(
    "entries",
    [
        ((("b",), 1), (("a",), 1)),
        ((("a", "b"), 1), (("a",), 1)),
        ((("a",), 1), (("a",), 2)),
    ],
    ids=["unsorted", "longer-first", "duplicated"],
)
@pytest.mark.parametrize(
    "reader",
    [
        lambda lex: build_feature_table(lex, toy_incidence()),
        lexical_information_gain_exact,
    ],
    ids=["build_feature_table", "lexical_information_gain_exact"],
)
def test_entries_out_of_build_order_are_rejected(reader, entries):
    with pytest.raises(DomainError, match="sorted"):
        reader(PhonemizedLexicon(entries))


def test_equal_labels_are_one_object():
    # labels joined at run time are equal strings but distinct objects
    words = [("".join(["p", "0"]), "".join(["p", str(k)])) for k in range(3)]
    assert words[0][0] is not words[1][0]
    lex = PhonemizedLexicon.build((word, 1) for word in words)
    labels = [label for word, _ in lex.entries for label in word]
    assert len({id(label) for label in labels}) == len(set(labels)) == 3


def test_feature_table_memory_is_path_sized():
    # every count is at least 3, so f1 = 0 and no CWJ tail runs; a prefix
    # tree of this lexicon would take about 16 MB
    rng = random.Random(20000)
    labels = [f"p{i}" for i in range(40)]
    lex = PhonemizedLexicon.build(
        (rng.choices(labels, k=rng.randint(2, 7)), rng.randint(3, 40)) for _ in range(20000)
    )
    incidence = IncidenceTable(dict.fromkeys(labels, 0.5))
    assert len(lex.entries) > 17000
    tracemalloc.start()
    try:
        build_feature_table(lex, incidence)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


class TestConstraintExpectations:
    def test_expectation_of_constant(self):
        table = build_feature_table(fixture_lexicon(), toy_incidence())
        uniform = table.__class__(
            phonemes=table.phonemes,
            observed_prob=np.full(len(table.phonemes), 1.0 / len(table.phonemes)),
            cost=np.full(len(table.phonemes), 3.0),
            seg_info=table.seg_info,
            lex_div=table.lex_div,
            excluded=(),
            coverage=1.0,
        )
        assert constraint_expectations(uniform).c1 == pytest.approx(3.0)

    def test_direct_product(self):
        table = build_feature_table(fixture_lexicon(), toy_incidence())
        two = table.__class__(
            phonemes=("x", "y"),
            observed_prob=np.array([0.7, 0.3]),
            cost=np.array([0.0, 1.0]),
            seg_info=np.array([0.0, 0.0]),
            lex_div=np.array([0.0, 0.0]),
            excluded=(),
            coverage=1.0,
        )
        assert constraint_expectations(two).c1 == pytest.approx(0.3)

    def test_matches_manual_dot_products(self):
        table = build_feature_table(fixture_lexicon(), toy_incidence())
        constraints = constraint_expectations(table)
        manual = [
            sum(p * f for p, f in zip(table.observed_prob, column))
            for column in (table.cost, table.seg_info, table.lex_div)
        ]
        assert constraints.c1 == pytest.approx(manual[0], abs=1e-14)
        assert constraints.c2 == pytest.approx(manual[1], abs=1e-14)
        assert constraints.c3 == pytest.approx(manual[2], abs=1e-14)


def seeded_lexicon(seed):
    """A random lexicon over up to twelve phonemes."""
    rng = random.Random(seed)
    labels = [f"p{i}" for i in range(rng.randint(2, 12))]
    return PhonemizedLexicon.build(
        (rng.choices(labels, k=rng.randint(1, 6)), rng.randint(1, 30))
        for _ in range(rng.randint(1, 80))
    )


def seeded_tables(tmp_path):
    """Feature tables from both builders: the corpus build of seeded lexicons,
    and the reader on seeded TSVs with full-precision values."""
    for seed in range(30):
        lex = seeded_lexicon(seed)
        rng = random.Random(seed)
        incidence = IncidenceTable({p: rng.uniform(1e-3, 1.0) for p in inventory(lex)})
        yield build_feature_table(lex, incidence)
    for seed in range(30):
        rng = random.Random(1000 + seed)
        weights = [rng.expovariate(1.0) for _ in range(rng.randint(2, 40))]
        rows = ["phoneme\tobserved_prob\tcost\tseg_info\tlex_div"]
        for i, w in enumerate(weights):
            values = [w / math.fsum(weights)] + [rng.expovariate(0.3) for _ in range(3)]
            rows.append("\t".join([f"x{i}", *map(repr, values)]))
        path = tmp_path / f"features_{seed}.tsv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        yield io.load_feature_table(path)


def test_both_builders_return_double_arrays(tmp_path):
    for table in seeded_tables(tmp_path):
        for column in (table.observed_prob, table.cost, table.seg_info, table.lex_div):
            assert type(column) is array and column.typecode == "d"
            assert len(column) == len(table.phonemes)


def test_constraints_are_correctly_rounded_dot_products(tmp_path):
    for table in seeded_tables(tmp_path):
        got = constraint_expectations(table)
        for value, column in zip(got, (table.cost, table.seg_info, table.lex_div)):
            exact = sum(Fraction(p) * Fraction(f) for p, f in zip(table.observed_prob, column))
            assert value == float(exact)
