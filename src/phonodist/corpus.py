"""Feature extraction from phonemized lexicons.

Three per-phoneme features feed the maximum-entropy model: a physical
cost proxy (negative log cross-linguistic incidence), segmental
information (average surprisal given word-initial prefix contexts), and
lexical diversity conditioned on the phoneme (CWJ entropy of the words
containing it).  Prefix contexts are word-internal and anchored at word
start; an end-of-word marker is appended internally so every word is a
leaf of the prefix tree, but the marker is not a phoneme and gets no
features.

One prefix tree and one pass serve every phoneme: ``build_feature_table``
builds the tree once, reads all segmental information off a single
traversal of its edges, and gathers every phoneme's word set in a single
pass over the entries.  ``segmental_information`` and
``lexical_conditional_diversity`` are views that read one phoneme's value
off the same code, so each call costs a full pass.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .entropy import cwj_estimate, plugin_estimate
from .errors import CoverageError, DomainError

__all__ = [
    "END_MARKER",
    "ConstraintVector",
    "FeatureTable",
    "IncidenceTable",
    "LexicalGains",
    "PhonemizedLexicon",
    "build_feature_table",
    "constraint_expectations",
    "lexical_conditional_diversity",
    "lexical_information_gain_exact",
    "phoneme_probabilities",
    "physical_cost",
    "segmental_information",
]

END_MARKER = "#"

Word = tuple[str, ...]
_T = TypeVar("_T")


@dataclass(frozen=True)
class PhonemizedLexicon:
    """Token-weighted word list over a phoneme inventory.

    Entries are merged (one row per distinct phoneme sequence, counts
    summed), so the lexicon is homophone-free by construction.
    """

    entries: tuple[tuple[Word, int], ...]
    inventory: frozenset[str]

    @classmethod
    def build(
        cls,
        entries: Iterable[tuple[Sequence[str], int]],
        inventory: Iterable[str] | None = None,
    ) -> "PhonemizedLexicon":
        merged: dict[Word, int] = {}
        for seq, count in entries:
            word = tuple(seq)
            if not word:
                raise DomainError("lexicon contains an empty word")
            if count <= 0 or not isinstance(count, (int, np.integer)):
                raise DomainError(f"token count must be a positive integer, got {count!r}")
            if END_MARKER in word:
                raise DomainError(f"phoneme label {END_MARKER!r} is reserved")
            merged[word] = merged.get(word, 0) + int(count)
        if not merged:
            raise DomainError("lexicon is empty")
        observed = {p for word in merged for p in word}
        if inventory is None:
            inv = frozenset(observed)
        else:
            inv = frozenset(inventory)
            missing = observed - inv
            if missing:
                raise DomainError(f"phonemes not in declared inventory: {sorted(missing)}")
        ordered = tuple(sorted(merged.items()))
        return cls(entries=ordered, inventory=inv)

    @property
    def total_tokens(self) -> int:
        return sum(c for _, c in self.entries)


class _PrefixTree:
    """Token-weighted trie over end-marker-augmented words."""

    def __init__(self, lexicon: PhonemizedLexicon):
        self.edge: dict[Word, dict[str, int]] = defaultdict(dict)
        for seq, count in lexicon.entries:
            prefix: Word = ()
            for sym in seq + (END_MARKER,):
                children = self.edge[prefix]
                children[sym] = children.get(sym, 0) + count
                prefix = prefix + (sym,)

    def segmental_information(self) -> dict[str, float]:
        """Average surprisal of every phoneme given the prefixes preceding it.

        One sweep sums each symbol's context weight W_p; a second, in the
        same edge order, accumulates (w/W_p)·ln(out/w).  Word-final
        positions count through the end marker, so the continuation mass
        at each context includes words ending there.
        """
        weight: dict[str, int] = defaultdict(int)
        for children in self.edge.values():
            for sym, w in children.items():
                weight[sym] += w
        del weight[END_MARKER]
        info = dict.fromkeys(weight, 0.0)
        for children in self.edge.values():
            out = sum(children.values())
            for sym, w in children.items():
                if sym in info:
                    info[sym] += (w / weight[sym]) * math.log(out / w)
        return info


def _word_sets(lexicon: PhonemizedLexicon) -> dict[str, list[int]]:
    """Token counts of the words containing each phoneme, in entry order."""
    sets: dict[str, list[int]] = defaultdict(list)
    for seq, count in lexicon.entries:
        for p in set(seq):
            sets[p].append(count)
    return sets


def _occurring(values: Mapping[str, _T], p: str) -> _T:
    if p not in values:
        raise DomainError(f"phoneme {p!r} does not occur in the lexicon")
    return values[p]


def phoneme_probabilities(lexicon: PhonemizedLexicon) -> dict[str, float]:
    """Token-weighted phoneme occurrence probabilities, summing to 1."""
    counts: dict[str, float] = defaultdict(float)
    for seq, count in lexicon.entries:
        for p in seq:
            counts[p] += count
    total = sum(counts.values())
    return {p: c / total for p, c in sorted(counts.items())}


def physical_cost(p: str, table: "IncidenceTable") -> float:
    """Negative log cross-linguistic incidence probability of a phoneme."""
    if p not in table.probs:
        raise DomainError(f"phoneme {p!r} absent from the incidence table (excluded)")
    return -math.log(table.probs[p])


def segmental_information(lexicon: PhonemizedLexicon, p: str) -> float:
    """Average surprisal of p given the word-initial prefixes preceding it.

    Reads one value off the all-phoneme traversal, so it costs a full pass.
    """
    return _occurring(_PrefixTree(lexicon).segmental_information(), p)


def lexical_conditional_diversity(lexicon: PhonemizedLexicon, p: str) -> float:
    """CWJ entropy of the token counts of words containing the phoneme.

    Reads one word set off the all-phoneme pass, so it costs a full pass.
    """
    return cwj_estimate(_occurring(_word_sets(lexicon), p))


@dataclass(frozen=True)
class LexicalGains:
    """Exact lexical information gains over all prefix-tree transitions.

    ``gains`` is keyed by (symbol, prefix) and includes end-marker
    transitions; these are what make the weighted total telescope to the
    lexical entropy.  ``per_phoneme`` averages over contexts and excludes
    the end marker.
    """

    gains: dict[tuple[str, Word], float]
    per_phoneme: dict[str, float]
    lexical_entropy: float
    weighted_total: float


def lexical_information_gain_exact(lexicon: PhonemizedLexicon) -> LexicalGains:
    """Uncertainty reduction H(W|o) - H(W|o+p) for every transition.

    The lexicon is homophone-free by construction, so each augmented word
    is a distinct leaf and the gains weighted by transition probability
    sum exactly to the plug-in lexical entropy.
    """
    tree = _PrefixTree(lexicon)
    word_counts: dict[Word, list[int]] = defaultdict(list)
    for seq, count in lexicon.entries:
        aug = seq + (END_MARKER,)
        for i in range(len(aug) + 1):
            word_counts[aug[:i]].append(count)

    def word_entropy(prefix: Word) -> float:
        """Plug-in entropy over words consistent with the prefix."""
        return plugin_estimate(np.asarray(word_counts[prefix], dtype=float))

    total_tokens = lexicon.total_tokens
    gains: dict[tuple[str, Word], float] = {}
    weighted_total = 0.0
    phoneme_weight: dict[str, float] = defaultdict(float)
    phoneme_sum: dict[str, float] = defaultdict(float)
    for prefix, children in tree.edge.items():
        h_here = word_entropy(prefix)
        for sym, w in children.items():
            gain = h_here - word_entropy(prefix + (sym,))
            gains[(sym, prefix)] = gain
            weighted_total += (w / total_tokens) * gain
            if sym != END_MARKER:
                phoneme_weight[sym] += w
                phoneme_sum[sym] += w * gain
    per_phoneme = {
        p: phoneme_sum[p] / phoneme_weight[p] for p in sorted(phoneme_weight)
    }
    return LexicalGains(
        gains=gains,
        per_phoneme=per_phoneme,
        lexical_entropy=word_entropy(()),
        weighted_total=weighted_total,
    )


@dataclass(frozen=True)
class IncidenceTable:
    """Cross-linguistic incidence probability per phoneme, each in (0, 1]."""

    probs: Mapping[str, float]

    def __post_init__(self):
        for p, v in self.probs.items():
            if not (0.0 < v <= 1.0):
                raise DomainError(f"incidence probability for {p!r} must lie in (0, 1], got {v}")
        object.__setattr__(self, "probs", dict(self.probs))


@dataclass(frozen=True)
class FeatureTable:
    """Per-phoneme features and renormalized observed probabilities."""

    phonemes: tuple[str, ...]
    observed_prob: np.ndarray
    cost: np.ndarray
    seg_info: np.ndarray
    lex_div: np.ndarray
    excluded: tuple[str, ...]
    coverage: float

    def feature_matrix(self) -> np.ndarray:
        return np.column_stack([self.cost, self.seg_info, self.lex_div])


@dataclass(frozen=True)
class ConstraintVector:
    c1: float
    c2: float
    c3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3])


def build_feature_table(
    lexicon: PhonemizedLexicon,
    incidence: IncidenceTable,
    coverage_floor: float = 0.85,
) -> FeatureTable:
    """Assemble observed probabilities and all three features per phoneme.

    Phonemes missing from the incidence table are excluded and the
    observed probabilities renormalized over the matched ones; contexts
    for the two corpus features still come from the full lexicon.
    """
    probs = phoneme_probabilities(lexicon)
    occurring = sorted(probs, key=lambda p: (-probs[p], p))
    excluded = tuple(p for p in occurring if p not in incidence.probs)
    matched = [p for p in occurring if p in incidence.probs]
    coverage = len(matched) / len(occurring)
    if coverage < coverage_floor:
        raise CoverageError(
            f"incidence coverage {coverage:.3f} below floor {coverage_floor:.3f}; "
            f"unmatched: {sorted(excluded)}"
        )
    if len(matched) < 2:
        raise DomainError("fewer than 2 phonemes matched the incidence table")
    mass = sum(probs[p] for p in matched)
    observed = np.array([probs[p] / mass for p in matched])
    cost = np.array([physical_cost(p, incidence) for p in matched])
    seg_info = _PrefixTree(lexicon).segmental_information()
    word_sets = _word_sets(lexicon)
    seg = np.array([seg_info[p] for p in matched])
    lex = np.array([cwj_estimate(word_sets[p]) for p in matched])
    return FeatureTable(
        phonemes=tuple(matched),
        observed_prob=observed,
        cost=cost,
        seg_info=seg,
        lex_div=lex,
        excluded=excluded,
        coverage=coverage,
    )


def constraint_expectations(table: FeatureTable) -> ConstraintVector:
    """Observed expectations of the three features (targets for maxent)."""
    p = table.observed_prob
    return ConstraintVector(
        c1=float(p @ table.cost),
        c2=float(p @ table.seg_info),
        c3=float(p @ table.lex_div),
    )
