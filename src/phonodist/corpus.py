"""Feature extraction from phonemized lexicons.

Three per-phoneme features feed the maximum-entropy model: a physical
cost proxy (negative log cross-linguistic incidence), segmental
information (average surprisal given word-initial prefix contexts), and
lexical diversity conditioned on the phoneme (CWJ entropy of the words
containing it).  Prefix contexts are word-internal and anchored at word
start; an end-of-word marker is appended internally so every word is a
leaf of the prefix tree, but the marker is not a phoneme and gets no
features.

Building the prefix tree is the one pass over a lexicon's entries:
``build_feature_table`` builds it once and reads every column off it,
the observed probabilities from its per-phoneme token counts, all
segmental information from a single sweep of its edges, and every
phoneme's word set from its end-marker edges.  The lexical information
gains are read off the same tree, in one bottom-up sweep of its edges.

The feature columns are ``array('d')`` and the constraint targets are
summed exactly, so building a feature table loads no numpy; only the two
methods that build numpy arrays for array callers, ``feature_matrix`` and
``as_array``, import it.  The maxent solver takes the columns and the
targets as they are.
"""

from __future__ import annotations

import math
import numbers
from array import array
from collections import defaultdict
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .entropy import cwj_estimate
from .errors import CoverageError, DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "END_MARKER",
    "ConstraintVector",
    "FeatureTable",
    "IncidenceTable",
    "LexicalGains",
    "PhonemizedLexicon",
    "build_feature_table",
    "constraint_expectations",
    "lexical_information_gain_exact",
]

END_MARKER = "#"

Word = tuple[str, ...]


class PhonemizedLexicon(NamedTuple):
    """Token-weighted word list over a phoneme inventory.

    Entries are merged (one row per distinct phoneme sequence, counts
    summed), so the lexicon is homophone-free by construction.
    """

    entries: tuple[tuple[Word, int], ...]

    @classmethod
    def build(cls, entries: Iterable[tuple[Sequence[str], int]]) -> "PhonemizedLexicon":
        merged: dict[Word, int] = {}
        for seq, count in entries:
            word = tuple(seq)
            if not word:
                raise DomainError("lexicon contains an empty word")
            if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count <= 0:
                raise DomainError(f"token count must be a positive integer, got {count!r}")
            if END_MARKER in word:
                raise DomainError(f"phoneme label {END_MARKER!r} is reserved")
            merged[word] = merged.get(word, 0) + int(count)
        if not merged:
            raise DomainError("lexicon is empty")
        return cls(entries=tuple(sorted(merged.items())))


class _PrefixTree:
    """Token-weighted trie over end-marker-augmented words, and each
    phoneme's token count in ``weight``."""

    def __init__(self, lexicon: PhonemizedLexicon):
        self.edge: dict[Word, dict[str, int]] = defaultdict(dict)
        self.weight: dict[str, int] = defaultdict(int)
        for seq, count in lexicon.entries:
            prefix: Word = ()
            for sym in seq + (END_MARKER,):
                children = self.edge[prefix]
                children[sym] = children.get(sym, 0) + count
                self.weight[sym] += count
                prefix = prefix + (sym,)
        del self.weight[END_MARKER]

    def segmental_information(self) -> dict[str, float]:
        """Average surprisal of every phoneme given the prefixes preceding it.

        One sweep of the edges accumulates (w/W_p)·ln(out/w), with W_p the
        phoneme's token count.  Word-final positions count through the
        end marker, so the continuation mass at each context includes
        words ending there.
        """
        info = dict.fromkeys(self.weight, 0.0)
        for children in self.edge.values():
            out = sum(children.values())
            for sym, w in children.items():
                if sym in info:
                    info[sym] += (w / self.weight[sym]) * math.log(out / w)
        return info

    def word_sets(self) -> dict[str, list[int]]:
        """Token counts of the words containing each phoneme, in entry order:
        sorted entries make each word's node before any longer word's."""
        sets: dict[str, list[int]] = defaultdict(list)
        for word, children in self.edge.items():
            if END_MARKER in children:
                for p in set(word):
                    sets[p].append(children[END_MARKER])
        return sets


class LexicalGains(NamedTuple):
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

    H(W|o), the plug-in entropy of the words that begin with o, follows
    from the chain rule H(W|o) = sum_s (w/W)(ln(W/w) + H(W|o+s)) over o's
    children, with no cancellation; a word end (leaf) has entropy 0.  A
    node enters the tree after its parent, so one sweep of the edges in
    reverse reaches children first.  The lexicon is homophone-free, so the
    gains weighted by transition probability sum to the lexical entropy.
    """
    tree = _PrefixTree(lexicon)
    word_entropy: dict[Word, float] = {}
    for prefix, children in reversed(tree.edge.items()):
        out = sum(children.values())
        word_entropy[prefix] = sum(
            (w / out) * (math.log(out / w) + word_entropy.get(prefix + (sym,), 0.0))
            for sym, w in children.items()
        )

    total_tokens = sum(tree.edge[()].values())
    gains: dict[tuple[str, Word], float] = {}
    weighted_total = 0.0
    phoneme_weight: dict[str, float] = defaultdict(float)
    phoneme_sum: dict[str, float] = defaultdict(float)
    for prefix, children in tree.edge.items():
        for sym, w in children.items():
            gain = word_entropy[prefix] - word_entropy.get(prefix + (sym,), 0.0)
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
        lexical_entropy=word_entropy[()],
        weighted_total=weighted_total,
    )


class _IncidenceTable(NamedTuple):
    probs: Mapping[str, float]


class IncidenceTable(_IncidenceTable):
    """Cross-linguistic incidence probability per phoneme, each in (0, 1]."""

    __slots__ = ()

    def __new__(cls, probs: Mapping[str, float]):
        for p, v in probs.items():
            if not (0.0 < v <= 1.0):
                raise DomainError(f"incidence probability for {p!r} must lie in (0, 1], got {v}")
        return super().__new__(cls, dict(probs))

    @classmethod
    def _make(cls, fields):  # _replace builds through _make: check there too
        return cls(*fields)


class FeatureTable(NamedTuple):
    """Per-phoneme features and renormalized observed probabilities, each
    column an ``array('d')`` in phoneme order."""

    phonemes: tuple[str, ...]
    observed_prob: array
    cost: array
    seg_info: array
    lex_div: array
    excluded: tuple[str, ...]
    coverage: float

    def feature_matrix(self) -> np.ndarray:
        import numpy as np

        return np.column_stack([self.cost, self.seg_info, self.lex_div])


class ConstraintVector(NamedTuple):
    c1: float
    c2: float
    c3: float

    def as_array(self) -> np.ndarray:
        import numpy as np

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
    tree = _PrefixTree(lexicon)
    weight = tree.weight
    occurring = sorted(weight, key=lambda p: (-weight[p], p))
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
    total = sum(weight.values())
    probs = {p: weight[p] / total for p in matched}
    mass = sum(probs.values())
    observed = array("d", [probs[p] / mass for p in matched])
    cost = array("d", [-math.log(incidence.probs[p]) for p in matched])
    seg_info = tree.segmental_information()
    word_sets = tree.word_sets()
    seg = array("d", [seg_info[p] for p in matched])
    lex = array("d", [cwj_estimate(word_sets[p]) for p in matched])
    return FeatureTable(
        phonemes=tuple(matched),
        observed_prob=observed,
        cost=cost,
        seg_info=seg,
        lex_div=lex,
        excluded=excluded,
        coverage=coverage,
    )


def _dot(xs: Iterable[float], ys: Iterable[float]) -> float:
    """Sum of x*y, correctly rounded.  A float is an integer over a power of
    two, so the products add up exactly over their largest denominator."""
    terms = [(float(x).as_integer_ratio(), float(y).as_integer_ratio()) for x, y in zip(xs, ys)]
    den = max((b * d for (_, b), (_, d) in terms), default=1)
    return sum(a * c * (den // (b * d)) for (a, b), (c, d) in terms) / den


def constraint_expectations(table: FeatureTable) -> ConstraintVector:
    """Observed expectations of the three features (targets for maxent),
    each the correctly rounded dot product with the observed probabilities."""
    p = table.observed_prob
    return ConstraintVector(
        c1=_dot(p, table.cost),
        c2=_dot(p, table.seg_info),
        c3=_dot(p, table.lex_div),
    )
