"""Feature extraction from phonemized lexicons.

Three per-phoneme features feed the maximum-entropy model: a physical
cost proxy (negative log cross-linguistic incidence), segmental
information (average surprisal given word-initial prefix contexts), and
lexical diversity conditioned on the phoneme (CWJ entropy of the words
containing it).  Prefix contexts are word-internal and anchored at word
start; an end-of-word marker is appended internally so every word is a
leaf of the prefix tree, but the marker is not a phoneme and gets no
features.

No tree is built: one sweep over the sorted entries, the only pass over
them, closes the prefix tree's nodes children first and holds only the
open path of the current word.  ``build_feature_table`` reads every
column off the closed nodes, and ``lexical_information_gain_exact`` each
node's word entropy off its children's.

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
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    summed), so the lexicon is homophone-free by construction, and sorted.
    Equal labels are one ``str`` object, so a lexicon holds each label once.
    """

    entries: tuple[tuple[Word, int], ...]

    @classmethod
    def build(cls, entries: Iterable[tuple[Sequence[str], int]]) -> "PhonemizedLexicon":
        merged: dict[Word, int] = {}
        labels: dict[str, str] = {}
        for seq, count in entries:
            word = tuple([labels.setdefault(p, p) for p in seq])
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


def _closed_nodes(lexicon: PhonemizedLexicon) -> Iterator[tuple[Word, dict[str, int]]]:
    """Yield ``(prefix, children)`` for every node of the lexicon's prefix
    tree over end-marker-augmented words, children before parents.

    ``children`` maps each next symbol to its token weight.  One sweep of
    the entries in ``build``'s order holds only the open path of the
    current word: a node closes once the first entry that leaves its
    subtree arrives, or at the end.  Entries out of that order raise
    ``DomainError``, since their subtrees would close early.
    """
    path: list[dict[str, int]] = [{}]  # children of the open nodes, root first
    previous: Word = ()
    for word, count in lexicon.entries:
        depth = 0  # length of the prefix shared with the previous word
        for a, b in zip(previous, word):
            if a != b:
                break
            depth += 1
        if depth == len(word) or (depth < len(previous) and word[depth] < previous[depth]):
            raise DomainError("lexicon entries must be distinct and sorted, as build leaves them")
        for closing in range(len(previous), depth, -1):
            yield previous[:closing], path.pop()
        path.extend([{} for _ in range(len(word) - depth)])
        for children, sym in zip(path, word + (END_MARKER,)):
            children[sym] = children.get(sym, 0) + count
        previous = word
    for closing in range(len(previous), -1, -1):
        yield previous[:closing], path.pop()


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
    children, with no cancellation; a word end (leaf) has entropy 0.  Each
    node closes after its children, so its H(W|o) comes from theirs, which
    are then dropped.  The lexicon is homophone-free, so the gains
    weighted by transition probability sum to the lexical entropy.
    """
    closed: dict[Word, float] = {}  # H(W|o) of closed nodes whose parent is open
    gains: dict[tuple[str, Word], float] = {}
    # each symbol's transition weights and gains, summed below by _dot, so
    # that the order in which nodes close rounds nothing
    weights: dict[str, list[int]] = defaultdict(list)
    symbol_gains: dict[str, list[float]] = defaultdict(list)
    for prefix, children in _closed_nodes(lexicon):
        out = sum(children.values())
        below = {sym: closed.pop(prefix + (sym,), 0.0) for sym in children}
        entropy = sum(
            (w / out) * (math.log(out / w) + below[sym]) for sym, w in children.items()
        )
        for sym, w in children.items():
            gain = entropy - below[sym]
            gains[(sym, prefix)] = gain
            weights[sym].append(w)
            symbol_gains[sym].append(gain)
        closed[prefix] = entropy
    per_phoneme = {
        p: _dot(weights[p], symbol_gains[p]) / sum(weights[p])
        for p in sorted(weights)
        if p != END_MARKER
    }
    # the root closes last, so out is the lexicon's token total
    weighted = _dot(
        chain.from_iterable(weights.values()), chain.from_iterable(symbol_gains.values())
    )
    return LexicalGains(
        gains=gains,
        per_phoneme=per_phoneme,
        lexical_entropy=closed[()],
        weighted_total=weighted / out,
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
    weight: dict[str, int] = defaultdict(int)
    surprisal: dict[str, float] = defaultdict(float)  # sum of w ln(out/w)
    word_sets: dict[str, list[int]] = defaultdict(list)
    for prefix, children in _closed_nodes(lexicon):
        out = sum(children.values())
        for sym, w in children.items():
            if sym == END_MARKER:
                for p in set(prefix):
                    word_sets[p].append(w)
            else:
                weight[sym] += w
                if w != out:  # a lone child adds w ln 1 = 0
                    surprisal[sym] += w * math.log(out / w)
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
    seg = array("d", [surprisal[p] / weight[p] for p in matched])
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
