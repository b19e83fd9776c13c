"""Readers for the on-disk formats consumed by the CLI.

All files are UTF-8, tab-separated text; blank lines and lines starting
with ``#`` are skipped.  Phoneme labels are opaque strings normalized to
NFC on ingest.  Counts are non-negative integers no larger than 2**63-1,
and so are the token totals of frequency tables and lexicons, so that no
int64 sum downstream can wrap.  A malformed row raises IngestError naming
``path:lineno``; a file that cannot be read or holds no data row raises
it naming ``path``.
"""

from __future__ import annotations

import math
import unicodedata
from pathlib import Path
from typing import Iterator, Literal

import numpy as np

from .corpus import FeatureTable, IncidenceTable, PhonemizedLexicon
from .entropy import CountVector
from .errors import DomainError, IngestError

__all__ = [
    "load_feature_table",
    "load_fit_points",
    "load_frequency_table",
    "load_incidence",
    "load_lexicon",
]

_INT64_MAX = 2**63 - 1


def _nfc(s: str) -> str:
    return unicodedata.normalize("NFC", s)


def _rows(
    path: str | Path,
    columns: tuple[str, ...],
    header: Literal["none", "optional", "required"] = "none",
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, cells)`` for each data row, split on tabs.

    A header row is the first non-comment row whose stripped cells equal
    ``columns``; a required header that is missing is an error.  Every
    data row must have ``len(columns)`` cells.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"{path}: {exc}") from exc
    layout = "\t".join(columns)
    pending_header = header != "none"
    seen_data = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        cells = line.split("\t")
        if pending_header:
            pending_header = False
            if [c.strip() for c in cells] == list(columns):
                continue
            if header == "required":
                raise IngestError(f"{path}:{lineno}: expected header {layout!r}, got {line!r}")
        if len(cells) != len(columns):
            raise IngestError(
                f"{path}:{lineno}: expected {len(columns)} columns {layout!r}, "
                f"got {len(cells)} in {line!r}"
            )
        seen_data = True
        yield lineno, cells
    if not seen_data:
        raise IngestError(f"{path}: no data rows")


def _count(path: str | Path, lineno: int, text: str, name: str = "count") -> int:
    """Parse a non-negative integer count no larger than 2**63-1."""
    try:
        value = int(text)
    except ValueError as exc:
        raise IngestError(f"{path}:{lineno}: {name} {text!r} is not an integer") from exc
    if value < 0:
        raise IngestError(f"{path}:{lineno}: negative {name} {value}")
    if value > _INT64_MAX:
        raise IngestError(f"{path}:{lineno}: {name} exceeds 2**63-1")
    return value


def _check_total(path: str | Path, total: int) -> None:
    if total > _INT64_MAX:
        raise IngestError(f"{path}: token total exceeds 2**63-1")


def load_frequency_table(path: str | Path) -> CountVector:
    """Read `phoneme<TAB>count` rows into a CountVector."""
    counts: dict[str, int] = {}
    for lineno, (label, count_text) in _rows(path, ("phoneme", "count")):
        label = _nfc(label.strip())
        count = _count(path, lineno, count_text)
        if label in counts:
            raise IngestError(f"{path}:{lineno}: duplicate phoneme {label!r}")
        counts[label] = count
    _check_total(path, sum(counts.values()))
    try:
        return CountVector(counts)
    except DomainError as exc:
        raise IngestError(f"{path}: {exc}") from exc


def load_lexicon(path: str | Path) -> PhonemizedLexicon:
    """Read `count<TAB>phoneme phoneme ...` rows into a lexicon."""
    entries = []
    for lineno, (count_text, phonemes) in _rows(path, ("count", "phonemes")):
        count = _count(path, lineno, count_text)
        word = tuple(_nfc(p) for p in phonemes.split() if p)
        if not word:
            raise IngestError(f"{path}:{lineno}: empty word")
        if count == 0:
            raise IngestError(f"{path}:{lineno}: non-positive count 0")
        entries.append((word, count))
    _check_total(path, sum(count for _, count in entries))
    try:
        return PhonemizedLexicon.build(entries)
    except DomainError as exc:
        raise IngestError(f"{path}: {exc}") from exc


_INCIDENCE_HEADER = ("phoneme", "languages_with", "languages_total")


def load_incidence(path: str | Path) -> IncidenceTable:
    """Read the incidence TSV; p_i = languages_with / languages_total."""
    probs: dict[str, float] = {}
    for lineno, (label, with_text, total_text) in _rows(
        path, _INCIDENCE_HEADER, header="required"
    ):
        label = _nfc(label.strip())
        with_count = _count(path, lineno, with_text, "languages_with")
        total = _count(path, lineno, total_text, "languages_total")
        if with_count <= 0 or with_count > total:
            raise IngestError(
                f"{path}:{lineno}: need 0 < languages_with <= languages_total, "
                f"got {with_count}/{total}"
            )
        if label in probs:
            raise IngestError(f"{path}:{lineno}: duplicate phoneme {label!r}")
        probs[label] = with_count / total
    return IncidenceTable(probs)


_FEATURE_HEADER = ("phoneme", "observed_prob", "cost", "seg_info", "lex_div")


def load_feature_table(path: str | Path) -> FeatureTable:
    """Read a feature TSV as written by `phonodist features`."""
    phonemes, rows = [], []
    for lineno, cells in _rows(path, _FEATURE_HEADER, header="required"):
        label = _nfc(cells[0].strip())
        if label in phonemes:
            raise IngestError(f"{path}:{lineno}: duplicate phoneme {label!r}")
        phonemes.append(label)
        try:
            values = [float(v) for v in cells[1:]]
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: non-numeric feature value") from exc
        if not all(map(math.isfinite, values)):
            raise IngestError(f"{path}:{lineno}: non-finite feature value")
        rows.append(values)
    if len(phonemes) < 2:
        raise IngestError(f"{path}: need at least 2 phoneme rows")
    data = np.array(rows)
    probs = data[:, 0]
    if np.any(probs <= 0) or abs(probs.sum() - 1.0) > 1e-6:
        raise IngestError(f"{path}: observed_prob column must be positive and sum to 1")
    return FeatureTable(
        phonemes=tuple(phonemes),
        observed_prob=probs / probs.sum(),
        cost=data[:, 1],
        seg_info=data[:, 2],
        lex_div=data[:, 3],
        excluded=(),
        coverage=1.0,
    )


def load_fit_points(path: str | Path) -> list[tuple[float, float]]:
    """Read `n<TAB>alpha_hat` rows (optional header) for the regression."""
    points = []
    for lineno, (n_text, alpha_text) in _rows(path, ("n", "alpha_hat"), header="optional"):
        try:
            n, alpha = float(n_text), float(alpha_text)
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: non-numeric fit row") from exc
        if not (0 < n < math.inf and 0 < alpha < math.inf):  # also rejects nan
            raise IngestError(f"{path}:{lineno}: n and alpha_hat must be finite and > 0")
        points.append((n, alpha))
    if len(points) < 3:
        raise IngestError(f"{path}: regression needs at least 3 fit rows")
    return points
