"""Readers for the on-disk formats consumed by the CLI.

All files are UTF-8 text; phoneme labels are opaque strings normalized
to NFC on ingest.  Malformed rows raise IngestError with a 1-based line
number.
"""

from __future__ import annotations

import math
import unicodedata
from pathlib import Path

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


def _nfc(s: str) -> str:
    return unicodedata.normalize("NFC", s)


def _read_lines(path: str | Path) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"{path}: {exc}") from exc
    return text.splitlines()


def load_frequency_table(path: str | Path) -> CountVector:
    """Read `phoneme<TAB>count` rows into a CountVector."""
    counts: dict[str, int] = {}
    seen_data = False
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise IngestError(f"{path}:{lineno}: expected `phoneme<TAB>count`, got {line!r}")
        label = _nfc(parts[0].strip())
        try:
            count = int(parts[1])
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: count {parts[1]!r} is not an integer") from exc
        if count < 0:
            raise IngestError(f"{path}:{lineno}: negative count {count}")
        if label in counts:
            raise IngestError(f"{path}:{lineno}: duplicate phoneme {label!r}")
        counts[label] = count
        seen_data = True
    if not seen_data:
        raise IngestError(f"{path}: no data rows")
    try:
        return CountVector(counts)
    except DomainError as exc:
        raise IngestError(f"{path}: {exc}") from exc


def load_lexicon(path: str | Path) -> PhonemizedLexicon:
    """Read `count<TAB>phoneme phoneme ...` rows into a lexicon."""
    entries = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise IngestError(
                f"{path}:{lineno}: expected `count<TAB>phonemes`, got {line!r}"
            )
        try:
            count = int(parts[0])
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: count {parts[0]!r} is not an integer") from exc
        word = tuple(_nfc(p) for p in parts[1].split() if p)
        if not word:
            raise IngestError(f"{path}:{lineno}: empty word")
        if count <= 0:
            raise IngestError(f"{path}:{lineno}: non-positive count {count}")
        entries.append((word, count))
    if not entries:
        raise IngestError(f"{path}: no data rows")
    try:
        return PhonemizedLexicon.build(entries)
    except DomainError as exc:
        raise IngestError(f"{path}: {exc}") from exc


_INCIDENCE_HEADER = ["phoneme", "languages_with", "languages_total"]


def load_incidence(path: str | Path) -> IncidenceTable:
    """Read the incidence TSV; p_i = languages_with / languages_total."""
    lines = [
        (i, line)
        for i, line in enumerate(_read_lines(path), start=1)
        if line.strip() and not line.startswith("#")
    ]
    if not lines:
        raise IngestError(f"{path}: empty incidence table")
    header_no, header = lines[0]
    if [h.strip() for h in header.split("\t")] != _INCIDENCE_HEADER:
        expected = "\t".join(_INCIDENCE_HEADER)
        raise IngestError(f"{path}:{header_no}: expected header {expected!r}")
    probs: dict[str, float] = {}
    for lineno, line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != 3:
            raise IngestError(f"{path}:{lineno}: expected 3 columns, got {len(parts)}")
        label = _nfc(parts[0].strip())
        try:
            with_count = int(parts[1])
            total = int(parts[2])
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: non-integer language count") from exc
        if total <= 0 or with_count <= 0 or with_count > total:
            raise IngestError(
                f"{path}:{lineno}: need 0 < languages_with <= languages_total, "
                f"got {with_count}/{total}"
            )
        if label in probs:
            raise IngestError(f"{path}:{lineno}: duplicate phoneme {label!r}")
        probs[label] = with_count / total
    if not probs:
        raise IngestError(f"{path}: no incidence rows")
    return IncidenceTable(probs)


_FEATURE_HEADER = ["phoneme", "observed_prob", "cost", "seg_info", "lex_div"]


def load_feature_table(path: str | Path) -> FeatureTable:
    """Read a feature TSV as written by `phonodist features`."""
    lines = [
        (i, line)
        for i, line in enumerate(_read_lines(path), start=1)
        if line.strip() and not line.startswith("#")
    ]
    if not lines:
        raise IngestError(f"{path}: empty feature table")
    header_no, header = lines[0]
    cols = [h.strip() for h in header.split("\t")]
    if cols != _FEATURE_HEADER:
        expected = "\t".join(_FEATURE_HEADER)
        raise IngestError(
            f"{path}:{header_no}: expected header {expected!r}, got {header!r}"
        )
    phonemes, rows = [], []
    for lineno, line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != len(_FEATURE_HEADER):
            raise IngestError(
                f"{path}:{lineno}: expected {len(_FEATURE_HEADER)} columns, got {len(parts)}"
            )
        phonemes.append(_nfc(parts[0].strip()))
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: non-numeric feature value") from exc
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
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise IngestError(f"{path}:{lineno}: expected `n<TAB>alpha_hat`")
        if [p.strip() for p in parts] == ["n", "alpha_hat"]:
            continue
        try:
            n, alpha = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: non-numeric fit row") from exc
        if not (0 < n < math.inf and 0 < alpha < math.inf):  # also rejects nan
            raise IngestError(f"{path}:{lineno}: n and alpha_hat must be finite and > 0")
        points.append((n, alpha))
    if len(points) < 3:
        raise IngestError(f"{path}: regression needs at least 3 fit rows")
    return points
