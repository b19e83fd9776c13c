"""Table-driven ingest tests for the five readers in phonodist.io.

Every malformed input must raise IngestError whose message starts with
``path:lineno:`` when one row is at fault, or ``path:`` when the file as a
whole is (missing, undecodable, empty, too few rows).
"""

import unicodedata

import pytest

from phonodist import cli, io
from phonodist.errors import IngestError

INT64_MAX = 2**63 - 1
HUGE = 10**30

INCIDENCE_HEADER = "phoneme\tlanguages_with\tlanguages_total\n"
FEATURE_HEADER = "phoneme\tobserved_prob\tcost\tseg_info\tlex_div\n"
FEATURE_ROWS = "a\t0.6\t1.0\t0.5\t0.2\nb\t0.4\t2.0\t0.3\t0.1\n"

LOADERS = {
    "frequency": io.load_frequency_table,
    "lexicon": io.load_lexicon,
    "incidence": io.load_incidence,
    "features": io.load_feature_table,
    "fit_points": io.load_fit_points,
}

VALID = {
    "frequency": "a\t10\nb\t5\n",
    "lexicon": "3\ta b\n2\tb a c\n",
    "incidence": INCIDENCE_HEADER + "a\t3\t10\nb\t10\t10\n",
    "features": FEATURE_HEADER + FEATURE_ROWS,
    "fit_points": "11\t1.2\n40\t0.4\n160\t0.1\n",
}

E_COMPOSED = "é"
E_DECOMPOSED = unicodedata.normalize("NFD", E_COMPOSED)

# (loader, file text, 1-based line at fault or None for a whole-file error)
BAD = {
    # wrong column count
    "frequency-three-columns": ("frequency", "a\t10\nb\t5\t1\n", 2),
    "frequency-no-tab": ("frequency", "a 10\n", 1),
    "lexicon-one-column": ("lexicon", "3\ta b\n2\n", 2),
    "lexicon-three-columns": ("lexicon", "3\ta b\tc\n", 1),
    "incidence-two-columns": ("incidence", INCIDENCE_HEADER + "a\t3\n", 2),
    "features-four-columns": ("features", FEATURE_HEADER + "a\t0.6\t1.0\t0.5\n", 2),
    "fit-three-columns": ("fit_points", "11\t1.2\t3\n40\t0.4\n160\t0.1\n", 1),
    # non-integer count
    "frequency-word-count": ("frequency", "a\t10\nb\tten\n", 2),
    "frequency-float-count": ("frequency", "a\t1.5\nb\t2\n", 1),
    "lexicon-word-count": ("lexicon", "3\ta b\nx\ta\n", 2),
    "incidence-word-count": ("incidence", INCIDENCE_HEADER + "a\tthree\t10\n", 2),
    "incidence-float-total": ("incidence", INCIDENCE_HEADER + "a\t3\t10.0\n", 2),
    # negative or zero count
    "frequency-negative": ("frequency", "a\t10\nb\t-1\n", 2),
    "lexicon-negative": ("lexicon", "-2\ta b\n", 1),
    "lexicon-zero": ("lexicon", "3\ta b\n0\ta\n", 2),
    "incidence-negative-with": ("incidence", INCIDENCE_HEADER + "a\t-1\t10\n", 2),
    "incidence-negative-total": ("incidence", INCIDENCE_HEADER + "a\t3\t-10\n", 2),
    "incidence-zero-with": ("incidence", INCIDENCE_HEADER + "a\t0\t10\n", 2),
    "incidence-with-above-total": ("incidence", INCIDENCE_HEADER + "a\t11\t10\n", 2),
    # duplicate label (also after NFC normalization)
    "frequency-duplicate": ("frequency", "a\t1\nb\t2\na\t3\n", 3),
    "frequency-duplicate-nfc": ("frequency", f"{E_COMPOSED}\t1\n{E_DECOMPOSED}\t2\n", 2),
    "incidence-duplicate": ("incidence", INCIDENCE_HEADER + "a\t1\t2\nb\t1\t2\na\t2\t2\n", 4),
    "features-duplicate": ("features", FEATURE_HEADER + FEATURE_ROWS + "a\t0.1\t1\t1\t1\n", 4),
    # empty word
    "lexicon-blank-word": ("lexicon", "3\ta b\n2\t   \n", 2),
    "lexicon-empty-word": ("lexicon", "3\t\n", 1),
    # non-numeric values
    "features-non-numeric": ("features", FEATURE_HEADER + "a\tx\t1.0\t0.5\t0.2\n", 2),
    "features-nan-prob": ("features", FEATURE_HEADER + FEATURE_ROWS + "c\tnan\t1\t1\t1\n", 4),
    "features-inf-cost": ("features", FEATURE_HEADER + "a\t0.6\tinf\t0.5\t0.2\n", 2),
    "fit-non-numeric": ("fit_points", "11\tx\n40\t0.4\n160\t0.1\n", 1),
    "fit-wrong-header": ("fit_points", "size\talpha\n11\t1.2\n40\t0.4\n160\t0.1\n", 1),
    # missing or wrong header
    "incidence-no-header": ("incidence", "a\t3\t10\nb\t10\t10\n", 1),
    "incidence-wrong-header": ("incidence", "phoneme\twith\ttotal\na\t3\t10\n", 1),
    "incidence-header-after-comments": ("incidence", "# note\n\nphoneme\twith\ttotal\n", 3),
    "features-no-header": ("features", FEATURE_ROWS, 1),
    "features-wrong-header": (
        "features", FEATURE_HEADER.replace("lex_div", "lexdiv") + FEATURE_ROWS, 1
    ),
    # header only, empty, comments only, too few rows
    "incidence-header-only": ("incidence", INCIDENCE_HEADER, None),
    "features-header-only": ("features", FEATURE_HEADER, None),
    "features-one-row": ("features", FEATURE_HEADER + "a\t1.0\t1.0\t0.5\t0.2\n", None),
    "features-probs-not-normalized": (
        "features", FEATURE_HEADER + "a\t0.6\t1.0\t0.5\t0.2\nb\t0.6\t2.0\t0.3\t0.1\n", None
    ),
    "fit-two-rows": ("fit_points", "11\t1.2\n40\t0.4\n", None),
    "fit-header-only": ("fit_points", "n\talpha_hat\n", None),
    **{f"{kind}-empty": (kind, "", None) for kind in LOADERS},
    **{f"{kind}-comments-only": (kind, "# nothing\n\n  \n", None) for kind in LOADERS},
    # counts above 2**63 - 1, singly or in total
    "frequency-count-1e30": ("frequency", f"a\t10\nb\t{HUGE}\n", 2),
    "frequency-count-int64-plus-one": ("frequency", f"a\t10\nb\t{INT64_MAX + 1}\n", 2),
    "frequency-total-above-int64": (
        "frequency", f"a\t{INT64_MAX}\nb\t{INT64_MAX}\nc\t7\n", None
    ),
    "lexicon-count-1e30": ("lexicon", f"{HUGE}\ta b\n", 1),
    "lexicon-total-above-int64": ("lexicon", f"{INT64_MAX}\ta\n1\tb\n", None),
    "incidence-total-1e30": ("incidence", INCIDENCE_HEADER + f"a\t1\t{HUGE}\n", 2),
}


def _write(tmp_path, text: str | bytes):
    path = tmp_path / "input.tsv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return path


def _assert_location(exc: IngestError, path, lineno: int | None) -> None:
    where = f"{path}:{lineno}: " if lineno is not None else f"{path}: "
    assert str(exc).startswith(where), str(exc)


@pytest.mark.parametrize("kind", sorted(VALID))
def test_valid_file_loads(tmp_path, kind):
    LOADERS[kind](_write(tmp_path, VALID[kind]))


@pytest.mark.parametrize("case", sorted(BAD))
def test_malformed_input_names_its_location(tmp_path, case):
    kind, text, lineno = BAD[case]
    path = _write(tmp_path, text)
    with pytest.raises(IngestError) as excinfo:
        LOADERS[kind](path)
    _assert_location(excinfo.value, path, lineno)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_non_utf8_bytes(tmp_path, kind):
    path = _write(tmp_path, VALID[kind].encode("utf-8") + b"\xff\xfe\t1\n")
    with pytest.raises(IngestError) as excinfo:
        LOADERS[kind](path)
    _assert_location(excinfo.value, path, None)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_missing_file(tmp_path, kind):
    path = tmp_path / "absent.tsv"
    with pytest.raises(IngestError) as excinfo:
        LOADERS[kind](path)
    _assert_location(excinfo.value, path, None)


def test_comments_and_blank_lines_are_skipped(tmp_path):
    text = "# header comment\n\na\t10\n   \n# between rows\nb\t5\n"
    counts = io.load_frequency_table(_write(tmp_path, text))
    assert counts.entries == {"a": 10, "b": 5}


def test_fit_points_optional_header(tmp_path):
    body = "11\t1.2\n40\t0.4\n160\t0.1\n"
    plain = io.load_fit_points(_write(tmp_path, body))
    for header in ("n\talpha_hat\n", " n \t alpha_hat \n", "# fits\nn\talpha_hat\n"):
        assert io.load_fit_points(_write(tmp_path, header + body)) == plain
    assert plain == [(11.0, 1.2), (40.0, 0.4), (160.0, 0.1)]


def test_counts_up_to_int64_are_accepted(tmp_path):
    counts = io.load_frequency_table(_write(tmp_path, f"a\t{INT64_MAX - 1}\nb\t1\n"))
    assert counts.total == INT64_MAX
    lexicon = io.load_lexicon(_write(tmp_path, f"{INT64_MAX - 1}\ta\n1\tb\n"))
    assert lexicon.total_tokens == INT64_MAX


def test_labels_are_nfc_normalized(tmp_path):
    counts = io.load_frequency_table(_write(tmp_path, f"{E_DECOMPOSED}\t1\nb\t2\n"))
    assert E_COMPOSED in counts.entries
    lexicon = io.load_lexicon(_write(tmp_path, f"2\t{E_DECOMPOSED} b\n"))
    assert lexicon.entries == (((E_COMPOSED, "b"), 2),)


@pytest.mark.parametrize(
    "command, text, where",
    [
        ("estimate-entropy", f"a\t{INT64_MAX}\nb\t{INT64_MAX}\nc\t7\n", ""),
        ("estimate-entropy", f"a\t10\nb\t{HUGE}\n", ":2"),
        ("fit-alpha", f"a\t10\nb\t{HUGE}\n", ":2"),
        ("report", f"a\t10\nb\t{HUGE}\n", ":2"),
    ],
    ids=["estimate-entropy-total", "estimate-entropy-1e30", "fit-alpha-1e30", "report-1e30"],
)
def test_cli_rejects_counts_above_int64(tmp_path, capsys, command, text, where):
    path = _write(tmp_path, text)
    assert cli.main([command, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}{where}: ")
    assert captured.err.count("\n") == 1


def test_cli_rejects_lexicon_count_above_int64(tmp_path, capsys):
    lexicon = tmp_path / "huge.lex"
    lexicon.write_text(f"{HUGE}\ta b\n", encoding="utf-8")
    incidence = _write(tmp_path, INCIDENCE_HEADER + "a\t3\t10\nb\t10\t10\n")
    assert cli.main(["features", str(lexicon), str(incidence)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {lexicon}:1: ")
    assert captured.err.count("\n") == 1
