"""Byte identity of the CLI artifacts on the bundled fixtures, and of the
engine digests.

Reruns every call of scripts/cli_digest.py and compares its exit code,
stdout, stderr and -o file with the text committed under tests/golden/,
one JSON file per call, each output kept as its list of lines.  A change
that moves an artifact on purpose rewrites the golden files from its own
tree in the same commit:

    PYTHONPATH=src python3 tests/test_golden.py

Builds the digests of scripts/moments_digest.py and scripts/maxent_digest.py
in process and compares them line by line with tests/golden/<script>.txt,
whose first line names the numpy version and machine that made it; each
script's docstring says how to rewrite its file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import phonodist

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
TEXT = ("stdout", "stderr", "out")


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _records():
    """The calls' artifacts, each text field split into its lines."""
    src = Path(phonodist.__file__).resolve().parents[1]
    return [
        {**record, **{field: None if record[field] is None else record[field].splitlines(True)
                      for field in TEXT}}
        for record in _script("cli_digest").run_calls(src)
    ]


def _first_change(expected, got):
    if not (isinstance(expected, list) and isinstance(got, list)):
        return f"{expected!r} -> {got!r}"
    line = next((i for i, (a, b) in enumerate(zip(expected, got)) if a != b),
                min(len(expected), len(got)))
    before = expected[line] if line < len(expected) else "<end>"
    after = got[line] if line < len(got) else "<end>"
    return f"line {line + 1}: {before!r} -> {after!r}"


def test_every_cli_artifact_matches_its_golden_file():
    golden = [json.loads(path.read_text(encoding="utf-8"))
              for path in sorted(GOLDEN.glob("*.json"))]
    records = _records()
    assert [r["argv"] for r in records] == [g["argv"] for g in golden], "the call list moved"
    moved = [f"{got['argv']}: {field} {_first_change(expected[field], got[field])}"
             for got, expected in zip(records, golden)
             for field in ("exit", *TEXT) if got[field] != expected[field]]
    assert not moved, "\n".join(moved)


@pytest.mark.parametrize("name", ["moments_digest", "maxent_digest"])
def test_engine_digest_matches_its_golden_file(name):
    made_on, *expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8").splitlines()
    script = _script(name)
    got = list(script.lines())
    if got != expected:
        platforms = f"golden {made_on!r}, this run {script.header()!r}"
        pytest.fail(f"{name} {_first_change(expected, got)} ({platforms})")


if __name__ == "__main__":
    for path in GOLDEN.glob("*.json"):
        path.unlink()
    GOLDEN.mkdir(exist_ok=True)
    for i, record in enumerate(_records(), start=1):
        name = f"{i:02d}-{record['argv'].split()[0]}.json"
        text = json.dumps(record, indent=1, ensure_ascii=False)
        (GOLDEN / name).write_text(text + "\n", encoding="utf-8")
