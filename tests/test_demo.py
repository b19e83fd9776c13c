import os
import subprocess
import sys
from pathlib import Path

import phonodist

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "demo.py"


def test_demo_runs_end_to_end():
    # a fresh interpreter, as a user would run it, against the package under test
    src = Path(phonodist.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(DEMO)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    sections = [line for line in proc.stdout.splitlines() if line.startswith("== ")]
    assert sections == [
        "== scaling law ==",
        "== reconstruction, n=11 ==",
        "== per-language fits and pooled regression ==",
        "== maxent over the toy lexicon ==",
    ]
    assert "implied law: alpha(n) = " in proc.stdout
    assert "multipliers (cost, seg_info, lex_div): " in proc.stdout
