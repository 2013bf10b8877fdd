"""The benchmark's baseline script (perfbench/baseline.py) reads linalg.rref,
linalg.charpoly and linalg._to_sympy, so a refactor that drops one of them
fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_baseline_script_runs_against_the_library():
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "baseline.py")],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr + done.stdout
    lines = done.stdout.splitlines()
    assert lines[1].split() == ["what", "corrected", "raw", "unit"]
    assert [line[:32].rstrip() for line in lines[2:]] == [
        "multiply: Scalar", "multiply: bare Fraction", "product: 8 terms, degree 6",
        "bracket / product", "12x12 rref: linalg", "12x12 rref: DomainMatrix",
        "12x12 charpoly: linalg", "12x12 charpoly: DomainMatrix",
        "8 chains of 4 compose calls", "src/weylkit/*.py lines"]
