"""Cross-cutting checks: the rational backend and demo scripts stay runnable."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

FRACTION_SNIPPET = """
import spherestress as ss
import spherestress.linalg as la
from fractions import Fraction
assert la.QQ is Fraction, la.QQ
c = ss.build('K-2-5').complex
e = ss.generic_embedding(c, 3)
dims = [ss.stress_dim(c, e, k) for k in (1, 2, 3)]
assert dims == [2, 3, 1], dims
rep = ss.verify_counterexample_support(1)
assert rep.reproduced
print('fractions ok')
"""


def test_fraction_backend_gives_identical_results():
    out = subprocess.run([sys.executable, "-c", FRACTION_SNIPPET],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert "fractions ok" in out.stdout


@pytest.mark.slow
@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.name)
def test_demo_runs_clean(script):
    out = subprocess.run([sys.executable, str(script)],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
