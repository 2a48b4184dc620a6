"""Cross-cutting checks: the rational backend and demo scripts stay
runnable, and the names the documentation points at exist."""

import importlib
import pathlib
import re
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
dims = ss.StressSpaces(c, e).dims((1, 2, 3))
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


# a backticked dotted name, perhaps called: `stress.StressSpaces.socle`,
# ``linalg.to_modp``, `SimplicialComplex.faces(k)`
DOTTED = re.compile(r"`+([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`+")


def documented_references():
    """(where, reference, object) for each backticked dotted name in
    README.md and in each package module's docstring whose first part is
    a package module or, in a docstring, an attribute of its module; the
    object is what that first part names.  File names (``*.py``) are
    skipped."""
    modules = {p.stem: importlib.import_module(f"spherestress.{p.stem}")
               for p in sorted((ROOT / "src" / "spherestress").glob("*.py"))
               if p.stem != "__init__"}
    texts = [("README.md", (ROOT / "README.md").read_text(encoding="utf-8"), None)]
    texts += [(f"spherestress.{name}", mod.__doc__ or "", mod) for name, mod in modules.items()]
    for where, text, home in texts:
        for ref in DOTTED.findall(text):
            head = ref.split(".")[0]
            if ref.endswith(".py"):
                continue
            if head in modules:
                yield where, ref, modules[head]
            elif home is not None and hasattr(home, head):
                yield where, ref, getattr(home, head)


def test_documented_names_exist():
    refs = list(documented_references())
    assert {where for where, _, _ in refs} >= {"README.md", "spherestress.linalg"}
    missing = []
    for where, ref, obj in refs:
        for attr in ref.split(".")[1:]:
            if not hasattr(obj, attr):
                missing.append(f"{where}: {ref}")
                break
            obj = getattr(obj, attr)
    assert missing == []
