"""Checks on the test oracles themselves: they stay independent of the
library's formulas, and they fail loudly under `python -O`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent

# the library's types and enumerations; no formula, and so not the shared
# degree-table walk (`_walk`, `_times`) or its steps (`_added`, `_monomial_terms`)
ALLOWED_IMPORTS = {"ClassFunction", "class_types", "Form", "Partition", "enumerate_standard"}


def test_oracles_import_only_types_and_enumerations():
    tree = ast.parse((TESTS / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "younglab":
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.split(".")[0] == "younglab"}
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in ("__import__", "import_module"):
                imported.add(name)
    assert imported <= ALLOWED_IMPORTS, sorted(imported - ALLOWED_IMPORTS)


# psi^(2,2) of degree 4 with its value at the identity class raised by 1
CORRUPTED = """
import sys
if __debug__:
    sys.exit("assert statements are on")
from oracles import orthogonalization_oracle, theorem1_components_oracle
from younglab.characters import ClassFunction, perm_character
from younglab.partitions import enumerate_partitions
psis = {lam: perm_character(lam) for lam in enumerate_partitions(4)}
rows, chis = orthogonalization_oracle(4, psis)
bad = psis[(2, 2)].values
psis[(2, 2)] = ClassFunction(4, bad[:-1] + (bad[-1] + 1,))
try:
    CALL
except AssertionError:
    sys.exit(3)
"""


@pytest.mark.parametrize("call", [
    "orthogonalization_oracle(4, psis)",
    "theorem1_components_oracle((2, 2), psis, rows, chis)",
], ids=["orthogonalization", "theorem1-components"])
def test_a_broken_step_fails_under_python_O(call):
    root = TESTS.parent
    done = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED.replace("CALL", call)],
        cwd=root, env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS), str(root / "src")])),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 3, (done.returncode, done.stderr)
