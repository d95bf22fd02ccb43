"""Matrices are int-tuple rows everywhere in torsorlab, the Smith-form
transforms included, so no module imports numpy; numpy is a test
dependency only.  The command line starts without numpy or sympy."""

import ast
import pathlib
import subprocess
import sys

from test_acceptance import _env

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_numpy():
    found = [
        f"{path.name}:{name}"
        for path in sorted((ROOT / "src" / "torsorlab").rglob("*.py"))
        for name in _imports(ast.parse(path.read_text()))
        if name.split(".")[0] == "numpy"
    ]
    assert not found, found
    # the scan sees a nested import
    assert "numpy.linalg" in set(_imports(ast.parse("def f():\n    import numpy.linalg\n")))


_IMPORT_CLI = """
import sys
import torsorlab.cli
print("numpy" in sys.modules, "sympy" in sys.modules)
"""


def test_importing_the_cli_loads_neither_numpy_nor_sympy():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CLI],
                          capture_output=True, text=True, timeout=120, env=_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
