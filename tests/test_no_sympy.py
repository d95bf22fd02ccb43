"""sympy is imported in one place of torsorlab, `numtheory._sympy_irreducible`,
which only a polynomial given from outside reaches; the prime-splitting
criterion runs without it."""

import ast
import pathlib
import subprocess
import sys

from test_acceptance import _env

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _sympy_imports(tree):
    """(enclosing function or None, line) of each import of sympy in tree."""
    todo = [(node, None) for node in ast.iter_child_nodes(tree)]
    while todo:
        node, scope = todo.pop()
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(name.split(".")[0] == "sympy" for name in names):
            yield scope, node.lineno
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        todo += [(child, scope) for child in ast.iter_child_nodes(node)]


def test_only_sympy_irreducible_imports_sympy():
    found = [
        (path.name, scope)
        for path in sorted((ROOT / "src" / "torsorlab").rglob("*.py"))
        for scope, _ in _sympy_imports(ast.parse(path.read_text()))
    ]
    assert found == [("numtheory.py", "_sympy_irreducible")]


def test_the_scan_sees_module_level_and_nested_imports():
    snippet = ("import sympy.polys\n"
               "def f():\n    def g():\n        from sympy import Poly\n")
    assert sorted(_sympy_imports(ast.parse(snippet)), key=lambda t: t[1]) == [
        (None, 1), ("g", 4)]


_CRITERION_09 = """
import sys
from torsorlab import checks
print(checks.check_splitting_dual_oracle().verdict, "sympy" in sys.modules)
"""


def test_criterion_09_never_imports_sympy():
    proc = subprocess.run([sys.executable, "-c", _CRITERION_09],
                          capture_output=True, text=True, timeout=300, env=_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["verified", "False"]
