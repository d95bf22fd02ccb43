"""Matrices are int-tuple rows everywhere in torsorlab; numpy is imported by
linalg alone, for the transforms smith_normal_form returns."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_linalg_imports_numpy():
    found = [
        f"{path.name}:{name}"
        for path in sorted((ROOT / "src" / "torsorlab").rglob("*.py"))
        if path.name != "linalg.py"
        for name in _imports(ast.parse(path.read_text()))
        if name.split(".")[0] == "numpy"
    ]
    assert not found, found
    linalg = ast.parse((ROOT / "src" / "torsorlab" / "linalg.py").read_text())
    assert "numpy" in set(_imports(linalg))
