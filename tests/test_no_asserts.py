"""No check in torsorlab is an assert statement, which `python -O` strips."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_assert_statements_in_the_library():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "torsorlab").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
