"""Every module-level function and class of torsorlab has a user."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_top_level_definition_is_named_elsewhere():
    words = collections.Counter(
        word
        for d in ("src", "tests", "perfbench")
        for p in sorted((ROOT / d).rglob("*.py"))
        for word in re.findall(r"\w+", p.read_text())
    )
    unused = []
    for path in sorted((ROOT / "src" / "torsorlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            # the definition itself is one occurrence
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and words[node.name] < 2:
                unused.append(f"{path.name}:{node.name}")
    assert not unused, unused
