"""Every Python file parses under the oldest Python that pyproject.toml allows."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_file_parses_at_the_requires_python_floor():
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text).groups()
    floor = int(major), int(minor)
    paths = [p for d in ("src", "tests", "perfbench", "tools")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert paths
    bad = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=floor)
        except SyntaxError as e:
            bad.append(f"{path.relative_to(ROOT)}:{e.lineno}: {e.msg}")
    assert not bad, bad


def test_feature_version_rejects_newer_syntax():
    # exception groups came with 3.11, so a 3.10 parse must refuse them
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
