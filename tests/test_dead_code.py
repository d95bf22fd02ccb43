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


def _scope_of(fn):
    """The nodes of fn's own scope: nested functions, lambdas and classes are
    scopes of their own."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def test_every_local_is_read():
    # a name a function assigns must be read in that function or in a scope
    # nested in it; names starting with _ are exempt
    unread = []
    for path in sorted((ROOT / "src" / "torsorlab").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            shared = {name for n in ast.walk(fn)
                      if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
            for node in _scope_of(fn):
                if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                        and not node.id.startswith("_")
                        and node.id not in read | shared):
                    unread.append(f"{path.name}:{node.lineno}:{fn.name}:{node.id}")
    assert not unread, sorted(set(unread))
