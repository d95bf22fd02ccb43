"""Every function the benchmark's tracer wraps by name exists in the library.

perfbench/tracing.py binds its TIMED and COUNTED (module, attribute) pairs
with setattr when a traced run starts, so a renamed or deleted function
breaks only that run.  The tuples are read from the file's syntax tree,
without importing the benchmark.
"""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wrapped() -> list:
    pairs = []
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id in ("TIMED", "COUNTED")
                        for t in node.targets)):
            pairs += ast.literal_eval(node.value)
    return pairs


def test_every_traced_name_resolves():
    pairs = _wrapped()
    assert len(pairs) == len(set(pairs)) > 0
    missing = []
    for module, attr in pairs:
        owner = importlib.import_module(f"torsorlab.{module}")
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name, None)
            # the tracer reads the method from the class's own namespace
            ok = isinstance(cls, type) and method in vars(cls)
        else:
            ok = callable(getattr(owner, attr, None))
        if not ok:
            missing.append(f"{module}.{attr}")
    assert not missing, missing
