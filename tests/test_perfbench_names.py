"""Every function the benchmark's tracer wraps by name exists in the library.

perfbench/tracing.py binds its TIMED and COUNTED (module, attribute) pairs
with setattr when a traced run starts, so a renamed or deleted function
breaks only that run.  The tuples are read from the file's syntax tree by
tools/reach.py's tracer_names, without importing the benchmark.
"""

import importlib

from helpers import reach_tool


def test_every_traced_name_resolves():
    pairs = reach_tool().tracer_names()
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
