"""Trace completeness and digest stability; each test replays whole passes.

    python3 -m pytest perfbench/selftest_trace.py      # a few minutes

The traced call count of every wrapped function over one pass must equal
cProfile's primitive call count for the same code object: a caller that
reached the function through a binding the tracer missed would show as a
shortfall.  The digest must not depend on the hash seed or on tracing.
"""

import cProfile
import os
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _original(module, attr):
    owner = sys.modules[f"torsorlab.{module}"]
    if "." in attr:
        cls, meth = attr.split(".")
        return vars(getattr(owner, cls))[meth]
    return getattr(owner, attr)


def _code(module, attr):
    fn = _original(module, attr)
    return getattr(fn, "__func__", fn).__code__


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_calls_equal_profiled_calls(workload):
    cases = wl.build(workload, 5)
    codes = {f"{m}.{a}": _code(m, a) for m, a in tracing.TIMED + tracing.COUNTED}
    tracer = tracing.Tracer()
    profile = cProfile.Profile()
    tracer.install("count")
    try:
        profile.enable()
        for case in cases:
            assert run.run_case(case)[2], case.key
        profile.disable()
    finally:
        tracer.uninstall()
    profiled = {(k[0], k[1], k[2]): v[0] for k, v in pstats.Stats(profile).stats.items()}
    wrong = {}
    for name, code in codes.items():
        want = profiled.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        if tracer.counts[name] != want:
            wrong[name] = (tracer.counts[name], want)
    assert not wrong, wrong
    assert any(tracer.counts.values())


def test_spans_and_counters_wrap_the_same_bindings():
    """The two modes find the same bindings, so the completeness test above
    covers the spans as well as the counters."""
    tracer = tracing.Tracer()
    keys = {}
    for mode in ("time", "count"):
        tracer.install(mode)
        tracer.uninstall()
        keys[mode] = {(id(owner), attr, id(orig)) for owner, attr, orig, _ in tracer.bindings[mode]}
    assert keys["time"] <= keys["count"]
    counted = {id(_original(m, a)) for m, a in tracing.COUNTED}
    assert {k[2] for k in keys["count"] - keys["time"]} == counted
    assert len(keys["time"]) > len(tracing.TIMED)  # re-exports are wrapped too


def _digest(workload, trace, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, env=env, timeout=900, check=True,
    ).stdout.splitlines()
    assert out[-1].startswith('{"correct": true'), out[-5:]
    return next(line.split()[2] for line in out if line.startswith("digest "))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_digest_ignores_hash_seed_and_tracing(workload):
    plain = _digest(workload, 0, 0)
    assert _digest(workload, 0, 1) == plain
    assert _digest(workload, 1, 2) == plain
