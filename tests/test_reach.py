"""tools/reach.py exits 1 when a product path it runs went wrong.

The product paths are replaced by stand-ins here, so that each test runs in
well under a second: run_suite by a list of results, and perfbench's
workloads by one workload of one case whose check passes or fails.
"""

import importlib.util
import pathlib
from types import SimpleNamespace

from torsorlab import checks

REACH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "reach.py"


def _reach():
    spec = importlib.util.spec_from_file_location("reach", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(monkeypatch, capsys, verdict, case_holds) -> tuple:
    """(exit code, stdout) of reach.main over stand-in product paths."""
    reach = _reach()
    suite = [checks.CheckResult("stand-in", 1, verdict, {})]
    monkeypatch.setattr(checks, "run_suite", lambda: suite)
    workloads = SimpleNamespace(
        WORKLOADS=("stand-in",),
        build=lambda name, seed: [SimpleNamespace(kind="k", args=())],
        KINDS={"k": (lambda args: None, lambda args, out: out, lambda args, out: case_holds)},
    )
    monkeypatch.setattr(reach, "load_workloads", lambda: workloads)
    code = reach.main()
    return code, capsys.readouterr().out


def test_reach_exits_0_when_every_path_holds(monkeypatch, capsys):
    code, out = _run(monkeypatch, capsys, "verified", True)
    assert code == 0
    assert "# run_suite: 1 checks, 0 not verified" in out
    assert "# stand-in: 1 cases, 0 failed" in out


def test_reach_exits_1_on_a_failed_case_or_an_unverified_check(monkeypatch, capsys):
    code, out = _run(monkeypatch, capsys, "verified", False)
    assert code == 1 and "# stand-in: 1 cases, 1 failed" in out
    for verdict in ("refuted", "error", "unknown-at-horizon"):
        code, out = _run(monkeypatch, capsys, verdict, True)
        assert code == 1 and "# run_suite: 1 checks, 1 not verified (stand-in)" in out
