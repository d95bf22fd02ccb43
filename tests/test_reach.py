"""tools/reach.py exits 1 when a product path it runs went wrong.

The product paths are replaced by stand-ins here, so that each test runs in
well under a second: run_suite by a list of results, perfbench's workloads
by one workload of one case whose check passes or fails, and the README's
CLI commands by one command whose run returns a given exit code.
"""

from types import SimpleNamespace

from torsorlab import checks
from helpers import reach_tool


def _run(monkeypatch, capsys, verdict, case_holds, cli_code=0) -> tuple:
    """(exit code, stdout) of reach.main over stand-in product paths."""
    reach = reach_tool()
    suite = [checks.CheckResult("stand-in", 1, verdict, {})]
    monkeypatch.setattr(checks, "run_suite", lambda: suite)
    workloads = SimpleNamespace(
        WORKLOADS=("stand-in",),
        build=lambda name, seed: [SimpleNamespace(kind="k", args=())],
        KINDS={"k": (lambda args: None, lambda args, out: out, lambda args, out: case_holds)},
    )
    monkeypatch.setattr(reach, "load_workloads", lambda: workloads)
    monkeypatch.setattr(reach, "readme_commands", lambda: [("stand-in line", ["stand-in"])])
    monkeypatch.setattr(reach, "run_cli", lambda argv: (cli_code, ""))
    code = reach.main()
    return code, capsys.readouterr().out


def test_reach_exits_0_when_every_path_holds(monkeypatch, capsys):
    code, out = _run(monkeypatch, capsys, "verified", True)
    assert code == 0
    assert "# run_suite: 1 checks, 0 not verified" in out
    assert "# stand-in: 1 cases, 0 failed" in out
    assert "# README CLI: 1 commands, 0 failed" in out


def test_reach_exits_1_on_a_failed_case_or_an_unverified_check(monkeypatch, capsys):
    code, out = _run(monkeypatch, capsys, "verified", False)
    assert code == 1 and "# stand-in: 1 cases, 1 failed" in out
    for verdict in ("refuted", "error", "unknown-at-horizon"):
        code, out = _run(monkeypatch, capsys, verdict, True)
        assert code == 1 and "# run_suite: 1 checks, 1 not verified (stand-in)" in out


def test_reach_exits_1_on_a_readme_command_that_fails(monkeypatch, capsys):
    for cli_code in (1, 2, 3):
        code, out = _run(monkeypatch, capsys, "verified", True, cli_code)
        assert code == 1 and "# README CLI: 1 commands, 1 failed (stand-in line)" in out
