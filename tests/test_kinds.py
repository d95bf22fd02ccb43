"""tools/kinds.py splits a timed run's summed latency by case kind, and
exits 1 when a case failed.

perfbench/run.py is replaced by a stand-in here, so that each test runs in
well under a second: its timed run returns a Replay of three cases of two
kinds, with or without a failure.
"""

import json
from types import SimpleNamespace

import pytest

from helpers import kinds_tool


def _replay(failures=()) -> SimpleNamespace:
    """Cases of kinds a, b, a with per-case scaled times in ns: the medians
    are 2, 5 and 4 ms."""
    return SimpleNamespace(
        cases=[SimpleNamespace(kind=k) for k in ("a", "b", "a")],
        scaled=[[1e6, 3e6, 2e6], [5e6], [4e6, 4e6]],
        failures=list(failures),
    )


def _main(monkeypatch, capsys, replay, *argv) -> tuple:
    """(exit code, stdout lines) of kinds.main over a stand-in run.py."""
    kinds = kinds_tool()
    run = SimpleNamespace(
        WORKLOADS=("stand-in",),
        timed_run=lambda name, seed, seconds: (replay, {"cases_per_s": {"value": 2.5}}),
    )
    monkeypatch.setattr(kinds, "load_run", lambda root: run)
    code = kinds.main(["--workload", "stand-in", *argv])
    return code, capsys.readouterr().out.splitlines()


def test_kind_sums_adds_the_scaled_medians_of_each_kind():
    assert kinds_tool().kind_sums(_replay()) == {"a": 6.0, "b": 5.0}


def test_main_exits_0_and_reports_each_kind(monkeypatch, capsys):
    code, lines = _main(monkeypatch, capsys, _replay(), "--seed", "3")
    assert code == 0
    assert lines[0] == "cases_per_s 2.5 1/s"
    assert not any(line.startswith("FAILED") for line in lines)
    assert json.loads(lines[-1]) == {
        "workload": "stand-in", "seed": 3, "cases_per_s": 2.5,
        "kinds": {"a": {"cases": 2, "sum_ms": 6.0}, "b": {"cases": 1, "sum_ms": 5.0}},
    }


def test_main_exits_1_on_a_failed_case(monkeypatch, capsys):
    code, lines = _main(monkeypatch, capsys, _replay([("b:0", "wrong answer")]))
    assert code == 1
    assert "FAILED b:0: wrong answer" in lines


def test_main_refuses_an_unknown_workload(monkeypatch, capsys):
    kinds = kinds_tool()
    monkeypatch.setattr(kinds, "load_run", lambda root: SimpleNamespace(WORKLOADS=("stand-in",)))
    with pytest.raises(SystemExit) as exit_info:
        kinds.main(["--workload", "other"])
    assert exit_info.value.code == 2
    assert "--workload must be one of stand-in" in capsys.readouterr().err
