"""One verdict rule: every check of the suite reads its verdict from the
fold in `checks` (VERDICTS, worst, verdict), and no other code there
decides one."""

import ast
import pathlib

import pytest

from torsorlab import checks as pc

CHECKS = pathlib.Path(pc.__file__).read_text()


@pytest.mark.parametrize("findings, want", [
    ([], "verified"),
    ([True, True], "verified"),
    ([True, None], "unknown-at-horizon"),
    ([None, False, True], "refuted"),
    ([False, None], "refuted"),
    ([None, None], "unknown-at-horizon"),
    ([1, 0], "refuted"),
])
def test_findings_fold_to_their_worst_verdict(findings, want):
    assert pc.verdict(findings) == want


def test_verdicts_fold_in_the_order_of_VERDICTS():
    assert pc.worst([]) == "verified"
    assert pc.worst(["verified", "unknown-at-horizon"]) == "unknown-at-horizon"
    assert pc.worst(["unknown-at-horizon", "error", "verified"]) == "error"
    assert pc.worst(["error", "refuted", "unknown-at-horizon"]) == "refuted"
    assert pc.worst(iter(["verified"] * 3)) == "verified"
    with pytest.raises(ValueError):
        pc.worst(["ok"])


# (top-level name, the verdict strings it may spell): the fold, and the
# entry run_suite makes for a check that raised
_ALLOWED = {"VERDICTS": set(pc.VERDICTS), "worst": set(pc.VERDICTS),
            "verdict": set(pc.VERDICTS), "run_suite": {"error"}}


def _verdict_deciders(source) -> list:
    """(line, owner) of every verdict string spelled outside _ALLOWED, and of
    every local rebound from a boolean expression that reads it (ok = ok and
    ...), bound to True/False or and-ed or or-ed in place (ok &= ...): the
    accumulators findings replace."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None) or next(
            (t.id for t in getattr(top, "targets", ()) if isinstance(t, ast.Name)), None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Constant) and node.value in pc.VERDICTS
                    and node.value not in _ALLOWED.get(owner, ())):
                found.append((node.lineno, owner))
            if isinstance(node, ast.Assign) and isinstance(top, ast.FunctionDef):
                names = {t.id for t in node.targets if isinstance(t, ast.Name)}
                read = {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
                if ((isinstance(node.value, ast.BoolOp) and names & read)
                        or (isinstance(node.value, ast.Constant)
                            and isinstance(node.value.value, bool))):
                    found.append((node.lineno, owner))
            if isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.BitAnd, ast.BitOr)):
                found.append((node.lineno, owner))
    return found


def test_only_the_fold_decides_a_verdict_in_checks():
    assert _verdict_deciders(CHECKS) == []


@pytest.mark.parametrize("planted", [
    "def check_x():\n    ok = f()\n    return 'verified' if ok else 'refuted'\n",
    "def check_x():\n    ok = True\n    for c in cases():\n        ok = ok and c\n",
    "def check_x():\n    good = f()\n    good = g() and good\n",
    "def check_x():\n    ok = f()\n    ok &= g()\n",
    "def run_suite():\n    return 'unknown-at-horizon'\n",
    "DEFAULT = 'refuted'\n",
])
def test_the_guard_sees_a_planted_decider(planted):
    assert _verdict_deciders(CHECKS + "\n\n" + planted)
