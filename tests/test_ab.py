"""tools/ab.py: the interleaved A/B run, read against its own checkout."""

import json
import shutil
import subprocess
import sys

from helpers import TOOLS

ROOT = TOOLS.parent


def _ab(parent, *args):
    return subprocess.run([sys.executable, str(TOOLS / "ab.py"), str(parent), *args],
                          capture_output=True, text=True, timeout=300)


def test_a_checkout_against_itself_answers_alike_on_every_workload():
    proc = _ab(ROOT, "--passes", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert set(result["workloads"]) == {"h1-permutation", "serre-lattices", "tables-primes"}
    for sides in result["workloads"].values():
        assert set(sides) == {"a", "b"}
        for side in sides.values():
            assert side["cases_per_s"] > 0 and side["case_p50_ms"] <= side["case_tail_ms"]
    kinds = result["workloads"]["tables-primes"]["a"]["kind_sum_ms"]
    assert set(kinds) == {"lim1", "product", "split", "twist"}


def test_a_parent_that_answers_otherwise_exits_1(tmp_path):
    # the parent's copy of the library reports one more invariant for every
    # Shapiro case: its check fails and the two sides' answers differ
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    workloads = tmp_path / "perfbench" / "workloads.py"
    text = workloads.read_text()
    old = "return tuple(int(d) for d in raw.invariants)"
    assert old in text
    workloads.write_text(text.replace(old, "return tuple(int(d) for d in raw.invariants) + (2,)"))
    proc = _ab(tmp_path, "--workload", "h1-permutation", "--passes", "1")
    assert proc.returncode == 1
    assert "the two sides answer differently" in proc.stdout
    assert json.loads(proc.stdout.splitlines()[-1])["failed"] == 2 * 747
