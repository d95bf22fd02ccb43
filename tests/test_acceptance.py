"""Acceptance suite: one test per criterion, at its stated time budget.

Run with -s to see the per-criterion lines; each prints claim, verdict,
and elapsed time, and fails unless the verdict is `verified` within budget.
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

from torsorlab import checks as pc

# sha256 of the seed-0 suite's results as sorted-key JSON; a refactor that
# changes any verdict or evidence byte changes it
SUITE_SHA256 = "46382c16ca389658cd57e7405c38b2a03cee7d0c71c5eac9438350b70b1454cd"


def run_check(fn, criterion, budget_seconds, **kw):
    t0 = time.time()
    result = fn(**kw)
    elapsed = time.time() - t0
    line = (
        f"criterion {criterion:2d} {result.claim:42s} "
        f"{result.verdict:10s} {elapsed:7.2f}s (budget {budget_seconds}s)"
    )
    print(line)
    assert result.verdict == "verified", line
    assert elapsed < budget_seconds, line
    return result


def test_criterion_01_extraspecial_structure():
    r = run_check(pc.check_extraspecial_structure, 1, 1.0)
    for l in (3, 5):
        ev = r.evidence[f"l={l}"]
        assert ev["order"] == l**3
        assert ev["center_size"] == l
        assert len(ev["fiber_classes"]) == l
        assert ev["centralizer_order"] == l * l


def test_criterion_02_block_decomposition():
    r = run_check(pc.check_block_decomposition, 2, 5.0)
    assert sorted(r.evidence["S3"]["block_ranks"]) == [1, 2, 3]
    assert sorted(r.evidence["D4"]["block_ranks"]) == [1, 1, 2, 2, 2]
    assert r.evidence["C1"]["block_ranks"] == [1]


def test_criterion_03_permutation_h1():
    r = run_check(pc.check_permutation_h1_vanishing, 3, 60.0)
    assert r.evidence["checked"] >= 500
    assert not r.evidence["failures"]


def test_criterion_04_character_sequences():
    r = run_check(pc.check_character_sequences, 4, 30.0)
    assert r.evidence["data_checked"] >= 50
    assert not r.evidence["failures"]


def test_criterion_05_cm_type_bases():
    r = run_check(pc.check_cm_type_bases, 5, 30.0)
    assert r.evidence["types_checked"] >= 200
    assert not r.evidence["failures"]


def test_criterion_06_twist_bijection():
    r = run_check(pc.check_twist_bijection, 6, 60.0)
    assert len(r.evidence) >= 3  # at least three sequences
    for rows in r.evidence.values():
        assert len(rows) >= 2  # at least two base objects each
        for row in rows:
            assert row["bijective"] and row["neutral_to_base"]


def test_criterion_07_truncated_orbits():
    r = run_check(pc.check_truncated_orbit_transitivity, 7, 120.0, seed=0)
    assert r.evidence["systems"] == 50
    assert r.evidence["orbit_failures"] == 0
    assert r.evidence["scan_systems"] >= 5
    assert r.evidence["scan_choices"] >= 20


# criterion 7 under `python -O`, which strips assert statements, and its
# negative controls: a transport that misses the basepoint must still refute,
# and h1_nonabelian must still reject an action that is not by automorphisms
_OPTIMIZED_CRITERION_07 = """
import dataclasses, json
from torsorlab import checks, cohomology, groups, invsys
assert False, "assert statements must be stripped"
result = checks.check_truncated_orbit_transitivity(seed=0)
invsys._transport = lambda groups, maps, x, y: (0,) * (len(groups) + 1)
control = checks.check_truncated_orbit_transitivity(seed=0, count=3)
bad = cohomology.GammaGroup(groups.cyclic_group(2), groups.cyclic_group(4),
                            [(0, 1, 2, 3), (0, 1, 3, 2)], validate=False)
try:
    h1 = cohomology.h1_nonabelian(bad.gamma, bad).count
except cohomology.NotAction:
    h1 = "NotAction"
print(json.dumps([dataclasses.asdict(result), control.verdict, h1]))
"""


def _env(**extra):
    # this checkout's src first, so a subprocess imports the code under test
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_criterion_07_without_asserts():
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CRITERION_07],
                          capture_output=True, text=True, timeout=600, env=_env())
    assert proc.returncode == 0, proc.stderr
    optimized, control, h1 = json.loads(proc.stdout)
    here = pc.check_truncated_orbit_transitivity(seed=0)
    assert optimized["verdict"] == here.verdict == "verified"
    assert optimized["evidence"] == json.loads(json.dumps(here.evidence))
    assert control == "refuted"
    # an action that is not by automorphisms raises, and yields no H^1 count
    assert h1 == "NotAction"


def test_criterion_08_lim1_dichotomy():
    r = run_check(pc.check_lim1_dichotomy, 8, 120.0)
    assert r.evidence["halving-subgroup-chain"] == "uncountable"
    assert r.evidence["identity-endomorphism"] == "trivial"
    assert r.evidence["layered-obstruction-tower"] == "uncountable"
    assert r.evidence["certificate-replay-identical"]
    lv = r.evidence["certificate"]["levels"][0]
    assert lv["norm_unit_index"] == 3


def test_criterion_09_splitting_dual_oracle():
    r = run_check(pc.check_splitting_dual_oracle, 9, 60.0, seed=0)
    assert r.evidence["comparisons"] >= 500
    assert not r.evidence["mismatches"]
    assert r.evidence["sum_rule"]


def test_criterion_10_tame_norm_index():
    r = run_check(pc.check_tame_norm_index, 10, 1.0)
    assert r.evidence["cases"] > 30
    assert r.evidence["all_equal_l"]


def test_criterion_11_product_h1():
    r = run_check(pc.check_product_h1, 11, 60.0)
    assert len(r.evidence) == 4
    for row in r.evidence:
        assert row["bijective"]
        prod = 1
        for c in row["factor_counts"]:
            prod *= c
        assert row["product_count"] == prod


# sha256 of the stdout of `torsor-lab suite checks`, the whole report
SUITE_CHECKS_STDOUT_SHA256 = "dee73a1079b9ac58a43d272065e04c4f956d7fb1bea3e0aaaa9919174e5f02b2"


def test_suite_is_deterministic():
    # the second run is the CLI's `suite checks` in another process, with
    # another hash seed and with asserts stripped (python -O): no verdict may
    # rest on an assert, and the report is pinned byte for byte
    other = subprocess.Popen([sys.executable, "-O", "-m", "torsorlab.cli", "suite", "checks"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=_env(PYTHONHASHSEED="123"))
    entries = json.dumps([dataclasses.asdict(r) for r in pc.run_suite(seed=0)],
                         sort_keys=True)
    out, err = other.communicate(timeout=600)
    assert other.returncode == 0, err.decode()
    assert hashlib.sha256(out).hexdigest() == SUITE_CHECKS_STDOUT_SHA256
    assert json.loads(out)["evidence"]["entries"] == json.loads(entries)
    assert hashlib.sha256(entries.encode()).hexdigest() == SUITE_SHA256
