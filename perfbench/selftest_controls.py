"""Negative controls: every answer check can say "failed".

    python3 -m pytest perfbench/selftest_controls.py

For each case kind, a real case must pass its check and a known-bad answer
must fail it; the controls the benchmark is required to flag are the sign
lattice of C2 (H^1 = Z/2), a set of type sums that is not a basis, and a
tampered splitting pair.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from torsorlab import groups as gr  # noqa: E402
from torsorlab import lattices as lat  # noqa: E402


def _first_case(workload, kind, pick=lambda c: True):
    return next(c for c in wl.build(workload, 1) if c.kind == kind and pick(c))


def _answer(case):
    _, answer, ok, err = run.run_case(case)
    assert ok, (case.key, err)
    return answer


def test_h1_check_flags_sign_lattice_of_c2(monkeypatch):
    """A shapiro case whose lattice is the sign lattice of C2 (H^1 = Z/2) fails."""
    c2 = gr.cyclic_group(2)
    case = wl.Case("shapiro", ("shapiro", "C2", (0,)), ("C2", c2, (0,)))
    assert run.run_case(case)[1:3] == ((), True)
    sign = lat.ZGLattice(c2, [[[1]], [[-1]]])
    monkeypatch.setattr(wl.lat, "permutation_lattice", lambda gset: sign)
    _, answer, ok, err = run.run_case(case)
    assert answer == (2,) and not ok and err is None


def test_cm_type_check_flags_sets_that_are_not_bases():
    case = _first_case("serre-lattices", "cm-type", lambda c: c.args[1].order == 8)
    in_lattice, is_basis, vectors = _answer(case)
    doubled = (tuple(2 * x for x in vectors[0]),) + vectors[1:]  # index 2 sublattice
    repeated = (vectors[1],) + vectors[1:]  # rank drops
    for bad in (doubled, repeated):
        assert not wl.check_cm_type(case.args, (True, True, bad))
    assert not wl.check_cm_type(case.args, (True, False, vectors))


def test_split_check_flags_tampered_pair():
    case = _first_case("tables-primes", "split")
    ded, ab, degree = _answer(case)
    (e, f), rest = ded[0], ded[1:]
    assert not wl.check_split(case.args, (((e, f + 1),) + rest, ab, degree))
    assert not wl.check_split(case.args, (ded, ((e + 1, f),) + rest, degree))
    assert not wl.check_split(case.args, (ded, ded, degree + 1))


TAMPER = {
    "sequence": lambda a: ((a[0][0] + 1,) + a[0][1:],) + a[1:],
    "blocks": lambda a: a[:3] + (a[3] + (1,), a[4] + 1),
    "lim1": lambda a: (2,) + a[1:],
    "product": lambda a: (a[0] + 1,) + a[1:],
    "twist": lambda a: (False,) + a[1:],
}


@pytest.mark.parametrize("workload,kind", [
    ("serre-lattices", "sequence"),
    ("serre-lattices", "blocks"),
    ("tables-primes", "lim1"),
    ("tables-primes", "product"),
    ("tables-primes", "twist"),
])
def test_every_check_can_fail(workload, kind):
    case = _first_case(workload, kind)
    check = wl.KINDS[kind][2]
    answer = _answer(case)
    assert check(case.args, answer)
    assert not check(case.args, TAMPER[kind](answer))


def test_a_raising_case_counts_as_failed():
    case = wl.Case("split", ("split", -1, 8, (1,), 2), (8, (1,), 2))  # 2 ramifies in Q(zeta_8)
    _, answer, ok, err = run.run_case(case)
    assert not ok and answer is None and err


def test_split_pool_has_no_index_divisor():
    """No seed can draw a (m, H, p) on which Dedekind's test gives up."""
    from torsorlab import numtheory as nt

    for m in wl.CONDUCTORS:
        for h in wl.split_fields(m):
            fld = nt.AbelianFieldDatum(m, h)
            poly = nt.abelian_defining_polynomial(fld)
            for p in wl.SPLIT_PRIMES:
                if m % p:
                    assert nt.dedekind_split(poly, p).pairs == nt.abelian_split(fld, p).pairs


def test_case_sets_and_digest_repeat_for_a_seed():
    for name in wl.WORKLOADS:
        a, b = wl.build(name, 7), wl.build(name, 7)
        assert [c.key for c in a] == [c.key for c in b]
    keys = [c.key for c in wl.build("tables-primes", 7)]
    assert keys != [c.key for c in wl.build("tables-primes", 8)]
    rows = [(("x", 1), (True, 2)), (("x", 0), (False, 1))]
    assert wl.digest(rows) == wl.digest(rows[::-1])


def test_benchmark_json_lists_what_the_runs_report():
    import tracing

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
