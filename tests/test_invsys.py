import json
import math
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

from torsorlab import catalog
from torsorlab import cohomology as co
from torsorlab import groups as gr
from torsorlab import invsys as iv
from torsorlab import linalg as la
from torsorlab import numtheory as nt
from helpers import (NotMaterializable, lattice_eq, lattice_index, perfbench_workloads,
                     truncate)


def constant_system(g, length):
    return iv.ExplicitFinite(
        tuple([g] * (length + 1)), tuple([gr.identity_hom(g)] * length)
    )


def test_truncate_constant_endo():
    rec = iv.ConstantEndo((0,), ((2,),))
    levels = truncate(rec, 3)
    assert len(levels) == 4
    assert all(rel == (0,) for rel, _ in levels)
    assert all(mat == ((2,),) for _, mat in levels)


def test_truncate_norm_tower_not_materializable():
    rec = iv.NormTower((nt.AbelianFieldDatum(7, (1, 6)),))
    with pytest.raises(NotMaterializable):
        truncate(rec, 2)


def test_lim1_truncated_single_orbit():
    c2 = gr.cyclic_group(2)
    sys = constant_system(c2, 2)
    rep = iv.lim1_truncated(sys)
    assert rep.orbit_count == 1
    assert rep.verified_mode == "exhaustive"
    assert rep.set_size == rep.checked_pairs == 8
    # S4 over four levels: 331,776 tuples, each replayed, in 3 * 24^2 + 24 steps
    big = constant_system(gr.symmetric_group(4), 3)
    rep = iv.lim1_truncated(big, budget=3 * 24 ** 2 + 24)
    assert rep == _reference_lim1(big)
    assert rep.orbit_count == 1 and rep.checked_pairs == rep.set_size == 24 ** 4


def test_lim1_truncated_refuses_a_walk_above_its_budget():
    # the step count is read off the orders before any step is taken
    system = constant_system(gr.symmetric_group(4), 3)
    steps = 3 * 24 ** 2 + 24
    with pytest.raises(co.BudgetExceeded):
        iv.lim1_truncated(system, budget=steps - 1)
    assert iv.lim1_truncated(system, budget=steps).orbit_count == 1
    with pytest.raises(co.BudgetExceeded):
        iv.lim1_truncated(constant_system(gr.cyclic_group(2), 2), budget=9)


def _identity_step(g, push, x, y):
    # wrong on purpose: a_n = 1 carries x_n to x_n push^-1, not to y_n
    return 0


def test_lim1_truncated_counts_failed_transports(monkeypatch):
    # negative control: transports that miss the basepoint show no single orbit
    monkeypatch.setattr(iv, "_transport_step", _identity_step)
    rep = iv.lim1_truncated(constant_system(gr.cyclic_group(2), 2))
    assert rep.verified_mode == "exhaustive" and rep.checked_pairs == 8
    assert rep.failed_transports == 7  # all but the basepoint itself
    assert rep.orbit_count != 1
    big = constant_system(gr.symmetric_group(4), 3)
    rep = iv.lim1_truncated(big)
    assert rep == _reference_lim1(big)
    assert 0 < rep.failed_transports < rep.set_size and rep.orbit_count != 1


_OPTIMIZED_LIM1 = """
import json
from torsorlab import groups as gr, invsys as iv
assert False, "assert statements must be stripped"
c2 = gr.cyclic_group(2)
sys = iv.ExplicitFinite((c2,) * 3, (gr.identity_hom(c2),) * 2)
good = iv.lim1_truncated(sys)
iv._transport_step = lambda g, push, x, y: 0
bad = iv.lim1_truncated(sys)
print(json.dumps([[r.orbit_count, r.checked_pairs, r.failed_transports]
                  for r in (good, bad)]))
"""


def test_lim1_truncated_counts_failed_transports_without_asserts():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_LIM1],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    good, bad = json.loads(proc.stdout)
    assert good == [1, 8, 0]
    assert bad == [0, 8, 7]


def test_criterion_7_refutes_failed_transports(monkeypatch):
    from torsorlab import checks as pc

    monkeypatch.setattr(iv, "_transport_step", _identity_step)
    r = pc.check_truncated_orbit_transitivity(seed=0, count=3)
    assert r.verdict == "refuted"
    assert r.evidence["orbit_failures"] == 3


def _reference_lim1(system):
    # the per-tuple check that the level walk replaced, as arrays over every
    # tuple of the product: each tuple is transported whole, top down, and
    # its whole image under the action a_n x_n f_n(a_{n+1})^-1 is compared
    # with the basepoint, a_{N+1} mapping to the top by the identity.  The
    # transport step is read as a table over (push, x_n), so a patched step
    # is what the oracle transports by too
    groups, maps = system.groups, system.maps
    N = len(groups) - 1
    xs = np.indices([g.order for g in groups]).reshape(N + 1, -1)
    total = xs.shape[1]
    up = np.zeros(total, dtype=np.int64)  # a_{N+1}
    moved = []
    for n in range(N, -1, -1):
        g = groups[n]
        step = np.array([[iv._transport_step(g, p, x, 0) for x in g.elements()]
                         for p in g.elements()])
        rows, inv = np.array(g.rows), np.array(g.inverses)
        push = np.array(maps[n].map)[up] if n < N else up
        a = step[push, xs[n]]
        moved.append(rows[rows[a, xs[n]], inv[push]])
        up = a
    failed = int(np.count_nonzero(np.any(np.array(moved) != 0, axis=0)))
    return iv.Lim1Orbits(0 if failed else 1, total, failed)


_SMALL = [g for _, g in catalog.group_catalog(12)]


def _random_levels(rng, length):
    # at most 20,000 tuples each
    while True:
        groups = [_SMALL[rng.randrange(len(_SMALL))] for _ in range(length + 1)]
        if math.prod(g.order for g in groups) <= 20000:
            return groups


def _random_hom_system(rng, length):
    groups = _random_levels(rng, length)
    maps = []
    for i in range(length):
        homs = co.all_homs(groups[i + 1], groups[i])
        maps.append(homs[rng.randrange(len(homs))])
    return iv.ExplicitFinite(tuple(groups), tuple(maps))


def _random_set_map_system(rng, length):
    # arbitrary set maps: neither homomorphisms nor identity-preserving
    groups = _random_levels(rng, length)
    maps = tuple(
        gr.GroupHom(groups[i + 1], groups[i],
                    tuple(rng.randrange(groups[i].order) for _ in groups[i + 1].elements()),
                    validate=False)
        for i in range(length))
    return iv.ExplicitFinite(tuple(groups), maps)


def test_lim1_truncated_matches_per_tuple_reference_on_homomorphisms():
    rng = random.Random(15)
    for _ in range(40):
        system = _random_hom_system(rng, rng.randint(1, 4))
        rep = iv.lim1_truncated(system)
        assert rep == _reference_lim1(system)
        assert rep.orbit_count == 1 and rep.checked_pairs == rep.set_size


def test_lim1_truncated_matches_per_tuple_reference_on_set_maps():
    rng = random.Random(8)
    for _ in range(30):
        system = _random_set_map_system(rng, rng.randint(1, 4))
        rep = iv.lim1_truncated(system)
        assert rep == _reference_lim1(system)
        # the transport equation is solvable for any maps
        assert rep.orbit_count == 1 and rep.failed_transports == 0


def test_lim1_truncated_matches_reference_under_a_step_wrong_at_one_level(monkeypatch):
    # the step is wrong at one level, for some x_n (and pushes) only: the
    # level walk must count exactly the tuples the per-tuple loop fails
    right = iv._transport_step
    rng = random.Random(3)
    seen = set()
    for trial in range(30):
        length = rng.randint(1, 4)
        system = (_random_hom_system if trial % 2 else _random_set_map_system)(rng, length)
        k = rng.randint(0, length)
        # a copy of level k's group, equal but not identical, marks that level
        marked = gr.FiniteGroup(system.groups[k].rows)
        groups = system.groups[:k] + (marked,) + system.groups[k + 1:]
        maps = tuple(
            gr.GroupHom(groups[i + 1], groups[i], u.map, validate=False)
            for i, u in enumerate(system.maps))
        system = iv.ExplicitFinite(groups, maps)
        bad = {x for x in marked.elements() if rng.random() < 0.4}

        def wrong(g, push, x, y):
            a = right(g, push, x, y)
            if g is marked and x in bad and (push + x) % 3:
                return (a + 1) % g.order
            return a

        monkeypatch.setattr(iv, "_transport_step", wrong)
        rep = iv.lim1_truncated(system)
        assert rep == _reference_lim1(system)
        seen.add(0 < rep.failed_transports < rep.set_size)
        monkeypatch.setattr(iv, "_transport_step", right)
    assert True in seen  # some trials fail a proper, nonempty share of tuples


def _benchmark_lim1_systems(seed):
    """The lim1 systems of the benchmark's tables-primes workload at seed."""
    with perfbench_workloads() as workloads:
        cases = workloads.build("tables-primes", seed)
    return [iv.ExplicitFinite(tuple(groups), tuple(
        gr.GroupHom(groups[i + 1], groups[i], m) for i, m in enumerate(maps)))
        for groups, maps in (c.args for c in cases if c.kind == "lim1")]


def test_large_benchmark_systems_are_walked_whole(monkeypatch):
    # the 13 seed-1 systems above the benchmark's 50,000, which a 200-tuple
    # sample once stood for, each within the benchmark's budget in steps
    large = [s for s in _benchmark_lim1_systems(1)
             if math.prod(g.order for g in s.groups) > 50000]
    assert len(large) == 13
    for system in large:
        rep = iv.lim1_truncated(system, budget=50000)
        assert rep == _reference_lim1(system)
        assert rep.orbit_count == 1 and rep.checked_pairs == rep.set_size
    monkeypatch.setattr(iv, "_transport_step", _identity_step)
    for system in large:
        rep = iv.lim1_truncated(system, budget=50000)
        assert rep == _reference_lim1(system)
        assert rep.failed_transports > 0 and rep.orbit_count == 0


def test_lim1_truncated_takes_one_step_per_state_and_element(monkeypatch):
    # the level walk: at most |G_{n+1}| states times |G_n| elements per level
    # below the top, and |G_N| steps at the top; a per-tuple replay would
    # take (N + 1) steps for each of the >= 10^4 tuples
    rng = random.Random(1)
    groups = (gr.cyclic_group(12), gr.symmetric_group(3), gr.cyclic_group(8),
              gr.dihedral_group(4), gr.cyclic_group(4))
    maps = tuple(co.all_homs(groups[i + 1], groups[i])[-1 - rng.randrange(2)]
                 for i in range(len(groups) - 1))
    system = iv.ExplicitFinite(groups, maps)
    calls = [0]
    right = iv._transport_step

    def counted(g, push, x, y):
        calls[0] += 1
        return right(g, push, x, y)

    monkeypatch.setattr(iv, "_transport_step", counted)
    rep = iv.lim1_truncated(system)
    assert rep.set_size >= 10 ** 4
    assert rep.checked_pairs == rep.set_size and rep.orbit_count == 1
    bound = sum(groups[n + 1].order * groups[n].order
                for n in range(len(groups) - 1)) + groups[-1].order
    assert calls[0] <= bound < rep.set_size


def _act(groups, maps, a, x):
    # the lim^1 action a_n x_n f_n(a_{n+1})^-1, a_{N+1} mapping to the top
    # by the identity
    N = len(groups) - 1
    return tuple(g.mul(g.mul(a[n], x[n]), g.inv(maps[n](a[n + 1]) if n < N else a[N + 1]))
                 for n, g in enumerate(groups))


def test_lim1_truncated_brute_force_orbit_scan():
    # independent oracle: BFS the actual orbit of the basepoint
    c2 = gr.cyclic_group(2)
    c4 = gr.cyclic_group(4)
    proj = gr.GroupHom(c4, c2, (0, 1, 0, 1))
    groups = (c2, c4)
    maps = (proj,)
    base = (0, 0)
    frontier = [base]
    seen = {base}
    gens = []
    for lvl, g in enumerate(list(groups) + [groups[-1]]):
        for a in g.elements():
            if a:
                tup = [0, 0, 0]
                tup[lvl] = a
                gens.append(tuple(tup))
    while frontier:
        new = []
        for x in frontier:
            for a in gens:
                y = _act(groups, maps, a, x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    assert len(seen) == 8  # the whole product: one orbit
    rep = iv.lim1_truncated(iv.ExplicitFinite(groups, maps))
    assert rep.orbit_count == 1 and rep.set_size == 8


def test_ml_explicit_finite_always_holds():
    c4 = gr.cyclic_group(4)
    dbl = gr.GroupHom(c4, c4, (0, 2, 0, 2))
    sys = iv.ExplicitFinite((c4, c4, c4), (dbl, dbl))
    v = iv.ml_check(sys)
    assert v.holds


def test_ml_constant_endo():
    doubling = iv.ConstantEndo((0,), ((2,),))
    v = iv.ml_check(doubling)
    assert v.fails
    assert v.certificate["index"] == 2
    ident = iv.ConstantEndo((0,), ((1,),))
    assert iv.ml_check(ident).holds
    neg = iv.ConstantEndo((0,), ((-1,),))
    assert iv.ml_check(neg).holds
    finite = iv.ConstantEndo((4,), ((2,),))
    assert iv.ml_check(finite).holds
    # rank drop then stabilization: projection matrix
    proj = iv.ConstantEndo((0, 0), ((1, 0), (0, 0)))
    assert iv.ml_check(proj).holds
    # mixed: strict on one free coordinate
    mixed = iv.ConstantEndo((0, 0), ((2, 0), (0, 1)))
    assert iv.ml_check(mixed).fails


def test_ml_subgroup_chain():
    chain = iv.SubgroupChain(1, ((2,),), ((1,),))
    v = iv.ml_check(chain)
    assert v.fails
    const = iv.SubgroupChain(1, ((1,),), ((1,),))
    assert iv.ml_check(const).holds


def _reference_chain_verdict(step, base, horizon):
    # the route _lattice_chain_verdict replaced: a column-space basis per
    # level, two-way lattice_eq, both ranks by SNF and the index by
    # coordinates; a step that does not descend is refused by containment
    prev = la.column_space_basis(base)
    if not la.lattice_contains(prev, la.matmul(step, prev)):
        raise ValueError("step does not descend the chain")
    prev_rank = len(la.elementary_divisors(prev))
    for k in range(horizon):
        nxt = la.column_space_basis(la.matmul(step, prev))
        if lattice_eq(prev, nxt):
            return iv.MLVerdict("holds", level=k, proof="image chain stabilizes")
        r = len(la.elementary_divisors(nxt))
        if r == prev_rank:
            cert = {
                "witness_level": k,
                "index": lattice_index(prev, nxt),
                "law": "strict drop at stable rank repeats under an "
                "invertible step",
            }
            return iv.MLVerdict("fails", level=k, proof="strict chain", certificate=cert)
        prev, prev_rank = nxt, r
    return iv.MLVerdict("unknown-at-horizon", level=horizon)


def _random_chain(rng, n, c, entries):
    """(step, base): a random n x n step and n x c generating matrix, whose
    columns are repeated, scaled or zeroed at random so that dependent and
    zero columns occur, and now and then the zero matrix."""
    step = tuple(tuple(rng.randint(-entries, entries) for _ in range(n)) for _ in range(n))
    cols = [[rng.randint(-entries, entries) for _ in range(n)] for _ in range(c)]
    for j in range(1, c):
        pick = rng.random()
        if pick < 0.2:
            cols[j] = [rng.choice((-2, 1, 3)) * x for x in cols[rng.randrange(j)]]
        elif pick < 0.3:
            cols[j] = [0] * n
    if rng.random() < 0.05:
        cols = [[0] * n for _ in range(c)]
    return step, la.transpose(cols)


def _verdict_or_refusal(f, *args):
    try:
        return f(*args)
    except ValueError:
        return "refused"


def _chain_verdict(n, step, base, horizon):
    """ml_check's verdict on the subgroup chain: SubgroupChain refuses a
    step that does not descend, and ml_check walks the chain through
    _lattice_chain_verdict."""
    return iv.ml_check(iv.SubgroupChain(n, step, base), horizon)


def test_lattice_chain_verdict_matches_reference():
    # raw generating matrices go in as they are; a step that does not
    # descend is refused when the chain is built (such draws were read as
    # failures with no index)
    rng = random.Random(5)
    outcomes = []
    for _ in range(300):
        n, c = rng.randint(1, 3), rng.randint(1, 4)
        step, base = _random_chain(rng, n, c, 2)
        for horizon in (1, 4):
            v = _verdict_or_refusal(_chain_verdict, n, step, base, horizon)
            assert v == _verdict_or_refusal(_reference_chain_verdict, step, base, horizon), (
                step, base)
            if v != "refused" and v.fails:
                assert v.certificate["index"] > 1
            outcomes.append(v if v == "refused" else v.status)
    assert set(outcomes) == {"holds", "fails", "unknown-at-horizon", "refused"}
    zero = ((0, 0), (0, 0))
    assert iv._lattice_chain_verdict(((2, 1), (0, 3)), zero, 4) == iv.MLVerdict(
        "holds", level=0, proof="image chain stabilizes")


def test_descent_rule_matches_containment():
    # step L ⊆ L, L the column lattice of B, exactly when [B | step B] has
    # B's rank and divisor product
    rng = random.Random(17)
    refused = 0
    for _ in range(400):
        n, c = rng.randint(1, 4), rng.randint(1, 5)
        step, base = _random_chain(rng, n, c, 4)
        descends = la.lattice_contains(base, la.matmul(step, base))
        if descends:
            iv.SubgroupChain(n, step, base)
        else:
            refused += 1
            with pytest.raises(ValueError):
                iv.SubgroupChain(n, step, base)
    assert 0 < refused < 400


def test_lim1_classify():
    assert iv.lim1_classify(iv.SubgroupChain(1, ((2,),), ((1,),))).status == "uncountable"
    assert iv.lim1_classify(iv.ConstantEndo((0,), ((1,),))).status == "trivial"
    s3sys = constant_system(gr.symmetric_group(3), 3)
    assert iv.lim1_classify(s3sys).status == "trivial"
    # products distribute
    prod = iv.Product(
        (iv.ConstantEndo((0,), ((1,),)), s3sys)
    )
    assert iv.lim1_classify(prod).status == "trivial"
    prod2 = iv.Product((prod, iv.SubgroupChain(1, ((2,),), ((1,),))))
    v = iv.lim1_classify(prod2)
    assert v.status == "uncountable"
    assert v.certificate is not None


def test_lim1_classify_norm_tower():
    tower = iv.NormTower(
        (nt.AbelianFieldDatum(1, (0,)),), law=nt.CyclotomicPowerLaw(3)
    )
    v = iv.lim1_classify(tower, horizon=4)
    assert v.status == "uncountable"
    assert v.certificate["prime"] >= 2
    const = iv.NormTower((nt.AbelianFieldDatum(7, (1, 6)),) * 3)
    assert iv.lim1_classify(const).status == "trivial"
