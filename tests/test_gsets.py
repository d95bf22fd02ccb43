import itertools
import random

import numpy as np
import pytest

from torsorlab import catalog
from torsorlab import groups as gr
from torsorlab import gsets as gs
from helpers import disjoint_union, regular_gset, trivial_gset


def brute_iso_scan(x, y):
    """Oracle: try every per-orbit base-point assignment; equivariant maps on
    a transitive orbit are determined by the image of one point."""
    if x.size != y.size:
        return None
    dx, dy = gs.orbits(x), gs.orbits(y)
    xorbs, yorbs = dx.orbit_sets, dy.orbit_sets
    if len(xorbs) != len(yorbs):
        return None
    for perm in itertools.permutations(range(len(yorbs))):
        if any(len(xorbs[i]) != len(yorbs[perm[i]]) for i in range(len(xorbs))):
            continue
        choices = [yorbs[perm[i]] for i in range(len(xorbs))]
        for targets in itertools.product(*choices):
            mapping = [-1] * x.size
            ok = True
            for oi, orb in enumerate(xorbs):
                base, tgt = orb[0], targets[oi]
                for g in x.group.elements():
                    p, q = x.apply(g, base), y.apply(g, tgt)
                    if mapping[p] == -1:
                        mapping[p] = q
                    elif mapping[p] != q:
                        ok = False
                        break
                if not ok:
                    break
            if ok and sorted(mapping) == list(range(y.size)):
                return tuple(mapping)
    return None


def test_orbit_stabilizer_s3_conjugation():
    s3 = gr.symmetric_group(3)
    x = gs.conjugation_twist(s3)
    dec = gs.orbits(x)
    assert dec.orbit_sets == gr.conjugacy_classes(s3)
    assert sorted(len(o) for o in dec.orbit_sets) == [1, 2, 3]
    # stabilizer of the minimal point of each orbit is its centralizer
    for orb, stab in dec.orbits:
        assert stab == gr.centralizer(s3, orb[0])
        assert len(orb) * len(stab) == s3.order


def test_trivial_and_regular():
    g = gr.cyclic_group(4)
    t = trivial_gset(g, 3)
    dec = gs.orbits(t)
    assert all(len(o) == 1 for o in dec.orbit_sets)
    assert all(len(s) == 4 for s in dec.stabilizers)
    r = regular_gset(g)
    dec = gs.orbits(r)
    assert len(dec.orbits) == 1
    assert dec.stabilizers[0] == (0,)


def test_coset_gset():
    s3 = gr.symmetric_group(3)
    h = gr.generated_subgroup(s3, [1])  # order 2
    x = gs.coset_gset(s3, h)
    assert x.size == 3
    dec = gs.orbits(x)
    assert len(dec.orbits) == 1
    assert set(dec.stabilizers[0]) == set(h)
    assert gs.coset_gset(s3, tuple(s3.elements())).size == 1
    assert gs.coset_gset(s3, (0,)) == regular_gset(s3)
    with pytest.raises(gr.NotSubgroup):
        gs.coset_gset(s3, (0, 2))


def test_an_index_outside_the_group_is_no_subgroup():
    # a negative index would wrap around the table, and one past the order
    # would raise IndexError: is_subgroup, coset_gset's only guard on its
    # input, refuses both
    c1, c2 = gr.trivial_group(), gr.cyclic_group(2)
    for g, h in ((c1, (0, -1)), (c2, (0, 1, -1)), (c1, (0, 1)), (c2, (0, 1, 2))):
        assert not gr.is_subgroup(g, h)
        with pytest.raises(gr.NotSubgroup):
            gs.coset_gset(g, h)


def test_an_element_that_is_no_int_is_no_subgroup_element():
    # 1.0 would raise TypeError at the table, '1' at the sort of the cosets,
    # and True equals 1, so (0, True) would pass as all of C2
    c2 = gr.cyclic_group(2)
    for h in ((0, 1.0), (0, "1"), (0, True), (False, 1)):
        assert not gr.is_subgroup(c2, h)
        with pytest.raises(gr.NotSubgroup):
            gs.coset_gset(c2, h)
    assert gr.is_subgroup(c2, (0, 1))


def test_conjugation_twist_matches_classes():
    for g in [gr.heisenberg_group(3)[0].group, gr.dihedral_group(4)]:
        x = gs.conjugation_twist(g)
        assert gs.orbits(x).orbit_sets == gr.conjugacy_classes(g)
    ab = gr.cyclic_group(6)
    assert gs.conjugation_twist(ab) == trivial_gset(ab, 6)


def test_gset_iso_identity_and_failure():
    s3 = gr.symmetric_group(3)
    x = gs.coset_gset(s3, gr.generated_subgroup(s3, [1]))
    m = gs.gset_iso(x, x)
    assert m is not None
    reg = regular_gset(s3)
    two_orbits = disjoint_union(
        gs.coset_gset(s3, gr.generated_subgroup(s3, [1])),
        gs.coset_gset(s3, gr.generated_subgroup(s3, [3])),
    )
    assert two_orbits.size == reg.size
    assert gs.gset_iso(reg, two_orbits) is None
    assert brute_iso_scan(reg, two_orbits) is None


def test_gset_iso_conjugate_stabilizers():
    s3 = gr.symmetric_group(3)
    # two point stabilizers of order 2 are conjugate, cosets isomorphic
    a = gs.coset_gset(s3, gr.generated_subgroup(s3, [1]))
    b = gs.coset_gset(s3, gr.generated_subgroup(s3, [3]))
    m = gs.gset_iso(a, b)
    assert m is not None
    assert brute_iso_scan(a, b) is not None


def test_gset_iso_agrees_with_brute_scan():
    groups = [gr.symmetric_group(3), gr.cyclic_group(4), gr.dihedral_group(4)]
    for g in groups:
        subs = gr.all_subgroups(g)
        sets = [gs.coset_gset(g, h) for h in subs if g.order // len(h) <= 6]
        sets.append(trivial_gset(g, 2))
        for x in sets:
            for y in sets:
                if x.size > 12 or y.size > 12:
                    continue
                mine = gs.gset_iso(x, y)
                brute = brute_iso_scan(x, y)
                assert (mine is None) == (brute is None)
                if mine is not None:
                    for t in g.elements():
                        for p in x.points():
                            assert mine[x.apply(t, p)] == y.apply(t, mine[p])


def test_class_vs_embedded_class_as_gsets():
    # a conjugacy class of the factor, viewed inside the product with C2,
    # is isomorphic to the embedded class as a G-set
    f = gr.symmetric_group(3)
    c2 = gr.cyclic_group(2)
    g = gr.direct_product(f, c2)
    conj_g = gs.conjugation_twist(g)
    # class C of a 3-cycle in the factor, acted on via projection
    cls = [c for c in gr.conjugacy_classes(f) if len(c) == 2][0]
    proj = tuple(x % f.order for x in g.elements())
    action = np.array(
        [[cls.index(f.conj(proj[t], x)) for x in cls] for t in g.elements()],
        dtype=np.int64,
    )
    c_as_gset = gs.GSet(g, action)
    # C1 = {(tau, 1)} inside the product under conjugation
    c1_points = tuple(x for x in cls)  # embedding (tau, 1) has index tau
    c1 = gs.sub_gset(conj_g, c1_points)
    # C_iota = {(tau, iota)}
    ci_points = tuple(x + f.order for x in cls)
    ci = gs.sub_gset(conj_g, ci_points)
    assert gs.gset_iso(c_as_gset, c1) is not None
    assert gs.gset_iso(c1, ci) is not None


def test_descent_orbit_decomposition():
    # `gset descent` reads one factor per orbit off `orbits`: its degree is
    # the orbit size, |G| over the stabilizer order
    def factors(x):
        return [(len(orb), len(stab)) for orb, stab in gs.orbits(x).orbits]

    s3 = gr.symmetric_group(3)
    assert factors(gs.coset_gset(s3, gr.generated_subgroup(s3, [1]))) == [(3, 2)]
    assert factors(trivial_gset(s3, 4)) == [(1, 6)] * 4
    assert factors(gs.GSet(gr.cyclic_group(2), [[0, 1], [1, 0]])) == [(2, 1)]


def test_orbits_reject_a_table_that_is_no_action():
    # g = 1 swaps 0 and 1 in C3, so the stabilizer {0, 2} of point 0 is no
    # subgroup; raised, not asserted, so python -O sees it too
    c3 = gr.cyclic_group(3)
    x = gs.GSet(c3, ((0, 1, 2), (1, 0, 2), (0, 1, 2)), validate=False)
    with pytest.raises(gs.InvalidAction):
        gs.orbits(x)


def test_generator_check_refutes_every_single_entry_change():
    """GSet checks action[s*h] == action[s] o action[h] only for s in
    generating_set: a changed entry in the row of any non-identity element of
    a coset action must still be caught.  The one-point action of H = G has
    no other in-range table, so it is left out."""
    rng = random.Random(0)
    checked = 0
    for _, g in catalog.group_catalog(24):
        for h in gr.all_subgroups(g):
            x = gs.coset_gset(g, h)
            m = x.size
            if m == 1:
                continue
            for t in range(1, g.order):
                table = [list(row) for row in x.action]
                i = rng.randrange(m)
                table[t][i] = (table[t][i] + rng.randrange(1, m)) % m
                with pytest.raises(gs.InvalidAction):
                    gs.GSet(g, table)
                checked += 1
    assert checked > 5000
