import itertools
import random

import numpy as np
import pytest

from torsorlab import catalog
from torsorlab import cohomology as co
from torsorlab import groups as gr
from torsorlab import gsets as gs
from torsorlab import lattices as lt
from torsorlab import numtheory as nt
from helpers import (all_subgroups_by_closure, is_normal_pairwise, is_subgroup_pairwise,
                     subgroup_generating_set_by_closure)


def brute_classes(g):
    # independent oracle: orbit of each element under conjugation by all
    out = set()
    for x in g.elements():
        out.add(tuple(sorted({g.mul(g.mul(t, x), g.inv(t)) for t in g.elements()})))
    return tuple(sorted(out))


def test_cyclic_and_trivial():
    c5 = gr.cyclic_group(5)
    assert c5.order == 5 and c5.is_abelian()
    assert gr.conjugacy_classes(gr.trivial_group()) == ((0,),)
    assert all(len(c) == 1 for c in gr.conjugacy_classes(c5))


def test_invalid_tables_rejected():
    with pytest.raises(gr.InvalidGroup):
        gr.FiniteGroup([[0, 1], [1, 1]])  # row not bijective
    with pytest.raises(gr.InvalidGroup):
        gr.FiniteGroup([[1, 0], [0, 1]])  # 0 not identity


def test_s3_structure():
    s3 = gr.symmetric_group(3)
    assert s3.order == 6
    cls = gr.conjugacy_classes(s3)
    assert cls == brute_classes(s3)
    assert sorted(len(c) for c in cls) == [1, 2, 3]
    assert gr.center(s3) == (0,)
    # centralizer order x class size == group order, for every element
    for c in cls:
        for x in c:
            assert len(gr.centralizer(s3, x)) * len(c) == s3.order


def test_centralizer_identity_is_whole_group():
    d4 = gr.dihedral_group(4)
    assert gr.centralizer(d4, 0) == tuple(d4.elements())
    assert gr.center(d4) == (0, 3)


def test_semidirect_trivial_theta_is_direct_product():
    c2, c3 = gr.cyclic_group(2), gr.cyclic_group(3)
    theta = tuple(tuple(range(3)) for _ in range(2))
    sp = gr.semidirect_product(gr.GammaGroup(c2, c3, theta))
    dp = gr.direct_product(c3, c2)
    assert sp.group == dp
    assert gr.center(sp.group) == tuple(sp.group.elements())


def test_semidirect_invalid_theta():
    c2, c3 = gr.cyclic_group(2), gr.cyclic_group(3)
    bad = (tuple(range(3)), (0, 0, 1))  # not bijective
    with pytest.raises(gr.NotAction):
        gr.GammaGroup(c2, c3, bad)
    # bijective but not a homomorphism C3 -> Aut(C3): order-2 value ok,
    # so break the hom law with theta(1) = inversion composed wrong
    ok_inv = (0, 2, 1)
    with pytest.raises(gr.NotAction):
        gr.GammaGroup(gr.cyclic_group(3), c3, (tuple(range(3)), ok_inv, ok_inv))


def heisenberg_facts(l):
    sp, gens = gr.heisenberg_group(l)
    g = sp.group
    a, b, c = gens["a"], gens["b"], gens["c"]
    return sp, g, a, b, c


def test_heisenberg_l3_class_structure():
    sp, g, a, b, c = heisenberg_facts(3)
    assert g.order == 27
    assert all(g.element_order(x) == 3 for x in g.elements() if x != 0)
    assert gr.center(g) == gr.generated_subgroup(g, [b])
    assert len(gr.center(g)) == 3
    cls = gr.conjugacy_classes(g)
    assert cls == brute_classes(g)
    assert len(cls) == 11
    assert sorted(len(x) for x in cls) == [1, 1, 1] + [3] * 8
    # defining relation a b = c a c^-1
    assert g.mul(a, b) == g.conj(c, a)


def test_heisenberg_l5_order_and_center():
    sp, g, a, b, c = heisenberg_facts(5)
    assert g.order == 125
    assert g.exponent() == 5
    assert len(gr.center(g)) == 5
    assert gr.center(g) == gr.generated_subgroup(g, [b])
    # class equation: l central singletons plus l^2 - 1 classes of size l
    cls = gr.conjugacy_classes(g)
    assert sorted(len(x) for x in cls) == [1] * 5 + [5] * 24


def test_heisenberg_fiber_over_c():
    for l in (3, 5):
        sp, g, a, b, c = heisenberg_facts(l)
        fib = gr.class_fiber(sp.project_q, (1,))
        assert len(fib) == l
        assert all(len(x) == l for x in fib)
        # each class is {b^k a^j c : k}, i.e. a coset of <b> inside the fiber
        bgrp = set(gr.generated_subgroup(g, [b]))
        for x in fib:
            base = x[0]
            assert set(x) == {g.mul(k, base) for k in bgrp}
        # centralizer of a^j c has order l^2 and contains b
        ac = g.mul(a, c)
        cz = gr.centralizer(g, ac)
        assert len(cz) == l * l
        assert b in cz


def test_class_fiber_trivial_cases():
    s3 = gr.symmetric_group(3)
    ident = gr.identity_hom(s3)
    for c in gr.conjugacy_classes(s3):
        assert gr.class_fiber(ident, c) == (c,)
    # fiber over identity class = classes of the kernel fused under conjugation
    q, proj = gr.quotient(s3, gr.generated_subgroup(s3, [2]))
    fib = gr.class_fiber(proj, (0,))
    assert set().union(*fib) == set(gr.generated_subgroup(s3, [2]))
    with pytest.raises(gr.NotSurjective):
        gr.class_fiber(GroupHomInj(s3), (0,))


def GroupHomInj(s3):
    c1 = gr.trivial_group()
    return gr.GroupHom(c1, s3, (0,))


def test_quotient():
    sp, g, a, b, c = heisenberg_facts(3)
    bgrp = gr.generated_subgroup(g, [b])
    q, proj = gr.quotient(g, bgrp)
    assert q.order == 9
    assert q.is_abelian()
    assert q.exponent() == 3  # C3 x C3
    assert proj.is_surjective()
    assert set(proj.kernel()) == set(bgrp)
    # G / G and G / 1
    q1, _ = gr.quotient(g, tuple(g.elements()))
    assert q1.order == 1
    q2, p2 = gr.quotient(g, (0,))
    assert q2 == g and p2.map == tuple(g.elements())
    with pytest.raises(gr.NotNormal):
        gr.quotient(gr.symmetric_group(3), gr.generated_subgroup(gr.symmetric_group(3), [1]))


def test_quaternion_and_semidihedral():
    q8 = gr.quaternion_group(8)
    assert q8.order == 8 and not q8.is_abelian()
    assert len(gr.center(q8)) == 2
    assert sorted(q8.element_order(x) for x in q8.elements()) == [1, 2, 4, 4, 4, 4, 4, 4]
    q16 = gr.quaternion_group(16)
    assert q16.order == 16 and len(gr.center(q16)) == 2
    sd = dict(catalog.group_catalog())["SD16"]
    assert sd.order == 16 and len(gr.center(sd)) == 2
    d4 = gr.dihedral_group(4)
    assert not (sd == d4)


def test_subgroup_enumeration_counts():
    # classical subgroup counts
    assert len(gr.all_subgroups(gr.alternating_group_4())) == 10
    assert len(gr.all_subgroups(gr.symmetric_group(4))) == 30
    assert len(gr.all_subgroups(gr.quaternion_group(8))) == 6
    assert len(gr.all_subgroups(gr.cyclic_group(12))) == 6
    c2 = gr.cyclic_group(2)
    assert len(gr.all_subgroups(gr.direct_product(gr.direct_product(c2, c2), c2))) == 16


def _subgroup_oracle_groups():
    yield from (g for _, g in catalog.group_catalog(24))
    for m in range(2, 101):
        units = nt.units_mod(m)
        index = {u: i for i, u in enumerate(units)}
        yield gr.FiniteGroup([[index[a * b % m] for b in units] for a in units])
    c2, s3 = gr.cyclic_group(2), gr.symmetric_group(3)
    yield gr.direct_product(gr.direct_product(c2, c2), gr.cyclic_group(4))
    yield gr.direct_product(s3, gr.cyclic_group(4))
    yield gr.direct_product(gr.quaternion_group(8), c2)
    yield gr.direct_product(s3, s3)


def test_subgroups_by_extension_match_closing_from_the_identity():
    # all_subgroups and subgroup_generating_set extend a subgroup; the
    # oracles close from {0} each time: same subgroups, same order, same
    # generating sets
    for g in _subgroup_oracle_groups():
        subgroups = gr.all_subgroups(g)
        assert subgroups == all_subgroups_by_closure(g), g
        for h in subgroups:
            assert gr.subgroup_generating_set(g, h) == subgroup_generating_set_by_closure(g, h)


def _subset_cases(rng):
    """Per catalog group of order <= 24: every subgroup, each with one
    element added or removed, and seeded random subsets."""
    for _, g in catalog.group_catalog(24):
        cases = []
        for h in gr.all_subgroups(g):
            cases.append(h)
            cases += [tuple(set(h) ^ {x}) for x in g.elements()]
        cases += [tuple(rng.sample(range(g.order), rng.randint(1, g.order))) for _ in range(50)]
        yield g, cases


def test_subgroup_and_normality_tests_match_the_pairwise_definitions():
    # is_subgroup walks generators and is_normal conjugates by generators
    # only; both must agree with every product and every conjugate
    checked = subgroups = 0
    for g, cases in _subset_cases(random.Random(1)):
        for elems in cases:
            want = is_subgroup_pairwise(g, elems)
            assert gr.is_subgroup(g, elems) == want, (g, elems)
            assert gr.is_normal(g, elems) == is_normal_pairwise(g, elems), (g, elems)
            checked += 1
            subgroups += want
    assert (checked, subgroups) == (17091, 1542)
    c2 = gr.cyclic_group(2)
    for elems in ((0, 1.0), (0, "1"), (0, True), (False, 1), (0, None), (0, -1), (0, 2), (),
                  (0, 1, 1)):
        assert gr.is_subgroup(c2, elems) == is_subgroup_pairwise(c2, elems), elems
        assert gr.is_normal(c2, elems) == is_normal_pairwise(c2, elems), elems


def test_the_subgroup_walk_is_its_own_code(monkeypatch):
    # the validator must not share _closure with all_subgroups, which builds
    # what it validates, nor read the generating set that _closure finds
    def refuse(*args):
        raise AssertionError("is_subgroup read a closure")

    s4 = gr.symmetric_group(4)
    for name in ("_closure", "generating_set", "subgroup_generating_set", "generated_subgroup"):
        monkeypatch.setattr(gr, name, refuse)
    assert gr.is_subgroup(s4, (0, 1)) and not gr.is_subgroup(s4, (0, 1, 2))


def test_a_validated_table_keeps_its_generating_set(monkeypatch):
    # validation computes the generating set, and generating_set reuses it
    table = [list(r) for r in gr.symmetric_group(4).rows]
    calls = []
    search = gr.subgroup_generating_set
    monkeypatch.setattr(gr, "subgroup_generating_set", lambda *a: calls.append(a) or search(*a))
    g = gr.FiniteGroup(table)
    assert gr.generating_set(g) == search(g, g.elements())
    assert len(calls) == 1


def test_generating_set():
    s4 = gr.symmetric_group(4)
    gens = gr.generating_set(s4)
    assert gr.generated_subgroup(s4, gens) == tuple(s4.elements())
    assert len(gens) <= 2
    c8 = gr.cyclic_group(8)
    assert gr.generating_set(c8) == (1,)
    assert gr.generating_set(gr.trivial_group()) == (0,)


def test_generators_alone_need_no_presentation():
    # generating_set is computed once per group, and is all that cocycles
    # and lattice H^1 read of the acting group
    c2, s3 = gr.cyclic_group(2), gr.symmetric_group(3)
    assert gr.generating_set(s3) is gr.generating_set(s3)
    f = co.CrossedHom.from_generators(s3, co.trivial_gamma_group(s3, c2),
                                      dict.fromkeys(gr.generating_set(s3), 0))
    assert f.values == (0,) * 6
    s4 = gr.symmetric_group(4)
    assert co.h1_abelian(s4, lt.permutation_lattice(gs.coset_gset(s4, (0, 1)))).is_trivial
    assert gr.generating_set(s4) is gr.generating_set(s4)


def test_memoized_work_calls_no_public_function(monkeypatch):
    # the first call on a group computes its generating set, the second
    # reads it; both must make the same calls to the public functions
    # (perfbench's traced runs compare call counts)
    originals = {n: getattr(gr, n) for n in ("generating_set", "generated_subgroup")}
    calls = []

    def counting(name):
        def wrapper(*args):
            calls.append(name)
            return originals[name](*args)
        return wrapper

    for mod in (gr, co, lt):
        for name, fn in originals.items():
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting(name))
    rho = lt.permutation_lattice(gs.coset_gset(gr.symmetric_group(4), (0, 1))).rho
    s4 = gr.symmetric_group(4)  # fresh objects: nothing computed yet
    m = lt.ZGLattice(s4, rho, validate=False)
    s3 = gr.symmetric_group(3)
    n = co.trivial_gamma_group(s3, gr.cyclic_group(2))
    # enumerate_cocycles checks the action first, unmemoized: check_action
    # and the automorphism loop read generating_set(s3), and the hom check of
    # each of the two generators' actions reads generating_set(c2)
    for work, count in ((lambda: co.h1_abelian(s4, m), 1),
                        (lambda: co.enumerate_cocycles(s3, n), 1 + 2 + 2)):
        runs = []
        for _ in range(2):
            calls.clear()
            work()
            runs.append(list(calls))
        assert runs[0] == runs[1] == ["generating_set"] * count


def test_hom_validation():
    c4, c2 = gr.cyclic_group(4), gr.cyclic_group(2)
    h = gr.GroupHom(c4, c2, (0, 1, 0, 1))
    assert h.is_surjective() and not h.is_injective()
    assert h.kernel() == (0, 2)
    with pytest.raises(gr.InvalidHom):
        gr.GroupHom(c4, c2, (0, 1, 1, 0))
    # values that are no element of the target
    with pytest.raises(gr.InvalidHom):
        gr.GroupHom(c4, c2, (0, 1, 2, 3))


def test_sl23():
    sl = gr.special_linear_2_3()
    assert sl.order == 24
    assert len(gr.center(sl)) == 2
    assert sorted(len(c) for c in gr.conjugacy_classes(sl)) == [1, 1, 4, 4, 4, 4, 6]


# ---------------------------------------------------------------------------
# the row tables against a numpy-table reference


class _NumpyGroup:
    """Reference: the table as a numpy array, read the way FiniteGroup read it
    before it stored int rows."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.int64)
        self.order = self.table.shape[0]

    def mul(self, a, b):
        return int(self.table[a, b])

    def inv(self, a):
        (hits,) = np.where(self.table[a] == 0)
        assert len(hits) == 1
        return int(hits[0])

    def is_abelian(self):
        return bool((self.table == self.table.T).all())

    def __eq__(self, other):
        return self.table.shape == other.table.shape and bool(
            (self.table == other.table).all())


def _record_inputs(monkeypatch, cls):
    """Record the raw table each new instance of cls was built from."""
    seen = []
    init = cls.__init__

    def recording_init(self, gamma_or_table, *args, **kwargs):
        init(self, gamma_or_table, *args, **kwargs)
        raw = gamma_or_table if cls is gr.FiniteGroup else args[1]
        seen.append((self, np.array(raw, dtype=np.int64)))

    monkeypatch.setattr(cls, "__init__", recording_init)
    return seen


def _oracle_groups():
    """Catalog groups of order <= 24, products of small ones, and every
    quotient by a normal subgroup, as built by the library."""
    cat = [g for _, g in catalog.group_catalog(24)]
    small = [g for g in cat if g.order <= 6]
    for g, h in itertools.product(small, small):
        gr.direct_product(g, h)
    for g in cat:
        for n in gr.all_subgroups(g):
            if gr.is_normal(g, n):
                gr.quotient(g, n)
    sp, _ = gr.heisenberg_group(3)


def test_rows_agree_with_numpy_reference(monkeypatch):
    seen = _record_inputs(monkeypatch, gr.FiniteGroup)
    _oracle_groups()
    monkeypatch.undo()
    assert len(seen) > 100
    refs = [(g, _NumpyGroup(raw)) for g, raw in seen]
    for g, ref in refs:
        assert g.order == ref.order
        assert all(g.mul(a, b) == ref.mul(a, b)
                   for a in range(g.order) for b in range(g.order))
        assert all(g.inv(a) == ref.inv(a) for a in range(g.order))
        assert g.is_abelian() == ref.is_abelian()
        assert all(isinstance(x, int) for r in g.rows for x in r)
    by_order = {}
    for g, ref in refs:
        by_order.setdefault(g.order, []).append((g, ref))
    for group in by_order.values():
        for (g, gref), (h, href) in itertools.product(group, group):
            assert (g == h) == (gref == href)
            if g == h:
                assert hash(g) == hash(h)
    # equal tables in another container type give an equal, equal-hash group
    for g, ref in refs:
        again = gr.FiniteGroup(ref.table)
        assert again == g and hash(again) == hash(g)
    assert gr.cyclic_group(4) != gr.direct_product(gr.cyclic_group(2), gr.cyclic_group(2))


def _oracle_gamma_groups():
    for gamma in (gr.cyclic_group(2), gr.cyclic_group(3)):
        for _, und in catalog.group_catalog(8):
            base = co.trivial_gamma_group(gamma, und)
            for vals in co.enumerate_cocycles(gamma, base):
                tw = co.twist_group(base, co.CrossedHom(gamma, base, vals))
                co.gamma_group_product([tw, base])


def test_gamma_group_act_agrees_with_numpy_reference(monkeypatch):
    seen = _record_inputs(monkeypatch, co.GammaGroup)
    _oracle_gamma_groups()
    monkeypatch.undo()
    assert len(seen) > 100
    for n, raw in seen:
        assert raw.shape == (n.gamma.order, n.underlying.order)
        assert all(n.act(t, x) == int(raw[t, x])
                   for t in n.gamma.elements() for x in n.underlying.elements())
        assert n == co.GammaGroup(n.gamma, n.underlying, raw)


def test_center_matches_definition():
    for _, g in catalog.group_catalog(24):
        brute = tuple(y for y in g.elements()
                      if all(g.mul(x, y) == g.mul(y, x) for x in g.elements()))
        assert gr.center(g) == brute


def test_malformed_tables_rejected():
    for bad in ([0, 1], [[0, 1], [1]], [["a", 0], [0, 1]], [[0, 1, 2], [1, 2, 0]]):
        with pytest.raises(gr.InvalidGroup):
            gr.FiniteGroup(bad)
    with pytest.raises(co.NotAction):
        co.GammaGroup(gr.cyclic_group(2), gr.cyclic_group(3), [[0, 1, 2], [0, 2]])


def _brute_homs(src, tgt):
    # every map with f(0) = 0, kept when f(ab) = f(a) f(b) for all a, b
    out = set()
    for rest in itertools.product(tgt.elements(), repeat=src.order - 1):
        f = (0,) + rest
        if all(f[src.mul(a, b)] == tgt.mul(f[a], f[b])
               for a in src.elements() for b in src.elements()):
            out.add(f)
    return out


def test_all_homs_matches_brute_force():
    small = [g for _, g in catalog.group_catalog(6)]
    assert len(small) >= 7
    for src, tgt in itertools.product(small, small):
        homs = co.all_homs(src, tgt)
        maps = [h.map for h in homs]
        assert len(set(maps)) == len(maps)
        assert set(maps) == _brute_homs(src, tgt), (src, tgt)
        for h in homs:
            gr.GroupHom(src, tgt, h.map)  # validates multiplicativity


def _random_loop(n, rng):
    """A random n x n Latin square with 0 as two-sided identity."""
    t = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        options = [v for v in range(n) if v not in t[i] and all(r[j] != v for r in t)]
        rng.shuffle(options)
        for v in options:
            t[i][j] = v
            if fill(k + 1):
                return True
        t[i][j] = None
        return False

    fill(0)
    return t


def test_associativity_check_agrees_with_brute_force_on_loops():
    # FiniteGroup checks (s*h)*y == s*(h*y) for s in a generating set only
    # (the left-regular action law); on random loops it must accept exactly
    # the groups
    rng = random.Random(5)
    accepted = rejected = 0
    for n in (4, 5, 6, 7):
        for _ in range(60):
            t = _random_loop(n, rng)
            brute = all(t[t[x][y]][z] == t[x][t[y][z]]
                        for x in range(n) for y in range(n) for z in range(n))
            try:
                gr.FiniteGroup(t)
                ok = True
            except gr.InvalidGroup:
                ok = False
            assert ok == brute, t
            accepted += ok
            rejected += not ok
    assert accepted > 30 and rejected > 100
