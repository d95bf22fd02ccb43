"""What the library builds with validate=False, checked by the full validators.

A constructor whose output is a group, an action or an equivariant map by a
theorem builds it unchecked, and consumers such as h1_abelian trust it.
This oracle records every object built that way and runs the validators on
it: check_action for a G-set, ZGLattice validation (check_rho) for a
lattice, LatticeMap validation for a map, FiniteGroup validation for a
group table, GammaGroup validation (check_automorphisms) for a
Gamma-group, CrossedHom validation (the cocycle law) for a cocycle and
GroupHom validation for a homomorphism.  It also checks that each holds its
tables as tuples of int tuples, and a cocycle its values and a homomorphism
its map as an int tuple: the form an unchecked constructor takes as given.  It covers the coset G-sets of every subgroup of every catalog
group of order <= 24, the twisted sequences of the 65 CM data of order <= 16, criterion 2's six
block groups, the catalog's direct and semidirect products and every
quotient of a catalog group, the Gamma-group products of criterion 11 and
of test_groups' oracle, the unit groups mod m for m <= 60, and the
cocycles of criteria 6, 7 and 11: the H^1 representatives of the products
and their factors, the relative classes and twisted kernels of the twist
bijections, and the compatible families and their twists of the truncated
orbits.
"""

from collections import Counter

import pytest

from torsorlab import catalog
from torsorlab import checks
from torsorlab import cohomology as co
from torsorlab import groups as gr
from torsorlab import gsets as gs
from torsorlab import lattices as lt
from torsorlab import numtheory as nt
from torsorlab import serre as sr
from torsorlab.catalog import central_involutions, group_catalog
from test_groups import _oracle_gamma_groups


def _unvalidated(monkeypatch, run) -> list:
    """Every GSet, ZGLattice, LatticeMap, FiniteGroup, GammaGroup, CrossedHom
    and GroupHom built with validate=False while run() runs."""
    built = []

    def recording(cls):
        init = cls.__init__

        def recorded(self, *args, validate=True, **kw):
            init(self, *args, validate=validate, **kw)
            if not validate:
                built.append(self)

        monkeypatch.setattr(cls, "__init__", recorded)

    for cls in (gs.GSet, lt.ZGLattice, lt.LatticeMap, gr.FiniteGroup, gr.GammaGroup,
                co.CrossedHom, gr.GroupHom):
        recording(cls)
    run()
    monkeypatch.undo()
    return built


def _validate(obj) -> None:
    if isinstance(obj, gs.GSet):
        gr.check_action(obj.group, obj.action, gs.InvalidAction)
    elif isinstance(obj, lt.ZGLattice):
        lt.ZGLattice(obj.group, obj.rho)
        if obj.points is not None:
            lt.ZGLattice(obj.group, points=obj.points)
    elif isinstance(obj, lt.LatticeMap):
        lt.LatticeMap(obj.source, obj.target, obj.matrix)
    elif isinstance(obj, gr.FiniteGroup):
        gr.FiniteGroup(obj.rows)
    elif isinstance(obj, co.CrossedHom):
        co.CrossedHom(obj.group, obj.coefficient, obj.values)
    elif isinstance(obj, gr.GroupHom):
        gr.GroupHom(obj.source, obj.target, obj.map)
    else:
        gr.GammaGroup(obj.gamma, obj.underlying, obj.action)


def _tables(obj) -> list:
    """The int-tuple tables that obj holds."""
    if isinstance(obj, lt.ZGLattice):
        # a permutation lattice holds its points too, and builds rho from them
        return list(obj.rho) + ([obj.points] if obj.points is not None else [])
    if isinstance(obj, lt.LatticeMap):
        return [obj.matrix]
    if isinstance(obj, gr.FiniteGroup):
        return [obj.rows]
    if isinstance(obj, co.CrossedHom):
        return [(obj.values,)]
    if isinstance(obj, gr.GroupHom):
        return [(obj.map,)]
    return [obj.action]  # GSet, GammaGroup


def _int_tuple_rows(table) -> bool:
    # bool and numpy integers are not int
    return type(table) is tuple and all(
        type(row) is tuple and all(type(x) is int for x in row) for row in table)


def _coset_gsets():
    for _, g in group_catalog(24):
        gs.conjugation_twist(g)
        for h in gr.all_subgroups(g):
            lt.permutation_lattice(gs.coset_gset(g, h))


def _twisted_sequences():
    for _, g in group_catalog(16):
        for iota in central_involutions(g):
            sr.twist_serre(sr.CMGaloisDatum(g, iota))


def _block_groups():
    c2 = gr.cyclic_group(2)
    for f_group in (gr.trivial_group(), c2, gr.cyclic_group(3), gr.direct_product(c2, c2),
                    gr.symmetric_group(3), gr.dihedral_group(4)):
        sr.conjugation_block_decomposition(f_group)
        sr.block_h1_vanishing(f_group)


def _catalog_quotients():
    for _, g in group_catalog(24):
        for n in gr.all_subgroups(g):
            if gr.is_normal(g, n):
                gr.quotient(g, n)


def _gamma_group_products():
    checks.gamma_group_products()
    _oracle_gamma_groups()


def _unit_groups():
    for m in range(1, 61):
        nt.unit_subgroups(m)


def _cocycles():
    checks.check_product_h1()
    checks.check_twist_bijection()
    checks.check_truncated_orbit_transitivity()


# _coset_gsets builds the catalog, with its direct and semidirect products
FAMILIES = (_coset_gsets, _twisted_sequences, _block_groups, _catalog_quotients,
            _gamma_group_products, _unit_groups, _cocycles)


def test_unvalidated_objects_pass_the_validators(monkeypatch):
    # each family is checked before the next is built on it
    kinds = Counter()
    for run in FAMILIES:
        for obj in _unvalidated(monkeypatch, run):
            assert all(_int_tuple_rows(t) for t in _tables(obj)), (run.__name__, obj)
            _validate(obj)
            kinds[type(obj).__name__] += 1
    # 747 coset G-sets and their lattices at least, one twisted X*(Sbar)
    # and its inclusion per CM datum and per block group, the catalog's
    # products and quotients, and the Gamma-group products
    assert kinds["GSet"] > 747 and kinds["ZGLattice"] > 747
    assert kinds["LatticeMap"] >= 65 + 6
    assert kinds["FiniteGroup"] > 100 and kinds["GammaGroup"] > 100
    # criteria 11, 6 and 7 build 39, 45 and 98 cocycles unchecked
    assert kinds["CrossedHom"] > 150
    # 1,100 homomorphisms: 511 quotient maps of the catalog, 553 from
    # all_homs and the rest the embeddings and projections of products
    assert kinds["GroupHom"] > 1000


def _direct_products(monkeypatch, run) -> list:
    """(g, h, direct_product(g, h)) for every direct product built while
    run() runs, through each module that binds the name."""
    made, product = [], gr.direct_product

    def recorded(g, h):
        p = product(g, h)
        made.append((g, h, p))
        return p

    for owner in (gr, catalog, co, sr):
        monkeypatch.setattr(owner, "direct_product", recorded)
    run()
    monkeypatch.undo()
    return made


def test_direct_products_multiply_componentwise(monkeypatch):
    # the table of g x h is (a, b)(c, d) = (ac, bd), with (a, b) at a + |g| b
    made = []
    for run in FAMILIES:
        made += _direct_products(monkeypatch, run)
    assert len(made) > 100
    for g, h, p in made:
        n = g.order
        assert p.order == n * h.order
        assert all(p.rows[a + n * b][c + n * d] == g.rows[a][c] + n * h.rows[b][d]
                   for a in g.elements() for b in h.elements()
                   for c in g.elements() for d in h.elements())


def test_a_product_with_an_unchecked_non_action_is_refused():
    # a factor built unchecked whose generator permutes C4 but is no
    # automorphism: the product trusts its factors, and h1_nonabelian, which
    # checks what it is given, refuses the product and the factor
    c2, c4 = gr.cyclic_group(2), gr.cyclic_group(4)
    bad = co.GammaGroup(c2, c4, ((0, 1, 2, 3), (0, 2, 1, 3)), validate=False)
    prod, _ = co.gamma_group_product([co.trivial_gamma_group(c2, c2), bad])
    for n in (bad, prod):
        with pytest.raises(co.NotAction):
            co.h1_nonabelian(c2, n)
        with pytest.raises(co.NotAction):
            n.check_automorphisms()
