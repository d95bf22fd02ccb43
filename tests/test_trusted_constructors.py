"""What the library builds with validate=False, checked by the full validators.

A constructor whose output is an action or an equivariant map by a theorem
builds it unchecked, and consumers such as h1_abelian trust it.  This oracle
records every GSet, ZGLattice and LatticeMap built that way and runs the
validators on it: check_action for a G-set, ZGLattice validation (check_rho)
for a lattice, LatticeMap validation for a map.  It covers the coset G-sets
of every subgroup of every catalog group of order <= 24, the twisted
sequences of the 65 CM data of order <= 16 and criterion 2's six block
groups.
"""

from collections import Counter

from torsorlab import groups as gr
from torsorlab import gsets as gs
from torsorlab import lattices as lt
from torsorlab import serre as sr
from torsorlab.catalog import central_involutions, group_catalog


def _unvalidated(monkeypatch, run) -> list:
    """Every GSet, ZGLattice and LatticeMap built with validate=False while
    run() runs."""
    built = []

    def recording(cls):
        init = cls.__init__

        def recorded(self, *args, validate=True, **kw):
            init(self, *args, validate=validate, **kw)
            if not validate:
                built.append(self)

        monkeypatch.setattr(cls, "__init__", recorded)

    for cls in (gs.GSet, lt.ZGLattice, lt.LatticeMap):
        recording(cls)
    run()
    monkeypatch.undo()
    return built


def _validate(obj) -> None:
    if isinstance(obj, gs.GSet):
        gr.check_action(obj.group, obj.action, gs.InvalidAction)
    elif isinstance(obj, lt.ZGLattice):
        lt.ZGLattice(obj.group, obj.rho)
    else:
        lt.LatticeMap(obj.source, obj.target, obj.matrix)


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


def test_unvalidated_objects_pass_the_validators(monkeypatch):
    # each family is checked before the next is built on it
    kinds = Counter()
    for run in (_coset_gsets, _twisted_sequences, _block_groups):
        for obj in _unvalidated(monkeypatch, run):
            _validate(obj)
            kinds[type(obj).__name__] += 1
    # 747 coset G-sets and their lattices at least, one twisted X*(Sbar)
    # and its inclusion per CM datum and per block group
    assert kinds["GSet"] > 747 and kinds["ZGLattice"] > 747
    assert kinds["LatticeMap"] >= 65 + 6
