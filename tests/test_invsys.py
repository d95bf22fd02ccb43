import json
import os
import pathlib
import subprocess
import sys

import pytest

from torsorlab import groups as gr
from torsorlab import invsys as iv
from torsorlab import linalg as la
from torsorlab import numtheory as nt


def constant_system(g, length):
    return iv.ExplicitFinite(
        tuple([g] * (length + 1)), tuple([gr.identity_hom(g)] * length)
    )


def test_truncate_constant_endo():
    rec = iv.ConstantEndo(la.FgAbelian((0,)), ((2,),))
    levels = iv.truncate(rec, 3)
    assert len(levels) == 4
    assert all(m.relations == (0,) for m, _ in levels)
    assert all(mat == ((2,),) for _, mat in levels)


def test_truncate_norm_tower_not_materializable():
    rec = iv.NormTower((nt.AbelianFieldDatum(7, (1, 6)),))
    with pytest.raises(iv.NotMaterializable):
        iv.truncate(rec, 2)


def test_lim_truncated_identity_maps():
    s3 = gr.symmetric_group(3)
    sys = constant_system(s3, 2)
    lim = iv.lim_truncated(sys)
    assert lim.size == 6
    # diagonal families
    assert all(len(set(f)) == 1 for f in lim.tuples)
    assert lim.level0_image == tuple(s3.elements())


def test_lim_truncated_mod4_doubling():
    c4 = gr.cyclic_group(4)
    dbl = gr.GroupHom(c4, c4, (0, 2, 0, 2))
    sys = iv.ExplicitFinite((c4, c4), (dbl,))
    lim = iv.lim_truncated(sys)
    # the fiber product over two levels has one family per top element,
    # while only the doubled subgroup survives at the bottom
    assert lim.size == 4
    assert lim.level0_image == (0, 2)
    assert set(lim.tuples) == {(0, 0), (2, 1), (0, 2), (2, 3)}


def test_lim_truncated_surjective_maps():
    # surjective maps: the limit is carried bijectively by the top group
    c4 = gr.cyclic_group(4)
    c2 = gr.cyclic_group(2)
    proj = gr.GroupHom(c4, c2, (0, 1, 0, 1))
    sys = iv.ExplicitFinite((c2, c4), (proj,))
    lim = iv.lim_truncated(sys)
    assert lim.size == 4
    assert lim.level0_image == (0, 1)


def test_lim1_truncated_single_orbit():
    c2 = gr.cyclic_group(2)
    sys = constant_system(c2, 2)
    rep = iv.lim1_truncated(sys)
    assert rep.orbit_count == 1
    assert rep.verified_mode == "exhaustive"
    assert rep.set_size == 8
    big = constant_system(gr.symmetric_group(4), 4)
    rep = iv.lim1_truncated(big, budget=1000)
    assert rep.orbit_count == 1 and rep.verified_mode == "constructive"


def _identity_transport(groups, maps, x, y):
    # wrong on purpose: the all-identity tuple carries x to x, not to y
    return (0,) * (len(groups) + 1)


def test_lim1_truncated_counts_failed_transports(monkeypatch):
    # negative control: transports that miss the basepoint show no single orbit
    monkeypatch.setattr(iv, "_transport", _identity_transport)
    rep = iv.lim1_truncated(constant_system(gr.cyclic_group(2), 2))
    assert rep.verified_mode == "exhaustive" and rep.checked_pairs == 8
    assert rep.failed_transports == 7  # all but the basepoint itself
    assert rep.orbit_count != 1
    rep = iv.lim1_truncated(constant_system(gr.symmetric_group(4), 4), budget=1000)
    assert rep.verified_mode == "constructive" and rep.failed_transports > 0
    assert rep.orbit_count != 1


_OPTIMIZED_LIM1 = """
import json
from torsorlab import groups as gr, invsys as iv
assert False, "assert statements must be stripped"
c2 = gr.cyclic_group(2)
sys = iv.ExplicitFinite((c2,) * 3, (gr.identity_hom(c2),) * 2)
good = iv.lim1_truncated(sys)
iv._transport = lambda groups, maps, x, y: (0,) * (len(groups) + 1)
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

    monkeypatch.setattr(iv, "_transport", _identity_transport)
    r = pc.check_truncated_orbit_transitivity(seed=0, count=3)
    assert r.verdict == "refuted"
    assert r.evidence["orbit_failures"] == 3


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
                y = iv._apply_action(groups, maps, a, x)
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
    doubling = iv.ConstantEndo(la.FgAbelian((0,)), ((2,),))
    v = iv.ml_check(doubling)
    assert v.fails
    assert v.certificate["index"] == 2
    ident = iv.ConstantEndo(la.FgAbelian((0,)), ((1,),))
    assert iv.ml_check(ident).holds
    neg = iv.ConstantEndo(la.FgAbelian((0,)), ((-1,),))
    assert iv.ml_check(neg).holds
    finite = iv.ConstantEndo(la.FgAbelian((4,)), ((2,),))
    assert iv.ml_check(finite).holds
    # rank drop then stabilization: projection matrix
    proj = iv.ConstantEndo(la.FgAbelian((0, 0)), ((1, 0), (0, 0)))
    assert iv.ml_check(proj).holds
    # mixed: strict on one free coordinate
    mixed = iv.ConstantEndo(la.FgAbelian((0, 0)), ((2, 0), (0, 1)))
    assert iv.ml_check(mixed).fails


def test_ml_subgroup_chain():
    chain = iv.SubgroupChain(1, ((2,),), ((1,),))
    v = iv.ml_check(chain)
    assert v.fails
    const = iv.SubgroupChain(1, ((1,),), ((1,),))
    assert iv.ml_check(const).holds


def test_lim1_classify():
    assert iv.lim1_classify(iv.SubgroupChain(1, ((2,),), ((1,),))).status == "uncountable"
    assert iv.lim1_classify(iv.ConstantEndo(la.FgAbelian((0,)), ((1,),))).status == "trivial"
    s3sys = constant_system(gr.symmetric_group(3), 3)
    assert iv.lim1_classify(s3sys).status == "trivial"
    # products distribute
    prod = iv.Product(
        (iv.ConstantEndo(la.FgAbelian((0,)), ((1,),)), s3sys)
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


def test_six_term_center_of_heisenberg():
    sp, gens = gr.heisenberg_group(3)
    g = sp.group
    bsub = gr.generated_subgroup(g, [gens["b"]])
    c3 = gr.cyclic_group(3)
    inc = gr.GroupHom(c3, g, tuple(g.power(gens["b"], k) for k in range(3)))
    length = 2
    sub = constant_system(c3, length)
    total = constant_system(g, length)
    rep = iv.six_term_check(sub, total, [inc] * (length + 1), normal=True, budget=2000)
    assert rep.lim_exact_at_b
    assert rep.quotient_fibres_are_limB_orbits
    assert rep.lim1_a_single_orbit
    assert rep.lim1_exact_at_a
    assert rep.sizes["lim_quotient"] == 9  # constant C3 x C3 quotient


def test_six_term_split_product():
    c2, c3 = gr.cyclic_group(2), gr.cyclic_group(3)
    b = gr.direct_product(c2, c3)
    e1, e2, p1, p2 = gr.product_embeddings(c2, c3, b)
    sub = constant_system(c2, 1)
    total = constant_system(b, 1)
    rep = iv.six_term_check(sub, total, [e1, e1], normal=True)
    assert rep.lim_exact_at_b
    assert rep.quotient_fibres_are_limB_orbits
    assert rep.lim1_exact_at_a


def test_six_term_degenerate_equal():
    s3 = gr.symmetric_group(3)
    sys = constant_system(s3, 1)
    rep = iv.six_term_check(sys, sys, [gr.identity_hom(s3)] * 2, normal=True)
    assert rep.lim_exact_at_b and rep.quotient_fibres_are_limB_orbits
    assert rep.sizes["lim_quotient"] == 1


def test_six_term_rejects_non_injective():
    c4, c2 = gr.cyclic_group(4), gr.cyclic_group(2)
    proj = gr.GroupHom(c4, c2, (0, 1, 0, 1))
    with pytest.raises(iv.NotInjective):
        iv.six_term_check(
            constant_system(c4, 1), constant_system(c2, 1), [proj, proj]
        )


def test_six_term_rejects_non_normal():
    s3 = gr.symmetric_group(3)
    c2 = gr.cyclic_group(2)
    inc = gr.GroupHom(c2, s3, (0, 1))
    with pytest.raises(iv.NotNormalLevelwise):
        iv.six_term_check(
            constant_system(c2, 1), constant_system(s3, 1), [inc, inc], normal=True
        )
