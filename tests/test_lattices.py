import numpy as np
import pytest

from torsorlab import groups as gr
from torsorlab import gsets as gs
from torsorlab import lattices as lt
from torsorlab import linalg as la
from test_cohomology import _np
from test_linalg import _same


def sign_lattice(c2):
    return lt.ZGLattice(c2, [la.int_rows([[1]]), la.int_rows([[-1]])])


def test_zglattice_validation():
    c2 = gr.cyclic_group(2)
    sign_lattice(c2)  # valid
    with pytest.raises(ValueError):
        lt.ZGLattice(c2, [la.int_rows([[1]]), la.int_rows([[2]])])  # 2 not unimodular here
    with pytest.raises(ValueError):
        lt.ZGLattice(c2, [la.int_rows([[-1]]), la.int_rows([[-1]])])  # identity wrong


def test_permutation_lattice_and_fixed_rank():
    s3 = gr.symmetric_group(3)
    m = lt.permutation_lattice(gs.conjugation_twist(s3))
    assert m.rank == 6
    # fixed sublattice rank = number of orbits (Burnside cross-check)
    stack = np.concatenate(
        [_np(m.rho[g]) - _np(la.identity(6)) for g in s3.elements()], axis=0
    )
    fixed_rank = la.width(la.kernel_basis(stack.tolist()))
    assert fixed_rank == len(gr.conjugacy_classes(s3)) == 3
    # regular C2 lattice is the swap
    c2 = gr.cyclic_group(2)
    reg = lt.permutation_lattice(gs.regular_gset(c2))
    assert reg.rho[1] == ((0, 1), (1, 0))
    one = lt.permutation_lattice(gs.trivial_gset(c2, 1))
    assert one.rank == 1 and one.rho[1] == la.identity(1)


def test_fixed_rank_counts_orbits():
    # Burnside cross-check over assorted actions
    s3 = gr.symmetric_group(3)
    d4 = gr.dihedral_group(4)
    cases = [
        gs.conjugation_twist(s3),
        gs.conjugation_twist(d4),
        gs.coset_gset(s3, gr.generated_subgroup(s3, [1])),
        gs.trivial_gset(d4, 5),
        gs.disjoint_union(gs.regular_gset(s3), gs.trivial_gset(s3, 2)),
    ]
    for x in cases:
        m = lt.permutation_lattice(x)
        stack = np.concatenate(
            [_np(m.rho[g]) - _np(la.identity(m.rank)) for g in x.group.elements()], axis=0
        )
        fixed_rank = la.width(la.kernel_basis(stack.tolist()))
        assert fixed_rank == len(gs.orbits(x).orbits)


def test_permutation_lattice_unimodular_rhos():
    d4 = gr.dihedral_group(4)
    m = lt.permutation_lattice(gs.coset_gset(d4, (0,)))
    for g in d4.elements():
        assert abs(la.bareiss_det(m.rho[g])) == 1


def test_equivariant_sublattice_antisymmetric_line():
    c2 = gr.cyclic_group(2)
    reg = lt.permutation_lattice(gs.regular_gset(c2))
    # n + (swap n) = 0
    sub, incl = lt.equivariant_sublattice(reg, [[1, 1]])
    assert sub.rank == 1
    v = [row[0] for row in incl.matrix]
    assert sorted(v) == [-1, 1]
    # no conditions: everything, whether as no rows or as one zero row
    whole, i2 = lt.equivariant_sublattice(reg, ())
    assert whole.rank == 2 and lt.is_equivariant_iso(i2)
    whole, i2 = lt.equivariant_sublattice(reg, [[0, 0]])
    assert whole.rank == 2 and lt.is_equivariant_iso(i2)
    # v = 0: rank 0
    zero, _ = lt.equivariant_sublattice(reg, la.identity(2))
    assert zero.rank == 0


def test_equivariant_sublattice_not_stable():
    c2 = gr.cyclic_group(2)
    reg = lt.permutation_lattice(gs.regular_gset(c2))
    with pytest.raises(lt.NotStable):
        lt.equivariant_sublattice(reg, [[1, 0]])  # first coordinate not invariant


def test_equivariant_sublattice_checks_every_element():
    # unvalidated C4 matrices that fix the diagonal line at the generator but
    # not at g = 2, which maps (1, 1) to (1, -1)
    c4 = gr.cyclic_group(4)
    assert 2 not in gr.generating_set(c4)
    flip = ((1, 0), (0, -1))
    m = lt.ZGLattice(c4, [la.identity(2), la.identity(2), flip, la.identity(2)],
                     validate=False)
    E = [[1, -1]]
    K = la.kernel_basis(E)
    for s in gr.generating_set(c4):
        assert la.matmul(la.matmul(E, m.rho[s]), K) == ((0,),)
    with pytest.raises(lt.NotStable):
        lt.equivariant_sublattice(m, E)
    # with the identity at every element the line is stable
    ok = lt.ZGLattice(c4, [la.identity(2)] * 4, validate=False)
    sub, incl = lt.equivariant_sublattice(ok, E)
    assert sub.rank == 1 and la.matmul(incl.retraction, incl.matrix) == la.identity(1)


def test_restricted_action_rejects_mismatched_shapes():
    K, W = la.saturated_kernel([[1, -1]])
    with pytest.raises(ValueError):
        la.restricted_action(K, W, [la.identity(3)])
    with pytest.raises(ValueError):
        la.restricted_action(K, K, [la.identity(2)])


def test_exactness_split_sequence():
    c1 = gr.trivial_group()
    z = lt.trivial_lattice(c1, 1)
    z2 = lt.trivial_lattice(c1, 2)
    zero = lt.zero_lattice(c1)
    seq = [
        lt.zero_map(zero, z),
        lt.LatticeMap(z, z2, [[1], [1]]),
        lt.LatticeMap(z2, z, [[1, -1]]),
        lt.zero_map(z, zero),
    ]
    rep = lt.exactness_report(seq)
    assert rep.exact
    # 0 -> Z -(2)-> Z -(0)-> Z -> 0 fails integrally at the middle
    seq2 = [
        lt.zero_map(zero, z),
        lt.LatticeMap(z, z, [[2]]),
        lt.LatticeMap(z, z, [[0]]),
    ]
    rep2 = lt.exactness_report(seq2)
    assert rep2.joints[1].composite_zero
    assert rep2.joints[1].image_equals_kernel_saturated
    assert not rep2.joints[1].image_equals_kernel_integral
    assert not rep2.exact


def test_exactness_requires_composability():
    c1 = gr.trivial_group()
    z = lt.trivial_lattice(c1, 1)
    z2 = lt.trivial_lattice(c1, 2)
    with pytest.raises(lt.NotComposable):
        lt.exactness_report([lt.LatticeMap(z, z2, [[1], [0]]), lt.LatticeMap(z2, z2, la.identity(2)), lt.LatticeMap(z, z, [[1]])])


def test_is_equivariant_iso():
    c1 = gr.trivial_group()
    z = lt.trivial_lattice(c1, 1)
    assert lt.is_equivariant_iso(lt.LatticeMap(z, z, [[1]]))
    assert not lt.is_equivariant_iso(lt.LatticeMap(z, z, [[2]]))
    c2 = gr.cyclic_group(2)
    reg = lt.permutation_lattice(gs.regular_gset(c2))
    swap = lt.LatticeMap(reg, reg, [[0, 1], [1, 0]])
    assert lt.is_equivariant_iso(swap)


def test_equivariance_enforced():
    c2 = gr.cyclic_group(2)
    reg = lt.permutation_lattice(gs.regular_gset(c2))
    sgn = sign_lattice(c2)
    with pytest.raises(lt.NotEquivariant):
        lt.LatticeMap(reg, sgn, [[1, 1]])
    lt.LatticeMap(reg, sgn, [[1, -1]])  # the norm-twisted projection is fine


def test_induced_lattice():
    s3 = gr.symmetric_group(3)
    assert lt.induced_lattice(s3, tuple(s3.elements())).rank == 1
    assert lt.induced_lattice(s3, (0,)).rank == 6
    h = gr.generated_subgroup(s3, [1])
    m = lt.induced_lattice(s3, h)
    assert m.rank == 3
    with pytest.raises(gr.NotSubgroup):
        lt.induced_lattice(s3, (0, 1, 2))


def test_direct_sum():
    c2 = gr.cyclic_group(2)
    m = lt.direct_sum(sign_lattice(c2), lt.trivial_lattice(c2, 1))
    assert m.rank == 2
    assert m.rho[1] == ((-1, 0), (0, 1))


def _reference_restriction(K, mats):
    """The restriction before kernels carried their retraction: one solve_int
    of K against every rho(g) K side by side, split into r-column blocks."""
    r = la.width(K)
    X = la.solve_int(K, np.concatenate([_np(M) @ _np(K) for M in mats], axis=1).tolist())
    if X is None:
        return None
    return [la.columns(X, i * r, (i + 1) * r) for i in range(len(mats))]


def test_equivariant_sublattice_on_serre_lattices():
    # rho_sub(g) = W rho(g) K is the reference restriction, entry for entry,
    # on the ambient, left and right lattices of every CM datum of order <= 16
    from torsorlab import serre as sr
    from torsorlab.catalog import central_involutions, group_catalog

    checked = 0
    for _, g in group_catalog(16):
        for iota in central_involutions(g):
            d = sr.CMGaloisDatum(g, iota)
            regular = sr._left_regular(g)
            ambient = lt.direct_sum(regular, lt.trivial_lattice(g, 1))
            for m, eqs in (
                (ambient, sr._pair_equations(d, True)),
                (regular, sr._pair_equations(d, False)),
                (sr._right_regular(g), sr._pair_equations(d, False)),
            ):
                sub, incl = lt.equivariant_sublattice(m, eqs)
                K, W = incl.matrix, incl.retraction
                assert len(sub.rho) == g.order and sub.rank == la.width(K)
                assert la.matmul(W, K) == la.identity(sub.rank)
                ref = _reference_restriction(K, m.rho)
                assert all(_same(a, b) for a, b in zip(sub.rho, ref))
                for x in g.elements():
                    assert la.matmul(K, sub.rho[x]) == la.matmul(m.rho[x], K)
                lt.ZGLattice(g, sub.rho)  # identity and multiplicativity
                checked += 1
            # twist_serre's left translations on the right lattice's sublattice
            left = la.restricted_action(K, W, regular.rho)
            ref = _reference_restriction(K, regular.rho)
            assert all(_same(a, b) for a, b in zip(left, ref))
    assert checked == 3 * 65
