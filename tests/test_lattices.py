import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from torsorlab import groups as gr
from torsorlab import gsets as gs
from torsorlab import lattices as lt
from torsorlab import linalg as la
from helpers import (
    bareiss_det,
    disjoint_union,
    joint_by_coordinates,
    kernel_sequence_by_joint,
    kernel_sequence_of,
    lattice_eq,
    matrix_twin,
    permutation_lattice_reference,
    regular_gset,
    rho_law_by_basis_images,
    trivial_gset,
    twist_serre_by_restriction,
    zero_lattice,
    zero_map,
)
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


@pytest.mark.parametrize("group,rho", [
    # rho(1) rho(1) != rho(2): the coboundaries would leave the cocycle lattice
    (gr.cyclic_group(3), [la.identity(2), la.int_rows([[1, -1], [-2, 1]]),
                          la.int_rows([[-2, 1], [1, 2]])]),
    # rho(a) = 1 but rho(a^2) = -1 on C4 = <a | a^4>: the relator row
    # 1 + 1 - 1 - 1 vanishes, so H^1 would read a free factor
    (gr.cyclic_group(4), [la.int_rows([[v]]) for v in (1, 1, -1, -1)]),
], ids=["no-action", "free-factor"])
def test_zglattice_refuses_a_table_that_is_no_action(group, rho):
    # the lattice's constructor is the one owner of its action law:
    # h1_abelian trusts what it builds
    with pytest.raises(ValueError, match="not multiplicative"):
        lt.ZGLattice(group, rho)


def test_check_rho_refuses_permutation_matrices_that_are_no_action():
    # rho(1) = rho(2) = the 3-cycle P on C3: all unit rows, and
    # rho(1) rho(1) = P^2 != rho(2) refutes the law; the same matrices that
    # do form the action are accepted
    c3 = gr.cyclic_group(3)
    regular = lt.permutation_lattice(regular_gset(c3))
    rho = regular.rho
    bad = (rho[0], rho[1], rho[1])
    with pytest.raises(ValueError, match="not multiplicative"):
        lt.ZGLattice(c3, bad)
    with pytest.raises(gr.NotAction, match="not multiplicative"):
        lt.check_rho(lt.ZGLattice(c3, bad, validate=False), gr.NotAction)
    lt.check_rho(lt.ZGLattice(c3, rho, validate=False), gr.NotAction)
    # the same on points: the 3-cycle at both nontrivial elements
    p = regular.points
    with pytest.raises(ValueError, match="not an action"):
        lt.ZGLattice(c3, points=(p[0], p[1], p[1]))
    lt.check_rho(regular, gr.NotAction)
    lt.ZGLattice(c3, points=p)


def test_check_rho_reads_points():
    # points must be in range, the identity must fix every point, and the
    # law must hold (groups.check_action), as for matrices; a table whose
    # rows are no permutations fails the law
    c2 = gr.cyclic_group(2)
    for points, message in ((((0, 1), (1, 2)), "range"), (((0, 1), (-1, 0)), "range"),
                            (((1, 0), (1, 0)), "identity"),
                            (((0, 1), (0, 0)), "not an action"),
                            (((0, 1, 2), (1, 0, 0)), "not an action")):
        with pytest.raises(ValueError, match=message):
            lt.ZGLattice(c2, points=points)
    for points in (((),) * 2, ((0,), (0,)), ((0, 1), (1, 0)), ((0, 1), (0, 1))):
        m = lt.ZGLattice(c2, points=points)
        assert m.rank == len(points[0]) and m == lt.ZGLattice(c2, m.rho)
    with pytest.raises(ValueError, match="matrices or as points"):
        lt.ZGLattice(c2)
    with pytest.raises(ValueError, match="matrices or as points"):
        lt.ZGLattice(c2, [la.identity(1)] * 2, points=((0,), (0,)))


def test_check_rho_reads_the_identity_row_by_row():
    # rho(1) must be I of its rank, row for row: a wrong sign, a swapped,
    # repeated, long or short row and an extra entry are each refused
    c1 = gr.trivial_group()
    for r in range(4):
        lt.check_rho(lt.ZGLattice(c1, [la.identity(r)], validate=False), gr.NotAction)
    bad = [((1, 0), (0, -1)), ((0, 1), (1, 0)), ((1, 0), (1, 0)), ((1, 1), (0, 1)),
           ((1, 0, 0), (0, 1, 0)), ((1,), (0, 1)), ((2,),), ((0,),)]
    for m in bad:
        with pytest.raises(gr.NotAction, match="identity"):
            lt.check_rho(lt.ZGLattice(c1, [m], validate=False), gr.NotAction)


def test_check_rho_reads_signed_unit_rows():
    # a sign character times a permutation lattice: each rho(s) has rows
    # +-e_j, and the lattice is accepted, as the reference that reads the
    # law on basis vectors accepts it.  Flipping the sign of one row of one
    # rho(s) must be refused by both: rho'(s) rho(h) = D rho(s h) !=
    # rho(s h) for any h other than 1 and s, and |G| > 2 leaves one (on C2
    # the flip can be another character)
    from torsorlab import catalog

    read = 0
    for _, g in catalog.group_catalog(12):
        k = next((set(k) for k in gr.all_subgroups(g) if 2 * len(k) == g.order), None)
        if k is None or g.order == 2:
            continue
        for h in gr.all_subgroups(g):
            rho = lt.permutation_lattice(gs.coset_gset(g, h)).rho
            rho = [r if x in k else tuple(tuple(-v for v in row) for row in r)
                   for x, r in enumerate(rho)]
            lt.ZGLattice(g, rho)
            rho_law_by_basis_images(g, rho)
            s = next(s for s in gr.generating_set(g) if s not in k)
            flipped = list(rho)
            flipped[s] = (tuple(-v for v in rho[s][0]),) + rho[s][1:]
            for check in (lambda: lt.ZGLattice(g, flipped),
                          lambda: rho_law_by_basis_images(g, flipped)):
                with pytest.raises(ValueError, match="not multiplicative"):
                    check()
            read += 1
    assert read > 50


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
    reg = lt.permutation_lattice(regular_gset(c2))
    assert reg.rho[1] == ((0, 1), (1, 0))
    one = lt.permutation_lattice(trivial_gset(c2, 1))
    assert one.rank == 1 and one.rho[1] == la.identity(1)


def test_permutation_lattice_reads_the_inverse_row():
    # row i of rho(g) is e_{g^-1.i}, read off the G-set's row of g^-1; the
    # reference places e_j at row g.j of rho(g) one point at a time
    from torsorlab import catalog

    xs = [gs.coset_gset(g, h) for _, g in catalog.group_catalog(24) for h in gr.all_subgroups(g)]
    assert len(xs) == 747
    d4 = gr.dihedral_group(4)
    xs += [gs.conjugation_twist(d4), gs.conjugation_twist(gr.symmetric_group(4))]
    # an intransitive action given as lists, read and checked by GSet
    xs.append(gs.GSet(d4, [[d4.conj(g, x) for x in d4.elements()] + [8] for g in d4.elements()]))
    for x in xs:
        assert lt.permutation_lattice(x).rho == permutation_lattice_reference(x).rho


def _points_lattices():
    """(lattice given by points, the G-set it acts on): every coset G-set
    and conjugation action of the catalog groups of order <= 24, and over
    four groups both regular lattices, the trivial lattices of rank 0-2 and
    the direct sums of any two of those."""
    from torsorlab import catalog
    from torsorlab import serre as sr

    cases = []
    for _, g in catalog.group_catalog(24):
        for x in [gs.coset_gset(g, h) for h in gr.all_subgroups(g)] + [gs.conjugation_twist(g)]:
            cases.append((lt.permutation_lattice(x), x))
    for g in (gr.trivial_group(), gr.cyclic_group(2), gr.symmetric_group(3),
              gr.dihedral_group(4)):
        right = gs.GSet(g, [[g.mul(s, g.inv(t)) for s in g.elements()] for t in g.elements()])
        pieces = [(sr._left_regular(g), regular_gset(g)), (sr._right_regular(g), right)]
        pieces += [(lt.trivial_lattice(g, r), trivial_gset(g, r)) for r in range(3)]
        cases += pieces
        cases += [(lt.direct_sum(a, b), disjoint_union(x, y))
                  for a, x in pieces for b, y in pieces]
    return cases


def test_points_lattices_build_the_reference_rho():
    # rho of a lattice given by points, built on first read and then kept,
    # is the reference's, which places e_j at row g.j of rho(g) one point at
    # a time; the lattice equals its matrix twin, validated, both ways, and
    # two lattices whose actions differ are unequal both ways in either form
    from torsorlab import serre as sr

    cases = _points_lattices()
    assert len(cases) > 747 + 4 * 25
    for m, x in cases:
        assert m.points is not None and m.rank == x.size
        rho = m.rho
        assert rho == permutation_lattice_reference(x).rho and m.rho is rho
        twin = matrix_twin(m)
        assert twin.points is None and m == twin and twin == m
    s3 = gr.symmetric_group(3)
    left, right = sr._left_regular(s3), sr._right_regular(s3)
    for a, b in ((left, right), (left, matrix_twin(right)), (matrix_twin(left), right)):
        assert a != b and b != a


def test_fixed_rank_counts_orbits():
    # Burnside cross-check over assorted actions
    s3 = gr.symmetric_group(3)
    d4 = gr.dihedral_group(4)
    cases = [
        gs.conjugation_twist(s3),
        gs.conjugation_twist(d4),
        gs.coset_gset(s3, gr.generated_subgroup(s3, [1])),
        trivial_gset(d4, 5),
        disjoint_union(regular_gset(s3), trivial_gset(s3, 2)),
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
        assert abs(bareiss_det(m.rho[g])) == 1


def test_equivariant_sublattice_antisymmetric_line():
    c2 = gr.cyclic_group(2)
    reg = lt.permutation_lattice(regular_gset(c2))
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
    reg = lt.permutation_lattice(regular_gset(c2))
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
    # a matrix of the wrong size is refused by restricted_action, and a
    # retraction of the wrong shape where the rows are read
    K, W = la.saturated_kernel([[1, -1]])
    with pytest.raises(ValueError):
        la.restricted_action(*la._pair_rows(K, W), [la.identity(3)])
    with pytest.raises(ValueError):
        la._pair_rows(K, K)


def test_exactness_split_sequence():
    c1 = gr.trivial_group()
    z = lt.trivial_lattice(c1, 1)
    z2 = lt.trivial_lattice(c1, 2)
    zero = zero_lattice(c1)
    seq = [
        zero_map(zero, z),
        lt.LatticeMap(z, z2, [[1], [1]]),
        lt.LatticeMap(z2, z, [[1, -1]]),
        zero_map(z, zero),
    ]
    rep = lt.exactness_report(seq)
    assert rep.exact
    # 0 -> Z -(2)-> Z -(0)-> Z -> 0 fails integrally at the middle
    seq2 = [
        zero_map(zero, z),
        lt.LatticeMap(z, z, [[2]]),
        lt.LatticeMap(z, z, [[0]]),
    ]
    rep2 = lt.exactness_report(seq2)
    assert rep2.joints[1].composite_zero
    assert rep2.joints[1].image_equals_kernel_saturated
    assert not rep2.joints[1].image_equals_kernel_integral
    assert not rep2.exact


def _saturation(basis):
    # (Q-span of the columns) ∩ Z^m: the kernel of the annihilator's transpose
    if not la.width(basis):
        return basis
    annihilator = la.kernel_basis(la.transpose(basis))
    return la.kernel_basis(la.transpose(annihilator) or ((0,) * len(basis),))


def _kernel(f):
    return la.kernel_basis(f.matrix or ((0,) * f.source.rank,))


def _reference_exactness(maps):
    # the rule exactness_report replaced: compare image and kernel both ways
    joints = []
    for f, g in zip(maps, maps[1:]):
        im, ker = la.column_space_basis(f.matrix), _kernel(g)
        joints.append(lt.JointReport(
            not any(map(any, la.matmul(g.matrix, f.matrix))),
            lattice_eq(_saturation(im), ker),
            lattice_eq(im, ker),
        ))
    last = maps[-1]
    return lt.ExactnessReport(
        tuple(joints),
        la.width(_kernel(maps[0])) == 0,
        lattice_eq(la.column_space_basis(last.matrix), la.identity(last.target.rank)),
    )


def _random_matrix(rng, rows, cols):
    return tuple(tuple(rng.randint(-2, 2) for _ in range(cols)) for _ in range(rows))


def _random_sequence(rng, c1):
    # about half of the maps kill the previous image: g = B N^T with the
    # columns of N spanning the annihilator of im f, so ker g contains the
    # saturation of im f, and equals it when B is injective
    ranks = [rng.randint(0, 3) for _ in range(rng.randint(3, 5))]
    lattices = [lt.trivial_lattice(c1, r) for r in ranks]
    maps = []
    for src, tgt in zip(lattices, lattices[1:]):
        if maps and rng.random() < 0.5:
            f = maps[-1].matrix
            N = la.kernel_basis(la.transpose(f) or ((0,) * src.rank,))
            w = la.width(N)
            if w and tgt.rank:
                m = la.matmul(_random_matrix(rng, tgt.rank, w), la.transpose(N))
            else:
                m = ((0,) * src.rank,) * tgt.rank
        else:
            m = _random_matrix(rng, tgt.rank, src.rank)
        maps.append(lt.LatticeMap(src, tgt, m))
    return maps


def test_exactness_report_matches_two_way_comparison():
    # and each joint matches the route by coordinates in a second kernel
    c1 = gr.trivial_group()
    zero = zero_lattice(c1)
    rng = random.Random(9)
    outcomes = set()
    for i in range(600):
        maps = _random_sequence(rng, c1)
        if i % 3 == 0:
            # zero-ended, as the short exact sequences are written
            maps = ([zero_map(zero, maps[0].source)] + maps
                    + [zero_map(maps[-1].target, zero)])
        rep = lt.exactness_report(maps)
        assert rep == _reference_exactness(maps)
        assert rep.joints == tuple(joint_by_coordinates(f.matrix, g.matrix, g.source.rank)
                                   for f, g in zip(maps, maps[1:]))
        outcomes.update(
            (j.composite_zero, j.image_equals_kernel_saturated, j.image_equals_kernel_integral)
            for j in rep.joints
        )
    # every joint outcome occurs: g f != 0, a finite and an infinite
    # quotient ker g / im f, and equality
    assert set(outcomes) == {
        (False, False, False), (True, False, False), (True, True, False), (True, True, True)
    }, outcomes


def _random_kernel_triple(rng):
    """(K, W, E): E random, with at most 3 rows and 5 columns, either of
    which may be none; (K, W) its saturated kernel and retraction, as they
    are or made wrong in one of five ways, or E changed under them."""
    n, m = rng.randint(0, 5), rng.randint(0, 3)
    E = _random_matrix(rng, m, n)
    K, W = la.saturated_kernel(E or ((0,) * n,)) if n else ((), ())
    K, W = [list(map(list, K)), list(map(list, W))]
    r = la.width(K)
    way = rng.randrange(7)
    if way == 1 and r > 1:
        # a unimodular change of basis: column i of K += q column j, and
        # row j of W -= q row i, keep W K = I and the lattice
        for _ in range(3):
            i, j, q = *rng.sample(range(r), 2), rng.choice((-2, -1, 1, 2))
            for row in K:
                row[i] += q * row[j]
            W[j] = [a - q * b for a, b in zip(W[j], W[i])]
    elif way == 2 and r:
        # one basis vector dropped: W K = I, but a smaller rank
        j = rng.randrange(r)
        K, W = [row[:j] + row[j + 1:] for row in K], W[:j] + W[j + 1:]
    elif way == 3 and r:
        # one basis vector doubled: W K != I
        j = rng.randrange(r)
        for row in K:
            row[j] *= 2
    elif way == 4 and E:
        # one row of E doubled, dropped, or a sum of two rows added
        i = rng.randrange(m)
        E = rng.choice([E[:i] + (tuple(2 * x for x in E[i]),) + E[i + 1:], E[:i] + E[i + 1:],
                        E + (tuple(map(sum, zip(E[i], E[-1]))),)])
    elif way == 5 and n:
        # the kernel of another matrix of the same width
        K, W = la.saturated_kernel(_random_matrix(rng, rng.randint(1, 3), n))
    elif way == 6:
        # no rows in E: exact iff K is unimodular
        E = ()
    return la.int_rows(K), la.int_rows(W), E


def test_kernel_sequence_rule_agrees_with_the_joint_route():
    # the rank lemma against a second kernel, the cokernel of K's
    # coordinates in it, and E's cokernel, on random triples
    rng = random.Random(29)
    seen = Counter()
    for _ in range(2400):
        K, W, E = _random_kernel_triple(rng)
        exact = kernel_sequence_of(K, W, E)
        assert exact == kernel_sequence_by_joint(K, W, E), (K, W, E)
        zero_ended = not (len(K) and la.width(K) and len(E))
        seen[exact, zero_ended] += 1
    assert min(seen[key] for key in product((True, False), repeat=2)) >= 100, seen


def test_kernel_sequence_rule_refutes_each_wrong_product():
    # the rule compares W K with the unit rows and E K with empty rows, on
    # their nonzeros; each product wrong in one entry, or W short of a row,
    # is refuted, as the joint route refutes it.  E sums the pairs of
    # coordinates of Z^4; K's columns e_1 - e_0 and e_3 - e_2 span its kernel
    E = ((1, 1, 0, 0), (0, 0, 1, 1))
    K = ((-1, 0), (1, 0), (0, -1), (0, 1))
    W = ((0, 1, 0, 0), (0, 0, 0, 1))
    assert kernel_sequence_of(K, W, E) and kernel_sequence_by_joint(K, W, E)
    wrong = [
        (K, ((0, 1, 0, 1), (0, 0, 0, 1)), E),  # W K = [[1, 1], [0, 1]]
        (K, ((0, 2, 0, 0), (0, 0, 0, 1)), E),  # W K = diag(2, 1)
        (K, ((0, -1, 0, 0), (0, 0, 0, 1)), E),  # W K = diag(-1, 1)
        (K, W[:1], E),  # W has one row fewer than K has columns
        (((0, 0),) + K[1:], W, E),  # E K = [[1, 0], [0, 0]], W K = I still
        (tuple(row + (0,) for row in K), W, E),  # K a zero column too wide: W K = [I | 0]
    ]
    # K's width is given with the rows, not read off W, so W one row short
    # and K one column too wide are refuted on the rows too
    for k, w, e in wrong:
        rows = la._sparse(k), la._sparse(w)
        assert not lt.kernel_sequence_exact(*rows, la.width(k), e), (k, w)
        assert not kernel_sequence_by_joint(k, w, e), (k, w)
    # read as the library reads them, a W one row short or of the wrong
    # width is refused (la._pair_rows), and so is an E of the wrong width
    for w in (W[:1], tuple(row[:3] for row in W), tuple(row + (0,) for row in W)):
        with pytest.raises(ValueError):
            kernel_sequence_of(K, w, E)
    with pytest.raises(ValueError):
        kernel_sequence_of(K, W, tuple(row[:3] for row in E))


def test_exactness_report_factors_no_empty_matrix(monkeypatch):
    # the joints and ends at a zero lattice are read off the shapes: the
    # blocks cases' twisted sequences by restriction, zero lattices at both
    # ends, reach both reads of the Smith form, elementary_divisors and
    # saturated_kernel, with nonempty matrices, and every matrix with no
    # rows or no columns that reaches them is answered from its shape, no
    # divisors, and never factored by an SNF
    from torsorlab import serre as sr

    reads, factored = [], []

    def recorded(f, log):
        def counted(matrix, *args, **kwargs):
            out = f(matrix, *args, **kwargs)
            log.append((f.__name__, len(matrix), la.width(matrix), out))
            return out
        return counted

    for name in ("elementary_divisors", "saturated_kernel"):
        monkeypatch.setattr(la, name, recorded(getattr(la, name), reads))
    monkeypatch.setattr(la, "smith_normal_form", recorded(la.smith_normal_form, factored))
    c2 = gr.cyclic_group(2)
    for f in (gr.trivial_group(), c2, gr.cyclic_group(3), gr.direct_product(c2, c2),
              gr.symmetric_group(3), gr.dihedral_group(4)):
        d = sr.CMGaloisDatum(gr.direct_product(f, c2), f.order)
        assert twist_serre_by_restriction(d).exact
    full = {name for name, rows, cols, _ in reads if rows and cols}
    assert full == {"elementary_divisors", "saturated_kernel"}
    empty = [(name, out) for name, rows, cols, out in reads if not (rows and cols)]
    assert empty and all(out == () for _, out in empty), empty
    assert all(rows and cols for _, rows, cols, _ in factored), factored


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
    reg = lt.permutation_lattice(regular_gset(c2))
    swap = lt.LatticeMap(reg, reg, [[0, 1], [1, 0]])
    assert lt.is_equivariant_iso(swap)


def test_equivariance_enforced():
    c2 = gr.cyclic_group(2)
    reg = lt.permutation_lattice(regular_gset(c2))
    sgn = sign_lattice(c2)
    with pytest.raises(lt.NotEquivariant):
        lt.LatticeMap(reg, sgn, [[1, 1]])
    lt.LatticeMap(reg, sgn, [[1, -1]])  # the norm-twisted projection is fine


def _criteria_2_and_4_maps(monkeypatch) -> list:
    """(source, target, matrix) of every map that criteria 2 and 4 validate:
    the fibre sums of both character sequences and of the twisted quotient
    sequence, the block maps and the projections."""
    from torsorlab import checks
    from torsorlab import serre as sr

    made, make = [], lt.LatticeMap

    def recorded(source, target, matrix, validate=True, **kwargs):
        out = make(source, target, matrix, validate=validate, **kwargs)
        if validate:
            made.append((source, target, out.matrix))
        return out

    monkeypatch.setattr(sr, "LatticeMap", recorded)
    checks.check_block_decomposition()
    checks.check_character_sequences()
    monkeypatch.undo()
    return made


def _verdict(source, target, m) -> bool:
    try:
        lt.LatticeMap(source, target, m)
    except lt.NotEquivariant:
        return False
    return True


def test_equivariance_read_by_permuting_rows_and_columns(monkeypatch):
    # between two permutation lattices the law is read on their points,
    # without multiplying, and a matrix that fails to commute at a generator
    # is refused all the same
    s3 = gr.symmetric_group(3)
    reg = lt.permutation_lattice(regular_gset(s3))
    coset_set = gs.coset_gset(s3, gr.generated_subgroup(s3, [1]))
    cosets = lt.permutation_lattice(coset_set)
    # e_s -> the coset of s
    to_cosets = [[0] * 6 for _ in range(cosets.rank)]
    for s in s3.elements():
        to_cosets[coset_set.apply(s, 0)][s] = 1
    matmul = la.matmul
    monkeypatch.setattr(la, "matmul", None)  # not reached
    lt.LatticeMap(reg, cosets, to_cosets)
    lt.LatticeMap(reg, reg, la.identity(6))
    broken = [list(r) for r in to_cosets]
    broken[0][0], broken[1][0] = broken[1][0], broken[0][0]
    with pytest.raises(lt.NotEquivariant):
        lt.LatticeMap(reg, cosets, broken)
    with pytest.raises(lt.NotEquivariant):
        lt.LatticeMap(reg, reg, [[1] + [0] * 5] + [[0] * 6] * 5)
    monkeypatch.setattr(la, "matmul", matmul)
    # the same verdicts by multiplying
    for m, ok in ((to_cosets, True), (broken, False)):
        m = la.int_rows(m)
        assert ok == all(la.matmul(m, reg.rho[s]) == la.matmul(cosets.rho[s], m)
                         for s in gr.generating_set(s3))
    # every map of criteria 2 and 4 is read on the points of its ends, and
    # each single entry raised by 1 and each swap of two columns of it too;
    # the matrices of the same ends, validated, accept and refuse exactly
    # the same inputs (the matrix route is the one
    # test_signed_row_reader_equals_matmul checks against la.matmul)
    maps = _criteria_2_and_4_maps(monkeypatch)
    # one block map per conjugacy class of C1, C2, C3, C2xC2, S3 and D4
    assert len(maps) == 2 * 65 + 6 + 6 + sum((1, 2, 3, 4, 3, 5))
    seen = Counter()
    for source, target, m in maps:
        assert source.points is not None and target.points is not None
        mutants = [m]
        for i, row in enumerate(m):
            for j in range(len(row)):
                mutants.append(m[:i] + (row[:j] + (row[j] + 1,) + row[j + 1:],) + m[i + 1:])
        for j in range(la.width(m)):
            for k in range(j + 1, la.width(m)):
                order = list(range(la.width(m)))
                order[j], order[k] = k, j
                mutants.append(tuple(tuple(map(row.__getitem__, order)) for row in m))
        ends = (matrix_twin(source), matrix_twin(target))
        for mutant in mutants:
            verdict = _verdict(source, target, mutant)
            assert verdict == _verdict(*ends, mutant)
            seen[verdict] += 1
        assert _verdict(source, target, m)
    # all 2 x 65 + 12 + 18 maps are accepted, and so is every mutant that is
    # the same matrix (a swap of two columns summed into the same row) or
    # another equivariant map; the rest are refused
    assert seen == {True: 1329, False: 23932}


def test_equivariance_of_unit_rows_with_a_repeated_column():
    # an unvalidated C2 "action" whose rho(1) has unit rows e_0, e_0, no
    # permutation: (a, b) rho(1) = (a + b, 0) against (a, b), so (1, 0) is
    # equivariant and (0, 1) is not
    c2 = gr.cyclic_group(2)
    src = lt.ZGLattice(c2, [la.identity(2), ((1, 0), (1, 0))], validate=False)
    one = lt.trivial_lattice(c2, 1)
    lt.LatticeMap(src, one, [[1, 0]])
    with pytest.raises(lt.NotEquivariant):
        lt.LatticeMap(src, one, [[0, 1]])
    assert la.matmul(((0, 1),), src.rho[1]) != ((0, 1),)


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
            # twist_serre's twisted (conjugation) action on the same sublattice
            conj = lt.permutation_lattice(gs.conjugation_twist(g)).rho
            twisted = la.restricted_action(*la._pair_rows(K, W), conj)
            ref = _reference_restriction(K, conj)
            assert all(_same(a, b) for a, b in zip(twisted, ref))
    assert checked == 3 * 65
