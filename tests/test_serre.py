from collections import Counter

import pytest

from torsorlab import cohomology as co
from torsorlab import groups as gr
from torsorlab import gsets as gs
from torsorlab import invsys as iv
from torsorlab import lattices as lt
from torsorlab import linalg as la
from torsorlab import serre as sr
from torsorlab.catalog import central_involutions, group_catalog
from helpers import (
    bareiss_det,
    basis_verdict_by_coordinates,
    coordinates,
    kernel_sequence_by_joint,
    kernel_sequence_of,
    matrix_twin,
    serre_sequence_by_restriction,
    twist_lattice_by_basis_images,
    twist_serre_by_restriction,
    type_vectors_by_definition,
    xsbar_twist_by_restriction,
)


def quad_datum():
    return sr.CMGaloisDatum(gr.cyclic_group(2), 1)


def test_datum_validation():
    with pytest.raises(sr.InvalidDatum):
        sr.CMGaloisDatum(gr.cyclic_group(4), 1)  # order 4 element
    with pytest.raises(sr.InvalidDatum):
        sr.CMGaloisDatum(gr.cyclic_group(2), 0)  # trivial
    s3 = gr.symmetric_group(3)
    with pytest.raises(sr.InvalidDatum):
        sr.CMGaloisDatum(s3, 1)  # involution but not central
    # D4 has a central involution
    d4 = gr.dihedral_group(4)
    z = [x for x in gr.center(d4) if x != 0][0]
    sr.CMGaloisDatum(d4, z)


def test_build_serre_quadratic():
    data = sr.build_serre(quad_datum())
    assert data.xs.rank == 2 and data.xsbar.rank == 1
    # generator of the zero-condition line is the antisymmetric vector
    v = [row[0] for row in data.xsbar_inclusion.matrix]
    assert sorted(v) == [-1, 1]
    assert data.weight == (1, 1, 2)


def test_rank_law_several_data():
    cases = []
    c4 = gr.cyclic_group(4)
    cases.append(sr.CMGaloisDatum(c4, 2))
    v4 = gr.direct_product(gr.cyclic_group(2), gr.cyclic_group(2))
    for i in (1, 2, 3):
        cases.append(sr.CMGaloisDatum(v4, i))
    q8 = gr.quaternion_group(8)
    z = [x for x in gr.center(q8) if x != 0][0]
    cases.append(sr.CMGaloisDatum(q8, z))
    for d in cases:
        g = d.half_order
        data = sr.build_serre(d)
        assert data.xs.rank == g + 1
        assert data.xsbar.rank == g
        rep = sr.verify_serre_sequence(d)
        assert rep.rank_law_holds
        assert rep.with_constant_exact and rep.quotient_exact
        assert rep.ranks == (g + 1, 2 * g + 1, g)


def test_twist_serre_abelian_collapses():
    tw = sr.twist_serre(quad_datum())
    assert tw.middle_is_conjugation_lattice
    assert tw.quotient_is_conjugation_lattice
    assert tw.exact
    assert tw.action_trivial
    # rank preserved by twisting
    assert tw.middle.rank == 2 and tw.sub.rank == 1


def test_twist_serre_nonabelian():
    s3 = gr.symmetric_group(3)
    G = gr.direct_product(s3, gr.cyclic_group(2))
    d = sr.CMGaloisDatum(G, s3.order)
    tw = sr.twist_serre(d)
    assert tw.middle_is_conjugation_lattice
    assert tw.quotient_is_conjugation_lattice
    assert tw.exact
    assert not tw.action_trivial
    for t in G.elements():
        assert abs(bareiss_det(tw.sub.rho[t])) == 1


def test_block_decomposition_c2():
    dec = sr.conjugation_block_decomposition(gr.cyclic_group(2))
    assert dec.block_ranks == (1, 1)
    assert dec.twisted_sub_iso and dec.class_embedding_iso


def test_block_decomposition_s3():
    dec = sr.conjugation_block_decomposition(gr.symmetric_group(3))
    assert sorted(dec.block_ranks) == [1, 2, 3]
    assert dec.total_rank == 6
    assert dec.twisted_sub_iso and dec.class_embedding_iso
    assert dec.first_map_iso
    # centralizer sizes match the orbit-stabilizer bookkeeping
    for blk in dec.blocks:
        assert len(blk.centralizer) * blk.rank == 6


def test_block_decomposition_trivial_group():
    dec = sr.conjugation_block_decomposition(gr.trivial_group())
    assert dec.block_ranks == (1,)
    assert dec.twisted_sub_iso


def _criterion_2_twists(monkeypatch):
    """(lattice, cocycle, auxiliary action, twisted lattice) of every
    twist_lattice call that criterion 2's six block decompositions make,
    on permutation lattices, then of the twist of X*(Sbar) by restriction
    on each of their data, on matrices."""
    calls = []

    def recorded(m, f, nu):
        out = co.twist_lattice(m, f, nu)
        calls.append((m, f, nu, out))
        return out

    monkeypatch.setattr(sr, "twist_lattice", recorded)
    c2 = gr.cyclic_group(2)
    groups = (gr.trivial_group(), c2, gr.cyclic_group(3), gr.direct_product(c2, c2),
              gr.symmetric_group(3), gr.dihedral_group(4))
    for g in groups:
        sr.conjugation_block_decomposition(g)
    assert len(calls) == 12  # middle and quotient, per group
    for g in groups:
        m, f, nu, _ = xsbar_twist_by_restriction(sr.CMGaloisDatum(gr.direct_product(g, c2),
                                                                  g.order))
        recorded(m, f, nu)
    return calls


def _monomial(matrix) -> bool:
    """Is every row of the matrix e_j or -e_j?"""
    return all(sum(map(bool, row)) == 1 and sum(row) in (1, -1) for row in matrix)


def test_twist_lattice_matches_the_route_on_basis_vectors(monkeypatch):
    # every twist of criterion 2 and the X*(Sbar) twists of the route by
    # restriction on its data, then the same twists after the unimodular
    # change of basis P = I + E_01, which makes some action and value
    # matrices non-monomial (the X*(Sbar) value matrices come out as signed
    # permutations), so that not every product is a reordering of rows.  The
    # twists of criterion 2 are read on points, and their matrix twins give
    # the same lattice; with the auxiliary action replaced by the trivial
    # one or by the base's own action, both routes, on points and on
    # matrices, give the same lattice or refuse alike
    on_points = 0
    for m, f, nu, out in _criterion_2_twists(monkeypatch):
        assert twist_lattice_by_basis_images(m, f, nu) == out
        if m.points is not None:
            on_points += 1
            assert nu.points is not None and out.points is not None
            assert co.twist_lattice(matrix_twin(m), f, matrix_twin(nu)) == out
            for other in (lt.trivial_lattice(nu.group, nu.rank), m):
                verdicts = []
                for route in (co.twist_lattice, twist_lattice_by_basis_images):
                    for a, b in ((m, other), (matrix_twin(m), matrix_twin(other))):
                        try:
                            verdicts.append(route(a, f, b))
                        except co.NotAction:
                            verdicts.append(co.NotAction)
                assert all(v == verdicts[0] for v in verdicts), verdicts
        if m.rank < 2:
            continue
        e = la.identity(m.rank)
        P = (tuple(a + b for a, b in zip(e[0], e[1])),) + e[1:]
        P_inv = (tuple(a - b for a, b in zip(e[0], e[1])),) + e[1:]

        def moved(a):
            return la.matmul(la.matmul(P, a), P_inv)

        m_p = lt.ZGLattice(m.group, [moved(a) for a in m.rho])
        nu_p = lt.ZGLattice(nu.group, [moved(v) for v in nu.rho])
        assert not all(map(_monomial, nu_p.rho))
        got = co.twist_lattice(m_p, f, nu_p)
        assert got == twist_lattice_by_basis_images(m_p, f, nu_p)
        assert got.rho == tuple(moved(a) for a in out.rho)
    assert on_points == 12


def test_twist_lattice_refuses_a_flipped_value_row_by_both_routes(monkeypatch):
    # flipping the sign of one row of a value matrix breaks either the
    # compatibility with rho or the action law; on a rank-1 lattice the flip
    # of nu(1) can give another character, so there the routes need only
    # agree.  A flipped row is no permutation: the auxiliary action goes in
    # as matrices, unchecked, and the base as points or as matrices
    for m, f, nu, _ in _criterion_2_twists(monkeypatch):
        for r in range(m.rank):
            flipped = list(nu.rho)
            flipped[1] = tuple(tuple(-v for v in row) if i == r else row
                               for i, row in enumerate(nu.rho[1]))
            flipped = lt.ZGLattice(nu.group, flipped, validate=False)
            verdicts = []
            for route in (co.twist_lattice, twist_lattice_by_basis_images):
                for base in (m, matrix_twin(m)):
                    try:
                        verdicts.append(route(base, f, flipped))
                    except co.NotAction:
                        verdicts.append(co.NotAction)
            assert all(v == verdicts[0] for v in verdicts)
            assert m.rank < 2 or verdicts[0] is co.NotAction


def test_coset_restriction_reads_the_involution_row():
    # Sigma_F, the coset index and the least element of each coset, read off
    # row iota, against the coset G-set of {1, iota} that coset_gset builds,
    # on every CM datum of order <= 16
    data = 0
    for _, g in group_catalog(16):
        for iota in central_involutions(g):
            sigma_f, coset_index, reps = sr._coset_restriction(sr.CMGaloisDatum(g, iota))
            want = gs.coset_gset(g, gr.generated_subgroup(g, [iota]))
            assert sigma_f == want and sigma_f.action == want.action
            assert list(coset_index) == [want.apply(s, 0) for s in g.elements()]
            assert reps == tuple(min(s for s in g.elements() if want.apply(s, 0) == c)
                                 for c in want.points())
            data += 1
    assert data == 65


def test_twist_serre_matches_the_route_by_restriction():
    # X*(Sbar) read once and the twisted action restricted to it, against
    # the twist of the restricted translations and exactness_report, on
    # every CM datum of order <= 16
    data = 0
    for _, g in group_catalog(16):
        for iota in central_involutions(g):
            d = sr.CMGaloisDatum(g, iota)
            tw, want = sr.twist_serre(d), twist_serre_by_restriction(d)
            assert tw.sub.rho == want.sub.rho
            assert (tw.middle, tw.quotient) == (want.middle, want.quotient)
            assert (tw.middle_is_conjugation_lattice, tw.quotient_is_conjugation_lattice,
                    tw.exact, tw.action_trivial) == (
                want.middle_is_conjugation_lattice, want.quotient_is_conjugation_lattice,
                want.exact, want.action_trivial)
            assert tw == want
            assert tw.middle_is_conjugation_lattice and tw.exact
            data += 1
    assert data == 65


def test_twist_serre_restricts_only_the_twisted_action(monkeypatch):
    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for owner, name in ((la, "restricted_action"), (lt, "equivariant_sublattice"),
                        (sr, "equivariant_sublattice"), (lt, "exactness_report"),
                        (sr, "twist_lattice")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    s3 = gr.symmetric_group(3)
    d = sr.CMGaloisDatum(gr.direct_product(s3, gr.cyclic_group(2)), s3.order)
    assert sr.twist_serre(d).exact
    # the middle and the quotient are twisted, and only the twisted middle's
    # action is restricted
    assert calls == Counter({"restricted_action": 1, "twist_lattice": 2})
    # the counters are live: the route by restriction restricts the right
    # and the left translations
    calls.clear()
    assert twist_serre_by_restriction(d).exact
    assert calls == Counter({"restricted_action": 2, "equivariant_sublattice": 1,
                             "exactness_report": 1})


def test_block_h1_vanishing():
    for g in [gr.cyclic_group(2), gr.symmetric_group(3), gr.trivial_group()]:
        rep = sr.block_h1_vanishing(g)
        assert rep.all_vanish


def test_cm_type_basis_quadratic():
    rep = sr.cm_type_basis(quad_datum(), (0,))
    assert rep.in_lattice and rep.is_basis
    with pytest.raises(sr.NotCMType):
        sr.cm_type_basis(quad_datum(), (0, 1))


def test_cm_type_basis_c4_all_types():
    d = sr.CMGaloisDatum(gr.cyclic_group(4), 2)
    types = list(sr.all_cm_types(d))
    assert len(types) == 4
    for phi in types:
        rep = sr.cm_type_basis(d, phi)
        assert rep.in_lattice and rep.is_basis
        assert len(rep.vectors) == d.half_order + 1


def test_cm_type_basis_nonabelian():
    s3 = gr.symmetric_group(3)
    G = gr.direct_product(s3, gr.cyclic_group(2))
    d = sr.CMGaloisDatum(G, s3.order)
    count = 0
    for phi in sr.all_cm_types(d):
        rep = sr.cm_type_basis(d, phi)
        assert rep.in_lattice and rep.is_basis
        count += 1
    assert count == 2 ** d.half_order


def test_cm_type_bases_match_one_call_per_type():
    data = 0
    for _, g in group_catalog(8):
        for iota in central_involutions(g):
            d = sr.CMGaloisDatum(g, iota)
            want = [sr.cm_type_basis(d, phi) for phi in sr.all_cm_types(d)]
            assert list(sr.cm_type_bases(d)) == want
            data += 1
    assert data >= 8


def test_basis_verdict_can_refute():
    d = sr.CMGaloisDatum(gr.cyclic_group(4), 2)
    xs = sr._xs_equations(d)
    vectors = sr._type_vectors(d, (0, 1))
    assert sr._type_verdict(xs, vectors) == (True, True)
    # twice the conjugate sum lies in X*(S), but the vectors span index 2
    doubled = vectors[:-1] + [tuple(2 * x for x in vectors[-1])]
    assert sr._type_verdict(xs, doubled) == (True, False)
    assert sr._type_verdict(xs, vectors[:-1]) == (True, False)
    # e_0 breaks n_s + n_(iota s) = c
    e0 = (1,) + (0,) * d.group.order
    assert sr._type_verdict(xs, vectors[:-1] + [e0]) == (False, False)
    # vectors of unequal length are refused, as elementary_divisors refuses
    # them, whether the longer one is subtracted or subtracted from
    for longer in (0, -1):
        wrong = list(vectors)
        wrong[longer] += (0,)
        with pytest.raises(ValueError):
            sr._type_verdict(xs, wrong)


def _type_variants(vectors):
    """The type vectors, then with the first doubled, one entry shifted,
    the first replaced by the sum of the others, and the last dropped; then
    with the last, the row _type_verdict subtracts from the others, doubled
    or zeroed, with the conjugate sum moved first, and with the first
    repeated after the last."""
    first, last = vectors[0], vectors[-1]
    yield vectors
    yield [tuple(2 * x for x in first)] + vectors[1:]
    yield [(first[0] + 1,) + first[1:]] + vectors[1:]
    yield [tuple(map(sum, zip(*vectors[1:])))] + vectors[1:]
    yield vectors[:-1]
    yield vectors[:-1] + [tuple(2 * x for x in last)]
    yield vectors[:-1] + [(0,) * len(last)]
    yield [last] + vectors[:-1]
    yield vectors + [first]


def test_type_verdicts_agree_with_the_coordinate_route():
    # the rank-lemma verdict against coordinates in a saturated kernel, on
    # every CM type of order <= 12 and eight variants of each
    seen = Counter()
    for _, g in group_catalog(12):
        for iota in central_involutions(g):
            d = sr.CMGaloisDatum(g, iota)
            xs, (K, W) = sr._xs_equations(d), sr._xs_kernel(d, True)
            for phi in sr.all_cm_types(d):
                for vectors in _type_variants(sr._type_vectors(d, sr._cm_type(d, phi))):
                    verdict = sr._type_verdict(xs, vectors)
                    assert verdict == basis_verdict_by_coordinates(K, W, vectors)
                    seen[verdict] += 1
    assert sum(seen.values()) == 9 * 650
    assert set(seen) == {(True, True), (True, False), (False, False)}


def test_type_vectors_match_their_definition():
    # each modified sum built by its definition, against the copies of the
    # conjugate sum, on every CM type of order <= 12
    types = 0
    for _, g in group_catalog(12):
        for iota in central_involutions(g):
            d = sr.CMGaloisDatum(g, iota)
            for phi in sr.all_cm_types(d):
                phi = sr._cm_type(d, phi)
                assert sr._type_vectors(d, phi) == type_vectors_by_definition(d, phi)
                types += 1
    assert types == 650


@pytest.mark.parametrize("phi", [(0, 5), (0, -1), (0, 1.5), (0, "1"), (0, None), 3, (0, 2),
                                 (0,), (0, 1, 3)])
def test_malformed_cm_types_raise_not_cm_type(phi):
    # C4 with iota = 2 pairs 0 with 2 and 1 with 3
    with pytest.raises(sr.NotCMType):
        sr.cm_type_basis(sr.CMGaloisDatum(gr.cyclic_group(4), 2), phi)


@pytest.mark.parametrize("iota", [2.0, "2", None, 4, -2])
def test_malformed_involutions_raise_invalid_datum(iota):
    with pytest.raises(sr.InvalidDatum):
        sr.CMGaloisDatum(gr.cyclic_group(4), iota)


def _type_report_through_build_serre(d, data, phi) -> tuple:
    """(vectors, in_lattice, is_basis) from X*(S) as build_serre builds it,
    with the basis decided by a determinant instead of an SNF."""
    g, n = d.group, d.group.order
    conj = [0] * (n + 1)
    for tau in phi:
        conj[g.mul(d.iota, tau)] += 1
    conj[n] = 1
    vectors = []
    for tau in phi:
        vec = list(conj)
        vec[g.mul(d.iota, tau)] -= 1
        vec[tau] += 1
        vectors.append(tuple(vec))
    vectors.append(tuple(conj))
    inc = data.xs_inclusion
    X = coordinates(inc.matrix, inc.retraction, la.transpose(vectors))
    if X is None:
        return tuple(vectors), False, False
    square = len(X) == la.width(X) == data.xs.rank
    return tuple(vectors), True, square and abs(bareiss_det(X)) == 1


def test_cm_type_bases_agree_with_the_serre_data_route():
    types = 0
    for _, g in group_catalog(12):
        for iota in central_involutions(g):
            d = sr.CMGaloisDatum(g, iota)
            data = sr.build_serre(d)
            assert la.width(sr._xs_kernel(d, True)[0]) == data.xs.rank
            for rep in sr.cm_type_bases(d):
                want = _type_report_through_build_serre(d, data, rep.phi)
                assert (rep.vectors, rep.in_lattice, rep.is_basis) == want
                types += 1
    assert types == 650


def test_cm_type_path_restricts_no_action(monkeypatch):
    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(la, "restricted_action",
                        counted("restricted_action", la.restricted_action))
    monkeypatch.setattr(sr, "build_serre", counted("build_serre", sr.build_serre))
    s3 = gr.symmetric_group(3)
    d = sr.CMGaloisDatum(gr.direct_product(s3, gr.cyclic_group(2)), s3.order)
    sr.cm_type_basis(d, next(sr.all_cm_types(d)))
    assert len(list(sr.cm_type_bases(d))) == 2 ** d.half_order
    assert calls == Counter()
    # the counters are live: the route by restriction restricts
    sr.build_serre(d)
    assert calls["build_serre"] == 1 and calls["restricted_action"] >= 2


def test_coordinates_in_the_serre_lattice_can_fail():
    # e_0 breaks n_s + n_(iota s) = c, so it has no coordinates in X*(S)
    d = sr.CMGaloisDatum(gr.cyclic_group(4), 2)
    data = sr.build_serre(d)
    n = d.group.order
    inc = data.xs_inclusion
    assert coordinates(inc.matrix, inc.retraction, la.transpose([[1] + [0] * n])) is None
    X = coordinates(inc.matrix, inc.retraction, la.transpose([data.weight, [2] * n + [4]]))
    assert X is not None and [r[1] for r in X] == [2 * r[0] for r in X]


def test_serre_sequence_matches_the_route_by_restriction():
    # the kernel route against exactness_report over build_serre's maps, on
    # every CM datum of order <= 16
    data = 0
    for _, g in group_catalog(16):
        for iota in central_involutions(g):
            d = sr.CMGaloisDatum(g, iota)
            rep = sr.verify_serre_sequence(d)
            assert rep == serre_sequence_by_restriction(d)
            assert rep.rank_law_holds and rep.with_constant_exact and rep.quotient_exact
            data += 1
    assert data == 65


def test_kernel_sequence_rule_can_refute():
    s3 = gr.symmetric_group(3)
    d = sr.CMGaloisDatum(gr.direct_product(s3, gr.cyclic_group(2)), s3.order)
    n = d.group.order
    _, coset_index, _ = sr._coset_restriction(d)
    for with_constant in (True, False):
        K, W = sr._xs_kernel(d, with_constant)
        E = sr._fibre_sums(coset_index, len(K), n // 2)
        if with_constant:
            for row in E:
                row[n] = -1
        E = la.int_rows(E)
        assert kernel_sequence_of(K, W, E)
        # one row doubled: the same kernel, but E is not onto
        doubled = _twice(E[:1]) + E[1:]
        assert lt.joint_report(K, doubled, len(K)).exact
        assert not kernel_sequence_of(K, W, doubled)
        # 2K: ker E / im 2K is finite and nonzero
        twice = _twice(K)
        joint = lt.joint_report(twice, E, len(K))
        assert joint.composite_zero and joint.image_equals_kernel_saturated
        assert not joint.image_equals_kernel_integral and not joint.exact
        assert not kernel_sequence_of(twice, W, E)
        # a W that is no left inverse of K
        assert not kernel_sequence_of(K, _twice(W), E)


def _twice(M) -> tuple:
    return tuple(tuple(2 * x for x in row) for row in M)


def test_serre_kernel_sequences_agree_with_the_joint_route():
    # the rank lemma against a second kernel on both sequences of every CM
    # datum of order <= 16, and on each with E given a doubled row, E
    # missing a row, K doubled or W doubled
    seen = Counter()
    for _, g in group_catalog(16):
        for iota in central_involutions(g):
            d = sr.CMGaloisDatum(g, iota)
            n = g.order
            _, coset_index, _ = sr._coset_restriction(d)
            for with_constant in (True, False):
                K, W = sr._xs_kernel(d, with_constant)
                E = sr._fibre_sums(coset_index, len(K), n // 2)
                if with_constant:
                    for row in E:
                        row[n] = -1
                E = la.int_rows(E)
                for k, w, e in ((K, W, E), (K, W, _twice(E[:1]) + E[1:]), (K, W, E[1:]),
                                (_twice(K), W, E), (K, _twice(W), E)):
                    exact = kernel_sequence_of(k, w, e)
                    assert exact == kernel_sequence_by_joint(k, w, e)
                    seen[exact] += 1
    assert seen == {True: 2 * 65, False: 8 * 65}


def test_xs_rank_is_half_the_order_by_count():
    # _xs_equations reads the distinct equations of X*(S) off row iota of
    # the group table: they are the distinct rows of _pair_equations, and
    # their count, |G|/2, is the rank of those rows, on every CM datum of
    # order <= 16
    data = 0
    for _, g in group_catalog(16):
        for iota in central_involutions(g):
            d = sr.CMGaloisDatum(g, iota)
            rows = sr._xs_equations(d)
            pairs = sr._pair_equations(d, True)
            assert rows == [[(c, v) for c, v in enumerate(row) if v]
                            for row in dict.fromkeys(pairs)]
            assert len(la.elementary_divisors(pairs)) == len(rows) == d.half_order
            data += 1
    assert data == 65


def test_type_verdict_counts_the_rank_of_xs():
    # with one equation of X*(S) dropped, the kernel has rank |G|/2 + 2, so
    # the |G|/2 + 1 vectors of every CM type of order <= 12 still lie in it
    # but are no basis of it: the rank is counted from the rows given
    types = 0
    for _, g in group_catalog(12):
        for iota in central_involutions(g):
            d = sr.CMGaloisDatum(g, iota)
            rows = sr._xs_equations(d)
            for phi in sr.all_cm_types(d):
                vectors = sr._type_vectors(d, sr._cm_type(d, phi))
                assert sr._type_verdict(rows, vectors) == (True, True)
                assert sr._type_verdict(rows[1:], vectors) == (True, False)
                types += 1
    assert types == 650


def test_the_serre_data_checks_can_fire(monkeypatch):
    d = sr.CMGaloisDatum(gr.cyclic_group(4), 2)
    n = d.group.order
    xs, xsbar = (la._pair_rows(*sr._xs_kernel(d, c)) for c in (True, False))
    assert sr._weights_on_rows(n, xs, xsbar) == (1,) * n + (2,)
    # c = 0 added to the equations: the weight leaves X*(S)
    no_weight = la.saturated_kernel(sr._pair_equations(d, True) + ((0,) * n + (1,),))
    with pytest.raises(sr.InvalidDatum, match="weight lies outside"):
        sr._weights_on_rows(n, la._pair_rows(*no_weight), xsbar)
    # no equations: X*(Sbar) would be all of Z[G], which holds (1, ..., 1)
    with pytest.raises(sr.InvalidDatum, match="weight axis"):
        sr._weights_on_rows(n, xs, la._pair_rows(*la.saturated_kernel(((0,) * n,))))
    # one pair's equation dropped from the distinct equations that both
    # kernels read: they grow past the rank law
    xs_equations = sr._xs_equations
    monkeypatch.setattr(sr, "_xs_equations", lambda d: xs_equations(d)[1:])
    with pytest.raises(sr.InvalidDatum, match="rank law"):
        sr.verify_serre_sequence(d)
    # the CM-type path counts the rank of X*(S) from the same equations
    # instead: a type's vectors still lie in the larger kernel but are no
    # basis of it
    rep = sr.cm_type_basis(d, next(sr.all_cm_types(d)))
    assert rep.in_lattice and not rep.is_basis
    monkeypatch.setattr(sr, "_xs_equations", xs_equations)
    # a fibre-sum map that is no longer equivariant, on each sequence
    fibre_sums = sr._fibre_sums
    for width in (n + 1, n):
        def broken(coset_index, w, cosets, width=width):
            rows = fibre_sums(coset_index, w, cosets)
            if w == width:
                rows[0] = [1] * w
            return rows
        monkeypatch.setattr(sr, "_fibre_sums", broken)
        with pytest.raises(lt.NotEquivariant):
            sr.verify_serre_sequence(d)
    monkeypatch.setattr(sr, "_fibre_sums", fibre_sums)
    sr.verify_serre_sequence(d)


def test_sequence_path_restricts_no_action(monkeypatch):
    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for owner, name in ((la, "restricted_action"), (lt, "equivariant_sublattice"),
                        (sr, "equivariant_sublattice"), (sr, "build_serre")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    s3 = gr.symmetric_group(3)
    d = sr.CMGaloisDatum(gr.direct_product(s3, gr.cyclic_group(2)), s3.order)
    rep = sr.verify_serre_sequence(d)
    assert rep.with_constant_exact and rep.quotient_exact
    assert calls == Counter()
    # the counters are live
    serre_sequence_by_restriction(d)
    assert calls["build_serre"] == 1 and calls["equivariant_sublattice"] == 2
    assert calls["restricted_action"] == 2


def test_constant_tower_classifies_trivial():
    assert iv.lim1_classify(sr.constant_tower(3)).status == "trivial"


def test_layered_tower_classifies_uncountable():
    v = iv.lim1_classify(sr.layered_obstruction_tower(3, 7, levels=1))
    assert v.status == "uncountable"
    lv = v.certificate["levels"][0]
    assert lv["norm_unit_index"] == 3
    assert lv["new_layer_ramification"] == ((3, 1),)
