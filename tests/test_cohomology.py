import copy
import functools
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsorlab import catalog
from torsorlab import checks
from torsorlab import cohomology as co
from torsorlab import groups as gr
from torsorlab import gsets as gs
from torsorlab import lattices as lt
from torsorlab import linalg as la
import helpers
from helpers import (bareiss_det, disjoint_union, h1_by_relators, h1_from_rows, lattice_eq,
                     least_non_witness, lim1_obstruction_per_choice, matrix_twin,
                     padded_with_a_non_witness, point_orbit_count, regular_gset,
                     relator_rows, schreier_presentation, witness_lists_by_definition)
from test_laws import ref_cocycle
from test_work_counts import _twist_steps_read


def sign_lattice(c2):
    return lt.ZGLattice(c2, [la.identity(1), la.int_rows([[-1]])])


def _np(matrix) -> np.ndarray:
    """A rows matrix as a numpy object array: the form of the oracles."""
    rows = [list(r) for r in matrix]
    return np.array(rows, dtype=object).reshape(len(rows), la.width(rows))


def cyclic_h1_oracle(n, mat):
    """H^1(C_n, Z^r) = ker(Norm) / im(sigma - 1), computed independently."""
    mat = _np(mat)
    r = mat.shape[0]
    one = _np(la.identity(r))
    norm = 0 * one
    p = one
    for _ in range(n):
        norm = norm + p
        p = mat @ p
    ker = la.kernel_basis(norm.tolist())
    X = la.solve_int(ker, (mat - one).tolist())
    assert X is not None
    return tuple(d for d in la.smith_normal_form(X, transforms=()).diagonal if d > 1)


def test_crossed_hom_validation_and_closure():
    c2 = gr.cyclic_group(2)
    s3 = gr.symmetric_group(3)
    n = co.trivial_gamma_group(c2, s3)
    f = co.CrossedHom.from_generators(c2, n, {1: 1})  # 1 is an involution in S3
    assert f(1) == 1
    with pytest.raises(co.NotCocycle):
        co.CrossedHom.from_generators(c2, n, {1: 2})  # order-3 value, not a hom
    with pytest.raises(co.NotCocycle):
        co.CrossedHom(c2, n, (0, 2))


def test_from_generators_rejects_out_of_range_input():
    c2 = gr.cyclic_group(2)
    n = co.trivial_gamma_group(c2, gr.symmetric_group(3))
    # -5 would index S3's table as the element 1 if it were not checked
    for gen_values in ({1: -5}, {1: 6}, {2: 1}, {-1: 1}):
        with pytest.raises(co.NotCocycle):
            co.CrossedHom.from_generators(c2, n, gen_values)


def test_h1_sign_action():
    c2 = gr.cyclic_group(2)
    H = co.h1_abelian(c2, sign_lattice(c2))
    assert H.invariants == (2,)
    assert H.order() == 2


def test_h1_invariants_ascend():
    # H^1(C4, I) = Z/4 for the augmentation ideal I of Z[C4], and H^1 of
    # the sign lattice is Z/2: the sum in either order reads (2, 4)
    c4 = gr.cyclic_group(4)
    ideal, _ = lt.equivariant_sublattice(lt.permutation_lattice(regular_gset(c4)), [[1] * 4])
    sign = lt.ZGLattice(c4, [la.int_rows([[(-1) ** k]]) for k in c4.elements()])
    assert co.h1_abelian(c4, ideal).invariants == (4,)
    for m in (lt.direct_sum(ideal, sign), lt.direct_sum(sign, ideal)):
        H = co.h1_abelian(c4, m)
        assert H.invariants == (2, 4) and H.order() == 8


def test_h1_regular_vanishes():
    for g in [gr.cyclic_group(4), gr.symmetric_group(3), gr.quaternion_group(8)]:
        m = lt.permutation_lattice(regular_gset(g))
        assert co.h1_abelian(g, m).is_trivial


def test_h1_trivial_group():
    c1 = gr.trivial_group()
    assert co.h1_abelian(c1, lt.trivial_lattice(c1, 3)).is_trivial


def test_h1_cyclic_oracle_agreement():
    # C_n acting on small lattices: compare with ker(Norm)/im(sigma-1)
    cases = []
    c2 = gr.cyclic_group(2)
    cases.append((c2, [la.identity(1), la.int_rows([[-1]])]))
    cases.append((c2, [la.identity(2), la.int_rows([[0, 1], [1, 0]])]))
    c4 = gr.cyclic_group(4)
    rot = la.int_rows([[0, -1], [1, 0]])
    rot2 = la.matmul(rot, rot)
    cases.append((c4, [la.identity(2), rot, rot2, la.matmul(rot2, rot)]))
    c3 = gr.cyclic_group(3)
    m3 = la.int_rows([[0, -1], [1, -1]])
    cases.append((c3, [la.identity(2), m3, la.matmul(m3, m3)]))
    for g, rho in cases:
        mine = co.h1_abelian(g, lt.ZGLattice(g, rho)).invariants
        oracle = cyclic_h1_oracle(g.order, rho[1])
        assert tuple(sorted(mine)) == tuple(sorted(oracle))


def _reference_tree_constraints(gamma, mats, r, gens):
    """The first construction of the cocycle constraints: numpy object blocks,
    one matmul `mats[g] @ blocks[s]` per Cayley edge, and one r-row block
    `f(g) + rho(g) f(s) - f(g s)` per non-tree edge.

    Kept as the oracle of `helpers.relator_rows`: the relator rows must cut out
    the same cocycle lattice.
    """
    width = len(gens) * r
    mats = [_np(m) for m in mats]
    blocks = {}
    for i, s in enumerate(gens):
        b = np.zeros((r, width), dtype=object)
        b[:, i * r : (i + 1) * r] = _np(la.identity(r))
        blocks[s] = b
    exprs = {0: np.zeros((r, width), dtype=object)}
    constraints = []
    frontier = [0]
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                t = gamma.mul(g, s)
                e = exprs[g] + mats[g] @ blocks[s]
                if t not in exprs:
                    exprs[t] = e
                    new.append(t)
                else:
                    constraints.append(e - exprs[t])
        frontier = new
    assert len(exprs) == gamma.order
    # as lists of int rows, the form helpers.relator_rows builds
    return np.concatenate(constraints, axis=0).tolist() if constraints else []


def constraint_cases():
    """(label, gamma, mats, r) for the cocycle-constraint oracles: every
    permutation lattice Z[G/H] of the catalog up to order 12, the C2 sign
    lattice, and actions with negative entries that are no permutations."""
    cases = []
    for name, g in catalog.group_catalog(12):
        for h in gr.all_subgroups(g):
            m = lt.permutation_lattice(gs.coset_gset(g, h))
            cases.append((f"{name}/{len(h)}", g, m.rho, m.rank))
    c2, c3, c4 = gr.cyclic_group(2), gr.cyclic_group(3), gr.cyclic_group(4)
    cases.append(("C2 sign", c2, sign_lattice(c2).rho, 1))
    m3 = la.int_rows([[0, -1], [1, -1]])
    # C4 on Z^4 by -P, P the regular permutation: (-1)^g P^g
    reg = lt.permutation_lattice(gs.coset_gset(c4, (0,)))
    # S3 on the sum-zero sublattice of Z^3, basis e0 - e2, e1 - e2
    s3 = gr.symmetric_group(3)
    pts = lt.permutation_lattice(gs.coset_gset(s3, (0, 1)))
    basis = la.int_rows([[1, 0], [0, 1], [-1, -1]])
    for label, m in (
        ("C3 rotation", lt.ZGLattice(c3, [la.identity(2), m3, la.matmul(m3, m3)])),
        ("C4 signed regular", lt.ZGLattice(c4, [(_np(reg.rho[g]) * (-1) ** g).tolist()
                                                for g in range(4)])),
        ("S3 root lattice", lt.ZGLattice(s3, [la.matmul(p, basis)[:2] for p in pts.rho])),
    ):
        cases.append((label, m.group, m.rho, m.rank))
    return cases


def _lattice(g, mats):
    return lt.ZGLattice(g, mats, validate=False)


def _h1_or_none(route):
    try:
        return route().invariants
    except co.NotAction:  # a free factor: the cocycle lattice is too large
        return None


def _relator_disagreements(presentation=schreier_presentation):
    """Labels of the constraint cases on which the relator rows of
    `presentation` cut out another cocycle lattice than the tree reference,
    or h1_abelian reads other invariants than the relator route or the tree
    route of helpers.h1_from_rows (a free factor in either is none)."""
    bad = []
    for label, g, mats, r in constraint_cases():
        gens, relators = presentation(g)
        got = relator_rows(g, mats, r, gens, relators)
        ref = _reference_tree_constraints(g, mats, r, gens)
        assert all(type(row) is list and len(row) == len(ref[0]) for row in got), label
        assert all(type(v) is int for row in got for v in row), label
        same_z1 = lattice_eq(la.kernel_basis(got), la.kernel_basis(ref))
        mine = co.h1_abelian(g, _lattice(g, mats)).invariants
        by_relators = _h1_or_none(lambda: h1_from_rows(mats, gens, got))
        by_tree = _h1_or_none(lambda: h1_from_rows(mats, gens, ref))
        if not same_z1 or not mine == by_relators == by_tree:
            bad.append(label)
    return bad


def test_relator_rows_match_tree_reference_kernel():
    assert _relator_disagreements() == []


def test_relator_oracle_refutes_a_missing_relator():
    # the same comparison, without every relator that contains the last
    # generator, must see the difference
    def short(g):
        gens, relators = schreier_presentation(g)
        last = {2 * len(gens) - 2, 2 * len(gens) - 1}
        return gens, tuple(w for w in relators if not last & set(w))

    bad = _relator_disagreements(short)
    assert len(bad) > 20


def sign_twist_cases():
    """(group, chi kernel K, subgroup H, chi . Z[G/H]) for every subgroup H
    of each catalog group of order <= 24 with a sign character chi, the one
    whose kernel K is the first subgroup of index 2.  By Shapiro's lemma H^1
    is H^1(H, Z_chi) = Z/2 when H leaves K, and 0 when H lies in K."""
    cases = []
    for _, g in catalog.group_catalog(24):
        subgroups = gr.all_subgroups(g)
        k = next((set(k) for k in subgroups if 2 * len(k) == g.order), None)
        if k is None:
            continue
        for h in subgroups:
            m = lt.permutation_lattice(gs.coset_gset(g, h))
            rho = [m.rho[x] if x in k else tuple(tuple(-v for v in row) for row in m.rho[x])
                   for x in g.elements()]
            cases.append((g, k, h, lt.ZGLattice(g, rho, validate=False)))
    return cases


def test_h1_abelian_matches_the_relator_route_on_sign_twists():
    nontrivial = 0
    for g, k, h, m in sign_twist_cases():
        want = () if set(h) <= k else (2,)
        assert co.h1_abelian(g, m).invariants == h1_by_relators(g, m).invariants == want
        nontrivial += want == (2,)
    assert nontrivial > 400


@functools.cache
def small_lattices() -> tuple:
    """(group, rho) of rank <= 4 over the catalog groups of order <= 6: the
    coset lattices Z[G/H] and the sign twists of sign_twist_cases."""
    cosets = [(g, lt.permutation_lattice(gs.coset_gset(g, h)).rho)
              for _, g in catalog.group_catalog(6) for h in gr.all_subgroups(g)]
    twists = [(g, m.rho) for g, _, _, m in sign_twist_cases() if g.order <= 6]
    return tuple((g, rho) for g, rho in cosets + twists if len(rho[0]) <= 4)


def _fixed_points_mod(rho, gens, n) -> int:
    """#{v in (Z/n)^r : rho(s) v = v mod n for every s in gens}."""
    return sum(all(tuple(sum(a * b for a, b in zip(row, v)) % n for row in rho[s]) == v
                   for s in gens)
               for v in itertools.product(range(n), repeat=len(rho[0])))


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_h1_abelian_order_matches_a_count_of_fixed_points(data):
    # n = |G| kills H^1(G, M), so 0 -> M -n-> M -> M/nM -> 0 gives
    # |(M/nM)^G| = n^rank(M^G) |H^1(G, M)|, and rank M^G is the mean trace of
    # rho: an order with no SNF.  The lattices are small coset lattices and
    # sign twists, and their conjugates P rho P^-1 by a unimodular P, which
    # are not monomial
    g, rho = data.draw(st.sampled_from(small_lattices()))
    r, n = len(rho[0]), g.order
    p, p_inv = [list(row) for row in la.identity(r)], [list(row) for row in la.identity(r)]
    for _ in range(data.draw(st.integers(0, 3)) if r > 1 else 0):
        i, j = data.draw(st.permutations(range(r)))[:2]
        c = data.draw(st.sampled_from([-2, -1, 1, 2]))
        # P <- (I + c e_ij) P and P^-1 <- P^-1 (I - c e_ij)
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= c * row[i]
    rho = [la.matmul(la.matmul(p, m), p_inv) for m in rho]
    invariant_rank, rest = divmod(sum(m[k][k] for m in rho for k in range(r)), n)
    fixed = _fixed_points_mod(rho, gr.generating_set(g), n)
    assert rest == 0 and fixed % n**invariant_rank == 0
    assert co.h1_abelian(g, lt.ZGLattice(g, rho)).order() == fixed // n**invariant_rank


def test_relator_rows_reject_a_word_that_is_no_relator():
    s3 = gr.symmetric_group(3)
    gens, relators = schreier_presentation(s3)
    m = lt.permutation_lattice(gs.coset_gset(s3, (0,)))
    with pytest.raises(ValueError, match="identity"):
        h1_by_relators(s3, m, lambda g: (gens, relators + ((0,),)))


def test_h1_coboundary_coordinates_equal_solve_int(monkeypatch):
    # the relator route's Y, read off the kernel's retraction, is
    # solve_int(Z, D)
    calls = []
    coordinates = helpers.coordinates

    def spy(Z, W, D):
        Y = coordinates(Z, W, D)
        calls.append((Z, D, Y))
        return Y

    monkeypatch.setattr(helpers, "coordinates", spy)
    nontrivial = 0
    for _, g, mats, _ in constraint_cases():
        nontrivial += not h1_by_relators(g, _lattice(g, mats)).is_trivial
    for Z, D, Y in calls:
        want = la.solve_int(Z, D)
        assert Y == want
        assert all(type(v) is int for row in Y for v in row)
    assert len(calls) > 100 and nontrivial >= 3


def test_h1_abelian_takes_an_snf_only_for_a_unit_free_remainder(monkeypatch):
    # the coboundary route reads the elementary divisors of the stacked
    # rho(s) - I and builds no cocycle lattice.  A coset lattice's matrix is
    # a signed incidence matrix, which eliminates on unit pivots alone and
    # takes no SNF (one transform-free SNF each when every read took one);
    # the sign lattice of C2 leaves (-2), whose transform-free SNF gives the
    # invariant 2 that the cyclic oracle finds
    calls = []
    snf = la.smith_normal_form

    def counting(matrix, **kwargs):
        calls.append((la.int_rows(matrix), kwargs))
        return snf(matrix, **kwargs)

    def refuse(*args):
        raise AssertionError("cocycle lattice")

    monkeypatch.setattr(la, "smith_normal_form", counting)
    monkeypatch.setattr(la, "saturated_kernel", refuse)
    monkeypatch.setattr(la, "_retract", refuse)
    s4 = gr.symmetric_group(4)
    for h in ((0,), gr.all_subgroups(s4)[-2]):
        calls.clear()
        assert co.h1_abelian(s4, lt.permutation_lattice(gs.coset_gset(s4, h))).is_trivial
        assert calls == []
    c2 = gr.cyclic_group(2)
    sign = sign_lattice(c2)
    calls.clear()
    assert co.h1_abelian(c2, sign).invariants == (2,)
    assert calls == [(((-2,),), {"transforms": ()})]
    assert cyclic_h1_oracle(2, sign.rho[1]) == (2,)


def test_h1_abelian_leaves_rho_unchanged():
    # h1_abelian eliminates on row lists of its own, never on rho's rows:
    # coset lattices, a sign twist with entries -1 and invariants (2,), and
    # that twist beside a trivial lattice
    s4 = gr.symmetric_group(4)
    lattices = [(s4, lt.permutation_lattice(gs.coset_gset(s4, h)), ())
                for h in gr.all_subgroups(s4)]
    g, _, _, twist = next(c for c in sign_twist_cases()
                          if c[0].order == 6 and not set(c[2]) <= c[1])
    assert any(-1 in row for m in twist.rho for row in m)
    lattices += [(g, twist, (2,)), (g, lt.direct_sum(twist, lt.trivial_lattice(g, 2)), (2,))]
    for g, m, want in lattices:
        before = copy.deepcopy(m.rho)
        assert co.h1_abelian(g, m).invariants == want
        assert m.rho == before


def test_shapiro_various():
    # H^1(G, Z[G/H]) = H^1(H, Z) = Hom(H, Z) = 0
    s3 = gr.symmetric_group(3)
    for h in gr.all_subgroups(s3) + (tuple(s3.elements()), (0,)):
        assert co.h1_abelian(s3, lt.permutation_lattice(gs.coset_gset(s3, h))).is_trivial


def test_nonabelian_h1_examples():
    c2 = gr.cyclic_group(2)
    s3 = gr.symmetric_group(3)
    H = co.h1_nonabelian(c2, co.trivial_gamma_group(c2, s3))
    assert H.count == 2
    assert H.sizes == (1, 3)
    # trivial coefficient group
    H = co.h1_nonabelian(c2, co.trivial_gamma_group(c2, gr.trivial_group()))
    assert H.count == 1
    # C2 on C3 by inversion: all three cocycles cobound
    c3 = gr.cyclic_group(3)
    n = co.GammaGroup(c2, c3, np.array([[0, 1, 2], [0, 2, 1]]))
    H = co.h1_nonabelian(c2, n)
    assert H.count == 1 and H.cocycle_count == 3


def test_budget():
    g = gr.symmetric_group(3)
    n = co.trivial_gamma_group(g, gr.symmetric_group(4))
    with pytest.raises(co.BudgetExceeded):
        co.h1_nonabelian(g, n, budget=10)


def test_twist_group_trivial_and_translation():
    c2 = gr.cyclic_group(2)
    s3 = gr.symmetric_group(3)
    n = co.trivial_gamma_group(c2, s3)
    f = co.trivial_cocycle(c2, n)
    assert co.twist_group(n, f) == n
    # a group acting trivially on itself, twisted by the identity cocycle,
    # becomes the conjugation action
    selfn = co.trivial_gamma_group(s3, s3)
    taut = co.CrossedHom(s3, selfn, tuple(s3.elements()))
    tw = co.twist_group(selfn, taut)
    conj = gs.conjugation_twist(s3)
    assert tw.action == conj.action


def test_twist_group_double_twist_recovers():
    c2 = gr.cyclic_group(2)
    s3 = gr.symmetric_group(3)
    n = co.trivial_gamma_group(c2, s3)
    f = co.CrossedHom.from_generators(c2, n, {1: 1})
    tw = co.twist_group(n, f)
    # inverse cocycle is a cocycle for the twisted action
    ginv = co.CrossedHom(c2, tw, tuple(s3.inv(v) for v in f.values))
    back = co.twist_group(tw, ginv)
    assert back.action == n.action


def _lattice_of_action(g, act):
    """The permutation lattice of the action t.x = act(t, x) on g's elements."""
    return lt.permutation_lattice(gs.GSet(g, [[act(t, x) for x in g.elements()]
                                              for t in g.elements()]))


def test_twist_lattice_conjugation():
    s3 = gr.symmetric_group(3)
    # right-translation action: rho(t) e_s = e_{s t^-1}
    rho = []
    for t in s3.elements():
        m = np.zeros((6, 6), dtype=object)
        for x in s3.elements():
            m[s3.mul(x, s3.inv(t)), x] = 1
        rho.append(m)
    right = lt.ZGLattice(s3, rho)
    selfn = co.trivial_gamma_group(s3, s3)
    taut = co.CrossedHom(s3, selfn, tuple(s3.elements()))
    left = []
    for x in s3.elements():
        m = np.zeros((6, 6), dtype=object)
        for y in s3.elements():
            m[s3.mul(x, y), y] = 1
        left.append(m)
    left = lt.ZGLattice(s3, left)
    tw = co.twist_lattice(right, taut, left)
    conj = lt.permutation_lattice(gs.conjugation_twist(s3))
    assert tw == conj and tw.points is None
    # trivial cocycle leaves the lattice unchanged
    tw0 = co.twist_lattice(right, co.trivial_cocycle(s3, selfn), left)
    assert tw0 == right
    # rank and unimodularity preserved
    for g in s3.elements():
        assert abs(bareiss_det(tw.rho[g])) == 1
    # the same twist of the two regular permutation lattices, read on points
    on_points = co.twist_lattice(_lattice_of_action(s3, lambda t, x: s3.mul(x, s3.inv(t))), taut,
                                 _lattice_of_action(s3, s3.mul))
    assert on_points.points == conj.points and on_points == tw


def test_twist_lattice_rejects_left_action_base():
    s3 = gr.symmetric_group(3)
    left_lattice = lt.permutation_lattice(regular_gset(s3))
    selfn = co.trivial_gamma_group(s3, s3)
    taut = co.CrossedHom(s3, selfn, tuple(s3.elements()))
    # on points, and on the matrices of the same lattice
    for nu in (left_lattice, matrix_twin(left_lattice)):
        with pytest.raises(co.NotAction, match="incompatible"):
            co.twist_lattice(left_lattice, taut, nu)


def make_system(gamma, levels, transitions):
    return co.TruncatedGammaSystem(tuple(levels), tuple(transitions))


def test_lim1_obstruction_trivial_pair():
    c2 = gr.cyclic_group(2)
    s3 = gr.symmetric_group(3)
    lv = [co.trivial_gamma_group(c2, s3)] * 3
    tr = [gr.identity_hom(s3)] * 2
    system = make_system(c2, lv, tr)
    top = co.CrossedHom.from_generators(c2, lv[2], {1: 1})
    fam = co.compatible_family(system, top)
    rep = co.lim1_obstructions(system, fam, fam)[0]
    assert rep.witnesses == (0, 0, 0)
    assert rep.trivial and rep.memberships_verified
    assert all(e == 0 for e in rep.obstruction)


def test_lim1_obstruction_membership_and_choice_independence():
    c2 = gr.cyclic_group(2)
    s3 = gr.symmetric_group(3)
    lv = [co.trivial_gamma_group(c2, s3)] * 3
    tr = [gr.identity_hom(s3)] * 2
    system = make_system(c2, lv, tr)
    top = co.CrossedHom.from_generators(c2, lv[2], {1: 1})
    fam = co.compatible_family(system, top)
    # twist by a coherent witness family
    a_top = 4
    avals = [a_top, a_top, a_top]
    famp = tuple(
        co.twist_cocycle(f, a) for f, a in zip(fam, avals)
    )
    all_wit = [co.level_witnesses(fam[i], famp[i]) for i in range(3)]
    assert all(all_wit)
    reps = co.lim1_obstructions(system, fam, famp)
    # one report per choice, in product order, each trivial with its
    # memberships verified
    assert [r.witnesses for r in reps] == list(itertools.product(*all_wit))
    assert all(r.memberships_verified and r.trivial for r in reps)


def test_lim1_obstruction_not_equivalent():
    # C2 acting trivially on S3: the trivial cocycle and the one sending the
    # generator to a transposition are not equivalent at any level, so no
    # level has a witness and there is no choice to report
    c2 = gr.cyclic_group(2)
    s3 = gr.symmetric_group(3)
    n3 = co.trivial_gamma_group(c2, s3)
    system3 = make_system(c2, [n3, n3], [gr.identity_hom(s3)])
    triv = co.trivial_cocycle(c2, n3)
    transp = co.CrossedHom.from_generators(c2, n3, {1: 1})
    assert co.lim1_obstructions(system3, (triv, triv), (transp, transp)) == []


@pytest.mark.parametrize("seed, padded", [(0, False), (1, False), (2, False), (0, True)])
def test_lim1_obstructions_match_the_per_choice_route(seed, padded, monkeypatch):
    # every family pair that criterion 7 scans, report by report against
    # the route that checked the families and found the fixed groups again
    # for each witness choice; padded, each level's list gains a non-witness
    # a_n, which puts e_n outside the fixed group
    scanned, route = [], co.lim1_obstructions

    def recorded(system, family, family_prime):
        reps = route(system, family, family_prime)
        scanned.append((system, family, family_prime, reps))
        return reps

    monkeypatch.setattr(co, "lim1_obstructions", recorded)
    if padded:
        monkeypatch.setattr(co, "level_witnesses", padded_with_a_non_witness(co.level_witnesses))
    verdict = checks.check_truncated_orbit_transitivity(seed=seed).verdict
    assert verdict == ("refuted" if padded else "verified")
    assert len(scanned) == 26
    for system, fam, famp, reps in scanned:
        lists = witness_lists_by_definition(system, fam, famp)
        if padded:
            lists = [ws + list(least_non_witness(f, ws)) for f, ws in zip(fam, lists)]
        assert reps and reps == [lim1_obstruction_per_choice(system, fam, famp, w)
                                 for w in itertools.product(*lists)]
    assert padded == any(not r.memberships_verified for *_, reps in scanned for r in reps)
    # a trivialization is solved exactly when every e_n lies in its fixed group
    assert all(r.trivial == r.memberships_verified for *_, reps in scanned for r in reps)


def brute_cocycles(gamma, n):
    """Every map gamma -> n with f(st) = f(s) (s . f(t)) for all pairs."""
    und = n.underlying
    return sorted(
        vals
        for vals in itertools.product(und.elements(), repeat=gamma.order)
        if all(
            vals[gamma.mul(s, t)] == und.mul(vals[s], n.act(s, vals[t]))
            for s in gamma.elements()
            for t in gamma.elements()
        )
    )


def action_through(gamma, und, hom, auto):
    """gamma acting on und by auto ** hom(t), for a hom gamma -> Z/k and an
    automorphism auto (a permutation of und's elements) of order dividing k."""
    rows = []
    for t in gamma.elements():
        row = list(und.elements())
        for _ in range(hom(t)):
            row = [auto[x] for x in row]
        rows.append(row)
    return co.GammaGroup(gamma, und, np.array(rows))


def action_through_cases() -> list:
    """Small nontrivial actions, with |N|^|Gamma| <= 10^4."""
    c2, c3, s3 = gr.cyclic_group(2), gr.cyclic_group(3), gr.symmetric_group(3)
    v4 = gr.direct_product(c2, c2)  # index a + 2b
    inversion = (0, 2, 1)
    swap = (0, 2, 1, 3)
    rotate = (0, 2, 3, 1)  # cycles the involutions of v4
    s = next(x for x in s3.elements() if s3.element_order(x) == 2)
    inner = tuple(s3.conj(s, x) for x in s3.elements())

    def ident(t):
        return t

    def first(t):
        return t % 2

    def sign(t):
        return 0 if s3.element_order(t) in (1, 3) else 1

    return [
        action_through(c2, c3, ident, inversion),
        action_through(c2, v4, ident, swap),
        action_through(c2, s3, ident, inner),
        action_through(c3, v4, ident, rotate),
        action_through(v4, c3, first, inversion),
        action_through(v4, v4, first, swap),
        action_through(s3, c3, sign, inversion),
        action_through(s3, v4, sign, swap),
    ]


def test_enumerate_cocycles_is_complete():
    # generator enumeration against whole-map filtering, |N|^|Gamma| <= 10^4
    c2, c3, s3 = gr.cyclic_group(2), gr.cyclic_group(3), gr.symmetric_group(3)
    v4 = gr.direct_product(c2, c2)
    trivial = [
        (c2, s3), (c2, c2), (c3, c3), (c3, v4), (v4, c3), (v4, s3),
        (s3, c2), (s3, c3), (s3, v4),
    ]
    cases = [co.trivial_gamma_group(g, u) for g, u in trivial] + action_through_cases()
    for n in cases:
        assert n.underlying.order ** n.gamma.order <= 10**4
        assert list(co.enumerate_cocycles(n.gamma, n)) == brute_cocycles(n.gamma, n)


@functools.cache
def _ref_cocycles(case: int) -> tuple:
    """The value tables, neutral at the identity, that test_laws' all-pairs
    reference accepts, for action_through_cases()[case]."""
    n = action_through_cases()[case]
    rest = itertools.product(n.underlying.elements(), repeat=n.gamma.order - 1)
    return tuple(vals for vals in ((0,) + r for r in rest) if ref_cocycle(n.gamma, n, vals))


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_cayley_search_accepts_exactly_what_the_all_pairs_reference_accepts(data):
    # one candidate per generator: the search keeps the one table with those
    # values at the generators that satisfies the law at every pair, if any
    case = data.draw(st.integers(0, len(action_through_cases()) - 1))
    n = action_through_cases()[case]
    gens = gr.generating_set(n.gamma)
    values = tuple(data.draw(st.integers(0, n.underlying.order - 1)) for _ in gens)
    found = co._cayley_search(n.gamma, n, gens, [(v,) for v in values])
    want = [vals for vals in _ref_cocycles(case) if tuple(vals[s] for s in gens) == values]
    assert found == want


def test_h1_abelian_refuses_a_lattice_over_another_group():
    # the matrices are trusted to be an action of the lattice's group, so a
    # gamma that is another group is refused, even where the law would hold
    # for it (the trivial action); an equal group built apart is accepted
    c2, c4 = gr.cyclic_group(2), gr.cyclic_group(4)
    v4 = gr.direct_product(c2, c2)
    for m in (lt.trivial_lattice(c4, 2), lt.permutation_lattice(regular_gset(c4))):
        with pytest.raises(co.NotAction, match="another group"):
            co.h1_abelian(v4, m)
        assert co.h1_abelian(gr.cyclic_group(4), m).is_trivial


def not_by_automorphisms():
    # C2 swaps 2 and 3 in C4: a permutation action that is no automorphism
    c2, c4 = gr.cyclic_group(2), gr.cyclic_group(4)
    return co.GammaGroup(c2, c4, ((0, 1, 2, 3), (0, 1, 3, 2)), validate=False)


def product_cases() -> list:
    """Gamma-group products like the benchmark's: Gamma in C2, C3, C2^2, C2^3
    and two or three factors, each abelian one inverted through a sign
    character of Gamma half of the time, the others acting trivially."""
    rng = random.Random(0)
    c2, c3 = gr.cyclic_group(2), gr.cyclic_group(3)
    v4 = gr.direct_product(c2, c2)
    pool = (c2, c3, gr.cyclic_group(4), v4, gr.symmetric_group(3), gr.quaternion_group())
    cases = []
    for gamma in (c2, c3, v4, gr.direct_product(v4, c2)):
        k = len(gr.generating_set(gamma))
        signs = [chi.map for chi in co.all_homs(gamma, c2) if any(chi.map)]
        for _ in range(3):
            factors = ()
            while not factors or math.prod(f.order for f in factors) ** k > 5000:
                factors = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
            parts = []
            for f in factors:
                if signs and f.is_abelian() and rng.random() < 0.5:
                    chi = rng.choice(signs)
                    action = [f.inverses if chi[t] else f.elements() for t in gamma.elements()]
                    parts.append(co.GammaGroup(gamma, f, action))
                else:
                    parts.append(co.trivial_gamma_group(gamma, f))
            cases.append(co.gamma_group_product(parts)[0])
    return cases


def test_h1_nonabelian_twists_each_cocycle_once_per_generator(monkeypatch):
    # C2 on C4 x S3, inverting C4: 16 cocycles in 4 classes.  A walk twists
    # each cocycle by the 3 generators of N (48 tables); whole orbits would
    # twist each class's least table by all 24 elements (96 tables).  No
    # generator is dropped: the one in C4 is inverted, and the two in S3
    # are not central
    c2 = gr.cyclic_group(2)
    c4 = gr.cyclic_group(4)
    inverted = co.GammaGroup(c2, c4, [c4.elements(), c4.inverses])
    n, _ = co.gamma_group_product([inverted, co.trivial_gamma_group(c2, gr.symmetric_group(3))])
    built = _twist_steps_read(monkeypatch, lambda: co.h1_nonabelian(c2, n))
    h = co.h1_nonabelian(c2, n)
    gens = gr.generating_set(n.underlying)
    assert (h.count, h.cocycle_count, len(gens)) == (4, 16, 3)
    assert built == h.cocycle_count * len(gens) == 48 < h.count * n.underlying.order


def test_h1_nonabelian_twists_by_no_central_fixed_generator(monkeypatch):
    # C2 acting trivially on the abelian C4 x C2: every generator is central
    # and fixed, so none twists anything, and the 4 homomorphisms C2 -> N are
    # 4 classes found with no twist at all (8 tables when each was twisted by
    # both generators)
    c2 = gr.cyclic_group(2)
    n, _ = co.gamma_group_product([co.trivial_gamma_group(c2, gr.cyclic_group(4)),
                                   co.trivial_gamma_group(c2, c2)])
    built = _twist_steps_read(monkeypatch, lambda: co.h1_nonabelian(c2, n))
    h = co.h1_nonabelian(c2, n)
    assert built == 0
    assert h.count == h.cocycle_count == 4 and h.sizes == (1, 1, 1, 1)


def test_h1_nonabelian_rejects_an_action_not_by_automorphisms():
    n = not_by_automorphisms()
    with pytest.raises(co.NotAction):
        co.GammaGroup(n.gamma, n.underlying, n.action)
    # twisted conjugation leaves the edge-consistent value tables
    with pytest.raises(co.NotAction):
        co.h1_nonabelian(n.gamma, n)


def test_twist_classes_reject_a_table_set_that_splits_a_class():
    # dropping the least or the largest member of a class leaves a table whose
    # twists are not all given: negative control for the containment check
    split = 0
    for n in action_through_cases():
        tables = co.enumerate_cocycles(n.gamma, n)
        by = n.underlying.elements()
        for rep, size in Counter(co.twist_classes(n, tables, by).values()).items():
            if size == 1:
                continue
            for drop in (rep, max(co.twist_values(n, rep, by))):
                with pytest.raises(co.NotAction):
                    co.twist_classes(n, [t for t in tables if t != drop], by)
                split += 1
    assert split > 0


def test_relators_that_hold_but_do_not_close_mean_no_action():
    # V4 permutes C6 by maps that are no automorphisms; the relators of V4
    # admit (3, 4) at its generators, whose values the Cayley graph rejects.
    # The search alone cannot tell such an action from a cocycle-free one, so
    # the callers check the action
    c2 = gr.cyclic_group(2)
    v4 = gr.direct_product(c2, c2)
    rows = ((0, 1, 2, 3, 4, 5), (0, 1, 4, 3, 2, 5), (0, 1, 4, 5, 2, 3), (0, 1, 2, 5, 4, 3))
    n = co.GammaGroup(v4, gr.cyclic_group(6), rows, validate=False)
    with pytest.raises(co.NotAction):
        co.GammaGroup(v4, n.underlying, rows)
    assert co._cayley_search(v4, n, gr.generating_set(v4), [(3,), (4,)]) == []
    with pytest.raises(co.NotAction):
        co.enumerate_cocycles(v4, n)
    with pytest.raises(co.NotAction):
        co.h1_nonabelian(v4, n)


def _points_lattices() -> list:
    """Lattices given by points: criterion 3's 747 coset lattices, then a
    coset lattice plus a trivial one, a trivial lattice, a rank-0 lattice
    and the permutation lattice of a union of two coset actions."""
    from torsorlab import checks

    lattices = [m for _, _, m in checks.coset_lattices()]
    s4 = gr.symmetric_group(4)
    x, y = (gs.coset_gset(s4, h) for h in gr.all_subgroups(s4)[1:3])
    return lattices + [lt.direct_sum(lt.permutation_lattice(x), lt.trivial_lattice(s4, 2)),
                       lt.trivial_lattice(s4, 3), lt.trivial_lattice(s4, 0),
                       lt.permutation_lattice(disjoint_union(x, y))]


def _h1_reads(monkeypatch, lattices) -> list:
    """(H^1 invariants, number of elementary divisors of d) of h1_abelian on
    each lattice, the number read by wrapping la._divisors, to which both
    of its branches hand their rows once per call."""
    divisors, ranks = la._divisors, []

    def counted(rows):
        d = divisors(rows)
        ranks.append(len(d))
        return d

    monkeypatch.setattr(la, "_divisors", counted)
    reads = [(co.h1_abelian(m.group, m).invariants, ranks.pop()) for m in lattices]
    monkeypatch.setattr(la, "_divisors", divisors)
    return reads


def test_h1_abelian_reads_points_as_their_matrix_twin(monkeypatch):
    # criterion 3's 747 lattices, and the four of _points_lattices beside
    # them, are given by points, and h1_abelian walks the cycles of each
    # generator, leaving out each cycle's closing row; the same action given
    # by matrices, validated, builds every nonzero row of rho(s) - I and
    # reads the same invariants and the same number of elementary divisors.
    # A sign twist of one of them, which has no points, reads Z/2 on both
    # routes where the twist leaves the kernel of the sign, so the
    # comparison can tell actions apart
    lattices = _points_lattices()
    twins = [matrix_twin(m) for m in lattices]
    assert all(m.points is not None for m in lattices) and all(m.points is None for m in twins)
    reads = _h1_reads(monkeypatch, lattices)
    assert reads == _h1_reads(monkeypatch, twins)
    assert {invariants for invariants, _ in reads} == {()}
    g, k, h, twisted = next(c for c in sign_twist_cases() if not set(c[2]) <= c[1])
    untwisted = lt.permutation_lattice(gs.coset_gset(g, h))
    for m in (twisted, matrix_twin(twisted)):
        assert co.h1_abelian(g, m).invariants == (2,)
    assert co.h1_abelian(g, untwisted).invariants == ()


def test_h1_abelian_on_points_has_the_rank_of_the_points_less_their_orbits(monkeypatch):
    # d: m -> ((rho(s) - 1) m)_s has rank n less that of its kernel M^gamma,
    # which the orbit sums span, so it has n - (number of orbits) elementary
    # divisors.  The rows of a permutation lattice have unit divisors only,
    # so H^1 = () cannot see a row that the cycle walk should have kept; the
    # number of divisors can.  The orbits are counted by images alone
    # (helpers.point_orbit_count)
    lattices = _points_lattices()
    orbits = [point_orbit_count(m) for m in lattices]
    assert len(lattices) == 751 and orbits[-4:] == [3, 3, 0, 2]
    for m, k, (invariants, rank) in zip(lattices, orbits, _h1_reads(monkeypatch, lattices)):
        assert (invariants, rank) == ((), m.rank - k)
