import itertools

import numpy as np
import pytest

from torsorlab import catalog
from torsorlab import cohomology as co
from torsorlab import groups as gr
from torsorlab import gsets as gs
from torsorlab import lattices as lt
from torsorlab import linalg as la


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
    return tuple(d for d in la.cokernel_invariants(X, ambient_rank=la.width(ker)) if d != 0) or ()


def brute_module_h1_order(gamma, mod):
    elems = mod.elements()
    z1 = 0
    for vals in itertools.product(elems, repeat=gamma.order):
        if vals[0] != (0,) * mod.ngens:
            continue
        good = True
        for s in gamma.elements():
            for t in gamma.elements():
                want = mod.reduce([x + y for x, y in zip(vals[s], mod.act(s, vals[t]))])
                if want != vals[gamma.mul(s, t)]:
                    good = False
                    break
            if not good:
                break
        if good:
            z1 += 1
    cob = {
        tuple(
            mod.reduce([x - y for x, y in zip(mod.act(t, a), a)])
            for t in gamma.elements()
        )
        for a in elems
    }
    assert z1 % len(cob) == 0
    return z1 // len(cob)


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


def test_h0_lattice_and_module_and_group():
    c2 = gr.cyclic_group(2)
    reg = lt.permutation_lattice(gs.regular_gset(c2))
    fixed = co.h0(c2, reg)
    assert fixed.rank == 1
    v = [row[0] for row in fixed.basis]
    assert v[0] == v[1] != 0  # the norm element spans the fixed line
    assert co.h0(c2, sign_lattice(c2)).rank == 0
    assert co.h0(c2, lt.trivial_lattice(c2, 3)).rank == 3
    mod = co.FiniteModule(c2, (4,), [la.identity(1), la.int_rows([[-1]])])
    h = co.h0(c2, mod)
    assert h.invariants == (2,)  # {0, 2} inside Z/4
    n = co.trivial_gamma_group(c2, gr.symmetric_group(3))
    assert co.h0(c2, n) == tuple(range(6))


def test_h1_sign_action():
    c2 = gr.cyclic_group(2)
    H = co.h1_abelian(c2, sign_lattice(c2))
    assert H.invariants == (2,)
    assert H.order() == 2
    f = H.generators[0]
    # generator is an honest nontrivial cocycle
    assert f.values[0] == (0,) and f.values[1] != (0,)


def test_h1_regular_vanishes():
    for g in [gr.cyclic_group(4), gr.symmetric_group(3), gr.quaternion_group(8)]:
        m = lt.permutation_lattice(gs.regular_gset(g))
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


def test_h1_finite_module_matches_enumeration():
    c2 = gr.cyclic_group(2)
    cases = [
        co.FiniteModule(c2, (4,), [la.identity(1), la.int_rows([[-1]])]),
        co.FiniteModule(c2, (2, 2), [la.identity(2), la.int_rows([[0, 1], [1, 0]])]),
        co.FiniteModule(c2, (3,), [la.identity(1), la.int_rows([[-1]])]),
    ]
    c4 = gr.cyclic_group(4)
    swap = la.int_rows([[0, 1], [1, 0]])
    cases.append(co.FiniteModule(c4, (2, 2), [la.identity(2), swap, la.identity(2), swap]))
    for mod in cases:
        mine = co.h1_abelian(mod.gamma, mod).order()
        brute = brute_module_h1_order(mod.gamma, mod)
        assert mine == brute


def _reference_tree_constraints(gamma, mats, r, gens):
    """The first construction of the cocycle constraints: numpy object blocks,
    one matmul `mats[g] @ blocks[s]` per Cayley edge, and one r-row block
    `f(g) + rho(g) f(s) - f(g s)` per non-tree edge.

    Kept as the oracle of `co._relator_rows`: the relator rows must cut out
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
    # as lists of int rows, the form h1_abelian builds
    return np.concatenate(constraints, axis=0).tolist() if constraints else []


def constraint_cases():
    """(label, gamma, mats, r, relations) for the cocycle-constraint oracles,
    relations None for a lattice: every permutation lattice Z[G/H] of the
    catalog up to order 12, the C2 sign lattice, finite modules, and actions
    with negative entries that are no permutations."""
    cases = []
    for name, g in catalog.group_catalog(12):
        for h in gr.all_subgroups(g):
            m = lt.permutation_lattice(gs.coset_gset(g, h))
            cases.append((f"{name}/{len(h)}", g, m.rho, m.rank, None))
    c2, c3, c4 = gr.cyclic_group(2), gr.cyclic_group(3), gr.cyclic_group(4)
    cases.append(("C2 sign", c2, sign_lattice(c2).rho, 1, None))
    swap = la.int_rows([[0, 1], [1, 0]])
    for mod in (
        co.FiniteModule(c2, (4,), [la.identity(1), la.int_rows([[-1]])]),
        co.FiniteModule(c4, (2, 2), [la.identity(2), swap, la.identity(2), swap]),
    ):
        cases.append((f"module {mod.relations}", mod.gamma, mod.mats, mod.ngens,
                      mod.relations))
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
        cases.append((label, m.group, m.rho, m.rank, None))
    return cases


def _cocycle_lattice(C, width, relations):
    """Z^1 in the coordinates of the generator values, from constraint rows C:
    their kernel for a lattice; for a finite module the values of the
    solutions mod relations[j % r] (one slack column per row) plus the
    relation lattice."""
    if relations is None:
        return la.kernel_basis(C)
    C = [row + [relations[j % len(relations)] if i == j else 0 for i in range(len(C))]
         for j, row in enumerate(C)]
    K = la.kernel_basis(C)
    lam = la.FgAbelian(relations * (width // len(relations))).relation_matrix()
    return la.column_space_basis(la.beside([K[:width], lam]))


def _coefficient(g, mats, relations):
    if relations is None:
        return lt.ZGLattice(g, mats, validate=False)
    return co.FiniteModule(g, relations, mats, validate=False)


def _tree_h1(g, mats, relations, monkeypatch):
    """H^1 from h1_abelian with the reference tree constraints in place of
    the relator rows."""
    with monkeypatch.context() as m:
        m.setattr(co, "_relator_rows", lambda gamma, mats, r, gens, relators:
                  _reference_tree_constraints(gamma, mats, r, gens))
        return co.h1_abelian(g, _coefficient(g, mats, relations))


def _relator_disagreements(monkeypatch):
    """Labels of the constraint cases on which the relator rows of
    co.presentation cut out another cocycle lattice than the tree reference,
    or h1_abelian reads other invariants than through the tree reference (or
    fails to close a generator to a cocycle)."""
    bad = []
    for label, g, mats, r, relations in constraint_cases():
        gens, relators = co.presentation(g)
        got = co._relator_rows(g, mats, r, gens, relators)
        ref = _reference_tree_constraints(g, mats, r, gens)
        assert all(type(row) is list and len(row) == len(ref[0]) for row in got), label
        assert all(type(v) is int for row in got for v in row), label
        width = len(gens) * r
        same_z1 = la.lattice_eq(_cocycle_lattice(got, width, relations),
                                _cocycle_lattice(ref, width, relations))
        try:
            mine = co.h1_abelian(g, _coefficient(g, mats, relations)).invariants
        except co.NotCocycle:  # a basis vector of the kernel is no cocycle
            mine = None
        if not same_z1 or mine != _tree_h1(g, mats, relations, monkeypatch).invariants:
            bad.append(label)
    return bad


def test_relator_rows_match_tree_reference_kernel(monkeypatch):
    assert _relator_disagreements(monkeypatch) == []
    rows = sum(len(co.presentation(g)[1]) * r for _, g, _, r, _ in constraint_cases())
    tree = sum(len(_reference_tree_constraints(g, mats, r, gr.generating_set(g)))
               for _, g, mats, r, _ in constraint_cases())
    assert rows < tree / 3


def test_relator_oracle_refutes_a_missing_relator(monkeypatch):
    # the same comparison, with one relator dropped from each presentation
    # that has more than one, must see the difference
    presentation = gr.presentation

    def short(g):
        gens, relators = presentation(g)
        return gens, relators[:-1] if len(relators) > 1 else relators

    monkeypatch.setattr(co, "presentation", short)
    bad = _relator_disagreements(monkeypatch)
    assert len(bad) > 20


def test_relator_rows_reject_a_word_that_is_no_relator(monkeypatch):
    s3 = gr.symmetric_group(3)
    gens, relators = gr.presentation(s3)
    monkeypatch.setattr(co, "presentation", lambda g: (gens, relators + ((0,),)))
    m = lt.permutation_lattice(gs.coset_gset(s3, (0,)))
    with pytest.raises(ValueError, match="identity"):
        co.h1_abelian(s3, m)


def test_h1_coboundary_coordinates_equal_solve_int(monkeypatch):
    # h1_abelian's Y, read off the kernel's retraction, is solve_int(Z, D)
    calls = []
    coordinates = la.coordinates

    def spy(Z, W, D):
        Y = coordinates(Z, W, D)
        calls.append((Z, D, Y))
        return Y

    monkeypatch.setattr(la, "coordinates", spy)
    nontrivial = 0
    for label, g, mats, r, relations in constraint_cases():
        if relations is None:
            nontrivial += not co.h1_abelian(g, lt.ZGLattice(g, mats, validate=False)).is_trivial
    for Z, D, Y in calls:
        want = la.solve_int(Z, D)
        assert Y == want
        assert all(type(v) is int for row in Y for v in row)
    assert len(calls) > 100 and nontrivial >= 3


def test_shapiro_various():
    s3 = gr.symmetric_group(3)
    for h in gr.all_subgroups(s3):
        assert co.shapiro_check(s3, h)
    assert co.shapiro_check(s3, tuple(s3.elements()))
    assert co.shapiro_check(s3, (0,))


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


def test_nonabelian_count_matches_abelian_order():
    c2 = gr.cyclic_group(2)
    # abelian coefficients: class count equals the abelian H^1 order
    pairs = [
        (co.GammaGroup(c2, gr.cyclic_group(4), np.array([[0, 1, 2, 3], [0, 3, 2, 1]])),
         co.FiniteModule(c2, (4,), [la.identity(1), la.int_rows([[-1]])])),
        (co.trivial_gamma_group(c2, gr.cyclic_group(2)),
         co.FiniteModule(c2, (2,), [la.identity(1), la.identity(1)])),
    ]
    for n, mod in pairs:
        assert co.h1_nonabelian(c2, n).count == co.h1_abelian(c2, mod).order()


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


def test_twist_group_aut_valued():
    c2 = gr.cyclic_group(2)
    c3 = gr.cyclic_group(3)
    n = co.trivial_gamma_group(c2, c3)
    inv_auto = (0, 2, 1)
    f = co.AutValuedCocycle(n, (tuple(range(3)), inv_auto))
    tw = co.twist_group(n, f)
    assert tw.act(1, 1) == 2  # inversion action appears


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
    tw = co.twist_lattice(right, taut, left)
    conj = lt.permutation_lattice(gs.conjugation_twist(s3))
    assert tw == conj
    # trivial cocycle leaves the lattice unchanged
    tw0 = co.twist_lattice(right, co.trivial_cocycle(s3, selfn), left)
    assert tw0 == right
    # rank and unimodularity preserved
    for g in s3.elements():
        assert abs(la.bareiss_det(tw.rho[g])) == 1


def test_twist_lattice_rejects_left_action_base():
    s3 = gr.symmetric_group(3)
    left_lattice = lt.permutation_lattice(gs.regular_gset(s3))
    selfn = co.trivial_gamma_group(s3, s3)
    taut = co.CrossedHom(s3, selfn, tuple(s3.elements()))
    left = [left_lattice.rho[x] for x in s3.elements()]
    with pytest.raises(co.NotAction):
        co.twist_lattice(left_lattice, taut, left)


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
    rep = co.lim1_obstruction(system, fam, fam)
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
    co.check_family(system, famp)
    verdicts = set()
    all_wit = [co.level_witnesses(fam[i], famp[i]) for i in range(3)]
    assert all(all_wit)
    for choice in itertools.product(*all_wit):
        rep = co.lim1_obstruction(system, fam, famp, witnesses=choice)
        assert rep.memberships_verified
        verdicts.add(rep.trivial)
    assert verdicts == {True}


def test_lim1_obstruction_not_equivalent():
    c2 = gr.cyclic_group(2)
    c3 = gr.cyclic_group(3)
    n = co.GammaGroup(c2, c3, np.array([[0, 1, 2], [0, 2, 1]]))
    lv = [n, n]
    tr = [gr.identity_hom(c3)]
    system = make_system(c2, lv, tr)
    f = co.trivial_cocycle(c2, n)
    g = co.CrossedHom(c2, n, (0, 1))
    # both exist levelwise (inversion cobounds everything), so build a real
    # failure with a map that is not even levelwise equivalent: trivial action
    n2 = co.trivial_gamma_group(c2, c3)
    system2 = make_system(c2, [n2, n2], [gr.identity_hom(c3)])
    f2 = co.trivial_cocycle(c2, n2)
    # no hom C2 -> C3 is nontrivial, so cocycles into trivial-action C3 are
    # only the trivial one; manufacture inequivalence at the level of S3
    s3 = gr.symmetric_group(3)
    n3 = co.trivial_gamma_group(c2, s3)
    system3 = make_system(c2, [n3, n3], [gr.identity_hom(s3)])
    triv = co.trivial_cocycle(c2, n3)
    transp = co.CrossedHom.from_generators(c2, n3, {1: 1})
    with pytest.raises(co.NotLevelEquivalent):
        co.lim1_obstruction(system3, (triv, triv), (transp, transp))


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


def test_enumerate_cocycles_is_complete():
    # generator enumeration against whole-map filtering, |N|^|Gamma| <= 10^4
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

    trivial = [
        (c2, s3), (c2, c2), (c3, c3), (c3, v4), (v4, c3), (v4, s3),
        (s3, c2), (s3, c3), (s3, v4),
    ]
    cases = [co.trivial_gamma_group(g, u) for g, u in trivial] + [
        action_through(c2, c3, ident, inversion),
        action_through(c2, v4, ident, swap),
        action_through(c2, s3, ident, inner),
        action_through(c3, v4, ident, rotate),
        action_through(v4, c3, first, inversion),
        action_through(v4, v4, first, swap),
        action_through(s3, c3, sign, inversion),
        action_through(s3, v4, sign, swap),
    ]
    for n in cases:
        assert n.underlying.order ** n.gamma.order <= 10**4
        assert list(co.enumerate_cocycles(n.gamma, n)) == brute_cocycles(n.gamma, n)


def test_h1_abelian_rejects_a_table_that_is_no_action():
    # rho(1) rho(1) != rho(2): the coboundaries leave the cocycle lattice
    c3 = gr.cyclic_group(3)
    rho = [la.identity(2), la.int_rows([[1, -1], [-2, 1]]), la.int_rows([[-2, 1], [1, 2]])]
    with pytest.raises(co.NotAction):
        co.h1_abelian(c3, lt.ZGLattice(c3, rho, validate=False))


def not_by_automorphisms():
    # C2 swaps 2 and 3 in C4: a permutation action that is no automorphism
    c2, c4 = gr.cyclic_group(2), gr.cyclic_group(4)
    return co.GammaGroup(c2, c4, [(0, 1, 2, 3), (0, 1, 3, 2)], validate=False)


def test_h1_nonabelian_rejects_an_action_not_by_automorphisms():
    n = not_by_automorphisms()
    with pytest.raises(co.NotAction):
        co.GammaGroup(n.gamma, n.underlying, n.action)
    # twisted conjugation leaves the edge-consistent value tables
    with pytest.raises(co.NotAction):
        co.h1_nonabelian(n.gamma, n)
