"""Character-lattice constructions for CM Galois data.

Everything is built on abstract data (finite group plus central involution),
never on embedded number fields: the lattice-level claims are invariant
under that abstraction.  Convention: the quotient-of-Serre-group lattice is
cut out by n + (involution)n = 0, the convention that SBAR_CONDITION names
and every CLI report carries under `conventions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import index, sub

from . import linalg as la
from . import numtheory as nt
from .cohomology import CrossedHom, h1_abelian, trivial_gamma_group, twist_lattice
from .groups import FiniteGroup, centralizer, conjugacy_classes, cyclic_group, direct_product
from .gsets import GSet, coset_gset, conjugation_twist, gset_iso, sub_gset
from .invsys import NormTower
from .lattices import (
    LatticeMap,
    ZGLattice,
    direct_sum,
    equivariant_sublattice,
    is_equivariant_iso,
    kernel_sequence_exact,
    permutation_lattice,
    trivial_lattice,
)


class InvalidDatum(ValueError):
    pass


class NotCMType(ValueError):
    pass


@dataclass(frozen=True)
class CMGaloisDatum:
    """Abstract Galois group of a CM field: finite group with a distinguished
    central involution playing complex conjugation."""

    group: FiniteGroup
    iota: int

    def __post_init__(self):
        g = self.group
        try:
            i = index(self.iota)
        except TypeError as e:
            raise InvalidDatum("the involution must be an element of the group") from e
        if not 0 <= i < g.order:
            raise InvalidDatum("the involution must be an element of the group")
        if i == g.identity:
            raise InvalidDatum("the involution must be nontrivial")
        rows = g.rows
        if rows[i][i]:  # i i is not the identity, 0
            raise InvalidDatum("the distinguished element must square to 1")
        # central: i s == s i for every s, column i of the table against row i
        if tuple([r[i] for r in rows]) != rows[i]:
            raise InvalidDatum("the involution must be central")

    @property
    def half_order(self) -> int:
        return self.group.order // 2


def _left_regular(group: FiniteGroup) -> ZGLattice:
    # t e_s = e_(t s)
    return permutation_lattice(GSet(group, group.rows, validate=False))


def _right_regular(group: FiniteGroup) -> ZGLattice:
    # t e_s = e_(s t^-1)
    rows, inverses, els = group.rows, group.inverses, group.elements()
    action = tuple(tuple(rows[s][inverses[t]] for s in els) for t in els)
    return permutation_lattice(GSet(group, action, validate=False))


def _pair_equations(d: CMGaloisDatum, with_constant: bool) -> tuple:
    g = d.group
    n = g.order
    width = n + 1 if with_constant else n
    rows = [[0] * width for _ in range(n)]
    for s in g.elements():
        rows[s][s] += 1
        rows[s][g.mul(d.iota, s)] += 1
        if with_constant:
            rows[s][n] = -1
    return la.int_rows(rows)


def _xs_kernel(d: CMGaloisDatum, with_constant: bool) -> tuple[tuple, tuple]:
    """X*(S) inside Z[G] + Z (with_constant) or X*(Sbar) inside Z[G] as
    (K, W), from one saturated kernel of the |G|/2 distinct equations
    e_s + e_(iota s) (- e_|G|) of _xs_equations: the columns of K are a
    basis of the lattice, and W is its retraction, W K = I.  They are the
    rows of _pair_equations less its duplicates, in the order of their
    first copies; each pivot of la.saturated_kernel clears its column from
    that row's duplicate alone, so K and W are those of _pair_equations.
    Every entry is a unit, and the unit pivots eliminate all of them, so no
    SNF runs.  Raises InvalidDatum unless the rank is |G|/2 (+ 1 with the
    constant)."""
    width = d.group.order + 1 if with_constant else d.group.order
    rows = []
    for eq in _xs_equations(d):
        row = [0] * width
        for c, v in (eq if with_constant else eq[:2]):
            row[c] = v
        rows.append(row)
    K, W = la.saturated_kernel(rows)
    if la.width(K) != d.half_order + (1 if with_constant else 0):
        raise InvalidDatum("rank law violated")  # cannot happen for valid data
    return K, W


def _fibre_sums(coset_index, width: int, cosets: int) -> list:
    """The cosets x width matrix summing each coset's coordinates."""
    rows = [[0] * width for _ in range(cosets)]
    for s, c in enumerate(coset_index):
        rows[c][s] += 1
    return rows


@dataclass(frozen=True)
class SerreData:
    regular: ZGLattice  # Z[G], left translation
    ambient: ZGLattice  # Z[G] + the constants axis
    xs: ZGLattice  # solutions of n + (iota)n = constant
    xs_inclusion: LatticeMap
    xsbar: ZGLattice  # solutions of n + (iota)n = 0 inside Z[G]
    xsbar_inclusion: LatticeMap
    weight: tuple  # the constant element, in ambient coordinates


def build_serre(d: CMGaloisDatum) -> SerreData:
    """Character lattices of the Serre construction for one datum, with the
    actions restricted to X*(S) and X*(Sbar) (equivariant_sublattice).

    This is the route by restriction that the checks are compared against.
    The sequence check and twist_serre read X*(S) and X*(Sbar) as saturated
    kernels with their retractions (_xs_kernel), and the CM-type check reads
    only the equations of X*(S) (_xs_equations) and counts them for its
    rank.  None of them restricts an untwisted action: each decides
    equality of lattices by the rank lemma, that a saturated sublattice
    inside a saturated lattice of the same rank is equal to it.
    """
    g = d.group
    n = g.order
    regular = _left_regular(g)
    ambient = direct_sum(regular, trivial_lattice(g, 1))
    xs, xs_inc = equivariant_sublattice(ambient, _pair_equations(d, True))
    xsbar, xsbar_inc = equivariant_sublattice(regular, _pair_equations(d, False))
    if xs.rank != d.half_order + 1 or xsbar.rank != d.half_order:
        raise InvalidDatum("rank law violated")  # cannot happen for valid data
    weight = _weights_on_rows(n, la._pair_rows(xs_inc.matrix, xs_inc.retraction),
                              la._pair_rows(xsbar_inc.matrix, xsbar_inc.retraction))
    return SerreData(regular, ambient, xs, xs_inc, xsbar, xsbar_inc, weight)


def _weights_on_rows(n: int, xs: tuple, xsbar: tuple) -> tuple:
    """The weight (1, ..., 1, 2) in Z[G] + Z, after checking that it lies in
    X*(S) and that X*(Sbar) meets the weight axis trivially; xs and xsbar
    are the nonzeros of the rows of each basis and its retraction, as
    la._pair_rows reads them.  la._retract decides whether a weight column,
    given by its nonzeros v, lies in the lattice (X = W v, then K X == v)."""
    ones = [[(0, 1)]] * n
    if la._retract(*xs, ones + [[(0, 2)]]) is None:
        raise InvalidDatum("the weight lies outside X*(S)")  # cannot happen
    if la._retract(*xsbar, ones) is not None:
        raise InvalidDatum("X*(Sbar) meets the weight axis")  # cannot happen
    return tuple([1] * n + [2])


@dataclass(frozen=True)
class SequenceReport:
    ranks: tuple
    rank_law_holds: bool
    with_constant_exact: bool  # 0 -> X*(S) -> Z[S_K] + Z -> Z[S_F] -> 0
    quotient_exact: bool  # 0 -> X*(Sbar) -> Z[S_K] -> Z[S_F] -> 0


def _coset_restriction(d: CMGaloisDatum):
    """Sigma_F with the left action, each element's coset index, and each
    coset's smallest element.

    The cosets of the central subgroup {1, iota} are the pairs
    {s, iota s}, read off row iota of the group table, and are ordered by
    their least elements, as coset_gset orders them.  t sends the coset of
    r to the coset of t r, so row t of the action is coset_of[rows[t][r]]
    over the least elements r.  CMGaloisDatum has checked that iota is a
    central involution, so the pairs are cosets and the rows an action."""
    rows = d.group.rows
    partner = rows[d.iota]
    reps = tuple(s for s, t in enumerate(partner) if s < t)
    coset_of = [0] * len(partner)
    for c, s in enumerate(reps):
        coset_of[s] = coset_of[partner[s]] = c
    action = tuple(tuple([coset_of[row[r]] for r in reps]) for row in rows)
    return GSet(d.group, action, validate=False), coset_of, reps


def verify_serre_sequence(d: CMGaloisDatum) -> SequenceReport:
    """Exactness of both character-lattice sequences attached to the datum:
    0 -> X*(S) -> Z[G] + Z -> Z[Sigma_F] -> 0, with (m, c) sent to the fibre
    sums of m minus c, and 0 -> X*(Sbar) -> Z[G] -> Z[Sigma_F] -> 0.

    X*(S) and X*(Sbar) are read as saturated kernels with their retractions
    (_xs_kernel), checked against the rank law and the weight, and each
    sequence is decided by lattices.kernel_sequence_exact against the
    validated, equivariant fibre-sum map E.  That needs no second kernel:
    col K is saturated because W K = I, ker E is saturated as every kernel
    is, and by the rank lemma col K = ker E once E K = 0 and the
    elementary divisors of E show E onto with rank ker E = width K.  No
    action is restricted to either kernel and no Serre data is built:
    exactness makes each kernel G-stable (see kernel_sequence_exact);
    build_serre is the route by restriction.  Z[G], Z[G] + Z and
    Z[Sigma_F] are permutation lattices, so each E is validated on their
    points (LatticeMap) and no matrix of an action is built.

    The nonzeros of the rows of each K and W are read once, here
    (la._pair_rows), and everything is decided on those rows: the two
    weight checks (_weights_on_rows), then W K == I against the unit rows
    and E K == 0 as empty rows (kernel_sequence_exact).
    """
    g = d.group
    n = g.order
    xs, xsbar = _xs_kernel(d, True), _xs_kernel(d, False)
    rows, rows_bar = la._pair_rows(*xs), la._pair_rows(*xsbar)
    _weights_on_rows(n, rows, rows_bar)
    regular = _left_regular(g)
    ambient = direct_sum(regular, trivial_lattice(g, 1))
    sigma_f, coset_index, _ = _coset_restriction(d)
    f_lat = permutation_lattice(sigma_f)
    # with the constants axis: (m, c) -> (sum over the fibre) - c
    eta = _fibre_sums(coset_index, n + 1, f_lat.rank)
    for row in eta:
        row[n] = -1
    eta_map = LatticeMap(ambient, f_lat, eta)
    # plain restriction
    res_map = LatticeMap(regular, f_lat, _fibre_sums(coset_index, n, f_lat.rank))
    gg = d.half_order
    ranks = (la.width(xs[0]), ambient.rank, f_lat.rank)
    law = ranks == (gg + 1, 2 * gg + 1, gg)
    return SequenceReport(
        ranks, law, kernel_sequence_exact(*rows, ranks[0], eta_map.matrix),
        kernel_sequence_exact(*rows_bar, la.width(xsbar[0]), res_map.matrix),
    )


# ---------------------------------------------------------------------------
# twisting the quotient sequence


@dataclass(frozen=True)
class TwistedSequence:
    datum: CMGaloisDatum
    middle: ZGLattice  # twisted Z[G]: the conjugation permutation lattice
    sub: ZGLattice  # twisted X*(Sbar)
    sub_inclusion: LatticeMap
    quotient: ZGLattice  # twisted Z[Sigma_F]
    restriction: LatticeMap
    middle_is_conjugation_lattice: bool
    quotient_is_conjugation_lattice: bool
    exact: bool
    action_trivial: bool  # abelian case: conjugation collapses


def twist_serre(d: CMGaloisDatum) -> TwistedSequence:
    """Twist the quotient sequence by the tautological cocycle.

    The base carries the right-translation action (the action on points of
    the torus side); composing with left translations by the cocycle values
    turns it into conjugation, blockwise per conjugacy class.

    X*(Sbar) is read once, with its retraction (_xs_kernel): a kernel does
    not depend on the action.  It carries the twisted middle's action
    restricted to it, which is the twist of the restricted translations, as
    restricted matrices are unique.  Exactness is decided as in
    verify_serre_sequence, by kernel_sequence_exact against the validated
    restriction map, on the same nonzeros of K's and W's rows that the
    restriction reads (la._pair_rows); build_serre is the route by
    restriction.
    """
    g = d.group
    n = g.order
    K, W = _xs_kernel(d, False)
    sigma_f, coset_index, reps = _coset_restriction(d)
    # right translation and conjugation descend to actions on the cosets
    # because the subgroup is central
    right_cosets = tuple(tuple(coset_index[g.mul(r, g.inv(t))] for r in reps)
                         for t in g.elements())
    coset_conj = tuple(tuple(coset_index[g.conj(t, r)] for r in reps) for t in g.elements())
    taut = CrossedHom(g, trivial_gamma_group(g, g), tuple(g.elements()))
    # left translations, of G and of the cosets (the action of sigma_f)
    tw_middle = twist_lattice(_right_regular(g), taut, _left_regular(g))
    tw_quotient = twist_lattice(
        permutation_lattice(GSet(g, right_cosets, validate=False)), taut,
        permutation_lattice(sigma_f),
    )
    rows = la._pair_rows(K, W)
    sub_rho = la.restricted_action(*rows, tw_middle.rho)
    if sub_rho is None:
        raise InvalidDatum("the twisted action does not preserve X*(Sbar)")  # cannot happen
    # restricted_action has checked K X = M K for every element
    tw_sub = ZGLattice(g, sub_rho, validate=False)
    sub_inc = LatticeMap(tw_sub, tw_middle, K, validate=False)
    res_map = LatticeMap(tw_middle, tw_quotient, _fibre_sums(coset_index, n, len(reps)))
    # the twist of two permutation lattices carries points (twist_lattice)
    fixed = tuple(range(n))
    action_trivial = g.is_abelian() and all(p == fixed for p in tw_middle.points)
    return TwistedSequence(
        d, tw_middle, tw_sub, sub_inc, tw_quotient, res_map,
        tw_middle == permutation_lattice(conjugation_twist(g)),
        tw_quotient == permutation_lattice(GSet(g, coset_conj, validate=False)),
        kernel_sequence_exact(*rows, la.width(K), res_map.matrix), action_trivial,
    )


# ---------------------------------------------------------------------------
# conjugation-block decomposition of the twisted quotient lattice


@dataclass(frozen=True)
class BlockData:
    centralizer: tuple  # of the class's least element in the totally real side
    rank: int  # block rank = class size = index of the centralizer


@dataclass(frozen=True)
class BlockDecompositionReport:
    blocks: tuple
    class_embedding_iso: bool  # classes of the factor match embedded classes
    first_map_iso: bool  # blockwise class lattice onto embedded class lattice
    twisted_sub_iso: bool  # twisted X*(Sbar) = the block permutation lattice
    block_ranks: tuple
    total_rank: int


def conjugation_block_decomposition(f_group: FiniteGroup) -> BlockDecompositionReport:
    """For the split datum (totally real side) x (order two), identify the
    twisted quotient lattice with the sum of conjugation-class permutation
    lattices, one block per class, with centralizer cosets as points."""
    c2 = cyclic_group(2)
    G = direct_product(f_group, c2)
    nF = f_group.order
    iota = nF  # index of (identity, generator)
    datum = CMGaloisDatum(G, iota)
    tw = twist_serre(datum)
    conj_g = conjugation_twist(G)

    blocks, class_isos, block_maps = [], [], []
    for cls in conjugacy_classes(f_group):
        z = centralizer(f_group, cls[0])
        blocks.append(BlockData(z, len(cls)))
        # the class as an F-set by conjugation, and as a G-set through the
        # projection G -> F: actions, as conjugation and its pullback are
        f_action = tuple(tuple(cls.index(f_group.conj(t, x)) for x in cls)
                         for t in f_group.elements())
        c_set = GSet(G, tuple(f_action[t % nF] for t in G.elements()), validate=False)
        c1 = sub_gset(conj_g, cls)  # {(tau, 1)} has the factor's indices
        c_iota = sub_gset(conj_g, tuple(x + nF for x in cls))
        bij = gset_iso(c_set, c1)
        class_isos.append(bij is not None and gset_iso(c1, c_iota) is not None)
        if class_isos[-1]:
            # first map of the decomposition at lattice level, per block
            mat = [[int(bij[j] == i) for j in range(len(cls))] for i in range(len(cls))]
            block_maps.append(LatticeMap(permutation_lattice(c_set), permutation_lattice(c1), mat))
        # cross-check: the class, as an F-set, is the centralizer coset space
        as_f_set = GSet(f_group, f_action, validate=False)
        class_isos.append(gset_iso(as_f_set, coset_gset(f_group, z)) is not None)

    # the projection of the twisted sub onto the {(tau, 1)} coordinates
    proj = la.beside([la.identity(nF), ((0,) * nF,) * nF])
    block_points = sub_gset(conj_g, tuple(range(nF)))
    block_lattice = permutation_lattice(block_points)
    proj_map = LatticeMap(tw.middle, block_lattice, proj)
    composite = proj_map.compose(tw.sub_inclusion)
    sub_iso = is_equivariant_iso(composite)

    return BlockDecompositionReport(
        blocks=tuple(blocks),
        class_embedding_iso=all(class_isos),
        first_map_iso=all(map(is_equivariant_iso, block_maps)),
        twisted_sub_iso=sub_iso,
        block_ranks=tuple(b.rank for b in blocks),
        total_rank=sum(b.rank for b in blocks),
    )


@dataclass(frozen=True)
class VanishingReport:
    all_vanish: bool
    per_block: tuple  # (representative, centralizer order, h1 trivial)


def block_h1_vanishing(f_group: FiniteGroup) -> VanishingReport:
    """H^1 of every conjugation block is trivial: permutation lattices have
    no first cohomology, so the twisted quotient torus has vanishing H^1."""
    rows = []
    for cls in conjugacy_classes(f_group):
        z = centralizer(f_group, cls[0])
        trivial = h1_abelian(f_group, permutation_lattice(coset_gset(f_group, z))).is_trivial
        rows.append((cls[0], len(z), trivial))
    return VanishingReport(all(t for *_, t in rows), tuple(rows))


# ---------------------------------------------------------------------------
# CM-type bases


@dataclass(frozen=True)
class CMTypeBasisReport:
    phi: tuple
    vectors: tuple  # the g+1 candidate vectors, ambient coordinates
    in_lattice: bool
    is_basis: bool


def _cm_type(d: CMGaloisDatum, phi) -> tuple:
    """phi as a sorted tuple of distinct elements, checked against row iota
    of the group table in one pass: |G|/2 elements, each read through
    operator.index and in range, none the conjugate iota s of another.  The
    pairs {s, iota s} partition G, so |G|/2 elements from distinct pairs
    pick one from each.  NotCMType otherwise."""
    partner = d.group.rows[d.iota]
    try:
        chosen = set(map(index, phi))
    except TypeError as e:
        raise NotCMType("a CM type is a set of integer group elements") from e
    n = len(partner)
    if len(chosen) * 2 != n or not all(0 <= s < n and partner[s] not in chosen for s in chosen):
        raise NotCMType("the subset must pick one element from each pair")
    return tuple(sorted(chosen))


def _type_vectors(d: CMGaloisDatum, phi: tuple) -> list:
    """The modified type sums, one per element of phi, then the conjugate
    sum, each in Z[G] + Z coordinates with the constant last.

    The conjugate sum J = e_c + sum of e_(iota tau) over tau in phi is built
    once, off row iota of the group table.  The modified sum of tau,
    e_tau + sum of e_(iota sigma) over sigma != tau in phi, + e_c, is J
    with e_tau added and e_(iota tau) taken away: a copy of J with +1 at
    tau and -1 at iota tau."""
    partner = d.group.rows[d.iota]
    conj = [0] * len(partner) + [1]
    for tau in phi:
        conj[partner[tau]] += 1
    vectors = []
    for tau in phi:
        vec = conj[:]
        vec[tau] += 1
        vec[partner[tau]] -= 1
        vectors.append(tuple(vec))
    vectors.append(tuple(conj))
    return vectors


def _xs_equations(d: CMGaloisDatum) -> list:
    """The equations of X*(S) inside Z[G] + Z: the distinct rows of
    _pair_equations(d, True), e_s + e_(iota s) - e_|G| for each s < iota s,
    each as its nonzeros [(s, 1), (iota s, 1), (|G|, -1)], read off row
    iota of the group table.  iota is a central involution without fixed
    points, so they number |G|/2."""
    n = d.group.order
    return [[(s, 1), (t, 1), (n, -1)]
            for s, t in enumerate(d.group.rows[d.iota]) if s < t]


def _type_verdict(rows: list, vectors) -> tuple[bool, bool]:
    """(in_lattice, is_basis) for the vectors against X*(S), whose
    equations are rows, each as its nonzeros (_xs_equations).

    The rank of X*(S) is the width of the vectors less the number of rows:
    the rows are independent, because their first |G| columns have
    disjoint supports.  in_lattice: every equation vanishes on every
    vector.  is_basis: the vectors also have as many unit elementary
    divisors as X*(S) has rank.  Then they are independent and span a
    saturated lattice; inside X*(S), saturated as every kernel is, and of
    the same rank, it is all of X*(S).

    The equations are checked on the vectors as given.  The divisors are
    read off the rows v_i - v_last, one for each vector before the last,
    together with v_last itself: that change of rows is unimodular, so it
    keeps every elementary divisor, and with them both verdicts.  For a CM
    type the last vector is the conjugate sum J, and each v_i - J is
    e_tau - e_(iota tau) (_type_vectors): their unit pivots, at the tau,
    clear no other row, as neither J nor another difference holds a tau.
    ValueError unless the vectors have one length, as elementary_divisors
    requires of its rows.
    """
    for row in rows:
        for v in vectors:
            t = 0
            for c, a in row:
                t += v[c] * a
            if t:
                return False, False
    rank = la.width(vectors) - len(rows)
    if len(set(map(len, vectors))) > 1:
        raise ValueError("the vectors must have one length")
    last = vectors[-1]
    diffs = [list(map(sub, v, last)) for v in vectors[:-1]] + [list(last)]
    return True, la._divisors([r for r in diffs if any(r)]).count(1) == len(vectors) == rank


def _type_report(d: CMGaloisDatum, rows: list, phi: tuple) -> CMTypeBasisReport:
    vectors = _type_vectors(d, phi)
    in_lattice, is_basis = _type_verdict(rows, vectors)
    return CMTypeBasisReport(phi, tuple(vectors), in_lattice, is_basis)


def cm_type_basis(d: CMGaloisDatum, phi) -> CMTypeBasisReport:
    """The modified type sums and the conjugate sum form a basis of the
    Serre character lattice X*(S).

    No basis of X*(S) is built, and no action restricted to it: the sums
    lie in X*(S) when its equations vanish on them, and its rank is read
    off the count of its distinct equations (_xs_equations), which are
    independent.  They are a basis when their elementary divisors hold as
    many units as that rank: a saturated sublattice of X*(S), which is
    saturated as a kernel, of the same rank is X*(S) itself (_type_verdict).

    The sums are built in one pass over the conjugate sum J: each modified
    sum is a copy of J with +1 at tau and -1 at iota tau (_type_vectors).
    The divisors are read off the differences from J, e_tau - e_(iota tau),
    with J: a unimodular change of rows, whose unit pivots clear no other
    row (_type_verdict).
    """
    phi = _cm_type(d, phi)
    return _type_report(d, _xs_equations(d), phi)


def cm_type_bases(d: CMGaloisDatum):
    """cm_type_basis for every CM type, in all_cm_types order, from one
    reading of X*(S)'s equations."""
    rows = _xs_equations(d)
    for phi in all_cm_types(d):
        yield _type_report(d, rows, _cm_type(d, phi))


def all_cm_types(d: CMGaloisDatum):
    """Every transversal of the involution pairing: one of each pair
    (s, iota s), s < iota s, read off row iota of the group table in the
    order of s."""
    yield from product(*[(s, t) for s, t in enumerate(d.group.rows[d.iota]) if s < t])


# ---------------------------------------------------------------------------
# towers


def layered_obstruction_tower(l: int, p0: int, levels: int = 1,
                              prime_bound: int = 20000) -> NormTower:
    """Tower whose layers are cyclic degree-l fields ramified at freshly
    chosen primes subject to the splitting conditions; the law carries the
    replayable norm-obstruction certificate.  The law checks l, p0, levels
    and prime_bound (levels up to numtheory.MAX_TOWER_LEVELS); no group is
    built, so the chain asks for no more than the law does."""
    law = nt.SplitObstructionLaw(l, p0, levels=levels, prime_bound=prime_bound)
    return NormTower((nt.degree_l_datum(l, p0),), law=law)


def constant_tower(length: int) -> NormTower:
    """The norm tower of a constant chain: length + 1 copies of Q."""
    if not 0 <= length <= nt.MAX_TOWER_LEVELS:
        raise nt.HypothesisFailed(f"length {length} is outside 0..{nt.MAX_TOWER_LEVELS}")
    return NormTower((nt.AbelianFieldDatum(1, (0,)),) * (length + 1), law=None)
