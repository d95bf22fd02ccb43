"""Character-lattice constructions for CM Galois data.

Everything is built on abstract data (finite group plus central involution),
never on embedded number fields: the lattice-level claims are invariant
under that abstraction.  Convention: the quotient-of-Serre-group lattice is
cut out by n + (involution)n = 0; the flag travels with every report.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import SBAR_CONDITION
from . import linalg as la
from . import numtheory as nt
from .cohomology import CrossedHom, shapiro_check, trivial_gamma_group, twist_lattice
from .groups import (
    FiniteGroup,
    GroupHom,
    center,
    centralizer,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    generated_subgroup,
    product_embeddings,
)
from .gsets import GSet, coset_gset, conjugation_twist, gset_iso, sub_gset
from .invsys import NormTower
from .lattices import (
    LatticeMap,
    ZGLattice,
    direct_sum,
    equivariant_sublattice,
    exactness_report,
    is_equivariant_iso,
    permutation_lattice,
    trivial_lattice,
    zero_lattice,
    zero_map,
)
from .numtheory import NotATower


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
        g, i = self.group, self.iota
        if i == g.identity:
            raise InvalidDatum("the involution must be nontrivial")
        if g.mul(i, i) != g.identity:
            raise InvalidDatum("the distinguished element must square to 1")
        if i not in center(g):
            raise InvalidDatum("the involution must be central")

    @property
    def half_order(self) -> int:
        return self.group.order // 2


def _left_regular(group: FiniteGroup) -> ZGLattice:
    # t e_s = e_(t s)
    return permutation_lattice(GSet(group, group.rows, validate=False))


def _right_regular(group: FiniteGroup) -> ZGLattice:
    # t e_s = e_(s t^-1)
    rows, inverses = group.rows, group.inverses
    action = [[rows[s][inverses[t]] for s in group.elements()] for t in group.elements()]
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


def _fibre_sums(coset_index, width: int, cosets: int) -> list:
    """The cosets x width matrix summing each coset's coordinates."""
    rows = [[0] * width for _ in range(cosets)]
    for s, c in enumerate(coset_index):
        rows[c][s] += 1
    return rows


def _coordinates(inclusion: LatticeMap, vectors):
    """Coordinates of the vectors (ambient rows) in the sublattice, or None."""
    V = la.transpose(vectors)
    return la.coordinates(inclusion.matrix, inclusion.retraction, V)


@dataclass(frozen=True)
class SerreData:
    datum: CMGaloisDatum
    regular: ZGLattice  # Z[G], left translation
    ambient: ZGLattice  # Z[G] + the constants axis
    xs: ZGLattice  # solutions of n + (iota)n = constant
    xs_inclusion: LatticeMap
    xsbar: ZGLattice  # solutions of n + (iota)n = 0 inside Z[G]
    xsbar_inclusion: LatticeMap
    weight: tuple  # the constant element, in ambient coordinates
    condition: int = SBAR_CONDITION


def build_serre(d: CMGaloisDatum) -> SerreData:
    """Character lattices of the Serre construction for one datum."""
    g = d.group
    n = g.order
    regular = _left_regular(g)
    ambient = direct_sum(regular, trivial_lattice(g, 1))
    xs, xs_inc = equivariant_sublattice(ambient, _pair_equations(d, True))
    xsbar, xsbar_inc = equivariant_sublattice(regular, _pair_equations(d, False))
    if xs.rank != d.half_order + 1 or xsbar.rank != d.half_order:
        raise InvalidDatum("rank law violated")  # cannot happen for valid data
    weight = tuple([1] * n + [2])
    if _coordinates(xs_inc, [weight]) is None:
        raise InvalidDatum("the weight lies outside X*(S)")  # cannot happen
    # the zero-condition lattice meets the weight axis trivially
    if _coordinates(xsbar_inc, [[1] * n]) is not None:
        raise InvalidDatum("X*(Sbar) meets the weight axis")  # cannot happen
    return SerreData(d, regular, ambient, xs, xs_inc, xsbar, xsbar_inc, weight)


@dataclass(frozen=True)
class SequenceReport:
    ranks: tuple
    rank_law_holds: bool
    with_constant_exact: bool  # 0 -> X*(S) -> Z[S_K] + Z -> Z[S_F] -> 0
    quotient_exact: bool  # 0 -> X*(Sbar) -> Z[S_K] -> Z[S_F] -> 0
    condition: int = SBAR_CONDITION


def _coset_restriction(d: CMGaloisDatum):
    """Sigma_F with the left action, each element's coset index, and each
    coset's smallest element."""
    g = d.group
    sigma_f = coset_gset(g, generated_subgroup(g, [d.iota]))
    # coset_gset orders cosets by minimal element, so the identity's is point 0
    coset_index = [sigma_f.apply(s, 0) for s in g.elements()]
    smallest = {}
    for s in g.elements():
        smallest.setdefault(coset_index[s], s)
    reps = tuple(smallest[c] for c in range(sigma_f.size))
    return sigma_f, coset_index, reps


def verify_serre_sequence(d: CMGaloisDatum) -> SequenceReport:
    """Exactness of both character-lattice sequences attached to the datum."""
    data = build_serre(d)
    g = d.group
    n = g.order
    sigma_f, coset_index, _ = _coset_restriction(d)
    f_lat = permutation_lattice(sigma_f)
    # with the constants axis: (m, c) -> (sum over the fibre) - c
    eta = _fibre_sums(coset_index, n + 1, f_lat.rank)
    for row in eta:
        row[n] = -1
    eta_map = LatticeMap(data.ambient, f_lat, eta)
    seq1 = [
        zero_map(zero_lattice(g), data.xs),
        data.xs_inclusion,
        eta_map,
        zero_map(f_lat, zero_lattice(g)),
    ]
    rep1 = exactness_report(seq1)
    # plain restriction
    res_map = LatticeMap(data.regular, f_lat, _fibre_sums(coset_index, n, f_lat.rank))
    seq2 = [
        zero_map(zero_lattice(g), data.xsbar),
        data.xsbar_inclusion,
        res_map,
        zero_map(f_lat, zero_lattice(g)),
    ]
    rep2 = exactness_report(seq2)
    gg = d.half_order
    ranks = (data.xs.rank, data.ambient.rank, f_lat.rank)
    law = ranks == (gg + 1, 2 * gg + 1, gg)
    return SequenceReport(ranks, law, rep1.exact, rep2.exact)


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
    """
    g = d.group
    n = g.order
    right = _right_regular(g)
    xsbar_r, xsbar_r_inc = equivariant_sublattice(right, _pair_equations(d, False))
    sigma_f, coset_index, reps = _coset_restriction(d)
    m = sigma_f.size
    # right translation descends to cosets because the subgroup is central
    right_cosets = [
        [coset_index[g.mul(reps[c], g.inv(t))] for c in range(m)] for t in g.elements()
    ]
    f_right = permutation_lattice(GSet(g, right_cosets))

    selfn = trivial_gamma_group(g, g)
    taut = CrossedHom(g, selfn, tuple(g.elements()))
    left_mats = _left_regular(g).rho
    # left translation of cosets: the action of sigma_f
    left_coset_mats = permutation_lattice(sigma_f).rho
    left_sub_mats = la.restricted_action(
        xsbar_r_inc.matrix, xsbar_r_inc.retraction, left_mats
    )
    if left_sub_mats is None:
        raise InvalidDatum("left translation does not preserve X*(Sbar)")  # cannot happen

    tw_middle = twist_lattice(right, taut, left_mats)
    tw_quotient = twist_lattice(f_right, taut, left_coset_mats)
    tw_sub = twist_lattice(xsbar_r, taut, left_sub_mats)

    conj_lat = permutation_lattice(conjugation_twist(g))
    middle_ok = tw_middle == conj_lat
    # conjugation on cosets of the central subgroup generated by iota
    coset_conj = []
    for t in g.elements():
        row = [coset_index[g.conj(t, reps[c])] for c in range(m)]
        coset_conj.append(row)
    quot_ok = tw_quotient == permutation_lattice(GSet(g, coset_conj))

    sub_inc = LatticeMap(tw_sub, tw_middle, xsbar_r_inc.matrix)
    res_map = LatticeMap(tw_middle, tw_quotient, _fibre_sums(coset_index, n, m))
    rep = exactness_report(
        [
            zero_map(zero_lattice(g), tw_sub),
            sub_inc,
            res_map,
            zero_map(tw_quotient, zero_lattice(g)),
        ]
    )
    action_trivial = g.is_abelian() and all(
        rho == la.identity(n) for rho in tw_middle.rho
    )
    return TwistedSequence(
        d,
        tw_middle,
        tw_sub,
        sub_inc,
        tw_quotient,
        res_map,
        middle_ok,
        quot_ok,
        rep.exact,
        action_trivial,
    )


# ---------------------------------------------------------------------------
# conjugation-block decomposition of the twisted quotient lattice


@dataclass(frozen=True)
class BlockData:
    class_elements: tuple  # conjugacy class of the totally real side
    representative: int
    centralizer: tuple
    rank: int  # block rank = class size = index of the centralizer


@dataclass(frozen=True)
class BlockDecompositionReport:
    f_group_order: int
    blocks: tuple
    class_embedding_iso: bool  # classes of the factor match embedded classes
    first_map_iso: bool  # blockwise class lattice onto embedded class lattice
    twisted_sub_iso: bool  # twisted X*(Sbar) = the block permutation lattice
    block_ranks: tuple
    total_rank: int
    condition: int = SBAR_CONDITION


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

    classes = conjugacy_classes(f_group)
    blocks = []
    class_iso_ok = True
    first_map_iso = True
    for cls in classes:
        # the class inside the factor, acted on through the projection
        proj_action = [
            [cls.index(f_group.conj(t % nF, x)) for x in cls] for t in G.elements()
        ]
        c_set = GSet(G, proj_action)
        c1 = sub_gset(conj_g, cls)  # {(tau, 1)} has the factor's indices
        c_iota = sub_gset(conj_g, tuple(x + nF for x in cls))
        bij = gset_iso(c_set, c1)
        if bij is None or gset_iso(c1, c_iota) is None:
            class_iso_ok = False
        else:
            # first map of the decomposition at lattice level, per block
            mat = [[int(bij[j] == i) for j in range(len(cls))] for i in range(len(cls))]
            block_map = LatticeMap(
                permutation_lattice(c_set), permutation_lattice(c1), mat
            )
            first_map_iso = first_map_iso and is_equivariant_iso(block_map)
        z = centralizer(f_group, cls[0])
        blocks.append(
            BlockData(cls, cls[0], z, len(cls))
        )

    # the projection of the twisted sub onto the {(tau, 1)} coordinates
    proj = la.beside([la.identity(nF), ((0,) * nF,) * nF])
    block_points = sub_gset(conj_g, tuple(range(nF)))
    block_lattice = permutation_lattice(block_points)
    proj_map = LatticeMap(tw.middle, block_lattice, proj)
    composite = proj_map.compose(tw.sub_inclusion)
    sub_iso = is_equivariant_iso(composite)

    # cross-check: each class, as an F-set, is the centralizer coset space
    for cls, blk in zip(classes, blocks):
        f_action = [
            [cls.index(f_group.conj(t, x)) for x in cls] for t in f_group.elements()
        ]
        as_f_set = GSet(f_group, f_action)
        if gset_iso(as_f_set, coset_gset(f_group, blk.centralizer)) is None:
            class_iso_ok = False

    return BlockDecompositionReport(
        f_group_order=nF,
        blocks=tuple(blocks),
        class_embedding_iso=class_iso_ok,
        first_map_iso=first_map_iso,
        twisted_sub_iso=sub_iso,
        block_ranks=tuple(b.rank for b in blocks),
        total_rank=sum(b.rank for b in blocks),
    )


@dataclass(frozen=True)
class VanishingReport:
    f_group_order: int
    block_count: int
    all_vanish: bool
    per_block: tuple  # (representative, centralizer order, h1 trivial)


def block_h1_vanishing(f_group: FiniteGroup) -> VanishingReport:
    """H^1 of every conjugation block is trivial: permutation lattices have
    no first cohomology, so the twisted quotient torus has vanishing H^1."""
    rows = []
    ok = True
    for cls in conjugacy_classes(f_group):
        z = centralizer(f_group, cls[0])
        trivial = shapiro_check(f_group, z)
        ok = ok and trivial
        rows.append((cls[0], len(z), trivial))
    return VanishingReport(f_group.order, len(rows), ok, tuple(rows))


# ---------------------------------------------------------------------------
# worked scenarios


def scenario_report(kind: str, **params) -> dict:
    """Reference scenarios: abelian base, split product, exponent-l layer."""
    if kind == "abelian-galois":
        f_group = params["f_group"]
        if not f_group.is_abelian():
            raise ValueError("scenario needs an abelian group")
        dec = conjugation_block_decomposition(f_group)
        degrees = [b.rank for b in dec.blocks]
        return {
            "kind": kind,
            "block_count": len(dec.blocks),
            "block_degrees": degrees,
            "verified": dec.twisted_sub_iso
            and dec.class_embedding_iso
            and all(r == 1 for r in degrees),
        }
    if kind == "split-product":
        g1, g2 = params["g1"], params["g2"]
        G = direct_product(g1, g2)
        conj_big = conjugation_twist(G)
        conj_small = conjugation_twist(g1)
        n1 = g1.order
        # section x -> (x, 1) and the projection, both equivariant over G
        proj_action = [
            [g1.conj(t % n1, x) for x in g1.elements()] for t in G.elements()
        ]
        small_as_G = GSet(G, proj_action)
        section = tuple(x for x in g1.elements())  # point x -> point (x,1)
        section_ok = all(
            conj_big.apply(t, section[x]) == section[small_as_G.apply(t, x)]
            for t in G.elements()
            for x in g1.elements()
        )
        # lattice-level split: proj o section = identity
        big_lat = permutation_lattice(conj_big)
        small_lat = permutation_lattice(small_as_G)
        sec = [[int(section[x] == y) for x in g1.elements()] for y in G.elements()]
        prj = [[int(y % n1 == x) for y in G.elements()] for x in g1.elements()]
        sec_map = LatticeMap(small_lat, big_lat, sec)
        prj_map = LatticeMap(big_lat, small_lat, prj)
        split = prj_map.compose(sec_map)
        return {
            "kind": kind,
            "factor_classes": len(conjugacy_classes(g1)),
            "direct_factor_verified": section_ok
            and is_equivariant_iso(split)
            and split.matrix == la.identity(n1),
        }
    if kind == "heisenberg":
        l = params["l"]
        sk = nt.scholz_reichardt_skeleton(l)
        return {
            "kind": kind,
            "l": l,
            "fiber_class_count": sk.fiber_class_count,
            "centralizer_orders": list(sk.centralizer_orders),
            "component_field_index": sk.component_field_index,
            "component_count": sk.fiber_class_count,
        }
    raise ValueError("unknown scenario: %s" % kind)


# ---------------------------------------------------------------------------
# CM-type bases


@dataclass(frozen=True)
class CMTypeBasisReport:
    phi: tuple
    vectors: tuple  # the g+1 candidate vectors, ambient coordinates
    in_lattice: bool
    is_basis: bool


def _cm_type(d: CMGaloisDatum, phi) -> tuple:
    g = d.group
    phi = tuple(sorted(set(int(x) for x in phi)))
    iphi = {g.mul(d.iota, x) for x in phi}
    if set(phi) & iphi or len(phi) * 2 != g.order or set(phi) | iphi != set(g.elements()):
        raise NotCMType("the subset must pick one element from each pair")
    return phi


def _type_report(data: SerreData, phi: tuple) -> CMTypeBasisReport:
    d = data.datum
    g = d.group
    n = g.order
    vectors = []
    for i, tau in enumerate(phi):
        vec = [0] * (n + 1)
        vec[tau] += 1
        for j, tau2 in enumerate(phi):
            if j != i:
                vec[g.mul(d.iota, tau2)] += 1
        vec[n] = 1
        vectors.append(tuple(vec))
    conj_sum = [0] * (n + 1)
    for tau in phi:
        conj_sum[g.mul(d.iota, tau)] += 1
    conj_sum[n] = 1
    vectors.append(tuple(conj_sum))
    X = _coordinates(data.xs_inclusion, vectors)
    in_lattice = X is not None
    is_basis = False
    if in_lattice:
        s = la.smith_normal_form(X, transforms=())
        is_basis = (
            len(X) == la.width(X) == data.xs.rank
            and s.rank == data.xs.rank
            and all(dd == 1 for dd in s.diagonal)
        )
    return CMTypeBasisReport(phi, tuple(vectors), in_lattice, is_basis)


def cm_type_basis(d: CMGaloisDatum, phi) -> CMTypeBasisReport:
    """The modified type sums and the conjugate sum form a basis of the
    Serre character lattice."""
    phi = _cm_type(d, phi)
    return _type_report(build_serre(d), phi)


def cm_type_bases(d: CMGaloisDatum):
    """cm_type_basis for every CM type, in all_cm_types order, from one
    build of the Serre data."""
    data = build_serre(d)
    for phi in all_cm_types(d):
        yield _type_report(data, _cm_type(d, phi))


def all_cm_types(d: CMGaloisDatum):
    """Every transversal of the involution pairing."""
    g = d.group
    pairs = []
    seen = set()
    for s in g.elements():
        if s in seen:
            continue
        t = g.mul(d.iota, s)
        seen.update((s, t))
        pairs.append((s, t))
    yield from product(*pairs)


# ---------------------------------------------------------------------------
# towers


@dataclass(frozen=True)
class TowerRecipe:
    """Chain of CM data with surjections (larger level maps onto smaller),
    optionally carrying the arithmetic of the corresponding field tower."""

    data: tuple  # CMGaloisDatum per level, small to large
    maps: tuple  # maps[i]: data[i+1].group -> data[i].group
    arithmetic: NormTower | None = None

    def __post_init__(self):
        if len(self.maps) != len(self.data) - 1:
            raise NotATower("need one surjection per adjacent pair")
        for i, u in enumerate(self.maps):
            if u.source != self.data[i + 1].group or u.target != self.data[i].group:
                raise NotATower("map %d connects the wrong groups" % i)
            if not u.is_surjective():
                raise NotATower("map %d is not surjective" % i)
            if u(self.data[i + 1].iota) != self.data[i].iota:
                raise NotATower("map %d does not respect the involutions" % i)


def serre_tower_recipe(t: TowerRecipe) -> NormTower:
    """The inverse system of twisted-quotient block data, as a recipe the
    lim^1 classifier consumes."""
    if t.arithmetic is not None:
        return t.arithmetic
    constant = all(d == t.data[0] for d in t.data) and all(
        u.map == tuple(t.data[0].group.elements()) for u in t.maps
    )
    if constant:
        return NormTower(
            tuple(nt.AbelianFieldDatum(1, (0,)) for _ in t.data), law=None
        )
    raise NotATower(
        "no arithmetic attached: a non-constant abstract tower has no "
        "desk-decidable norm data"
    )


def layered_obstruction_tower(l: int, p0: int, levels: int = 1,
                              prime_bound: int = 20000) -> TowerRecipe:
    """Tower whose layers are cyclic degree-l fields ramified at freshly
    chosen primes subject to the splitting conditions; the attached law
    carries the replayable norm-obstruction certificate."""
    c2 = cyclic_group(2)
    cl = cyclic_group(l)
    data = []
    maps = []
    prev_f = None
    for k in range(levels + 1):
        f_grp = cl if k == 0 else direct_product(prev_f, cl)
        G = direct_product(f_grp, c2)
        data.append(CMGaloisDatum(G, f_grp.order))
        if k > 0:
            _, _, pf, _ = product_embeddings(prev_f, cl, f_grp)
            # K-level map: (f, eps) -> (proj f, eps)
            nbig, nsmall = f_grp.order, prev_f.order
            mapping = []
            for idx in range(G.order):
                f_part, eps = idx % nbig, idx // nbig
                mapping.append(pf(f_part) + nsmall * eps)
            maps.append(GroupHom(G, data[k - 1].group, tuple(mapping)))
        prev_f = f_grp
    arithmetic = NormTower(
        (nt.degree_l_datum(l, p0),),
        law=nt.SplitObstructionLaw(l, p0, levels=levels, prime_bound=prime_bound),
    )
    return TowerRecipe(tuple(data), tuple(maps), arithmetic)


def constant_tower(d: CMGaloisDatum, length: int) -> TowerRecipe:
    from .groups import identity_hom

    return TowerRecipe(
        tuple([d] * (length + 1)),
        tuple([identity_hom(d.group)] * length),
    )
