"""Free integer modules with group action; exactness and iso checks through
the unit-pivot reads of the Smith form (linalg)."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

from . import linalg as la
from .groups import FiniteGroup, check_action, generating_set
from .gsets import GSet


class NotEquivariant(ValueError):
    pass


class NotStable(ValueError):
    pass


class NotComposable(ValueError):
    pass


class ZGLattice:
    """Rank-r free module with the group acting by integer matrices.

    `rho[g]` is the matrix of g as int-tuple rows (linalg).  A permutation
    lattice is given by `points` instead, the point action as GSet.action
    holds it (row g lists the images g.j), and builds rho from it on first
    read, row i of rho(g) the unit row e_{g^-1.i} (_permutation_matrices),
    then keeps it; a lattice given by matrices has points None.  With
    validate=False the caller vouches that rho, or points, is an action in
    that form, by a theorem its docstring names, and consumers such as
    h1_abelian do not check it again; otherwise each matrix, or the points,
    is read by la.int_rows and checked (check_rho).  Two lattices are equal
    when their groups and actions are: on points where both carry them,
    which determine rho, else on rho.
    """

    def __init__(self, group: FiniteGroup, rho=None, validate: bool = True, *, points=None):
        self.group = group
        if (rho is None) == (points is None):
            raise ValueError("give the action as matrices or as points")
        if points is None:
            table = tuple(map(la.int_rows, rho)) if validate else tuple(rho)
        else:
            table = la.int_rows(points) if validate else tuple(points)
        if len(table) != group.order:
            raise ValueError("one matrix per group element required")
        self.rank = len(table[0])
        self.points = None if points is None else table
        self._rho = table if points is None else None
        if validate:
            self._validate()

    @property
    def rho(self) -> tuple:
        if self._rho is None:
            self._rho = _permutation_matrices(self.group, self.points)
        return self._rho

    def _validate(self):
        n = self.rank
        if self.points is None and any(len(m) != n or la.width(m) != n for m in self.rho):
            raise ValueError("matrices must be square of equal rank")
        check_rho(self, ValueError)

    def __eq__(self, other):
        if not isinstance(other, ZGLattice) or self.group != other.group:
            return False
        if self.points is not None and other.points is not None:
            return self.points == other.points
        return self.rho == other.rho

    def __repr__(self):
        return f"ZGLattice(rank={self.rank}, group order {self.group.order})"


def _permutation_matrices(group: FiniteGroup, points) -> tuple:
    """rho of the permutation lattice on the point action `points`,
    rho(g) e_j = e_{g.j}.  Row g.j of rho(g) is the unit row e_j, so row i
    is e_{g^-1.i}: rho(g) lists the unit rows in the order of the row of
    g^-1 in `points`, an action, g^-1 acting as the inverse permutation of
    g.  Every matrix is made of the same unit rows."""
    units = la.identity(len(points[0]))
    return tuple([tuple([units[j] for j in points[gi]]) for gi in group.inverses])


def check_rho(m: ZGLattice, error) -> None:
    """Raise `error` unless m's action is one: rho(1) = I and rho(s h) =
    rho(s) rho(h) for each s in generating_set and every h, so that
    induction on word length makes rho a homomorphism.  The products
    rho(s) rho(h) are la.matmul's.  A lattice given by points is checked on
    them, with no matrix, by groups.check_action, the one action-law check
    of a point table: points in range, p_1 = id and p_(s h) = p_s o p_h,
    which makes each p_g a permutation (p_s o p_(s^-1) = p_1), as rho(g)
    must be."""
    group = m.group
    if m.points is not None:
        check_action(group, m.points, error)
        return
    mats = m.rho
    if not _is_identity(mats[0], len(mats[0])):
        raise error("identity must act as the identity matrix")
    for s in generating_set(group):
        if any(la.matmul(mats[s], mh) != mats[t] for mh, t in zip(mats, group.rows[s])):
            raise error("rho is not multiplicative")


def _is_identity(m, r: int) -> bool:
    """Is m the r x r identity?  Read row by row against the unit rows,
    without building I."""
    return len(m) == r and all(len(row) == r and row[i] == 1 and row.count(0) == r - 1
                               for i, row in enumerate(m))


@dataclass(frozen=True)
class LatticeMap:
    """Equivariant map given by a target.rank x source.rank integer matrix,
    as int-tuple rows; a map into the zero lattice has the 0 x 0 matrix.

    `retraction`, when set, is an integral left inverse of `matrix` (see
    equivariant_sublattice).  With validate=False the caller vouches for
    the matrix, in rows form, and for its equivariance; otherwise m rho(s)
    == rho(s) m is checked at each generator s.

    Where both ends carry points, p on the source and q on the target, no
    matrix is built: applied to e_j, the equation says that m[q_s(i)][p_s(j)]
    == m[i][j] for all i, j, and it is checked over the nonzeros (i, j) of
    m alone.  That suffices: (i, j) -> (q_s(i), p_s(j)) is a bijection of
    the positions, so when it carries every nonzero to an equal entry it
    carries the nonzeros onto themselves and the zeros onto zeros.
    Otherwise both products are la.matmul's.
    """

    source: ZGLattice
    target: ZGLattice
    matrix: tuple
    validate: bool = field(default=True, compare=False)
    retraction: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.validate:
            return
        m = la.int_rows(self.matrix)
        rows, cols = self.target.rank, self.source.rank
        if (len(m), la.width(m)) != (rows, cols if rows else 0):
            raise ValueError("matrix shape mismatch")
        object.__setattr__(self, "matrix", m)
        if self.source.group != self.target.group:
            raise NotEquivariant("source and target have different groups")
        gens = generating_set(self.source.group)
        p, q = self.source.points, self.target.points
        if p is not None and q is not None:
            nonzeros = [(i, j, v) for i, row in enumerate(m)
                        for j, v in compress(enumerate(row), row)]
            for s in gens:
                ps, qs = p[s], q[s]
                if any(m[qs[i]][ps[j]] != v for i, j, v in nonzeros):
                    raise NotEquivariant("matrix does not commute with the action")
            return
        for s in gens:
            if la.matmul(m, self.source.rho[s]) != la.matmul(self.target.rho[s], m):
                raise NotEquivariant("matrix does not commute with the action")

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        if other.target is not self.source and other.target != self.source:
            raise NotComposable("composition mismatch")
        return LatticeMap(
            other.source, self.target, la.matmul(self.matrix, other.matrix),
            validate=False,
        )


def trivial_lattice(group: FiniteGroup, rank: int = 1) -> ZGLattice:
    """Z^rank with the trivial action: the permutation lattice on rank fixed
    points."""
    return ZGLattice(group, points=(tuple(range(rank)),) * group.order, validate=False)


def direct_sum(a: ZGLattice, b: ZGLattice) -> ZGLattice:
    """a + b, with b's coordinates after a's: on points, the disjoint union
    of the two point actions, b's points shifted by a.rank, where both
    lattices carry points; else block-diagonal matrices."""
    if a.group != b.group:
        raise ValueError("different groups")
    if a.points is not None and b.points is not None:
        k = a.rank
        points = [pa + tuple(j + k for j in pb) for pa, pb in zip(a.points, b.points)]
        return ZGLattice(a.group, points=points, validate=False)
    right, left = (0,) * b.rank, (0,) * a.rank
    mats = [
        tuple(row + right for row in ma) + tuple(left + row for row in mb)
        for ma, mb in zip(a.rho, b.rho)
    ]
    return ZGLattice(a.group, mats, validate=False)


def permutation_lattice(x: GSet) -> ZGLattice:
    """Free module on the points, rho(g) e_j = e_{g.j}: an action as x is.

    The lattice keeps x's table as its points, as a GSet holds it, validated
    or vouched for by its constructor; rho is built from it only when read
    (ZGLattice).
    """
    return ZGLattice(x.group, points=x.action, validate=False)


def equivariant_sublattice(m: ZGLattice, equations) -> tuple[ZGLattice, LatticeMap]:
    """Saturated solution lattice of `equations @ v = 0` with restricted action.

    linalg.saturated_kernel gives the kernel basis K and its retraction W,
    W K = I, by unit pivots, with an SNF of the unit-free remainder alone
    if one is left; the inclusion map carries W as its `retraction`, so
    later solves against K multiply and check (linalg._retract) instead of
    factoring K again.  The restricted action is rho_sub(g) = W rho(g) K,
    checked by K rho_sub(g) == rho(g) K for every group element g: raises
    NotStable when some rho(g) does not preserve the solution space.
    """
    # no equations: one zero row has the same solutions
    E = la.int_rows(equations) or ((0,) * m.rank,)
    if la.width(E) != m.rank:
        raise ValueError("equation width must match rank")
    K, W = la.saturated_kernel(E)
    group = m.group
    rho = la.restricted_action(*la._pair_rows(K, W), m.rho)
    if rho is None:
        raise NotStable("action does not preserve the solution space")
    sub = ZGLattice(group, rho, validate=False)
    incl = LatticeMap(sub, m, K, validate=False, retraction=W)
    return sub, incl


@dataclass(frozen=True)
class JointReport:
    composite_zero: bool
    image_equals_kernel_saturated: bool
    image_equals_kernel_integral: bool

    @property
    def exact(self) -> bool:
        return self.composite_zero and self.image_equals_kernel_integral


@dataclass(frozen=True)
class ExactnessReport:
    joints: tuple
    first_injective: bool
    last_surjective: bool

    @property
    def exact(self) -> bool:
        return (
            all(j.exact for j in self.joints)
            and self.first_injective
            and self.last_surjective
        )


def joint_report(F, G, rank: int) -> JointReport:
    """The joint of maps f, g with matrices F, G through a middle lattice of
    the given rank: g f == 0, and im f against ker g, by the rank lemma.

    g f == 0 puts im f inside ker g, which is saturated, as every kernel is,
    and of rank `rank` - rank G.  So the two are equal after saturation
    exactly when rank F is that rank, and equal outright when, in addition,
    im f is saturated: every elementary divisor of F is 1.  The integral
    equality is what Hilbert-90 style arguments need.  Where a lattice is
    zero, the ranks are read off the shapes (linalg.elementary_divisors).
    """
    if not _vanishes(G, la._sparse(F)):
        return JointReport(False, False, False)
    divisors = la.elementary_divisors(F)
    saturated = len(divisors) == rank - len(la.elementary_divisors(G))
    return JointReport(True, saturated, saturated and divisors.count(1) == len(divisors))


def _injective(M, rank: int) -> bool:
    """Is the matrix of a map from a lattice of the given rank injective?"""
    return len(la.elementary_divisors(M)) == rank


def _onto(M, rank: int) -> bool:
    """Is the matrix of a map onto a lattice of the given rank onto?"""
    return la.elementary_divisors(M).count(1) == rank


def kernel_sequence_exact(k, w, r: int, E) -> bool:
    """Is 0 -> col K -> M -E-> F -> 0 exact, where K has r columns, M has
    rank len(K), F has rank len(E) and W is the claimed retraction of K?
    k and w are the nonzeros of the rows of K and W, as la._pair_rows reads
    them, which raises ValueError unless W has the transposed shape of K.

    It is exactly when W K == I, E K == 0 and E is onto with r == len(K) -
    rank E; no second kernel is needed, by the rank lemma: a saturated
    sublattice inside a saturated lattice of the same rank is equal to it.
    W K == I makes K injective and col K saturated (d v = K x gives x = d W
    v, so v = K W v), and ker E is saturated as every kernel is, so E K == 0
    and equal ranks give col K = ker E.  The elementary divisors of E show
    that E is onto (len(E) unit divisors), and then rank ker E = len(K) -
    len(E).  No action on col K is needed either: the kernel of an
    equivariant map is G-stable, so col K is a sublattice with group action
    whenever E is a validated LatticeMap matrix.  serre decides its two
    character sequences and the twisted quotient sequence by this rule;
    exactness_report, which serves `lattice exact`, decides each joint by
    the same lemma.

    r is given, not read off w: a K with one column too many whose extra
    column W sends to zero has W K == I on its first r columns.  The rows
    of la._times are sorted and hold no zeros, so W K == I is a comparison
    with the unit rows [(i, 1)] and E K == 0 one with empty rows; neither
    product is made dense.
    """
    return (r == len(k) - len(E) and la._times(w, k) == [[(i, 1)] for i in range(r)]
            and _vanishes(E, k) and _onto(E, len(E)))


def _vanishes(G, f) -> bool:
    """Is G F == 0, for the nonzeros f of F's rows?  The rows of la._times
    hold no zeros, so the product is zero when every row is empty; it is
    never made dense."""
    if G and la.width(G) != len(f):
        raise ValueError("the inner dimensions of a product must agree")
    return not any(la._times(la._sparse(G), f))


def exactness_report(seq) -> ExactnessReport:
    """Exactness of a composable chain of maps, ends included: joint_report
    at each joint, the first map injective and the last onto, each read off
    the shapes where a lattice is zero."""
    maps = list(seq)
    if not maps:
        raise NotComposable("empty sequence")
    for f, g in zip(maps, maps[1:]):
        if f.target != g.source:
            raise NotComposable("maps do not compose")
    joints = tuple(
        joint_report(f.matrix, g.matrix, g.source.rank) for f, g in zip(maps, maps[1:])
    )
    first, last = maps[0], maps[-1]
    return ExactnessReport(
        joints,
        _injective(first.matrix, first.source.rank),
        _onto(last.matrix, last.target.rank),
    )


def is_equivariant_iso(f: LatticeMap) -> bool:
    """True iff the map is a square unimodular equivariant matrix."""
    return f.source.rank == f.target.rank and _onto(f.matrix, f.target.rank)
