"""Free integer modules with group action; exactness and iso checks via SNF."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from . import linalg as la
from .groups import FiniteGroup, NotSubgroup, generating_set, is_subgroup
from .gsets import GSet, coset_gset
from .linalg import SNFResult, smith_normal_form  # re-exported

__all__ = [
    "ZGLattice",
    "LatticeMap",
    "SNFResult",
    "smith_normal_form",
    "NotEquivariant",
    "NotStable",
    "NotComposable",
    "permutation_lattice",
    "equivariant_sublattice",
    "is_exact",
    "exactness_report",
    "is_equivariant_iso",
    "induced_lattice",
    "trivial_lattice",
    "zero_lattice",
    "direct_sum",
    "zero_map",
]


class NotEquivariant(ValueError):
    pass


class NotStable(ValueError):
    pass


class NotComposable(ValueError):
    pass


class ZGLattice:
    """Rank-r free module with the group acting by integer matrices.

    `rho[g]` is the matrix of g as int-tuple rows (linalg).  With
    validate=False the caller vouches that rho already is an action in that
    form; otherwise every matrix is read through la.int_rows and checked.
    """

    def __init__(self, group: FiniteGroup, rho, validate: bool = True):
        self.group = group
        mats = tuple(la.int_rows(m) for m in rho) if validate else tuple(rho)
        if len(mats) != group.order:
            raise ValueError("one matrix per group element required")
        self.rank = len(mats[0])
        self.rho = mats
        self.neutral = (0,) * self.rank
        if validate:
            self._validate()

    def _validate(self):
        g, n = self.group, self.rank
        if any(len(m) != n or la.width(m) != n for m in self.rho):
            raise ValueError("matrices must be square of equal rank")
        if self.rho[0] != la.identity(n):
            raise ValueError("identity must act as the identity matrix")
        # multiplicativity on a generating set propagates to all elements
        for s in generating_set(g):
            for h in g.elements():
                if self.rho[g.mul(s, h)] != la.matmul(self.rho[s], self.rho[h]):
                    raise ValueError("rho is not multiplicative")

    # coefficient protocol: neutral/op/inv/act/canon on integer tuples
    def op(self, a, b) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a) -> tuple:
        return tuple(-x for x in a)

    def act(self, g: int, vec) -> tuple:
        return tuple(sum(map(mul, row, vec)) for row in self.rho[g])

    def canon(self, vec) -> tuple:
        return tuple(int(x) for x in vec)

    def __eq__(self, other):
        return (
            isinstance(other, ZGLattice)
            and self.group == other.group
            and self.rho == other.rho
        )

    def __repr__(self):
        return f"ZGLattice(rank={self.rank}, group order {self.group.order})"


@dataclass(frozen=True)
class LatticeMap:
    """Equivariant map given by a target.rank x source.rank integer matrix,
    as int-tuple rows; a map into the zero lattice has the 0 x 0 matrix.

    `retraction`, when set, is an integral left inverse of `matrix` (see
    equivariant_sublattice).  With validate=False the caller vouches for
    the matrix, in rows form, and for its equivariance.
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
        for s in generating_set(self.source.group):
            lhs = la.matmul(m, self.source.rho[s])
            rhs = la.matmul(self.target.rho[s], m)
            if lhs != rhs:
                raise NotEquivariant("matrix does not commute with the action")

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        if other.target is not self.source and other.target != self.source:
            raise NotComposable("composition mismatch")
        return LatticeMap(
            other.source, self.target, la.matmul(self.matrix, other.matrix),
            validate=False,
        )


def trivial_lattice(group: FiniteGroup, rank: int = 1) -> ZGLattice:
    return ZGLattice(group, [la.identity(rank)] * group.order, validate=False)


def zero_lattice(group: FiniteGroup) -> ZGLattice:
    return ZGLattice(group, [()] * group.order, validate=False)


def zero_map(source: ZGLattice, target: ZGLattice) -> LatticeMap:
    return LatticeMap(source, target, ((0,) * source.rank,) * target.rank)


def direct_sum(a: ZGLattice, b: ZGLattice) -> ZGLattice:
    if a.group != b.group:
        raise ValueError("different groups")
    right, left = (0,) * b.rank, (0,) * a.rank
    mats = [
        tuple(row + right for row in ma) + tuple(left + row for row in mb)
        for ma, mb in zip(a.rho, b.rho)
    ]
    return ZGLattice(a.group, mats, validate=False)


def permutation_lattice(x: GSet) -> ZGLattice:
    """Free module on the points, rho(g) e_j = e_{g.j}.

    Row g.j of rho(g) is the unit row e_j, so every matrix is made of the
    same x.size unit rows.
    """
    units = la.identity(x.size)
    mats = []
    for perm in x.action:
        rows = [None] * x.size
        for j, i in enumerate(perm):
            rows[i] = units[j]
        mats.append(tuple(rows))
    return ZGLattice(x.group, mats, validate=False)


def induced_lattice(g: FiniteGroup, h) -> ZGLattice:
    if not is_subgroup(g, tuple(set(h))):
        raise NotSubgroup("not a subgroup")
    return permutation_lattice(coset_gset(g, h))


def equivariant_sublattice(m: ZGLattice, equations) -> tuple[ZGLattice, LatticeMap]:
    """Saturated solution lattice of `equations @ v = 0` with restricted action.

    One SNF of the equations gives the kernel basis K and its retraction W
    (W K = I, linalg.saturated_kernel); the inclusion map carries W as its
    `retraction`, so later solves against K multiply and check
    (linalg.coordinates) instead of factoring K again.  The restricted
    action is rho_sub(g) = W rho(g) K, checked by K rho_sub(g) == rho(g) K
    for every group element g: raises NotStable when some rho(g) does not
    preserve the solution space.
    """
    # no equations: one zero row has the same solutions
    E = la.int_rows(equations) or ((0,) * m.rank,)
    if la.width(E) != m.rank:
        raise ValueError("equation width must match rank")
    K, W = la.saturated_kernel(E)
    group = m.group
    rho = la.restricted_action(K, W, m.rho)
    if rho is None:
        raise NotStable("action does not preserve the solution space")
    sub = ZGLattice(group, rho, validate=False)
    incl = LatticeMap(sub, m, K, validate=False, retraction=W)
    return sub, incl


def image_basis(f: LatticeMap) -> tuple:
    return la.column_space_basis(f.matrix)


def kernel_sublattice(f: LatticeMap) -> tuple:
    # a map into the zero lattice has no rows; one zero row has its kernel
    return la.kernel_basis(f.matrix or ((0,) * f.source.rank,))


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


def exactness_report(seq) -> ExactnessReport:
    """Exactness of a composable chain of maps, ends included.

    At each interior joint the image of the incoming map is compared with
    the kernel of the outgoing map both after saturation and as honest
    subgroups; integral equality is what Hilbert-90 style arguments need.
    """
    maps = list(seq)
    if not maps:
        raise NotComposable("empty sequence")
    for f, g in zip(maps, maps[1:]):
        if f.target != g.source:
            raise NotComposable("maps do not compose")
    joints = []
    for f, g in zip(maps, maps[1:]):
        comp_zero = not any(map(any, la.matmul(g.matrix, f.matrix)))
        im = image_basis(f)
        ker = kernel_sublattice(g)  # saturated by construction
        sat_eq = la.lattice_eq(la.saturation(im), ker)
        int_eq = la.lattice_eq(im, ker)
        joints.append(JointReport(comp_zero, sat_eq, int_eq))
    first_inj = la.width(kernel_sublattice(maps[0])) == 0
    last_im = image_basis(maps[-1])
    last_surj = la.lattice_eq(last_im, la.identity(maps[-1].target.rank))
    return ExactnessReport(tuple(joints), first_inj, last_surj)


def is_exact(seq) -> bool:
    return exactness_report(seq).exact


def is_equivariant_iso(f: LatticeMap) -> bool:
    """True iff the map is a square unimodular equivariant matrix."""
    if f.source.rank != f.target.rank:
        return False
    s = smith_normal_form(f.matrix, transforms=())
    return s.rank == f.source.rank and all(d == 1 for d in s.diagonal)
