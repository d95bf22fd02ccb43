"""Free integer modules with group action; exactness and iso checks via SNF."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    """Rank-r free module with the group acting by integer matrices."""

    def __init__(self, group: FiniteGroup, rho, validate: bool = True):
        self.group = group
        mats = [la.intmat(m) for m in rho]
        if len(mats) != group.order:
            raise ValueError("one matrix per group element required")
        self.rank = int(mats[0].shape[0]) if mats else 0
        for m in mats:
            if m.shape != (self.rank, self.rank):
                raise ValueError("matrices must be square of equal rank")
        self.rho = tuple(mats)
        self.neutral = (0,) * self.rank
        if validate:
            self._validate()

    def _validate(self):
        g = self.group
        if not la.mat_eq(self.rho[0], la.identity(self.rank)):
            raise ValueError("identity must act as the identity matrix")
        # multiplicativity on a generating set propagates to all elements
        for s in generating_set(g):
            for h in g.elements():
                if not la.mat_eq(self.rho[g.mul(s, h)], self.rho[s] @ self.rho[h]):
                    raise ValueError("rho is not multiplicative")

    # coefficient protocol: neutral/op/inv/act/canon on integer tuples
    def op(self, a, b) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a) -> tuple:
        return tuple(-x for x in a)

    def act(self, g: int, vec) -> tuple:
        col = self.rho[g] @ la.intmat(vec).reshape(-1, 1)
        return tuple(int(v) for v in col.ravel())

    def canon(self, vec) -> tuple:
        return tuple(int(x) for x in vec)

    def __eq__(self, other):
        return (
            isinstance(other, ZGLattice)
            and self.group == other.group
            and self.rank == other.rank
            and all(la.mat_eq(a, b) for a, b in zip(self.rho, other.rho))
        )

    def __repr__(self):
        return f"ZGLattice(rank={self.rank}, group order {self.group.order})"


@dataclass(frozen=True)
class LatticeMap:
    """Equivariant map given by a target.rank x source.rank integer matrix.

    `retraction`, when set, is an integral left inverse of `matrix` (see
    equivariant_sublattice).
    """

    source: ZGLattice
    target: ZGLattice
    matrix: np.ndarray
    validate: bool = field(default=True, compare=False)
    retraction: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        m = la.intmat(self.matrix)
        if m.shape != (self.target.rank, self.source.rank):
            raise ValueError("matrix shape mismatch")
        object.__setattr__(self, "matrix", m)
        if self.validate:
            if self.source.group != self.target.group:
                raise NotEquivariant("source and target have different groups")
            for s in generating_set(self.source.group):
                lhs = m @ self.source.rho[s]
                rhs = self.target.rho[s] @ m
                if not la.mat_eq(lhs, rhs):
                    raise NotEquivariant("matrix does not commute with the action")

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        if other.target is not self.source and other.target != self.source:
            raise NotComposable("composition mismatch")
        return LatticeMap(
            other.source, self.target, self.matrix @ other.matrix, validate=False
        )


def trivial_lattice(group: FiniteGroup, rank: int = 1) -> ZGLattice:
    return ZGLattice(group, [la.identity(rank)] * group.order, validate=False)


def zero_lattice(group: FiniteGroup) -> ZGLattice:
    return ZGLattice(group, [la.zeros(0, 0)] * group.order, validate=False)


def zero_map(source: ZGLattice, target: ZGLattice) -> LatticeMap:
    return LatticeMap(source, target, la.zeros(target.rank, source.rank))


def direct_sum(a: ZGLattice, b: ZGLattice) -> ZGLattice:
    if a.group != b.group:
        raise ValueError("different groups")
    mats = []
    for g in a.group.elements():
        m = la.zeros(a.rank + b.rank, a.rank + b.rank)
        m[: a.rank, : a.rank] = a.rho[g]
        m[a.rank :, a.rank :] = b.rho[g]
        mats.append(m)
    return ZGLattice(a.group, mats, validate=False)


def permutation_lattice(x: GSet) -> ZGLattice:
    """Free module on the points, rho(g) e_j = e_{g.j}."""
    mats = []
    for g in x.group.elements():
        m = la.zeros(x.size, x.size)
        for j in x.points():
            m[x.apply(g, j), j] = 1
        mats.append(m)
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
    E = la.intmat(equations)
    if E.shape[1] != m.rank:
        raise ValueError("equation width must match rank")
    K, W = la.saturated_kernel(E)
    group = m.group
    rho = la.restricted_action(K, W, [m.rho[g] for g in group.elements()])
    if rho is None:
        raise NotStable("action does not preserve the solution space")
    sub = ZGLattice(group, rho, validate=False)
    incl = LatticeMap(sub, m, K, validate=False, retraction=W)
    return sub, incl


def image_basis(f: LatticeMap) -> np.ndarray:
    return la.column_space_basis(f.matrix)


def kernel_sublattice(f: LatticeMap) -> np.ndarray:
    return la.kernel_basis(f.matrix)


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
        comp_zero = la.is_zero(g.matrix @ f.matrix)
        im = image_basis(f)
        ker = kernel_sublattice(g)  # saturated by construction
        sat_eq = la.lattice_eq(la.saturation(im), ker)
        int_eq = la.lattice_eq(im, ker)
        joints.append(JointReport(comp_zero, sat_eq, int_eq))
    first_inj = la.kernel_basis(maps[0].matrix).shape[1] == 0
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
