"""Concrete finite torsors: relative classes and the twist bijection.

A torsor under a Gamma-group A is its descent cocycle, a CrossedHom with
values in A (Serre, Galois Cohomology, I 5.3): the trivial torsor is the
trivial cocycle, and the relative classes over a base cocycle q are the
classes of the lifts of q under twisting by the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import (
    CrossedHom,
    DEFAULT_BUDGET,
    GammaGroup,
    NonabelianH1,
    NotCocycle,
    _twist_class_search,
    h1_nonabelian,
    trivial_cocycle,
    twist_group,
)
from .groups import GroupHom, generating_set


class IncompatibleActions(ValueError):
    pass


class NotExact(ValueError):
    pass


def trivial_torsor(structure: GammaGroup) -> CrossedHom:
    return trivial_cocycle(structure.gamma, structure)


# ---------------------------------------------------------------------------
# relative classes


@dataclass(frozen=True)
class EquivariantHom:
    """Group homomorphism between the underlying groups, Gamma-equivariant."""

    source: GammaGroup
    target: GammaGroup
    hom: GroupHom

    def __post_init__(self):
        if self.hom.source != self.source.underlying:
            raise IncompatibleActions("hom source mismatch")
        if self.hom.target != self.target.underlying:
            raise IncompatibleActions("hom target mismatch")
        if self.source.gamma != self.target.gamma:
            raise IncompatibleActions("different acting groups")
        for t in generating_set(self.source.gamma):
            for x in self.source.underlying.elements():
                if self.hom(self.source.act(t, x)) != self.target.act(t, self.hom(x)):
                    raise IncompatibleActions("hom is not equivariant")

    def __call__(self, x: int) -> int:
        return self.hom(x)


@dataclass(frozen=True)
class RelativeClass:
    """A lift p of the base cocycle q along v, with v o p = q on the nose."""

    vmap: EquivariantHom
    q: CrossedHom
    p: CrossedHom

    def __post_init__(self):
        if self.q.coefficient != self.vmap.target:
            raise IncompatibleActions("base torsor lives over the wrong group")
        if self.p.coefficient != self.vmap.source:
            raise IncompatibleActions("lift lives over the wrong group")
        for t in self.vmap.source.gamma.elements():
            if self.vmap(self.p(t)) != self.q(t):
                raise NotCocycle("lift does not map onto the base cocycle")


def relative_h1(v: EquivariantHom, q: CrossedHom,
                budget: int = DEFAULT_BUDGET) -> NonabelianH1:
    """The relative classes over the base cocycle q: the lifts f of q along
    v modulo twists by the kernel of v, from the search of h1_nonabelian
    (cohomology._twist_class_search) with each generator value ranging over
    the v-fiber of q's value there.  BudgetExceeded first, then NotAction
    unless Gamma acts on the source by automorphisms.

    v o f and q are cocycles that agree on the generators, so v o f = q for
    every table found.
    """
    if q.coefficient != v.target:
        raise IncompatibleActions("base torsor over the wrong group")
    B = v.source
    gens = generating_set(B.gamma)
    fibers = [tuple(x for x in B.underlying.elements() if v(x) == q(s)) for s in gens]
    return _twist_class_search(B.gamma, B, gens, fibers, v.hom.kernel(), budget)


# ---------------------------------------------------------------------------
# the twist bijection


@dataclass(frozen=True)
class ExactGammaSequence:
    """1 -> A -> B -> C -> 1 of Gamma-groups with equivariant maps."""

    a: GammaGroup
    b: GammaGroup
    c: GammaGroup
    include: EquivariantHom  # A -> B
    project: EquivariantHom  # B -> C

    def __post_init__(self):
        if self.include.source != self.a or self.include.target != self.b:
            raise NotExact("inclusion connects the wrong groups")
        if self.project.source != self.b or self.project.target != self.c:
            raise NotExact("projection connects the wrong groups")
        if not self.include.hom.is_injective():
            raise NotExact("first map is not injective")
        if not self.project.hom.is_surjective():
            raise NotExact("second map is not surjective")
        img = set(self.include.hom.map)
        ker = set(self.project.hom.kernel())
        if img != ker:
            raise NotExact("image of the inclusion is not the kernel")


@dataclass(frozen=True)
class TwistBijectionReport:
    """What verify_twist_bijection found.  Computed: `mapping`, `bijective`,
    `neutral_to_base`, and the CrossedHom validation of every lifted class;
    `abelian_kernel_action_factors` is not computed but holds by exactness
    (see verify_twist_bijection).

    `neutral_to_base` follows from `mapping[0] >= 0`: the first kernel class
    is the neutral one, whose lift is p0 itself, and the relative class that
    `mapping[0]` names is by construction the one whose representative is
    p0's label in the partition of relative_h1.  So it adds nothing to
    `bijective`; it stays a field because reports and their digests carry
    it."""

    kernel_h1_classes: tuple  # canonical representatives in the inner form
    relative_classes: tuple  # the lift cocycles of relative_h1's classes
    mapping: tuple  # index of the relative class hit by each kernel class
    bijective: bool
    neutral_to_base: bool
    abelian_kernel_action_factors: bool | None  # None when kernel not abelian


def verify_twist_bijection(seq: ExactGammaSequence, base: RelativeClass,
                           budget: int = DEFAULT_BUDGET) -> TwistBijectionReport:
    """Check that twisting by the base lift p0 identifies H^1 of the twisted
    kernel with the relative classes over the base, neutral class to base.

    Each kernel class a is lifted to t -> a(t) p0(t), validated as a cocycle
    of B and looked up in the partition of relative_h1, which labels every
    lift of q with the least table of its class under the kernel of B -> C;
    a lift with no label maps to -1.  `mapping` and `bijective` compare the
    labels with the relative classes, and `neutral_to_base` follows the
    first kernel class, which is the neutral one because the all-neutral
    table is the least table, to p0's label.

    `abelian_kernel_action_factors` is True for an abelian A and None
    otherwise, by exactness rather than by a loop: two elements of B with
    the same image in C differ by an element of A, so they conjugate an
    abelian A alike, and as v o p0 = q (RelativeClass), every lift of q(t)
    is p0(t) a with a in A, so conjugating through any lift of the base
    cocycle of C gives the twisted kernel action."""
    if base.vmap.hom != seq.project.hom or base.vmap.source != seq.b:
        raise NotExact("base class does not live over the given sequence")
    gamma = seq.b.gamma
    B = seq.b
    A = seq.a
    p0 = base.p
    # inner form of the kernel: the twist of B by the base cocycle, restricted
    emb = seq.include.hom.map
    back = {e: i for i, e in enumerate(emb)}
    twisted_b = twist_group(B, p0)
    action = []
    for row in twisted_b.action:
        ys = [row[e] for e in emb]
        if any(y not in back for y in ys):
            raise NotExact("kernel is not stable under the twisted action")
        action.append([back[y] for y in ys])
    twisted_kernel = GammaGroup(gamma, A.underlying, action)

    kernel_h1 = h1_nonabelian(gamma, twisted_kernel, budget)
    rel = relative_h1(base.vmap, base.q, budget)
    rel_index = {rc.values: i for i, rc in enumerate(rel.classes)}
    mapping = []
    for cls in kernel_h1.classes:
        lifted = tuple(
            B.underlying.mul(emb[cls(t)], p0(t)) for t in gamma.elements()
        )
        # must be a genuine B-cocycle over q
        CrossedHom(gamma, B, lifted)
        mapping.append(rel_index.get(rel.partition.get(lifted), -1))
    bijective = -1 not in mapping and len(set(mapping)) == len(mapping) == rel.count
    neutral = kernel_h1.classes[0].values == trivial_cocycle(gamma, twisted_kernel).values
    neutral_to_base = (neutral and mapping[0] >= 0
                       and rel.classes[mapping[0]].values == rel.partition.get(p0.values))
    return TwistBijectionReport(
        kernel_h1.classes,
        rel.classes,
        tuple(mapping),
        bijective,
        neutral_to_base,
        True if A.underlying.is_abelian() else None,
    )
