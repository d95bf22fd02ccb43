"""Concrete finite torsors: contracted products, inner forms, relative classes.

A torsor under a Gamma-group A is carried by its descent cocycle; the set
model is A itself with the twisted Galois action t * a = c(t) . (t . a) and
right translation as the A-action.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cohomology import (
    BudgetExceeded,
    CrossedHom,
    DEFAULT_BUDGET,
    GammaGroup,
    NotCocycle,
    h1_nonabelian,
    trivial_cocycle,
    twist_group,
    twist_values,
)
from .groups import FiniteGroup, GroupHom, generating_set
from .gsets import GSet
from .linalg import int_rows


class IncompatibleActions(ValueError):
    pass


class NotExact(ValueError):
    pass


@dataclass(frozen=True)
class TorsorRep:
    structure: GammaGroup
    cocycle: CrossedHom

    def __post_init__(self):
        if self.cocycle.coefficient != self.structure:
            raise NotCocycle("cocycle must take values in the structure group")

    @property
    def gamma(self) -> FiniteGroup:
        return self.structure.gamma

    def twisted_point_action(self) -> GSet:
        """Galois action on the set model (points = structure group elements)."""
        n = self.structure
        und = n.underlying
        action = [
            [und.mul(self.cocycle(t), n.act(t, a)) for a in und.elements()]
            for t in n.gamma.elements()
        ]
        return GSet(n.gamma, action)


def trivial_torsor(structure: GammaGroup) -> TorsorRep:
    return TorsorRep(structure, trivial_cocycle(structure.gamma, structure))


class EquivariantASet:
    """Finite left A-set carrying a compatible Gamma-action."""

    def __init__(self, structure: GammaGroup, a_action, gamma_action,
                 validate: bool = True):
        self.structure = structure
        self.a_action = int_rows(a_action)
        self.gamma_action = int_rows(gamma_action)
        self.size = len(self.a_action[0])
        if validate:
            self._validate()

    def _validate(self):
        A, G = self.structure.underlying, self.structure.gamma
        if len(self.a_action) != A.order:
            raise IncompatibleActions("A-action shape mismatch")
        if len(self.gamma_action) != G.order or len(self.gamma_action[0]) != self.size:
            raise IncompatibleActions("Gamma-action shape mismatch")
        GSet(A, self.a_action)  # left action axioms
        GSet(G, self.gamma_action)
        # compatibility: t . (a . x) = (t . a) . (t . x)
        for t, gt in enumerate(self.gamma_action):
            for a, ax in enumerate(self.a_action):
                tax = self.a_action[self.structure.act(t, a)]
                if any(gt[y] != tax[gx] for y, gx in zip(ax, gt)):
                    raise IncompatibleActions(
                        "Gamma does not act on the A-set equivariantly"
                    )


def left_translation_aset(structure: GammaGroup) -> EquivariantASet:
    """A acting on itself by left translation, Gamma by its given action."""
    und = structure.underlying
    return EquivariantASet(structure, und.rows, structure.action)


def conjugation_aset(structure: GammaGroup) -> EquivariantASet:
    """A acting on itself by inner automorphisms."""
    und = structure.underlying
    a_action = [[und.conj(a, x) for x in und.elements()] for a in und.elements()]
    return EquivariantASet(structure, a_action, structure.action)


def pushforward_aset(v: GroupHom, target: GammaGroup, source: GammaGroup) -> EquivariantASet:
    """Target group as an A-set via a . b = v(a) b, for extension of structure."""
    B = target.underlying
    a_action = [B.rows[v(a)] for a in source.underlying.elements()]
    return EquivariantASet(source, a_action, target.action)


def contracted_product(p: TorsorRep, x: EquivariantASet) -> GSet:
    """The Gamma-set P x^A X: every class has the unique form [1, point], and
    the induced action is t * point = c(t) . (t . point)."""
    if x.structure != p.structure:
        raise IncompatibleActions("torsor and A-set have different structures")
    n = p.structure
    action = [
        [x.a_action[p.cocycle(t)][y] for y in x.gamma_action[t]]
        for t in n.gamma.elements()
    ]
    out = GSet(n.gamma, action)  # validation doubles as well-definedness
    return out


def inner_twist(p: TorsorRep) -> GammaGroup:
    """The inner form: same group, Galois action conjugated through the cocycle."""
    return twist_group(p.structure, p.cocycle)


def torsor_automorphism_count(p: TorsorRep) -> int:
    """|Aut_A(P)|: A-equivariant Galois-equivariant self-maps of the set model.

    Equals the number of fixed points of the inner twist; both sides are
    enumerated independently here.
    """
    n = p.structure
    und = n.underlying
    pts = p.twisted_point_action()
    count = 0
    for m in und.elements():
        # left translation by m commutes with right A-action automatically
        if all(
            und.mul(m, pts.apply(t, a)) == pts.apply(t, und.mul(m, a))
            for t in n.gamma.elements()
            for a in und.elements()
        ):
            count += 1
    return count


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
        for t in self.source.gamma.elements():
            for x in self.source.underlying.elements():
                if self.hom(self.source.act(t, x)) != self.target.act(t, self.hom(x)):
                    raise IncompatibleActions("hom is not equivariant")

    def __call__(self, x: int) -> int:
        return self.hom(x)


@dataclass(frozen=True)
class RelativeClass:
    """A lift p of the base cocycle q along v, with v o p = q on the nose."""

    vmap: EquivariantHom
    q: TorsorRep
    p: TorsorRep

    def __post_init__(self):
        if self.q.structure != self.vmap.target:
            raise IncompatibleActions("base torsor lives over the wrong group")
        if self.p.structure != self.vmap.source:
            raise IncompatibleActions("lift lives over the wrong group")
        for t in self.vmap.source.gamma.elements():
            if self.vmap(self.p.cocycle(t)) != self.q.cocycle(t):
                raise NotCocycle("lift does not map onto the base cocycle")


def _kernel_twists(vals, b: GammaGroup, kernel) -> tuple:
    """Orbit of a cocycle value table under twisted conjugation by the kernel."""
    return tuple(sorted(set(twist_values(b, vals, kernel))))


def relative_h1(v: EquivariantHom, q: TorsorRep,
                budget: int = DEFAULT_BUDGET) -> tuple:
    """Representatives of lifts of q along v, modulo kernel twists.

    Lifts are enumerated on a generating set of Gamma: each generator value
    ranges over the v-fiber of the base value.
    """
    if q.structure != v.target:
        raise IncompatibleActions("base torsor over the wrong group")
    gamma = v.source.gamma
    B = v.source
    gens = generating_set(gamma)
    fibers = []
    for s in gens:
        target_val = q.cocycle(s)
        fib = tuple(x for x in B.underlying.elements() if v(x) == target_val)
        fibers.append(fib)
    total = 1
    for f in fibers:
        total *= len(f)
    if total > budget:
        raise BudgetExceeded(f"{total} candidate lifts exceed budget {budget}")
    kernel = v.hom.kernel()
    found = set()
    reps = []
    for assignment in product(*fibers):
        try:
            f = CrossedHom.from_generators(
                gamma, B, {s: val for s, val in zip(gens, assignment)}
            )
        except NotCocycle:
            continue
        if tuple(v(x) for x in f.values) != q.cocycle.values:
            continue
        if f.values in found:
            continue
        orbit = _kernel_twists(f.values, B, kernel)
        found.update(orbit)
        rep_vals = orbit[0]
        reps.append(
            RelativeClass(
                v, q, TorsorRep(B, CrossedHom(gamma, B, rep_vals, validate=False))
            )
        )
    reps.sort(key=lambda rc: rc.p.cocycle.values)
    return tuple(reps)


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
    kernel_h1_classes: tuple  # canonical representatives in the inner form
    relative_classes: tuple  # canonical representatives of lifts
    mapping: tuple  # index of the relative class hit by each kernel class
    bijective: bool
    neutral_to_base: bool
    abelian_kernel_action_factors: bool | None  # None when kernel not abelian


def verify_twist_bijection(seq: ExactGammaSequence, base: RelativeClass,
                           budget: int = DEFAULT_BUDGET) -> TwistBijectionReport:
    """Check that twisting by the base lift identifies H^1 of the twisted
    kernel with the relative classes over the base, neutral class to base."""
    if base.vmap.hom != seq.project.hom or base.vmap.source != seq.b:
        raise NotExact("base class does not live over the given sequence")
    gamma = seq.b.gamma
    B = seq.b
    A = seq.a
    inc = seq.include
    p0 = base.p.cocycle
    # inner form of the kernel: the twist of B by the base cocycle, restricted
    emb = inc.hom.map
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
    rel_index = {rc.p.cocycle.values: i for i, rc in enumerate(rel)}
    kernel_of_v = seq.project.hom.kernel()

    mapping = []
    ok = True
    for cls in kernel_h1.classes:
        lifted = tuple(
            B.underlying.mul(emb[cls(t)], p0(t)) for t in gamma.elements()
        )
        # must be a genuine B-cocycle over q
        CrossedHom(gamma, B, lifted)
        orbit = _kernel_twists(lifted, B, kernel_of_v)
        hit = rel_index.get(orbit[0])
        if hit is None:
            ok = False
            mapping.append(-1)
        else:
            mapping.append(hit)
    bijective = (
        ok
        and len(set(mapping)) == len(mapping)
        and len(mapping) == len(rel)
    )
    neutral_vals = trivial_cocycle(gamma, twisted_kernel).values
    neutral_idx = next(
        (i for i, cls in enumerate(kernel_h1.classes) if neutral_vals in
         twist_values(twisted_kernel, cls.values, A.underlying.elements())),
        None,
    )
    neutral_to_base = False
    if neutral_idx is not None and mapping[neutral_idx] >= 0:
        base_orbit = _kernel_twists(base.p.cocycle.values, B, kernel_of_v)
        neutral_to_base = rel[mapping[neutral_idx]].p.cocycle.values == base_orbit[0]

    factors = None
    if A.underlying.is_abelian():
        # the B-conjugation action on the kernel must factor through C, and
        # the twisted kernel must equal the twist through the base of q
        factors = True
        for b1 in B.underlying.elements():
            for b2 in B.underlying.elements():
                if seq.project(b1) != seq.project(b2):
                    continue
                for x in A.underlying.elements():
                    y1 = B.underlying.conj(b1, emb[x])
                    y2 = B.underlying.conj(b2, emb[x])
                    if y1 != y2:
                        factors = False
        if factors:
            q0 = base.q.cocycle
            lift_of = {}
            for cval in seq.c.underlying.elements():
                lift_of[cval] = next(
                    b for b in B.underlying.elements() if seq.project(b) == cval
                )
            for t in gamma.elements():
                lb = lift_of[q0(t)]
                for x in A.underlying.elements():
                    via_q = back[
                        B.underlying.conj(lb, B.act(t, emb[x]))
                    ]
                    if via_q != twisted_kernel.act(t, x):
                        factors = False
    return TwistBijectionReport(
        kernel_h1.classes,
        rel,
        tuple(mapping),
        bijective,
        neutral_to_base,
        factors,
    )
