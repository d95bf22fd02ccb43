"""H^0/H^1 of a finite group, twisting, and the lim^1 obstruction recipe.

Coefficients come in three flavours: free integer lattices (ZGLattice),
finite abelian modules, and arbitrary finite groups with action.  Abelian
H^1 is solved exactly over the integers: a cocycle is determined by its
values on the generators of a presentation (groups.presentation), and any
values there extend to a cocycle exactly when the cocycle vanishes on every
relator.  By the cocycle law that condition is linear in the unknowns, with
the Fox derivatives of the relator as coefficients (Fox, "Free differential
calculus I", Ann. Math. 1953): r constraint rows per relator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import mul

from . import linalg as la
from .groups import FiniteGroup, generating_set, presentation
from .lattices import ZGLattice, permutation_lattice
from .gsets import coset_gset


class NotCocycle(ValueError):
    pass


class NotAction(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    pass


class NotLevelEquivalent(ValueError):
    pass


DEFAULT_BUDGET = 10**6


# ---------------------------------------------------------------------------
# coefficient objects


class GammaGroup:
    """A finite group `underlying` with `gamma` acting by automorphisms.

    `action[t][x]` is the image of x under t, stored as a tuple of int tuples.
    """

    def __init__(self, gamma: FiniteGroup, underlying: FiniteGroup, action,
                 validate: bool = True):
        self.gamma = gamma
        self.underlying = underlying
        try:
            a = la.int_rows(action)
        except (TypeError, ValueError) as e:
            raise NotAction("action table must be an array of integers") from e
        if len(a) != gamma.order or any(len(r) != underlying.order for r in a):
            raise NotAction("action table shape mismatch")
        self.action = a
        if validate:
            self._validate()

    def _validate(self):
        g, n, a = self.gamma, self.underlying, self.action
        if a[0] != tuple(n.elements()):
            raise NotAction("identity must act trivially")
        nrows = n.rows
        for t, row in enumerate(a):
            if sorted(row) != list(n.elements()):
                raise NotAction("element %d does not act bijectively" % t)
            for x, xrow in enumerate(nrows):
                rx = nrows[row[x]]
                for y, xy in enumerate(xrow):
                    if row[xy] != rx[row[y]]:
                        raise NotAction("element %d not an automorphism" % t)
        for t1, grow in enumerate(g.rows):
            for t2, t12 in enumerate(grow):
                if tuple(map(a[t1].__getitem__, a[t2])) != a[t12]:
                    raise NotAction("action is not a homomorphism")

    # coefficient protocol: neutral/op/inv/act/canon on canonical values
    neutral = 0

    def op(self, x: int, y: int) -> int:
        return self.underlying.rows[x][y]

    def inv(self, x: int) -> int:
        return self.underlying.inverses[x]

    def act(self, t: int, x: int) -> int:
        return self.action[t][x]

    def canon(self, x) -> int:
        return int(x)

    def fixed_points(self) -> tuple:
        return tuple(
            x
            for x in self.underlying.elements()
            if all(self.act(t, x) == x for t in self.gamma.elements())
        )

    def __eq__(self, other):
        return (
            isinstance(other, GammaGroup)
            and self.gamma == other.gamma
            and self.underlying == other.underlying
            and self.action == other.action
        )

    def __repr__(self):
        return (
            f"GammaGroup(|gamma|={self.gamma.order}, "
            f"|underlying|={self.underlying.order})"
        )


def trivial_gamma_group(gamma: FiniteGroup, underlying: FiniteGroup) -> GammaGroup:
    action = (tuple(underlying.elements()),) * gamma.order
    return GammaGroup(gamma, underlying, action, validate=False)


def gamma_group_product(factors) -> tuple[GammaGroup, tuple]:
    """Product Gamma-group plus (embedding, projection) index maps per factor."""
    factors = list(factors)
    gamma = factors[0].gamma
    if any(f.gamma != gamma for f in factors):
        raise NotAction("factors over different groups")
    from .groups import direct_product

    und = factors[0].underlying
    offsets = [und.order]
    for f in factors[1:]:
        und = direct_product(und, f.underlying)
        offsets.append(und.order)

    sizes = [f.underlying.order for f in factors]

    def split(x):
        out = []
        for s in sizes:
            out.append(x % s)
            x //= s
        return tuple(out)

    def join(parts):
        x = 0
        for s, p in zip(reversed(sizes), reversed(parts)):
            x = x * s + p
        return x

    parts = [split(x) for x in und.elements()]
    action = [
        [join([f.act(t, p) for f, p in zip(factors, xp)]) for xp in parts]
        for t in gamma.elements()
    ]
    prod = GammaGroup(gamma, und, action)
    maps = tuple((i, tuple(xp[i] for xp in parts)) for i in range(len(factors)))
    return prod, maps


class FiniteModule(la.FgAbelian):
    """Finite abelian module Z^n / diag(relations) with integer action."""

    # a module is more than its relations: compare by identity
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, gamma: FiniteGroup, relations, mats, validate: bool = True):
        super().__init__(tuple(int(d) for d in relations))
        if any(d <= 0 for d in self.relations):
            raise ValueError("relations must be positive (finite module)")
        self.gamma = gamma
        self.mats = tuple(la.int_rows(m) for m in mats)
        self.neutral = (0,) * self.ngens
        if validate:
            self._validate()

    def _validate(self):
        if len(self.mats) != self.gamma.order:
            raise NotAction("one matrix per group element required")
        n = self.ngens
        for m in self.mats:
            if len(m) != n or la.width(m) != n:
                raise NotAction("matrix shape mismatch")
            # columns must respect the relation lattice
            for j, dj in enumerate(self.relations):
                for i, di in enumerate(self.relations):
                    if (dj * m[i][j]) % di != 0:
                        raise NotAction("action does not preserve relations")
        for s in generating_set(self.gamma):
            for h in self.gamma.elements():
                prod_ = la.matmul(self.mats[s], self.mats[h])
                tgt = self.mats[self.gamma.mul(s, h)]
                for di, prow, trow in zip(self.relations, prod_, tgt):
                    if any((v - w) % di for v, w in zip(prow, trow)):
                        raise NotAction("action not multiplicative mod relations")

    def op(self, a, b) -> tuple:
        return self.reduce([x + y for x, y in zip(a, b)])

    def inv(self, a) -> tuple:
        return self.reduce([-x for x in a])

    def act(self, t: int, vec) -> tuple:
        return self.reduce([sum(map(mul, row, vec)) for row in self.mats[t]])

    def canon(self, vec) -> tuple:
        return self.reduce(vec)


@dataclass(frozen=True)
class CrossedHom:
    """1-cocycle: values per group element with f(st) = f(s) * (s . f(t))."""

    group: FiniteGroup
    coefficient: object
    values: tuple
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        c = self.coefficient
        vals = tuple(c.canon(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.group.order:
            raise NotCocycle("one value per group element required")
        if self.validate:
            if vals[0] != c.neutral:
                raise NotCocycle("value at the identity must be neutral")
            g = self.group
            for s in g.elements():
                for t in g.elements():
                    if c.op(vals[s], c.act(s, vals[t])) != vals[g.mul(s, t)]:
                        raise NotCocycle("cocycle law fails at (%d,%d)" % (s, t))

    def __call__(self, t: int):
        return self.values[t]

    @classmethod
    def from_generators(cls, group, coefficient, gen_values: dict) -> "CrossedHom":
        """Close generator values over a spanning tree; reject inconsistency."""
        op, act = coefficient.op, coefficient.act
        gen_values = [(s, coefficient.canon(v)) for s, v in gen_values.items()]
        rows = group.rows
        vals = [None] * group.order
        vals[0] = coefficient.neutral
        reached = 1
        frontier = [0]
        while frontier:
            new = []
            for g in frontier:
                row, fg = rows[g], vals[g]
                for s, fs in gen_values:
                    t = row[s]
                    v = op(fg, act(g, fs))
                    if vals[t] is None:
                        vals[t] = v
                        new.append(t)
                    elif vals[t] != v:
                        raise NotCocycle("generator values are inconsistent")
            reached += len(new)
            frontier = new
        if reached != group.order:
            raise NotCocycle("generators do not generate the group")
        # every Cayley edge satisfies f(gs) = f(g) (g . f(s)); the action is by
        # automorphisms, so induction on word length gives the law for all pairs
        return cls(group, coefficient, tuple(vals), validate=False)


def trivial_cocycle(group: FiniteGroup, coefficient) -> CrossedHom:
    return CrossedHom(
        group, coefficient, (coefficient.neutral,) * group.order, validate=False
    )


def twist_values(coefficient, values, elements):
    """Yield, for each a in `elements`, the value table t -> a^-1 * f(t) * (t . a)
    of the cocycle f whose value table is `values`."""
    op, act = coefficient.op, coefficient.act
    ts = range(len(values))
    for a in elements:
        ai = coefficient.inv(a)
        yield tuple(op(op(ai, values[t]), act(t, a)) for t in ts)


def twist_cocycle(f: CrossedHom, a) -> CrossedHom:
    """The cocycle f twisted by a (see twist_values)."""
    c = f.coefficient
    vals = next(twist_values(c, f.values, [c.canon(a)]))
    return CrossedHom(f.group, c, vals, validate=False)


# ---------------------------------------------------------------------------
# H^0


@dataclass(frozen=True)
class FixedSubmodule:
    basis: tuple  # columns span the fixed sublattice / lattice lift
    rank: int
    invariants: tuple = ()  # finite part, for finite modules


def _minus_identity(matrix) -> tuple:
    return tuple(row[:i] + (row[i] - 1,) + row[i + 1 :] for i, row in enumerate(matrix))


def h0(gamma: FiniteGroup, coeff):
    """Fixed points: sublattice, finite-subgroup data, or element tuple."""
    if isinstance(coeff, GammaGroup):
        return coeff.fixed_points()
    gens = generating_set(gamma)
    if isinstance(coeff, ZGLattice):
        if coeff.rank == 0:
            return FixedSubmodule((), 0)
        K = la.kernel_basis(la.stack(_minus_identity(coeff.rho[s]) for s in gens))
        return FixedSubmodule(K, la.width(K))
    if isinstance(coeff, FiniteModule):
        n = coeff.ngens
        rel = coeff.relation_matrix()
        C = la.stack(_minus_identity(coeff.mats[s]) for s in gens)
        slack = la.FgAbelian(coeff.relations * len(gens)).relation_matrix()
        K = la.kernel_basis(la.beside([C, slack]))
        L = la.column_space_basis(la.beside([K[:n], rel]))
        X = la.solve_int(L, rel)
        inv = la.cokernel_invariants(X, ambient_rank=la.width(L))
        return FixedSubmodule(L, la.width(L), invariants=inv)
    raise TypeError("unsupported coefficient type")


# ---------------------------------------------------------------------------
# abelian H^1


@dataclass(frozen=True)
class CohomologyGroup:
    invariants: tuple  # elementary divisors, 1s dropped, 0 marks a free factor
    generators: tuple  # CrossedHom representatives, one per invariant

    def order(self):
        if any(d == 0 for d in self.invariants):
            return None
        n = 1
        for d in self.invariants:
            n *= d
        return n

    @property
    def is_trivial(self) -> bool:
        return not self.invariants


def _relator_rows(gamma: FiniteGroup, mats, r: int, gens, relators) -> list:
    """Constraint rows on the cocycle values at the generators, r per relator.

    The cocycle law f(u v) = f(u) + rho(u) f(v) gives, letter by letter,
    f(w) = sum of +rho(prefix) f(s) over the letters s of w and
    -rho(prefix s^-1) f(s) over the letters s^-1, prefix the part of w before
    the letter; f(w) = 0 is r rows of Python ints over the len(gens) * r
    unknowns f(s).
    """
    width = len(gens) * r
    grows, inverses = gamma.rows, gamma.inverses
    nonzeros = {}  # g -> rho(g) as sparse rows [(column, value), ...]
    constraints = []
    for w in relators:
        block = [[0] * width for _ in range(r)]
        x = 0
        for letter in w:
            s = gens[letter >> 1]
            if letter & 1:
                x = grows[x][inverses[s]]
                h, sign = x, -1
            else:
                h, sign = x, 1
                x = grows[x][s]
            nz = nonzeros.get(h)
            if nz is None:
                nz = nonzeros[h] = [
                    [(c, v) for c, v in enumerate(row) if v] for row in mats[h]
                ]
            off = (letter >> 1) * r
            for row, rho_row in zip(block, nz):
                for c, v in rho_row:
                    row[off + c] += sign * v
        if x != 0:
            raise ValueError("a relator does not evaluate to the identity")
        constraints.extend(block)
    return constraints


def h1_abelian(gamma: FiniteGroup, coeff) -> CohomologyGroup:
    """Z^1/B^1 over the integers, exact; finite for lattice coefficients."""
    if isinstance(coeff, ZGLattice):
        r = coeff.rank
        mats = coeff.rho
        relations = None
    elif isinstance(coeff, FiniteModule):
        r = coeff.ngens
        mats = coeff.mats
        relations = coeff.relations
    else:
        raise TypeError("abelian H^1 needs a lattice or finite module")
    if r == 0:
        return CohomologyGroup((), ())
    gens, relators = presentation(gamma)
    k = len(gens)
    width = k * r
    C = _relator_rows(gamma, mats, r, gens, relators)

    if relations is None:
        # W Z = I: the coboundaries' coordinates below need no second SNF
        Z, W = la.saturated_kernel(C)
    else:
        # row j holds modulo relations[j % r]: one slack unknown per row
        for j, row in enumerate(C):
            slack = [0] * len(C)
            slack[j] = relations[j % r]
            row.extend(slack)
        K = la.kernel_basis(C)
        lam = la.FgAbelian(relations * k).relation_matrix()
        Z = la.column_space_basis(la.beside([K[:width], lam]))

    # coboundaries: values (rho(s) - 1) m on the generators
    D = la.stack(_minus_identity(mats[s]) for s in gens)
    if relations is not None:
        D = la.beside([D, lam])
    z = la.width(Z)
    if z == 0:
        return CohomologyGroup((), ())
    Y = la.coordinates(Z, W, D) if relations is None else la.solve_int(Z, D)
    if Y is None:
        # every coboundary is a cocycle when the matrices form an action
        raise NotAction("coboundaries must lie in the cocycle lattice")
    s = la.smith_normal_form(Y, transforms=("left_inv",))
    left_inv = s.left_inv.tolist()
    invs = []
    gens_out = []
    for i in range(z):
        d = s.diagonal[i] if i < len(s.diagonal) else 0
        if d == 1:
            continue
        invs.append(int(d))
        column = [row[i] for row in left_inv]
        gen_coords = [sum(map(mul, row, column)) for row in Z]
        gen_vals = [tuple(gen_coords[j * r : (j + 1) * r]) for j in range(k)]
        gens_out.append(
            CrossedHom.from_generators(gamma, coeff, dict(zip(gens, gen_vals)))
        )
    order = [(d if d else 0) for d in invs]
    # deterministic: nonzero divisors ascending, then free factors
    paired = sorted(zip(order, gens_out), key=lambda t: (t[0] == 0, t[0]))
    return CohomologyGroup(
        tuple(d for d, _ in paired), tuple(g for _, g in paired)
    )


def shapiro_check(g: FiniteGroup, h) -> bool:
    """H^1(G, Z[G/H]) must vanish: the lattice shadow of Hilbert 90."""
    m = permutation_lattice(coset_gset(g, h))
    return h1_abelian(g, m).is_trivial


# ---------------------------------------------------------------------------
# nonabelian H^1


@dataclass(frozen=True)
class NonabelianH1:
    classes: tuple  # CrossedHom representatives, lex-least value tables
    sizes: tuple  # orbit sizes under twisted conjugation

    @property
    def count(self) -> int:
        return len(self.classes)

    @property
    def cocycle_count(self) -> int:
        return sum(self.sizes)


def enumerate_cocycles(gamma: FiniteGroup, n: GammaGroup,
                       budget: int = DEFAULT_BUDGET) -> tuple:
    """All crossed homomorphisms gamma -> n, as value tuples."""
    gens = generating_set(gamma)
    total = n.underlying.order ** len(gens)
    if total > budget:
        raise BudgetExceeded(f"{total} candidate maps exceed budget {budget}")
    und = n.underlying
    out = []
    for assignment in product(und.elements(), repeat=len(gens)):
        try:
            f = CrossedHom.from_generators(
                gamma, n, {s: v for s, v in zip(gens, assignment)}
            )
        except NotCocycle:
            continue
        out.append(f.values)
    return tuple(sorted(out))


def h1_nonabelian(gamma: FiniteGroup, n: GammaGroup,
                  budget: int = DEFAULT_BUDGET) -> NonabelianH1:
    cocycles = enumerate_cocycles(gamma, n, budget)
    cocycle_set = set(cocycles)
    und = n.underlying
    seen = set()
    classes = []
    sizes = []
    for vals in cocycles:
        if vals in seen:
            continue
        orbit = set(twist_values(n, vals, und.elements()))
        if not orbit <= cocycle_set:
            # twisting maps cocycles to cocycles when n is a Gamma-group
            raise NotAction("twisted conjugation leaves the cocycles: "
                            "the action is not by automorphisms")
        seen |= orbit
        rep = min(orbit)
        classes.append(CrossedHom(gamma, n, rep, validate=False))
        sizes.append(len(orbit))
    order = sorted(range(len(classes)), key=lambda i: classes[i].values)
    return NonabelianH1(
        tuple(classes[i] for i in order), tuple(sizes[i] for i in order)
    )


# ---------------------------------------------------------------------------
# twisting


@dataclass(frozen=True)
class AutValuedCocycle:
    """Cocycle valued in Aut(N): autos[t] is a permutation of N's elements."""

    base: GammaGroup
    autos: tuple

    def __post_init__(self):
        autos = tuple(tuple(int(x) for x in a) for a in self.autos)
        object.__setattr__(self, "autos", autos)
        g, n = self.base.gamma, self.base.underlying
        if len(autos) != g.order:
            raise NotCocycle("one automorphism per group element required")
        for a in autos:
            if sorted(a) != list(range(n.order)):
                raise NotCocycle("value is not a bijection")
            for x in n.elements():
                for y in n.elements():
                    if a[n.mul(x, y)] != n.mul(a[x], a[y]):
                        raise NotCocycle("value is not an automorphism")
        if autos[0] != tuple(range(n.order)):
            raise NotCocycle("value at identity must be the identity")
        # cocycle law in Aut(N): f(st) = f(s) o (s . f(t)),
        # with (s . alpha)(x) = s . alpha(s^-1 . x)
        for s in g.elements():
            for t in g.elements():
                lhs = autos[g.mul(s, t)]
                rhs = tuple(
                    autos[s][self.base.act(s, autos[t][self.base.act(g.inv(s), x)])]
                    for x in n.elements()
                )
                if lhs != rhs:
                    raise NotCocycle("automorphism cocycle law fails")


def twist_group(n: GammaGroup, f) -> GammaGroup:
    """Twist the action: inner by a cocycle into n, or by Aut-valued f."""
    g, und = n.gamma, n.underlying
    if isinstance(f, CrossedHom):
        if f.coefficient is not n and f.coefficient != n:
            raise NotCocycle("cocycle must take values in the twisted group")
        rows = und.rows
        action = []
        for t, nrow in enumerate(n.action):
            ft = rows[f(t)]
            fti = und.inverses[f(t)]
            action.append([rows[ft[y]][fti] for y in nrow])
        return GammaGroup(g, und, action)
    if isinstance(f, AutValuedCocycle):
        if f.base is not n and f.base != n:
            raise NotCocycle("cocycle base mismatch")
        action = [[f.autos[t][y] for y in nrow] for t, nrow in enumerate(n.action)]
        return GammaGroup(g, und, action)
    raise TypeError("unsupported twisting datum")


def twist_lattice(m: ZGLattice, f: CrossedHom, value_matrices) -> ZGLattice:
    """New action rho'(t) = nu(f(t)) . rho(t) for an auxiliary action nu of
    the cocycle's value group on the lattice.

    Compatibility nu(t . x) rho(t) == rho(t) nu(x) is checked on generators.
    """
    if not isinstance(f.coefficient, GammaGroup):
        raise NotCocycle("twisting needs a group-valued cocycle")
    n = f.coefficient
    nu = [la.int_rows(v) for v in value_matrices]
    if len(nu) != n.underlying.order:
        raise NotAction("one matrix per value-group element required")
    gamma = m.group
    if n.gamma != gamma:
        raise NotAction("cocycle and lattice have different acting groups")
    for v in nu:
        if len(v) != m.rank or la.width(v) != m.rank:
            raise NotAction("value matrices must match the lattice rank")
    for s in generating_set(gamma):
        for x in n.underlying.elements():
            lhs = la.matmul(nu[n.act(s, x)], m.rho[s])
            rhs = la.matmul(m.rho[s], nu[x])
            if lhs != rhs:
                raise NotAction("auxiliary action incompatible with the twist")
    rho = [la.matmul(nu[f(t)], m.rho[t]) for t in gamma.elements()]
    try:
        return ZGLattice(gamma, rho, validate=True)
    except ValueError as e:
        raise NotAction(str(e)) from e


# ---------------------------------------------------------------------------
# truncated systems of Gamma-groups and the obstruction sequence


@dataclass(frozen=True)
class TruncatedGammaSystem:
    """Levels of Gamma-groups with equivariant transitions level n+1 -> n."""

    levels: tuple
    transitions: tuple

    def __post_init__(self):
        lv, tr = self.levels, self.transitions
        if len(tr) != len(lv) - 1:
            raise ValueError("need one transition per adjacent pair")
        gamma = lv[0].gamma
        for g in lv:
            if g.gamma != gamma:
                raise ValueError("levels over different acting groups")
        for i, u in enumerate(tr):
            if u.source != lv[i + 1].underlying or u.target != lv[i].underlying:
                raise ValueError("transition %d connects the wrong groups" % i)
            for t in gamma.elements():
                for x in lv[i + 1].underlying.elements():
                    if u(lv[i + 1].act(t, x)) != lv[i].act(t, u(x)):
                        raise ValueError("transition %d is not equivariant" % i)

    @property
    def gamma(self) -> FiniteGroup:
        return self.levels[0].gamma

    def __len__(self):
        return len(self.levels)


def compatible_family(system: TruncatedGammaSystem, top: CrossedHom) -> tuple:
    """Push a top-level cocycle down through the transitions."""
    fams = [top]
    for i in range(len(system) - 2, -1, -1):
        u = system.transitions[i]
        upper = fams[0]
        fams.insert(
            0,
            CrossedHom(
                system.gamma,
                system.levels[i],
                tuple(u(v) for v in upper.values),
                validate=False,
            ),
        )
    return tuple(fams)


def check_family(system: TruncatedGammaSystem, family) -> None:
    if len(family) != len(system):
        raise ValueError("family length mismatch")
    for i, f in enumerate(family):
        if f.coefficient != system.levels[i]:
            raise ValueError("level %d cocycle has wrong coefficient" % i)
    for i, u in enumerate(system.transitions):
        upper, lower = family[i + 1], family[i]
        if tuple(u(v) for v in upper.values) != lower.values:
            raise ValueError("family is not compatible at level %d" % i)


def level_witnesses(f: CrossedHom, fprime: CrossedHom) -> tuple:
    """All a that twist f into fprime (see twist_values)."""
    elements = f.coefficient.underlying.elements()
    twisted = twist_values(f.coefficient, f.values, elements)
    return tuple(a for a, tw in zip(elements, twisted) if tw == fprime.values)


@dataclass(frozen=True)
class ObstructionReport:
    witnesses: tuple  # chosen a_n per level
    obstruction: tuple  # e_n = a_n * u(a_{n+1})^-1, one per transition
    memberships_verified: bool  # each e_n lies in the twisted fixed group
    trivial: bool
    trivialization: tuple  # c_n with e_n = c_n * u(c_{n+1})^-1 when trivial

    @property
    def equivalent_on_truncation(self) -> bool:
        return self.trivial


def lim1_obstruction(
    system: TruncatedGammaSystem,
    family,
    family_prime,
    witnesses=None,
) -> ObstructionReport:
    """Obstruction sequence for two levelwise-equivalent cocycle families.

    e_n = a_n * u(a_{n+1})^-1 lands in the f-twisted fixed group at each
    level; the verdict says whether (e_n) is the trivial class of the
    truncated lim^1 orbit set, i.e. whether the witnesses can be corrected
    to a single coherent equivalence on the truncation.
    """
    check_family(system, family)
    check_family(system, family_prime)
    N = len(system) - 1
    if witnesses is None:
        chosen = []
        for i in range(len(system)):
            opts = level_witnesses(family[i], family_prime[i])
            if not opts:
                raise NotLevelEquivalent("no witness at level %d" % i)
            chosen.append(opts[0])
        witnesses = tuple(chosen)
    else:
        witnesses = tuple(witnesses)
        for i, a in enumerate(witnesses):
            if a not in level_witnesses(family[i], family_prime[i]):
                raise NotLevelEquivalent("supplied witness fails at level %d" % i)

    twisted = [twist_group(system.levels[i], family[i]) for i in range(len(system))]
    fixed = [set(t.fixed_points()) for t in twisted]

    obstruction = []
    member_ok = True
    for i in range(N):
        u = system.transitions[i]
        und = system.levels[i].underlying
        e = und.mul(witnesses[i], und.inv(u(witnesses[i + 1])))
        obstruction.append(e)
        member_ok = member_ok and (e in fixed[i])
    obstruction = tuple(obstruction)

    # solve e_n = c_n * u(c_{n+1})^-1 inside the fixed groups, top down
    cs = [None] * len(system)
    cs[-1] = 0
    ok = True
    for i in range(N - 1, -1, -1):
        und = system.levels[i].underlying
        u = system.transitions[i]
        c = und.mul(obstruction[i], u(cs[i + 1]))
        if c not in fixed[i]:
            ok = False
            break
        cs[i] = c
    if ok:
        # replay: the trivialization reproduces the obstruction
        for i in range(N):
            und = system.levels[i].underlying
            u = system.transitions[i]
            ok = ok and obstruction[i] == und.mul(cs[i], und.inv(u(cs[i + 1])))
    trivial = ok and member_ok
    trivialization = tuple(cs) if ok else ()
    return ObstructionReport(
        witnesses, obstruction, member_ok, trivial, trivialization
    )
