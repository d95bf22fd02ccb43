"""H^1 of a finite group, twisting, and the lim^1 obstruction recipe.

A cocycle (CrossedHom) takes values in a finite group with action
(GammaGroup) and is read off its tables.  It is determined by its values on
the generators of a presentation (groups.presentation), and any values there
extend to a cocycle exactly when every relator evaluates to 1 in N x| Gamma
(Serre, Galois Cohomology, I 5.1).  Abelian H^1 of a lattice (ZGLattice)
needs no relators: it is the torsion of the cokernel of the coboundary map
on the generators, read off one SNF, and only its invariants are kept.
Nonabelian cocycles, homomorphisms and lifts come from one backtracking
search over those values, and their classes under twisted conjugation from
one partition (twist_classes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import linalg as la
# GammaGroup and NotAction live in groups; they are re-exported from here
from .groups import (FiniteGroup, GammaGroup, GroupHom, NotAction, direct_product,
                     generating_set, presentation, subgroup_generating_set)
from .lattices import ZGLattice, check_rho


class NotCocycle(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    pass


class NotLevelEquivalent(ValueError):
    pass


DEFAULT_BUDGET = 10**6


# ---------------------------------------------------------------------------
# coefficient objects


def trivial_gamma_group(gamma: FiniteGroup, underlying: FiniteGroup) -> GammaGroup:
    action = (tuple(underlying.elements()),) * gamma.order
    return GammaGroup(gamma, underlying, action, validate=False)


def gamma_group_product(factors) -> tuple[GammaGroup, tuple]:
    """Product Gamma-group plus (embedding, projection) index maps per factor."""
    factors = list(factors)
    gamma = factors[0].gamma
    if any(f.gamma != gamma for f in factors):
        raise NotAction("factors over different groups")
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


@dataclass(frozen=True)
class CrossedHom:
    """1-cocycle of `group` in the Gamma-group `coefficient`: one element of
    the underlying group per group element, f(st) = f(s) * (s . f(t)).
    Validation checks that the values are elements, f(1) = 1 and the law for
    s in the generating set."""

    group: FiniteGroup
    coefficient: GammaGroup
    values: tuple
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        vals = tuple(map(int, self.values))
        object.__setattr__(self, "values", vals)
        if len(vals) != self.group.order:
            raise NotCocycle("one value per group element required")
        if self.validate:
            nrows, action = self.coefficient.underlying.rows, self.coefficient.action
            if min(vals) < 0 or max(vals) >= len(nrows):
                raise NotCocycle("values must be elements of the coefficient group")
            if vals[0] != 0:
                raise NotCocycle("value at the identity must be neutral")
            rows = self.group.rows
            for s in generating_set(self.group):
                fs, st, act = nrows[vals[s]], rows[s], action[s]
                for t, ft in enumerate(vals):
                    if fs[act[ft]] != vals[st[t]]:
                        raise NotCocycle("cocycle law fails at (%d,%d)" % (s, t))

    def __call__(self, t: int):
        return self.values[t]

    @classmethod
    def from_generators(cls, group, coefficient, gen_values: dict) -> "CrossedHom":
        """Close generator values over a spanning tree; reject inconsistency,
        and generators or values outside their groups."""
        gen_values = [(int(s), int(v)) for s, v in gen_values.items()]
        n = coefficient.underlying.order
        for s, v in gen_values:
            if not (0 <= s < group.order and 0 <= v < n):
                raise NotCocycle("generator %d or its value %d is out of range" % (s, v))
        return cls(group, coefficient, _closed_values(group, coefficient, gen_values),
                   validate=False)


def _closed_values(group: FiniteGroup, coefficient: GammaGroup, gen_values) -> tuple:
    """The value table of the cocycle with f(s) = v for each (s, v) in
    gen_values, closed over the Cayley graph; NotCocycle if two edges
    disagree or the s do not generate the group.

    Every Cayley edge then satisfies f(gs) = f(g) (g . f(s)); the action is
    by automorphisms, so induction on word length gives the cocycle law for
    all pairs."""
    nrows, action = coefficient.underlying.rows, coefficient.action
    rows = group.rows
    vals = [None] * group.order
    vals[0] = 0
    reached = 1
    frontier = [0]
    while frontier:
        new = []
        for g in frontier:
            row, fg, ag = rows[g], nrows[vals[g]], action[g]
            for s, fs in gen_values:
                t = row[s]
                v = fg[ag[fs]]
                if vals[t] is None:
                    vals[t] = v
                    new.append(t)
                elif vals[t] != v:
                    raise NotCocycle("generator values are inconsistent")
        reached += len(new)
        frontier = new
    if reached != group.order:
        raise NotCocycle("generators do not generate the group")
    return tuple(vals)


def trivial_cocycle(group: FiniteGroup, coefficient: GammaGroup) -> CrossedHom:
    return CrossedHom(group, coefficient, (0,) * group.order, validate=False)


def twist_values(coefficient: GammaGroup, values, elements):
    """Yield, for each a in `elements`, the value table t -> a^-1 * f(t) * (t . a)
    of the cocycle f whose value table is `values`."""
    rows, action = coefficient.underlying.rows, coefficient.action
    for a in elements:
        left = rows[coefficient.underlying.inverses[a]]
        yield tuple(rows[left[v]][ta[a]] for v, ta in zip(values, action))


def twist_cocycle(f: CrossedHom, a) -> CrossedHom:
    """The cocycle f twisted by a (see twist_values)."""
    c = f.coefficient
    return CrossedHom(f.group, c, next(twist_values(c, f.values, [int(a)])), validate=False)


# ---------------------------------------------------------------------------
# abelian H^1


def _minus_identity(matrix) -> tuple:
    return tuple(row[:i] + (row[i] - 1,) + row[i + 1 :] for i, row in enumerate(matrix))


@dataclass(frozen=True)
class CohomologyGroup:
    invariants: tuple  # elementary divisors > 1, ascending

    def order(self) -> int:
        return math.prod(self.invariants)

    @property
    def is_trivial(self) -> bool:
        return not self.invariants


def h1_abelian(gamma: FiniteGroup, lattice: ZGLattice) -> CohomologyGroup:
    """The invariants of H^1(gamma, M) = Z^1/B^1 of a lattice M, exact over
    the integers, from one SNF of the coboundary map; NotAction if the
    matrices are no action.

    A cocycle is determined by its values at the generators s, so Z^1 and
    B^1 sit in M^S, and B^1 is the image of d: m -> ((rho(s) - 1) m)_s, the
    stacked rho(s) - I.  Z^1 is a kernel, hence saturated; |gamma| kills
    H^1, so Z^1 has the rank of B^1.  Hence Z^1 = sat(B^1) and H^1 is the
    torsion of coker d (Brown, Cohomology of Groups, GTM 87, ch. III): its
    elementary divisors d > 1.  The zeros on the diagonal count the rank of
    the invariants M^gamma, the kernel of d."""
    if lattice.rank == 0:
        return CohomologyGroup(())
    mats = lattice.rho
    gens = generating_set(gamma)
    check_rho(gamma, mats, gens, NotAction)
    s = la.smith_normal_form(la.stack(_minus_identity(mats[g]) for g in gens), transforms=())
    return CohomologyGroup(tuple(d for d in s.diagonal if d > 1))


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


def _letters(gamma: FiniteGroup, gens, w) -> list:
    """(i, h, inverted) per letter gens[i]^(+-1) of the relator w: by the
    cocycle law f(w) is the product of the (h . f(gens[i]))^(+-1), h the
    prefix of w before the letter, times gens[i]^-1 if the letter is one."""
    grows, inverses = gamma.rows, gamma.inverses
    out, x = [], 0
    for letter in w:
        i = letter >> 1
        if letter & 1:
            x = grows[x][inverses[gens[i]]]
            out.append((i, x, True))
        else:
            out.append((i, x, False))
            x = grows[x][gens[i]]
    if x != 0:
        raise ValueError("a relator does not evaluate to the identity")
    return out


def _relator_search(gamma: FiniteGroup, coeff, gens, relators, candidates) -> list:
    """The value table of every crossed homomorphism gamma -> coeff with a
    value from candidates[i] at gens[i], in itertools.product order of the
    generator values.  A backtrack over the generators checks each relator
    once its highest generator has a value."""
    rows, inverses, action = coeff.underlying.rows, coeff.underlying.inverses, coeff.action
    due = [[] for _ in gens]  # relators by their highest generator
    for w in relators:
        letters = _letters(gamma, gens, w)
        due[max(i for i, _, _ in letters)].append(letters)
    vals = [None] * len(gens)
    out = []

    def neutral_at(letters) -> bool:
        acc = 0
        for i, h, inverted in letters:
            v = action[h][vals[i]]
            acc = rows[acc][inverses[v] if inverted else v]
        return acc == 0

    def extend(i):
        if i == len(gens):
            try:
                out.append(_closed_values(gamma, coeff, tuple(zip(gens, vals))))
            except NotCocycle as e:  # impossible for an action by automorphisms
                raise NotAction("values that satisfy every relator do not extend: "
                                "the action is not by automorphisms") from e
            return
        for v in candidates[i]:
            vals[i] = v
            if all(map(neutral_at, due[i])):
                extend(i + 1)

    extend(0)
    return out


def enumerate_cocycles(gamma: FiniteGroup, n: GammaGroup,
                       budget: int = DEFAULT_BUDGET) -> tuple:
    """All crossed homomorphisms gamma -> n, as value tuples."""
    gens, relators = presentation(gamma)
    total = n.underlying.order ** len(gens)
    if total > budget:
        raise BudgetExceeded(f"{total} candidate maps exceed budget {budget}")
    every = [n.underlying.elements()] * len(gens)
    return tuple(sorted(_relator_search(gamma, n, gens, relators, every)))


def all_homs(src: FiniteGroup, tgt: FiniteGroup) -> tuple:
    """Every homomorphism src -> tgt, ordered by the images it gives the
    generating set of src: the cocycles src -> tgt for the trivial action."""
    gens, relators = presentation(src)
    every = [tgt.elements()] * len(gens)
    found = _relator_search(src, trivial_gamma_group(src, tgt), gens, relators, every)
    return tuple(GroupHom(src, tgt, vals, validate=False) for vals in found)


def twist_classes(coefficient: GammaGroup, tables, by) -> tuple:
    """(least table, class size) per class of `tables` under twisting by the
    subgroup `by` of the coefficient (see twist_values), in the order of the
    least tables; NotAction if a class leaves `tables` or the action is not
    by automorphisms.

    For an action by automorphisms, (t . a)(t . b) = t . ab makes twisting a
    right action, f.a.b = f.ab, so the class of f is its closure under the
    generators of `by`: a walk twists each member once per generator.  The
    walk would miss members of the orbit {f.a : a in by} for any other
    action, so that is checked first.  In sorted order, the first unseen
    table is its class's least: a smaller member would have marked it seen."""
    coefficient.check_automorphisms()
    n = coefficient.underlying
    gens = generating_set(n) if len(by) == n.order else subgroup_generating_set(n, by)
    tables = sorted(tables)
    seen = set()
    out = []
    for least in tables:
        if least in seen:
            continue
        seen.add(least)
        walk, size = [least], 0
        while walk:
            size += 1
            for vals in twist_values(coefficient, walk.pop(), gens):
                if vals not in seen:
                    seen.add(vals)
                    walk.append(vals)
        out.append((least, size))
    # each given table is seen, so more seen tables means a walk left them
    if len(seen) != len(set(tables)):
        raise NotAction("twisted conjugation leaves the given tables")
    return tuple(out)


def h1_nonabelian(gamma: FiniteGroup, n: GammaGroup,
                  budget: int = DEFAULT_BUDGET) -> NonabelianH1:
    classes = twist_classes(n, enumerate_cocycles(gamma, n, budget), n.underlying.elements())
    return NonabelianH1(
        tuple(CrossedHom(gamma, n, rep, validate=False) for rep, _ in classes),
        tuple(size for _, size in classes),
    )


# ---------------------------------------------------------------------------
# twisting


def twist_group(n: GammaGroup, f: CrossedHom) -> GammaGroup:
    """Twist the action of n by the inner automorphisms of a cocycle f into n:
    t acts as x -> f(t) (t . x) f(t)^-1."""
    if f.coefficient is not n and f.coefficient != n:
        raise NotCocycle("cocycle must take values in the twisted group")
    und = n.underlying
    rows = und.rows
    action = []
    for t, nrow in enumerate(n.action):
        ft = rows[f(t)]
        fti = und.inverses[f(t)]
        action.append([rows[ft[y]][fti] for y in nrow])
    return GammaGroup(n.gamma, und, action)


def twist_lattice(m: ZGLattice, f: CrossedHom, value_matrices) -> ZGLattice:
    """New action rho'(t) = nu(f(t)) . rho(t) for an auxiliary action nu of
    the cocycle's value group on the lattice.

    Compatibility nu(t . x) rho(t) == rho(t) nu(x) is checked on generators.
    """
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
            for t in generating_set(gamma):
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
