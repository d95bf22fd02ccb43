"""H^1 of a finite group, twisting, and the lim^1 obstruction recipe.

A cocycle (CrossedHom) takes values in a finite group with action
(GammaGroup) and is read off its tables.  It is determined by its values on
a generating set: values there extend to a cocycle exactly when they close
the Cayley graph, f(g s) = f(g) (g . f(s)) on every edge, for an action by
automorphisms (Serre, Galois Cohomology, I 5.1).  Abelian H^1 of a lattice
(ZGLattice) is the torsion of the cokernel of the coboundary map on the
generators, read off its elementary divisors, and only its invariants are
kept.  Nonabelian
cocycles, homomorphisms and lifts come from one backtracking search that
closes the Cayley graph one generator at a time (_cayley_search), and their
classes under twisted conjugation from one partition (twist_classes).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

from . import linalg as la
# GammaGroup and NotAction live in groups; they are re-exported from here
from .groups import (FiniteGroup, GammaGroup, GroupHom, NotAction, direct_product,
                     generating_set, subgroup_generating_set)
from .lattices import ZGLattice


class NotCocycle(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    pass


DEFAULT_BUDGET = 10**6


# ---------------------------------------------------------------------------
# coefficient objects


def trivial_gamma_group(gamma: FiniteGroup, underlying: FiniteGroup) -> GammaGroup:
    action = (tuple(underlying.elements()),) * gamma.order
    return GammaGroup(gamma, underlying, action, validate=False)


def gamma_group_product(factors) -> tuple[GammaGroup, tuple]:
    """Product Gamma-group plus (index, projection) maps per factor.

    The element (x_1, ..., x_k) has index x_1 + |N_1| (x_2 + |N_2| (...)),
    as nested direct_product gives it, and t acts on it componentwise; its
    row is read off the factors' rows by the same index arithmetic.  A
    componentwise action by automorphisms is an action by automorphisms, so
    the product is built unchecked; the factors vouch for their own."""
    factors = list(factors)
    gamma = factors[0].gamma
    if any(f.gamma != gamma for f in factors):
        raise NotAction("factors over different groups")
    und, action = factors[0].underlying, factors[0].action
    for f in factors[1:]:
        n = und.order
        und = direct_product(und, f.underlying)
        action = tuple(tuple([x + s for s in [n * y for y in fa] for x in a])
                       for a, fa in zip(action, f.action))
    prod = GammaGroup(gamma, und, action, validate=False)
    maps, stride = [], 1
    for i, f in enumerate(factors):
        size = f.underlying.order
        maps.append((i, tuple(x // stride % size for x in und.elements())))
        stride *= size
    return prod, tuple(maps)


@dataclass(frozen=True)
class CrossedHom:
    """1-cocycle of `group` in the Gamma-group `coefficient`: one element of
    the underlying group per group element, f(st) = f(s) * (s . f(t)).
    Validation reads the values as a tuple of ints and checks that they are
    elements, f(1) = 1 and the law for s in the generating set.  With
    validate=False the values are taken as given, as GSet, FiniteGroup and
    GammaGroup take their tables: the caller passes a tuple of ints, and
    only its length is checked."""

    group: FiniteGroup
    coefficient: GammaGroup
    values: tuple
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        vals = tuple(map(int, self.values)) if self.validate else self.values
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
        """The cocycle with the given values at the given generators, closed
        over the Cayley graph (see _cayley_search); NotCocycle if two edges
        disagree, the generators do not generate, or a generator or value
        lies outside its group."""
        gens, vals = tuple(map(int, gen_values)), tuple(map(int, gen_values.values()))
        n = coefficient.underlying.order
        for s, v in zip(gens, vals):
            if not (0 <= s < group.order and 0 <= v < n):
                raise NotCocycle("generator %d or its value %d is out of range" % (s, v))
        found = _cayley_search(group, coefficient, gens, [(v,) for v in vals])
        if not found:
            raise NotCocycle("generator values are inconsistent")
        return cls(group, coefficient, found[0], validate=False)


def trivial_cocycle(group: FiniteGroup, coefficient: GammaGroup) -> CrossedHom:
    return CrossedHom(group, coefficient, (0,) * group.order, validate=False)


def _twist_steps(coefficient: GammaGroup, elements) -> list:
    """Per a in `elements`, the step (left, right) that twists by a: left is
    the row of a^-1 in the group table and right[t] = t . a, column a of the
    action table, so the table f twisted by a is
    t -> rows[left[f(t)]][right[t]] = a^-1 * f(t) * (t . a)."""
    n = coefficient.underlying
    rows, inverses = n.rows, n.inverses
    columns = list(zip(*coefficient.action))
    return [(rows[inverses[a]], columns[a]) for a in elements]


def twist_values(coefficient: GammaGroup, values, elements):
    """Yield, for each a in `elements`, the value table t -> a^-1 * f(t) * (t . a)
    of the cocycle f whose value table is `values`, by the steps of
    _twist_steps."""
    rows = coefficient.underlying.rows
    for left, right in _twist_steps(coefficient, elements):
        yield tuple([rows[left[v]][r] for v, r in zip(values, right)])


def twist_cocycle(f: CrossedHom, a) -> CrossedHom:
    """The cocycle f twisted by a (see twist_values)."""
    c = f.coefficient
    return CrossedHom(f.group, c, next(twist_values(c, f.values, [int(a)])), validate=False)


# ---------------------------------------------------------------------------
# abelian H^1


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
    the integers, from the elementary divisors of the coboundary map.  M is
    trusted to be an action, as its constructor vouches (ZGLattice);
    NotAction only if gamma is not the group of M.

    A cocycle is determined by its values at the generators s, so Z^1 and
    B^1 sit in M^S, and B^1 is the image of d: m -> ((rho(s) - 1) m)_s, the
    stacked rho(s) - I.  Z^1 is a kernel, hence saturated; |gamma| kills
    H^1, so Z^1 has the rank of B^1.  Hence Z^1 = sat(B^1) and H^1 is the
    torsion of coker d (Brown, Cohomology of Groups, GTM 87, ch. III): its
    elementary divisors d > 1.  The stacked rho(s) - I of a permutation
    lattice is a signed incidence matrix, which eliminates on unit pivots
    alone, so it needs no SNF.  The rank of the invariants M^gamma, the
    kernel of d, is the width less their number.

    The rows of d are built here as fresh int lists, row i of rho(s) less
    e_i, and zero rows are left out.  On a lattice given by points no
    matrix is read: row i of rho(s) is e_(s^-1.i), so row i of d is
    e_(s^-1.i) - e_i, one row for each point i that s^-1 moves.  Over a
    cycle of s^-1 these rows sum to zero, so any one of them is minus the
    sum of the others: dropping it is a unimodular change of rows followed
    by removing a zero row, which leaves every elementary divisor as it
    is.  The k - 1 rows that stay of a cycle of length k span the lattice
    of the rows e_j - e_i, with i the cycle's first point and j each other
    point, and these are the rows built.  The cycles of s^-1 are those of
    s, so they are walked off the points of s.  The rows go to
    la._divisors, which eliminates in place and does not read them again:
    rho and points hold int-tuple rows of equal length, read by
    la.int_rows at construction or vouched for by a theorem (ZGLattice)."""
    if gamma is not lattice.group and gamma != lattice.group:
        raise NotAction("the lattice is a module over another group")
    n = lattice.rank
    rows = []
    points = lattice.points
    if points is not None:
        for s in generating_set(gamma):
            p = list(points[s])
            # a walked point is made fixed in p, so each cycle is walked
            # once, from its first point i
            for i, j in enumerate(p):
                while j != i:
                    r = [0] * n
                    r[i], r[j] = -1, 1
                    rows.append(r)
                    p[j], j = j, p[j]
    else:
        for s in generating_set(gamma):
            for i, row in enumerate(lattice.rho[s]):
                r = list(row)
                r[i] -= 1
                if any(r):
                    rows.append(r)
    return CohomologyGroup(tuple(d for d in la._divisors(rows) if d > 1))


# ---------------------------------------------------------------------------
# nonabelian H^1


@dataclass(frozen=True)
class NonabelianH1:
    classes: tuple  # CrossedHom representatives, lex-least value tables
    partition: dict = field(compare=False)  # twist_classes of the cocycle tables

    @property
    def count(self) -> int:
        return len(self.classes)

    @property
    def sizes(self) -> tuple:
        """Orbit sizes under twisted conjugation, in the order of classes."""
        return tuple(Counter(self.partition.values()).values())

    @property
    def cocycle_count(self) -> int:
        return len(self.partition)


def _cayley_plan(gamma: FiniteGroup, gens) -> list:
    """Per generator gens[i], the Cayley edges (g, j, g gens[j], defines)
    that giving it a value closes: those of <gens[:i+1]> that <gens[:i]>
    lacks.  Level i walks H gens[i] for the H already reached, then each
    newly reached element by gens[:i+1], breadth first.  The first edge into
    an element defines its value and every later edge checks it, so each
    step reads only values written before it.  NotCocycle if the gens do not
    generate gamma.

    An element first reached at level L gets its edges by gens[:L+1] at
    level L and its edge by gens[i] at each later level i, so every Cayley
    edge is walked once."""
    rows = gamma.rows
    seen = [False] * gamma.order
    seen[0] = True
    reached = [0]
    plan = []
    for i in range(len(gens)):
        steps = []
        todo = [(g, (i,)) for g in reached]
        for g, js in todo:  # grows while it is read
            for j in js:
                t = rows[g][gens[j]]
                steps.append((g, j, t, not seen[t]))
                if not seen[t]:
                    seen[t] = True
                    reached.append(t)
                    todo.append((t, range(i + 1)))
        plan.append(steps)
    if len(reached) != gamma.order:
        raise NotCocycle("generators do not generate the group")
    return plan


def _cayley_search(gamma: FiniteGroup, coeff: GammaGroup, gens, candidates) -> list:
    """The value table of every crossed homomorphism gamma -> coeff with a
    value from candidates[i] at gens[i], in itertools.product order of the
    generator values.  A backtrack over the generators closes the Cayley
    edges f(g s) = f(g) (g . f(s)) of each level of _cayley_plan once its
    generator has a value, and a disagreeing edge prunes the branch.

    A table that passes the last level satisfies every Cayley edge; for an
    action by automorphisms induction on word length then gives the cocycle
    law for all pairs (Serre, Galois Cohomology, I 5.1).  For any other
    action it need not, so the callers check the action.  A branch needs no
    undo: each level rewrites the values it defines before it reads them."""
    nrows, action = coeff.underlying.rows, coeff.action
    levels = [[(g, action[g], j, t, defines) for g, j, t, defines in steps]
              for steps in _cayley_plan(gamma, gens)]
    vals = [0] * gamma.order
    at = [0] * len(gens)
    out = []

    def extend(i):
        if i == len(gens):
            out.append(tuple(vals))
            return
        steps = levels[i]
        for v in candidates[i]:
            at[i] = v
            for g, ag, j, t, defines in steps:
                w = nrows[vals[g]][ag[at[j]]]
                if defines:
                    vals[t] = w
                elif vals[t] != w:
                    break
            else:
                extend(i + 1)

    extend(0)
    return out


def _check_budget(total: int, budget: int) -> None:
    """BudgetExceeded when a search would try more than `budget` choices of
    values at the generators."""
    if total > budget:
        raise BudgetExceeded(f"{total} candidate maps exceed budget {budget}")


def enumerate_cocycles(gamma: FiniteGroup, n: GammaGroup,
                       budget: int = DEFAULT_BUDGET) -> tuple:
    """All crossed homomorphisms gamma -> n, as sorted value tuples;
    NotAction unless gamma acts on n by automorphisms."""
    gens = generating_set(gamma)
    _check_budget(n.underlying.order ** len(gens), budget)
    n.check_automorphisms()
    every = [n.underlying.elements()] * len(gens)
    return tuple(sorted(_cayley_search(gamma, n, gens, every)))


def all_homs(src: FiniteGroup, tgt: FiniteGroup) -> tuple:
    """Every homomorphism src -> tgt, ordered by the images it gives the
    generating set of src: the cocycles src -> tgt for the trivial action."""
    gens = generating_set(src)
    every = [tgt.elements()] * len(gens)
    found = _cayley_search(src, trivial_gamma_group(src, tgt), gens, every)
    return tuple(GroupHom(src, tgt, vals, validate=False) for vals in found)


def twist_classes(coefficient: GammaGroup, tables, by) -> dict:
    """The partition of `tables` into classes under twisting by the subgroup
    `by` of the coefficient (see twist_values): a dict from each table to
    the least table of its class, its keys inserted class by class in the
    order of the least tables; NotAction if a class leaves `tables` or the
    action is not by automorphisms.

    For an action by automorphisms, (t . a)(t . b) = t . ab makes twisting a
    right action, f.a.b = f.ab, so the class of f is its closure under the
    generators of `by`: a walk twists each member once per generator.  The
    walk would miss members of the orbit {f.a : a in by} for any other
    action, so that is checked first.  In sorted order, the first unlabelled
    table is its class's least: a smaller member would have labelled it.
    The steps of the generators (_twist_steps) are built once, and each
    member is twisted by all of them in one comprehension.

    A generator a that is central in the underlying group N and fixed by
    Gamma twists nothing: (f.a)(t) = a^-1 f(t) (t . a) = a^-1 f(t) a = f(t)
    for every table f, cocycle or not.  Such letters commute out of any
    word in the generators, so the orbit of f under `by` is its orbit under
    the other generators, and the walk drops a's step when t . a = a for
    every t and y a = a y for every y.  When every generator drops, each
    table is a class of its own."""
    coefficient.check_automorphisms()
    n = coefficient.underlying
    gens = generating_set(n) if len(by) == n.order else subgroup_generating_set(n, by)
    rows = n.rows
    # a central, Gamma-fixed a twists every table to itself: its step is dropped
    steps = _twist_steps(coefficient, [
        a for a in gens if {t[a] for t in coefficient.action} != {a}
        or [r[a] for r in rows] != list(rows[a])])
    tables = sorted(tables)
    label = {}
    for least in tables:
        if least in label:
            continue
        label[least] = least
        walk = [least]
        while walk:
            f = walk.pop()
            for vals in [tuple([rows[left[v]][r] for v, r in zip(f, right)])
                         for left, right in steps]:
                if vals not in label:
                    label[vals] = least
                    walk.append(vals)
    # each given table is labelled, so more labels mean a walk left them
    if len(label) != len(set(tables)):
        raise NotAction("twisted conjugation leaves the given tables")
    return label


def _twist_class_search(gamma: FiniteGroup, n: GammaGroup, gens, candidates, by,
                        budget: int) -> NonabelianH1:
    """The classes under twisting by the subgroup `by` of n of the crossed
    homomorphisms gamma -> n with a value from candidates[i] at gens[i],
    each represented by its least table.  BudgetExceeded comes first; then
    NotAction from the one automorphism check, which twist_classes makes
    before it reads the searched tables (the search itself needs no action
    to be by automorphisms)."""
    _check_budget(math.prod(map(len, candidates)), budget)
    label = twist_classes(n, _cayley_search(gamma, n, gens, candidates), by)
    return NonabelianH1(
        tuple(CrossedHom(gamma, n, rep, validate=False) for rep in dict.fromkeys(label.values())),
        label,
    )


def h1_nonabelian(gamma: FiniteGroup, n: GammaGroup,
                  budget: int = DEFAULT_BUDGET) -> NonabelianH1:
    """The twist classes of the crossed homomorphisms gamma -> n: every
    element of n at each generator, twisted by all of n."""
    gens = generating_set(gamma)
    every = n.underlying.elements()
    return _twist_class_search(gamma, n, gens, [every] * len(gens), every, budget)


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


def twist_lattice(m: ZGLattice, f: CrossedHom, nu: ZGLattice) -> ZGLattice:
    """New action rho'(t) = nu(f(t)) . rho(t), for an auxiliary action nu,
    a lattice over the cocycle's value group, of the same rank as m.

    Compatibility nu(t . x) rho(t) == rho(t) nu(x) is checked on
    generators, and the action law of rho' by check_rho (ZGLattice
    validation).  Where m and nu both carry points, p and q, no matrix is
    built: compatibility is the permutation identity q_(t.x) o p_t ==
    p_t o q_x, and rho'(t) is the permutation lattice of the points
    q_(f(t)) o p_t, whose law check_rho reads on the points.  Otherwise each
    product is la.matmul's.
    """
    n = f.coefficient
    gamma = m.group
    if nu.group is not n.underlying and nu.group != n.underlying:
        raise NotAction("the auxiliary action is not over the value group")
    if n.gamma != gamma:
        raise NotAction("cocycle and lattice have different acting groups")
    if nu.rank != m.rank:
        raise NotAction("the auxiliary action must match the lattice rank")
    gens, values = generating_set(gamma), n.underlying.elements()
    rho = points = None
    if m.points is not None and nu.points is not None:
        p, q = m.points, nu.points
        for s in gens:
            ps = p[s].__getitem__
            for x in values:
                if tuple(map(q[n.act(s, x)].__getitem__, p[s])) != tuple(map(ps, q[x])):
                    raise NotAction("auxiliary action incompatible with the twist")
        points = [tuple(map(q[f(t)].__getitem__, p[t])) for t in gamma.elements()]
    else:
        mats, mu = m.rho, nu.rho
        for s in gens:
            for x in values:
                if la.matmul(mu[n.act(s, x)], mats[s]) != la.matmul(mats[s], mu[x]):
                    raise NotAction("auxiliary action incompatible with the twist")
        rho = [la.matmul(mu[f(t)], mats[t]) for t in gamma.elements()]
    try:
        return ZGLattice(gamma, rho, points=points)
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
        vals = tuple(map(system.transitions[i], fams[0].values))
        fams.insert(0, CrossedHom(system.gamma, system.levels[i], vals, validate=False))
    return tuple(fams)


def check_family(system: TruncatedGammaSystem, family) -> None:
    if len(family) != len(system):
        raise ValueError("family length mismatch")
    for i, f in enumerate(family):
        if f.coefficient != system.levels[i]:
            raise ValueError("level %d cocycle has wrong coefficient" % i)
    for i, u in enumerate(system.transitions):
        if tuple(map(u, family[i + 1].values)) != family[i].values:
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


def lim1_obstructions(system: TruncatedGammaSystem, family, family_prime) -> list:
    """Obstruction sequences of two cocycle families, one ObstructionReport
    per choice of level witnesses a_n twisting family into family_prime, in
    itertools.product order; [] when some level has no witness.

    e_n = a_n * u(a_{n+1})^-1 lands in the f-twisted fixed group at each
    level; each verdict says whether (e_n) is the trivial class of the
    truncated lim^1 orbit set, i.e. whether the witnesses can be corrected
    to a single coherent equivalence on the truncation.  The families, the
    fixed groups and the witness lists are read once for all choices.
    """
    check_family(system, family)
    check_family(system, family_prime)
    fixed = [set(twist_group(n, f).fixed_points()) for n, f in zip(system.levels, family)]
    witness_lists = [level_witnesses(f, fp) for f, fp in zip(family, family_prime)]
    return [_obstruction(system, fixed, w) for w in itertools.product(*witness_lists)]


def _obstruction(system: TruncatedGammaSystem, fixed, witnesses) -> ObstructionReport:
    """One witness choice's obstruction, and its trivialization solved top
    down inside the fixed groups.  The solve sets c_n = e_n * u(c_{n+1}), so
    e_n = c_n * u(c_{n+1})^-1 holds by the group law; with c_N = 1 and u
    carrying the f_{n+1}-twisted fixed group into the f_n-twisted one, c_n
    is fixed exactly when e_n is, so the solve succeeds exactly when every
    membership holds."""
    lv, tr = system.levels, system.transitions
    obstruction = tuple(lv[i].underlying.mul(a, lv[i].underlying.inv(u(witnesses[i + 1])))
                        for i, (a, u) in enumerate(zip(witnesses, tr)))
    member_ok = all(e in fixed[i] for i, e in enumerate(obstruction))
    # solve e_n = c_n * u(c_{n+1})^-1 inside the fixed groups, top down
    cs = [None] * len(system)
    cs[-1] = 0
    ok = True
    for i in range(len(tr) - 1, -1, -1):
        c = lv[i].underlying.mul(obstruction[i], tr[i](cs[i + 1]))
        if c not in fixed[i]:
            ok = False
            break
        cs[i] = c
    return ObstructionReport(witnesses, obstruction, member_ok, ok, tuple(cs) if ok else ())
