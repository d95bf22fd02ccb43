"""Finite groups by multiplication table, homomorphisms, actions, Gamma-groups
and structural maps.

Elements are indices 0..order-1 with the identity at 0.  Every law is checked
on a generating set: a homomorphism, action or cocycle law f(s h) = ... for s
in generating_set only, and associativity as the law of the left-regular
action.  The s that satisfy such a law are closed under products, so by
induction on word length it then holds for every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

from .linalg import int_rows


class InvalidGroup(ValueError):
    pass


class InvalidHom(ValueError):
    pass


class NotAction(ValueError):
    pass


class NotNormal(ValueError):
    pass


class NotSubgroup(ValueError):
    pass


class NotSurjective(ValueError):
    pass


class FiniteGroup:
    """Group given by an order x order table of element indices.

    The table is stored once, as `rows`: a tuple of int tuples with
    `rows[a][b]` the index of a*b, and `inverses[a]` the index of a^-1.
    With validate=False the caller vouches for the table, taken as given.
    """

    def __init__(self, table, validate: bool = True):
        try:
            rows = int_rows(table) if validate else table
        except (TypeError, ValueError) as e:
            raise InvalidGroup("table must be a square array of integers") from e
        self.order = n = len(rows)
        if any(len(r) != n for r in rows):
            raise InvalidGroup("table must be square")
        self.rows = rows
        # set by generating_set, which validation calls first
        self._generating_set = None
        if validate:
            self._validate()
        self.inverses = self._compute_inverses()

    def _validate(self):
        if self.order == 0:
            raise InvalidGroup("empty group")
        if any(r[0] != a for a, r in enumerate(self.rows)):
            raise InvalidGroup("element 0 is not a right identity")
        # associative exactly when the rows are the left-regular action,
        # (s*h)*y == s*(h*y); _compute_inverses then asks for right inverses
        check_action(self, self.rows, InvalidGroup)

    def _compute_inverses(self) -> tuple:
        inv = []
        for a, r in enumerate(self.rows):
            if r.count(0) != 1:
                raise InvalidGroup("element %d has no unique inverse" % a)
            inv.append(r.index(0))
        return tuple(inv)

    @property
    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return self.rows[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conj(self, g: int, x: int) -> int:
        return self.mul(self.mul(g, x), self.inv(g))

    def elements(self) -> range:
        return range(self.order)

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(a), -k)
        r = 0
        for _ in range(k):
            r = self.mul(r, a)
        return r

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k

    def is_abelian(self) -> bool:
        return self.rows == tuple(zip(*self.rows))

    def exponent(self) -> int:
        e = 1
        for a in self.elements():
            e = math.lcm(e, self.element_order(a))
        return e

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism source -> target as the image of each element.
    Validation reads the map as a tuple of ints and checks that its values
    are elements, that it keeps the identity and that it is multiplicative
    at each s of the generating set.  With validate=False the map is taken
    as given, as CrossedHom takes its values: the caller passes a tuple of
    ints, and only its length is checked."""

    source: FiniteGroup
    target: FiniteGroup
    map: tuple
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.validate:
            object.__setattr__(self, "map", tuple(int(x) for x in self.map))
        if len(self.map) != self.source.order:
            raise InvalidHom("map length mismatch")
        if self.validate:
            if any(not 0 <= x < self.target.order for x in self.map):
                raise InvalidHom("map values must be elements of the target")
            if self.map[0] != 0:
                raise InvalidHom("identity not preserved")
            trows, srows, f = self.target.rows, self.source.rows, self.map
            for s in generating_set(self.source):
                frow = trows[f[s]]
                for b, sb in enumerate(srows[s]):
                    if f[sb] != frow[f[b]]:
                        raise InvalidHom("not multiplicative at (%d,%d)" % (s, b))

    def __call__(self, a: int) -> int:
        return self.map[a]

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.target.order

    def is_injective(self) -> bool:
        return len(set(self.map)) == self.source.order

    def kernel(self) -> tuple:
        return tuple(a for a in self.source.elements() if self.map[a] == 0)


def identity_hom(g: FiniteGroup) -> GroupHom:
    return GroupHom(g, g, tuple(g.elements()), validate=False)


# ---------------------------------------------------------------------------
# construction


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidGroup("order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table)


def trivial_group() -> FiniteGroup:
    return cyclic_group(1)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Index of (a, b) is a + g.order * b, so (0, 0) = 0.  The row of (a, b)
    is read off the rows of a and b, (a, b)(c, d) = (ac, bd); a product of
    groups is a group, so the table is built unchecked."""
    n = g.order
    return FiniteGroup(tuple(tuple([x + s for s in [n * y for y in hb] for x in ga])
                             for hb in h.rows for ga in g.rows), validate=False)


def product_embeddings(g: FiniteGroup, h: FiniteGroup, p: FiniteGroup):
    """Embeddings and projections for p = direct_product(g, h)."""
    n, m = g.order, h.order
    e1 = GroupHom(g, p, tuple(a for a in range(n)), validate=False)
    e2 = GroupHom(h, p, tuple(n * b for b in range(m)), validate=False)
    p1 = GroupHom(p, g, tuple(x % n for x in range(n * m)), validate=False)
    p2 = GroupHom(p, h, tuple(x // n for x in range(n * m)), validate=False)
    return e1, e2, p1, p2


def group_from_permutations(perms) -> FiniteGroup:
    """Closure of a set of permutations (tuples) under composition."""
    deg = len(perms[0])
    ident = tuple(range(deg))
    elems = [ident]
    seen = {ident}
    frontier = [ident]
    gens = [tuple(p) for p in perms]
    while frontier:
        new = []
        for p in frontier:
            for q in gens:
                r = tuple(p[q[i]] for i in range(deg))
                if r not in seen:
                    seen.add(r)
                    elems.append(r)
                    new.append(r)
        frontier = new
    index = {p: i for i, p in enumerate(elems)}
    n = len(elems)
    table = [[0] * n for _ in range(n)]
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            table[i][j] = index[tuple(p[q[k]] for k in range(deg))]
    return FiniteGroup(table)


def symmetric_group(n: int) -> FiniteGroup:
    if n <= 1:
        return trivial_group()
    swap = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    return group_from_permutations([swap, cycle])


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the n-gon, order 2n."""
    if n == 1:
        return cyclic_group(2)
    if n == 2:
        return direct_product(cyclic_group(2), cyclic_group(2))
    rot = tuple(list(range(1, n)) + [0])
    ref = tuple((n - i) % n for i in range(n))
    return group_from_permutations([rot, ref])


def quaternion_group(n: int = 8) -> FiniteGroup:
    """Generalized quaternion group of order n (n = 4m, m >= 2)."""
    if n % 4 != 0 or n < 8:
        raise InvalidGroup("quaternion group order must be 4m, m >= 2")
    m = n // 2
    # elements a^i b^j, 0<=i<m, j in {0,1}; b a b^-1 = a^-1, b^2 = a^(m/2)
    def idx(i, j):
        return i + m * j

    table = [[0] * n for _ in range(n)]
    half = m // 2
    for i, j in product(range(m), range(2)):
        for k, l in product(range(m), range(2)):
            # (a^i b^j)(a^k b^l) with b a^k = a^-k b and b^2 = a^half
            if j == 0:
                ii, jj = (i + k) % m, l
            elif l == 0:
                ii, jj = (i - k) % m, 1
            else:
                ii, jj = (i - k + half) % m, 0
            table[idx(i, j)][idx(k, l)] = idx(ii, jj)
    return FiniteGroup(table)


def alternating_group_4() -> FiniteGroup:
    return group_from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)])


def special_linear_2_3() -> FiniteGroup:
    """SL(2, F_3), order 24."""
    mats = []
    for a, b, c, d in product(range(3), repeat=4):
        if (a * d - b * c) % 3 == 1:
            mats.append((a, b, c, d))
    ident = (1, 0, 0, 1)
    mats.remove(ident)
    mats.insert(0, ident)
    index = {mm: i for i, mm in enumerate(mats)}
    n = len(mats)
    table = [[0] * n for _ in range(n)]
    for i, (a, b, c, d) in enumerate(mats):
        for j, (e, f_, g_, h) in enumerate(mats):
            mm = (
                (a * e + b * g_) % 3,
                (a * f_ + b * h) % 3,
                (c * e + d * g_) % 3,
                (c * f_ + d * h) % 3,
            )
            table[i][j] = index[mm]
    return FiniteGroup(table)


# ---------------------------------------------------------------------------
# actions, Gamma-groups and semidirect products


def check_action(group: FiniteGroup, action, error=NotAction) -> None:
    """Raise `error` unless the int-tuple rows `action`, with action[g][x] the
    image of point x under g, are a left action of `group` on the points
    0..len(action[0])-1: entries in range, the identity acting trivially, and
    action[s*h] == action[s] o action[h] for s in generating_set(group) and
    every h (see the module docstring)."""
    m = len(action[0])
    if m and (min(map(min, action)) < 0 or max(map(max, action)) >= m):
        raise error("point indices out of range")
    if action[0] != tuple(range(m)):
        raise error("identity must act trivially")
    for s in generating_set(group):
        after = action[s].__getitem__
        for h, sh in enumerate(group.rows[s]):
            if tuple(map(after, action[h])) != action[sh]:
                raise error("not an action at element %d" % s)


class GammaGroup:
    """A finite group `underlying` with `gamma` acting by automorphisms.

    `action[t][x]` is the image of x under t, a tuple of int tuples taken as
    given with validate=False.  Validation checks the action law with
    check_action and that each generator of gamma acts by an automorphism;
    every other element then acts by a product of automorphisms.
    """

    def __init__(self, gamma: FiniteGroup, underlying: FiniteGroup, action,
                 validate: bool = True):
        self.gamma = gamma
        self.underlying = underlying
        try:
            a = int_rows(action) if validate else action
        except (TypeError, ValueError) as e:
            raise NotAction("action table must be an array of integers") from e
        if len(a) != gamma.order or any(len(r) != underlying.order for r in a):
            raise NotAction("action table shape mismatch")
        self.action = a
        if validate:
            self.check_automorphisms()

    def check_automorphisms(self):
        """NotAction unless gamma acts on `underlying` by automorphisms."""
        n, a = self.underlying, self.action
        check_action(self.gamma, a)
        for s in generating_set(self.gamma):
            if len(set(a[s])) != n.order:
                raise NotAction("element %d does not act bijectively" % s)
            try:
                GroupHom(n, n, a[s])
            except InvalidHom as e:
                raise NotAction("element %d not an automorphism" % s) from e

    def act(self, t: int, x: int) -> int:
        return self.action[t][x]

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


@dataclass(frozen=True)
class SemidirectProduct:
    group: FiniteGroup
    embed_n: GroupHom
    embed_q: GroupHom
    project_q: GroupHom


def semidirect_product(d: GammaGroup) -> SemidirectProduct:
    """N x| Q for Q = d.gamma acting on N = d.underlying by theta = d.action:
    (n1, q1)(n2, q2) = (n1 * theta(q1)(n2), q1 q2); index = n + |N| * q.

    The row of (a, y) is read off the row of a, theta(y) and the row of y.
    For an action by automorphisms, which d vouches for, N x| Q is a group,
    so the table is built unchecked."""
    N, Q, th = d.underlying, d.gamma, d.action
    nn, nq = N.order, Q.order
    size = nn * nq
    rows = []
    for y, qy in enumerate(Q.rows):
        shifted = [nn * z for z in qy]
        for na in N.rows:
            left = [na[b] for b in th[y]]
            rows.append(tuple(x + s for s in shifted for x in left))
    g = FiniteGroup(tuple(rows), validate=False)
    embed_n = GroupHom(N, g, tuple(range(nn)), validate=False)
    embed_q = GroupHom(Q, g, tuple(nn * y for y in range(nq)), validate=False)
    project_q = GroupHom(g, Q, tuple(x // nn for x in range(size)), validate=False)
    return SemidirectProduct(g, embed_n, embed_q, project_q)


def heisenberg_group(l: int) -> tuple[SemidirectProduct, dict]:
    """Extraspecial group of order l^3 and exponent l (l an odd prime).

    Returned as the semidirect product (C_l x C_l) x| C_l with
    theta(c^i): a -> a b^i, b -> b.  The dict carries the generator indices.
    """
    if l < 3 or l % 2 == 0:
        raise InvalidGroup("l must be an odd prime")
    N = direct_product(cyclic_group(l), cyclic_group(l))  # (x, y) = a^x b^y
    Q = cyclic_group(l)
    theta = []
    for i in range(l):
        perm = [0] * (l * l)
        for x, y in product(range(l), range(l)):
            perm[x + l * y] = x + l * ((y + i * x) % l)
        theta.append(tuple(perm))
    sp = semidirect_product(GammaGroup(Q, N, theta))
    a = sp.embed_n(1)  # (1, 0)
    b = sp.embed_n(l)  # (0, 1)
    c = sp.embed_q(1)
    return sp, {"a": a, "b": b, "c": c}


# ---------------------------------------------------------------------------
# structure


def conjugacy_classes(g: FiniteGroup) -> tuple:
    """Classes as sorted tuples, ordered by minimal element."""
    seen = [False] * g.order
    classes = []
    for x in g.elements():
        if seen[x]:
            continue
        cls = {g.conj(t, x) for t in g.elements()}
        for y in cls:
            seen[y] = True
        classes.append(tuple(sorted(cls)))
    classes.sort(key=lambda c: c[0])
    return tuple(classes)


def centralizer(g: FiniteGroup, x: int) -> tuple:
    cz = tuple(y for y in g.elements() if g.mul(y, x) == g.mul(x, y))
    if not is_subgroup(g, cz):
        raise InvalidGroup("the centralizer is not a subgroup")
    return cz


def center(g: FiniteGroup) -> tuple:
    cols = tuple(zip(*g.rows))
    return tuple(y for y, row in enumerate(g.rows) if row == cols[y])


def is_subgroup(g: FiniteGroup, elems) -> bool:
    """Whether elems are the indices of a subgroup of g; an element that is
    not an int, or is a bool, is no index."""
    s = set(elems)
    if (0 not in s or not all(type(x) is int for x in s)
            or not s.issubset(g.elements())):
        return False
    rows = g.rows
    return all(rows[a][b] in s for a in s for b in s)


def is_normal(g: FiniteGroup, elems) -> bool:
    s = set(elems)
    return is_subgroup(g, elems) and all(
        g.conj(t, a) in s for t in g.elements() for a in s
    )


def generated_subgroup(g: FiniteGroup, gens) -> tuple:
    return tuple(sorted(_closure(g, gens)))


def _closure(g: FiniteGroup, gens, start=(0,)) -> set:
    """The subgroup generated by the subgroup H = start and gens.  It is a
    union of left cosets yH, so each new y brings yH and only products by
    gens are walked."""
    rows = g.rows
    elems = set(start)
    frontier = list(start)
    gens = list(gens)
    while frontier:
        new = []
        for x in frontier:
            rx = rows[x]
            for s in gens:
                y = rx[s]
                if y not in elems:
                    coset = list(map(rows[y].__getitem__, start))
                    elems.update(coset)
                    new += coset
        frontier = new
    return elems


def generating_set(g: FiniteGroup) -> tuple:
    """Greedy small generating set, deterministic; computed once per group.

    The search closes subgroups with _closure, not generated_subgroup: the
    calls a caller makes to the functions perfbench traces must not depend
    on what a group has memoized, since a traced run compares the call
    counts of two runs of the same case.
    """
    if g._generating_set is None:
        g._generating_set = subgroup_generating_set(g, g.elements())
    return g._generating_set


def subgroup_generating_set(g: FiniteGroup, elems) -> tuple:
    """Greedy small generating set of the subgroup `elems` of g, in its order."""
    gens = []
    current = {0}
    for x in elems:
        if x not in current:
            gens.append(x)
            current = _closure(g, (x,), current)
            if len(current) == len(elems):
                break
    # drop redundant generators (keeps the set small for cohomology work)
    changed = True
    while changed:
        changed = False
        for i in range(len(gens)):
            trial = gens[:i] + gens[i + 1 :]
            if trial and len(_closure(g, trial)) == len(elems):
                gens = trial
                changed = True
                break
    if not gens:
        gens = [0]
    return tuple(gens)


def all_subgroups(g: FiniteGroup) -> tuple:
    """Every subgroup, found by extending each subgroup H by one x of each
    right coset Hx other than H, since <H, hx> = <H, x>."""
    rows = g.rows
    trivial = (0,)
    found = {trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for h in frontier:
            seen = set(h)
            for x in g.elements():
                if x in seen:
                    continue
                seen.update(rows[a][x] for a in h)
                k = tuple(sorted(_closure(g, (x,), h)))
                if k not in found:
                    found.add(k)
                    new.append(k)
        frontier = new
    return tuple(sorted(found, key=lambda h: (len(h), h)))


def left_cosets(g: FiniteGroup, elems) -> tuple[list, list]:
    """The least element of each left coset xH of the subgroup H = elems, in
    increasing order, and the index of the coset of each element.  The table
    is walked in order, so the first x not yet placed is the least element
    of its coset, which is read off row x of the table as [x a for a in H]."""
    h = set(elems)
    coset_of = [-1] * g.order
    firsts = []
    for x, row in enumerate(g.rows):
        if coset_of[x] < 0:
            ci = len(firsts)
            for a in h:
                coset_of[row[a]] = ci
            firsts.append(x)
    return firsts, coset_of


def quotient(g: FiniteGroup, n) -> tuple[FiniteGroup, GroupHom]:
    """Coset group and projection; cosets ordered by minimal element.

    Only normality is checked: the cosets of a normal subgroup form a group
    under xN yN = xyN, so the table is built unchecked from one
    representative of each coset."""
    nset = set(n)
    if not is_normal(g, nset):
        raise NotNormal("subgroup is not normal")
    firsts, coset_of = left_cosets(g, nset)
    # identity coset contains 0 and is found first, so identity index is 0
    rows = tuple(tuple(coset_of[r[b]] for b in firsts) for r in (g.rows[a] for a in firsts))
    q = FiniteGroup(rows, validate=False)
    proj = GroupHom(g, q, tuple(coset_of), validate=False)
    return q, proj


def class_fiber(q: GroupHom, cls) -> tuple:
    """Conjugacy classes of the source inside the preimage of a target class."""
    if not q.is_surjective():
        raise NotSurjective("class fiber needs a surjective homomorphism")
    cset = set(cls)
    tgt_classes = conjugacy_classes(q.target)
    if tuple(sorted(cset)) not in tgt_classes:
        raise ValueError("input is not a conjugacy class of the target")
    fiber = {x for x in q.source.elements() if q(x) in cset}
    out = [c for c in conjugacy_classes(q.source) if set(c) <= fiber]
    if set().union(*out) != fiber:
        raise InvalidHom("the preimage of a class is not a union of classes")
    return tuple(out)
