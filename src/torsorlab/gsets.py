"""Finite left G-sets: orbits, stabilizers, coset actions, equivariant isos.

The acting group is always a finite quotient of the relevant Galois group;
points are indices 0..size-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .groups import FiniteGroup, NotSubgroup, generating_set, is_subgroup
from .linalg import int_rows


class InvalidAction(ValueError):
    pass


class GSet:
    """Left action: action[g][x] is the image of point x under g.

    The action is stored as a tuple of int tuples, one row per element.
    """

    def __init__(self, group: FiniteGroup, action, validate: bool = True):
        self.group = group
        try:
            a = int_rows(action)
        except ValueError as e:
            raise InvalidAction("need one permutation per group element") from e
        if len(a) != group.order:
            raise InvalidAction("need one permutation per group element")
        self.size = len(a[0])
        self.action = a
        if validate:
            self._validate()

    def _validate(self):
        g, m, a = self.group, self.size, self.action
        if m and (min(map(min, a)) < 0 or max(map(max, a)) >= m):
            raise InvalidAction("point indices out of range")
        if a[0] != tuple(range(m)):
            raise InvalidAction("identity must act trivially")
        # action[s*h] == action[s] o action[h] on a generating set propagates
        # to every pair, as for ZGLattice
        rows = g.rows
        for s in generating_set(g):
            after = a[s].__getitem__
            for h, sh in enumerate(rows[s]):
                if tuple(map(after, a[h])) != a[sh]:
                    raise InvalidAction("not an action at element %d" % s)

    def apply(self, g: int, x: int) -> int:
        return self.action[g][x]

    def points(self) -> range:
        return range(self.size)

    def __eq__(self, other):
        return (
            isinstance(other, GSet)
            and self.group == other.group
            and self.action == other.action
        )

    def __repr__(self):
        return f"GSet(group order {self.group.order}, {self.size} points)"


@dataclass(frozen=True)
class EtaleDecomposition:
    """Orbit partition with the stabilizer of each orbit's minimal point."""

    gset: GSet = field(compare=False)
    orbits: tuple  # of (points tuple, stabilizer tuple)

    @property
    def orbit_sets(self) -> tuple:
        return tuple(o for o, _ in self.orbits)

    @property
    def stabilizers(self) -> tuple:
        return tuple(s for _, s in self.orbits)


def orbits(x: GSet) -> EtaleDecomposition:
    seen = [False] * x.size
    out = []
    for p in x.points():
        if seen[p]:
            continue
        orb = tuple(sorted({x.apply(g, p) for g in x.group.elements()}))
        for q in orb:
            seen[q] = True
        stab = tuple(g for g in x.group.elements() if x.apply(g, p) == p)
        if not is_subgroup(x.group, stab) or len(orb) * len(stab) != x.group.order:
            raise InvalidAction("orbit and stabilizer break orbit-stabilizer")
        out.append((orb, stab))
    out.sort(key=lambda t: t[0][0])
    return EtaleDecomposition(x, tuple(out))


def trivial_gset(g: FiniteGroup, size: int) -> GSet:
    return GSet(g, (tuple(range(size)),) * g.order, validate=False)


def regular_gset(g: FiniteGroup) -> GSet:
    return GSet(g, g.rows)


def coset_gset(g: FiniteGroup, h) -> GSet:
    """Left action on left cosets xH, cosets ordered by minimal element."""
    hset = tuple(sorted(set(h)))
    if not is_subgroup(g, hset):
        raise NotSubgroup("not a subgroup")
    coset_of = [-1] * g.order
    cosets = []
    for x in g.elements():
        if coset_of[x] >= 0:
            continue
        cs = tuple(sorted(g.mul(x, a) for a in hset))
        ci = len(cosets)
        cosets.append(cs)
        for y in cs:
            coset_of[y] = ci
    firsts = [cs[0] for cs in cosets]
    action = [[coset_of[row[x]] for x in firsts] for row in g.rows]
    return GSet(g, action)


def conjugation_twist(g: FiniteGroup) -> GSet:
    """g acting on its own elements by conjugation.

    This is the translation action twisted by the tautological cocycle; its
    orbits are the conjugacy classes.
    """
    action = [[g.conj(t, x) for x in g.elements()] for t in g.elements()]
    return GSet(g, action)


def sub_gset(x: GSet, points) -> GSet:
    """Restriction of the action to an invariant subset of points."""
    pts = tuple(sorted(set(points)))
    pos = {p: i for i, p in enumerate(pts)}
    try:
        action = [[pos[row[p]] for p in pts] for row in x.action]
    except KeyError as e:
        raise InvalidAction("subset is not invariant") from e
    return GSet(x.group, action, validate=False)


def disjoint_union(x: GSet, y: GSet) -> GSet:
    if x.group != y.group:
        raise InvalidAction("actions of different groups")
    action = [
        rx + tuple(p + x.size for p in ry) for rx, ry in zip(x.action, y.action)
    ]
    return GSet(x.group, action, validate=False)


def _subgroups_conjugate(g: FiniteGroup, a, b):
    """Return t with t a t^-1 = b, or None; exhaustive."""
    aset, bset = set(a), set(b)
    if len(aset) != len(bset):
        return None
    for t in g.elements():
        if {g.conj(t, x) for x in aset} == bset:
            return t
    return None


def _transversal(x: GSet, base: int, orbit) -> dict:
    """For each point of the orbit, one group element mapping base to it."""
    reach = {base: 0}
    frontier = [base]
    while frontier:
        new = []
        for p in frontier:
            for g in x.group.elements():
                q = x.apply(g, p)
                if q not in reach:
                    reach[q] = x.group.mul(g, reach[p])
                    new.append(q)
        frontier = new
    if set(reach) != set(orbit):
        raise InvalidAction("the orbit is not the set of points reached")
    return reach


def gset_iso(x: GSet, y: GSet):
    """An equivariant bijection x -> y as a tuple, or None.

    Orbit-by-orbit: transitive pieces are isomorphic iff their point
    stabilizers are conjugate; matching is greedy over orbits.
    """
    if x.group != y.group:
        raise InvalidAction("actions of different groups")
    if x.size != y.size:
        return None
    g = x.group
    dx, dy = orbits(x), orbits(y)
    if sorted(len(o) for o in dx.orbit_sets) != sorted(len(o) for o in dy.orbit_sets):
        return None
    used = [False] * len(dy.orbits)
    mapping = [-1] * x.size
    for ox, sx in dx.orbits:
        matched = False
        for j, (oy, sy) in enumerate(dy.orbits):
            if used[j] or len(oy) != len(ox):
                continue
            t = _subgroups_conjugate(g, sy, sx)
            if t is None:
                continue
            # stab_x(base_x) = t stab_y(base_y) t^-1 = stab_y(t . base_y)
            target = y.apply(t, oy[0])
            trans = _transversal(x, ox[0], ox)
            for p in ox:
                mapping[p] = y.apply(trans[p], target)
            used[j] = True
            matched = True
            break
        if not matched:
            return None
    mapping = tuple(mapping)
    if sorted(mapping) != list(range(y.size)) or any(
        mapping[x.apply(g_, p)] != y.apply(g_, mapping[p])
        for g_ in g.elements()
        for p in x.points()
    ):
        raise InvalidAction("the matched map is not an equivariant bijection")
    return mapping


@dataclass(frozen=True)
class DescentFactor:
    orbit: tuple
    representative: int
    stabilizer: tuple
    degree: int  # index of the stabilizer = size of the orbit


def descent_orbit_decomposition(x: GSet) -> tuple:
    """Orbit/stabilizer bookkeeping of a descent datum on a product.

    Each orbit of the index set contributes one restriction-of-scalars
    factor whose field degree is the orbit size.
    """
    dec = orbits(x)
    out = []
    for orb, stab in dec.orbits:
        out.append(
            DescentFactor(
                orbit=orb,
                representative=orb[0],
                stabilizer=stab,
                degree=x.group.order // len(stab),
            )
        )
    return tuple(out)
