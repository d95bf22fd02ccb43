"""Finite left G-sets: orbits, stabilizers, coset actions, equivariant isos.

The acting group is always a finite quotient of the relevant Galois group;
points are indices 0..size-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .groups import (FiniteGroup, NotSubgroup, check_action, generating_set, is_subgroup,
                     left_cosets)
from .linalg import int_rows


class InvalidAction(ValueError):
    pass


class GSet:
    """Left action: action[g][x] is the image of point x under g.

    The action is stored as a tuple of int tuples, one row per element.
    With validate=False the caller vouches that the rows are an action in
    that form, by a theorem its docstring names; they are taken as given and
    consumers do not check them again.  Otherwise check_action checks the law.
    """

    def __init__(self, group: FiniteGroup, action, validate: bool = True):
        self.group = group
        try:
            a = int_rows(action) if validate else action
        except ValueError as e:
            raise InvalidAction("need one permutation per group element") from e
        if len(a) != group.order:
            raise InvalidAction("need one permutation per group element")
        self.size = len(a[0])
        self.action = a
        if validate:
            check_action(group, a, InvalidAction)

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


def coset_gset(g: FiniteGroup, h) -> GSet:
    """Left action on left cosets xH, cosets ordered by minimal element.
    Left multiplication permutes the left cosets of a subgroup, so only H
    is checked (is_subgroup)."""
    hset = set(h)
    if not is_subgroup(g, hset):
        raise NotSubgroup("not a subgroup")
    firsts, coset_of = left_cosets(g, hset)
    action = tuple([tuple([coset_of[row[x]] for x in firsts]) for row in g.rows])
    return GSet(g, action, validate=False)


def conjugation_twist(g: FiniteGroup) -> GSet:
    """g acting on its own elements by conjugation.

    This is the translation action twisted by the tautological cocycle; its
    orbits are the conjugacy classes.  Conjugation is an action of g on
    itself by automorphisms.
    """
    action = tuple(tuple(g.conj(t, x) for x in g.elements()) for t in g.elements())
    return GSet(g, action, validate=False)


def sub_gset(x: GSet, points) -> GSet:
    """Restriction of the action to an invariant subset of points."""
    pts = tuple(sorted(set(points)))
    pos = {p: i for i, p in enumerate(pts)}
    try:
        action = tuple(tuple(pos[row[p]] for p in pts) for row in x.action)
    except KeyError as e:
        raise InvalidAction("subset is not invariant") from e
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
        mapping[x.apply(s, p)] != y.apply(s, mapping[p])
        for s in generating_set(g)
        for p in x.points()
    ):
        raise InvalidAction("the matched map is not an equivariant bijection")
    return mapping
