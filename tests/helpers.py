"""Fixtures and oracles that only the tests use: small G-sets, a group's JSON
form, lattice equality, a determinant independent of the SNF, powers mod a
polynomial by whole divisions, and the materialized truncation of an
inverse-system recipe."""

from torsorlab import groups as gr
from torsorlab import gsets as gs
from torsorlab import invsys as iv
from torsorlab import linalg as la
from torsorlab import numtheory as nt


def trivial_gset(g: gr.FiniteGroup, size: int) -> gs.GSet:
    return gs.GSet(g, (tuple(range(size)),) * g.order, validate=False)


def regular_gset(g: gr.FiniteGroup) -> gs.GSet:
    return gs.GSet(g, g.rows)


def disjoint_union(x: gs.GSet, y: gs.GSet) -> gs.GSet:
    if x.group != y.group:
        raise gs.InvalidAction("actions of different groups")
    action = [
        rx + tuple(p + x.size for p in ry) for rx, ry in zip(x.action, y.action)
    ]
    return gs.GSet(x.group, action, validate=False)


def group_to_json(g: gr.FiniteGroup) -> dict:
    return {"order": g.order, "table": [list(r) for r in g.rows]}


def lattice_eq(b1, b2) -> bool:
    return la.lattice_contains(b1, b2) and la.lattice_contains(b2, b1)


def bareiss_det(matrix):
    """Fraction-free determinant; independent of the SNF path."""
    A = [list(r) for r in la.int_rows(matrix)]
    n = len(A)
    if n == 0:
        return 1
    if any(len(r) != n for r in A):
        raise ValueError("the determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def ppow_mod_reference(base, e, mod, p):
    """base^e mod (mod, p) by square and multiply, each product reduced by a
    whole pmul and pdivmod; independent of ppow_mod's in-place reduction."""
    result = (1,)
    base = nt.pdivmod(base, mod, p)[1]
    while e > 0:
        if e & 1:
            result = nt.pdivmod(nt.pmul(result, base, p), mod, p)[1]
        base = nt.pdivmod(nt.pmul(base, base, p), mod, p)[1]
        e >>= 1
    return result


class NotMaterializable(ValueError):
    pass


def truncate(recipe, n: int):
    """Materialized levels 0..n: an ExplicitFinite, or per-level abelian data."""
    if isinstance(recipe, iv.ExplicitFinite):
        if n >= len(recipe.groups):
            raise NotMaterializable("truncation beyond the given data")
        return iv.ExplicitFinite(recipe.groups[: n + 1], recipe.maps[:n])
    if isinstance(recipe, iv.ConstantEndo):
        return tuple((recipe.relations, recipe.endo) for _ in range(n + 1))
    if isinstance(recipe, iv.SubgroupChain):
        return tuple(recipe.level(k) for k in range(n + 1))
    if isinstance(recipe, iv.Product):
        return tuple(truncate(f, n) for f in recipe.factors)
    if isinstance(recipe, iv.NormTower):
        raise NotMaterializable(
            "unit groups of number fields are infinite; use the valuation "
            "certificates instead"
        )
    raise TypeError("unknown recipe kind")


def twist_classes_reference(coefficient, tables, by) -> tuple:
    """cohomology.twist_classes by whole orbits: the class of each least
    unseen table f is {f.a : a in by}, each twist computed through the
    underlying group's mul/inv and the action; NotAction if an orbit leaves
    `tables`."""
    n, act = coefficient.underlying, coefficient.act
    tables = sorted(tables)
    members = set(tables)
    seen = set()
    out = []
    for vals in tables:
        if vals in seen:
            continue
        orbit = {tuple(n.mul(n.mul(n.inv(a), v), act(t, a)) for t, v in enumerate(vals))
                 for a in by}
        if not orbit <= members:
            raise gr.NotAction("twisted conjugation leaves the given tables")
        seen |= orbit
        out.append((vals, len(orbit)))
    return tuple(out)
