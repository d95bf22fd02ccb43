"""JSON formats for groups, actions, lattices, cocycles, data, and recipes.

A <ref> field accepts either an inline object or a string path, resolved
relative to the file that contains the reference.
"""

from __future__ import annotations

import json
import os

from . import cohomology as co
from . import invsys as iv
from . import linalg as la
from . import numtheory as nt
from . import serre as sr
from . import torsors as to
from .groups import FiniteGroup, GroupHom
from .gsets import GSet
from .lattices import LatticeMap, ZGLattice


class ParseError(ValueError):
    pass


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _resolve(obj, basedir):
    if isinstance(obj, str):
        path = obj if os.path.isabs(obj) else os.path.join(basedir, obj)
        return _load(path), os.path.dirname(path)
    return obj, basedir


def matrix_from_json(obj) -> tuple:
    """An integer matrix as int-tuple rows: a list of equal-length rows of
    integers; a flat list of integers is one row and an integer a 1 x 1
    matrix.  JSON true and false are not integers."""
    if type(obj) is int:
        obj = [[obj]]
    elif isinstance(obj, list) and obj and not isinstance(obj[0], list):
        obj = [obj]
    if not (
        isinstance(obj, list)
        and all(isinstance(row, list) and len(row) == len(obj[0]) for row in obj)
        and all(type(v) is int for row in obj for v in row)
    ):
        raise ParseError("a matrix is a list of equal-length rows of integers")
    return tuple(map(tuple, obj))


def _field(obj, key, kind=object, default=None):
    """obj[key] of a JSON object, or `default`, if given, when the field is
    absent; ParseError when obj is no object or the field is missing or not
    of type `kind` (JSON true and false are no int)."""
    if isinstance(obj, dict) and key not in obj and default is not None:
        return default
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing field {key!r} of a JSON object")
    if kind is not object and type(obj[key]) is not kind:
        raise ParseError(f"field {key!r} must be of type {kind.__name__}")
    return obj[key]


def _int_row(value) -> tuple:
    """A list of integers (JSON true and false are not integers)."""
    if not (isinstance(value, list) and all(type(v) is int for v in value)):
        raise ParseError("expected a list of integers")
    return tuple(value)


def _int_table(value) -> tuple:
    """A list of integer rows, such as a group table or an action table; the
    constructors check the shape."""
    if not isinstance(value, list):
        raise ParseError("expected a list of lists of integers")
    return tuple(map(_int_row, value))


def group_from_json(obj, basedir="."):
    """A group by its table; an "order" field, when present, must be the
    number of elements the table has."""
    obj, basedir = _resolve(obj, basedir)
    try:
        g = FiniteGroup(_int_table(obj["table"]))
        order = _field(obj, "order", int, g.order)
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad group object: {e}") from e
    if order != g.order:
        raise ParseError(f"bad group object: order {order}, but the table has {g.order} elements")
    return g


def gset_from_json(obj, basedir="."):
    obj, basedir = _resolve(obj, basedir)
    try:
        g = group_from_json(obj["group"], basedir)
        return GSet(g, _int_table(obj["action"]))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad G-set object: {e}") from e


def lattice_from_json(obj, basedir="."):
    """Full table, or generators-only with the closure computed here."""
    obj, basedir = _resolve(obj, basedir)
    g = group_from_json(_field(obj, "group"), basedir)
    rho = _field(obj, "rho")
    if not isinstance(rho, dict):
        raise ParseError("rho maps group elements to matrices")
    rho_in = {}
    for k, v in rho.items():
        if not (k.isdigit() and int(k) < g.order):
            raise ParseError(f"rho key {k!r} is not an element of the group")
        rho_in[int(k)] = matrix_from_json(v)
    if "rank" in obj:
        rank = obj["rank"]
        if type(rank) is not int or rank < 0:
            raise ParseError("the rank is a nonnegative integer")
    elif rho_in:
        rank = len(next(iter(rho_in.values())))
    else:
        raise ParseError("lattice needs a rank or at least one matrix")
    if any(len(m) != rank or la.width(m) != rank for m in rho_in.values()):
        raise ParseError("each matrix must be rank x rank")
    if rho_in and set(rho_in) == set(g.elements()):
        return ZGLattice(g, [rho_in[t] for t in g.elements()])
    # closure from generator values
    mats = {0: la.identity(rank)}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for s, m in rho_in.items():
                y = g.mul(x, s)
                cand = la.matmul(mats[x], m)
                if y not in mats:
                    mats[y] = cand
                    new.append(y)
                elif mats[y] != cand:
                    raise ParseError("generator matrices are inconsistent")
        frontier = new
    if len(mats) != g.order:
        raise ParseError("generators do not generate the group")
    return ZGLattice(g, [mats[t] for t in g.elements()])


def exact_sequence_from_json(obj, basedir=".") -> list:
    """The maps of {"lattices": [...], "maps": [...]}, map i from lattice i
    to lattice i + 1."""
    lattices = [lattice_from_json(x, basedir) for x in _field(obj, "lattices", list)]
    maps = _field(obj, "maps")
    if not isinstance(maps, list) or len(maps) != len(lattices) - 1:
        raise ParseError("need one map between each pair of adjacent lattices")
    return [
        LatticeMap(lattices[i], lattices[i + 1], matrix_from_json(m))
        for i, m in enumerate(maps)
    ]


def lattice_map_from_json(obj, basedir=".") -> LatticeMap:
    """The map of {"source": ..., "target": ..., "matrix": ...}."""
    src = lattice_from_json(_field(obj, "source"), basedir)
    tgt = lattice_from_json(_field(obj, "target"), basedir)
    return LatticeMap(src, tgt, matrix_from_json(_field(obj, "matrix")))


def gamma_group_from_json(obj, basedir="."):
    obj, basedir = _resolve(obj, basedir)
    try:
        gamma = group_from_json(obj["gamma"], basedir)
        und = group_from_json(obj["underlying"], basedir)
        action = obj.get("action")
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad Gamma-group object: {e}") from e
    if action is None:
        return co.trivial_gamma_group(gamma, und)
    return co.GammaGroup(gamma, und, _int_table(action))


def datum_from_json(obj, basedir="."):
    obj, basedir = _resolve(obj, basedir)
    g = group_from_json(_field(obj, "group"), basedir)
    return sr.CMGaloisDatum(g, _field(obj, "iota", int))


def abelian_field_from_json(obj) -> nt.AbelianFieldDatum:
    return nt.AbelianFieldDatum(
        _field(obj, "conductor", int), _int_row(_field(obj, "subgroup"))
    )


def tower_law_from_json(obj):
    if obj is None:
        return None
    kind = _field(obj, "kind")
    if kind == "cyclotomic-power":
        return nt.CyclotomicPowerLaw(_field(obj, "l", int))
    if kind == "split-obstruction":
        # only the sizes given: SplitObstructionLaw holds the defaults
        sizes = {key: _field(obj, key, int) for key in ("levels", "prime_bound") if key in obj}
        return nt.SplitObstructionLaw(_field(obj, "l", int), _field(obj, "p0", int), **sizes)
    raise ParseError(f"unknown tower law kind: {kind}")


def norm_tower_from_json(obj, basedir="."):
    obj, basedir = _resolve(obj, basedir)
    levels = tuple(abelian_field_from_json(x) for x in _field(obj, "levels", list))
    return iv.NormTower(levels, law=tower_law_from_json(obj.get("law")))


def recipe_from_json(obj, basedir="."):
    obj, basedir = _resolve(obj, basedir)
    kind = _field(obj, "kind")
    if kind == "explicit":
        groups = [group_from_json(g, basedir) for g in _field(obj, "groups", list)]
        maps = _field(obj, "maps", list)
        if len(maps) != len(groups) - 1:
            raise ParseError("need one map between each pair of adjacent groups")
        homs = [GroupHom(b, a, _int_row(m)) for a, b, m in zip(groups, groups[1:], maps)]
        return iv.ExplicitFinite(tuple(groups), tuple(homs))
    if kind == "constant-endo":
        return iv.ConstantEndo(
            _int_row(_field(obj, "relations")),
            matrix_from_json(_field(obj, "endo")),
        )
    if kind == "subgroup-chain":
        return iv.SubgroupChain(
            _field(obj, "rank", int),
            matrix_from_json(_field(obj, "step")),
            matrix_from_json(_field(obj, "base")),
        )
    if kind == "norm-tower":
        return norm_tower_from_json(obj, basedir)
    if kind == "product":
        return iv.Product(
            tuple(recipe_from_json(f, basedir) for f in _field(obj, "factors", list))
        )
    raise ParseError(f"unknown recipe kind: {kind}")


def torsor_sequence_from_json(obj, basedir="."):
    obj, basedir = _resolve(obj, basedir)
    try:
        A = gamma_group_from_json(obj["a"], basedir)
        B = gamma_group_from_json(obj["b"], basedir)
        C = gamma_group_from_json(obj["c"], basedir)
        inc = GroupHom(A.underlying, B.underlying, _int_row(obj["include"]))
        prj = GroupHom(B.underlying, C.underlying, _int_row(obj["project"]))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad sequence object: {e}") from e
    return to.ExactGammaSequence(
        A, B, C, to.EquivariantHom(A, B, inc), to.EquivariantHom(B, C, prj)
    )


def base_class_from_json(obj, seq, basedir="."):
    obj, basedir = _resolve(obj, basedir)
    try:
        q = co.CrossedHom(seq.c.gamma, seq.c, _int_row(obj["q_values"]))
        p = co.CrossedHom(seq.b.gamma, seq.b, _int_row(obj["p_values"]))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad base object: {e}") from e
    return to.RelativeClass(seq.project, to.TorsorRep(seq.c, q), to.TorsorRep(seq.b, p))


def chain_from_json(obj, basedir="."):
    obj, basedir = _resolve(obj, basedir)
    kind = _field(obj, "kind")
    if kind == "layered-obstruction":
        # only the sizes given: layered_obstruction_tower holds the defaults
        sizes = {key: _field(obj, key, int) for key in ("levels", "prime_bound") if key in obj}
        return sr.layered_obstruction_tower(_field(obj, "l", int), _field(obj, "p0", int),
                                            **sizes)
    if kind == "constant":
        datum = datum_from_json(_field(obj, "datum"), basedir)
        return sr.constant_tower(datum, _field(obj, "length", int, 2))
    raise ParseError(f"unknown chain kind: {kind}")


def parse_poly(text: str) -> tuple:
    """Little-endian coefficients from a JSON list or a caret expression
    like 'x^2+1'."""
    text = text.strip()
    if text.startswith("["):
        return _int_row(json.loads(text))
    import re

    coeffs = {}
    for term in re.finditer(r"([+-]?[^+-]+)", text.replace(" ", "")):
        t = term.group(1)
        m = re.fullmatch(r"([+-]?\d*)\*?x(?:\^(\d+))?", t)
        if m:
            c = m.group(1)
            coef = int(c) if c not in ("", "+", "-") else (-1 if c == "-" else 1)
            exp = int(m.group(2)) if m.group(2) else 1
        else:
            m2 = re.fullmatch(r"([+-]?\d+)", t)
            if not m2:
                raise ParseError(f"cannot parse term {t!r}")
            coef, exp = int(m2.group(1)), 0
        coeffs[exp] = coeffs.get(exp, 0) + coef
    deg = max(coeffs)
    return tuple(coeffs.get(i, 0) for i in range(deg + 1))
