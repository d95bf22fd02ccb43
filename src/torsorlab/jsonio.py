"""JSON formats for groups, actions, lattices, cocycles, data, and recipes.

Every reader takes a <ref>, an inline value or a path resolved against the
referring file (the working directory for a command's own file), and raises
ParseError on a key it does not name, a repeated key, or a document that a
constructor refuses."""

from __future__ import annotations

import functools
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


def _reader(read):
    """`read` with the one rule for a document a constructor refuses: its
    ValueError becomes a ParseError that names the object read."""
    what = read.__name__.removesuffix("_from_json").replace("_", " ")

    @functools.wraps(read)
    def reader(*args, **kwargs):
        try:
            return read(*args, **kwargs)
        except ParseError:
            raise
        except ValueError as e:
            raise ParseError(f"bad {what}: {e}") from e

    return reader


def _resolve(ref, basedir):
    """The JSON value of a <ref>, the value itself or the file at a path
    relative to basedir, and the directory its own <ref>s resolve against."""
    if not isinstance(ref, str):
        return ref, basedir
    path = os.path.join(basedir, ref)
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=_once), os.path.dirname(path)


def _once(pairs) -> dict:
    """A JSON object; json.load alone keeps the last of a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"a JSON object repeats the key {key!r}")
        obj[key] = value
    return obj


def _object(ref, basedir, fields):
    """The JSON object of a <ref> and the directory its own <ref>s resolve
    against; ParseError when it is no object or has a key not in `fields`."""
    obj, basedir = _resolve(ref, basedir)
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object")
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise ParseError(f"a JSON object with unknown keys: {', '.join(map(repr, unknown))}")
    return obj, basedir


def _kind(ref, basedir, kinds):
    """(kind, object, basedir) of a <ref> whose "kind" field picks, from the
    dict `kinds`, the fields the object may have beside it."""
    obj, basedir = _object(ref, basedir, {"kind"}.union(*kinds.values()))
    kind = _field(obj, "kind", str)
    if kind not in kinds:
        raise ParseError(f"unknown kind {kind!r}")
    _object(obj, basedir, ("kind", *kinds[kind]))
    return kind, obj, basedir


_REQUIRED = object()


def _field(obj, key, kind=object, default=_REQUIRED):
    """obj[key] of a JSON object, or `default`, if given, when the field is
    absent; ParseError when the field is missing or not of type `kind`
    (JSON true and false are no int)."""
    if key not in obj:
        if default is _REQUIRED:
            raise ParseError(f"missing field {key!r} of a JSON object")
        return default
    if kind is not object and type(obj[key]) is not kind:
        raise ParseError(f"field {key!r} must be of type {kind.__name__}")
    return obj[key]


def _sizes(obj) -> dict:
    """The "levels" and "prime_bound" fields that are given, as keywords:
    the constructor they go to holds the defaults."""
    return {key: _field(obj, key, int) for key in ("levels", "prime_bound") if key in obj}


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


@_reader
def matrix_from_json(ref, basedir=".") -> tuple:
    """An integer matrix as int-tuple rows: a list of equal-length rows of
    integers; a flat list of integers is one row and an integer a 1 x 1
    matrix.  JSON true and false are not integers."""
    obj, _ = _resolve(ref, basedir)
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


@_reader
def group_from_json(ref, basedir="."):
    """A group by its table; an "order" field, when present, must be the
    number of elements the table has."""
    obj, _ = _object(ref, basedir, ("table", "order"))
    g = FiniteGroup(_int_table(_field(obj, "table")))
    order = _field(obj, "order", int, g.order)
    if order != g.order:
        raise ParseError(f"order {order}, but the table has {g.order} elements")
    return g


@_reader
def gset_from_json(ref, basedir="."):
    """A G-set by its action table; a "size" field, when present, must be
    the number of points the action moves."""
    obj, basedir = _object(ref, basedir, ("group", "size", "action"))
    x = GSet(group_from_json(_field(obj, "group"), basedir), _int_table(_field(obj, "action")))
    size = _field(obj, "size", int, x.size)
    if size != x.size:
        raise ParseError(f"size {size}, but the action has {x.size} points")
    return x


@_reader
def lattice_from_json(ref, basedir="."):
    """Full table, or generators-only with the closure computed here."""
    obj, basedir = _object(ref, basedir, ("rank", "group", "rho"))
    g = group_from_json(_field(obj, "group"), basedir)
    # each element has one key, str(element): "01" is none, so it cannot hide "1"
    rho, _ = _object(_field(obj, "rho"), basedir, [str(t) for t in g.elements()])
    rho_in = {int(k): matrix_from_json(v, basedir) for k, v in rho.items()}
    rank = _field(obj, "rank", int, None)
    if rank is None:
        if not rho_in:
            raise ParseError("lattice needs a rank or at least one matrix")
        rank = len(next(iter(rho_in.values())))
    elif rank < 0:
        raise ParseError("the rank is a nonnegative integer")
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


@_reader
def exact_sequence_from_json(ref, basedir=".") -> list:
    """The maps of {"lattices": [...], "maps": [...]}, map i from lattice i
    to lattice i + 1."""
    obj, basedir = _object(ref, basedir, ("lattices", "maps"))
    lattices = [lattice_from_json(x, basedir) for x in _field(obj, "lattices", list)]
    maps = _field(obj, "maps", list)
    if len(maps) != len(lattices) - 1:
        raise ParseError("need one map between each pair of adjacent lattices")
    return [
        LatticeMap(lattices[i], lattices[i + 1], matrix_from_json(m, basedir))
        for i, m in enumerate(maps)
    ]


@_reader
def lattice_map_from_json(ref, basedir=".") -> LatticeMap:
    """The map of {"source": ..., "target": ..., "matrix": ...}."""
    obj, basedir = _object(ref, basedir, ("source", "target", "matrix"))
    src = lattice_from_json(_field(obj, "source"), basedir)
    tgt = lattice_from_json(_field(obj, "target"), basedir)
    return LatticeMap(src, tgt, matrix_from_json(_field(obj, "matrix"), basedir))


@_reader
def gamma_group_from_json(ref, basedir="."):
    """A Gamma-group; an absent "action" is the trivial one."""
    obj, basedir = _object(ref, basedir, ("gamma", "underlying", "action"))
    gamma = group_from_json(_field(obj, "gamma"), basedir)
    und = group_from_json(_field(obj, "underlying"), basedir)
    action = _field(obj, "action", default=None)
    if action is None:
        return co.trivial_gamma_group(gamma, und)
    return co.GammaGroup(gamma, und, _int_table(action))


def module_from_json(ref, basedir="."):
    """The coefficients of `cohomology h1`: a lattice when the object has a
    "rho" field, else a Gamma-group."""
    obj, basedir = _resolve(ref, basedir)
    if isinstance(obj, dict) and "rho" in obj:
        return lattice_from_json(obj, basedir)
    return gamma_group_from_json(obj, basedir)


@_reader
def datum_from_json(ref, basedir="."):
    obj, basedir = _object(ref, basedir, ("group", "iota"))
    g = group_from_json(_field(obj, "group"), basedir)
    return sr.CMGaloisDatum(g, _field(obj, "iota", int))


@_reader
def abelian_field_from_json(ref, basedir=".") -> nt.AbelianFieldDatum:
    obj, _ = _object(ref, basedir, ("conductor", "subgroup"))
    return nt.AbelianFieldDatum(_field(obj, "conductor", int),
                                _int_row(_field(obj, "subgroup")))


_LAWS = {"cyclotomic-power": ("l",), "split-obstruction": ("l", "p0", "levels", "prime_bound")}


@_reader
def tower_law_from_json(ref, basedir="."):
    kind, obj, _ = _kind(ref, basedir, _LAWS)
    if kind == "cyclotomic-power":
        return nt.CyclotomicPowerLaw(_field(obj, "l", int))
    return nt.SplitObstructionLaw(_field(obj, "l", int), _field(obj, "p0", int), **_sizes(obj))


_NORM_TOWER = ("levels", "law")


@_reader
def norm_tower_from_json(ref, basedir="."):
    """A norm tower; an absent "law" makes it explicit."""
    return _norm_tower(*_object(ref, basedir, _NORM_TOWER))


def _norm_tower(obj, basedir):
    levels = tuple(abelian_field_from_json(x, basedir) for x in _field(obj, "levels", list))
    law = _field(obj, "law", default=None)
    return iv.NormTower(levels, law=None if law is None else tower_law_from_json(law, basedir))


_RECIPES = {
    "explicit": ("groups", "maps"),
    "constant-endo": ("relations", "endo"),
    "subgroup-chain": ("rank", "step", "base"),
    "norm-tower": _NORM_TOWER,
    "product": ("factors",),
}


@_reader
def recipe_from_json(ref, basedir="."):
    kind, obj, basedir = _kind(ref, basedir, _RECIPES)
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
            matrix_from_json(_field(obj, "endo"), basedir),
        )
    if kind == "subgroup-chain":
        return iv.SubgroupChain(
            _field(obj, "rank", int),
            matrix_from_json(_field(obj, "step"), basedir),
            matrix_from_json(_field(obj, "base"), basedir),
        )
    if kind == "norm-tower":
        return _norm_tower(obj, basedir)
    return iv.Product(tuple(recipe_from_json(f, basedir) for f in _field(obj, "factors", list)))


@_reader
def torsor_sequence_from_json(ref, basedir="."):
    obj, basedir = _object(ref, basedir, ("a", "b", "c", "include", "project"))
    A, B, C = (gamma_group_from_json(_field(obj, key), basedir) for key in ("a", "b", "c"))
    inc = GroupHom(A.underlying, B.underlying, _int_row(_field(obj, "include")))
    prj = GroupHom(B.underlying, C.underlying, _int_row(_field(obj, "project")))
    return to.ExactGammaSequence(
        A, B, C, to.EquivariantHom(A, B, inc), to.EquivariantHom(B, C, prj)
    )


@_reader
def base_class_from_json(ref, seq, basedir="."):
    obj, _ = _object(ref, basedir, ("q_values", "p_values"))
    q = co.CrossedHom(seq.c.gamma, seq.c, _int_row(_field(obj, "q_values")))
    p = co.CrossedHom(seq.b.gamma, seq.b, _int_row(_field(obj, "p_values")))
    return to.RelativeClass(seq.project, q, p)


_CHAINS = {"layered-obstruction": ("l", "p0", "levels", "prime_bound"),
           "constant": ("datum", "length")}


@_reader
def chain_from_json(ref, basedir="."):
    kind, obj, basedir = _kind(ref, basedir, _CHAINS)
    if kind == "layered-obstruction":
        return sr.layered_obstruction_tower(_field(obj, "l", int), _field(obj, "p0", int),
                                            **_sizes(obj))
    datum = datum_from_json(_field(obj, "datum"), basedir)
    return sr.constant_tower(datum, _field(obj, "length", int, 2))


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
