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


def _field(obj, key):
    """obj[key] of a JSON object; ParseError when obj has no such field."""
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing field {key!r}")
    return obj[key]


def group_from_json(obj, basedir="."):
    obj, basedir = _resolve(obj, basedir)
    try:
        return FiniteGroup(obj["table"], labels=obj.get("labels"))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad group object: {e}") from e


def group_to_json(g: FiniteGroup) -> dict:
    out = {"order": g.order, "table": [list(r) for r in g.rows]}
    if g.labels:
        out["labels"] = list(g.labels)
    return out


def gset_from_json(obj, basedir="."):
    obj, basedir = _resolve(obj, basedir)
    try:
        g = group_from_json(obj["group"], basedir)
        return GSet(g, obj["action"])
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
    lattices = [lattice_from_json(x, basedir) for x in _field(obj, "lattices")]
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
    return co.GammaGroup(gamma, und, action)


def datum_from_json(obj, basedir="."):
    obj, basedir = _resolve(obj, basedir)
    try:
        g = group_from_json(obj["group"], basedir)
        return sr.CMGaloisDatum(g, int(obj["iota"]))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad CM datum: {e}") from e


def abelian_field_from_json(obj) -> nt.AbelianFieldDatum:
    try:
        return nt.AbelianFieldDatum(int(obj["conductor"]), tuple(obj["subgroup"]))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad abelian field datum: {e}") from e


def tower_law_from_json(obj):
    if obj is None:
        return None
    kind = obj.get("kind")
    if kind == "cyclotomic-power":
        return nt.CyclotomicPowerLaw(int(obj["l"]))
    if kind == "split-obstruction":
        return nt.SplitObstructionLaw(
            int(obj["l"]),
            int(obj["p0"]),
            int(obj.get("levels", 2)),
            int(obj.get("prime_bound", 20000)),
        )
    raise ParseError(f"unknown tower law kind: {kind}")


def norm_tower_from_json(obj, basedir="."):
    obj, basedir = _resolve(obj, basedir)
    try:
        levels = tuple(abelian_field_from_json(x) for x in obj["levels"])
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad tower object: {e}") from e
    return iv.NormTower(levels, law=tower_law_from_json(obj.get("law")))


def recipe_from_json(obj, basedir="."):
    obj, basedir = _resolve(obj, basedir)
    kind = obj.get("kind")
    if kind == "explicit":
        groups = [group_from_json(g, basedir) for g in obj["groups"]]
        maps = [
            GroupHom(groups[i + 1], groups[i], tuple(m))
            for i, m in enumerate(obj["maps"])
        ]
        return iv.ExplicitFinite(tuple(groups), tuple(maps))
    if kind == "constant-endo":
        return iv.ConstantEndo(
            la.FgAbelian(tuple(obj["relations"])), tuple(map(tuple, obj["endo"]))
        )
    if kind == "subgroup-chain":
        return iv.SubgroupChain(
            int(obj["rank"]), tuple(map(tuple, obj["step"])),
            tuple(map(tuple, obj["base"])),
        )
    if kind == "norm-tower":
        return norm_tower_from_json(obj, basedir)
    if kind == "product":
        return iv.Product(tuple(recipe_from_json(f, basedir) for f in obj["factors"]))
    raise ParseError(f"unknown recipe kind: {kind}")


def torsor_sequence_from_json(obj, basedir="."):
    obj, basedir = _resolve(obj, basedir)
    try:
        A = gamma_group_from_json(obj["a"], basedir)
        B = gamma_group_from_json(obj["b"], basedir)
        C = gamma_group_from_json(obj["c"], basedir)
        inc = GroupHom(A.underlying, B.underlying, tuple(obj["include"]))
        prj = GroupHom(B.underlying, C.underlying, tuple(obj["project"]))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad sequence object: {e}") from e
    return to.ExactGammaSequence(
        A, B, C, to.EquivariantHom(A, B, inc), to.EquivariantHom(B, C, prj)
    )


def base_class_from_json(obj, seq, basedir="."):
    obj, basedir = _resolve(obj, basedir)
    try:
        qv = tuple(obj["q_values"])
        pv = tuple(obj["p_values"])
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad base object: {e}") from e
    q = to.TorsorRep(seq.c, co.CrossedHom(seq.c.gamma, seq.c, qv))
    p = to.TorsorRep(seq.b, co.CrossedHom(seq.b.gamma, seq.b, pv))
    return to.RelativeClass(seq.project, q, p)


def chain_from_json(obj, basedir="."):
    obj, basedir = _resolve(obj, basedir)
    kind = obj.get("kind")
    if kind == "layered-obstruction":
        return sr.layered_obstruction_tower(
            int(obj["l"]), int(obj["p0"]), int(obj.get("levels", 1)),
            int(obj.get("prime_bound", 20000)),
        )
    if kind == "constant":
        datum = datum_from_json(obj["datum"], basedir)
        return sr.constant_tower(datum, int(obj.get("length", 2)))
    raise ParseError(f"unknown chain kind: {kind}")


def parse_poly(text: str) -> tuple:
    """Little-endian coefficients from a JSON list or a caret expression
    like 'x^2+1'."""
    text = text.strip()
    if text.startswith("["):
        return tuple(int(c) for c in json.loads(text))
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
