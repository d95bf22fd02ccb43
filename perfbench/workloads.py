"""The benchmark's three workloads: case sets, answer checks and digests.

A case is one call into torsorlab's public API on plain generated inputs
(catalog groups, integer tuples, (conductor, subgroup, p) triples).  Each
case kind has three steps:

- ``run(args)`` calls the library and returns its raw result; the runner
  times this step and nothing else;
- ``canon(args, raw)`` turns the result into a canonical plain answer;
- ``check(args, answer)`` compares that answer with the theorem the case
  verifies, using only plain data and arithmetic of this file.

Library functions are always reached through their module (``co.h1_abelian``),
never bound to a local name, so the traced run can swap in wrappers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from torsorlab import catalog
from torsorlab import cohomology as co
from torsorlab import groups as gr
from torsorlab import gsets as gs
from torsorlab import invsys as iv
from torsorlab import lattices as lat
from torsorlab import numtheory as nt
from torsorlab import serre as sr
from torsorlab import torsors as to

WORKLOADS = ("h1-permutation", "serre-lattices", "tables-primes")


@dataclass(frozen=True)
class Case:
    kind: str
    key: tuple  # canonical, plain and sortable; digest order
    args: tuple


# ---------------------------------------------------------------------------
# plain group arithmetic, from multiplication tables read once in set-up


def plain_table(g) -> tuple:
    return tuple(tuple(g.mul(a, b) for b in range(g.order)) for a in range(g.order))


def _closure(t, gens) -> set:
    elems = {0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for s in gens:
                y = t[x][s]
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return elems


def _generators(t) -> tuple:
    gens, have = [], {0}
    for x in range(len(t)):
        if x not in have:
            gens.append(x)
            have = _closure(t, gens)
    return tuple(gens)


def all_homs(src, tgt) -> tuple:
    """Every homomorphism between two plain tables, as image tuples."""
    gens = _generators(src)
    out = []
    for images in itertools.product(range(len(tgt)), repeat=len(gens)):
        f = {0: 0}
        frontier = [0]
        good = True
        while frontier and good:
            new = []
            for x in frontier:
                for s, im in zip(gens, images):
                    y, v = src[x][s], tgt[f[x]][im]
                    if y not in f:
                        f[y] = v
                        new.append(y)
                    elif f[y] != v:
                        good = False
            frontier = new
        if good:
            out.append(tuple(f[x] for x in range(len(src))))
    return tuple(out)


def _inverses(t) -> tuple:
    return tuple(row.index(0) for row in t)


def _is_abelian(t) -> bool:
    n = len(t)
    return all(t[a][b] == t[b][a] for a in range(n) for b in range(n))


def _class_sizes(t) -> tuple:
    inv = _inverses(t)
    seen, sizes = set(), []
    for x in range(len(t)):
        if x not in seen:
            cls = {t[t[g][x]][inv[g]] for g in range(len(t))}
            seen |= cls
            sizes.append(len(cls))
    return tuple(sorted(sizes))


def _det(rows) -> Fraction:
    m = [[Fraction(v) for v in r] for r in rows]
    n, det = len(m), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


# ---------------------------------------------------------------------------
# h1-permutation: H^1(G, Z[G/H]) = 0 for every subgroup of every group <= 24


def _run_shapiro(args):
    # shapiro_check's own three calls, so that the answer carries the
    # invariants of H^1 and not only the library's verdict
    _, g, h = args
    return co.h1_abelian(g, lat.permutation_lattice(gs.coset_gset(g, h)))


def _canon_shapiro(args, raw):
    return tuple(int(d) for d in raw.invariants)


def check_h1_vanishes(args, answer) -> bool:
    """Shapiro's lemma: H^1(G, Z[G/H]) = H^1(H, Z) = Hom(H, Z) = 0."""
    return answer == ()


def h1_permutation(seed: int) -> list:
    cases = []
    for name, g in catalog.group_catalog(24):
        for h in gr.all_subgroups(g):
            cases.append(Case("shapiro", ("shapiro", name, h), (name, g, h)))
    return cases


# ---------------------------------------------------------------------------
# serre-lattices


def _run_sequence(args):
    _, g, iota = args
    return sr.verify_serre_sequence(sr.CMGaloisDatum(g, iota))


def _canon_sequence(args, raw):
    return (tuple(raw.ranks), raw.rank_law_holds, raw.with_constant_exact,
            raw.quotient_exact)


def check_sequence(args, answer) -> bool:
    """Both character sequences are exact, with ranks (h+1, 2h+1, h), 2h = |G|."""
    _, g, _ = args
    h = g.order // 2
    ranks, law, exact1, exact2 = answer
    return ranks == (h + 1, 2 * h + 1, h) and law and exact1 and exact2


def _run_cm_type(args):
    _, g, iota, phi, _ = args
    return sr.cm_type_basis(sr.CMGaloisDatum(g, iota), phi)


def _canon_cm_type(args, raw):
    return (raw.in_lattice, raw.is_basis, tuple(tuple(v) for v in raw.vectors))


def check_cm_type(args, answer) -> bool:
    """The type sums lie in X*(S) and form a basis of it.

    X*(S) = {(n, c) : n_s + n_(iota s) = c for all s}.  Projecting onto the
    coordinates of phi and c is an isomorphism onto Z^(h+1), so the vectors
    are a basis exactly when their projected matrix has determinant +-1.
    """
    _, _, _, phi, iota_of = args
    in_lattice, is_basis, vectors = answer
    if not (in_lattice and is_basis) or len(vectors) != len(phi) + 1:
        return False
    c = len(iota_of)
    for v in vectors:
        if len(v) != c + 1 or any(v[s] + v[iota_of[s]] != v[c] for s in range(c)):
            return False
    return abs(_det([[v[s] for s in phi] + [v[c]] for v in vectors])) == 1


def _run_blocks(args):
    _, f, _ = args
    return sr.conjugation_block_decomposition(f)


def _canon_blocks(args, raw):
    return (raw.class_embedding_iso, raw.first_map_iso, raw.twisted_sub_iso,
            tuple(sorted(raw.block_ranks)), raw.total_rank)


def check_blocks(args, answer) -> bool:
    """One block per conjugacy class of F, of rank the class size."""
    _, f, class_sizes = args
    emb, first, sub, ranks, total = answer
    return emb and first and sub and ranks == class_sizes and total == f.order


def serre_lattices(seed: int) -> list:
    cases = []
    for name, g in catalog.group_catalog(16):
        for iota in catalog.central_involutions(g):
            cases.append(Case("sequence", ("sequence", name, iota), (name, g, iota)))
            if g.order > 12:
                continue
            t = plain_table(g)
            iota_of = tuple(t[iota][s] for s in range(g.order))
            for phi in sr.all_cm_types(sr.CMGaloisDatum(g, iota)):
                phi = tuple(sorted(phi))
                cases.append(Case("cm-type", ("cm-type", name, iota, phi),
                                  (name, g, iota, phi, iota_of)))
    c2 = gr.cyclic_group(2)
    for name, f in (("C1", gr.trivial_group()), ("C2", c2), ("C3", gr.cyclic_group(3)),
                    ("C2xC2", gr.direct_product(c2, c2)), ("S3", gr.symmetric_group(3)),
                    ("D4", gr.dihedral_group(4))):
        cases.append(Case("blocks", ("blocks", name),
                          (name, f, _class_sizes(plain_table(f)))))
    return cases


# ---------------------------------------------------------------------------
# tables-primes


LIM1_COUNT = 100
LIM1_BUDGET = 50000
PRODUCT_COUNT = 24
SPLIT_COUNT = 500
LEVEL_POOL = tuple(f"C{n}" for n in range(2, 13)) + ("S3", "D4")
GAMMA_POOL = ("C2", "C3", "C2xC2", "C2xC2xC2")
FACTOR_POOL = ("C2", "C3", "C4", "C5", "C6", "C2xC2", "S3", "D4", "Q8")
CONDUCTORS = (5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21, 24, 28,
              32, 33, 35, 36, 40, 44, 45, 48, 60, 63, 65, 72, 84, 88, 100)
# Smaller primes divide the index of the Gaussian-period order for a few
# pool fields (Dedekind's test then raises IndexDivisor); none of these do.
SPLIT_PRIMES = (113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179,
                181, 191, 193, 197, 199, 503, 997, 1009, 2003, 4999, 7919, 9973)
# h1_nonabelian enumerates |N|^(generators of Gamma) candidate cocycles
MAX_CANDIDATES = 20000
MAX_PRODUCT_ORDER = 144


def _run_lim1(args):
    groups, maps = args
    homs = tuple(gr.GroupHom(groups[i + 1], groups[i], m) for i, m in enumerate(maps))
    return iv.lim1_truncated(iv.ExplicitFinite(tuple(groups), homs), budget=LIM1_BUDGET)


def _canon_lim1(args, raw):
    return (raw.orbit_count, raw.set_size, raw.verified_mode, raw.checked_pairs)


def check_lim1(args, answer) -> bool:
    """A finite truncation has one lim^1 orbit; its set is the product of the levels."""
    groups, _ = args
    orbits, size, _, checked = answer
    want = math.prod(g.order for g in groups)
    return orbits == 1 and size == want and 0 < checked <= want


def _gamma_group(gamma, x, action):
    if action is None:
        return co.trivial_gamma_group(gamma, x)
    return co.GammaGroup(gamma, x, action)


def _run_product(args):
    gamma, factors = args
    facs = [_gamma_group(gamma, x, action) for _, x, action in factors]
    prod, _ = co.gamma_group_product(facs)
    return co.h1_nonabelian(gamma, prod), [co.h1_nonabelian(gamma, f) for f in facs]


def _canon_product(args, raw):
    whole, parts = raw
    return (whole.count, tuple(p.count for p in parts),
            tuple(c.values for c in whole.classes))


def check_product(args, answer) -> bool:
    """H^1 of a product of Gamma-groups is the product of the factors' H^1."""
    count, factor_counts, tables = answer
    return (count == math.prod(factor_counts) and len(tables) == count
            and list(tables) == sorted(set(tables)))


def _run_twist(args):
    _, gamma, g, n_elems, n_table = args
    n = gr.FiniteGroup(n_table)
    q, proj = gr.quotient(g, n_elems)
    a, b, c = (co.trivial_gamma_group(gamma, x) for x in (n, g, q))
    seq = to.ExactGammaSequence(a, b, c, to.EquivariantHom(a, b, gr.GroupHom(n, g, n_elems)),
                                to.EquivariantHom(b, c, proj))
    base = to.RelativeClass(seq.project, to.trivial_torsor(c), to.trivial_torsor(b))
    return to.verify_twist_bijection(seq, base)


def _canon_twist(args, raw):
    return (raw.bijective, raw.neutral_to_base, raw.abelian_kernel_action_factors,
            len(raw.relative_classes), tuple(c.values for c in raw.kernel_h1_classes))


def check_twist(args, answer) -> bool:
    """Twisting by the base lift is a bijection H^1(twisted kernel) -> lifts,
    sending the neutral class to the base."""
    bijective, neutral, factors, n_lifts, tables = answer
    return bijective and neutral and factors in (None, True) and n_lifts == len(tables) > 0


def _run_split(args):
    m, h, p = args
    fld = nt.AbelianFieldDatum(m, h)
    ded = nt.dedekind_split(nt.abelian_defining_polynomial(fld), p)
    return ded, nt.abelian_split(fld, p)


def _canon_split(args, raw):
    ded, ab = raw
    return (tuple(ded.pairs), tuple(ab.pairs), ab.degree)


def check_split(args, answer) -> bool:
    """The Dedekind and Frobenius routes agree, p is unramified and
    sum e*f is the degree phi(m)/|H|."""
    m, h, _ = args
    ded, ab, degree = answer
    want = sum(1 for u in range(1, m) if math.gcd(u, m) == 1) // len(h)
    return (ded == ab and degree == want and all(e == 1 for e, _ in ded)
            and sum(e * f for e, f in ded) == degree)


def unit_closure(m: int, gens) -> tuple:
    h, frontier = {1}, [1]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % m
            if y not in h:
                h.add(y)
                frontier.append(y)
    return tuple(sorted(h))


def split_fields(m: int) -> tuple:
    """Subgroups H of (Z/m)^* generated by at most two units, of index 2..6."""
    units = [u for u in range(1, m) if math.gcd(u, m) == 1]
    cyclic = sorted({unit_closure(m, (u,)) for u in units})
    subs = set(cyclic)
    for a in cyclic:
        for b in cyclic:
            subs.add(unit_closure(m, a + b))
    return tuple(sorted(h for h in subs if 2 <= len(units) // len(h) <= 6))


def tables_primes(seed: int) -> list:
    # The lim1 systems and the products are the heavy cases: they set the
    # tail, and their cost moves by 10-20 % with the order of levels or
    # factors.  They come from a fixed generator so that every seed asks for
    # the same heavy work; the seed draws the extensions' Gamma and the
    # splitting triples, and the runner's seed shuffles the order.
    fixed = random.Random(0)
    rng = random.Random(seed)
    named = dict(catalog.group_catalog(12))
    tables = {name: plain_table(g) for name, g in named.items()}
    homs = {}

    def hom_between(src, tgt):
        if (src, tgt) not in homs:
            homs[(src, tgt)] = all_homs(tables[src], tables[tgt])
        return homs[(src, tgt)]

    cases = []
    for i in range(LIM1_COUNT):
        names = [fixed.choice(LEVEL_POOL) for _ in range(fixed.randint(2, 6))]
        maps = tuple(fixed.choice(hom_between(names[k + 1], names[k]))
                     for k in range(len(names) - 1))
        cases.append(Case("lim1", ("lim1", i, tuple(names), maps),
                          (tuple(named[n] for n in names), maps)))

    for i in range(PRODUCT_COUNT):
        gname = fixed.choice(GAMMA_POOL)
        k = len(_generators(tables[gname]))
        signs = [chi for chi in hom_between(gname, "C2") if any(chi)]
        while True:
            fnames = [fixed.choice(FACTOR_POOL) for _ in range(fixed.randint(2, 3))]
            order = math.prod(named[f].order for f in fnames)
            if order <= MAX_PRODUCT_ORDER and order ** k <= MAX_CANDIDATES:
                break
        factors, key = [], []
        for f in fnames:
            # an abelian factor may be inverted through a sign character of Gamma
            if not (signs and _is_abelian(tables[f]) and fixed.random() < 0.5):
                factors.append((f, named[f], None))
                key.append((f, ()))
                continue
            chi = fixed.choice(signs)
            inv = _inverses(tables[f])
            action = tuple(inv if chi[t] else tuple(range(len(inv))) for t in range(len(chi)))
            factors.append((f, named[f], action))
            key.append((f, chi))
        cases.append(Case("product", ("product", i, gname, tuple(key)),
                          (named[gname], tuple(factors))))

    for name, g in catalog.group_catalog(12):
        t = tables[name]
        for n_elems in gr.all_subgroups(g):
            if not (1 < len(n_elems) < g.order and gr.is_normal(g, n_elems)):
                continue
            index = {e: i for i, e in enumerate(n_elems)}
            n_table = tuple(tuple(index[t[a][b]] for b in n_elems) for a in n_elems)
            gamma = rng.choice(("C2", "C3"))
            cases.append(Case("twist", ("twist", name, n_elems, gamma),
                              (name, named[gamma], g, n_elems, n_table)))

    fields = {m: split_fields(m) for m in CONDUCTORS}
    for i in range(SPLIT_COUNT):
        m = rng.choice(CONDUCTORS)
        h = rng.choice(fields[m])
        p = rng.choice([q for q in SPLIT_PRIMES if m % q])
        cases.append(Case("split", ("split", i, m, h, p), (m, h, p)))
    return cases


# ---------------------------------------------------------------------------
# registry


KINDS = {
    "shapiro": (_run_shapiro, _canon_shapiro, check_h1_vanishes),
    "sequence": (_run_sequence, _canon_sequence, check_sequence),
    "cm-type": (_run_cm_type, _canon_cm_type, check_cm_type),
    "blocks": (_run_blocks, _canon_blocks, check_blocks),
    "lim1": (_run_lim1, _canon_lim1, check_lim1),
    "product": (_run_product, _canon_product, check_product),
    "twist": (_run_twist, _canon_twist, check_twist),
    "split": (_run_split, _canon_split, check_split),
}

BUILDERS = {
    "h1-permutation": h1_permutation,
    "serre-lattices": serre_lattices,
    "tables-primes": tables_primes,
}


def build(workload: str, seed: int) -> list:
    """The workload's case set in canonical (digest) order."""
    return sorted(BUILDERS[workload](seed), key=lambda c: c.key)


def digest(keys_and_answers) -> str:
    """sha256 of the canonical answers, in key order."""
    rows = sorted(keys_and_answers, key=lambda r: r[0])
    blob = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
