"""Fixtures and oracles that only the tests use: small G-sets, a group's JSON
form, lattice equality and the index of a sublattice by its coordinates, the
orbits of a permutation lattice's points by their images, a
determinant independent of the SNF, powers mod a polynomial by whole
divisions, schoolbook polynomial products and divisions on tuples, Yun's
squarefree loop run to its end, the materialized truncation of an
inverse-system recipe, lattice H^1 by the Schreier relators of a
generating set, permutation lattices placed one point at a time, zero
lattices and maps, the Serre character sequences and
the twisted quotient sequence by restricted actions, exactness joints and
kernel sequences by a second kernel, the coordinates of vectors in a
lattice with a retraction and CM-type bases by them,
the action law and lattice twists read on basis vectors with no matrix
product, matrices stacked one below the other, and subgroups and their
generating sets by closing from {0} each time, Gaussian-period polynomials
by summing rotations, the truncated lim^1 obstruction one witness choice at
a time, and the benchmark's workloads, tools/reach.py, tools/profile.py and
tools/kinds.py read from their files."""

import contextlib
import importlib.util
import math
import pathlib
import sys

from torsorlab import cohomology as co
from torsorlab import groups as gr
from torsorlab import gsets as gs
from torsorlab import invsys as iv
from torsorlab import lattices as lt
from torsorlab import linalg as la
from torsorlab import numtheory as nt
from torsorlab import serre as sr


WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
TOOLS = WORKLOADS.parent.parent / "tools"


def _tool(name: str):
    """tools/<name>.py, loaded afresh from its file."""
    spec = importlib.util.spec_from_file_location(f"{name}_tool", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reach_tool():
    return _tool("reach")


def profile_tool():
    return _tool("profile")


def kinds_tool():
    return _tool("kinds")


@contextlib.contextmanager
def perfbench_workloads():
    """perfbench/workloads.py, loaded from its file, read only."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def trivial_gset(g: gr.FiniteGroup, size: int) -> gs.GSet:
    return gs.GSet(g, (tuple(range(size)),) * g.order, validate=False)


def regular_gset(g: gr.FiniteGroup) -> gs.GSet:
    return gs.GSet(g, g.rows)


def disjoint_union(x: gs.GSet, y: gs.GSet) -> gs.GSet:
    if x.group != y.group:
        raise gs.InvalidAction("actions of different groups")
    action = tuple(
        rx + tuple(p + x.size for p in ry) for rx, ry in zip(x.action, y.action)
    )
    return gs.GSet(x.group, action, validate=False)


def point_orbit_count(m: lt.ZGLattice) -> int:
    """The number of orbits of m's group on the points of m, each orbit read
    as the set of images of one point under every group element: no cycle,
    generator or elimination is read.  The invariants of a permutation
    lattice are spanned by the orbit sums, so this is their rank."""
    return len({frozenset(p[x] for p in m.points) for x in range(m.rank)})


def group_to_json(g: gr.FiniteGroup) -> dict:
    return {"order": g.order, "table": [list(r) for r in g.rows]}


def lattice_eq(b1, b2) -> bool:
    return la.lattice_contains(b1, b2) and la.lattice_contains(b2, b1)


def lattice_index(big, small):
    """Index [big : small] for sublattices of equal rank, else None: the
    coordinates X of small in the basis big, big X = small, and the product
    of X's elementary divisors."""
    X = la.solve_int(big, small)
    if X is None:
        return None
    divs = la.elementary_divisors(X)
    if len(divs) < la.width(big) or la.width(big) != la.width(small):
        return None
    return math.prod(divs)


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


def poly_trim(f, p=None) -> tuple:
    """The coefficients of f, taken mod p when p is given, as a tuple with no
    zero at the top."""
    f = [c % p for c in f] if p is not None else list(f)
    while f and not f[-1]:
        f.pop()
    return tuple(f)


def poly_mul(f, g, p=None) -> tuple:
    """The product of f and g over Z, or over F_p when p is given."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly_trim(out, p)


def poly_divmod(f, g, p=None) -> tuple:
    """(quotient, remainder) of f by g by schoolbook division on whole
    tuples: over F_p when p is given, else over Z by a monic g.  Independent
    of numtheory's in-place list kernel."""
    g = poly_trim(g, p)
    if not g:
        raise ZeroDivisionError
    if p is None and g[-1] != 1:
        raise ValueError("over Z the divisor must be monic")
    inv = 1 if p is None else pow(g[-1], -1, p)
    r = poly_trim(f, p)
    q = [0] * max(0, len(r) - len(g) + 1)
    while len(r) >= len(g):
        k = len(r) - len(g)
        q[k] = c = r[-1] * inv if p is None else r[-1] * inv % p
        r = poly_trim([a - c * g[i - k] if i >= k else a for i, a in enumerate(r)], p)
    return poly_trim(q), r


def powmod_reference(base, e, mod, p):
    """base^e mod (mod, p) by square and multiply, each product reduced by a
    whole poly_mul and poly_divmod; independent of numtheory._fp_powmod's
    in-place reduction."""
    result = (1,)
    base = poly_divmod(base, mod, p)[1]
    while e > 0:
        if e & 1:
            result = poly_divmod(poly_mul(result, base, p), mod, p)[1]
        base = poly_divmod(poly_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def squarefree_decomposition_reference(f, p):
    """numtheory._squarefree_decomposition by Yun's loop run to its end,
    with no stop at gcd(f, f') = 1: [(g, multiplicity)] with f = prod g^m,
    each g squarefree, for a monic list f over F_p."""
    out = []
    if len(f) <= 1:
        return out
    c = nt._fp_gcd(f, nt._fp_deriv(f, p), p)
    w = nt._fp_quo(f, c, p)
    i = 1
    while len(w) > 1:
        y = nt._fp_gcd(w, c, p)
        fac = nt._fp_quo(w, y, p)
        if len(fac) > 1:
            out.append((fac, i))
        w = y
        c = nt._fp_quo(c, y, p)
        i += 1
    if len(c) > 1:
        # c is a p-th power; over the prime field the root keeps coefficients
        for g, m in squarefree_decomposition_reference(c[::p], p):
            out.append((g, m * p))
    return out


class NotMaterializable(ValueError):
    pass


def chain_level(chain: iv.SubgroupChain, n: int) -> tuple:
    """A basis of level n of the chain, the column lattice of T^n B."""
    M = chain.base
    for _ in range(n):
        M = la.matmul(chain.step, M)
    return la.column_space_basis(M)


def truncate(recipe, n: int):
    """Materialized levels 0..n: an ExplicitFinite, or per-level abelian data."""
    if isinstance(recipe, iv.ExplicitFinite):
        if n >= len(recipe.groups):
            raise NotMaterializable("truncation beyond the given data")
        return iv.ExplicitFinite(recipe.groups[: n + 1], recipe.maps[:n])
    if isinstance(recipe, iv.ConstantEndo):
        return tuple((recipe.relations, recipe.endo) for _ in range(n + 1))
    if isinstance(recipe, iv.SubgroupChain):
        return tuple(chain_level(recipe, k) for k in range(n + 1))
    if isinstance(recipe, iv.Product):
        return tuple(truncate(f, n) for f in recipe.factors)
    if isinstance(recipe, iv.NormTower):
        raise NotMaterializable(
            "unit groups of number fields are infinite; use the valuation "
            "certificates instead"
        )
    raise TypeError("unknown recipe kind")


def twist_classes_reference(coefficient, tables, by) -> dict:
    """cohomology.twist_classes by whole orbits: the class of each least
    unlabelled table f is {f.a : a in by}, each twist computed through the
    underlying group's mul/inv and the action, and each member is labelled
    f, class by class; NotAction if an orbit leaves `tables`."""
    n, act = coefficient.underlying, coefficient.act
    tables = sorted(tables)
    members = set(tables)
    label = {}
    for vals in tables:
        if vals in label:
            continue
        orbit = {tuple(n.mul(n.mul(n.inv(a), v), act(t, a)) for t, v in enumerate(vals))
                 for a in by}
        if not orbit <= members:
            raise gr.NotAction("twisted conjugation leaves the given tables")
        label.update(dict.fromkeys(orbit, vals))
    return label


# A word is a tuple of letters: 2i stands for generator i and 2i + 1 for its
# inverse, so letter ^ 1 is the inverse letter.


def cyclically_reduced(word) -> tuple:
    w = []
    for x in word:
        if w and w[-1] == x ^ 1:
            w.pop()
        else:
            w.append(x)
    i, j = 0, len(w)
    while j - i > 1 and w[i] == w[j - 1] ^ 1:
        i, j = i + 1, j - 1
    return tuple(w[i:j])


def schreier_relators(g: gr.FiniteGroup, gens) -> list:
    """The Schreier relators w(x) s w(xs)^-1 of the non-tree edges of the
    Cayley graph's BFS spanning tree, w(x) the tree word of x, freely and
    cyclically reduced (a conjugate has the same normal closure) and sorted
    by (length, word).  By Reidemeister-Schreier they present g."""
    words = {0: ()}
    found = set()
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            row, wx = g.rows[x], words[x]
            for i, s in enumerate(gens):
                t = row[s]
                if t not in words:
                    words[t] = wx + (2 * i,)
                    new.append(t)
                else:
                    inv_t = tuple(y ^ 1 for y in reversed(words[t]))
                    found.add(cyclically_reduced(wx + (2 * i,) + inv_t))
        frontier = new
    if len(words) != g.order:
        raise gr.InvalidGroup("the generators do not reach every element")
    return sorted(found, key=lambda w: (len(w), w))


def schreier_presentation(g: gr.FiniteGroup) -> tuple:
    """(gens, relators): generating_set(g) and all its Schreier relators."""
    gens = gr.generating_set(g)
    return gens, tuple(schreier_relators(g, gens))


def relator_letters(gamma: gr.FiniteGroup, gens, w) -> list:
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


def relator_rows(gamma, mats, r: int, gens, relators) -> list:
    """Constraint rows on the cocycle values at the generators, r per relator.

    Written additively (see relator_letters), f(w) = 0 is the sum of
    +-rho(h) f(s_i) over the letters of w, with the Fox derivatives of the
    relator as coefficients (Fox, "Free differential calculus I", Ann. Math.
    1953): r rows of Python ints over the len(gens) * r unknowns f(s).
    """
    width = len(gens) * r
    nonzeros = {}  # g -> rho(g) as sparse rows [(column, value), ...]
    constraints = []
    for w in relators:
        block = [[0] * width for _ in range(r)]
        for i, h, inverted in relator_letters(gamma, gens, w):
            nz = nonzeros.get(h)
            if nz is None:
                nz = nonzeros[h] = [
                    [(c, v) for c, v in enumerate(row) if v] for row in mats[h]
                ]
            off, sign = i * r, -1 if inverted else 1
            for row, rho_row in zip(block, nz):
                for c, v in rho_row:
                    row[off + c] += sign * v
        constraints.extend(block)
    return constraints


def stack(mats) -> tuple:
    """The matrices one below the other."""
    return tuple(row for m in mats for row in m)


def minus_identity(matrix) -> tuple:
    """The matrix less the identity, as int-tuple rows."""
    return tuple(row[:i] + (row[i] - 1,) + row[i + 1 :] for i, row in enumerate(matrix))


def h1_from_rows(mats, gens, rows) -> co.CohomologyGroup:
    """H^1 by the cocycle lattice: Z^1 is the saturated kernel of the
    constraint rows on the values at gens, and one SNF of the coboundaries'
    coordinates in it gives the invariants.  |gamma| kills H^1, so a free
    factor means the matrices are no action (NotAction)."""
    r, k = len(mats[0]), len(gens)
    # repeated and zero rows add no condition; W Z = I: the coboundaries'
    # coordinates below need no second SNF
    rows = [row for row in dict.fromkeys(map(tuple, rows)) if any(row)]
    Z, W = la.saturated_kernel(rows or [(0,) * (k * r)])
    z = la.width(Z)
    if z == 0:
        return co.CohomologyGroup(())
    # coboundaries: values (rho(s) - 1) m on the generators
    Y = coordinates(Z, W, stack(minus_identity(mats[s]) for s in gens))
    if Y is None:
        # every coboundary is a cocycle when the matrices form an action
        raise gr.NotAction("coboundaries must lie in the cocycle lattice")
    s = la.smith_normal_form(Y, transforms=())
    if s.rank < z:
        raise gr.NotAction("H^1 has a free factor: the matrices are no action")
    return co.CohomologyGroup(tuple(sorted(d for d in s.diagonal if d != 1)))


def h1_by_relators(gamma, lattice, presentation=schreier_presentation) -> co.CohomologyGroup:
    """Lattice H^1 by a second route, independent of the coboundary SNF of
    cohomology.h1_abelian: the relator rows of presentation(gamma), by
    default every Schreier relator, their saturated kernel, the
    coboundaries' coordinates in it and an SNF."""
    if lattice.rank == 0:
        return co.CohomologyGroup(())
    gens, relators = presentation(gamma)
    rows = relator_rows(gamma, lattice.rho, lattice.rank, gens, relators)
    return h1_from_rows(lattice.rho, gens, rows)


def permutation_lattice_reference(x: gs.GSet) -> lt.ZGLattice:
    """The permutation lattice of x by placing, for each g, the unit row e_j
    at row g.j of rho(g), one point at a time."""
    units = la.identity(x.size)
    mats = []
    for perm in x.action:
        rows = [None] * x.size
        for j, i in enumerate(perm):
            rows[i] = units[j]
        mats.append(tuple(rows))
    return lt.ZGLattice(x.group, mats, validate=False)


def matrix_twin(m: lt.ZGLattice) -> lt.ZGLattice:
    """m's action given by its matrices and validated: the input of the
    matrix routes, for a lattice given by points."""
    return lt.ZGLattice(m.group, m.rho)


def zero_lattice(g: gr.FiniteGroup) -> lt.ZGLattice:
    return lt.ZGLattice(g, [()] * g.order, validate=False)


def zero_map(source: lt.ZGLattice, target: lt.ZGLattice) -> lt.LatticeMap:
    return lt.LatticeMap(source, target, ((0,) * source.rank,) * target.rank)


def serre_sequence_by_restriction(d) -> "sr.SequenceReport":
    """serre.verify_serre_sequence by a second route: X*(S) and X*(Sbar) as
    the equivariant sublattices of build_serre, with their restricted
    actions, and each whole sequence, zero lattices at both ends, decided by
    lattices.exactness_report."""
    data = sr.build_serre(d)
    g = d.group
    n = g.order
    sigma_f, coset_index, _ = sr._coset_restriction(d)
    f_lat = lt.permutation_lattice(sigma_f)
    zero = zero_lattice(g)
    # with the constants axis: (m, c) -> (sum over the fibre) - c
    eta = sr._fibre_sums(coset_index, n + 1, f_lat.rank)
    for row in eta:
        row[n] = -1
    exact = []
    for sub, inclusion, middle, E in (
        (data.xs, data.xs_inclusion, data.ambient, eta),
        (data.xsbar, data.xsbar_inclusion, data.regular,
         sr._fibre_sums(coset_index, n, f_lat.rank)),
    ):
        rep = lt.exactness_report([
            zero_map(zero, sub),
            inclusion,
            lt.LatticeMap(middle, f_lat, E),
            zero_map(f_lat, zero),
        ])
        exact.append(rep.exact)
    ranks = (data.xs.rank, data.ambient.rank, f_lat.rank)
    law = ranks == (d.half_order + 1, 2 * d.half_order + 1, d.half_order)
    return sr.SequenceReport(ranks, law, *exact)


def xsbar_twist_by_restriction(d) -> tuple:
    """(m, f, nu, K) for the twist of X*(Sbar) by restriction: m is X*(Sbar)
    inside the right-regular lattice with the restricted action
    (lattices.equivariant_sublattice), f the tautological cocycle, nu the
    left translations restricted to m, as a validated lattice, and K the
    inclusion."""
    g = d.group
    m, inc = lt.equivariant_sublattice(sr._right_regular(g), sr._pair_equations(d, False))
    left = la.restricted_action(*la._pair_rows(inc.matrix, inc.retraction),
                                sr._left_regular(g).rho)
    if left is None:
        raise sr.InvalidDatum("left translation does not preserve X*(Sbar)")
    taut = co.CrossedHom(g, co.trivial_gamma_group(g, g), tuple(g.elements()))
    return m, taut, lt.ZGLattice(g, left), inc.matrix


def twist_serre_by_restriction(d) -> "sr.TwistedSequence":
    """serre.twist_serre by restriction: the three lattices of the quotient
    sequence twisted apart, X*(Sbar) with the twist of its restricted right
    and left translations (xsbar_twist_by_restriction), and the whole
    sequence, zero lattices at both ends, decided by
    lattices.exactness_report."""
    g = d.group
    n = g.order
    sigma_f, coset_index, reps = sr._coset_restriction(d)
    m = sigma_f.size
    right_cosets = [
        [coset_index[g.mul(reps[c], g.inv(t))] for c in range(m)] for t in g.elements()
    ]
    sub, taut, left_sub, K = xsbar_twist_by_restriction(d)
    tw_middle = co.twist_lattice(sr._right_regular(g), taut, sr._left_regular(g))
    tw_quotient = co.twist_lattice(lt.permutation_lattice(gs.GSet(g, right_cosets)), taut,
                                   lt.permutation_lattice(sigma_f))
    tw_sub = co.twist_lattice(sub, taut, left_sub)
    coset_conj = [[coset_index[g.conj(t, reps[c])] for c in range(m)] for t in g.elements()]
    sub_inc = lt.LatticeMap(tw_sub, tw_middle, K)
    res_map = lt.LatticeMap(tw_middle, tw_quotient, sr._fibre_sums(coset_index, n, m))
    zero = zero_lattice(g)
    rep = lt.exactness_report(
        [zero_map(zero, tw_sub), sub_inc, res_map, zero_map(tw_quotient, zero)]
    )
    return sr.TwistedSequence(
        d, tw_middle, tw_sub, sub_inc, tw_quotient, res_map,
        tw_middle == lt.permutation_lattice(gs.conjugation_twist(g)),
        tw_quotient == lt.permutation_lattice(gs.GSet(g, coset_conj)),
        rep.exact,
        g.is_abelian() and all(rho == la.identity(n) for rho in tw_middle.rho),
    )


def coordinates(K, W, V) -> tuple | None:
    """The X with K X == V, or None, for a basis K whose retraction is W,
    W K = I; all three are int-tuple rows.  X = W V is the only candidate,
    so multiplying and checking K X == V (la._retract) gives
    solve_int(K, V)'s answer.  The library calls la._retract on rows it
    has read once; the tests solve through this whole-matrix entry."""
    k, w = la._pair_rows(K, W)
    if len(V) != len(K):
        raise ValueError("rhs must have as many rows as the basis")
    X = la._retract(k, w, la._sparse(V))
    return None if X is None else la._dense(X, la.width(V))


def joint_by_coordinates(F, G, rank: int) -> lt.JointReport:
    """lattices.joint_report by a second kernel: the coordinates X of im f in
    the saturated kernel K of g exist exactly when g f == 0, and then ker g
    / im f is the cokernel of X.  A free factor of it breaks equality after
    saturation, and any factor breaks integral equality.  Where a lattice is
    zero the joint is read off the shapes: with no columns in F, im f = 0
    and the joint is exact iff g is injective; with no rows in G, ker g is
    everything and X = F."""
    if not la.width(F):
        injective = rank == 0 or (bool(G) and la.smith_normal_form(G, transforms=()).rank == rank)
        return lt.JointReport(True, injective, injective)
    if G:
        K, W = la.saturated_kernel(G)
        X = coordinates(K, W, F)
        if X is None:
            return lt.JointReport(False, False, False)
    else:
        X = F
    s = la.smith_normal_form(X, transforms=())
    free = s.rank < len(X)
    return lt.JointReport(True, not free, not free and all(d in (0, 1) for d in s.diagonal))


def kernel_sequence_of(K, W, E) -> bool:
    """lattices.kernel_sequence_exact on whole matrices: the nonzeros of the
    rows of K and W read as the library reads them (la._pair_rows, which
    raises ValueError unless W has the transposed shape of K), and K's
    width given."""
    return lt.kernel_sequence_exact(*la._pair_rows(K, W), la.width(K), E)


def kernel_sequence_by_joint(K, W, E) -> bool:
    """lattices.kernel_sequence_exact by a second kernel: W K == I against a
    built identity, the joint at M by joint_by_coordinates, and E onto when
    its columns span every unit vector."""
    return (
        la.matmul(W, K) == la.identity(la.width(K))
        and joint_by_coordinates(K, E, len(K)).exact
        and la.lattice_contains(E, la.identity(len(E)))
    )


def basis_verdict_by_coordinates(K, W, vectors) -> tuple:
    """(in_lattice, is_basis) of serre._type_verdict by coordinates: the
    vectors against the lattice spanned by the columns of K, whose
    retraction is W, decided by their coordinates X and the SNF of X."""
    X = coordinates(K, W, la.transpose(vectors))
    if X is None:
        return False, False
    r = la.width(K)
    s = la.smith_normal_form(X, transforms=())
    return True, (
        len(X) == la.width(X) == r
        and s.rank == r
        and all(dd == 1 for dd in s.diagonal)
    )


def basis_images(mat) -> list:
    """The images mat e_j of the basis vectors: the columns of mat, read
    entry by entry."""
    return [tuple(row[j] for row in mat) for j in range(len(mat))]


def apply_to(mat, v) -> tuple:
    """mat v for a column vector v, by explicit loops over the entries."""
    out = []
    for row in mat:
        total = 0
        for a, b in zip(row, v):
            total += a * b
        out.append(total)
    return tuple(out)


def rho_law_by_basis_images(g: gr.FiniteGroup, mats) -> None:
    """ValueError unless the matrices are an action of g, read on the basis
    vectors with no matrix product: rho(1) e_j = e_j, and rho(s) (rho(h) e_j)
    = rho(s h) e_j for each s in generating_set(g), every h and every j
    (lattices.check_rho multiplies rho(s) rho(h) out by la.matmul)."""
    rank = len(mats[0])
    if basis_images(mats[0]) != [tuple(int(i == j) for i in range(rank)) for j in range(rank)]:
        raise ValueError("identity must act as the identity matrix")
    images = [basis_images(m) for m in mats]
    for s in gr.generating_set(g):
        for h, sh in enumerate(g.rows[s]):
            if [apply_to(mats[s], v) for v in images[h]] != images[sh]:
                raise ValueError("rho is not multiplicative")


def twist_lattice_by_basis_images(m: lt.ZGLattice, f: co.CrossedHom,
                                  nu: lt.ZGLattice) -> lt.ZGLattice:
    """cohomology.twist_lattice on the matrices of m and of the auxiliary
    action nu, read on the basis vectors with no matrix product: the
    compatibility nu(s . x) (rho(s) e_j) == rho(s) (nu(x) e_j) at every
    generator s, value x and basis vector e_j; then rho'(t) e_j =
    nu(f(t)) (rho(t) e_j), and the action law of rho' by
    rho_law_by_basis_images.  The result is built unchecked, so neither
    la.matmul nor check_rho decides anything here."""
    n = f.coefficient
    gamma = m.group
    if nu.group != n.underlying:
        raise co.NotAction("the auxiliary action is not over the value group")
    if n.gamma != gamma:
        raise co.NotAction("cocycle and lattice have different acting groups")
    if nu.rank != m.rank:
        raise co.NotAction("the auxiliary action must match the lattice rank")
    mu, rho = nu.rho, m.rho
    for s in gr.generating_set(gamma):
        for x in n.underlying.elements():
            lhs = [apply_to(mu[n.act(s, x)], v) for v in basis_images(rho[s])]
            rhs = [apply_to(rho[s], v) for v in basis_images(mu[x])]
            if lhs != rhs:
                raise co.NotAction("auxiliary action incompatible with the twist")
    twisted = []
    for t in gamma.elements():
        cols = [apply_to(mu[f(t)], v) for v in basis_images(rho[t])]
        twisted.append(tuple(zip(*cols)))
    try:
        rho_law_by_basis_images(gamma, twisted)
    except ValueError as e:
        raise co.NotAction(str(e)) from e
    return lt.ZGLattice(gamma, twisted, validate=False)


def closure_from_identity(g: gr.FiniteGroup, gens) -> tuple:
    """<gens>, closed from {0} under right multiplication by gens."""
    elems = {0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for s in gens:
                y = g.mul(x, s)
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return tuple(sorted(elems))


def all_subgroups_by_closure(g: gr.FiniteGroup) -> tuple:
    """groups.all_subgroups, closing <H, x> from {0} for every subgroup H and
    every x outside it."""
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        new = []
        for h in frontier:
            for x in g.elements():
                if x in h:
                    continue
                k = closure_from_identity(g, list(h) + [x])
                if k not in found:
                    found.add(k)
                    new.append(k)
        frontier = new
    return tuple(sorted(found, key=lambda h: (len(h), h)))


def subgroup_generating_set_by_closure(g: gr.FiniteGroup, elems) -> tuple:
    """groups.subgroup_generating_set, re-closing from {0} at each greedy step."""
    gens = []
    current = (0,)
    for x in elems:
        if x not in current:
            gens.append(x)
            current = closure_from_identity(g, gens)
            if len(current) == len(elems):
                break
    changed = True
    while changed:
        changed = False
        for i in range(len(gens)):
            trial = gens[:i] + gens[i + 1 :]
            if trial and len(closure_from_identity(g, trial)) == len(elems):
                gens = trial
                changed = True
                break
    return tuple(gens) or (0,)


def period_expansion_by_rotations(cosets, m: int) -> list:
    """prod (T - eta_j) over the Gaussian periods of the cosets, expanded in
    Z[x]/(x^m - 1): the T^i coefficient as its m coefficients, for
    i = 0..d.  c times the period of a coset is the sum of c shifted
    cyclically by each k in the coset."""
    zero = [0] * m
    coeffs = [[1] + zero[1:]]  # polynomial "1" in T
    for coset in cosets:
        times_eta = [
            [sum(col) for col in zip(*(c[m - k:] + c[:m - k] for k in coset))]
            for c in coeffs
        ]
        coeffs = [
            [a - b for a, b in zip(hi, lo)]
            for hi, lo in zip([zero] + coeffs, times_eta + [zero])
        ]
    return coeffs


def period_polynomial_by_rotations(fld: nt.AbelianFieldDatum) -> tuple:
    """numtheory.abelian_defining_polynomial(fld).poly, expanded by rotations
    and each T coefficient reduced by a division by Phi_m over Z."""
    fld = nt.reduce_to_conductor(fld)
    m = fld.conductor
    if m == 1 or fld.degree == 1:
        return (0, 1)
    phi = nt.cyclotomic_polynomial(m)
    out = []
    for c in period_expansion_by_rotations(nt._period_cosets(fld), m):
        _, r = poly_divmod(c, phi)
        if len(r) > 1:
            raise ValueError("period polynomial coefficient is not rational")
        out.append(r[0] if r else 0)
    return tuple(out)


def witness_lists_by_definition(system, family, family_prime) -> list:
    """Each level's witnesses: the a with a^-1 f(t) (t . a) = f'(t) for
    every t, tested one by one."""
    lists = []
    for n, f, fp in zip(system.levels, family, family_prime):
        und = n.underlying
        lists.append([a for a in und.elements() if all(
            und.mul(und.mul(und.inv(a), f.values[t]), n.act(t, a)) == fp.values[t]
            for t in system.gamma.elements())])
    return lists


def least_non_witness(f, found) -> tuple:
    """The least element of f's coefficient group outside `found`, as a
    1-tuple, or () when there is none."""
    return tuple(a for a in f.coefficient.underlying.elements() if a not in found)[:1]


def padded_with_a_non_witness(level_witnesses):
    """level_witnesses with each level's list followed by its least
    non-witness, where the level has one: a negative control, since a
    non-witness a_n below the top puts e_n outside the fixed group."""
    def padded(f, fp):
        found = level_witnesses(f, fp)
        return found + least_non_witness(f, found)

    return padded


def lim1_obstruction_per_choice(system, family, family_prime, witnesses) -> co.ObstructionReport:
    """The truncated lim^1 obstruction of one choice of level witnesses, by
    the route that took each choice apart: both families checked and each
    level's twisted fixed group found again for every choice, the fixed
    group read off its definition f(t) (t . x) f(t)^-1 = x.  The witnesses
    are taken as given, so a non-witness yields its (nontrivial) report."""
    co.check_family(system, family)
    co.check_family(system, family_prime)
    fixed = []
    for n, f in zip(system.levels, family):
        und = n.underlying
        fixed.append({x for x in und.elements() if all(
            und.mul(und.mul(f.values[t], n.act(t, x)), und.inv(f.values[t])) == x
            for t in system.gamma.elements())})
    N = len(system) - 1
    obstruction = []
    member_ok = True
    for i in range(N):
        u = system.transitions[i]
        und = system.levels[i].underlying
        e = und.mul(witnesses[i], und.inv(u(witnesses[i + 1])))
        obstruction.append(e)
        member_ok = member_ok and (e in fixed[i])
    # solve e_n = c_n * u(c_{n+1})^-1 inside the fixed groups, top down
    cs = [None] * len(system)
    cs[-1] = 0
    ok = True
    for i in range(N - 1, -1, -1):
        und = system.levels[i].underlying
        c = und.mul(obstruction[i], system.transitions[i](cs[i + 1]))
        if c not in fixed[i]:
            ok = False
            break
        cs[i] = c
    if ok:
        for i in range(N):
            und = system.levels[i].underlying
            u = system.transitions[i]
            ok = ok and obstruction[i] == und.mul(cs[i], und.inv(u(cs[i + 1])))
    return co.ObstructionReport(tuple(witnesses), tuple(obstruction), member_ok,
                                ok and member_ok, tuple(cs) if ok else ())
