"""Exact integer matrix algebra: Smith normal form, kernels, lattice arithmetic.

A matrix is a tuple of rows, each a tuple of Python ints, so entries are
unbounded; SNF intermediates blow up well past 64 bits even at modest rank.
A matrix with no rows is 0 x 0: for no equations on n unknowns, callers
pass one zero row of length n, which has the same kernel.  int_rows is the
one conversion from nested sequences; the functions that factor read their
input through it, while matmul, which only multiplies, takes rows as given,
and restricted_action takes the nonzeros of a basis's rows (_pair_rows).
One trusted hand-off skips that read:
_divisors, the body of elementary_divisors, to which cohomology.h1_abelian
passes the int lists of rho(s) - I that it builds from a lattice's rows,
read when the lattice was made.  The SNFResult transforms are int-tuple
rows as well.

Both reads of the Smith form that the verifier makes eliminate the unit
pivots first (_unit_pivots) and hand the SNF only the unit-free remainder.
Every rank, unit count, index and H^1 invariant is read off
elementary_divisors, which needs no transform: each unit pivot splits off a
summand (1), and the remainder goes to a transform-free SNF.  The product
of the divisors of a generating matrix is the index of its column lattice
in its saturation, so for L' ⊆ L of equal rank, [L : L'] is the quotient of
the products of L' and of L (invsys reads its chains so).  A kernel that
saturated_kernel computes comes with its retraction, an integral left
inverse W of the basis K: the pivot rows give K by back-substitution, and
only the remainder, on the columns without a pivot, goes to an SNF that
tracks R and R^-1.  The matrices the verifier reads (signed incidence rows,
0/1 type vectors, the pair equations of the Serre lattices) leave nothing
to it on the suite's cases.

Solving against K is then a multiply-and-check (_retract): X = W V is the
only candidate and K X == V decides, so no further SNF is needed.  It runs
on the nonzeros of the rows (_sparse), which _pair_rows reads once for a
basis K and its retraction W, after checking their shapes, and every
consumer takes as read: restricted_action for its matrices, serre's weight
checks (_weights_on_rows), and the products W K and E K of each sequence
(lattices.kernel_sequence_exact), so that twist_serre restricts its action
and decides its sequence on one read.  kernel_basis reads a kernel off one SNF
of the whole matrix; it is the oracle of saturated_kernel.  solve_int,
column_space_basis and lattice_contains track transforms and have no caller
in the verifier: the tests keep them as the reference route.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from operator import index


def int_rows(matrix) -> tuple:
    """The matrix as a tuple of int tuples; ValueError unless it is a nested
    sequence of integers with rows of equal length."""
    return tuple(_rows(matrix, tuple))


def _rows(matrix, make) -> list:
    # the rows, each made from its entries read through operator.index
    try:
        rows = [make(map(index, row)) for row in matrix]
    except TypeError as e:
        raise ValueError("a matrix is a sequence of equal-length rows of integers") from e
    if rows and len(set(map(len, rows))) > 1:
        raise ValueError("a matrix is a sequence of equal-length rows of integers")
    return rows


def width(matrix) -> int:
    """The number of columns; 0 for a matrix with no rows."""
    return len(matrix[0]) if matrix else 0


def identity(n: int) -> tuple:
    zero = (0,) * n
    return tuple(zero[:i] + (1,) + zero[i + 1 :] for i in range(n))


def transpose(matrix) -> tuple:
    return tuple(zip(*matrix))


def columns(matrix, start: int, stop: int | None = None) -> tuple:
    """The columns start..stop-1 of the matrix."""
    return tuple(tuple(row[start:stop]) for row in matrix)


def beside(mats) -> tuple:
    """The matrices side by side; they have equally many rows."""
    return tuple(tuple(chain.from_iterable(rows)) for rows in zip(*mats))


def matmul(a, b) -> tuple:
    """The product A B, over the nonzeros of the rows of A and of B."""
    if a and width(a) != len(b):
        raise ValueError("the inner dimensions of a product must agree")
    return _dense(_times(_sparse(a), _sparse(b)), width(b))


SNF_TRANSFORMS = ("left", "right", "right_inv")


@dataclass(frozen=True)
class SNFResult:
    """left @ matrix @ right == diag(diagonal); transforms unimodular.

    right_inv is the tracked inverse of right, the retraction of a kernel
    basis (saturated_kernel).  The transforms are int-tuple rows; one the
    caller did not ask `smith_normal_form` for is None.
    """

    diagonal: tuple
    left: tuple | None
    right: tuple | None
    right_inv: tuple | None

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _pivot(A, t, n):
    # smallest nonzero absolute value, ties broken row-major: deterministic
    best = None
    for i in range(t, len(A)):
        row = A[i]
        for j in range(t, n):
            v = row[j]
            if v:
                a = -v if v < 0 else v
                if best is None or a < best[0]:
                    if a == 1:
                        return i, j
                    best = (a, i, j)
    return (best[1], best[2]) if best else None


def _identity_rows(n: int) -> list:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _add_row(rows, i, j, q):
    # rows[i] += q * rows[j]
    rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]


def smith_normal_form(matrix, *, transforms=SNF_TRANSFORMS) -> SNFResult:
    """Smith normal form over the integers.

    `transforms` names the transforms to track, among SNF_TRANSFORMS; the
    others are returned as None and cost nothing.  The pivots and the
    operations, hence the diagonal and every tracked transform, do not
    depend on which transforms are tracked.
    """
    unknown = set(transforms) - set(SNF_TRANSFORMS)
    if unknown:
        raise ValueError(f"unknown transforms {sorted(unknown)}")
    A = _rows(matrix, list)
    m, n = len(A), width(A)

    def track(name, size):
        return _identity_rows(size) if name in transforms else None

    # R is kept transposed, so every update is a row update: a row op on A
    # is a row op on L, a column op a row op on the rows of R^T and on Ri
    L = track("left", m)
    RT, Ri = track("right", n), track("right_inv", n)
    # what a row swap or sign change of A moves along, and a column swap
    with_rows = [M for M in (A, L) if M is not None]
    with_cols = [M for M in (RT, Ri) if M is not None]

    def row_op(i, j, q, cols):
        # row_i -= q * row_j; cols are the columns >= t where row_j is
        # nonzero, and both rows of A are zero left of column t
        Ai, Aj = A[i], A[j]
        for c in cols:
            Ai[c] -= q * Aj[c]
        if L is not None:
            _add_row(L, i, j, -q)

    t = 0
    while t < min(m, n):
        p = _pivot(A, t, n)
        if p is None:
            break
        i, j = p
        if i != t:
            for M in with_rows:
                M[i], M[t] = M[t], M[i]
        if j != t:
            for row in A:
                row[j], row[t] = row[t], row[j]
            for M in with_cols:
                M[j], M[t] = M[t], M[j]
        At = A[t]
        piv = At[t]
        # reduce column t; a nonzero remainder is smaller than the pivot,
        # so restarting with a fresh pivot terminates
        clean = True
        # row t does not change while column t is cleared
        cols = [c for c in range(t, n) if At[c]]
        for i in range(t + 1, m):
            if A[i][t]:
                q = A[i][t] // piv
                if q:
                    row_op(i, t, q, cols)
                if A[i][t]:
                    clean = False
        if not clean:
            continue
        for j in range(t + 1, n):
            if At[j]:
                q = At[j] // piv
                if q:
                    # column t is zero off the pivot, so of A only A[t, j] moves
                    At[j] -= q * piv
                    if RT is not None:
                        _add_row(RT, j, t, -q)
                    if Ri is not None:
                        _add_row(Ri, t, j, q)
                if At[j]:
                    clean = False
        if not clean:
            continue
        # divisibility: pivot must divide every remaining entry; a unit
        # pivot divides everything
        if piv not in (1, -1):
            fixed = False
            for i in range(t + 1, m):
                row = A[i]
                if any(v % piv for v in filter(None, row[t + 1 :])):
                    # add row i to row t, re-reduce
                    row_op(t, i, -1, [c for c in range(t, n) if row[c]])
                    fixed = True
                    break
            if fixed:
                continue
        if piv < 0:
            for M in with_rows:
                M[t] = [-a for a in M[t]]
        t += 1

    diag = tuple(A[i][i] for i in range(min(m, n)))

    def out(rows):
        return None if rows is None else tuple(map(tuple, rows))

    return SNFResult(diag, out(L), None if RT is None else transpose(RT), out(Ri))


def _unit_pivots(rows, pivots=None) -> int:
    """Eliminate the ±1 pivots of rows, a list of nonzero list rows, in
    place, and return how many were taken; with a list `pivots`, append
    each to it as (column, unit, nonzeros of the pivot row), in the order
    taken.  elementary_divisors needs the count alone, saturated_kernel
    the pivot rows.

    Take a pivot u = ±1 at (i, c), the first row holding a unit, its first
    1 or else its first -1: row i leaves `rows`, and row operations clear
    column c in every row that stays.  So each pivot row is zero in the
    columns of the pivots taken before it, and what stays in `rows` is
    zero in every pivot column and holds no unit, though some rows may now
    be zero (Dumas–Saunders–Villard, J. Symbolic Comput. 2001; Cohen,
    GTM 138, §2.4).
    """
    before = len(rows)
    while True:
        for i, r in enumerate(rows):
            if 1 in r:
                c = r.index(1)
                break
            if -1 in r:
                c = r.index(-1)
                break
        else:
            return before - len(rows)
        p = rows.pop(i)
        u = p[c]
        nz = list(compress(enumerate(p), p))
        for r in rows:
            if r[c]:
                q = r[c] * u
                for j, v in nz:
                    r[j] -= q * v
        if pivots is not None:
            pivots.append((c, u, nz))


def elementary_divisors(matrix) -> tuple:
    """The nonzero diagonal entries of the Smith normal form, each dividing
    the next; there are as many as the rank.  The one read of the Smith
    form that needs no transform.

    Unit pivots go first (_unit_pivots).  A pivot u = ±1 at (i, c) clears
    column c by row operations, and column operations then clear row i
    without touching any other row, because column c is zero there.  So
    A ~ (1) ⊕ A', and the divisors of A are one 1 followed by those of A'.
    Zero rows change no divisor and are dropped.  Only the unit-free
    remainder, if any row is left, goes to a transform-free SNF; a matrix
    with no rows or no columns has no divisors.
    """
    return _divisors([r for r in _rows(matrix, list) if any(r)])


def _divisors(rows) -> tuple:
    """elementary_divisors of the matrix whose nonzero rows are `rows`, int
    lists of equal length that it eliminates in place.  The hand-off that
    skips the read through _rows, for its two callers, which build the
    lists themselves: cohomology.h1_abelian from a lattice's rho, already
    read, and serre._type_verdict, the differences of the CM-type vectors
    from the last, after checking that they have one length."""
    units = _unit_pivots(rows)
    rows = [r for r in rows if any(r)]
    if not rows:
        return (1,) * units
    s = smith_normal_form(rows, transforms=())
    return (1,) * units + s.diagonal[: s.rank]


def kernel_basis(matrix) -> tuple:
    """Columns form a basis of {x : A x = 0}; the lattice is saturated.
    The kernel as one SNF reads it, kept as the oracle of saturated_kernel."""
    s = smith_normal_form(matrix, transforms=("right",))
    return columns(s.right, s.rank)


def saturated_kernel(matrix) -> tuple[tuple, tuple]:
    """(K, W): the columns of K are a basis of {x : A x = 0}, and W K = I.

    Unit pivots go first (_unit_pivots), and each pivot row p, with its
    unit u at column c, solves for x_c = -u (p x - u x_c) in terms of the
    columns right of the pivots taken before it.  What is left, zero in
    every pivot column, constrains only the free columns F, the ones that
    hold no pivot: restricted to them it goes to one SNF L A' R = D that
    tracks R and R^-1 (Cohen, GTM 138, §2.4), whose last columns of R are
    a basis K' of its kernel and the matching rows of R^-1 its retraction
    W', W' K' = I; with nothing left, K' = W' = I.  K is K' on the rows
    F, and back-substitution, in reverse pivot order, fills the pivot
    rows, so the kernel vectors are exactly those K gives and K is a
    basis.  W is W' on the columns F and 0 on the pivot columns, so
    W K = W' K' = I: W is an integral left inverse of K, its retraction,
    so K is saturated and K X = V is solved without a further SNF, as
    X = W V if K X == V (_retract).  A matrix that eliminates on its units
    alone, as every matrix of pair equations in serre does, takes no SNF.
    """
    rows = _rows(matrix, list)
    n = width(rows)
    rows = [r for r in rows if any(r)]
    pivots = []
    _unit_pivots(rows, pivots)
    bound = {c for c, _, _ in pivots}
    free = [j for j in range(n) if j not in bound]
    rest = [[r[j] for j in free] for r in rows if any(r)]
    if rest:
        s = smith_normal_form(rest, transforms=("right", "right_inv"))
        k_free = [row[s.rank :] for row in s.right]
        w_free = s.right_inv[s.rank :]
    else:
        k_free = _identity_rows(len(free))
        w_free = k_free
    k = len(w_free)
    K = [None] * n
    for j, row in zip(free, k_free):
        K[j] = row
    for c, u, nz in reversed(pivots):
        acc = [0] * k
        for j, v in nz:
            if j != c:
                q = -u * v
                for t, a in enumerate(K[j]):
                    if a:
                        acc[t] += q * a
        K[c] = acc
    W = []
    for w in w_free:
        row = [0] * n
        for j, v in zip(free, w):
            row[j] = v
        W.append(tuple(row))
    return tuple(map(tuple, K)), tuple(W)


def _sparse(matrix) -> list:
    # each row as its nonzeros [(column, value), ...]
    return [list(compress(enumerate(row), row)) for row in matrix]


def _times(a, b) -> list:
    # A @ B with every matrix as the nonzeros of its rows, by column
    out = []
    for nz in a:
        if len(nz) == 1:
            # a multiple of one row of B, often the row itself
            ((j, v),) = nz
            out.append(b[j] if v == 1 else [(c, v * w) for c, w in b[j]])
        elif nz:
            acc = {}
            for j, v in nz:
                for c, w in b[j]:
                    acc[c] = acc.get(c, 0) + v * w
            out.append(sorted((c, x) for c, x in acc.items() if x))
        else:
            out.append(nz)
    return out


def _dense(rows, n) -> tuple:
    out = []
    for nz in rows:
        row = [0] * n
        for c, v in nz:
            row[c] = v
        out.append(tuple(row))
    return tuple(out)


def _retract(K, W, V) -> list | None:
    # X = W V if K X == V, else None; all four as the nonzeros of their rows
    X = _times(W, V)
    return X if _times(K, X) == V else None


def _pair_rows(K, W) -> tuple:
    # the nonzeros of the rows of a basis K and of its retraction W, after
    # checking their shapes; with no columns K has no retraction rows, and
    # W is 0 x 0
    if (len(W), width(W) if W else len(K)) != (width(K), len(K)):
        raise ValueError("the retraction must have the transposed shape of the basis")
    return _sparse(K), _sparse(W)


def restricted_action(k, w, mats) -> list | None:
    """[W M K for M in mats], or None unless every M maps the column lattice
    of K into itself; W is a left inverse of K, k and w are the nonzeros of
    their rows as _pair_rows reads them, and each M is int-tuple rows.

    M K lies in that lattice exactly when K (W M K) == M K, so each matrix
    returned is the unique integer one with K X == M K (_retract).
    """
    # _pair_rows has checked that W has a row per column of K
    n, r = len(k), len(w)
    mats = tuple(mats)
    if any(len(M) != n or width(M) != n for M in mats):
        raise ValueError("each matrix must be square of the basis's height")
    # each distinct row of the M (of a permutation matrix: a unit row) is
    # multiplied by K once
    distinct = dict.fromkeys(chain.from_iterable(mats))
    product = dict(zip(distinct, _times(_sparse(distinct), k)))
    out = []
    for M in mats:
        X = _retract(k, w, [product[row] for row in M])
        if X is None:
            return None
        out.append(_dense(X, r))
    return out


def _quotient(s: SNFResult, B) -> list | None:
    # Y = D^-1 L B as sparse rows, one per nonzero d_i, for the SNF
    # L A R = D in s; None unless L B is divisible row by row, and zero past
    # the rank, which is when A X = B has an integer solution (X = R Y)
    if len(B) != len(s.left):
        raise ValueError("rhs must have as many rows as the matrix")
    Y = []
    for i, nz in enumerate(_times(_sparse(s.left), _sparse(B))):
        d = s.diagonal[i] if i < len(s.diagonal) else 0
        if d == 0:
            if nz:
                return None
        elif any(v % d for _, v in nz):
            return None
        else:
            Y.append([(c, v // d) for c, v in nz])
    return Y


def solve_int(matrix, rhs) -> tuple | None:
    """One integer solution X of A X = B, or None. B may be a matrix."""
    B = int_rows(rhs)
    s = smith_normal_form(matrix, transforms=("left", "right"))
    Y = _quotient(s, B)
    if Y is None:
        return None
    Y += [[]] * (len(s.right) - len(Y))
    return _dense(_times(_sparse(s.right), Y), width(B))


def column_space_basis(matrix) -> tuple:
    """Basis (as columns) of the lattice spanned by the columns of A: the
    first rank columns of A R.  From L A R = D they are those of L^-1 D, the
    d_i times independent columns of a unimodular matrix."""
    A = int_rows(matrix)
    s = smith_normal_form(A, transforms=("right",))
    return matmul(A, columns(s.right, 0, s.rank))


def lattice_contains(basis, vectors) -> bool:
    """Do all columns of `vectors` lie in the column lattice of `basis`?"""
    V = int_rows(vectors)
    if not width(V):
        return True
    if not width(basis):
        return not any(map(any, V))
    # solvable is all solve_int would say: no need to track R
    return _quotient(smith_normal_form(basis, transforms=("left",)), V) is not None

