"""Exact integer matrix algebra: Smith normal form, kernels, lattice arithmetic.

A matrix is a tuple of rows, each a tuple of Python ints, so entries are
unbounded; SNF intermediates blow up well past 64 bits even at modest rank.
A matrix with no rows is 0 x 0: for no equations on n unknowns, callers
pass one zero row of length n, which has the same kernel.  int_rows is the
one conversion from nested sequences; the functions that factor read their
input through it, while matmul, coordinates and restricted_action, which
only multiply, take rows as given.  The one exception to rows: the four
SNFResult transforms are numpy object arrays, which the `lattice snf`
report and the benchmark's tracer read; readers here take `tolist()` once.

A kernel that saturated_kernel computes comes with its retraction, an
integral left inverse W of the basis K, from the same SNF.  Solving against
K is then a multiply-and-check (coordinates, restricted_action): X = W V is
the only candidate and K X == V decides, so no further SNF is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from operator import index

import numpy as np


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
    if rows and any(len(r) != len(rows[0]) for r in rows):
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


def stack(mats) -> tuple:
    """The matrices one below the other."""
    return tuple(chain.from_iterable(mats))


def beside(mats) -> tuple:
    """The matrices side by side; they have equally many rows."""
    return tuple(tuple(chain.from_iterable(rows)) for rows in zip(*mats))


def matmul(a, b) -> tuple:
    """The product A B, over the nonzeros of the rows of A and of B."""
    if a and width(a) != len(b):
        raise ValueError("the inner dimensions of a product must agree")
    return _dense(_times(_sparse(a), _sparse(b)), width(b))


SNF_TRANSFORMS = ("left", "right", "left_inv", "right_inv")


@dataclass(frozen=True)
class SNFResult:
    """left @ matrix @ right == diag(diagonal); transforms unimodular.

    left_inv and right_inv are the tracked inverses of the transforms;
    they make column-space and solving computations cheap.  The transforms
    are numpy object arrays; one the caller did not ask `smith_normal_form`
    for is None.
    """

    diagonal: tuple
    left: np.ndarray | None
    right: np.ndarray | None
    left_inv: np.ndarray | None
    right_inv: np.ndarray | None

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

    # R and left_inv are kept transposed, so every update is a row update:
    # a row op on A is a row op on L and on the rows of Li^T, a column op
    # a row op on the rows of R^T and on Ri
    L, LiT = track("left", m), track("left_inv", m)
    RT, Ri = track("right", n), track("right_inv", n)
    # what a row swap or sign change of A moves along, and a column swap
    with_rows = [M for M in (A, L, LiT) if M is not None]
    with_cols = [M for M in (RT, Ri) if M is not None]

    def row_op(i, j, q, cols):
        # row_i -= q * row_j; cols are the columns >= t where row_j is
        # nonzero, and both rows of A are zero left of column t
        Ai, Aj = A[i], A[j]
        for c in cols:
            Ai[c] -= q * Aj[c]
        if L is not None:
            _add_row(L, i, j, -q)
        if LiT is not None:
            _add_row(LiT, j, i, q)

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

    def out(rows, size, transposed=False):
        if rows is None:
            return None
        a = np.array(rows, dtype=object).reshape(size, size)
        return a.T.copy() if transposed else a

    return SNFResult(
        diag, out(L, m), out(RT, n, True), out(LiT, m, True), out(Ri, n)
    )


def rank(matrix) -> int:
    return smith_normal_form(matrix, transforms=()).rank


def kernel_basis(matrix) -> tuple:
    """Columns form a basis of {x : A x = 0}; the lattice is saturated."""
    s = smith_normal_form(matrix, transforms=("right",))
    return columns(s.right.tolist(), s.rank)


def saturated_kernel(matrix) -> tuple[tuple, tuple]:
    """(K, W): the columns of K are a basis of {x : A x = 0}, and W K = I.

    One SNF L A R = D gives both (Cohen, GTM 138, §2.4): K is the last
    columns of R, the kernel_basis of A, and W the matching rows of R^-1.
    W is an integral left inverse of K, its retraction, so K is saturated
    and `coordinates(K, W, V)` solves K X = V without a further SNF.
    """
    s = smith_normal_form(matrix, transforms=("right", "right_inv"))
    W = tuple(map(tuple, s.right_inv.tolist()[s.rank :]))
    return columns(s.right.tolist(), s.rank), W


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
    # X = W V if K X == V, else None
    X = _times(W, V)
    return X if _times(K, X) == V else None


def _check_pair(K, W):
    # with no columns K has no retraction rows, and W is 0 x 0
    if (len(W), width(W) if W else len(K)) != (width(K), len(K)):
        raise ValueError("the retraction must have the transposed shape of the basis")


def coordinates(K, W, V) -> tuple | None:
    """The X with K X == V, or None; W K must be I.  All three are
    int-tuple rows, as saturated_kernel returns K and W.

    A left inverse W of K leaves X = W V as the only candidate, so
    multiplying and checking K X == V gives solve_int(K, V)'s answer, the
    unique one, from two products over the nonzeros of the rows instead of
    an SNF.
    """
    _check_pair(K, W)
    if len(V) != len(K):
        raise ValueError("rhs must have as many rows as the basis")
    X = _retract(_sparse(K), _sparse(W), _sparse(V))
    return None if X is None else _dense(X, width(V))


def restricted_action(K, W, mats) -> list | None:
    """[W M K for M in mats], or None unless every M maps the column lattice
    of K into itself; W is a left inverse of K, and all are int-tuple rows.

    M K lies in that lattice exactly when K (W M K) == M K, so each matrix
    returned is the unique integer one with K X == M K, as coordinates
    gives it.
    """
    _check_pair(K, W)
    n, r = len(K), width(K)
    mats = tuple(mats)
    if any(len(M) != n or width(M) != n for M in mats):
        raise ValueError("each matrix must be square of the basis's height")
    k_rows, w_rows = _sparse(K), _sparse(W)
    # each distinct row of the M (of a permutation matrix: a unit row) is
    # multiplied by K once
    distinct = dict.fromkeys(chain.from_iterable(mats))
    product = dict(zip(distinct, _times(_sparse(distinct), k_rows)))
    out = []
    for M in mats:
        X = _retract(k_rows, w_rows, [product[row] for row in M])
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
    for i, nz in enumerate(_times(_sparse(s.left.tolist()), _sparse(B))):
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
    return _dense(_times(_sparse(s.right.tolist()), Y), width(B))


def column_space_basis(matrix) -> tuple:
    """Basis (as columns) of the lattice spanned by the columns of A."""
    s = smith_normal_form(matrix, transforms=("left_inv",))
    d = s.diagonal[: s.rank]
    return tuple(
        tuple(v * di for v, di in zip(row, d)) for row in s.left_inv.tolist()
    )


def lattice_contains(basis, vectors) -> bool:
    """Do all columns of `vectors` lie in the column lattice of `basis`?"""
    V = int_rows(vectors)
    if not width(V):
        return True
    if not width(basis):
        return not any(map(any, V))
    # solvable is all solve_int would say: no need to track R
    return _quotient(smith_normal_form(basis, transforms=("left",)), V) is not None


def lattice_eq(b1, b2) -> bool:
    return lattice_contains(b1, b2) and lattice_contains(b2, b1)


def lattice_index(big, small):
    """Index [big : small] for sublattices of equal rank, else None."""
    X = solve_int(big, small)
    if X is None:
        return None
    s = smith_normal_form(X, transforms=())
    if s.rank < width(big) or width(big) != width(small):
        return None
    idx = 1
    for d in s.diagonal:
        idx *= d
    return abs(idx) if idx else None


def saturation(basis) -> tuple:
    """Basis of (ℚ-span of the columns) ∩ ℤ^m."""
    B = int_rows(basis)
    if not width(B):
        return B
    K = kernel_basis(transpose(B))  # columns y with B^T y = 0
    # no such y: the span is all of ℚ^m, whose zero row has kernel ℤ^m
    return kernel_basis(transpose(K) or ((0,) * len(B),))


def bareiss_det(matrix):
    """Fraction-free determinant; independent of the SNF path."""
    A = _rows(matrix, list)
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


def is_unimodular(matrix) -> bool:
    A = int_rows(matrix)
    return len(A) == width(A) and abs(bareiss_det(A)) == 1


@dataclass(frozen=True)
class FgAbelian:
    """Finitely generated abelian group ℤ^r / diag(relations)·ℤ^r.

    relation d_i == 0 marks a free coordinate, d_i > 0 a ℤ/d_i factor.
    """

    relations: tuple

    @property
    def ngens(self) -> int:
        return len(self.relations)

    @property
    def is_finite(self) -> bool:
        return all(d != 0 for d in self.relations)

    def order(self):
        if not self.is_finite:
            return None
        n = 1
        for d in self.relations:
            n *= d
        return n

    def reduce(self, vec):
        return tuple(
            int(v) % d if d else int(v) for v, d in zip(vec, self.relations)
        )

    def elements(self):
        if not self.is_finite:
            raise ValueError("infinite group")
        out = [()]
        for d in self.relations:
            out = [t + (k,) for t in out for k in range(d)]
        return out

    def relation_matrix(self) -> tuple:
        rel = self.relations
        return tuple(tuple(d if i == j else 0 for j in range(len(rel)))
                     for i, d in enumerate(rel))


def cokernel_invariants(matrix, ambient_rank: int | None = None) -> tuple:
    """Elementary divisors of ℤ^m / (column span of A), 1-entries dropped.

    Trailing zeros mark free factors.
    """
    s = smith_normal_form(matrix, transforms=())
    m = len(int_rows(matrix)) if ambient_rank is None else ambient_rank
    divs = [d for d in s.diagonal if d not in (0, 1)]
    free = m - s.rank
    return tuple(divs) + (0,) * free
