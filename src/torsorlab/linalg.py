"""Exact integer matrix algebra: Smith normal form, kernels, lattice arithmetic.

All matrices are numpy arrays with dtype=object so entries are unbounded
Python ints; SNF intermediates blow up well past 64 bits even at modest rank.

A kernel that saturated_kernel computes comes with its retraction, an
integral left inverse W of the basis K, from the same SNF.  Solving against
K is then a multiply-and-check (coordinates, restricted_action): X = W V is
the only candidate and K X == V decides, so no further SNF is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def intmat(rows) -> np.ndarray:
    """Build a 2-d object-dtype integer matrix from nested sequences."""
    a = np.array(rows, dtype=object)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1) if a.size else a.reshape(0, 0)
    return a


def zeros(m: int, n: int) -> np.ndarray:
    a = np.empty((m, n), dtype=object)
    a[:] = 0
    return a


def identity(n: int) -> np.ndarray:
    a = zeros(n, n)
    for i in range(n):
        a[i, i] = 1
    return a


def mat_eq(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.equal(a, b).all())


def is_zero(a: np.ndarray) -> bool:
    return a.size == 0 or bool(np.equal(a, 0).all())


SNF_TRANSFORMS = ("left", "right", "left_inv", "right_inv")


@dataclass(frozen=True)
class SNFResult:
    """left @ matrix @ right == diag(diagonal); transforms unimodular.

    left_inv and right_inv are the tracked inverses of the transforms;
    they make column-space and solving computations cheap.  A transform
    the caller did not ask `smith_normal_form` for is None.
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
    src = intmat(matrix)
    m, n = src.shape
    A = src.tolist()

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
                if any(row[j] % piv for j in range(t + 1, n)):
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


def kernel_basis(matrix) -> np.ndarray:
    """Columns form a basis of {x : A x = 0}; the lattice is saturated."""
    s = smith_normal_form(matrix, transforms=("right",))
    return s.right[:, s.rank :].copy()


def saturated_kernel(matrix) -> tuple[np.ndarray, np.ndarray]:
    """(K, W): the columns of K are a basis of {x : A x = 0}, and W K = I.

    One SNF L A R = D gives both (Cohen, GTM 138, §2.4): K is the last
    columns of R, the kernel_basis of A, and W the matching rows of R^-1.
    W is an integral left inverse of K, its retraction, so K is saturated
    and `coordinates(K, W, V)` solves K X = V without a further SNF.
    """
    s = smith_normal_form(matrix, transforms=("right", "right_inv"))
    return s.right[:, s.rank :].copy(), s.right_inv[s.rank :, :].copy()


def _sparse(a: np.ndarray) -> list:
    # each row of a 2-d array as its nonzeros [(column, value), ...]
    rows = [[] for _ in range(a.shape[0])]
    i, j = np.nonzero(a != 0)
    for r, c, v in zip(i.tolist(), j.tolist(), a[i, j].tolist()):
        rows[r].append((c, v))
    return rows


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


def _retract(K, W, V) -> list | None:
    # X = W V if K X == V, else None
    X = _times(W, V)
    return X if _times(K, X) == V else None


def _dense(rows, m, n) -> np.ndarray:
    out = zeros(m, n)
    for i, nz in enumerate(rows):
        for c, v in nz:
            out[i, c] = v
    return out


def _basis_pair(basis, retraction):
    K, W = intmat(basis), intmat(retraction)
    if W.shape != K.shape[::-1]:
        raise ValueError("the retraction must have the transposed shape of the basis")
    return K, W


def coordinates(basis, retraction, rhs) -> np.ndarray | None:
    """The X with basis @ X == rhs, or None; retraction @ basis must be I.

    A left inverse W of K leaves X = W V as the only candidate, so
    multiplying and checking K X == V gives solve_int(K, V)'s answer, the
    unique one, from two products over the nonzeros of the rows instead of
    an SNF.
    """
    K, W = _basis_pair(basis, retraction)
    V = intmat(rhs)
    if V.shape[0] != K.shape[0]:
        raise ValueError("rhs must have as many rows as the basis")
    X = _retract(_sparse(K), _sparse(W), _sparse(V))
    return None if X is None else _dense(X, W.shape[0], V.shape[1])


def restricted_action(basis, retraction, mats) -> list | None:
    """[W M K for M in mats], or None unless every M maps the column lattice
    of K = basis into itself; retraction W is a left inverse of K.

    M K lies in that lattice exactly when K (W M K) == M K, so each matrix
    returned is the unique integer one with K X == M K, as coordinates
    gives it.
    """
    K, W = _basis_pair(basis, retraction)
    n, r = K.shape
    mats = [np.asarray(M, dtype=object) for M in mats]
    if any(M.shape != (n, n) for M in mats):
        raise ValueError("each matrix must be square of the basis's height")
    k_rows = _sparse(K)
    # V = [M_0 K | M_1 K | ...] side by side, so one retraction serves all
    products = _times(_sparse(np.concatenate(mats)), k_rows)
    V = [[] for _ in range(n)]
    for g in range(len(mats)):
        off = g * r
        for row, nz in zip(V, products[g * n : (g + 1) * n]):
            row.extend([(c + off, x) for c, x in nz])
    X = _retract(k_rows, _sparse(W), V)
    if X is None:
        return None
    X = _dense(X, r, r * len(mats))
    return [X[:, g * r : (g + 1) * r] for g in range(len(mats))]


def solve_int(matrix, rhs) -> np.ndarray | None:
    """One integer solution X of A X = B, or None. B may be a matrix."""
    A = intmat(matrix)
    B = intmat(rhs)
    s = smith_normal_form(A, transforms=("left", "right"))
    n = A.shape[1]
    X = zeros(n, B.shape[1])
    for i, row in enumerate((s.left @ B).tolist()):
        d = s.diagonal[i] if i < len(s.diagonal) else 0
        if d == 0:
            if any(row):
                return None
        elif any(v % d for v in row):
            return None
        else:
            X[i, :] = [v // d for v in row]
    return s.right @ X


def column_space_basis(matrix) -> np.ndarray:
    """Basis (as columns) of the lattice spanned by the columns of A."""
    A = intmat(matrix)
    s = smith_normal_form(A, transforms=("left_inv",))
    r = s.rank
    cols = []
    for i in range(r):
        cols.append(s.left_inv[:, i] * s.diagonal[i])
    if not cols:
        return zeros(A.shape[0], 0)
    return np.stack(cols, axis=1)


def lattice_contains(basis: np.ndarray, vectors) -> bool:
    """Do all columns of `vectors` lie in the column lattice of `basis`?"""
    V = intmat(vectors)
    if V.ndim == 1:
        V = V.reshape(-1, 1)
    if V.shape[1] == 0:
        return True
    if basis.shape[1] == 0:
        return is_zero(V)
    return solve_int(basis, V) is not None


def lattice_eq(b1: np.ndarray, b2: np.ndarray) -> bool:
    return lattice_contains(b1, b2) and lattice_contains(b2, b1)


def lattice_index(big: np.ndarray, small: np.ndarray):
    """Index [big : small] for sublattices of equal rank, else None."""
    X = solve_int(big, small)
    if X is None:
        return None
    s = smith_normal_form(X, transforms=())
    if s.rank < big.shape[1] or big.shape[1] != small.shape[1]:
        return None
    idx = 1
    for d in s.diagonal:
        idx *= d
    return abs(idx) if idx else None


def saturation(basis: np.ndarray) -> np.ndarray:
    """Basis of (ℚ-span of the columns) ∩ ℤ^m."""
    B = intmat(basis)
    if B.shape[1] == 0:
        return B.copy()
    K = kernel_basis(B.T)  # columns y with B^T y = 0
    return kernel_basis(K.T)


def bareiss_det(matrix):
    """Fraction-free determinant; independent of the SNF path."""
    A = [list(map(int, row)) for row in intmat(matrix)]
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
    A = intmat(matrix)
    return A.shape[0] == A.shape[1] and abs(bareiss_det(A)) == 1


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

    def relation_matrix(self) -> np.ndarray:
        n = self.ngens
        a = zeros(n, n)
        for i, d in enumerate(self.relations):
            a[i, i] = d
        return a


def cokernel_invariants(matrix, ambient_rank: int | None = None) -> tuple:
    """Elementary divisors of ℤ^m / (column span of A), 1-entries dropped.

    Trailing zeros mark free factors.
    """
    A = intmat(matrix)
    m = A.shape[0] if ambient_rank is None else ambient_rank
    s = smith_normal_form(A, transforms=())
    divs = [d for d in s.diagonal if d not in (0, 1)]
    free = m - s.rank
    return tuple(divs) + (0,) * free
