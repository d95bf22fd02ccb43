import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from torsorlab import groups as gr
from torsorlab import linalg as la
from test_cohomology import _np, _reference_tree_constraints, constraint_cases


def _np_identity(n: int) -> np.ndarray:
    return _np(la.identity(n))


def _reference_pivot(M, t):
    best = None
    m, n = M.shape
    for i in range(t, m):
        for j in range(t, n):
            v = M[i, j]
            if v != 0:
                a = -v if v < 0 else v
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        return best[1], best[2]
    return (best[1], best[2]) if best else None


def _reference_snf(matrix):
    """The first SNF: numpy object arrays, all four transforms, every step.

    Kept as the oracle of `la.smith_normal_form`, which must take the same
    pivots and operations and so return equal arrays.
    """
    A = _np(matrix)
    m, n = A.shape
    L, Li = _np_identity(m), _np_identity(m)
    R, Ri = _np_identity(n), _np_identity(n)

    def row_op(i, j, q):
        A[i, :] -= q * A[j, :]
        L[i, :] -= q * L[j, :]
        Li[:, j] += q * Li[:, i]

    def col_op(j, i, q):
        A[:, j] -= q * A[:, i]
        R[:, j] -= q * R[:, i]
        Ri[i, :] += q * Ri[j, :]

    def row_swap(i, j):
        A[[i, j], :] = A[[j, i], :]
        L[[i, j], :] = L[[j, i], :]
        Li[:, [i, j]] = Li[:, [j, i]]

    def col_swap(i, j):
        A[:, [i, j]] = A[:, [j, i]]
        R[:, [i, j]] = R[:, [j, i]]
        Ri[[i, j], :] = Ri[[j, i], :]

    t = 0
    while t < min(m, n):
        p = _reference_pivot(A, t)
        if p is None:
            break
        i, j = p
        if i != t:
            row_swap(i, t)
        if j != t:
            col_swap(j, t)
        piv = A[t, t]
        clean = True
        for i in range(t + 1, m):
            if A[i, t] != 0:
                q = A[i, t] // piv
                if q:
                    row_op(i, t, q)
                if A[i, t] != 0:
                    clean = False
        if not clean:
            continue
        for j in range(t + 1, n):
            if A[t, j] != 0:
                q = A[t, j] // piv
                if q:
                    col_op(j, t, q)
                if A[t, j] != 0:
                    clean = False
        if not clean:
            continue
        fixed = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i, j] % piv != 0:
                    row_op(t, i, -1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if A[t, t] < 0:
            A[t, :] = -A[t, :]
            L[t, :] = -L[t, :]
            Li[:, t] = -Li[:, t]
        t += 1

    diag = tuple(A[i, i] for i in range(min(m, n)))
    return la.SNFResult(diag, L, R, Li, Ri)


def check_snf(A):
    s = la.smith_normal_form(A)
    A = _np(la.int_rows(A))
    m, n = A.shape
    D = _np([[0] * n for _ in range(m)])
    for i, d in enumerate(s.diagonal):
        D[i, i] = d
    assert (s.left @ A @ s.right).tolist() == D.tolist()
    assert (s.left @ s.left_inv).tolist() == _np_identity(m).tolist()
    assert (s.right @ s.right_inv).tolist() == _np_identity(n).tolist()
    assert la.is_unimodular(s.left) and la.is_unimodular(s.right)
    nz = [d for d in s.diagonal if d != 0]
    assert all(d > 0 for d in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # no nonzero after a zero
    seen_zero = False
    for d in s.diagonal:
        if d == 0:
            seen_zero = True
        elif seen_zero:
            pytest.fail("zero before nonzero in diagonal")
    return s


def test_snf_fixed_examples():
    s = check_snf([[2, 0], [0, 3]])
    assert s.diagonal == (1, 6)
    s = check_snf([[0, 0], [0, 0]])
    assert s.diagonal == (0, 0)
    s = check_snf(la.identity(3))
    assert s.diagonal == (1, 1, 1)


def test_snf_random_vs_sympy():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        s = check_snf(A)
        SD = sympy_snf(sympy.Matrix(A))
        ref = [abs(SD[i, i]) for i in range(min(m, n))]
        # sympy pads/orders the same way up to trailing zeros
        mine = [int(d) for d in s.diagonal]
        assert sorted(x for x in mine if x) == sorted(x for x in ref if x)
        # determinant cross-check via fraction-free elimination
        if m == n:
            det = la.bareiss_det(A)
            prod = 1
            for d in mine:
                prod *= d
            assert abs(det) == prod


def test_snf_entry_blowup_exactness():
    # dense matrix whose SNF intermediates overflow 64-bit arithmetic
    rng = random.Random(3)
    A = [[rng.randint(-50, 50) for _ in range(12)] for _ in range(12)]
    s = check_snf(A)
    prod = 1
    for d in s.diagonal:
        prod *= d
    assert abs(la.bareiss_det(A)) == prod


def test_kernel_and_solve():
    A = [[2, 4, 6], [1, 2, 3]]
    K = la.kernel_basis(A)
    assert len(K) == 3 and la.width(K) == 2
    assert la.matmul(A, K) == ((0, 0), (0, 0))
    # saturated: (1,1,-1) lies in the kernel and in the basis lattice
    assert la.lattice_contains(K, [[1], [1], [-1]])
    X = la.solve_int([[2, 0], [0, 3]], [[4], [9]])
    assert X == ((2,), (3,))
    assert la.solve_int([[2]], [[3]]) is None
    assert la.solve_int([[0]], [[1]]) is None
    # a matrix with no rows is 0 x 0, so it has no unknowns; no equations on
    # three unknowns are one zero row, whose kernel is every vector
    assert la.kernel_basis(()) == ()
    assert la.kernel_basis([[0, 0, 0]]) == la.identity(3)
    # no unknowns: the zero lattice
    assert la.kernel_basis(((), ())) == ()
    assert la.kernel_basis([[1, 2, 3]]) == la.kernel_basis(np.array([[1, 2, 3]]))


def test_nested_input_is_no_matrix():
    # a list of lists of lists is a 3-d array, not a matrix of lists
    for nested in ([[[]]], [[[1]]], [[[1, 2]], [[3, 4]]]):
        for f in (la.smith_normal_form, la.rank, la.kernel_basis):
            with pytest.raises(ValueError):
                f(nested)


def test_bareiss_det_needs_a_square_matrix():
    assert la.bareiss_det([[2, 1], [1, 1]]) == 1
    with pytest.raises(ValueError):
        la.bareiss_det([[1, 2, 3], [4, 5, 6]])


def test_column_space_and_index():
    B = la.column_space_basis([[2, 4], [0, 0]])
    assert len(B) == 2 and la.width(B) == 1 and abs(B[0][0]) == 2 and B[1][0] == 0
    big = la.identity(2)
    small = ((2, 0), (0, 3))
    assert la.lattice_index(big, small) == 6
    assert la.lattice_index(small, big) is None


def test_saturation():
    B = ((2,), (4,))
    S = la.saturation(B)
    assert la.lattice_contains(S, [[1], [2]])
    assert la.lattice_eq(S, ((1,), (2,)))
    # index of a lattice in its saturation
    assert la.lattice_index(S, B) == 2


def test_random_kernel_solve_roundtrip():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        X = [[rng.randint(-6, 6)] for _ in range(n)]
        B = la.matmul(A, X)
        Y = la.solve_int(A, B)
        assert Y is not None
        assert la.matmul(A, Y) == B


def test_fg_abelian():
    M = la.FgAbelian((2, 4))
    assert M.order() == 8
    assert M.reduce((5, -1)) == (1, 3)
    assert len(M.elements()) == 8
    assert not la.FgAbelian((0, 3)).is_finite


def test_cokernel_invariants():
    assert la.cokernel_invariants([[2, 0], [0, 3]]) == (6,)
    assert la.cokernel_invariants([[1, 0], [0, 1]]) == ()
    assert la.cokernel_invariants([[2, 0], [0, 0]]) == (2, 0)
    assert la.cokernel_invariants(((), ())) == (0, 0)


def _oracle_matrices():
    rng = random.Random(2024)
    out = []
    for k in range(400):
        m = rng.randint(0, 60) if k % 10 == 0 else rng.randint(1, 8)
        n = rng.randint(0, 8)
        style = k % 4
        if style == 0:  # small entries: mostly unit pivots
            A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        elif style == 1:  # even multiples: non-unit pivots, divisibility fix-up
            A = [[rng.choice((0, 2, -4, 6, 9, 15)) for _ in range(n)] for _ in range(m)]
        elif style == 2:  # wide range, with a zero row and a zero column
            A = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)]
            if m:
                A[rng.randrange(m)] = [0] * n
            if n:
                c = rng.randrange(n)
                for row in A:
                    row[c] = 0
        else:  # rank-deficient products
            r = rng.randint(0, 3)
            P = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
            Q = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
            A = [[sum(P[i][k] * Q[k][j] for k in range(r)) for j in range(n)]
                 for i in range(m)]
        out.append(la.int_rows(A))  # with no rows, 0 x 0
    # the divisibility fix-up: 2 does not divide 3 in the trailing block
    out.append(((2, 0), (0, 3)))
    out.append(((6, 0, 0), (0, 10, 0), (0, 0, 15)))
    return out


def test_snf_matches_reference_on_random_matrices():
    tall = 0
    for A in _oracle_matrices():
        ref = _reference_snf(A)
        got = la.smith_normal_form(A)
        assert got.diagonal == ref.diagonal
        assert all(type(d) is int for d in got.diagonal)
        for name in la.SNF_TRANSFORMS:
            mine, theirs = getattr(got, name), getattr(ref, name)
            assert mine.shape == theirs.shape and mine.tolist() == theirs.tolist(), name
        tall += len(A) > 20
    assert tall >= 10


def _constraint_matrices():
    """The cocycle constraints of the Cayley graph's non-tree edges, one block
    per edge (`_reference_tree_constraints`): Python int lists, sparse, with
    duplicate and zero rows; for a finite module each row j carries its slack
    column relations[j % r], as in `h1_abelian`."""
    out = []
    for _, g, mats, r, relations in constraint_cases():
        C = _reference_tree_constraints(g, mats, r, gr.generating_set(g))
        if relations:
            C = [row + [relations[j % r] if i == j else 0 for i in range(len(C))]
                 for j, row in enumerate(C)]
        if C:
            out.append(C)
    return out


def test_snf_matches_reference_on_constraint_matrices():
    duplicate = zero = non_unit = 0
    for C in _constraint_matrices():
        rows = [tuple(row) for row in C]
        ref = _reference_snf(C)
        got = la.smith_normal_form(C)
        assert [tuple(row) for row in C] == rows  # the input rows are not touched
        assert got.diagonal == ref.diagonal
        for name in la.SNF_TRANSFORMS:
            mine, theirs = getattr(got, name), getattr(ref, name)
            assert mine.shape == theirs.shape and mine.tolist() == theirs.tolist(), name
        duplicate += len(set(rows)) < len(rows)
        zero += any(not any(row) for row in rows)
        non_unit += any(d not in (0, 1) for d in got.diagonal)
        assert la.kernel_basis(C) == la.int_rows(ref.right[:, ref.rank :])
    assert duplicate > 100 and zero > 20 and non_unit > 100


def test_snf_narrowed_transforms():
    rng = random.Random(5)
    asks = [(), ("left",), ("right",), ("left_inv",), ("right_inv",),
            ("left", "right"), ("right", "right_inv"), la.SNF_TRANSFORMS]
    for A in _oracle_matrices()[::7]:
        full = la.smith_normal_form(A)
        ask = asks[rng.randrange(len(asks))]
        part = la.smith_normal_form(A, transforms=ask)
        assert part.diagonal == full.diagonal
        for name in la.SNF_TRANSFORMS:
            got = getattr(part, name)
            if name in ask:
                assert got.tolist() == getattr(full, name).tolist(), name
            else:
                assert got is None, name
    with pytest.raises(ValueError):
        la.smith_normal_form([[1]], transforms=("left", "lft"))


def _same(a, b) -> bool:
    # equal int-tuple rows
    return a == b and all(type(r) is tuple for r in a) and all(
        type(v) is int for row in a for v in row)


def test_coordinates_equal_solve_int():
    """coordinates(K, W, V) against solve_int(K, V) for saturated kernels K of
    random, rank-deficient, 0-row and 0-column matrices, with right-hand
    sides inside and outside the kernel lattice."""
    rng = random.Random(13)
    rand = lambda m, n: tuple(  # noqa: E731
        tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m))

    def plus(a, b):
        return tuple(tuple(map(sum, zip(x, y))) for x, y in zip(a, b))

    matrices = [rand(rng.randint(1, 5), rng.randint(1, 6)) for _ in range(30)]
    for _ in range(10):
        top = rand(2, 5)
        matrices.append(la.stack([top, la.matmul(rand(2, 2), top)]))  # rank <= 2
    matrices += [((0,) * 4,), ((),) * 3, (), ((0,) * 3,) * 2]
    solved = unsolvable = 0
    for E in matrices:
        K, W = la.saturated_kernel(E)
        n, k = len(K), la.width(K)
        assert k == la.width(E) - la.rank(E)
        for c in range(4):
            KY = la.matmul(K, rand(k, c)) if k else ((0,) * c,) * n
            for V in (rand(n, c), KY, plus(KY, rand(n, c))):
                want = la.solve_int(K, V)
                got = la.coordinates(K, W, V)
                if want is None:
                    assert got is None
                    unsolvable += 1
                else:
                    assert _same(got, want)
                    solved += 1
    assert solved > 100 and unsolvable > 50
    K, W = la.saturated_kernel([[1, 1, 0]])
    with pytest.raises(ValueError):
        la.coordinates(K, la.transpose(W), ((0,),) * 3)
    with pytest.raises(ValueError):
        la.coordinates(K, W, ((0,),) * 2)


@st.composite
def _matrices(draw, max_rows=6, max_cols=7):
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(0, max_cols))
    entry = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    return la.int_rows(rows)  # with no rows, 0 x 0


@settings(derandomize=True, deadline=None)
@given(_matrices())
def test_saturated_kernel_is_a_kernel_with_a_left_inverse(E):
    K, W = la.saturated_kernel(E)
    n, k = la.width(E), la.width(K)
    assert len(K) == n and k == n - la.rank(E)
    assert len(W) == k and (la.width(W) == n or not W)
    assert not any(map(any, la.matmul(E, K)))
    assert la.matmul(W, K) == la.identity(k)
    assert _same(K, la.kernel_basis(E))


@settings(derandomize=True, deadline=None)
@given(_matrices(), st.data())
def test_coordinates_equal_solve_int_on_random_input(E, data):
    K, W = la.saturated_kernel(E)
    n, k = len(K), la.width(K)
    c = data.draw(st.integers(0, 3))
    cells = st.lists(st.integers(-3, 3), min_size=c, max_size=c)
    Y = la.int_rows(data.draw(st.lists(cells, min_size=k, max_size=k)))
    N = la.int_rows(data.draw(st.lists(cells, min_size=n, max_size=n)))
    KY = la.matmul(K, Y) if k else ((0,) * c,) * n
    KYN = tuple(tuple(map(sum, zip(a, b))) for a, b in zip(KY, N))
    for V in (KY, KYN):
        want = la.solve_int(K, V)
        got = la.coordinates(K, W, V)
        assert got is None if want is None else _same(got, want)


@st.composite
def _product_pair(draw):
    # A is m x k and B is k x n with k >= 1: a matrix with no rows is 0 x 0,
    # so an m x 0 by 0 x n product has no rows form
    m, k, n = draw(st.integers(0, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 5))
    entry = st.integers(-(2**70), 2**70) | st.integers(-3, 3)

    def rows(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))

    return (m, k, n), rows(m, k), rows(k, n)


def _listed(matrix) -> list:
    assert type(matrix) is tuple and all(type(r) is tuple for r in matrix)
    assert all(type(v) is int for row in matrix for v in row)
    return [list(row) for row in matrix]


@settings(derandomize=True, deadline=None)
@given(_product_pair(), st.data())
def test_row_operations_agree_with_numpy(pair, data):
    """matmul, transpose, stack, beside and columns on int-tuple rows give
    numpy's object @, .T, concatenate and column slices, entry for entry."""
    (m, k, n), a, b = pair
    A, B = la.int_rows(a), la.int_rows(b)
    NA = np.array(a, dtype=object).reshape(m, k)
    NB = np.array(b, dtype=object).reshape(k, n)
    assert _listed(la.matmul(A, B)) == (NA @ NB).tolist()
    assert _listed(la.transpose(B)) == NB.T.tolist()
    if m:
        assert _listed(la.transpose(A)) == NA.T.tolist()
    assert _listed(la.stack([B, B])) == np.concatenate([NB, NB], axis=0).tolist()
    side = la.beside([A, la.matmul(A, B)])
    assert _listed(side) == np.concatenate([NA, NA @ NB], axis=1).tolist()
    i = data.draw(st.integers(0, k))
    j = data.draw(st.integers(i, k))
    assert _listed(la.columns(A, i, j)) == NA[:, i:j].tolist()
    assert _listed(la.columns(A, i)) == NA[:, i:].tolist()
    if k != n:
        with pytest.raises(ValueError):
            la.matmul(B, B)
