"""Exact linear algebra: normal forms, kernels, cokernels, definiteness."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abelian_fourier.errors import NotSymmetric
from abelian_fourier.intlinalg import (
    CokernelInvariants,
    column_blocks,
    cokernel_invariants,
    det_bareiss,
    identity_matrix,
    is_positive_definite,
    kernel_saturated,
    kernel_saturated_reference,
    kernel_saturated_sparse,
    mat_mul,
    rational_solve,
    scaled_inverse,
    smith_normal_form,
)

small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def is_unimodular(M):
    return len(M) > 0 and len(M) == len(M[0]) and abs(det_bareiss(M)) == 1


def diagonal_matrix(snf):
    """The rows x cols matrix with the Smith divisors on its diagonal."""
    D = [[0] * snf.cols for _ in range(snf.rows)]
    for i, d in enumerate(snf.divisors):
        D[i][i] = d
    return D


def rational_inverse(M):
    """Oracle of ``scaled_inverse``: the exact inverse by Fraction Gauss-Jordan."""
    n = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


def minors_gcd(M, k):
    """gcd of all k x k minors; d_1 ... d_k equals this for the SNF chain."""
    rows, cols = len(M), len(M[0])
    g = 0
    for rsel in combinations(range(rows), k):
        for csel in combinations(range(cols), k):
            sub = [[M[i][j] for j in csel] for i in rsel]
            g = gcd(g, det_bareiss(sub))
    return g


def test_snf_examples():
    assert smith_normal_form([[3, 0], [0, 6]]).divisors == (3, 6)
    assert smith_normal_form(identity_matrix(2)).divisors == (1, 1)
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    assert smith_normal_form([[2, 4], [6, 8]]).divisors == (2, 4)


def test_snf_rectangular_and_zero():
    assert smith_normal_form([[0, 0], [0, 0]]).divisors == (0, 0)
    snf = smith_normal_form([[2, 0, 0], [0, 3, 0]])
    assert snf.divisors == (1, 6)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_snf_decomposition_properties(M):
    snf = smith_normal_form(M)
    assert is_unimodular([list(r) for r in snf.U])
    assert is_unimodular([list(r) for r in snf.V])
    UMV = mat_mul(mat_mul([list(r) for r in snf.U], M), [list(r) for r in snf.V])
    assert UMV == diagonal_matrix(snf)
    divisors = snf.divisors
    for a, b in zip(divisors, divisors[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # invariant-factor products against the minors-gcd oracle
    for k in range(1, min(len(M), len(M[0])) + 1):
        expected = abs(minors_gcd(M, k))
        assert prod(divisors[:k]) == expected


def test_snf_of_block_diagonal_stays_small():
    # four blocks; a divisor-chain step that adds a row of one block to
    # the pivot row of another grew this matrix's entries past 4300 digits
    M = [[0] * 15 for _ in range(11)]
    blocks = [
        [[-8, 0], [-7, -7]],
        [[-4, 4, 9], [-1, -5, -9], [8, -8, 9]],
        [[5, -4, 7, -8, 3], [-3, 2, -6, -3, 9]],
        [[-3, 6, -6, 3, 0], [7, 6, -9, 1, 3], [0, -9, -4, -3, 1], [9, -5, 1, 4, -3]],
    ]
    r = c = 0
    for B in blocks:
        for i, row in enumerate(B):
            M[r + i][c:c + len(row)] = row
        r, c = r + len(B), c + len(B[0])
    snf = smith_normal_form(M)
    U, V = [list(row) for row in snf.U], [list(row) for row in snf.V]
    assert mat_mul(mat_mul(U, M), V) == diagonal_matrix(snf)
    assert is_unimodular(U) and is_unimodular(V)
    assert snf.divisors == (1, 1, 1, 1, 1, 1, 1, 1, 3, 24, 1512)
    assert max(abs(x) for row in U + V for x in row) < 10**9


def test_snf_roundtrip_seeded_100():
    rng = random.Random(20240908)
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(M)
        Uinv = rational_inverse([list(r) for r in snf.U])
        Vinv = rational_inverse([list(r) for r in snf.V])
        back = mat_mul(mat_mul(Uinv, diagonal_matrix(snf)), Vinv)
        assert [[Fraction(x) for x in row] for row in M] == [
            [Fraction(x) for x in row] for row in back
        ]


def test_kernel_saturated_examples():
    assert kernel_saturated([[1, -1]]) == [[1], [1]]
    # saturation strips the content of the relation
    assert kernel_saturated([[2, -2]]) == [[1], [1]]
    assert kernel_saturated([[1, 0], [0, 1]]) == [[], []]


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_kernel_saturated_properties(M):
    K = kernel_saturated(M)
    cols = len(M[0])
    nullity = len(K[0]) if K and K[0] else 0
    assert len(K) == cols
    # M K = 0
    if nullity:
        assert all(
            all(v == 0 for v in row) for row in mat_mul(M, K)
        )
        # saturated: the basis spans a direct summand, so all divisors are 1
        cok = cokernel_invariants(K, cols)
        assert all(d == 1 for d in cok.divisors)
        assert cok.free_rank == cols - nullity
    rank = smith_normal_form(M).rank
    assert nullity == cols - rank


def test_kernel_saturated_rational_entries():
    K = kernel_saturated([[Fraction(1, 2), Fraction(-1, 3)]])
    assert len(K[0]) == 1
    x, y = K[0][0], K[1][0]
    assert Fraction(1, 2) * x - Fraction(1, 3) * y == 0
    assert gcd(x, y) == 1


@st.composite
def permuted_block_diagonal(draw):
    """Random integer blocks on the diagonal, plus zero rows and zero
    columns, with rows and columns shuffled."""
    blocks = draw(st.lists(small_matrices, min_size=1, max_size=4))
    zero_rows = draw(st.integers(0, 2))
    zero_cols = draw(st.integers(0, 2))
    rows = sum(len(B) for B in blocks) + zero_rows
    cols = sum(len(B[0]) for B in blocks) + zero_cols
    M = [[0] * cols for _ in range(rows)]
    r = c = 0
    for B in blocks:
        for i, row in enumerate(B):
            M[r + i][c:c + len(row)] = row
        r, c = r + len(B), c + len(B[0])
    row_order = draw(st.permutations(range(rows)))
    col_order = draw(st.permutations(range(cols)))
    return [[M[i][j] for j in col_order] for i in row_order]


def assert_saturated_kernel(M, K, nullity):
    cols = len(M[0])
    assert len(K) == cols
    assert all(len(row) == nullity for row in K)
    if nullity:
        assert all(v == 0 for row in mat_mul(M, K) for v in row)
        cok = cokernel_invariants(K, cols)
        assert all(d == 1 for d in cok.divisors)
        assert cok.free_rank == cols - nullity


def integral_in_span(K, v):
    sol = rational_solve(K, v)
    return sol is not None and all(c.denominator == 1 for c in sol)


@settings(max_examples=150, deadline=None)
@given(permuted_block_diagonal())
def test_block_kernel_matches_whole_matrix_oracle(M):
    K = kernel_saturated(M)
    R = kernel_saturated_reference(M)
    nullity = len(R[0])
    assert nullity == len(M[0]) - smith_normal_form(M).rank
    assert_saturated_kernel(M, K, nullity)
    assert_saturated_kernel(M, R, nullity)
    # the same lattice: each basis has integral coordinates in the other
    for j in range(nullity):
        assert integral_in_span(R, [row[j] for row in K])
        assert integral_in_span(K, [row[j] for row in R])


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_connected_kernel_is_the_oracle_basis(M):
    assume(len(column_blocks(M)) == 1)
    assert kernel_saturated(M) == kernel_saturated_reference(M)
    # zero rows keep a matrix connected and the basis unchanged
    padded = [[0] * len(M[0])] + M + [[0] * len(M[0])]
    assert kernel_saturated(padded) == kernel_saturated_reference(padded)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_matrices, permuted_block_diagonal()), st.randoms(use_true_random=False))
def test_sparse_row_kernel_is_the_dense_kernel(M, rng):
    # sparse rows filled in any column order, as hodge_lattice fills them
    # from generator images, give the basis of the dense entry point
    rows = []
    for row in M:
        support = [j for j, x in enumerate(row) if x]
        rng.shuffle(support)
        rows.append({j: row[j] for j in support})
    assert kernel_saturated_sparse(rows, len(M[0])) == kernel_saturated(M)


def test_column_blocks_examples():
    assert column_blocks([[1, 0], [0, 2]]) == [([0], [0]), ([1], [1])]
    # a zero column is a block without rows; a zero row is in no block
    assert column_blocks([[0, 5, 0], [0, 0, 0], [0, 1, 1]]) == [
        ([], [0]),
        ([0, 2], [1, 2]),
    ]
    assert kernel_saturated([[0, 5, 0], [0, 0, 0], [0, 1, 1]]) == [[1], [0], [0]]


def test_cokernel_examples():
    assert cokernel_invariants(identity_matrix(3), 3).is_trivial
    cok = cokernel_invariants([[2], [0]], 2)
    assert cok.divisors == (2,)
    assert cok.free_rank == 1
    assert not cok.is_trivial
    # invariant factors chain: Z/2 + Z/3 = Z/6, so divisors (1, 6)
    assert cokernel_invariants([[2, 0], [0, 3]], 2).divisors == (1, 6)


def test_cokernel_empty_generators():
    cok = cokernel_invariants([[], []], 2)
    assert cok.divisors == ()
    assert cok.free_rank == 2


def test_positive_definite():
    assert is_positive_definite(identity_matrix(3))
    assert not is_positive_definite([[1, 0], [0, -1]])
    # minors 2 and 1
    assert is_positive_definite([[2, 1], [1, 1]])
    assert not is_positive_definite([[0, 0], [0, 1]])
    with pytest.raises(NotSymmetric):
        is_positive_definite([[1, 2], [3, 1]])


def test_positive_definite_rational():
    assert is_positive_definite([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert not is_positive_definite([[Fraction(-1, 2), 0], [0, Fraction(1, 3)]])


def positive_definite_by_minors(S):
    """Reference: Sylvester's criterion with one determinant per minor."""
    n = len(S)
    rows = [[Fraction(x) for x in row] for row in S]
    scale = lcm(*(x.denominator for row in rows for x in row))
    A = [[int(x * scale) for x in row] for row in rows]
    return all(det_bareiss([row[:k] for row in A[:k]]) > 0 for k in range(1, n + 1))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_positive_definite_matches_minors(data):
    n = data.draw(st.integers(1, 8), label="n")
    if data.draw(st.booleans(), label="rational"):
        entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    else:
        entries = st.integers(-3, 3)
    L = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    kind = data.draw(st.sampled_from(("symmetric", "gram", "singular gram")), label="kind")
    if kind == "symmetric":
        # mostly indefinite
        S = [[L[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
    else:
        # L L^T is positive semidefinite, and singular when L repeats a row
        if kind == "singular gram":
            L[-1] = L[0]
        S = [[sum(a * b for a, b in zip(L[i], L[j])) for j in range(n)] for i in range(n)]
    assert is_positive_definite(S) == positive_definite_by_minors(S)


def test_rational_solve():
    assert rational_solve([[2, 0], [0, 3]], [4, 9]) == [Fraction(2), Fraction(3)]
    assert rational_solve([[1, 1], [1, 1]], [1, 2]) is None
    # underdetermined but consistent: any particular solution is fine
    sol = rational_solve([[1, 1]], [3])
    assert sol is not None and sol[0] + sol[1] == 3


def test_rational_inverse():
    M = [[2, 1], [1, 1]]
    Minv = rational_inverse(M)
    assert mat_mul(M, Minv) == [[1, 0], [0, 1]]
    with pytest.raises(ZeroDivisionError):
        rational_inverse([[1, 1], [1, 1]])


@st.composite
def square_matrices(draw):
    """Dense square matrices of side up to 5, or permuted block-diagonal
    ones of side up to 8 with dense blocks of side up to 4.

    Dense matrices stop at side 5: from side 6 on, the elimination of
    ``smith_normal_form`` can grow the entries of a dense matrix without
    bound.
    """
    entries = st.integers(-5, 5)

    def dense(n):
        return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)

    if draw(st.booleans(), label="dense"):
        return draw(dense(draw(st.integers(1, 5))))
    sides = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda s: sum(s) <= 8))
    n = sum(sides)
    M = [[0] * n for _ in range(n)]
    r = 0
    for side in sides:
        for i, row in enumerate(draw(dense(side))):
            M[r + i][r:r + side] = row
        r += side
    rows, cols = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    return [[M[i][j] for j in cols] for i in rows]


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_scaled_inverse_matches_fraction_inverse(M):
    det = det_bareiss(M)
    if det == 0:
        with pytest.raises(ZeroDivisionError):
            scaled_inverse(M, 1)
        return
    c = abs(det)
    inverse = rational_inverse(M)
    assert scaled_inverse(M, c) == [[c * x for x in row] for row in inverse]
    # below the largest divisor d, c = d - 1 leaves a fraction in c M^{-1}
    d = smith_normal_form(M).divisors[-1]
    if d > 1:
        assert any(((d - 1) * x).denominator != 1 for row in inverse for x in row)
        with pytest.raises(ValueError):
            scaled_inverse(M, d - 1)


def test_scaled_inverse_examples():
    assert scaled_inverse([[2, 0], [0, 3]], 6) == [[3, 0], [0, 2]]
    with pytest.raises(ValueError):
        scaled_inverse([[2, 0], [0, 3]], 2)
    with pytest.raises(ZeroDivisionError):
        scaled_inverse([[1, 1], [1, 1]], 1)
    with pytest.raises(ZeroDivisionError):
        scaled_inverse([[1, 0, 0], [0, 1, 0]], 1)


@st.composite
def unimodular_matrices(draw):
    """The identity of side up to 5 after up to 12 elementary row
    operations: ``row_i += s row_j`` with ``|s| <= 3``, or negating a row."""
    n = draw(st.integers(1, 5))
    M = identity_matrix(n)
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            M[i] = [-x for x in M[i]]
        else:
            s = draw(st.integers(-3, 3))
            M[i] = [a + s * b for a, b in zip(M[i], M[j])]
    return M


def smith_cokernel(M, n):
    """Oracle of ``cokernel_invariants``: the invariants read off the Smith
    form alone."""
    finite = tuple(d for d in smith_normal_form(M).divisors if d != 0)
    return CokernelInvariants(finite, n - len(finite))


@settings(max_examples=200, deadline=None)
@given(st.one_of(square_matrices(), unimodular_matrices()))
def test_cokernel_determinant_shortcut_matches_smith(M):
    n = len(M)
    cok = cokernel_invariants(M, n)
    assert cok == smith_cokernel(M, n)
    assert cok.is_trivial == is_unimodular(M)
