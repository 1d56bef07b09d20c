"""Exact linear algebra: normal forms, kernels, cokernels, definiteness.

Smith divisors are checked against the gcds of the k x k minors, which
are ``d_1 ... d_k``.  The Fraction Gauss-Jordan inverse is the oracle
of ``scaled_inverse``, with the largest elementary divisor read as the
lcm of its denominators.
"""

import random
import signal
from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from abelian_fourier import intlinalg
from abelian_fourier.errors import NotSymmetric
from abelian_fourier.intlinalg import (
    _row_blocks,
    cokernel_invariants,
    cokernel_invariants_sparse,
    dense_columns,
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
    sparse_rows,
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


def left_inverse_product(L, K):
    """``L K`` for L given as sparse rows of ``(column, entry)`` pairs."""
    return [[sum(x * K[i][t] for i, x in row) for t in range(len(K[0]))] for row in L]


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
            if g == 1:
                return g
    return g


def assert_smith_divisors(M, divisors):
    """``divisors`` is the Smith diagonal of M: ``min(rows, cols)``
    nonnegative entries, each dividing the next, whose first k multiply to
    the gcd of the k x k minors of M (the determinantal divisor, 0 above
    the rank)."""
    assert len(divisors) == min(len(M), len(M[0]))
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0 if a else b == 0
    for k in range(1, len(divisors) + 1):
        assert prod(divisors[:k]) == minors_gcd(M, k)


@contextmanager
def time_limit(seconds, what):
    """Fail the block with :class:`TimeoutError` after ``seconds``."""

    def timeout(signum, frame):
        raise TimeoutError(f"{what} took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_snf_examples():
    assert smith_normal_form([[3, 0], [0, 6]]).divisors == (3, 6)
    assert smith_normal_form(identity_matrix(2)).divisors == (1, 1)
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    assert smith_normal_form([[2, 4], [6, 8]]).divisors == (2, 4)


@pytest.mark.parametrize("x", [1.5, 2.0, Fraction(1, 2), Fraction(4)])
def test_snf_rejects_an_entry_that_is_not_an_int(x):
    # int() truncated [[1/2, 0], [0, 3]] to divisors (3, 0)
    with pytest.raises(TypeError):
        smith_normal_form([[x, 0], [0, 3]])


def test_snf_rectangular_and_zero():
    assert smith_normal_form([[0, 0], [0, 0]]).divisors == (0, 0)
    snf = smith_normal_form([[2, 0, 0], [0, 3, 0]])
    assert snf.divisors == (1, 6)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_snf_decomposition_properties(M):
    assert_smith_divisors(M, smith_normal_form(M).divisors)


def test_snf_of_block_diagonal_stays_small():
    # four blocks; a divisor-chain step that adds a row of one block to
    # the pivot row of another grew the right transform of this matrix's
    # Smith form past 4300 digits
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
    assert smith_normal_form(M).divisors == (1, 1, 1, 1, 1, 1, 1, 1, 3, 24, 1512)
    columns, L = kernel_saturated_sparse(*sparse_rows(M))
    K = dense_columns(columns, 15)
    assert all(x == 0 for row in mat_mul(M, K) for x in row)
    assert left_inverse_product(L, K) == identity_matrix(4)
    assert max(abs(x) for row in K for x in row) < 10**9
    assert max(abs(x) for row in L for _, x in row) < 10**9


def test_snf_roundtrip_seeded_100():
    rng = random.Random(20240908)
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert_smith_divisors(M, smith_normal_form(M).divisors)


def test_snf_of_a_dense_6x5_matrix_finishes():
    # a Smith form with row and column pivoting did not finish on this
    # matrix in 10 s
    M = [[8, 6, 8, 1, 6], [-4, -7, 7, -5, 4], [-8, -8, 0, 7, -3],
         [-3, 8, -2, -8, 1], [6, -5, 2, 7, -1], [-8, 4, 6, 7, -1]]
    with time_limit(10, "the Smith form of a 6x5 matrix"):
        divisors = smith_normal_form(M).divisors
    assert_smith_divisors(M, divisors)


def test_dense_20x20_divisors_and_18x20_kernels_finish():
    # entries in [-9, 9]; a Smith form with row and column pivoting did not
    # finish one of these in 2 s, from side 8 on.  The divisors are proved
    # by the chain, the gcd of the entries and the determinant, the kernels
    # by M K = 0, L K = I and a nonzero 18 x 18 minor (rank 18)
    rng = random.Random(20)
    squares = [[[rng.randint(-9, 9) for _ in range(20)] for _ in range(20)] for _ in range(10)]
    wide = [[[rng.randint(-9, 9) for _ in range(20)] for _ in range(18)] for _ in range(10)]
    with time_limit(10, "ten 20x20 Smith forms and ten 18x20 kernels"):
        divisors = [smith_normal_form(M).divisors for M in squares]
        kernels = [kernel_saturated_sparse(*sparse_rows(M)) for M in wide]
    for M, d in zip(squares, divisors):
        assert all(b % a == 0 for a, b in zip(d, d[1:]))
        assert d[0] == minors_gcd(M, 1)
        assert prod(d) == abs(det_bareiss(M))
    for M, (columns, L) in zip(wide, kernels):
        K = dense_columns(columns, 20)
        assert det_bareiss([row[:18] for row in M]) != 0
        assert len(L) == 2
        assert all(x == 0 for row in mat_mul(M, K) for x in row)
        assert left_inverse_product(L, K) == identity_matrix(2)


def test_kernel_saturated_examples():
    assert kernel_saturated([[1, -1]]) == [[1], [1]]
    # saturation strips the content of the relation
    assert kernel_saturated([[2, -2]]) == [[1], [1]]
    assert kernel_saturated([[1, 0], [0, 1]]) == [[], []]


@settings(max_examples=100, deadline=None)
@given(small_matrices)
# a Smith form with row and column pivoting could hang on the cokernel of
# this matrix's kernel
@example([[4, -6, -6, 8, 7], [-9, -5, 7, 7, -8]])
def test_kernel_saturated_properties(M):
    with time_limit(10, "a kernel and the cokernel of it"):
        K = kernel_saturated(M)
        _, L = kernel_saturated_sparse(*sparse_rows(M))
        cols = len(M[0])
        nullity = len(K[0]) if K and K[0] else 0
        assert len(K) == cols
        assert len(L) == nullity
        # M K = 0
        if nullity:
            assert all(
                all(v == 0 for v in row) for row in mat_mul(M, K)
            )
            # L K = I: an integer left inverse, the proof of saturation
            assert left_inverse_product(L, K) == identity_matrix(nullity)
            # saturated: the basis spans a direct summand, so all divisors are 1
            cok = cokernel_invariants(K, cols)
            assert all(d == 1 for d in cok.divisors)
            assert cok.free_rank == cols - nullity
        rank = smith_normal_form(M).rank
        assert nullity == cols - rank


def test_kernel_saturated_rational_entries():
    # a Fraction is an input error: without a type check it would reach
    # the // of _echelon and give a wrong kernel
    for kernel in (kernel_saturated, kernel_saturated_reference):
        with pytest.raises(TypeError):
            kernel([[Fraction(1, 2), Fraction(-1, 3)]])
        with pytest.raises(TypeError):
            kernel([[Fraction(3), -2]])
    # the row cleared of its denominators, 6 (1/2, -1/3), has the kernel
    # the rational row had
    K = kernel_saturated([[3, -2]])
    assert K == kernel_saturated_reference([[3, -2]]) == [[-2], [-3]]
    x, y = K[0][0], K[1][0]
    assert Fraction(1, 2) * x - Fraction(1, 3) * y == 0
    assert gcd(x, y) == 1


@pytest.mark.parametrize(
    "row",
    [{0: 0.5, 1: -1 / 3}, {0: Fraction(1, 2), 1: -1}, {0: Fraction(3), 1: -2}, {0: True, 1: -1}],
    ids=["float", "Fraction", "integral Fraction", "bool"],
)
def test_sparse_kernel_rejects_an_entry_that_is_not_an_int(row):
    # the float row returned the float kernel column (6004799503160661.0,
    # 9007199254740992.0), and the bool row was read as the int row (1, -1)
    with pytest.raises(TypeError):
        kernel_saturated_sparse([{0: 1}, row], 2)
    with pytest.raises(TypeError):
        _row_blocks([row], 2)


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
    assume(len(_row_blocks(*sparse_rows(M))) == 1)
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
    columns, L = kernel_saturated_sparse(rows, len(M[0]))
    K = dense_columns(columns, len(M[0]))
    assert K == kernel_saturated(M)
    assert len(L) == len(columns)
    assert left_inverse_product(L, K) == identity_matrix(len(L))


@st.composite
def repeated_block_diagonal(draw):
    """A block-diagonal matrix in which blocks repeat, and whether a
    nonzero block repeats.  The rows of the blocks are interleaved in a
    random order that keeps each block's own row order, and so are the
    columns, so equal blocks stay equal after the permutation."""
    distinct = draw(st.lists(small_matrices, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2, max_size=6))
    blocks = [distinct[p] for p in picks]
    row_labels = draw(st.permutations([b for b, B in enumerate(blocks) for _ in B]))
    col_labels = draw(st.permutations([b for b, B in enumerate(blocks) for _ in B[0]]))
    M = [[0] * len(col_labels) for _ in row_labels]
    for b, B in enumerate(blocks):
        at_rows = [i for i, label in enumerate(row_labels) if label == b]
        at_cols = [j for j, label in enumerate(col_labels) if label == b]
        for i, row in zip(at_rows, B):
            for j, x in zip(at_cols, row):
                M[i][j] = x
    repeats = any(picks.count(p) > 1 and any(map(any, distinct[p])) for p in set(picks))
    return M, repeats


@settings(max_examples=100, deadline=None)
@given(repeated_block_diagonal())
def test_repeated_blocks_are_solved_once(case):
    M, repeats = case
    rows, cols = sparse_rows(M)
    blocks = [(r, c) for r, c in _row_blocks(rows, cols) if r]
    distinct = {tuple(tuple(M[i][j] for j in c) for i in r) for r, c in blocks}
    calls = []
    original = intlinalg._kernel
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intlinalg, "_kernel", lambda A, n: calls.append(n) or original(A, n))
        columns, L = kernel_saturated_sparse(rows, cols)
    # one elimination per distinct block, fewer than the blocks when one repeats
    assert len(calls) == len(distinct)
    assert len(distinct) < len(blocks) or not repeats
    K = dense_columns(columns, cols)
    R = kernel_saturated_reference(M)
    assert len(L) == len(columns) == len(R[0])
    if columns:
        assert left_inverse_product(L, K) == identity_matrix(len(L))
    for j in range(len(columns)):
        assert integral_in_span(R, [row[j] for row in K])
        assert integral_in_span(K, [row[j] for row in R])


def test_column_blocks_examples():
    assert _row_blocks(*sparse_rows([[1, 0], [0, 2]])) == [([0], [0]), ([1], [1])]
    # a zero column is a block without rows; a zero row is in no block
    assert _row_blocks(*sparse_rows([[0, 5, 0], [0, 0, 0], [0, 1, 1]])) == [
        ([], [0]),
        ([0, 2], [1, 2]),
    ]
    assert kernel_saturated([[0, 5, 0], [0, 0, 0], [0, 1, 1]]) == [[1], [0], [0]]


def blocks_by_search(rows, cols):
    """The oracle of ``_row_blocks``: a breadth-first search of the
    row/column support graph from each column not yet reached, in
    increasing order, so each block starts at its first column."""
    rows_of = [[] for _ in range(cols)]
    for i, row in enumerate(rows):
        for j in row:
            rows_of[j].append(i)
    reached, blocks = set(), []
    for start in range(cols):
        if start in reached:
            continue
        reached.add(start)
        block_rows, block_cols, queue = set(), [start], deque([start])
        while queue:
            for i in rows_of[queue.popleft()]:
                if i in block_rows:
                    continue
                block_rows.add(i)
                for j in rows[i]:
                    if j not in reached:
                        reached.add(j)
                        block_cols.append(j)
                        queue.append(j)
        blocks.append((sorted(block_rows), sorted(block_cols)))
    return blocks


def seeded_sparse_rows(seed):
    """Sparse rows with zero rows, zero columns and a chain of rows
    ``{i: 1, i+1: 1}``, shuffled (or, for every fourth seed, in decreasing
    order of i, which hangs each column under the next), so the
    union-find trees of ``_row_blocks`` grow deep."""
    rng = random.Random(seed)
    cols = rng.randint(0, 60)
    rows = [{} for _ in range(rng.randint(0, 4))]
    for _ in range(rng.randint(0, cols // 3)):
        support = rng.sample(range(cols), rng.randint(1, min(3, cols)))
        rows.append({j: rng.choice((-3, -2, -1, 1, 2, 3)) for j in support})
    rng.shuffle(rows)
    if cols >= 2:
        start = rng.randrange(cols - 1)
        chain = [dict(rng.sample([(i, 1), (i + 1, 1)], 2))
                 for i in range(start, rng.randint(start + 1, cols - 1))]
        if seed % 4:
            rng.shuffle(chain)
        else:
            chain.reverse()
        for row in chain:
            rows.insert(rng.randint(0, len(rows)), row)
    return rows, cols


def test_row_blocks_match_a_breadth_first_search():
    # the partition, the order of the blocks (by first column) and the
    # order of their rows and columns, against the search
    seen = {"zero row": 0, "zero column": 0, "chain of 20": 0}
    for seed in range(300):
        rows, cols = seeded_sparse_rows(seed)
        blocks = _row_blocks(rows, cols)
        assert blocks == blocks_by_search(rows, cols), seed
        seen["zero row"] += {} in rows
        seen["zero column"] += any(not r for r, _ in blocks)
        seen["chain of 20"] += any(len(c) >= 20 for _, c in blocks)
    assert min(seen.values()) >= 30, seen
    # a chain in decreasing order over 500 columns, and its reverse
    chain = [{i: 1, i + 1: 1} for i in range(499)]
    for rows in (chain[::-1], chain):
        assert _row_blocks(rows, 501) == [(list(range(499)), list(range(500))), ([], [500])]


@pytest.mark.parametrize(
    "rows, cols, error",
    [([], -1, ValueError), ([{}], -2, ValueError), ([{0: 1}], 1.0, TypeError)],
    ids=["no rows, -1 columns", "a zero row, -2 columns", "1.0 columns"],
)
def test_a_kernel_column_count_must_be_a_nonnegative_int(rows, cols, error):
    # the negative counts gave the kernel ([], []), and 1.0 raised the
    # bare TypeError of range()
    with pytest.raises(error, match="column count"):
        kernel_saturated_sparse(rows, cols)
    assert kernel_saturated_sparse([], 0) == ([], [])


def test_cokernel_examples():
    assert cokernel_invariants(identity_matrix(3), 3).is_trivial
    cok = cokernel_invariants([[2], [0]], 2)
    assert cok.divisors == (2,)
    assert cok.free_rank == 1
    assert not cok.is_trivial
    # invariant factors chain: Z/2 + Z/3 = Z/6, so divisors (1, 6)
    assert cokernel_invariants([[2, 0], [0, 3]], 2).divisors == (1, 6)


@pytest.mark.parametrize("M", [[[False]], [[0.0, 1]]], ids=["False", "zero float"])
def test_cokernel_rejects_a_zero_entry_that_is_not_an_int(M):
    # sparse_rows drops falsy entries before _row_blocks reads their type,
    # so the dense entry checks every entry first
    with pytest.raises(TypeError):
        cokernel_invariants(M, len(M))


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_matrices, permuted_block_diagonal()))
def test_block_cokernel_matches_whole_matrix_smith_form(M):
    # the cokernel is taken block by block; the Smith form of the whole
    # matrix is the oracle of its divisors and free rank, by dense rows
    # and by sparse columns alike
    finite = tuple(d for d in smith_normal_form(M).divisors if d)
    expected = (finite, len(M) - len(finite))
    assert tuple(cokernel_invariants(M, len(M))) == expected
    columns = [{i: row[j] for i, row in enumerate(M) if row[j]} for j in range(len(M[0]))]
    assert tuple(cokernel_invariants_sparse(columns, len(M))) == expected


def test_cokernel_empty_generators():
    cok = cokernel_invariants([[], []], 2)
    assert cok.divisors == ()
    assert cok.free_rank == 2


def test_cokernel_rejects_the_wrong_number_of_rows():
    with pytest.raises(ValueError, match="has 1 rows, expected 2"):
        cokernel_invariants([[1, 0]], 2)


@pytest.mark.parametrize(
    "call",
    [
        # the first returned free_rank=0.0 and the last the float matrix
        # [[2.0, -2.0], [-2.0, 4.0]]
        lambda: cokernel_invariants([[1]], 1.0),
        lambda: cokernel_invariants_sparse([{0: 2}], True),
        lambda: scaled_inverse([[2, 1], [1, 1]], 2.0),
    ],
    ids=["cokernel rank 1.0", "sparse cokernel rank True", "scale 2.0"],
)
def test_a_scalar_that_is_not_an_int_is_a_type_error(call):
    with pytest.raises(TypeError, match="is not an integer"):
        call()


@pytest.mark.parametrize(
    "reader",
    [
        smith_normal_form,
        kernel_saturated,
        kernel_saturated_reference,
        lambda M: cokernel_invariants(M, 2),
    ],
    ids=["smith_normal_form", "kernel_saturated", "kernel_saturated_reference",
         "cokernel_invariants"],
)
def test_a_ragged_matrix_is_a_value_error(reader):
    # the cokernel read [[1, 2], [3]] as [[1, 2], [3, 0]], divisors (1, 6),
    # the kernel gave [[], []], and the other two raised IndexError
    with pytest.raises(ValueError, match="rows of different lengths"):
        reader([[1, 2], [3]])


@pytest.mark.parametrize(
    "call",
    [
        lambda: kernel_saturated_sparse([{-1: 1}], 2),
        lambda: cokernel_invariants_sparse([{0: 2, -1: 3}], 2),
        lambda: kernel_saturated_sparse([{5: 1}], 2),
        lambda: cokernel_invariants_sparse([{3: 2}], 2),
        lambda: cokernel_invariants_sparse([{-1: 2}], 2),
        lambda: cokernel_invariants_sparse([{0: 2}], -1),
    ],
    ids=["kernel column -1", "cokernel column -1", "kernel column 5", "cokernel column 3",
         "cokernel only column -1", "cokernel rank -1"],
)
def test_a_sparse_column_outside_the_matrix_is_a_value_error(call):
    # column -1 gave both unit vectors as the kernel, and the divisors
    # (2,) with free rank 1 for the cokernel, dropping the 3; the others
    # raised IndexError or KeyError
    with pytest.raises(ValueError, match="outside range|is negative"):
        call()


@pytest.mark.parametrize(
    "A, B",
    [([[1, 2]], [[1], [2, 3]]), ([[1, 2]], [[1, 5], [2]]), ([[1], [2, 3]], [[1]])],
    ids=["B long second row", "B short second row", "A long second row"],
)
def test_mat_mul_rejects_ragged_operands(A, B):
    # the first returned [[5]], the second raised IndexError, and the
    # third read A as [[1], [2]]
    with pytest.raises(ValueError):
        mat_mul(A, B)


def test_positive_definite():
    assert is_positive_definite(identity_matrix(3))
    assert not is_positive_definite([[1, 0], [0, -1]])
    # minors 2 and 1
    assert is_positive_definite([[2, 1], [1, 1]])
    assert not is_positive_definite([[0, 0], [0, 1]])
    with pytest.raises(NotSymmetric):
        is_positive_definite([[1, 2], [3, 1]])


def test_positive_definite_rejects_a_matrix_that_is_not_square():
    with pytest.raises(NotSymmetric, match="not square"):
        is_positive_definite([[1, 0, 0], [0, 1, 0]])


def test_positive_definite_rational():
    # a Fraction is an input error; scaled by 6 to ints, the answers stand
    for S in ([[Fraction(1, 2), 0], [0, Fraction(1, 3)]], [[Fraction(2), 0], [0, 1]]):
        with pytest.raises(TypeError):
            is_positive_definite(S)
    assert is_positive_definite([[3, 0], [0, 2]])
    assert not is_positive_definite([[-3, 0], [0, 2]])


def positive_definite_by_minors(S):
    """Reference: Sylvester's criterion with one determinant per minor."""
    n = len(S)
    return all(det_bareiss([row[:k] for row in S[:k]]) > 0 for k in range(1, n + 1))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_positive_definite_matches_minors(data):
    n = data.draw(st.integers(1, 8), label="n")
    rational = data.draw(st.booleans(), label="rational")
    if rational:
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
    if rational:
        # a Fraction is an input error; a positive scale keeps definiteness
        with pytest.raises(TypeError):
            is_positive_definite(S)
        scale = lcm(*(x.denominator for row in S for x in row))
        S = [[int(x * scale) for x in row] for row in S]
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
    """Dense square matrices of side up to 8, or permuted block-diagonal
    ones of side up to 8 with dense blocks of side up to 4."""
    entries = st.integers(-5, 5)

    def dense(n):
        return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)

    if draw(st.booleans(), label="dense"):
        return draw(dense(draw(st.integers(1, 8))))
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
    # the largest elementary divisor d is the lcm of the denominators of
    # M^{-1}: c M^{-1} is integral at c = d, and not at c = d - 1
    d = lcm(*(x.denominator for row in inverse for x in row))
    assert scaled_inverse(M, d) == [[d * x for x in row] for row in inverse]
    if d > 1:
        with pytest.raises(ValueError):
            scaled_inverse(M, d - 1)


@pytest.mark.parametrize("x", [1.5, 2.0, Fraction(1, 2), Fraction(4)])
def test_det_bareiss_rejects_an_entry_that_is_not_an_int(x):
    with pytest.raises(TypeError):
        det_bareiss([[x, 1], [0, 3]])


@pytest.mark.parametrize("M", [[[1, 2, 3], [4, 5, 6]], [[1], [2]]])
def test_det_bareiss_rejects_a_matrix_that_is_not_square(M):
    # the first read -3, the determinant of its leading 2x2 block, and the
    # second raised IndexError
    with pytest.raises(ValueError):
        det_bareiss(M)


@pytest.mark.parametrize("x", [1.5, 2.0, Fraction(1, 2), Fraction(4)])
def test_scaled_inverse_rejects_an_entry_that_is_not_an_int(x):
    with pytest.raises(TypeError):
        scaled_inverse([[x, 1], [0, 3]], 6)


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


@settings(max_examples=200, deadline=None)
@given(st.one_of(square_matrices(), unimodular_matrices()))
def test_cokernel_matches_minors_gcd(M):
    n = len(M)
    cok = cokernel_invariants(M, n)
    assert all(d > 0 for d in cok.divisors)
    assert_smith_divisors(M, cok.divisors + (0,) * cok.free_rank)
    assert cok.is_trivial == is_unimodular(M)
