"""Exact integer and rational linear algebra for lattice computations.

Everything in this module is exact: integer matrices are lists of rows of
Python ints, rational matrices mix ints and :class:`fractions.Fraction`.
There is no floating point.  Matrices are dense lists of rows, except
for the kernel: :func:`kernel_saturated_sparse` takes sparse rows
``{column: entry}``, splits the matrix into the connected blocks of its
row/column support graph and makes only each block dense, so a 210x210
operator whose blocks have side at most 16 costs Smith forms of side 16,
not one of side 210, and is never stored dense.  A dense matrix enters
it through :func:`sparse_rows`.

The central routine is :func:`smith_normal_form`, which returns the full
decomposition ``U * M * V = diag(divisors)`` with unimodular ``U`` and
``V``, and the integer inverse of ``V`` alongside.  Saturated kernels,
cokernel invariants and the integral scaled inverses ``c M^{-1}`` of
:func:`scaled_inverse` are derived from it.  A kernel basis comes with
an integer left inverse, the last rows of ``V^{-1}``, which proves it
saturated.  :func:`kernel_saturated_reference`, the whole-matrix
Smith-form kernel, stays as the oracle of the block kernel, and
:func:`rational_solve` as the oracle of lattice coordinates.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

IntMatrix = list[list[int]]

from .errors import NotSymmetric


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    """Matrix product, exact over ints or Fractions."""
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    if A and len(A[0]) != inner:
        raise ValueError("inner dimensions differ")
    out = []
    for i in range(rows):
        Ai = A[i]
        row = []
        for j in range(cols):
            s = 0
            for k in range(inner):
                a = Ai[k]
                if a:
                    s += a * B[k][j]
            row.append(s)
        out.append(row)
    return out


def scalar_matrix(n: int, c) -> list[list]:
    return [[c if i == j else 0 for j in range(n)] for i in range(n)]


class SmithDecomposition(namedtuple("SmithDecomposition", "U V V_inverse divisors rows cols")):
    """Smith normal form ``U * M * V = diag(divisors)``.

    ``U`` and ``V`` are unimodular, and ``V_inverse`` is the integer
    inverse of ``V``; ``divisors`` is the full diagonal of length
    ``min(rows, cols)``, nonnegative, each entry dividing the next (with
    trailing zeros, since every integer divides 0).
    """

    __slots__ = ()

    @property
    def rank(self) -> int:
        return sum(1 for d in self.divisors if d != 0)


def _swap_rows(A, i, j):
    A[i], A[j] = A[j], A[i]


def _swap_cols(A, i, j):
    for row in A:
        row[i], row[j] = row[j], row[i]


def _add_row(A, dst, src, q):
    """Row dst += q * row src."""
    rd, rs = A[dst], A[src]
    for k in range(len(rd)):
        rd[k] += q * rs[k]


def _add_col(A, dst, src, q):
    for row in A:
        row[dst] += q * row[src]


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, x, y)`` with ``x a + y b = g``, ``g`` a gcd of a and b."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def smith_normal_form(M) -> SmithDecomposition:
    """Smith normal form of an integer matrix with transform matrices.

    First the matrix is diagonalized: pivoting picks the entry of smallest
    nonzero absolute value in the remaining block and clears its row and
    column by Euclidean steps.  Then each pair of diagonal entries is
    replaced by their gcd and lcm, which gives the divisor chain without
    ever adding one row of the remaining block to another, so a block
    diagonal matrix is diagonalized block by block.  Each column operation
    on ``V`` is matched by its inverse row operation on ``V_inverse``, so
    the inverse costs no solve.  Entries stay small on the lattice
    matrices that occur here; on dense random matrices of side ten and
    more they can still grow to thousands of digits.

    >>> smith_normal_form([[2, 0], [0, 3]]).divisors
    (1, 6)
    >>> snf = smith_normal_form([[2, 4], [6, 8]])
    >>> snf.divisors
    (2, 4)
    >>> snf = smith_normal_form([[3, 0], [0, 6]])
    >>> snf.divisors
    (3, 6)
    """
    A = [[int(x) for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if A else 0
    U = identity_matrix(rows)
    V = identity_matrix(cols)
    Vi = identity_matrix(cols)

    def pivot_search(t):
        best = None
        best_abs = None
        for i in range(t, rows):
            Ai = A[i]
            for j in range(t, cols):
                a = Ai[j]
                if a != 0 and (best_abs is None or abs(a) < best_abs):
                    best, best_abs = (i, j), abs(a)
                    if best_abs == 1:
                        return best
        return best

    t = 0
    while t < min(rows, cols):
        pos = pivot_search(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            _swap_rows(A, t, i)
            _swap_rows(U, t, i)
        if j != t:
            _swap_cols(A, t, j)
            _swap_cols(V, t, j)
            _swap_rows(Vi, t, j)

        while True:
            p = A[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if A[i][t]:
                    q = A[i][t] // p
                    _add_row(A, i, t, -q)
                    _add_row(U, i, t, -q)
                    if A[i][t]:
                        # Remainder is smaller than the pivot; promote it.
                        _swap_rows(A, t, i)
                        _swap_rows(U, t, i)
                        dirty = True
                        p = A[t][t]
            for j in range(t + 1, cols):
                if A[t][j]:
                    q = A[t][j] // p
                    _add_col(A, j, t, -q)
                    _add_col(V, j, t, -q)
                    _add_row(Vi, t, j, q)
                    if A[t][j]:
                        _swap_cols(A, t, j)
                        _swap_cols(V, t, j)
                        _swap_rows(Vi, t, j)
                        dirty = True
                        p = A[t][t]
            if not dirty:
                break
        t += 1

    # Divisor chain on the diagonal: each pair (a, b) with b % a becomes
    # (gcd, lcm) by two row and two column operations, so the elimination
    # above never mixes rows of different blocks.
    for i in range(t):
        for j in range(i + 1, t):
            a, b = A[i][i], A[j][j]
            if b % a == 0:
                continue
            g, x, y = _extended_gcd(a, b)
            _add_row(A, i, j, 1)
            _add_row(U, i, j, 1)
            for X in (A, V):
                for row in X:
                    ci, cj = row[i], row[j]
                    row[i], row[j] = x * ci + y * cj, (a * cj - b * ci) // g
            # the inverse of that column step [[x, -b/g], [y, a/g]]
            ri, rj = Vi[i], Vi[j]
            Vi[i] = [(a * p + b * q) // g for p, q in zip(ri, rj)]
            Vi[j] = [x * q - y * p for p, q in zip(ri, rj)]
            c = b * y // g
            _add_row(A, j, i, -c)
            _add_row(U, j, i, -c)

    for i in range(min(rows, cols)):
        if A[i][i] < 0:
            for k in range(cols):
                A[i][k] = -A[i][k]
            for k in range(rows):
                U[i][k] = -U[i][k]

    divisors = tuple(A[i][i] for i in range(min(rows, cols)))
    return SmithDecomposition(
        U=tuple(tuple(r) for r in U),
        V=tuple(tuple(r) for r in V),
        V_inverse=tuple(tuple(r) for r in Vi),
        divisors=divisors,
        rows=rows,
        cols=cols,
    )


def sparse_rows(M) -> tuple[list[dict], int]:
    """A dense matrix as sparse rows ``{column: nonzero entry}`` and its
    column count: the one way a dense matrix enters the kernel.

    >>> sparse_rows([[0, 2], [0, 0]])
    ([{1: 2}, {}], 2)
    """
    rows = [{j: x for j, x in enumerate(row) if x} for row in M]
    return rows, len(M[0]) if M else 0


def _clear_denominators(row: dict) -> dict[int, int]:
    """Scale a sparse row by the lcm of its denominators (kernel-preserving).

    Entries are ints or Fractions, which both carry ``numerator`` and
    ``denominator``; no Fraction is built.
    """
    scale = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (scale // x.denominator) for j, x in row.items()}


def _dense(rows: list[dict], columns) -> IntMatrix:
    return [[row.get(j, 0) for j in columns] for row in rows]


def _row_blocks(rows: list[dict], cols: int) -> list[tuple[list[int], list[int]]]:
    """Connected components of the row/column support graph of a matrix
    given as sparse rows.

    Two columns are linked when some row is nonzero in both.  Each block is
    a pair ``(rows, cols)`` of sorted indices: the rows nonzero somewhere in
    the block, and its columns.  A zero row lies in no block; a zero column
    is a block of its own with no rows.  Blocks come in the order of their
    first column, and permuting rows and columns by them makes the matrix
    block diagonal.

    >>> _row_blocks(*sparse_rows([[1, 1, 0], [0, 0, 0], [0, 0, 3]]))
    [([0], [0, 1]), ([2], [2])]
    """
    parent = list(range(cols))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for row in rows:
        if not row:
            continue
        support = iter(row)
        root = find(next(support))
        for j in support:
            r = find(j)
            if r != root:
                parent[r] = root
    by_root: dict[int, tuple[list[int], list[int]]] = {}
    for j in range(cols):
        by_root.setdefault(find(j), ([], []))[1].append(j)
    for i, row in enumerate(rows):
        if row:
            by_root[find(next(iter(row)))][0].append(i)
    return list(by_root.values())


def _snf_kernel(Mi: IntMatrix) -> tuple[IntMatrix, tuple]:
    """Kernel columns ``V[:, r:]`` and their left inverse ``V_inverse[r:]``,
    read off the right transform of one Smith form of rank r."""
    snf = smith_normal_form(Mi)
    r = snf.rank
    return [list(row[r:]) for row in snf.V], snf.V_inverse[r:]


def kernel_saturated(M) -> IntMatrix:
    """Basis of the saturated integer kernel of a rational matrix.

    Returns a matrix whose columns form a basis of
    ``{x in Z^cols : M x = 0}``; the basis of :func:`kernel_saturated_sparse`
    of :func:`sparse_rows`, where the blocks are split.

    >>> kernel_saturated([[2, -2]])
    [[1], [1]]
    >>> kernel_saturated([[1, -1, 0, 0], [0, 0, 2, -2]])
    [[1, 0], [1, 0], [0, 1], [0, 1]]
    """
    return kernel_saturated_sparse(*sparse_rows(M))[0]


def kernel_saturated_sparse(rows: list[dict], cols: int) -> tuple[IntMatrix, list[tuple]]:
    """The saturated kernel basis K of a matrix given as sparse rows, and
    an integer left inverse L of it, ``L K = I``, one tuple of nonzero
    ``(column, entry)`` pairs per row.

    ``rows[i]`` maps the columns of row i to its nonzero int or Fraction
    entries.  Each connected block of the support graph
    (:func:`_row_blocks`) is made dense and gets its own Smith form
    ``U M_b V = D`` of rank r: ``V[:, r:]`` is its kernel basis and
    ``V_inverse[r:]`` a left inverse of it, so the basis spans a direct
    summand, and so does the direct sum over the blocks (no saturation
    step is needed).  Kernel columns come block by block, in block order.
    A connected matrix is one block and gets exactly the basis of
    :func:`kernel_saturated_reference`.

    >>> kernel_saturated_sparse([{0: 2, 1: -2}], 2)
    ([[1], [1]], [((1, 1),)])
    """
    rows = [_clear_denominators(row) for row in rows]
    blocks = _row_blocks(rows, cols)
    if len(blocks) == 1:
        # with its zero rows, as the oracle takes it
        blocks = [(range(len(rows)), range(cols))]
    kernel, inverse = [], []  # the columns of K and the rows of L, sparse
    for brows, bcols in blocks:
        if not brows:
            kernel.append(((bcols[0], 1),))
            inverse.append(((bcols[0], 1),))
            continue
        Kb, Lb = _snf_kernel(_dense([rows[i] for i in brows], bcols))
        for column, row in zip(zip(*Kb), Lb):
            kernel.append([(j, x) for j, x in zip(bcols, column) if x])
            inverse.append(tuple((j, x) for j, x in zip(bcols, row) if x))
    K = [[0] * len(kernel) for _ in range(cols)]
    for t, column in enumerate(kernel):
        for j, x in column:
            K[j][t] = x
    return K, inverse


def kernel_saturated_reference(M) -> IntMatrix:
    """Oracle of :func:`kernel_saturated`: one Smith form of the whole matrix.

    >>> kernel_saturated_reference([[1, -1, 0, 0], [0, 0, 2, -2]])
    [[1, 0], [1, 0], [0, 1], [0, 1]]
    """
    rows, cols = sparse_rows(M)
    if cols == 0:
        return []
    return _snf_kernel(_dense([_clear_denominators(row) for row in rows], range(cols)))[0]


class CokernelInvariants(namedtuple("CokernelInvariants", "divisors free_rank")):
    """Elementary divisors of a quotient ``Z^n / column-span``.

    ``divisors`` lists the finite elementary divisors (including trivial
    1s, one per pivot); ``free_rank`` counts the infinite cyclic summands.
    The quotient is trivial exactly when every divisor is 1 and the free
    rank is 0.
    """

    __slots__ = ()

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and all(d == 1 for d in self.divisors)


def cokernel_invariants(generators, ambient_rank: int) -> CokernelInvariants:
    """Invariants of ``Z^ambient_rank`` modulo the span of the given columns.

    A square matrix of determinant +-1 spans everything: its Smith form is
    the identity, so the answer is read off :func:`det_bareiss` without
    one.  Any other matrix takes the Smith form, the oracle of that
    shortcut.

    >>> cokernel_invariants([[2], [0]], 2)
    CokernelInvariants(divisors=(2,), free_rank=1)
    >>> cokernel_invariants(identity_matrix(3), 3).is_trivial
    True
    """
    if len(generators) != ambient_rank:
        raise ValueError(
            f"generator matrix has {len(generators)} rows, expected {ambient_rank}"
        )
    if all(len(row) == ambient_rank for row in generators) and abs(det_bareiss(generators)) == 1:
        return CokernelInvariants((1,) * ambient_rank, 0)
    snf = smith_normal_form(generators)
    finite = tuple(d for d in snf.divisors if d != 0)
    return CokernelInvariants(divisors=finite, free_rank=ambient_rank - len(finite))


def det_bareiss(M) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(M)
    if n == 0:
        return 1
    A = [[int(x) for x in row] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def is_positive_definite(S) -> bool:
    """Exact positive-definiteness test via leading principal minors.

    The input may be rational; it is scaled by a positive integer (which
    preserves definiteness).  One fraction-free Bareiss elimination without
    row exchanges reads the leading principal minors as its successive
    pivots and stops at the first that is not positive.

    >>> is_positive_definite([[2, 1], [1, 1]])
    True
    >>> is_positive_definite([[1, 0], [0, -1]])
    False
    """
    n = len(S)
    if any(len(row) != n for row in S):
        raise NotSymmetric("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if S[i][j] != S[j][i]:
                raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")
    scale = lcm(*(x.denominator for row in S for x in row))
    A = [[int(x * scale) for x in row] for row in S]
    prev = 1
    for k in range(n):
        p = A[k][k]
        if p <= 0:
            return False
        Ak = A[k]
        for i in range(k + 1, n):
            Ai = A[i]
            a = Ai[k]
            for j in range(k + 1, n):
                Ai[j] = (Ai[j] * p - a * Ak[j]) // prev
        prev = p
    return True


def scaled_inverse(M, c: int) -> IntMatrix:
    """The integer matrix ``c M^{-1}`` of a nonsingular square integer matrix.

    From the Smith form ``U M V = D``, ``c M^{-1} = V (c D^{-1}) U``.  As
    ``U`` and ``V`` are unimodular, it is integral exactly when every
    divisor divides ``c``; :class:`ValueError` otherwise, and
    :class:`ZeroDivisionError` when ``M`` is not invertible.

    >>> scaled_inverse([[2, 1], [1, 1]], 1)
    [[1, -1], [-1, 2]]
    >>> scaled_inverse([[0, 2], [-2, 0]], 2)
    [[0, -1], [1, 0]]
    """
    snf = smith_normal_form(M)
    if snf.rows != snf.cols or 0 in snf.divisors:
        raise ZeroDivisionError("matrix is not invertible")
    if any(c % d for d in snf.divisors):
        raise ValueError(f"{c} M^-1 is not integral: divisors {snf.divisors}")
    return mat_mul(snf.V, [[c // d * x for x in row] for d, row in zip(snf.divisors, snf.U)])


def rational_solve(A, b):
    """One exact solution of ``A x = b``, or None if inconsistent.

    ``A`` is rows x cols over ints/Fractions, ``b`` a length-rows vector.
    When the columns of ``A`` are independent the solution is unique.
    """
    from fractions import Fraction

    rows = len(A)
    cols = len(A[0]) if rows else 0
    M = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if M[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = M[i][cols]
    return x

