"""Exact integer and rational linear algebra for lattice computations.

Everything in this module is exact: integer matrices are lists of rows of
Python ints, rational matrices use :class:`fractions.Fraction`.  There is
deliberately no floating point and no sparse format; matrices at desk scale
(a few hundred rows) are handled comfortably by dense arithmetic.

The central routine is :func:`smith_normal_form`, which returns the full
decomposition ``U * M * V = diag(divisors)`` with unimodular ``U`` and
``V``.  Saturated kernels, cokernel invariants and positive-definiteness
tests are derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

IntMatrix = list[list[int]]
RatMatrix = list[list[Fraction]]

from .errors import NotSymmetric


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_matrix(rows: int, cols: int) -> IntMatrix:
    return [[0] * cols for _ in range(rows)]


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


def mat_eq(A, B) -> bool:
    return len(A) == len(B) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(A, B)
    )


def scalar_matrix(n: int, c) -> list[list]:
    return [[c if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class SmithDecomposition:
    """Smith normal form ``U * M * V = diag(divisors)``.

    ``U`` and ``V`` are unimodular; ``divisors`` is the full diagonal of
    length ``min(rows, cols)``, nonnegative, each entry dividing the next
    (with trailing zeros, since every integer divides 0).
    """

    U: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]
    divisors: tuple[int, ...]
    rows: int
    cols: int

    @property
    def rank(self) -> int:
        return sum(1 for d in self.divisors if d != 0)

    def diagonal_matrix(self) -> IntMatrix:
        D = zero_matrix(self.rows, self.cols)
        for i, d in enumerate(self.divisors):
            D[i][i] = d
        return D


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


def smith_normal_form(M) -> SmithDecomposition:
    """Smith normal form of an integer matrix with transform matrices.

    Pivoting picks the entry of smallest nonzero absolute value in the
    remaining block, which keeps intermediate entries small on the lattice
    matrices that occur here.

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
                    if A[t][j]:
                        _swap_cols(A, t, j)
                        _swap_cols(V, t, j)
                        dirty = True
                        p = A[t][t]
            if dirty:
                continue
            # Pivot must divide the whole remaining block for the divisor
            # chain; drag a bad row onto the pivot row and start over.
            bad = None
            for i in range(t + 1, rows):
                Ai = A[i]
                for j in range(t + 1, cols):
                    if Ai[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            _add_row(A, t, bad, 1)
            _add_row(U, t, bad, 1)
        t += 1

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
        divisors=divisors,
        rows=rows,
        cols=cols,
    )


def _clear_row_denominators(M) -> IntMatrix:
    """Scale each row by the lcm of its denominators (kernel-preserving)."""
    out = []
    for row in M:
        fracs = [Fraction(x) for x in row]
        scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
        out.append([int(f * scale) for f in fracs])
    return out


def kernel_saturated(M) -> IntMatrix:
    """Basis of the saturated integer kernel of a rational matrix.

    Returns a matrix whose columns form a basis of
    ``{x in Z^cols : M x = 0}``.  Because the basis is read off the
    unimodular right transform of a Smith decomposition, it automatically
    spans a direct summand of ``Z^cols`` (no saturation step is needed).

    >>> kernel_saturated([[2, -2]])
    [[1], [1]]
    """
    Mi = _clear_row_denominators(M)
    cols = len(Mi[0]) if Mi else 0
    if not Mi or cols == 0:
        return [[ ] for _ in range(cols)]
    snf = smith_normal_form(Mi)
    r = snf.rank
    basis_cols = range(r, cols)
    return [[snf.V[i][j] for j in basis_cols] for i in range(cols)]


@dataclass(frozen=True)
class CokernelInvariants:
    """Elementary divisors of a quotient ``Z^n / column-span``.

    ``divisors`` lists the finite elementary divisors (including trivial
    1s, one per pivot); ``free_rank`` counts the infinite cyclic summands.
    The quotient is trivial exactly when every divisor is 1 and the free
    rank is 0.
    """

    divisors: tuple[int, ...]
    free_rank: int

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and all(d == 1 for d in self.divisors)

    @property
    def nontrivial_divisors(self) -> tuple[int, ...]:
        return tuple(d for d in self.divisors if d != 1)


def cokernel_invariants(generators, ambient_rank: int) -> CokernelInvariants:
    """Invariants of ``Z^ambient_rank`` modulo the span of the given columns.

    >>> cokernel_invariants([[2], [0]], 2)
    CokernelInvariants(divisors=(2,), free_rank=1)
    >>> cokernel_invariants(identity_matrix(3), 3).is_trivial
    True
    """
    if len(generators) != ambient_rank:
        raise ValueError(
            f"generator matrix has {len(generators)} rows, expected {ambient_rank}"
        )
    if ambient_rank == 0:
        return CokernelInvariants(divisors=(), free_rank=0)
    if not generators[0]:
        return CokernelInvariants(divisors=(), free_rank=ambient_rank)
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


def is_unimodular(M) -> bool:
    return len(M) > 0 and len(M) == len(M[0]) and abs(det_bareiss(M)) == 1


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


def rational_inverse(M) -> RatMatrix:
    """Exact inverse of a nonsingular square matrix, over Fractions."""
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


def rational_solve(A, b):
    """One exact solution of ``A x = b``, or None if inconsistent.

    ``A`` is rows x cols over ints/Fractions, ``b`` a length-rows vector.
    When the columns of ``A`` are independent the solution is unique.
    """
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

