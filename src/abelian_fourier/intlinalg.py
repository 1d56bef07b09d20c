"""Exact integer linear algebra for lattice computations.

Everything in this module is exact and, apart from the oracle
:func:`rational_solve`, integral: there is no floating point.  A dense
matrix enters through :func:`int_matrix`, the one matrix gate, which
raises :class:`TypeError` on an entry that is not an int and
:class:`ValueError` on rows of different lengths, and a scalar (an
ambient rank, a scale) through ``errors.require_int``.
Matrices are dense lists of rows of Python ints,
except for the kernel and the sparse cokernel (below):
:func:`kernel_saturated_sparse` takes sparse rows ``{column: entry}``,
splits the matrix into the connected blocks of its row/column support
graph and makes only each block dense, so a 210x210 operator whose blocks
have side at most 8 costs eliminations of side 8, not one of side 210.
Blocks with equal entries share one elimination: the 70 nonempty blocks
of that operator (the derivation of E^5 in degree 4) are 4 distinct ones.
It returns the kernel basis K sparse by column, as pairs ``(row index,
entry)``, and its left inverse L sparse by row, so nothing of side 210 is
ever dense.  A dense matrix enters it through :func:`sparse_rows`, and
:func:`kernel_saturated` makes K dense again by :func:`dense_columns`.

Two eliminations serve everything.  The column echelon form
:func:`_echelon` (Cohen, GTM 138, section 2.4) gives kernels, with the
unimodular transform V of its column operations and V's inverse: the
last columns of V are a kernel basis and the last rows of ``V^{-1}`` an
integer left inverse of it, a proof of saturation.  Nothing bounds the
entries of V: on dense 18x20 matrices with entries in [-9, 9] the kernel
basis reaches about 15 digits and its left inverse about 110.  Taken on
a matrix and its transpose in turn it diagonalizes it, which gives the
divisors of
:func:`smith_normal_form`.  The cokernel invariants split the matrix into
the same connected blocks as the kernel and take a Smith form only of a
block larger than 1x1; :func:`_divisor_chain` merges the blocks'
divisors, as it merges the diagonal that ends a Smith form, and
:func:`smith_normal_form` of the whole matrix stays as their oracle.
:func:`cokernel_invariants_sparse` takes the columns sparse, so a
certificate makes nothing dense but its blocks.  The fraction-free
elimination :func:`_bareiss` gives :func:`det_bareiss` and the adjugate
behind :func:`scaled_inverse`.  :func:`kernel_saturated_reference` stays
as the oracle of the block kernel, and :func:`rational_solve` as the
oracle of lattice coordinates.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

IntMatrix = list[list[int]]

from .errors import NotSymmetric, require_int


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    """Matrix product of two integer matrices, lists or tuples of rows; a
    row of A that is not as long as B is tall, or a row of B that is not
    as long as the first, is a :class:`ValueError`.

    >>> mat_mul([[1, 2]], [[1], [2, 3]])
    Traceback (most recent call last):
    ValueError: matrix B has rows of different lengths
    """
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    if any(len(row) != inner for row in A):
        raise ValueError("inner dimensions differ")
    if any(len(row) != cols for row in B):
        raise ValueError("matrix B has rows of different lengths")
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


class SmithDecomposition(namedtuple("SmithDecomposition", "divisors")):
    """Smith normal form ``U * M * V = diag(divisors)`` of an integer
    matrix, for unimodular U and V that are not kept.  ``divisors`` is the
    full diagonal of length ``min(rows, cols)``, nonnegative, each entry
    dividing the next (zeros last)."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return sum(1 for d in self.divisors if d != 0)


def int_matrix(M) -> IntMatrix:
    """A fresh list-of-rows copy of an integer matrix; :class:`TypeError`
    on an entry that is not an int, which ``int()`` would truncate, and
    :class:`ValueError` on rows of different lengths, which a reader
    would pad or index past.

    >>> int_matrix([[1, 2], [3]])
    Traceback (most recent call last):
    ValueError: matrix [[1, 2], [3]] has rows of different lengths
    """
    A = [list(row) for row in M]
    if not all(type(x) is int for row in A for x in row):
        raise TypeError(f"matrix {M!r} has an entry that is not an integer")
    if any(len(row) != len(A[0]) for row in A):
        raise ValueError(f"matrix {M!r} has rows of different lengths")
    return A


def _echelon(A: IntMatrix, V=None, V_inverse=None) -> int:
    """Column echelon form of an integer matrix, in place; returns its rank.

    The rows are taken in turn.  In each, the entry of smallest nonzero
    absolute value right of the r pivots found so far moves to column r,
    and a column step reduces every other entry right of it modulo it;
    this repeats until the remainders vanish, and column r then holds the
    gcd of the row and r grows by one.  Reducing all entries by the
    smallest one keeps the multipliers small: reducing them one after
    another by a pivot that each nonzero remainder replaces grew the 16x16
    coordinate matrix of a genus-4 certificate, entries of at most two
    digits, past 4300 digits within 11 rows.  Rows
    above the current one are zero right of the pivots, so the steps
    touch only the current row and those below.

    ``V`` (cols x cols), when given, takes the same column operations and
    ``V_inverse`` their inverse row operations, so from the identity they
    end as a unimodular V with ``A_in V = A_out`` and its inverse.  The
    last ``cols - r`` columns of ``A_in V`` are zero: ``V[:, r:]`` is a
    basis of the saturated kernel and ``V_inverse[r:]`` a left inverse.

    >>> A = [[2, 3], [4, 6]]
    >>> _echelon(A), A
    (1, [[1, 0], [2, 0]])
    """
    cols = len(A[0]) if A else 0
    r = 0
    for i, Ai in enumerate(A):
        rows = A[i:] + (V or [])  # the rows the column operations reach
        while True:
            nonzero = [j for j in range(r, cols) if Ai[j]]
            if not nonzero:
                break
            j = min(nonzero, key=lambda j: abs(Ai[j]))
            if j != r:
                for row in rows:
                    row[r], row[j] = row[j], row[r]
                if V_inverse is not None:
                    V_inverse[r], V_inverse[j] = V_inverse[j], V_inverse[r]
            if len(nonzero) == 1:
                r += 1
                break
            p = Ai[r]
            for j in range(r + 1, cols):
                if Ai[j]:
                    q = Ai[j] // p
                    for row in rows:
                        row[j] -= q * row[r]
                    if V_inverse is not None:
                        V_inverse[r] = [a + q * b for a, b in zip(V_inverse[r], V_inverse[j])]
    return r


def smith_normal_form(M) -> SmithDecomposition:
    """Smith normal form of an integer matrix: its divisors.

    The matrix is brought to column echelon form by :func:`_echelon`, then
    its transpose, and so on in turn until it is diagonal; then each pair
    of diagonal entries is replaced by their gcd and lcm
    (:func:`_divisor_chain`), which gives the divisor chain.  This
    terminates: a pass makes the first row (or column) zero apart from
    its pivot, the gcd of that row.  Once a pass leaves the first row and
    the first column both clear apart from the pivot, no later pass
    touches them, and the rest is the same process on a smaller matrix.
    Until then, the next pass either clears them or swaps a smaller entry
    into the pivot, so ``|pivot|`` falls strictly.

    >>> smith_normal_form([[2, 0], [0, 3]]).divisors
    (1, 6)
    >>> smith_normal_form([[2, 4], [6, 8]]).divisors
    (2, 4)
    >>> smith_normal_form([[3, 0], [0, -6]]).divisors
    (3, 6)
    """
    A = int_matrix(M)
    size = min(len(A), len(A[0])) if A else 0
    while True:
        rank = _echelon(A)
        if all(x == 0 for i, row in enumerate(A) for j, x in enumerate(row) if i != j):
            break
        A = [list(column) for column in zip(*A)]
    divisors = _divisor_chain([A[i][i] for i in range(rank)])
    return SmithDecomposition(divisors + (0,) * (size - rank))


def _divisor_chain(diagonal) -> tuple[int, ...]:
    """The Smith divisors of the diagonal matrix of nonzero ints ``diagonal``.

    Each pair of entries is replaced by their gcd and lcm, which leaves a
    chain, each dividing the next.  Units are set aside first: a 1 moves
    nothing (``gcd(1, d) = 1``), so they lead the chain and cost no pass.

    >>> _divisor_chain([6, -1, 4, 1])
    (1, 1, 2, 12)
    """
    rest = [abs(d) for d in diagonal if abs(d) != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            a, b = rest[i], rest[j]
            rest[i] = g = gcd(a, b)
            rest[j] = a // g * b
    return (1,) * (len(diagonal) - len(rest)) + tuple(rest)


def sparse_rows(M) -> tuple[list[dict], int]:
    """A dense matrix as sparse rows ``{column: nonzero entry}`` and its
    column count: the one way a dense matrix enters the kernel.

    >>> sparse_rows([[0, 2], [0, 0]])
    ([{1: 2}, {}], 2)
    """
    rows = [{j: x for j, x in enumerate(row) if x} for row in M]
    return rows, len(M[0]) if M else 0


def _row_blocks(rows: list[dict], cols: int) -> list[tuple[list[int], list[int]]]:
    """Connected components of the row/column support graph of a matrix
    given as sparse rows.

    Two columns are linked when some row is nonzero in both.  Each block is
    a pair ``(rows, cols)`` of sorted indices: the rows nonzero somewhere in
    the block, and its columns.  A zero row lies in no block; a zero column
    is a block of its own with no rows.  Blocks come in the order of their
    first column, and permuting rows and columns by them makes the matrix
    block diagonal.  An entry that is not an int (a bool, say) is a
    :class:`TypeError`, and a column outside ``range(cols)``, a negative
    one included, a :class:`ValueError`: the one check of the kernel's
    sparse rows.

    >>> _row_blocks(*sparse_rows([[1, 1, 0], [0, 0, 0], [0, 0, 3]]))
    [([0], [0, 1]), ([2], [2])]
    """
    # Union-find that hangs the larger root under the smaller, so every
    # parent is at most its column and each root is its block's first
    # column; each column is sent to its root by path halving, inline.
    parent = list(range(cols))
    for row in rows:
        root = None
        for j, x in row.items():
            if type(x) is not int:
                raise TypeError(f"sparse row {row!r} has an entry that is not an integer")
            if not 0 <= j < cols:
                raise ValueError(f"sparse row {row!r} has column {j!r} outside range({cols})")
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if root is None:
                root = j
            elif j < root:
                parent[root] = root = j
            elif j > root:
                parent[j] = root
    # parents come before their columns, so one ascending pass sends
    # every column to its root, and a block starts at its root
    blocks: dict[int, tuple[list[int], list[int]]] = {}
    for j in range(cols):
        r = parent[j] = parent[parent[j]]
        if r == j:
            blocks[j] = ([], [j])
        else:
            blocks[r][1].append(j)
    for i, row in enumerate(rows):
        if row:
            blocks[parent[next(iter(row))]][0].append(i)
    return list(blocks.values())


def _kernel(A: IntMatrix, cols: int) -> tuple[IntMatrix, IntMatrix]:
    """Kernel columns ``V[:, r:]`` and their left inverse ``V_inverse[r:]``
    from one :func:`_echelon` of rank r of the cols-column matrix A."""
    V, V_inverse = identity_matrix(cols), identity_matrix(cols)
    r = _echelon(A, V, V_inverse)
    return [row[r:] for row in V], V_inverse[r:]


def dense_columns(columns, rows: int) -> IntMatrix:
    """The dense rows x len(columns) matrix of sparse columns, each a
    tuple of ``(row index, entry)`` pairs, as :func:`kernel_saturated_sparse`
    returns its kernel basis.

    >>> dense_columns([((0, 1), (2, 5)), ((1, -1),)], 3)
    [[1, 0], [0, -1], [5, 0]]
    """
    M = [[0] * len(columns) for _ in range(rows)]
    for t, column in enumerate(columns):
        for i, x in column:
            M[i][t] = x
    return M


def kernel_saturated(M) -> IntMatrix:
    """Basis of the saturated integer kernel of an integer matrix.

    Returns a matrix whose columns form a basis of
    ``{x in Z^cols : M x = 0}``: the sparse basis of
    :func:`kernel_saturated_sparse` of :func:`sparse_rows`, where the
    blocks are split, made dense by :func:`dense_columns`.
    :class:`TypeError` on an entry that is not an int (:func:`int_matrix`).

    >>> kernel_saturated([[2, -2]])
    [[1], [1]]
    >>> kernel_saturated([[1, -1, 0, 0], [0, 0, 2, -2]])
    [[1, 0], [1, 0], [0, 1], [0, 1]]
    """
    rows, cols = sparse_rows(int_matrix(M))
    return dense_columns(kernel_saturated_sparse(rows, cols)[0], cols)


def kernel_saturated_sparse(rows: list[dict], cols: int) -> tuple[list[tuple], list[tuple]]:
    """The saturated kernel basis K of a matrix given as sparse rows, one
    tuple of nonzero ``(row index, entry)`` pairs per column, and an
    integer left inverse L of it, ``L K = I``, one tuple of nonzero
    ``(column, entry)`` pairs per row.

    ``rows[i]`` maps the columns of row i to its nonzero int entries.
    Each connected block of the support graph (:func:`_row_blocks`) is
    made dense and gets its own column echelon form ``M_b V`` of rank r
    (:func:`_echelon`): ``V[:, r:]`` is its kernel basis and
    ``V_inverse[r:]`` a left inverse of it, so the basis spans a direct
    summand, and so does the direct sum over the blocks (no saturation
    step is needed).  Kernel columns come block by block, in
    block order.  A connected matrix is one block, and a zero row does not
    move a column echelon, so it gets exactly the basis of
    :func:`kernel_saturated_reference`.

    Blocks with equal entries have equal kernels, so each distinct block
    is solved once: a dict that lives for this call maps the entries of a
    block to its kernel and left inverse in block coordinates, which later
    equal blocks only read.  The derivation of a split complex structure
    repeats few blocks many times: on E^5 in degree 4 the 70 nonempty
    blocks are 4 distinct ones, on E^4 26 blocks are 4, and on E^6 in
    degree 6 242 blocks are 6.

    A column count that is not an int is a :class:`TypeError` and a
    negative one a :class:`ValueError`, as for
    :func:`cokernel_invariants_sparse`.

    >>> kernel_saturated_sparse([{0: 2, 1: -2}], 2)
    ([((0, 1), (1, 1))], [((1, 1),)])
    """
    require_int(cols, "column count")
    if cols < 0:
        raise ValueError(f"column count {cols} is negative")
    kernel, inverse = [], []  # the columns of K and the rows of L, sparse
    solved: dict = {}  # block entries -> its (K_b, L_b), in block coordinates
    for brows, bcols in _row_blocks(rows, cols):
        if not brows:
            kernel.append(((bcols[0], 1),))
            inverse.append(((bcols[0], 1),))
            continue
        block = [[rows[i].get(j, 0) for j in bcols] for i in brows]
        key = tuple(map(tuple, block))
        if key not in solved:
            Kb, Lb = _kernel(block, len(bcols))
            solved[key] = (
                [tuple([(t, x) for t, x in enumerate(column) if x]) for column in zip(*Kb)],
                [tuple([(t, x) for t, x in enumerate(row) if x]) for row in Lb],
            )
        Kb, Lb = solved[key]
        kernel += [tuple([(bcols[t], x) for t, x in column]) for column in Kb]
        inverse += [tuple([(bcols[t], x) for t, x in row]) for row in Lb]
    return kernel, inverse


def kernel_saturated_reference(M) -> IntMatrix:
    """Oracle of :func:`kernel_saturated`: one column echelon form of the
    whole matrix, not split into blocks.

    >>> kernel_saturated_reference([[1, -1, 0, 0], [0, 0, 2, -2]])
    [[1, 0], [1, 0], [0, 1], [0, 1]]
    """
    A = int_matrix(M)
    return _kernel(A, len(A[0]) if A else 0)[0]


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
    """Invariants of ``Z^ambient_rank`` modulo the span of the columns of
    the dense matrix ``generators``, read off :func:`_block_divisors`.

    The matrix enters through :func:`sparse_rows` of :func:`int_matrix`,
    which rejects an entry that is not an int, zeros included, before
    ``sparse_rows`` drops them, and rows of different lengths; an
    ambient rank that is not an int is a :class:`TypeError`.  Blocks
    (2) and (3), rows and columns permuted and a zero column added,
    leave ``Z/6``:

    >>> cokernel_invariants([[0, 3, 0], [2, 0, 0]], 2)
    CokernelInvariants(divisors=(1, 6), free_rank=0)
    >>> cokernel_invariants([[2], [0]], 2)
    CokernelInvariants(divisors=(2,), free_rank=1)
    >>> cokernel_invariants(identity_matrix(3), 3).is_trivial
    True
    """
    require_int(ambient_rank, "ambient rank")
    if len(generators) != ambient_rank:
        raise ValueError(
            f"generator matrix has {len(generators)} rows, expected {ambient_rank}"
        )
    divisors = _block_divisors(*sparse_rows(int_matrix(generators)))
    return CokernelInvariants(divisors=divisors, free_rank=ambient_rank - len(divisors))


def cokernel_invariants_sparse(columns: list[dict], ambient_rank: int) -> CokernelInvariants:
    """:func:`cokernel_invariants` of sparse columns, each ``{row index:
    nonzero int entry}``, as :func:`hodge.voisin_certificate` passes its
    coordinates.  The columns are the sparse rows of the transpose, which
    has the same divisors.

    >>> cokernel_invariants_sparse([{1: 3}, {0: 2}, {}], 3)
    CokernelInvariants(divisors=(1, 6), free_rank=1)
    """
    require_int(ambient_rank, "ambient rank")
    if ambient_rank < 0:
        raise ValueError(f"ambient rank {ambient_rank} is negative")
    divisors = _block_divisors(columns, ambient_rank)
    return CokernelInvariants(divisors=divisors, free_rank=ambient_rank - len(divisors))


def _block_divisors(rows: list[dict], cols: int) -> tuple[int, ...]:
    """The nonzero Smith divisors of a matrix given as sparse rows.

    The Smith form of a block-diagonal matrix is the gcd/lcm merge of its
    blocks' divisors (Cohen, GTM 138, section 2.4), so the matrix is split
    into the connected blocks of its support graph (:func:`_row_blocks`,
    which also checks the entries' type): a 1x1 block gives ``|entry|``, a
    larger one the divisors of its :func:`smith_normal_form`, and
    :func:`_divisor_chain` merges them all.  A signed permutation, as the
    coordinates of the transforms of the Hodge basis of
    ``standard_ppav(6)`` are in every degree, is all 1x1 blocks and takes
    no elimination.
    """
    divisors = []
    for brows, bcols in _row_blocks(rows, cols):
        if len(brows) == len(bcols) == 1:
            divisors.append(rows[brows[0]][bcols[0]])
        elif brows:
            block = [[rows[i].get(j, 0) for j in bcols] for i in brows]
            divisors += [d for d in smith_normal_form(block).divisors if d]
    return _divisor_chain(divisors)


def _bareiss(A, jordan: bool = False) -> int:
    """The fraction-free (Bareiss 1968) elimination of an n-row integer
    matrix in place; returns the determinant of its leading n x n block.

    Each step is ``a_ij <- (a_ij p - a_ik a_kj) / prev``, exact, on every
    row below the pivot p, or with ``jordan`` on every other row, so a
    nonsingular ``[M | I]`` ends as ``[d I | d M^{-1}]``, ``d = det M``.
    A zero pivot is swapped with a lower row, one of the two negated to
    keep d and to give p the sign of prev: a row with ``a_ik = 0`` is
    skipped while ``p == prev``, since the step keeps it.
    """
    n = len(A)
    prev = 1
    for k in range(n):
        if A[k][k] == 0:
            i = next((i for i in range(k + 1, n) if A[i][k]), None)
            if i is None:
                return 0
            s = 1 if (A[i][k] > 0) == (prev > 0) else -1
            A[k], A[i] = [s * x for x in A[i]], [-s * x for x in A[k]]
        p, tail = A[k][k], A[k][k + 1:]
        for i in range(n) if jordan else range(k + 1, n):
            Ai = A[i]
            a = Ai[k]
            if i == k or (a == 0 and p == prev):
                continue
            Ai[k + 1:] = [(x * p - a * y) // prev for x, y in zip(Ai[k + 1:], tail)]
            Ai[k] = 0
            if i < k:
                Ai[i] = p
        prev = p
    return prev


def det_bareiss(M) -> int:
    """Determinant of a square integer matrix by :func:`_bareiss`;
    :class:`ValueError` when the matrix is not square."""
    A = int_matrix(M)
    if any(len(row) != len(A) for row in A):
        raise ValueError(f"matrix with {len(A)} rows is not square")
    return _bareiss(A)


def is_positive_definite(S) -> bool:
    """Exact positive-definiteness test of a symmetric integer matrix by
    Sylvester's criterion: every leading principal minor, each read from
    :func:`_bareiss`, is positive.  A matrix that is not square or not
    symmetric raises :class:`NotSymmetric`.

    >>> is_positive_definite([[2, 1], [1, 1]])
    True
    >>> is_positive_definite([[1, 0], [0, -1]])
    False
    """
    A = int_matrix(S)
    n = len(A)
    if any(len(row) != n for row in A):
        raise NotSymmetric("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if A[i][j] != A[j][i]:
                raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")
    return all(_bareiss([row[:k] for row in A[:k]]) > 0 for k in range(1, n + 1))


def scaled_inverse(M, c: int) -> IntMatrix:
    """The integer matrix ``c M^{-1}`` of a nonsingular square integer matrix.

    One Gauss-Jordan :func:`_bareiss` of ``[M | I]`` gives ``d = det M``
    and the adjugate ``d M^{-1}``, whose entries x give ``c x / d``.  That
    is integral exactly when the largest elementary divisor of M, ``|d|``
    over the gcd of d and the adjugate, divides c; :class:`ValueError`
    otherwise, :class:`ZeroDivisionError` when M is not invertible, and
    :class:`TypeError` when c is not an int.

    >>> scaled_inverse([[2, 1], [1, 1]], 1)
    [[1, -1], [-1, 2]]
    >>> scaled_inverse([[0, 2], [-2, 0]], 2)
    [[0, -1], [1, 0]]
    """
    require_int(c, "scale")
    n = len(M)
    if any(len(row) != n for row in M):
        raise ZeroDivisionError("matrix is not invertible: not square")
    A = [row + e for row, e in zip(int_matrix(M), identity_matrix(n))]
    d = _bareiss(A, jordan=True)
    if d == 0:
        raise ZeroDivisionError("matrix is not invertible")
    largest = abs(d) // gcd(d, *(x for row in A for x in row[n:]))
    if c % largest:
        raise ValueError(f"{c} M^-1 is not integral: largest divisor {largest}")
    return [[c * x // d for x in row[n:]] for row in A]


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

