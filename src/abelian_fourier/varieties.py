"""Abelian varieties as polarized lattices with optional complex structure.

A complex abelian variety of dimension ``g`` is modeled by its first
homology lattice ``Z^{2g}`` together with

* an alternating nondegenerate form ``E`` (the polarization),
* optionally an exact rational complex structure ``J`` on homology with
  ``J^2 = -1`` satisfying the Riemann relations (``E(Jx, Jy) = E(x, y)``
  and ``E(x, Jy)`` symmetric positive definite),
* an orientation sign fixing the fundamental class so that the top
  self-intersection of the polarization class integrates to the product
  of the polarization divisors.

Cohomology is the exterior algebra on the dual lattice, carried by
:class:`~abelian_fourier.exterior.Multivector` with one generator per
lattice basis vector.

The dual variety is modeled on the dual lattice, with complex structure
``-J^T``.  That sign makes the pairing class on ``A x A^`` a Hodge class,
that is a class killed by the derivation ``D_J`` of
:mod:`abelian_fourier.hodge`.  With ``e_i`` the generators of A, ``f_i``
those of the dual and ``J^`` its complex structure, the coefficient of
``e_t f_i`` in ``D(sum_i e_i f_i)`` is ``J[i][t] + J^[t][i]``, which
vanishes for every i and t exactly when ``J^ = -J^T``; ``+J^T`` would
leave ``2 J[i][t]``.

Each variety also carries the mask ``negative`` of the generators whose
term in the pairing class on ``A x A^`` has sign -1: zero as constructed,
complemented by dualization and concatenated by products.  See
:mod:`abelian_fourier.fourier` for why a single global sign cannot satisfy
the transform inversion identity on odd cohomology.

Public construction validates: :func:`make_variety` checks E and J in
full, and ``Homomorphism(...)`` checks the shape, that every entry is an
int (so pullback and pushforward stay integral), and, for a holomorphic
map, ``M J == J M``.  Models and maps that are built in closed form from
validated parts skip those checks through two private constructors.
``_variety`` only orients (it keeps the Pfaffian check) and serves
:func:`elliptic_product`, :func:`dual` and :func:`product`.
``Homomorphism._trusted`` checks nothing and serves ``dual_hom``,
``compose``, :func:`identity_hom`, :func:`scalar_hom`,
:func:`polarization_isogeny`, the maps of :func:`product` and
:func:`structure_homs`, and in :mod:`abelian_fourier.fourier` the graph of
the polarization and the projections of the 4-fold product.  The public
constructors are their oracles: ``tests/test_varieties.py`` rebuilds each
trusted model through ``make_variety`` and each trusted map of a suite
run through ``Homomorphism(...)``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from math import prod

from . import intlinalg
from .errors import (
    ComplexStructureInvalid,
    InvalidType,
    NotAlternating,
    NotIsogeny,
    NotSymmetric,
    RankMismatch,
    RiemannRelationViolated,
    SingularPolarization,
)
from .exterior import ExteriorPower, Multivector, complement_sign, integrate


class AbelianVariety(
    namedtuple(
        "AbelianVariety",
        "name genus E J orientation polarization_type negative",
        defaults=(0,),
    )
):
    """E a tuple of int rows, J exact (see _exact_matrix) or None, and
    ``negative`` the generators whose pairing-class term has sign -1 (bit
    i: generator i)."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return 2 * self.genus

    @property
    def is_principal(self) -> bool:
        return all(d == 1 for d in self.polarization_type)

    def theta_class(self) -> Multivector:
        """Polarization class: the 2-form of E on the dual basis.

        Integrates in top power to the product of the polarization
        divisors: ``integrate(theta^g / g!) = d_1 * ... * d_g``.
        """
        return _theta_form(self.E)

    def point_class(self) -> Multivector:
        """Top-degree class integrating to 1 (the class of a point)."""
        full = (1 << self.rank) - 1
        return Multivector(self.rank, {full: self.orientation})

    def fundamental_class(self) -> Multivector:
        return Multivector.unit(self.rank)

    def integrate(self, x: Multivector):
        if x.rank != self.rank:
            raise RankMismatch(f"class rank {x.rank} != variety rank {self.rank}")
        return integrate(x, self.orientation)

    def __repr__(self):
        return f"AbelianVariety({self.name!r}, g={self.genus}, type={self.polarization_type})"


def _as_int_matrix(E):
    out = []
    for row in E:
        out.append(tuple(int(x) for x in row))
    return tuple(out)


def _exact_matrix(J):
    """Exact entries: an int where the entry is integral, else a Fraction.

    Integral J (every shipped model) then runs in int arithmetic wherever
    it is read: the ``J^2`` and Riemann checks, the intertwining check of
    holomorphic homomorphisms and the Hodge operator.  Int entries are
    kept as they are; only the others go through Fraction.
    """
    return tuple(tuple(map(_exact_entry, row)) for row in J)


def _exact_entry(x):
    if type(x) is int:
        return x
    from fractions import Fraction

    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


def _paired_type(E) -> tuple[int, ...]:
    """Polarization type from the elementary divisors of E, paired off."""
    divisors = intlinalg.smith_normal_form([list(r) for r in E]).divisors
    if any(d == 0 for d in divisors):
        raise SingularPolarization("polarization form is degenerate")
    paired = []
    for k in range(0, len(divisors), 2):
        if divisors[k] != divisors[k + 1]:
            raise NotAlternating("elementary divisors do not pair off")
        paired.append(divisors[k])
    return tuple(paired)


def _theta_form(E) -> Multivector:
    """The 2-form of an alternating matrix E on the dual basis."""
    n = len(E)
    terms = {}
    for i in range(n):
        for j in range(i + 1, n):
            if E[i][j]:
                terms[(1 << i) | (1 << j)] = E[i][j]
    return Multivector(n, terms)


def _pfaffian(E) -> int:
    """Pfaffian of an integer alternating matrix, fraction-free.

    Congruence elimination two rows at a time: the pivot ``T[k][k+1]``
    clears rows ``k`` and ``k+1``, and each trailing entry becomes the
    Pfaffian of a principal minor, divided exactly by the previous pivot
    (the Pfaffian form of Sylvester's identity).  A symmetric swap that
    brings a nonzero pivot into place flips the sign; a zero row makes
    the Pfaffian zero.  It equals the top coefficient of
    ``theta^g / g!`` for the 2-form of E.
    """
    T = [list(row) for row in E]
    n = len(T)
    sign, prev = 1, 1
    for k in range(0, n, 2):
        p = next((j for j in range(k + 1, n) if T[k][j]), None)
        if p is None:
            return 0
        if p != k + 1:
            T[p], T[k + 1] = T[k + 1], T[p]
            for row in T:
                row[p], row[k + 1] = row[k + 1], row[p]
            sign = -sign
        a = T[k][k + 1]
        rk, rk1 = T[k], T[k + 1]
        for i in range(k + 2, n):
            ri = T[i]
            for j in range(i + 1, n):
                v = (a * ri[j] - rk[i] * rk1[j] + rk[j] * rk1[i]) // prev
                ri[j] = v
                T[j][i] = -v
        prev = a
    return sign * prev


def _theta_orientation(E, g, delta) -> int:
    """Orientation making the polarization integrate positively.

    The coefficient of the full monomial in ``theta^g / g!`` is the
    Pfaffian of E, whose absolute value is the product of the
    polarization divisors.
    """
    coeff = _pfaffian(E)
    if abs(coeff) != prod(delta):
        raise SingularPolarization(
            f"Pfaffian {coeff} does not match polarization type {delta}"
        )
    return 1 if coeff > 0 else -1


def make_variety(E, J=None, name: str = "A") -> AbelianVariety:
    """Validated abelian variety from a polarization and optional J.

    Raises :class:`NotAlternating`, :class:`SingularPolarization`,
    :class:`ComplexStructureInvalid` (``J^2 != -1``) or
    :class:`RiemannRelationViolated` (compatibility or positivity).
    """
    Et = _as_int_matrix(E)
    n = len(Et)
    if n % 2 or any(len(row) != n for row in Et):
        raise NotAlternating(f"polarization matrix must be square of even size, got {n}")
    for i in range(n):
        for j in range(n):
            if Et[i][j] != -Et[j][i]:
                raise NotAlternating(f"E[{i}][{j}] != -E[{j}][{i}]")
    delta = _paired_type(Et)
    Jt = None
    if J is not None:
        Jt = _exact_matrix(J)
        if len(Jt) != n or any(len(row) != n for row in Jt):
            raise ComplexStructureInvalid("J has wrong dimensions")
        J2 = intlinalg.mat_mul(Jt, Jt)
        if J2 != intlinalg.scalar_matrix(n, -1):
            raise ComplexStructureInvalid("J^2 != -identity")
        S = intlinalg.mat_mul(Et, Jt)
        try:
            if not intlinalg.is_positive_definite(S):
                raise RiemannRelationViolated("E(x, Jx) is not positive definite")
        except NotSymmetric as exc:
            raise RiemannRelationViolated(f"E(Jx, Jy) != E(x, y): {exc}") from exc
    return _variety(Et, Jt, name, delta)


def _variety(E, J, name: str, delta, negative: int = 0) -> AbelianVariety:
    """A variety whose E, J and type a caller built in closed form from
    validated parts: E an alternating int matrix of type ``delta``, J exact
    (see _exact_matrix) or None, both tuples of rows.  Only the orientation
    is computed, with its Pfaffian check; ``make_variety`` is the oracle."""
    return AbelianVariety(
        name=name,
        genus=len(delta),
        E=E,
        J=J,
        orientation=_theta_orientation(E, len(delta), delta),
        polarization_type=delta,
        negative=negative,
    )


def gaussian_elliptic_curve(name: str = "E_i") -> AbelianVariety:
    """The elliptic curve with complex multiplication by the Gaussian integers."""
    return make_variety(
        E=[[0, 1], [-1, 0]],
        J=[[0, -1], [1, 0]],
        name=name,
    )


def elliptic_product(delta, name: str | None = None) -> AbelianVariety:
    """Power of the Gaussian elliptic curve with polarization type ``delta``.

    The polarization is written in Frobenius form (x-generators first,
    then y-generators) with ``E = [[0, D], [-D, 0]]``; the compatible
    complex structure ``J = [[0, -I], [I, 0]]`` gives every factor
    complex multiplication by the Gaussian integers.
    """
    delta = tuple(int(d) for d in delta)
    g = len(delta)
    if g == 0 or any(d <= 0 for d in delta):
        raise InvalidType(f"polarization type must be positive, got {delta}")
    for a, b in zip(delta, delta[1:]):
        if b % a:
            raise InvalidType(f"{a} does not divide {b} in type {delta}")
    n = 2 * g
    E = [[0] * n for _ in range(n)]
    Jm = [[0] * n for _ in range(n)]
    for i in range(g):
        E[i][g + i] = delta[i]
        E[g + i][i] = -delta[i]
        Jm[i][g + i] = -1
        Jm[g + i][i] = 1
    if name is None:
        name = f"E_i^{g}" if all(d == 1 for d in delta) else f"E_i^{g}{delta}"
    return _variety(tuple(map(tuple, E)), tuple(map(tuple, Jm)), name, delta)


def standard_ppav(g: int, name: str | None = None) -> AbelianVariety:
    """Principally polarized power of the Gaussian elliptic curve."""
    if g <= 0:
        raise InvalidType(f"genus must be positive, got {g}")
    return elliptic_product((1,) * g, name=name or f"E_i^{g}")


# ---------------------------------------------------------------------------
# duality


@lru_cache(maxsize=None)
def dual(A: AbelianVariety) -> AbelianVariety:
    """Dual abelian variety, modeled on the dual lattice.

    The dual polarization is ``-(d_1 d_g) E^{-1}``, the unique rescaled
    inverse that is integral, satisfies the Riemann relations against the
    dual complex structure, and makes the double dual reproduce ``E``
    exactly.  The dual complex structure is ``-J^T``: with ``S = E J``,
    the dual's ``E^ J^`` is ``c S^{-1}``, positive definite, and the
    pairing class is a Hodge class (see the module docstring).
    ``+J^T`` would give ``-c S^{-1}``, which the Riemann check rejects.
    Every generator's pairing-class sign flips.
    """
    delta = A.polarization_type
    c = delta[0] * delta[-1]
    try:
        inverse = intlinalg.scaled_inverse(A.E, c)
    except ValueError as exc:
        raise SingularPolarization(f"dual polarization is not integral: {exc}") from exc
    E_hat = tuple(tuple(-x for x in row) for row in inverse)
    J_hat = None if A.J is None else tuple(tuple(-x for x in col) for col in zip(*A.J))
    # Strip rather than stack dual markers so the double dual is A on the
    # nose (every other field already reproduces exactly).
    hat_name = A.name[:-1] if A.name.endswith("^") else A.name + "^"
    # c E^{-1} has elementary divisors c / d_i, so the dual type is the
    # reversed chain c / d_g | ... | c / d_1
    hat_type = tuple(c // d for d in reversed(delta))
    return _variety(E_hat, J_hat, hat_name, hat_type, A.negative ^ ((1 << A.rank) - 1))


# ---------------------------------------------------------------------------
# homomorphisms


class Homomorphism(namedtuple("Homomorphism", "source target matrix holomorphic")):
    """Integral matrix acting on first homology, source to target.

    The matrix is ``2g_target x 2g_source`` in column convention: the
    image of source basis vector ``j`` is ``sum_i M[i][j] w_i``.  No
    ``__slots__``: the two exterior-power tables are cached in ``__dict__``.
    """

    def __new__(cls, source, target, matrix, holomorphic):
        if len(matrix) != target.rank or any(len(row) != source.rank for row in matrix):
            raise RankMismatch(
                f"matrix shape {len(matrix)}x{len(matrix[0]) if matrix else 0}"
                f" does not map rank {source.rank} to rank {target.rank}"
            )
        if not all(isinstance(e, int) for row in matrix for e in row):
            raise TypeError(f"matrix {matrix!r} has an entry that is not an integer")
        if holomorphic and source.J is not None and target.J is not None:
            # in ints for integral J (see _exact_matrix)
            if intlinalg.mat_mul(matrix, source.J) != intlinalg.mat_mul(target.J, matrix):
                raise ComplexStructureInvalid(
                    "homomorphism flagged holomorphic does not intertwine J"
                )
        return tuple.__new__(cls, (source, target, matrix, holomorphic))

    @classmethod
    def _trusted(cls, source, target, matrix, holomorphic: bool) -> "Homomorphism":
        """A map a caller built from validated parts: ``matrix`` a tuple of
        int rows of the right shape, intertwining J when ``holomorphic``.
        Nothing is checked; the public constructor is the oracle."""
        return tuple.__new__(cls, (source, target, matrix, holomorphic))

    @cached_property
    def _pullback_power(self) -> ExteriorPower:
        """Exterior powers of the rows: target generator i goes to row i."""
        return ExteriorPower(self.matrix)

    @cached_property
    def _pushforward_power(self) -> ExteriorPower:
        """Exterior powers of the columns: source homology generator j goes
        to column j."""
        return ExteriorPower(zip(*self.matrix))

    def pullback(self, x: Multivector) -> Multivector:
        """Ring map on cohomology: generator i of the target pulls back to
        row i of the matrix, read as a 1-form on the source."""
        if x.rank != self.target.rank:
            raise RankMismatch(f"class lives on rank {x.rank}, target is {self.target.rank}")
        return Multivector._trusted(self.source.rank, self._pullback_power.apply(x.items()))

    def pushforward(self, x: Multivector) -> Multivector:
        """Poincare duality, then the exterior power of M on homology, then
        Poincare duality back.

        A source term ``c e_S`` is dual to ``complement_sign(S) c`` times
        the homology monomial on ``S^c``; its image under ``Lambda(M)``
        (source generator j goes to column j of M) has coefficient
        ``det(M[U, S^c])`` on each target monomial U by Cauchy-Binet, and U
        is dual to ``oA oB complement_sign(w) e_w`` with ``w = U^c``.  This
        is the adjoint of the pullback:
        ``integrate_target(f_*(x) ^ y) = integrate_source(x ^ f^*(y))``
        for every y.  Raises the class degree by ``2(g_target - g_source)``.
        """
        if x.rank != self.source.rank:
            raise RankMismatch(f"class lives on rank {x.rank}, source is {self.source.rank}")
        nA, nB = self.source.rank, self.target.rank
        sign = self.source.orientation * self.target.orientation
        full_A = (1 << nA) - 1
        full_B = (1 << nB) - 1
        homology = ((full_A ^ m, complement_sign(m) * c) for m, c in x.items())
        out = {}
        for u, c in self._pushforward_power.apply(homology).items():
            w = full_B ^ u
            out[w] = sign * complement_sign(w) * c
        return Multivector._trusted(nB, out)

    def compose(self, other: "Homomorphism") -> "Homomorphism":
        """self after other (``self . other``)."""
        if other.target != self.source:
            raise RankMismatch("composition mismatch: inner target != outer source")
        M = tuple(map(tuple, intlinalg.mat_mul(self.matrix, other.matrix)))
        holomorphic = self.holomorphic and other.holomorphic
        # two checked intertwiners compose to one through the middle J; with
        # no J in the middle neither was checked, so the composite is
        build = Homomorphism if holomorphic and self.source.J is None else Homomorphism._trusted
        return build(other.source, self.target, M, holomorphic)

    def degree(self) -> int:
        """Degree of an isogeny: absolute determinant on homology."""
        if self.source.rank != self.target.rank:
            raise NotIsogeny("source and target have different dimension")
        d = intlinalg.det_bareiss([list(r) for r in self.matrix])
        if d == 0:
            raise NotIsogeny("matrix is singular")
        return abs(d)

    def dual_hom(self) -> "Homomorphism":
        """Dual homomorphism between the dual varieties (transposed matrix).

        The two maps share their exterior-power tables: the rows of the
        transpose are the columns of this matrix, so the dual pulls back
        through this map's pushforward table and pushes forward through its
        pullback table, and a table filled by one serves the other.
        """
        out = Homomorphism._trusted(
            dual(self.target),
            dual(self.source),
            tuple(zip(*self.matrix)),
            self.holomorphic,
        )
        out.__dict__["_pullback_power"] = self._pushforward_power
        out.__dict__["_pushforward_power"] = self._pullback_power
        return out


def identity_hom(A: AbelianVariety) -> Homomorphism:
    return scalar_hom(A, 1)


def scalar_hom(A: AbelianVariety, n: int) -> Homomorphism:
    """Multiplication by n on the variety (n * identity on homology)."""
    return Homomorphism._trusted(
        A, A, tuple(tuple(n if i == j else 0 for j in range(A.rank)) for i in range(A.rank)), True
    )


def polarization_isogeny(A: AbelianVariety) -> Homomorphism:
    """The isogeny to the dual induced by the polarization form.

    On homology it sends v to the functional ``E(. , v)``, i.e. the
    matrix is E itself; the convention is pinned by the requirement that
    the pairing class on the product pulls back along ``(id, lambda)`` to
    twice the polarization class.  It is holomorphic by the Riemann
    relation ``E J = -J^T E``.
    """
    return Homomorphism._trusted(A, dual(A), A.E, A.J is not None)


# ---------------------------------------------------------------------------
# products


class ProductStructure(namedtuple("ProductStructure", "factors variety pi1 pi2 j1 j2")):
    """A product variety with its factor projections and zero-section inclusions."""

    __slots__ = ()

    def pull_first(self, x: Multivector) -> Multivector:
        """Fast pullback along the first projection (masks unchanged)."""
        A = self.factors[0]
        if x.rank != A.rank:
            raise RankMismatch(f"class rank {x.rank} != first factor rank {A.rank}")
        return Multivector._trusted(self.variety.rank, dict(x.items()))

    def pull_second(self, x: Multivector) -> Multivector:
        """Fast pullback along the second projection (masks shifted up)."""
        A, B = self.factors
        if x.rank != B.rank:
            raise RankMismatch(f"class rank {x.rank} != second factor rank {B.rank}")
        s = A.rank
        return Multivector._trusted(self.variety.rank, {m << s: c for m, c in x.items()})

    def push_second(self, z: Multivector) -> Multivector:
        """Fiber integration over the first factor.

        In factor-major generator order a split monomial is the sorted
        concatenation of its blocks, so no Koszul sign appears: terms
        whose first block is full contribute their second block scaled by
        the first factor's orientation.
        """
        A, B = self.factors
        if z.rank != self.variety.rank:
            raise RankMismatch("class does not live on the product")
        s = A.rank
        full_A = (1 << s) - 1
        out: dict[int, int] = {}
        for m, c in z.items():
            if m & full_A == full_A:
                out[m >> s] = out.get(m >> s, 0) + A.orientation * c
        return Multivector(B.rank, out)


def _block_diagonal(X, Y) -> tuple[tuple, ...]:
    """The square matrix with X and Y on its diagonal and zeros elsewhere."""
    nX, nY = len(X), len(Y)
    return tuple(tuple(row) + (0,) * nY for row in X) + tuple((0,) * nX + tuple(row) for row in Y)


@lru_cache(maxsize=None)
def product(A: AbelianVariety, B: AbelianVariety) -> ProductStructure:
    """Product variety with block-diagonal polarization and complex structure.

    Generators are factor-major: all of A's first, then B's.  The
    ``negative`` mask concatenates the factors' masks the same way, so the
    pairing class of a product is the sum of the factor pairing classes.
    """
    nA, nB = A.rank, B.rank
    E = _block_diagonal(A.E, B.E)
    J = None if A.J is None or B.J is None else _block_diagonal(A.J, B.J)
    # J^2 = -1 and the Riemann relations hold block by block; the type is
    # not the sorted union of the factor types ((2) x (3) has type (1, 6))
    V = _variety(E, J, f"{A.name} x {B.name}", _paired_type(E), A.negative | B.negative << nA)

    def hom(src, tgt, rows):
        return Homomorphism._trusted(src, tgt, tuple(tuple(r) for r in rows), True)

    I_A = intlinalg.identity_matrix(nA)
    I_B = intlinalg.identity_matrix(nB)
    pi1 = hom(V, A, [row + [0] * nB for row in I_A])
    pi2 = hom(V, B, [[0] * nA + row for row in I_B])
    j1 = hom(A, V, [row for row in I_A] + [[0] * nA for _ in range(nB)])
    j2 = hom(B, V, [[0] * nB for _ in range(nA)] + [row for row in I_B])
    return ProductStructure(factors=(A, B), variety=V, pi1=pi1, pi2=pi2, j1=j1, j2=j2)


class StructureMaps(namedtuple("StructureMaps", "square m diagonal")):
    """Group-law morphisms of ``A x A`` over a fixed variety A."""

    __slots__ = ()


@lru_cache(maxsize=None)
def structure_homs(A: AbelianVariety) -> StructureMaps:
    """Addition and diagonal of ``A x A``; its projections and
    zero-sections are those of ``square``.

    Satisfies ``m . diagonal = [2]`` and ``m . square.j1 = id`` on homology.
    """
    sq = product(A, A)
    n = A.rank
    I = intlinalg.identity_matrix(n)
    m = Homomorphism._trusted(sq.variety, A, tuple(tuple(I[i] + I[i]) for i in range(n)), True)
    diag = Homomorphism._trusted(A, sq.variety, tuple(tuple(row) for row in (I + I)), True)
    return StructureMaps(square=sq, m=m, diagonal=diag)
