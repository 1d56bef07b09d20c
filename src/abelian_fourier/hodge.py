"""Hodge-class lattices computed exactly from a rational complex structure.

A rational class of even degree 2k is a Hodge class exactly when it is
fixed, up to the scalar ``(a^2+b^2)^k``, by the operator induced on
2k-forms by the group element ``a + bJ``.  When ``a^2 + b^2`` is an odd
prime, unique factorization in the Gaussian integers makes the eigenvalue
``(a+bi)^p (a-bi)^q = (a^2+b^2)^k`` occur only at ``p = q = k``, so the
saturated integer kernel of ``T - (a^2+b^2)^k`` inside the degree-2k
lattice is precisely the lattice of integral (k, k)-classes.  No
eigenvalue is ever approximated: the operator is exact, in ints wherever J
is integral (every shipped model) and in Fractions otherwise.

On the shipped models J splits over the elliptic factors, so ``T - p^k``
is block diagonal up to a permutation of the monomials (at genus 5, degree
4, a 210x210 matrix with blocks of side at most 16).
:func:`intlinalg.kernel_saturated` takes one Smith form per connected
block, and :meth:`HodgeLattice.coordinates` solves one small system per
connected block of the basis.  A model whose J does not split is one block
and takes the whole-matrix path.

The default parameter is ``(a, b) = (1, 2)`` of norm 5, the smallest odd
prime norm; independence of the lattice from the admissible parameter is
part of the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import intlinalg
from .errors import (
    ImageNotInHodge,
    NoComplexStructure,
    NonIntegralResult,
    NotHodge,
    NotHomogeneous,
    RankMismatch,
    UnsupportedParams,
)
from .exterior import Multivector, _apply_generator_images, degree_basis_masks
from .fourier import fourier
from .varieties import HODGE_DEFAULT_AB, AbelianVariety, _hodge_rows, dual


def _validate_parameter(ab):
    a, b = ab
    p = a * a + b * b
    if b == 0 or p % 2 == 0:
        raise UnsupportedParams(f"parameter {ab} must have odd norm with b != 0")
    if p < 3:
        # a unit, not a prime: every eigenvalue with p = q mod 4 has norm 1
        raise UnsupportedParams(f"norm {p} of parameter {ab} is a unit, not a prime")
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise UnsupportedParams(f"norm {p} of parameter {ab} is not prime")
        d += 2
    return p


@dataclass(frozen=True)
class HodgeLattice:
    """Saturated lattice of integral (k, k)-classes in degree 2k.

    ``masks`` orders the ambient monomial basis; ``basis`` has one column
    per lattice generator, in those coordinates.  Saturation means the
    lattice is a direct summand of the full degree-2k lattice, so
    membership over the rationals and over the integers coincide.
    """

    A: AbelianVariety
    k: int
    masks: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis[0]) if self.basis else 0

    def ambient_dimension(self) -> int:
        return len(self.masks)

    def basis_classes(self) -> list[Multivector]:
        out = []
        for j in range(self.rank):
            terms = {self.masks[i]: self.basis[i][j] for i in range(len(self.masks))}
            out.append(Multivector(self.A.rank, terms))
        return out

    def ambient_vector(self, x: Multivector) -> list[int]:
        return [x.coefficient(m) for m in self.masks]

    @cached_property
    def _blocks(self):
        """Connected blocks of the basis columns' supports, as
        ``(ambient rows, lattice columns, block matrix)``, and the ambient
        rows outside every support."""
        blocks = [
            (rows, cols, [[self.basis[i][j] for j in cols] for i in rows])
            for rows, cols in intlinalg.column_blocks(self.basis)
        ]
        covered = {i for rows, _, _ in blocks for i in rows}
        free = [i for i in range(len(self.masks)) if i not in covered]
        return blocks, free

    def coordinates(self, x: Multivector):
        """Integer coordinates of x in the lattice basis, or None.

        Each connected block of the basis is solved on its own rows; a
        block whose rows x misses has coordinates zero, and x is not in
        the span if it is nonzero outside every block.  Saturation makes
        rational membership integral membership, so a fractional
        coordinate means the basis is not saturated and raises
        :class:`NonIntegralResult`, whose witness is the coordinate's
        numerator times its basis class.  ``intlinalg.rational_solve`` on
        the whole basis is the oracle.
        """
        v = self.ambient_vector(x)
        blocks, free = self._blocks
        if any(v[i] for i in free):
            return None
        sol = [0] * self.rank
        for rows, cols, block in blocks:
            rhs = [v[i] for i in rows]
            if not any(rhs):
                continue
            part = intlinalg.rational_solve(block, rhs)
            if part is None:
                return None
            for j, c in zip(cols, part):
                sol[j] = c
        for j, c in enumerate(sol):
            if c.denominator != 1:
                raise NonIntegralResult(
                    f"coordinate {j} = {c} in a lattice basis that is not saturated",
                    self.basis_classes()[j] * c.numerator,
                )
        return [int(c) for c in sol]


def _operator_matrix(V: AbelianVariety, k: int, ab) -> list[list]:
    """Matrix of the (a + bJ)-action on the degree-2k monomial basis.

    Entries are ints where J is integral, Fractions otherwise.
    """
    rows_op = _hodge_rows(V.J, *ab)
    masks = degree_basis_masks(V.rank, 2 * k)
    index = {m: i for i, m in enumerate(masks)}
    n = len(masks)
    M = [[0] * n for _ in range(n)]
    for j, mask in enumerate(masks):
        image = _apply_generator_images(Multivector(V.rank, {mask: 1}), rows_op)
        for m, c in image.items():
            M[index[m]][j] = c
    return M


def hodge_lattice(V: AbelianVariety, k: int, ab=HODGE_DEFAULT_AB) -> HodgeLattice:
    """Saturated basis of the integral Hodge classes in degree 2k.

    >>> from .varieties import standard_ppav
    >>> hodge_lattice(standard_ppav(2), 1).rank
    4
    """
    if V.J is None:
        raise NoComplexStructure(f"{V.name} has no complex structure")
    if not 0 <= k <= V.genus:
        raise UnsupportedParams(f"half-degree {k} out of range for genus {V.genus}")
    p = _validate_parameter(ab)
    masks = degree_basis_masks(V.rank, 2 * k)
    M = _operator_matrix(V, k, ab)
    lam = p**k
    for i in range(len(masks)):
        M[i][i] -= lam
    basis = intlinalg.kernel_saturated(M)
    return HodgeLattice(
        A=V,
        k=k,
        masks=tuple(masks),
        basis=tuple(tuple(row) for row in basis),
    )


def is_hodge(V: AbelianVariety, x: Multivector, ab=HODGE_DEFAULT_AB) -> bool:
    """Exact membership test for the Hodge lattice.

    The class must be homogeneous; odd degrees are never Hodge.  Zero is
    a member in every degree.
    """
    if V.J is None:
        raise NoComplexStructure(f"{V.name} has no complex structure")
    if x.rank != V.rank:
        raise RankMismatch(f"class rank {x.rank} != variety rank {V.rank}")
    if not x.is_homogeneous():
        raise NotHomogeneous(f"class mixes degrees {sorted(x.degrees())}")
    if x.is_zero():
        return True
    deg = x.degree()
    if deg % 2:
        return False
    p = _validate_parameter(ab)
    rows_op = _hodge_rows(V.J, *ab)
    image = _apply_generator_images(x, rows_op)
    lam = p ** (deg // 2)
    return image == {m: lam * c for m, c in x.items()}


def divisor_power_span(V: AbelianVariety, k: int, ab=HODGE_DEFAULT_AB):
    """Generators of the divisor-power subgroup of the degree-2k Hodge lattice.

    Returns the k-fold wedge products of a basis of the divisor classes
    (degree-2 Hodge lattice), as columns in the ambient degree-2k
    monomial coordinates.  These classes are algebraic whenever divisor
    classes are, so a trivial cokernel against the full Hodge lattice
    certifies that the whole lattice is generated by algebraic classes.
    """
    from itertools import combinations_with_replacement

    divisors = hodge_lattice(V, 1, ab).basis_classes()
    masks = degree_basis_masks(V.rank, 2 * k)
    products = []
    for combo in combinations_with_replacement(range(len(divisors)), k):
        w = Multivector.unit(V.rank)
        for i in combo:
            w = w.wedge(divisors[i])
        products.append(w)
    return [[w.coefficient(m) for w in products] for m in masks]


def voisin_certificate(
    V: AbelianVariety, k: int, generators, ab=HODGE_DEFAULT_AB
) -> intlinalg.CokernelInvariants:
    """Elementary divisors of the Hodge lattice modulo supplied generators.

    Each generator must be a Hodge class of degree 2k (``NotHodge``
    carries the offending index).  An all-ones answer with free rank zero
    certifies that the generators span the full lattice, which is the
    desk-scale form of the one-cycle algebraicity statement relative to
    those generators.
    """
    lat = hodge_lattice(V, k, ab)
    columns = []
    for idx, gen in enumerate(generators):
        try:
            ok = is_hodge(V, gen, ab) and (gen.is_zero() or gen.degree() == 2 * k)
        except NotHomogeneous:
            ok = False
        if not ok:
            raise NotHodge(idx)
        coords = lat.coordinates(gen)
        if coords is None:
            raise NotHodge(idx)
        columns.append(coords)
    G = [[col[i] for col in columns] for i in range(lat.rank)]
    if not columns:
        G = [[] for _ in range(lat.rank)]
    return intlinalg.cokernel_invariants(G, lat.rank)


@dataclass(frozen=True)
class FourierHodgeMatrix:
    """Transform matrix between Hodge lattices, with its unimodularity flag."""

    source_rank: int
    target_rank: int
    matrix: tuple[tuple[int, ...], ...]
    unimodular: bool


def fourier_hodge_matrix(A: AbelianVariety, i: int, ab=HODGE_DEFAULT_AB) -> FourierHodgeMatrix:
    """Matrix of the transform from degree-2i Hodge classes to the dual side.

    The image of every basis class must itself be a Hodge class on the
    dual (:class:`ImageNotInHodge` otherwise, which would contradict the
    transform being a morphism of Hodge structures); the matrix is
    expressed in the dual Hodge basis and flagged unimodular when square
    with determinant +-1.
    """
    lat_src = hodge_lattice(A, i, ab)
    lat_dst = hodge_lattice(dual(A), A.genus - i, ab)
    cols = []
    for idx, u in enumerate(lat_src.basis_classes()):
        image = fourier(A, u)
        if not is_hodge(dual(A), image, ab):
            raise ImageNotInHodge(
                f"transform of Hodge basis class {idx} in degree {2 * i} left the Hodge lattice",
                image,
            )
        coords = lat_dst.coordinates(image)
        if coords is None:
            raise ImageNotInHodge(
                f"transform of Hodge basis class {idx} is not in the dual Hodge span",
                image,
            )
        cols.append(coords)
    matrix = [[col[r] for col in cols] for r in range(lat_dst.rank)]
    square = lat_dst.rank == lat_src.rank
    unimodular = square and lat_src.rank > 0 and abs(intlinalg.det_bareiss(matrix)) == 1
    if lat_src.rank == 0 and square:
        unimodular = True
    return FourierHodgeMatrix(
        source_rank=lat_src.rank,
        target_rank=lat_dst.rank,
        matrix=tuple(tuple(r) for r in matrix),
        unimodular=unimodular,
    )
