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

The rows of ``T - p^k`` are built sparse, straight from the monomial
images in one :class:`~abelian_fourier.exterior.ExteriorPower` table of
the operator, and :func:`intlinalg.kernel_saturated_sparse` reads their
supports.  On the shipped models J splits over the elliptic factors, so
the operator is block diagonal up to a permutation of the monomials (at
genus 5, degree 4, 210 monomials in blocks of side at most 16, about 4%
of the entries nonzero).  The kernel takes one Smith form per connected
block, and :meth:`HodgeLattice.coordinates` solves one small system per
connected block of the basis.  A model whose J does not split is one block
and takes the whole-matrix path.

The parameter is fixed at ``(a, b) = (1, 2)``, of norm 5, the smallest odd
prime norm.  Any admissible parameter gives the same lattice; the tier-1
test ``test_parameter_independence`` checks this against the kernels for
``(2, 3)`` and the conjugate ``(2, 1)``.

This module owns the operator: :func:`_hodge_rows` gives the action of
``a + bJ`` on 1-forms, and every Hodge computation of the package (the
lattices, the membership test and the certificates) extends it to forms of
higher degree.
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
from .exterior import ExteriorPower, Multivector, degree_basis_masks
from .fourier import fourier
from .varieties import AbelianVariety, dual

# The Gaussian-prime parameter (a, b) of the projector element a + bJ; its
# norm a^2 + b^2 must be an odd prime.
_PARAMETER = (1, 2)
_NORM = _PARAMETER[0] ** 2 + _PARAMETER[1] ** 2


def _hodge_rows(J):
    """Generator images of the projector element a + bJ on 1-forms.

    The induced action on the dual basis sends generator i to
    ``a e_i + b sum_j J[i][j] e_j``, i.e. row i of ``a I + b J``.  The
    entries are ints wherever J's are (see ``varieties._exact_matrix``).
    """
    a, b = _PARAMETER
    n = len(J)
    rows = []
    for i in range(n):
        row = [(j, b * J[i][j]) for j in range(n) if J[i][j]]
        row.append((i, a))
        rows.append(row)
    return rows


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


def hodge_lattice(V: AbelianVariety, k: int) -> HodgeLattice:
    """Saturated basis of the integral Hodge classes in degree 2k.

    The rows of ``T - p^k`` are kept sparse, as ``{column: entry}``:
    column j is the image of the j-th monomial under the (a + bJ)-action,
    in ints where J is integral and Fractions otherwise.

    >>> from .varieties import standard_ppav
    >>> hodge_lattice(standard_ppav(2), 1).rank
    4
    """
    if V.J is None:
        raise NoComplexStructure(f"{V.name} has no complex structure")
    if not 0 <= k <= V.genus:
        raise UnsupportedParams(f"half-degree {k} out of range for genus {V.genus}")
    power = ExteriorPower(_hodge_rows(V.J))
    masks = degree_basis_masks(V.rank, 2 * k)
    index = {m: i for i, m in enumerate(masks)}
    rows = [{i: -(_NORM**k)} for i in range(len(masks))]
    for j, mask in enumerate(masks):
        for m, c in power.image(mask).items():
            row = rows[index[m]]
            c += row.get(j, 0)
            if c:
                row[j] = c
            else:
                del row[j]
    basis = intlinalg.kernel_saturated_sparse(rows, len(masks))
    return HodgeLattice(
        A=V,
        k=k,
        masks=tuple(masks),
        basis=tuple(tuple(row) for row in basis),
    )


def is_hodge(V: AbelianVariety, x: Multivector) -> bool:
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
    image = ExteriorPower(_hodge_rows(V.J)).apply(x.items())
    lam = _NORM ** (deg // 2)
    return image == {m: lam * c for m, c in x.items()}


def voisin_certificate(V: AbelianVariety, k: int, generators) -> intlinalg.CokernelInvariants:
    """Elementary divisors of the Hodge lattice modulo supplied generators.

    Each generator must be a Hodge class of degree 2k (``NotHodge``
    carries the offending index).  An all-ones answer with free rank zero
    certifies that the generators span the full lattice, which is the
    desk-scale form of the one-cycle algebraicity statement relative to
    those generators.
    """
    lat = hodge_lattice(V, k)
    columns = []
    for idx, gen in enumerate(generators):
        try:
            ok = is_hodge(V, gen) and (gen.is_zero() or gen.degree() == 2 * k)
        except NotHomogeneous:
            ok = False
        if not ok:
            raise NotHodge(idx)
        coords = lat.coordinates(gen)
        if coords is None:
            raise NotHodge(idx)
        columns.append(coords)
    G = [[col[i] for col in columns] for i in range(lat.rank)]
    return intlinalg.cokernel_invariants(G, lat.rank)


@dataclass(frozen=True)
class FourierHodgeMatrix:
    """Transform matrix between Hodge lattices, with its unimodularity flag."""

    source_rank: int
    target_rank: int
    matrix: tuple[tuple[int, ...], ...]
    unimodular: bool


def fourier_hodge_matrix(A: AbelianVariety, i: int) -> FourierHodgeMatrix:
    """Matrix of the transform from degree-2i Hodge classes to the dual side.

    The image of every basis class must itself be a Hodge class on the
    dual (:class:`ImageNotInHodge` otherwise, which would contradict the
    transform being a morphism of Hodge structures); the matrix is
    expressed in the dual Hodge basis and flagged unimodular when square
    with determinant +-1.
    """
    lat_src = hodge_lattice(A, i)
    lat_dst = hodge_lattice(dual(A), A.genus - i)
    cols = []
    for idx, u in enumerate(lat_src.basis_classes()):
        image = fourier(A, u)
        if not is_hodge(dual(A), image):
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
    # det_bareiss([]) == 1: an empty square matrix is unimodular
    unimodular = square and abs(intlinalg.det_bareiss(matrix)) == 1
    return FourierHodgeMatrix(
        source_rank=lat_src.rank,
        target_rank=lat_dst.rank,
        matrix=tuple(tuple(r) for r in matrix),
        unimodular=unimodular,
    )
