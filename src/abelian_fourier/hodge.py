"""Hodge-class lattices computed exactly from a rational complex structure.

For a model with ``J^2 = -1`` the Lie algebra of the Hodge group is
spanned by J (Deligne, *Hodge cycles on abelian varieties*, LNM 900;
Birkenhake-Lange, *Complex Abelian Varieties*, ch. 17).  On forms J acts
as the derivation

    D_J(e_S) = sum over i in S of e_S with e_i replaced by row i of J,

the same row convention as the pullback tables: generator i goes to row i
of J.  J has eigenvalues +-i on 1-forms, so D_J acts on ``H^{p,q}`` as the
scalar ``+-i(p - q)`` and is diagonalizable over C.  In degree 2k its
kernel is exactly the (k, k) part, and since D_J is rational its saturated
integer kernel is the lattice of integral Hodge classes.  The arithmetic
is exact: the entries of D_J are those of J, ints wherever J is integral
(every shipped model) and Fractions otherwise, and ``D_J(e_S)`` has one
term per slot i of S and nonzero entry of row i of J.

The rows of ``D_J`` in degree 2k are built sparse, one pass over the slot
terms of every monomial (:func:`_derive`), and
:func:`intlinalg.kernel_saturated_sparse` reads their supports.  On the
shipped models J splits over the elliptic factors, so the derivation is
block diagonal up to a permutation of the monomials.  The kernel takes one
Smith form per connected block, which also gives an integer left inverse
L of the kernel basis B, ``L B = I``: the proof that B is saturated.
:meth:`HodgeLattice.coordinates` of x is ``L x``, checked against x.  A
model whose J does not split is one block and takes the whole-matrix
path.  :func:`is_hodge` tests ``D_J x = 0`` in one pass over the terms of x.

The lattices depend on the complex structure alone, so there is one memo,
one saturated kernel and its inverse per ``(J, k)`` (:func:`_lattice_tables`).
A variety and its dual with the same J, or two models with different
polarizations on the same J, compute each lattice once.
``abelian_fourier.clear_caches`` empties the memo.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import intlinalg
from .errors import (
    CheckFailure,
    ImageNotInHodge,
    NoComplexStructure,
    NotHodge,
    NotHomogeneous,
    RankMismatch,
    UnsupportedParams,
)
from .exterior import Multivector, degree_basis_masks
from .fourier import fourier
from .varieties import AbelianVariety, dual


def _slot_rows(J):
    """Row i of J as ``(bit of column t, J[i][t])`` pairs, zeros dropped."""
    return [[(1 << t, c) for t, c in enumerate(row) if c] for row in J]


def _derive(rows, terms) -> dict:
    """``D_J`` of the class with ``(mask, coefficient)`` pairs ``terms``.

    ``rows`` is :func:`_slot_rows` of J.  Slot i of ``e_S`` takes row i of
    J: entry t lands on ``e_{S - i + t}`` (nothing when t is in ``S - i``),
    with the sign of moving ``e_t`` from the slot of i to its sorted place,
    the parity of the bits of ``S - i`` between i and t.  Zero
    coefficients are dropped.

    >>> _derive(_slot_rows([[0, -1], [1, 0]]), [(0b01, 1), (0b11, 5)])
    {2: -1}
    """
    # A slot is replaced, not multiplied, so this keeps its own loop: as one
    # exterior._wedge_into of row i with e_{S - i} per slot, D_J of every
    # genus-5 monomial took 1.6 to 3 times as long (2-CPU Xeon, CPython 3.11).
    out: dict = {}
    for mask, coeff in terms:
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            others = mask ^ low
            for bit, c in rows[low.bit_length() - 1]:
                if others & bit:
                    continue
                key = others | bit
                if (others & abs(bit - low)).bit_count() & 1:
                    c = -c
                v = out.get(key, 0) + c * coeff
                if v:
                    out[key] = v
                else:
                    del out[key]
    return out


@lru_cache(maxsize=None)
def _lattice_tables(J, k: int):
    """``(masks, basis, inverse)``: the saturated kernel of ``D_J`` in
    degree 2k and its left inverse.

    The rows of ``D_J`` are kept sparse, as ``{column: entry}``: column j
    is ``D_J`` of the j-th monomial, in ints where J is integral and
    Fractions otherwise.
    """
    rows_J = _slot_rows(J)
    masks = degree_basis_masks(len(J), 2 * k)
    index = {m: i for i, m in enumerate(masks)}
    rows: list[dict] = [{} for _ in masks]
    for j, mask in enumerate(masks):
        for m, c in _derive(rows_J, ((mask, 1),)).items():
            rows[index[m]][j] = c
    basis, inverse = intlinalg.kernel_saturated_sparse(rows, len(masks))
    return tuple(masks), tuple(map(tuple, basis)), tuple(inverse)


class HodgeLattice(namedtuple("HodgeLattice", "A k masks basis inverse")):
    """Saturated lattice of integral (k, k)-classes in degree 2k.

    ``masks`` orders the ambient monomial basis; ``basis`` (B) has one
    column per lattice generator, in those coordinates, and ``inverse``
    (L) one sparse row of ``(ambient index, entry)`` pairs per generator.
    ``L B = I`` proves saturation: the lattice is a direct summand of the
    full degree-2k lattice.
    """

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.basis[0]) if self.basis else 0

    def ambient_dimension(self) -> int:
        return len(self.masks)

    def basis_classes(self) -> list[Multivector]:
        return [Multivector(self.A.rank, dict(zip(self.masks, b))) for b in zip(*self.basis)]

    def ambient_vector(self, x: Multivector) -> list[int]:
        return [x.coefficient(m) for m in self.masks]

    def coordinates(self, x: Multivector):
        """Integer coordinates of x in the lattice basis, or None.

        The candidate ``c = L x`` is returned only if ``sum_j c_j b_j == x``
        exactly, so a non-member (a term of another degree included) and a
        wrong L both give None.  ``intlinalg.rational_solve`` on the whole
        basis is the oracle.
        """
        v = self.ambient_vector(x)
        c = [sum(e * v[i] for i, e in row) for row in self.inverse]
        support = [(j, cj) for j, cj in enumerate(c) if cj]
        Bc = {m: sum(row[j] * cj for j, cj in support) for m, row in zip(self.masks, self.basis)}
        return c if Multivector(self.A.rank, Bc) == x else None

    def check_saturated(self) -> None:
        """Check ``L B = I``, which proves the basis saturated: row s of ``L B``
        adds up, as lists, the rows of B that row s of L names.  The first b_t
        with ``L b_t != e_t`` raises :class:`CheckFailure`, witness ``b_t``."""
        LB = [[0] * self.rank for _ in self.inverse]
        for s, row in enumerate(self.inverse):
            for i, e in row:
                LB[s] = [a + e * x for a, x in zip(LB[s], self.basis[i])]
        for t, *column in zip(range(self.rank), *LB):
            if column != [0] * t + [1] + [0] * (self.rank - t - 1):
                message = f"the lattice's left inverse does not invert basis class {t}"
                raise CheckFailure(message, self.basis_classes()[t])


def hodge_lattice(V: AbelianVariety, k: int) -> HodgeLattice:
    """Saturated basis of the integral Hodge classes in degree 2k.

    The basis depends on J and k alone and is computed once per pair
    (:func:`_lattice_tables`); each call wraps it for V.

    >>> from .varieties import standard_ppav
    >>> hodge_lattice(standard_ppav(2), 1).rank
    4
    """
    if V.J is None:
        raise NoComplexStructure(f"{V.name} has no complex structure")
    if not 0 <= k <= V.genus:
        raise UnsupportedParams(f"half-degree {k} out of range for genus {V.genus}")
    masks, basis, inverse = _lattice_tables(V.J, k)
    return HodgeLattice(A=V, k=k, masks=masks, basis=basis, inverse=inverse)


def is_hodge(V: AbelianVariety, x: Multivector) -> bool:
    """Exact membership test for the Hodge lattice: ``D_J x = 0``.

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
    if x.degree() % 2:
        return False
    return not _derive(_slot_rows(V.J), x.items())


def voisin_certificate(V: AbelianVariety, k: int, generators) -> intlinalg.CokernelInvariants:
    """Elementary divisors of the Hodge lattice modulo supplied generators.

    Each generator must be a Hodge class of degree 2k (``NotHodge``
    carries the offending index, and for a class of another degree names
    both degrees).  An all-ones answer with free rank zero certifies that
    the generators span the full lattice, which is the desk-scale form of
    the one-cycle algebraicity statement relative to those generators.
    """
    lat = hodge_lattice(V, k)
    columns = []
    for idx, gen in enumerate(generators):
        if gen.rank != V.rank:
            raise RankMismatch(f"generator {idx} has rank {gen.rank}, variety rank {V.rank}")
        if not gen.is_homogeneous():
            raise NotHodge(idx)
        if gen and gen.degree() != 2 * k:
            message = f"generator {idx} has degree {gen.degree()}, expected degree {2 * k}"
            raise NotHodge(idx, message)
        if not is_hodge(V, gen):
            raise NotHodge(idx)
        coords = lat.coordinates(gen)
        if coords is None:
            raise NotHodge(idx)
        columns.append(coords)
    G = [[col[i] for col in columns] for i in range(lat.rank)]
    return intlinalg.cokernel_invariants(G, lat.rank)


class FourierHodgeMatrix(
    namedtuple("FourierHodgeMatrix", "source_rank target_rank matrix unimodular")
):
    """Transform matrix between Hodge lattices, with its unimodularity flag."""

    __slots__ = ()


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
