"""Hodge-class lattices computed exactly from the complex structure.

For a model with ``J^2 = -1`` the Lie algebra of the Hodge group is
spanned by J (Deligne, *Hodge cycles on abelian varieties*, LNM 900;
Birkenhake-Lange, *Complex Abelian Varieties*, ch. 17).  On forms J acts
as the derivation

    D_J(e_S) = sum over i in S of e_S with e_i replaced by row i of J,

the same row convention as the pullback tables: generator i goes to row i
of J.  J has eigenvalues +-i on 1-forms, so D_J acts on ``H^{p,q}`` as the
scalar ``+-i(p - q)`` and is diagonalizable over C.  In degree 2k its
kernel is exactly the (k, k) part, and since D_J is rational its saturated
integer kernel is the lattice of integral Hodge classes.  A variety
stores J as the int matrix ``N = dJ``, and ``D_N = d D_J`` has the same
kernel, so the arithmetic is in ints alone: ``D_N(e_S)`` has one term per
slot i of S and nonzero entry of row i of N.

The rows of ``D_N`` in degree 2k are built sparse, one pass over the slot
terms of every monomial (:func:`_derive`), and
:func:`intlinalg.kernel_saturated_sparse` reads their supports.  On the
shipped models J splits over the elliptic factors, so the derivation is
block diagonal up to a permutation of the monomials, and few of its blocks
are distinct: on E^5 in degree 4, 70 nonempty blocks are 4 distinct ones.
The kernel takes one column echelon form per distinct block, which also
gives an integer left inverse L of the kernel basis B, ``L B = I``: the
proof that B is saturated.  B stays sparse by column and L by row, and L
is also kept indexed by ambient monomial (:func:`_inverse_index`).
:meth:`HodgeLattice.coordinates` is the one reader of that index: the
nonzero entries of ``L x``, read at the terms of x alone and checked
against the sum of the columns they name;
:meth:`HodgeLattice.check_saturated` asks it for those of each basis
class.  A model whose J does not split is one block.  :func:`is_hodge`
tests ``D_N x = 0`` in one pass over the terms of x.

Every certificate is a :func:`voisin_certificate`: the sparse
coordinates of Hodge generators, passed as columns to
:func:`intlinalg.cokernel_invariants_sparse`, which reads the Smith
divisors off the connected blocks of their support.
:func:`fourier_hodge_matrix` certifies the transforms of the basis
classes on the dual and keeps the cokernel they leave; on the shipped
Gaussian models their coordinates are a signed permutation, all 1x1
blocks.

The lattices depend on the complex structure alone, so there is one memo,
one saturated kernel and its inverse per ``(N, k)`` (:func:`_lattice_tables`).
A variety and its dual with the same N, or two models with different
polarizations on the same N, compute each lattice once.
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
    require_int,
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
def _lattice_tables(N, k: int):
    """``(masks, basis, inverse, index)``: the saturated kernel of ``D_N``
    in degree 2k, sparse by column, its left inverse, sparse by row, and
    the :func:`_inverse_index` of that inverse.

    The rows of ``D_N`` are kept sparse, as ``{column: entry}``: column j
    is ``D_N`` of the j-th monomial.
    """
    rows_N = _slot_rows(N)
    masks = degree_basis_masks(len(N), 2 * k)
    index = {m: i for i, m in enumerate(masks)}
    rows: list[dict] = [{} for _ in masks]
    for j, mask in enumerate(masks):
        for m, c in _derive(rows_N, ((mask, 1),)).items():
            rows[index[m]][j] = c
    basis, inverse = intlinalg.kernel_saturated_sparse(rows, len(masks))
    return tuple(masks), tuple(basis), tuple(inverse), _inverse_index(masks, inverse)


def _inverse_index(masks, inverse) -> dict:
    """L read by column: each ambient monomial to the ``(row, entry)``
    pairs of its column of L, for the monomials where L is nonzero.

    >>> _inverse_index((0b011, 0b101), (((0, 1),), ((0, 2), (1, -1))))
    {3: ((0, 1), (1, 2)), 5: ((1, -1),)}
    """
    index: dict = {}
    for s, row in enumerate(inverse):
        for i, e in row:
            index.setdefault(masks[i], []).append((s, e))
    return {mask: tuple(pairs) for mask, pairs in index.items()}


class HodgeLattice(namedtuple("HodgeLattice", "A k masks basis inverse index")):
    """Saturated lattice of integral (k, k)-classes in degree 2k.

    ``masks`` orders the ambient monomial basis.  ``basis`` (B) holds one
    sparse column per lattice generator, a tuple of ``(ambient index,
    entry)`` pairs, and ``inverse`` (L) one sparse row of the same pairs
    per generator.  ``L B = I`` proves saturation: the lattice is a direct
    summand of the full degree-2k lattice.  ``index`` is
    :func:`_inverse_index` of L, the same L by ambient monomial, which
    :meth:`coordinates` alone reads; :meth:`check_saturated` calls it.
    ``intlinalg.dense_columns`` makes B dense.
    """

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.basis)

    def ambient_dimension(self) -> int:
        return len(self.masks)

    def basis_classes(self) -> list[Multivector]:
        rank, masks = self.A.rank, self.masks
        return [Multivector(rank, {masks[i]: x for i, x in column}) for column in self.basis]

    def coordinates(self, x: Multivector):
        """The nonzero integer coordinates of x in the lattice basis, as
        ``{basis index: coordinate}``, or None when x is not in the lattice.

        The candidate ``c = L x`` is read from the terms of x alone, each
        through the column of L that ``index`` gives for its monomial, so a
        class with few terms reads few entries of L, and only the nonzero
        ``c_j`` are visited after that.  It is returned only if
        ``sum_j c_j b_j`` equals x exactly, rank included: a non-member (a
        term of another degree included) and a wrong L, one without a row
        per basis class included, give None.  ``intlinalg.rational_solve``
        on the whole basis is the oracle.

        >>> from .varieties import standard_ppav
        >>> lat = hodge_lattice(standard_ppav(2), 1)
        >>> b = lat.basis_classes()
        >>> lat.coordinates(b[0]), lat.coordinates(b[1] * 2 - b[3] * 3)
        ({0: 1}, {1: 2, 3: -3})
        """
        if len(self.inverse) != self.rank:
            return None
        index, masks, basis = self.index, self.masks, self.basis
        c: dict[int, int] = {}
        for mask, a in x.items():
            for s, e in index.get(mask, ()):
                c[s] = c.get(s, 0) + e * a
        c = {s: cj for s, cj in c.items() if cj}
        Bc: dict[int, int] = {}
        for s, cj in c.items():
            for i, b in basis[s]:
                Bc[i] = Bc.get(i, 0) + cj * b
        terms = {masks[i]: v for i, v in Bc.items() if v}
        if Multivector._trusted(self.A.rank, terms) != x:
            return None
        return c

    def check_saturated(self) -> None:
        """Check ``L B = I``, which proves the basis saturated: the
        :meth:`coordinates` of each ``b_t`` must be ``{t: 1}``.  The first
        b_t with ``L b_t != e_t`` raises :class:`CheckFailure`, witness
        ``b_t``; so does b_0 when L does not have one row per basis class."""
        for t, u in enumerate(self.basis_classes()):
            if self.coordinates(u) != {t: 1}:
                message = f"the lattice's left inverse does not invert basis class {t}"
                raise CheckFailure(message, u)


def hodge_lattice(V: AbelianVariety, k: int) -> HodgeLattice:
    """Saturated basis of the integral Hodge classes in degree 2k.

    The basis depends on N and k alone and is computed once per pair
    (:func:`_lattice_tables`); each call wraps it for V.  A half-degree
    k that is not an int (a bool or a float) is a :class:`TypeError`.

    >>> from .varieties import standard_ppav
    >>> hodge_lattice(standard_ppav(2), 1).rank
    4
    """
    require_int(k, "half-degree")
    if V.J is None:
        raise NoComplexStructure(f"{V.name} has no complex structure")
    if not 0 <= k <= V.genus:
        raise UnsupportedParams(f"half-degree {k} out of range for genus {V.genus}")
    return HodgeLattice(V, k, *_lattice_tables(V.J, k))


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
    both degrees): :meth:`HodgeLattice.coordinates` is the membership
    test, and the nonzero coordinates it returns are the columns whose
    cokernel :func:`intlinalg.cokernel_invariants_sparse` takes block by
    block.  An all-ones answer with free rank zero certifies that the
    generators span the full lattice, which is the desk-scale form of the
    one-cycle algebraicity statement relative to those generators.
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
        column = lat.coordinates(gen)
        if column is None:
            raise NotHodge(idx)
        columns.append(column)
    return intlinalg.cokernel_invariants_sparse(columns, lat.rank)


def first_outside(V: AbelianVariety, k: int, generators, cokernel):
    """The first basis class of the degree-2k Hodge lattice outside the
    span of ``generators``, whose :func:`voisin_certificate` is
    ``cokernel``; None when that cokernel is trivial.  A basis class is
    outside the span exactly when adding it changes the cokernel."""
    if cokernel.is_trivial:
        return None
    return next(u for u in hodge_lattice(V, k).basis_classes()
                if voisin_certificate(V, k, [*generators, u]) != cokernel)


class FourierHodgeMatrix(
    namedtuple("FourierHodgeMatrix", "source_rank target_rank cokernel outside")
):
    """Ranks of the Hodge lattices that the transform maps between, the
    :class:`~abelian_fourier.intlinalg.CokernelInvariants` of the target
    lattice modulo the transforms of the source basis classes, and
    ``outside``, the first target basis class outside their span (None
    when the cokernel is trivial)."""

    __slots__ = ()

    @property
    def unimodular(self) -> bool:
        return self.source_rank == self.target_rank and self.cokernel.is_trivial


def fourier_hodge_matrix(A: AbelianVariety, i: int) -> FourierHodgeMatrix:
    """The transform from the degree-2i Hodge lattice to the dual's, as the
    :func:`voisin_certificate` of the images of the basis classes: unimodular
    when both lattices have the same rank and the cokernel is trivial.  An
    image that is not a Hodge class of the dual, which would contradict the
    transform being a morphism of Hodge structures, raises
    :class:`ImageNotInHodge` with that image as witness.  ``outside`` is
    the :func:`first_outside` class of the dual's lattice."""
    source, target = hodge_lattice(A, i), hodge_lattice(dual(A), A.genus - i)
    images = [fourier(A, u) for u in source.basis_classes()]
    try:
        cok = voisin_certificate(target.A, target.k, images)
    except NotHodge as exc:
        idx = exc.index
        message = f"transform of Hodge basis class {idx} in degree {2 * i} left the Hodge lattice"
        raise ImageNotInHodge(message, images[idx]) from exc
    outside = first_outside(target.A, target.k, images, cok)
    return FourierHodgeMatrix(source.rank, target.rank, cok, outside)
