"""Sparse exact exterior algebra over the integers.

The integral cohomology ring of a complex torus of dimension ``g`` is the
exterior algebra on the ``2g`` degree-one generators, so a single sparse
structure carries every cohomology class this package manipulates.

A :class:`Multivector` stores a map from basis masks to integer
coefficients: bit ``i`` of a mask is set exactly when generator ``i``
occurs in the monomial, and the monomial is read in increasing index
order.  The wedge sign between two disjoint masks is the parity of the
number of inversions between their set bits, computed with shifted
popcounts rather than permutation sorting.

Multivectors are immutable values; every operation returns a fresh one.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import NonDivisible, NonIntegralResult, RankMismatch

MAX_RANK = 64


def wedge_sign(a: int, b: int) -> int:
    """Sign of ``e_a ^ e_b`` for disjoint masks, 0 when they overlap.

    The sign is ``(-1)**inv`` where ``inv`` counts pairs ``(i, j)`` with
    ``i`` set in ``a``, ``j`` set in ``b`` and ``i > j``.

    >>> wedge_sign(0b01, 0b10)
    1
    >>> wedge_sign(0b10, 0b01)
    -1
    >>> wedge_sign(0b01, 0b01)
    0
    """
    if a & b:
        return 0
    inv = 0
    t = b
    while t:
        low = t & -t
        inv += (a >> low.bit_length()).bit_count()
        t ^= low
    return -1 if inv & 1 else 1


class Multivector:
    """Element of the exterior algebra on ``rank`` integer generators."""

    __slots__ = ("rank", "_terms")

    def __init__(self, rank: int, terms=None):
        if not 0 <= rank <= MAX_RANK:
            raise ValueError(f"rank must be between 0 and {MAX_RANK}, got {rank}")
        self.rank = rank
        full = (1 << rank) - 1
        clean: dict[int, int] = {}
        if terms:
            for mask, coeff in terms.items():
                if mask & ~full:
                    raise ValueError(f"mask {mask:#x} uses generators beyond rank {rank}")
                if coeff:
                    if not isinstance(coeff, int):
                        raise TypeError(f"coefficient {coeff!r} is not an integer")
                    clean[mask] = clean.get(mask, 0) + coeff
                    if not clean[mask]:
                        del clean[mask]
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "Multivector":
        return cls(rank)

    @classmethod
    def unit(cls, rank: int) -> "Multivector":
        """The multiplicative unit 1 (the fundamental class in degree 0)."""
        return cls(rank, {0: 1})

    @classmethod
    def generator(cls, rank: int, i: int) -> "Multivector":
        if not 0 <= i < rank:
            raise ValueError(f"generator index {i} out of range for rank {rank}")
        return cls(rank, {1 << i: 1})

    @classmethod
    def monomial(cls, rank: int, indices, coeff: int = 1) -> "Multivector":
        """Monomial on distinct generator indices, in increasing order."""
        mask = 0
        for i in indices:
            bit = 1 << i
            if mask & bit:
                raise ValueError(f"repeated generator index {i}")
            mask |= bit
        return cls(rank, {mask: coeff})

    # -- inspection ----------------------------------------------------

    def items(self):
        return self._terms.items()

    def coefficient(self, mask: int) -> int:
        return self._terms.get(mask, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def degrees(self) -> set[int]:
        return {mask.bit_count() for mask in self._terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        """Degree of a homogeneous multivector (0 for the zero class)."""
        degs = self.degrees()
        if not degs:
            return 0
        if len(degs) > 1:
            from .errors import NotHomogeneous

            raise NotHomogeneous(f"mixed degrees {sorted(degs)}")
        return degs.pop()

    def graded_component(self, k: int) -> "Multivector":
        """Terms whose monomial has exactly ``k`` generators."""
        if not 0 <= k <= self.rank:
            raise ValueError(f"degree {k} out of range for rank {self.rank}")
        return Multivector(
            self.rank,
            {m: c for m, c in self._terms.items() if m.bit_count() == k},
        )

    # -- ring structure -------------------------------------------------

    def _check_rank(self, other: "Multivector"):
        if self.rank != other.rank:
            raise RankMismatch(f"ranks {self.rank} and {other.rank} differ")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_rank(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, 0) + c
        return Multivector(self.rank, terms)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check_rank(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, 0) - c
        return Multivector(self.rank, terms)

    def __neg__(self) -> "Multivector":
        return Multivector(self.rank, {m: -c for m, c in self._terms.items()})

    def __mul__(self, n: int) -> "Multivector":
        if not isinstance(n, int):
            return NotImplemented
        return Multivector(self.rank, {m: c * n for m, c in self._terms.items()})

    __rmul__ = __mul__

    def wedge(self, other: "Multivector") -> "Multivector":
        """Exterior product; bilinear with the inversion-count sign rule.

        >>> a = Multivector.generator(2, 0)
        >>> b = Multivector.generator(2, 1)
        >>> a.wedge(b).items() == {0b11: 1}.items()
        True
        >>> a.wedge(a).is_zero()
        True
        """
        self._check_rank(other)
        terms: dict[int, int] = {}
        right = list(other._terms.items())
        for ma, ca in self._terms.items():
            for mb, cb in right:
                if ma & mb:
                    continue
                s = wedge_sign(ma, mb)
                m = ma | mb
                terms[m] = terms.get(m, 0) + s * ca * cb
        return Multivector(self.rank, terms)

    __xor__ = wedge

    def wedge_power(self, k: int) -> "Multivector":
        if k < 0:
            raise ValueError("negative wedge power")
        out = Multivector.unit(self.rank)
        for _ in range(k):
            out = out.wedge(self)
        return out

    def divide_exact(self, n: int) -> "Multivector":
        """The unique y with ``n * y = self``; every coefficient must divide.

        Raises :class:`NonDivisible` identifying the first offending term
        (smallest mask), which serves as the integrality witness.
        """
        if n == 0:
            raise ZeroDivisionError("division of a multivector by zero")
        terms = {}
        for m in sorted(self._terms):
            c = self._terms[m]
            q, r = divmod(c, n)
            if r:
                raise NonDivisible(m, c, n, self.rank)
            terms[m] = q
        return Multivector(self.rank, terms)

    def wedge_power_divided(self, k: int) -> "Multivector":
        """``self^k / k!`` with the division performed exactly."""
        return self.wedge_power(k).divide_exact(factorial(k))

    def cup_exponential(self) -> "Multivector":
        """``sum_k self^k / k!``; requires no degree-0 component.

        Each term is divided exactly and :class:`NonDivisible` propagates
        from any term that fails.

        >>> theta = Multivector.monomial(2, [0, 1])
        >>> sorted(theta.cup_exponential().items())
        [(0, 1), (3, 1)]
        """
        if self.coefficient(0):
            raise ValueError("exponential needs a nilpotent argument (no degree-0 part)")
        out = Multivector.unit(self.rank)
        power = Multivector.unit(self.rank)
        k = 0
        while True:
            k += 1
            power = power.wedge(self)
            if power.is_zero():
                return out
            out = out + power.divide_exact(factorial(k))

    # -- linear maps on generators ---------------------------------------

    def apply_linear(self, matrix) -> "Multivector":
        """Algebra map sending generator ``i`` to ``sum_j matrix[i][j] e_j``.

        The matrix must be square of size ``rank``; entries may be
        rational.  The result must be integral, otherwise
        :class:`NonIntegralResult` is raised (an integral class with a
        non-integral image is not a pullback of lattice classes).

        >>> x = Multivector.monomial(2, [0, 1])
        >>> x.apply_linear([[2, 0], [0, 2]]).items() == {0b11: 4}.items()
        True
        """
        if len(matrix) != self.rank or any(len(row) != self.rank for row in matrix):
            raise RankMismatch(
                f"matrix is {len(matrix)} rows for an algebra of rank {self.rank}"
            )
        rows = [
            [(j, Fraction(entry)) for j, entry in enumerate(row) if entry]
            for row in matrix
        ]
        return _integral_image(self, rows, self.rank)

    # -- value semantics and display ----------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.rank == other.rank and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.rank, tuple(sorted(self._terms.items()))))

    def __repr__(self) -> str:
        if not self._terms:
            return f"Multivector({self.rank}, 0)"
        bits = []
        for mask in sorted(self._terms):
            c = self._terms[mask]
            mono = (
                "1"
                if mask == 0
                else "e" + "e".join(str(i) for i in bits_of(mask))
            )
            bits.append(f"{c}*{mono}")
        return f"Multivector({self.rank}, {' + '.join(bits)})"

    # -- serialization ---------------------------------------------------

    def to_records(self) -> list[dict]:
        """Shared wire format: sorted generator lists, decimal coefficients."""
        return [
            {"generators": bits_of(mask), "coeff": str(self._terms[mask])}
            for mask in sorted(self._terms)
        ]

    @classmethod
    def from_records(cls, rank: int, records) -> "Multivector":
        terms: dict[int, int] = {}
        for rec in records:
            mask = 0
            for i in rec["generators"]:
                bit = 1 << int(i)
                if mask & bit:
                    raise ValueError(f"repeated generator in record {rec!r}")
                mask |= bit
            terms[mask] = terms.get(mask, 0) + int(rec["coeff"])
        return cls(rank, terms)


def bits_of(mask: int) -> list[int]:
    """Sorted list of set bit positions."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def integrate(x: Multivector, orientation: int):
    """Evaluate against the fundamental class: top coefficient times sign.

    ``orientation`` must be +1 or -1; classes with no top-degree term
    integrate to zero.
    """
    if orientation not in (1, -1):
        raise ValueError(f"orientation must be +1 or -1, got {orientation}")
    full = (1 << x.rank) - 1
    return orientation * x.coefficient(full)


def _apply_generator_images(x: Multivector, rows) -> dict[int, Fraction]:
    """Extend generator images to an algebra map, exactly.

    ``rows[i]`` is the image of generator ``i`` of ``x`` as a sparse list
    of ``(target_index, Fraction)`` pairs.  Returns the image as a map
    from target masks to nonzero rational coefficients.
    """
    acc: dict[int, Fraction] = {}
    for mask, coeff in x.items():
        partial = {0: Fraction(coeff)}
        m = mask
        while m:
            low = m & -m
            m ^= low
            row = rows[low.bit_length() - 1]
            nxt: dict[int, Fraction] = {}
            for pmask, pc in partial.items():
                for j, cj in row:
                    bit = 1 << j
                    if pmask & bit:
                        continue
                    s = wedge_sign(pmask, bit)
                    key = pmask | bit
                    val = nxt.get(key, Fraction(0)) + s * pc * cj
                    if val:
                        nxt[key] = val
                    elif key in nxt:
                        del nxt[key]
            partial = nxt
            if not partial:
                break
        for k, v in partial.items():
            nv = acc.get(k, Fraction(0)) + v
            if nv:
                acc[k] = nv
            elif k in acc:
                del acc[k]
    return acc


def _integral_image(x: Multivector, rows, target_rank: int) -> Multivector:
    """The image under :func:`_apply_generator_images`, which must be integral.

    A non-integer coefficient raises :class:`NonIntegralResult`.
    """
    terms = {}
    for mask, val in _apply_generator_images(x, rows).items():
        if val.denominator != 1:
            raise NonIntegralResult(
                f"coefficient {val} of monomial mask {mask:#x} is not an integer"
            )
        terms[mask] = int(val)
    return Multivector(target_rank, terms)


def degree_basis_masks(rank: int, k: int) -> list[int]:
    """All degree-k basis masks in increasing mask order."""
    from itertools import combinations

    masks = [sum(1 << i for i in c) for c in combinations(range(rank), k)]
    return sorted(masks)
