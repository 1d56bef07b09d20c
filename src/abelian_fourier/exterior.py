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

One kernel, :class:`ExteriorPower`, extends generator images to an
algebra map: it is the compound-matrix table of a set of rows, filled
lazily by mask as ``image(S) = image(S without its top bit) ^ row(top)``,
so monomials that share a prefix share its product.  Pullback and
pushforward along a homomorphism and the Hodge operator all run through
it.  Its coefficients are exact ``int`` or ``Fraction`` values: integral
homomorphism matrices stay in integer arithmetic, and the rational Hodge
operator built from a complex structure runs through the same table.
:func:`complement_sign` gives the Poincare-duality sign of ``e_S ^
e_{S^c}`` in constant time.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

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


# the generators at odd positions, for every rank up to MAX_RANK
_ODD_BITS = int("10" * (MAX_RANK // 2), 2)


def complement_sign(s: int) -> int:
    """Sign of ``e_S ^ e_{S^c}``, that is ``wedge_sign(S, full ^ S)``.

    Each generator i of S passes the ``i - (generators of S below i)``
    generators of the complement below it, so the inversion count is the
    sum of the positions of S minus ``C(|S|, 2)``: its parity is the
    number of generators of S at odd positions plus ``C(|S|, 2)``.  The
    sign does not depend on the rank.

    >>> [complement_sign(s) for s in (0b00, 0b01, 0b10, 0b11)]
    [1, 1, -1, 1]
    >>> complement_sign(0b0110) == wedge_sign(0b0110, 0b1001)
    True
    """
    k = s.bit_count()
    return -1 if ((s & _ODD_BITS).bit_count() + k * (k - 1) // 2) & 1 else 1


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
                    clean[mask] = coeff
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

        >>> theta = Multivector(2, {0b11: 1})
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


class ExteriorPower:
    """Exterior powers of a matrix given by rows, one monomial at a time.

    ``rows[i]`` is the image of generator ``i`` as a sparse list of
    ``(target_index, coefficient)`` pairs with ``int`` or ``Fraction``
    coefficients.  :meth:`image` gives the image of the monomial ``e_S``
    as a map from target masks to nonzero coefficients, which are the
    minors ``det(rows[S, T])`` (the compound matrices).  Each image is
    built from the image of S without its top generator, appending that
    generator's row; every prefix built on the way is kept, so the table
    fills lazily with the masks asked for and their prefixes.  The sign
    of appending target generator ``j`` to a monomial ``pmask`` is the
    parity of the generators of ``pmask`` above ``j``.

    The returned maps are the table's own entries: read them, never
    change them.

    >>> power = ExteriorPower([[(0, 2)], [(1, 2)]])
    >>> power.image(0b11)
    {3: 4}
    >>> power.apply(Multivector(2, {0b01: 1, 0b11: -1}).items()) == {0b01: 2, 0b11: -4}
    True
    """

    __slots__ = ("_rows", "_images")

    def __init__(self, rows):
        self._rows = rows
        self._images: dict[int, dict[int, int | Fraction]] = {0: {0: 1}}

    def image(self, mask: int) -> dict[int, int | Fraction]:
        """The image of ``e_mask``, from its longest prefix in the table."""
        images = self._images
        img = images.get(mask)
        if img is not None:
            return img
        tops = []
        m = mask
        while m not in images:
            top = m.bit_length() - 1
            tops.append(top)
            m ^= 1 << top
        img = images[m]
        for top in reversed(tops):
            m |= 1 << top
            row = self._rows[top]
            nxt: dict[int, int | Fraction] = {}
            for pmask, pc in img.items():
                for j, cj in row:
                    bit = 1 << j
                    if pmask & bit:
                        continue
                    key = pmask | bit
                    if (pmask >> j).bit_count() & 1:
                        nxt[key] = nxt.get(key, 0) - pc * cj
                    else:
                        nxt[key] = nxt.get(key, 0) + pc * cj
            img = {k: v for k, v in nxt.items() if v}
            images[m] = img
        return img

    def apply(self, terms) -> dict[int, int | Fraction]:
        """The image of the class with ``(mask, coefficient)`` pairs
        ``terms``: its coefficients times the monomial images."""
        acc: dict[int, int | Fraction] = {}
        for mask, coeff in terms:
            for k, v in self.image(mask).items():
                nv = acc.get(k, 0) + coeff * v
                if nv:
                    acc[k] = nv
                elif k in acc:
                    del acc[k]
        return acc


def _integral_image(x: Multivector, power: ExteriorPower, target_rank: int) -> Multivector:
    """The image of ``x`` under ``power``, which must be integral.

    A non-integer coefficient raises :class:`NonIntegralResult`, whose
    witness is its numerator on its monomial.
    """
    terms = power.apply(x.items())
    for mask, val in terms.items():
        if type(val) is not int:
            if val.denominator != 1:
                raise NonIntegralResult(
                    f"coefficient {val} of monomial mask {mask:#x} is not an integer",
                    Multivector(target_rank, {mask: val.numerator}),
                )
            terms[mask] = int(val)
    return Multivector(target_rank, terms)


def degree_basis_masks(rank: int, k: int) -> list[int]:
    """All degree-k basis masks in increasing mask order."""
    from itertools import combinations

    masks = [sum(1 << i for i in c) for c in combinations(range(rank), k)]
    return sorted(masks)
