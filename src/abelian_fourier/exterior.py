"""Sparse exact exterior algebra over the integers.

The integral cohomology ring of a complex torus of dimension ``g`` is the
exterior algebra on the ``2g`` degree-one generators, so a single sparse
structure carries every cohomology class this package manipulates.

A :class:`Multivector` stores a map from basis masks to integer
coefficients: bit ``i`` of a mask is set exactly when generator ``i``
occurs in the monomial, and the monomial is read in increasing index
order.  The wedge sign of two disjoint masks a and b is the parity of the
inversions between their set bits, the pairs of bit i of a above bit j of
b.  Bit i of a meets as many inversions as b has bits below i, so with
``s_b`` the prefix parity of b (bit i set when an odd number of bits of b
lie below i) the sign is the parity of ``popcount(a & s_b)``.
:meth:`Multivector.wedge` computes ``s_b`` once per right-hand term, by
six shift-XOR steps that cover :data:`MAX_RANK` = 64 generators, and
:func:`wedge_sign`, a loop over the bits of b, stays as its oracle.

Divided powers.  Even monomials commute and square to zero, so for a
class x whose terms all have even, nonzero degree, ``x^k`` is ``k!``
times the k-th elementary symmetric sum ``e_k`` of its terms: the sum of
the products of its k-subsets.  :meth:`Multivector.wedge_power_divided`
builds ``e_k`` by one dynamic program over the terms, with no division,
so the minimal classes R = ``ell^{2g-1}/(2g-1)!``, sigma and
``theta^{g-1}/(g-1)!``, and the Kunneth class of ``A x A^``, cost one
pass over their terms.  Any other class, and the oracle, take
``x^k`` by repeated wedges and divide it exactly.

Multivectors are immutable values; every operation returns a fresh one.
The kernels that build their terms from validated classes and drop the
zeros (the wedge, the divided powers, sums, negation, exact division, and
the pullbacks, pushforwards and transforms of the other modules) return
through the private ``Multivector._trusted``, which checks nothing.  The
public ``Multivector(rank, terms)`` keeps every check and is their
oracle: ``tests/test_varieties.py`` rebuilds each kernel's output
through it.

One kernel, :class:`ExteriorPower`, extends generator images to an
algebra map: it is the compound-matrix table of the int rows of a matrix,
filled lazily by mask as ``image(S) = image(S without its top bit) ^
row(top)``, so monomials that share a prefix share its product.  Pullback
and pushforward along a homomorphism run through it, in ints only: the
minors of an integer matrix are integers.  A table can be linked to the
table of the transposed matrix, whose minors are its own read the other
way: once one of the two has every mask, the other takes its images from
it in one transposition pass, so each homomorphism computes its minors
once for both directions.  One loop,
:func:`_wedge_into`, multiplies two sets of terms with the one sign rule
above; ``wedge``, the divided powers and the table all call it.  The
table appends generator j as ``img ^ (c e_j)``, whose sign is the same
rule with ``b = e_j``.
:func:`complement_sign` gives the Poincare-duality sign of ``e_S ^
e_{S^c}`` in constant time.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial

from .errors import NonDivisible, RankMismatch, require_int

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


def _below_parity(b: int) -> int:
    """Prefix parity of b: bit i is the parity of the bits of b below i.

    Bits above :data:`MAX_RANK` are left over from the shifts; a mask of
    the same rank never reads them.

    >>> bin(_below_parity(0b0101) & 0b1111)
    '0b110'
    """
    s = b << 1
    s ^= s << 1
    s ^= s << 2
    s ^= s << 4
    s ^= s << 8
    s ^= s << 16
    s ^= s << 32
    return s


def _wedge_into(out: dict[int, int], left, right) -> None:
    """Add ``left ^ right`` into ``out``.

    ``left`` yields ``(mask, coefficient)`` pairs and ``right`` is a list
    of ``(mask, coefficient, _below_parity(mask))`` triples; the product of
    two terms takes the sign of ``popcount(ma & sb)`` (module docstring).
    Zero sums stay in ``out``.

    >>> out = {}
    >>> _wedge_into(out, [(0b10, 3)], [(1 << j, 1, _below_parity(1 << j)) for j in (0, 1, 2)])
    >>> out
    {3: -3, 6: 3}
    """
    for ma, ca in left:
        for mb, cb, sb in right:
            if ma & mb:
                continue
            m = ma | mb
            if (ma & sb).bit_count() & 1:
                out[m] = out.get(m, 0) - ca * cb
            else:
                out[m] = out.get(m, 0) + ca * cb


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
        require_int(rank, "rank")
        if not 0 <= rank <= MAX_RANK:
            raise ValueError(f"rank must be between 0 and {MAX_RANK}, got {rank}")
        self.rank = rank
        full = (1 << rank) - 1
        clean: dict[int, int] = {}
        if terms:
            for mask, coeff in terms.items():
                if mask & ~full:
                    raise ValueError(f"mask {mask:#x} uses generators beyond rank {rank}")
                if type(coeff) is not int:  # inline: a call per term slows the transforms
                    require_int(coeff, "coefficient")
                if coeff:
                    clean[mask] = coeff
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, rank: int, terms: dict[int, int]) -> "Multivector":
        """A class on terms a kernel built from validated classes: masks
        within ``rank``, ``int`` coefficients, no zero among them.  Nothing
        is checked, and the dict is taken over, not copied."""
        out = object.__new__(cls)
        out.rank = rank
        out._terms = terms
        return out

    @classmethod
    def zero(cls, rank: int) -> "Multivector":
        return cls(rank)

    @classmethod
    def unit(cls, rank: int) -> "Multivector":
        """The multiplicative unit 1 (the fundamental class in degree 0)."""
        return cls(rank, {0: 1})

    @classmethod
    def generator(cls, rank: int, i: int) -> "Multivector":
        """The generator ``e_i``; an index i that is not an int (a bool or
        a float) is a :class:`TypeError`."""
        require_int(i, "generator index")
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
        """Terms whose monomial has exactly ``k`` generators; a degree k
        that is not an int (a bool or a float) is a :class:`TypeError`."""
        require_int(k, "degree")
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
        return Multivector._trusted(self.rank, {m: c for m, c in terms.items() if c})

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check_rank(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, 0) - c
        return Multivector._trusted(self.rank, {m: c for m, c in terms.items() if c})

    def __neg__(self) -> "Multivector":
        return Multivector._trusted(self.rank, {m: -c for m, c in self._terms.items()})

    def __mul__(self, n: int) -> "Multivector":
        if type(n) is not int:  # a bool is not a scalar
            return NotImplemented
        return Multivector(self.rank, {m: c * n for m, c in self._terms.items()})

    __rmul__ = __mul__

    def wedge(self, other: "Multivector") -> "Multivector":
        """Exterior product; bilinear with the inversion-count sign rule,
        read off the prefix parity of each right-hand term.

        >>> a = Multivector.generator(2, 0)
        >>> b = Multivector.generator(2, 1)
        >>> a.wedge(b).items() == {0b11: 1}.items()
        True
        >>> a.wedge(a).is_zero()
        True
        """
        self._check_rank(other)
        terms: dict[int, int] = {}
        right = [(mb, cb, _below_parity(mb)) for mb, cb in other._terms.items()]
        _wedge_into(terms, self._terms.items(), right)
        return Multivector._trusted(self.rank, {m: c for m, c in terms.items() if c})

    __xor__ = wedge

    def wedge_power(self, k: int) -> "Multivector":
        """``self^k``; an exponent k that is not an int (a bool or a
        float) is a :class:`TypeError`."""
        require_int(k, "wedge exponent")
        if k < 0:
            raise ValueError("negative wedge power")
        out = Multivector.unit(self.rank)
        for _ in range(k):
            out = out.wedge(self)
        return out

    def divide_exact(self, n: int) -> "Multivector":
        """The unique y with ``n * y = self``; every coefficient must divide.

        Raises :class:`NonDivisible` identifying the first offending term
        (smallest mask), which serves as the integrality witness.  A
        divisor n that is not an int (a bool or a float) is a
        :class:`TypeError`.
        """
        require_int(n, "divisor")
        if n == 0:
            raise ZeroDivisionError("division of a multivector by zero")
        terms = {}
        for m in sorted(self._terms):
            c = self._terms[m]
            q, r = divmod(c, n)
            if r:
                raise NonDivisible(m, c, n, self.rank)
            terms[m] = q
        return Multivector._trusted(self.rank, terms)

    def wedge_power_divided(self, k: int) -> "Multivector":
        """``self^k / k!``, exact.

        When every term has even, nonzero degree this is the elementary
        symmetric sum ``e_k`` of the terms (module docstring), built with
        no division.  Any other class takes ``wedge_power(k)`` and divides
        it exactly by ``k!``, raising :class:`NonDivisible` as
        :meth:`divide_exact` does; that path is also the oracle.  An
        exponent k that is not an int is a :class:`TypeError`.

        >>> ell = Multivector(4, {0b0101: 1, 0b1010: -1})
        >>> ell.wedge_power_divided(2) == ell.wedge_power(2).divide_exact(2)
        True
        """
        require_int(k, "wedge exponent")
        if k < 0:
            raise ValueError("negative wedge power")
        if any(m.bit_count() & 1 or not m for m in self._terms):
            return self.wedge_power(k).divide_exact(factorial(k))
        return Multivector._trusted(self.rank, _elementary_symmetric(self._terms, k))

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


def _elementary_symmetric(terms: dict[int, int], k: int) -> dict[int, int]:
    """``e_k`` of commuting monomials ``c e_m``, each of even nonzero degree.

    One pass over the terms keeps, for each level j, the sum of the
    products of the j-subsets seen so far; a level that the terms left
    can no longer lift to k is not extended.  Zero coefficients are
    dropped from the result.
    """
    n = len(terms)
    if k > n:
        return {}
    levels: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(k)]
    for i, (mb, cb) in enumerate(terms.items()):
        right = [(mb, cb, _below_parity(mb))]
        remaining = n - i - 1
        for j in range(min(k, i + 1), max(1, k - remaining) - 1, -1):
            _wedge_into(levels[j], levels[j - 1].items(), right)
    return {m: c for m, c in levels[k].items() if c}


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

    ``orientation`` must be the int +1 or -1 (a bool or a float is a
    :class:`TypeError`); classes with no top-degree term integrate to zero.
    """
    require_int(orientation, "orientation")
    if orientation not in (1, -1):
        raise ValueError(f"orientation must be +1 or -1, got {orientation}")
    full = (1 << x.rank) - 1
    return orientation * x.coefficient(full)


class ExteriorPower:
    """Exterior powers of an integer matrix, one monomial at a time.

    Row ``i`` of the matrix is the image of generator ``i``: entry ``j`` is
    its coefficient on target generator ``j``.  :meth:`image` gives the
    image of the monomial ``e_S`` as a map from target masks to nonzero
    coefficients, which are the minors ``det(rows[S, T])`` (the compound
    matrices).  Each image is built from the image of S without its top
    generator, wedged on the right by that generator's row through
    :func:`_wedge_into`; every prefix built on the way is kept, so the
    table fills lazily with the masks asked for and their prefixes.

    ``partner``, when given, is the table of the transposed matrix, and
    the two are linked.  ``det(M^T[T, S]) = det(M[S, T])``, so one
    table's images are the other's read the other way.  A table that
    misses while its partner is complete, every mask filled, takes all its
    images from it in one transposition pass, with no multiplication;
    every mask gets an entry, ``{}`` where all its minors vanish.  A table
    whose partner is not complete fills itself as above, and that fill is
    the oracle of the transposed one.  The link holds the partner's dict
    of images, not the partner, so two linked tables form no cycle.

    The returned maps are the table's own entries: read them, never
    change them.

    >>> power = ExteriorPower([[2, 0], [0, 2]])
    >>> power.image(0b11)
    {3: 4}
    >>> power.apply(Multivector(2, {0b01: 1, 0b11: -1}).items()) == {0b01: 2, 0b11: -4}
    True
    >>> rows = ExteriorPower([[1, 3]])
    >>> columns = ExteriorPower([[1, 0], [3, 0]], partner=rows)
    >>> columns.apply([(0b00, 1), (0b01, 1), (0b10, 1), (0b11, 1)]) == {0: 1, 1: 4}
    True
    >>> rows.image(0b1)
    {1: 1, 2: 3}
    """

    __slots__ = ("_rows", "_images", "_partner")

    def __init__(self, rows, partner: "ExteriorPower | None" = None):
        self._rows = [
            [(1 << j, e, _below_parity(1 << j)) for j, e in enumerate(row) if e] for row in rows
        ]
        self._images: dict[int, dict[int, int]] = {0: {0: 1}}
        self._partner = None
        if partner is not None:
            # (images, mask count) of the other table, which it keeps in place
            self._partner = (partner._images, 1 << len(partner._rows))
            partner._partner = (self._images, 1 << len(self._rows))

    def image(self, mask: int) -> dict[int, int]:
        """The image of ``e_mask``, from its longest prefix in the table,
        or from the partner's table when that is complete."""
        images = self._images
        img = images.get(mask)
        if img is not None:
            return img
        partner = self._partner
        if partner is not None and len(partner[0]) == partner[1]:
            self._transpose(partner[0])
            return images[mask]
        m = mask
        while m not in images:
            m ^= 1 << (m.bit_length() - 1)
        img = images[m]
        rows = self._rows
        rest = mask ^ m
        while rest:
            low = rest & -rest
            rest ^= low
            m |= low
            nxt: dict[int, int] = {}
            _wedge_into(nxt, img.items(), rows[low.bit_length() - 1])
            img = nxt if all(nxt.values()) else {k: v for k, v in nxt.items() if v}
            images[m] = img
        return img

    def _transpose(self, theirs: dict[int, dict[int, int]]) -> None:
        """Fill every mask from the partner's complete images: minor
        ``(S, T)`` there is minor ``(T, S)`` here."""
        images = {t: {} for t in range(1 << len(self._rows))}
        for s, img in theirs.items():
            for t, v in img.items():
                images[t][s] = v
        # in place: the partner holds this dict
        self._images.update(images)

    def apply(self, terms) -> dict[int, int]:
        """The image of the class with ``(mask, coefficient)`` pairs
        ``terms``: its coefficients times the monomial images."""
        acc: dict[int, int] = {}
        get = acc.get
        image = self.image
        for mask, coeff in terms:
            for k, v in image(mask).items():
                acc[k] = get(k, 0) + coeff * v
        return acc if all(acc.values()) else {k: v for k, v in acc.items() if v}


def degree_basis_masks(rank: int, k: int) -> list[int]:
    """All degree-k basis masks in increasing mask order; a rank or a
    degree k that is not an int (a bool or a float) is a :class:`TypeError`."""
    require_int(rank, "rank")
    require_int(k, "degree")
    return sorted(map(sum, combinations([1 << i for i in range(rank)], k)))
