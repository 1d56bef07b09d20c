"""Fourier transform and Pontryagin calculus on integral cohomology.

The transform of a class x on A is the correspondence action of the
exponential of the pairing class on the product with the dual,

    F(x) = push_2( exp(ell) ^ pull_1(x) ),

which exchanges degree j with 2g - j, preserves the integral lattice, and
swaps the cup product with the Pontryagin convolution product

    x * y = m_*( pull_1(x) ^ pull_2(y) ).

This is the exchange law (Beauville 1983, Mukai 1981):
``F(x * y) = F(x) ^ F(y)`` and ``F(x ^ y) = (-1)^g F(x) * F(y)``.

Closed form.  In the factor-major basis ``ell = sum_i s_i e_i f_i``
pairs generator ``e_i`` of A with generator ``f_i`` of the dual, with the
sign ``s_i = -1`` exactly when bit i of ``A.negative`` is set.  The 2-forms
``e_i f_i`` commute, so ``exp(ell)`` is the product of the
``1 + s_i e_i f_i`` and its terms are ``prod_{i in S} s_i e_i f_i`` over
all subsets S.  Against ``e_I`` only ``S = K = I^c`` fills the first
factor, so F sends ``c e_I`` to one signed monomial ``f_K``.  With ``m = |K|``, ``n = 2g`` and ``N = A.negative``,
the sign collects

* ``(-1)^{|K & N|}``, the product of the ``s_i`` over K;
* ``(-1)^{m(m-1)/2}``, sorting ``e_k1 f_k1 ... e_km f_km`` into
  ``e_K f_K``;
* ``(-1)^{(n-m) m}``, moving ``e_I`` past ``f_K``;
* ``complement_sign(K) = (-1)^{|K & O| + m(m-1)/2}``, with O the
  generators at odd positions, sorting ``e_K e_I`` into the full
  monomial;
* ``orientation(A)``, integrating the full monomial over the fibre.

The two ``m(m-1)/2`` cancel, and ``(n-m) m`` has the parity of m because
n is even.  The parities ``|K & N|``, ``|K & O|`` and ``|K|`` add up to
the parity of ``|K & flip|`` with ``flip = full & ~(N ^ O)``, so the
five factors collapse to one mask:

    F(c e_I) = orientation(A) (-1)^{|K & flip|} c f_K.

The inverse is the inversion identity ``F_{A^} . F_A = (-1)^g [-1]^*``
read backwards: the transform of the dual, then ``(-1)^g [-1]^*``.  With
``N^`` the dual's mask the transform of the dual has the sign
``orientation(A^) (-1)^{|K & flip^|}``, ``flip^ = full & ~(N^ ^ O)``;
``[-1]^*`` multiplies the term on K by ``(-1)^{|K|}``, and
``|K & flip^| + |K|`` has the parity of ``|K & ~flip^|``.  So the three
steps collapse to one mask and one sign as well:

    F^{-1}(c f_I) = (-1)^g orientation(A^) (-1)^{|K & (N^ ^ O)|} c e_K.

So :func:`fourier` and :func:`inverse_fourier` each cost one masked
popcount per input term and build neither ``exp(ell)`` (``2^{2g}``
terms) nor the product ``A x A^``, and :func:`pontryagin` conjugates the
cup product by the transform through the exchange law.  The definitions
are kept as oracles: :func:`fourier_reference` evaluates the
correspondence and :func:`pontryagin_reference` the addition pushforward;
``tests/test_fourier.py`` keeps the three-step inverse, with ``[-1]^*``
as its own map, as the oracle of :func:`inverse_fourier`.  This module
holds only the calculus and its oracles; every comparison of two sides,
the paper's Kunneth split and Prop. 4.5 included, is a check in
``suite``.  The suite's
``lemma51_diagram`` compares the transform with the correspondence and
``product_exchange`` compares the transform with the ``m_*`` product, so
neither check compares a fast path with itself.  The star checks take their star powers from both
:func:`pontryagin` and :func:`pontryagin_reference`.

Curve classes of divisors.  For a principal A with polarization isogeny
``lambda: A -> A^``, the paper's triple sum

    beta(D) = sum_{i+j+k = 2g-2} (-1)^{j+k}
              push_2( m^*theta^[i] ^ p_1^*theta^[j] ^ p_1^*D ) ^ theta^[k],

with ``x^[i] = x^i / i!``, is ``lambda^* F(D)`` for every degree-2 D
(Beauville 1983 for the exchange law and ``F(theta^[k])``):

* ``theta^[k]`` enters ``push_2`` as ``p_2^*theta^[k]`` (projection
  formula), so the sum is ``push_2(T ^ p_1^*D)`` with the signed triple
  sum on ``A x A`` (:func:`theta_triple_sum`)

      T = sum_{i+j+k = 2g-2} (-1)^{j+k}
          m^*theta^[i] ^ p_1^*theta^[j] ^ p_2^*theta^[k].

* ``ell_lambda = m^*theta - p_1^*theta - p_2^*theta`` is
  ``(1 x lambda)^* ell``, pinned by ``(id, lambda)^* ell = 2 theta``.  The
  three terms of ``m^*theta`` have even degree and commute, so
  ``m^*theta^[i]`` is the sum of ``ell_lambda^[a] p_1^*theta^[b]
  p_2^*theta^[c]`` over ``a + b + c = i``.  For fixed a, the sum over
  ``b + j = s`` of ``(-1)^j theta^[b] theta^[j]`` is
  ``(theta - theta)^[s]``, zero unless ``s = 0``, and likewise the sum
  over ``c + k``.  So ``T = ell_lambda^[2g-2]``, the identity the suite's
  ``sigma_triple_sum`` checks.
* ``ell_lambda`` has bidegree (1, 1) and D degree (2, 0), so only
  ``ell_lambda^[2g-2]`` fills the first factor: the class is
  ``push_2(exp(ell_lambda) ^ p_1^*D)``.  Base change of ``push_2`` along
  ``1 x lambda`` turns it into ``lambda^* push_2(exp(ell) ^ p_1^*D)``,
  which is ``lambda^* F(D)``.

So :func:`beta_from_divisor` is one transform and one pullback along
``lambda``; ``push_2(T ^ p_1^*D)`` stays as its oracle
(:func:`beta_from_divisor_reference`), and the suite's
``beta_surjectivity`` compares the two at every genus it runs.

Sign conventions (pinned once, consumed everywhere):

* ``ell`` on ``A x A^`` pairs generator i with dual generator i, with
  sign -1 on the generators of the mask ``A.negative``; freshly
  constructed varieties have the empty mask, dualizing complements it and
  a product concatenates the factors' masks.  A single global sign
  cannot work: the inversion identity ``F . F = (-1)^g [-1]^*`` on
  odd-degree classes forces the pairing class of the dual to be the
  pullback of the primal one under the swap map, which in coordinates is
  the sign flip.  Even
  cohomology only meets even powers of ``ell``, so no even-degree
  identity can detect the flip; exactness on all 2^{2g} monomials does.
* The polarization isogeny has matrix E itself, pinned by the identity
  ``(id, lambda)^* ell = 2 theta``.
* ``integrate(ell^{2g}) = (-1)^g (2g)!`` is a derived normalization, not
  a choice; the even-genus-free sign is audited by the suite.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import factorial

from .errors import NonTerminatingSeries, RankMismatch, UnsupportedParams, require_int
from .exterior import _ODD_BITS, Multivector
from .varieties import (
    AbelianVariety,
    Homomorphism,
    ProductStructure,
    dual,
    polarization_isogeny,
    product,
    structure_homs,
)


def poincare_class(A: AbelianVariety) -> Multivector:
    """First Chern class of the Poincare bundle, on ``A x A^``.

    The mixed Kunneth element pairing each generator with its dual
    generator, with sign -1 on the generators of ``A.negative``.
    """
    n = A.rank
    terms = {(1 << i) | (1 << (n + i)): -1 if A.negative >> i & 1 else 1 for i in range(n)}
    return Multivector(2 * n, terms)


class PoincareContext(namedtuple("PoincareContext", "A Ahat pair ell ch")):
    """The product ``A x A^`` with its pairing class and Chern character."""

    __slots__ = ()


@lru_cache(maxsize=None)
def context(A: AbelianVariety) -> PoincareContext:
    Ahat = dual(A)
    pair = product(A, Ahat)
    ell = poincare_class(A)
    ch = ell.cup_exponential()
    return PoincareContext(A=A, Ahat=Ahat, pair=pair, ell=ell, ch=ch)


def correspondence_action(
    P: ProductStructure, gamma: Multivector, x: Multivector
) -> Multivector:
    """Action of a correspondence on ``A x B``: ``push_2(gamma ^ pull_1(x))``."""
    return P.push_second(gamma.wedge(P.pull_first(x)))


def _require_rank(A: AbelianVariety, x: Multivector):
    if x.rank != A.rank:
        raise RankMismatch(f"class rank {x.rank} != variety rank {A.rank}")


def _signed_complement(x: Multivector, flip: int, sign: int) -> Multivector:
    """``c e_I -> sign (-1)^{|K & flip|} c e_K`` with ``K = I^c``: the
    closed form of the transform and of its inverse (module docstring)."""
    n = x.rank
    full = (1 << n) - 1
    terms = {}
    for mask, c in x.items():
        k = full ^ mask
        terms[k] = -sign * c if (k & flip).bit_count() & 1 else sign * c
    return Multivector._trusted(n, terms)


def fourier(A: AbelianVariety, x: Multivector) -> Multivector:
    """Fourier transform of a class on A, landing on the dual.

    Maps degree j isomorphically onto degree 2g - j of the dual lattice,
    one signed monomial per input monomial, its sign read off one mask
    (the closed form of the module docstring).
    """
    _require_rank(A, x)
    full = (1 << A.rank) - 1
    return _signed_complement(x, full & ~(A.negative ^ _ODD_BITS), A.orientation)


def fourier_reference(A: AbelianVariety, x: Multivector) -> Multivector:
    """The transform by its definition, ``push_2(exp(ell) ^ pull_1(x))``.

    Builds ``A x A^`` and the ``2^{2g}``-term ``exp(ell)``; the oracle
    that :func:`fourier` is tested against.
    """
    _require_rank(A, x)
    ctx = context(A)
    return correspondence_action(ctx.pair, ctx.ch, x)


def inverse_fourier(A: AbelianVariety, y: Multivector) -> Multivector:
    """Inverse of :func:`fourier`, for a class y on the dual of A.

    The inversion identity ``F_{A^} . F_A = (-1)^g [-1]^*`` in one pass:
    the transform of the dual with ``(-1)^g [-1]^*`` folded into its sign
    (the closed form of the module docstring).
    """
    _require_rank(A, y)
    Ahat = dual(A)
    full = (1 << A.rank) - 1
    sign = -Ahat.orientation if A.genus & 1 else Ahat.orientation
    return _signed_complement(y, (Ahat.negative ^ _ODD_BITS) & full, sign)


def pontryagin(V: AbelianVariety, x: Multivector, y: Multivector) -> Multivector:
    """Pontryagin product through the exchange law,
    ``x * y = F^{-1}(F(x) ^ F(y))``.

    The point class is the unit; degrees add and drop by 2g.
    """
    return inverse_fourier(V, fourier(V, x).wedge(fourier(V, y)))


def pontryagin_reference(V: AbelianVariety, x: Multivector, y: Multivector) -> Multivector:
    """Pontryagin product by its definition: the addition pushforward of
    the split product, ``m_*(pull_1(x) ^ pull_2(y))``.

    The oracle that :func:`pontryagin` is tested against.
    """
    sh = structure_homs(V)
    z = sh.square.pull_first(x).wedge(sh.square.pull_second(y))
    return sh.m.pushforward(z)


def _require_positive_dimension(V: AbelianVariety, x: Multivector):
    if not x.graded_component(V.rank).is_zero():
        raise UnsupportedParams(
            "star divided powers need classes of positive dimension "
            "(no top-degree component)"
        )


def star_power(V: AbelianVariety, x: Multivector, n: int, star=None) -> Multivector:
    """``x^{*n}``, n products by ``star`` (default :func:`pontryagin`) from
    the point class; an exponent n that is not an int (a bool or a float)
    is a :class:`TypeError`."""
    require_int(n, "star exponent")
    if n < 0:
        raise UnsupportedParams("negative star power")
    star = star or pontryagin
    out = V.point_class()
    for _ in range(n):
        out = star(V, out, x)
    return out


def star_divided_power(V: AbelianVariety, x: Multivector, n: int, star=None) -> Multivector:
    """``x^{*n} / n!`` with the division performed exactly.

    A failed division raises NonDivisible carrying the witness term; for
    the classes treated here that is a genuine finding about the input,
    not an internal error, and the verification suite reports it as such.
    The powers are taken with ``star``, by default :func:`pontryagin`; the
    suite's star checks run once with it and once with
    :func:`pontryagin_reference`, the definition of the product.
    """
    _require_positive_dimension(V, x)
    return star_power(V, x, n, star).divide_exact(factorial(n))


def star_exponential(V: AbelianVariety, x: Multivector, star=None) -> Multivector:
    """Star-exponential ``sum_n x^{*n} / n!``; terminates by degree drop.

    Every star power loses degree because x has no top component, so the
    series is finite; each term must divide exactly.  The powers are taken
    with ``star``, as in :func:`star_divided_power`.
    """
    _require_positive_dimension(V, x)
    star = star or pontryagin
    out = V.point_class()
    p = None
    n = 0
    while True:
        n += 1
        p = x if n == 1 else star(V, p, x)
        if p.is_zero():
            return out
        out = out + p.divide_exact(factorial(n))
        if n > V.rank + 1:
            raise NonTerminatingSeries(
                f"star power {n} of a class without top component is nonzero", p
            )


NAMED_CLASS_TAGS = ("R", "rho", "sigma", "gamma_theta", "tau", "point", "fundamental")


def graph_of_polarization(A: AbelianVariety) -> Homomorphism:
    """The morphism ``(id, lambda): A -> A x A^``."""
    P = product(A, dual(A))
    rows = []
    n = A.rank
    for i in range(n):
        rows.append(tuple(1 if j == i else 0 for j in range(n)))
    for i in range(n):
        rows.append(tuple(A.E[i]))
    # holomorphic by the Riemann relation E J = -J^T E
    return Homomorphism._trusted(A, P.variety, tuple(rows))


def named_class(A: AbelianVariety, tag: str) -> Multivector:
    """Evaluate one of the distinguished classes from its defining formula.

    ``fundamental`` and ``gamma_theta`` live on A; ``point`` on A;
    ``R``/``rho``, ``sigma`` and ``tau`` live on ``A x A^``.  The tags
    ``R`` and ``rho`` are synonyms for the minimal one-cycle class
    ``ell^{2g-1} / (2g-1)!``; ``sigma`` is ``ell^{2g-2} / (2g-2)!``.
    ``gamma_theta`` is the minimal class ``theta^{g-1} / (g-1)!`` and
    ``tau`` its three-term spread over the product, both requiring a
    principal polarization.
    """
    g = A.genus
    if tag == "fundamental":
        return A.fundamental_class()
    if tag == "point":
        return A.point_class()
    if tag in ("R", "rho"):
        return poincare_class(A).wedge_power_divided(2 * g - 1)
    if tag == "sigma":
        return poincare_class(A).wedge_power_divided(2 * g - 2)
    if tag == "gamma_theta":
        if not A.is_principal:
            raise UnsupportedParams("gamma_theta needs a principal polarization")
        return A.theta_class().wedge_power_divided(g - 1)
    if tag == "tau":
        if not A.is_principal:
            raise UnsupportedParams("tau needs a principal polarization")
        P = product(A, dual(A))
        gamma = A.theta_class().wedge_power_divided(g - 1)
        gamma_hat = dual(A).theta_class().wedge_power_divided(g - 1)
        graph = graph_of_polarization(A)
        return (
            P.j1.pushforward(gamma)
            + P.j2.pushforward(gamma_hat)
            - graph.pushforward(gamma)
        )
    raise UnsupportedParams(f"unknown class tag {tag!r}; expected one of {NAMED_CLASS_TAGS}")


def _require_divisor(A: AbelianVariety, D: Multivector):
    if not A.is_principal:
        raise UnsupportedParams("the divisor-to-curve formula needs a principal polarization")
    if D.degrees() not in ({2}, set()):
        raise UnsupportedParams("D must be homogeneous of degree 2")


def beta_from_divisor(A: AbelianVariety, D: Multivector) -> Multivector:
    """Curve class attached to a divisor class, ``lambda^* F(D)``.

    For a principally polarized A and an integral degree-2 class D this
    is the triple sum of :func:`beta_from_divisor_reference` (the
    derivation is in the module docstring): one transform, one signed
    monomial per term of D, and one pullback along the polarization
    isogeny.  Ranging D over a basis of the divisor classes produces
    generators of the curve-class lattice.
    """
    _require_divisor(A, D)
    return polarization_isogeny(A).pullback(fourier(A, D))


def beta_from_divisor_reference(A: AbelianVariety, D: Multivector) -> Multivector:
    """Curve class attached to a divisor class by the triple-sum formula,
    ``push_2(T ^ p_1^*D)`` with T the :func:`theta_triple_sum` of A.

    This is the paper's sum with each ``theta^[k]`` taken inside ``push_2``
    by the projection formula, so it costs one ``push_2``.  The oracle
    that :func:`beta_from_divisor` is tested against.
    """
    _require_divisor(A, D)
    square = structure_homs(A).square
    return square.push_second(theta_triple_sum(A).wedge(square.pull_first(D)))


@lru_cache(maxsize=None)
def theta_triple_sum(A: AbelianVariety) -> Multivector:
    """The signed triple sum of theta divided powers on ``A x A``,

        T = sum_{i+j+k = 2g-2} (-1)^{j+k} m^*theta^[i] ^ p_1^*theta^[j] ^ p_2^*theta^[k],

    which the suite's ``sigma_triple_sum`` compares with
    ``ell_lambda^{2g-2}/(2g-2)!`` and :func:`beta_from_divisor_reference`
    pushes forward.  Memoized per variety, so the oracle builds T once for
    all the divisors it is given.
    """
    g = A.genus
    sh = structure_homs(A)
    thp = [A.theta_class().wedge_power_divided(t) for t in range(g + 1)]
    out = Multivector.zero(sh.square.variety.rank)
    for i in range(g + 1):
        mi = sh.m.pullback(thp[i])
        for j in range(g + 1):
            k = 2 * g - 2 - i - j
            if not 0 <= k <= g:
                continue
            term = mi.wedge(sh.square.pull_first(thp[j])).wedge(sh.square.pull_second(thp[k]))
            out = out + (term if (j + k) % 2 == 0 else -term)
    return out

