"""Named executable checks over the operator calculus, with witnesses.

Every check evaluates one exact identity (or lattice certificate) on
concretely constructed varieties.  A check fails one way: its body
raises :class:`CheckFailure` with a detail and the witness class, an
identity ``lhs = rhs`` through :func:`errors.require_equal`, witnessed by
``lhs - rhs``; else it returns its pass note.  This module is the one
caller of :func:`errors.require_equal`: the statements of the paper that
are only checks, the Kunneth split of the minimal class of ``A x A^`` and
Prop. 4.5, are built here on the 4-fold ``(A x B) x (A x B)^``
(:func:`_four_fold_maps`), and the calculus modules hold no comparison.
Checks are pure and deterministic: randomized ones derive all choices
from an explicit seed that is recorded in the result parameters.

Each check is described by data, its :class:`_CheckSpec`: a desk-scale
genus ceiling, whether it needs a principal polarization, whether it
builds its own ``standard_ppav`` models and its default-grid entries.
:func:`run_check` enforces these fields in one place and
:func:`default_suite` derives both grids from them.  Beyond its ceiling a
check reports status ``skipped`` with a budget note rather than running
unbounded work.  The ``poincare_normalization`` check asserts the derived
normalization ``integrate(ell^{2g}) = (-1)^g (2g)!`` and fails on a
mismatch; its pass note says that a displayed-positive normalization of
the top self-pairing would differ by exactly ``(-1)^g``, the sign the
related Kunneth split check inserts.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from itertools import combinations
from math import factorial, isqrt

from . import intlinalg
from .errors import (
    CheckFailure,
    NonDivisible,
    NotHodge,
    UnknownCheck,
    UnsupportedParams,
    require_equal,
)
from .exterior import Multivector
from .fourier import (
    beta_from_divisor,
    beta_from_divisor_reference,
    context,
    correspondence_action,
    fourier,
    fourier_reference,
    named_class,
    poincare_class,
    pontryagin,
    pontryagin_reference,
    star_divided_power,
    star_exponential,
    theta_triple_sum,
)
from .hodge import first_outside, fourier_hodge_matrix, hodge_lattice, voisin_certificate
from .varieties import (
    AbelianVariety,
    Homomorphism,
    dual,
    elliptic_product,
    product,
    scalar_hom,
    standard_ppav,
    structure_homs,
)

CONVENTIONS = {
    "pairing_class_sign": (
        "+1 on every originally constructed factor; dualizing a factor "
        "flips its recorded sign"
    ),
    "orientation": "integrate(theta^g / g!) = product of the polarization divisors",
    "dual_complex_structure": (
        "the sign of +-J^T chosen so the pairing class is a Hodge class "
        "(-J^T for all shipped models)"
    ),
    "polarization_isogeny": "matrix E on homology, pinned by (id, lambda)^* ell = 2 theta",
    "top_power_normalization": (
        "integrate(ell^{2g}) = (-1)^g (2g)!; a displayed-positive "
        "normalization of the top self-pairing differs by (-1)^g"
    ),
}


class CheckDescriptor(namedtuple("CheckDescriptor", "name statement params")):
    """``params`` is a sorted tuple of ``(key, value)`` pairs."""

    __slots__ = ()


class CheckResult(namedtuple("CheckResult", "descriptor status witness detail runtime_ms")):
    """``status`` is "pass", "fail" or "skipped"; ``witness`` a class or None."""

    __slots__ = ()


# --- individual checks -----------------------------------------------------


def _check_fourier_involution(A, seed):
    Ah = dual(A)
    g = A.genus
    for mask in range(1 << A.rank):
        x = Multivector(A.rank, {mask: 1})
        got = fourier(Ah, fourier(A, x))
        require_equal(got, x * ((-1) ** (g + mask.bit_count())), f"monomial mask {mask:#x}")


def _check_beauville_exp(A, seed):
    lhs = fourier(A, A.theta_class().cup_exponential())
    rhs = (-dual(A).theta_class()).cup_exponential()
    require_equal(lhs, rhs)


def _check_star_exp_of_R(A, seed):
    # The star checks take their star powers from both products: None is the
    # star functions' default, the fast pontryagin, which is the exchange law
    # itself, and pontryagin_reference is its m_* definition.
    g = A.genus
    X = product(A, dual(A)).variety
    R = named_class(A, "R")
    arg = R if g % 2 == 0 else -R
    ch = context(A).ch
    for star in (None, pontryagin_reference):
        rhs = star_exponential(X, arg, star)
        if g % 2:
            rhs = -rhs
        require_equal(ch, rhs)


def _check_claim_star(A, seed):
    g = A.genus
    Ah = dual(A)
    X = product(A, Ah).variety
    lhs = fourier(X, context(A).ch)
    rhs = (-poincare_class(Ah)).cup_exponential()
    if g % 2:
        rhs = -rhs
    require_equal(lhs, rhs)


def _check_eq35_minclass(A, seed):
    g = A.genus
    Ah = dual(A)
    Y = product(Ah, A).variety
    ell_hat = poincare_class(Ah)
    arg = ell_hat if (g + 1) % 2 == 0 else -ell_hat
    require_equal(fourier(Y, arg), named_class(A, "R"))


def _check_tau_equals_R(A, seed):
    g = A.genus
    R = named_class(A, "R")
    want = R if (g + 1) % 2 == 0 else -R
    require_equal(named_class(A, "tau"), want)


def _gaussian_hom(rng, h_src: int, h_tgt: int) -> list[list[int]]:
    """Random Gaussian-integer block matrix: holomorphic for the shipped J."""
    P = [[rng.randint(-3, 3) for _ in range(h_src)] for _ in range(h_tgt)]
    Q = [[rng.randint(-3, 3) for _ in range(h_src)] for _ in range(h_tgt)]
    return [P[i] + [-x for x in Q[i]] for i in range(h_tgt)] + [
        Q[i] + P[i] for i in range(h_tgt)
    ]


def _minor_bound(matrix) -> int:
    """Hadamard's bound on every minor of an int matrix, the empty one
    included: the product over the rows of ``ceil(|row|)``, 1 for a zero row.

    >>> _minor_bound(((3, 4), (0, 0), (1, 1)))
    10
    """
    bound = 1
    for row in matrix:
        norm2 = sum(e * e for e in row)
        if norm2:
            bound *= isqrt(norm2 - 1) + 1
    return bound


def _stacked_class(rank: int, matrix) -> Multivector:
    """``sum_S base^{i(S)} e_S`` over every mask S, with ``i(S)`` the index
    of S among the masks of its degree, in increasing mask order, and
    ``base = 4 H + 1`` for H the :func:`_minor_bound` of ``matrix``."""
    base = 4 * _minor_bound(matrix) + 1
    seen = [0] * (rank + 1)
    terms = {}
    for mask in range(1 << rank):
        k = mask.bit_count()
        terms[mask] = base ** seen[k]
        seen[k] += 1
    return Multivector(rank, terms)


def _monomials(rank: int):
    return ((f"mask {mask:#x}", Multivector(rank, {mask: 1})) for mask in range(1 << rank))


def _functoriality_laws(f, fhat, xs, ys) -> None:
    """Both laws of f: the pushforward law on each ``(name, class)`` of
    ``xs`` on its source, then the pullback law on each of ``ys`` on its
    target.  The first side that differs raises :class:`CheckFailure`."""
    X, Y = f.source, f.target
    dims = f"dims ({X.genus},{Y.genus})"
    for what, x in xs:
        lhs = fhat.pullback(fourier(X, x))
        rhs = fourier(Y, f.pushforward(x))
        require_equal(lhs, rhs, f"pushforward law, {dims}, {what}")
    for what, y in ys:
        lhs = fourier(X, f.pullback(y))
        rhs = fhat.pushforward(fourier(Y, y))
        if (X.genus - Y.genus) % 2:
            rhs = -rhs
        require_equal(lhs, rhs, f"pullback law, {dims}, {what}")


def _check_functoriality(A, seed):
    # Each law is checked on one stacked class per side, which is exact:
    # both sides are linear, the image of a monomial under either side has
    # +-minors of f as coefficients, each at most H = _minor_bound(f) in
    # absolute value, and each law sends input degree j to one output
    # degree.  So an output coefficient of lhs - rhs on the stacked class is
    # sum_S base^{i(S)} d_S over the masks S of one degree, every digit
    # |d_S| <= 2H < base = 4H + 1, and it is 0 only when every d_S is.  On a
    # mismatch the monomials are run for the failing mask and its witness.
    rng = random.Random(seed)
    for _ in range(20):
        h1 = rng.randint(1, A.genus)
        h2 = rng.randint(1, A.genus)
        X, Y = standard_ppav(h1), standard_ppav(h2)
        f = Homomorphism(X, Y, _gaussian_hom(rng, h1, h2))
        fhat = f.dual_hom()
        stacked = "the stacked class"
        try:
            _functoriality_laws(
                f,
                fhat,
                [(stacked, _stacked_class(X.rank, f.matrix))],
                [(stacked, _stacked_class(Y.rank, f.matrix))],
            )
        except CheckFailure:
            _functoriality_laws(f, fhat, _monomials(X.rank), _monomials(Y.rank))
            # every monomial passed, so a side is not linear
            raise


def _random_even_class(rng, rank: int) -> Multivector:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        k = rng.choice(range(0, rank + 1, 2))
        mask = sum(1 << i for i in rng.sample(range(rank), k))
        terms[mask] = terms.get(mask, 0) + rng.randint(-3, 3)
    return Multivector(rank, terms)


def _check_product_exchange(A, seed):
    # Both laws take the product from its m_* definition: with the fast
    # pontryagin, which is the exchange law itself, the second law would
    # only restate fourier_involution.
    rng = random.Random(seed)
    for _ in range(50):
        g = rng.randint(1, A.genus)
        X = standard_ppav(g)
        Xh = dual(X)
        x = _random_even_class(rng, X.rank)
        y = _random_even_class(rng, X.rank)
        lhs = fourier(X, x.wedge(y))
        rhs = pontryagin_reference(Xh, fourier(X, x), fourier(X, y))
        if g % 2:
            rhs = -rhs
        require_equal(lhs, rhs, f"cup-to-star law at genus {g}")
        lhs = fourier(X, pontryagin_reference(X, x, y))
        rhs = fourier(X, x).wedge(fourier(X, y))
        require_equal(lhs, rhs, f"star-to-cup law at genus {g}")


def _check_theta_divided(A, seed):
    # theta^i / i! against gamma^{*(g-i)} / (g-i)!, each star power of gamma
    # one product from the last, so g products per star
    g = A.genus
    theta = A.theta_class()
    lhs = [theta.wedge_power_divided(i) for i in range(g + 1)]
    gamma = named_class(A, "gamma_theta")
    for star in (pontryagin, pontryagin_reference):
        powers = [A.point_class()]
        for _ in range(g):
            powers.append(star(A, powers[-1], gamma))
        for i in range(g + 1):
            rhs = powers[g - i].divide_exact(factorial(g - i))
            require_equal(lhs[i], rhs, f"exponent i={i}")


def _four_fold_maps(A, B):
    """The two block-pair projections of ``(A x B) x (A x B)^``.

    Returns the 4-fold product structure together with the projections
    ``p13`` onto ``A x A^`` (blocks 1, 3) and ``p24`` onto ``B x B^``
    (blocks 2, 4).  Each sends its target's generators, in order, to
    increasing generators of the 4-fold, so its pullback relabels
    monomials without a sign.
    """
    X = product(A, B)
    XP = product(X.variety, dual(X.variety))
    nA, n = A.rank, X.variety.rank
    n4 = 2 * n

    def projection(target, columns):
        rows = tuple(tuple(1 if j == c else 0 for j in range(n4)) for c in columns)
        return Homomorphism._trusted(XP.variety, target, rows)

    p13 = projection(product(A, dual(A)).variety, [*range(nA), *range(n, n + nA)])
    p24 = projection(product(B, dual(B)).variety, [*range(nA, n), *range(n + nA, n4)])
    return XP, p13, p24


def _check_kunneth_R(A, seed):
    # R_X = ell_X^{4g-1}/(4g-1)! for X = A x A^, on the 4-fold, against each
    # factor's minimal class paired with the other factor's point class
    g = A.genus
    Ahat = dual(A)
    XP, p13, p24 = _four_fold_maps(A, Ahat)
    lhs = poincare_class(XP.factors[0]).wedge_power_divided(4 * g - 1)
    R_A = p13.pullback(named_class(A, "R"))
    R_hat = p24.pullback(named_class(Ahat, "R"))
    pt_13 = p13.pullback(p13.target.point_class())
    pt_24 = p24.pullback(p24.target.point_class())
    rhs = R_A.wedge(pt_24) + pt_13.wedge(R_hat)
    if g % 2:
        rhs = -rhs
    require_equal(lhs, rhs)
    return "compared after inserting the recorded (-1)^g normalization sign"


def _check_sigma_triple_sum(A, seed):
    sh = structure_homs(A)
    theta = A.theta_class()
    ell_ident = (
        sh.m.pullback(theta)
        - sh.square.pull_first(theta)
        - sh.square.pull_second(theta)
    )
    require_equal(ell_ident.wedge_power_divided(2 * A.genus - 2), theta_triple_sum(A))


def _beta_certificate(A, gens) -> None:
    """Require the curve classes ``gens``, beta(D) over a divisor basis, to
    span the curve-class lattice.

    A generator outside the Hodge lattice fails witnessed by that
    generator, a nontrivial cokernel witnessed by the first basis class of
    the curve-class lattice outside their span.  Each check words its own
    pass note.
    """
    k = A.genus - 1
    try:
        cok = voisin_certificate(A, k, gens)
    except NotHodge as nh:
        raise CheckFailure(f"generator {nh.index} is not a Hodge class", gens[nh.index])
    if not cok.is_trivial:
        raise CheckFailure(
            f"cokernel invariants {cok.divisors}, free rank {cok.free_rank}",
            first_outside(A, k, gens, cok),
        )


def _check_beta_surjectivity(A, seed):
    # beta_from_divisor is the closed form lambda^* F(D); it is compared with
    # the triple sum that defines it on theta and on every divisor basis class
    g = A.genus
    theta = A.theta_class()
    beta_theta = beta_from_divisor(A, theta)
    basis = hodge_lattice(A, 1).basis_classes()
    gens = [beta_from_divisor(A, D) for D in basis]
    named = [("theta", theta, beta_theta)]
    named += [
        (f"divisor basis class {i}", D, beta) for i, (D, beta) in enumerate(zip(basis, gens))
    ]
    for what, D, fast in named:
        ref = beta_from_divisor_reference(A, D)
        require_equal(fast, ref, f"beta({what}) differs from the triple sum")
    gamma = named_class(A, "gamma_theta")
    want = gamma if (g - 1) % 2 == 0 else -gamma
    require_equal(beta_theta, want, "beta(theta) has the wrong sign against the minimal class")
    _beta_certificate(A, gens)
    return f"{len(basis)} divisor classes generate the curve-class lattice"


def _check_divided_square(A, seed):
    g = A.genus
    X = product(A, dual(A)).variety
    R = named_class(A, "R")
    sigma = named_class(A, "sigma")
    for star in (None, pontryagin_reference):
        sq = star_divided_power(X, R, 2, star)
        if g % 2:
            sq = -sq
        require_equal(sigma, sq)


def _check_lemma51_diagram(A, seed):
    # The suite's differential check of the closed-form transform: every
    # comparison has the correspondence on one side.
    Ah = dual(A)
    pair_hat = product(Ah, dual(Ah))
    sigma_hat = named_class(Ah, "sigma")
    for mask in (sum(1 << i for i in c) for c in combinations(range(Ah.rank), 2)):
        x = Multivector(Ah.rank, {mask: 1})
        via_sigma = correspondence_action(pair_hat, sigma_hat, x)
        require_equal(via_sigma, fourier(Ah, x), f"degree-2 monomial {mask:#x}")
    for mask in range(1 << A.rank):
        x = Multivector(A.rank, {mask: 1})
        via_ch = fourier_reference(A, x)
        require_equal(via_ch, fourier(A, x), f"full correspondence at mask {mask:#x}")


def _prop45_pushforward(A, B) -> Multivector:
    """Prop. 4.5 for ``X = A x B`` of dimension h: ``ell_X^{2h-1}/(2h-1)!``
    splits into the two cross terms of the factor pairing classes, on the
    4-fold ``X x X^``, and its pushforward to ``A x A^`` is
    ``(-1)^{g_B} mu^{2g_A - 1}/(2g_A - 1)!``.  Returns that pushforward."""
    gA, gB = A.genus, B.genus
    dims = f"dims ({gA},{gB})"
    h = gA + gB
    XP, p13, p24 = _four_fold_maps(A, B)
    R_X = poincare_class(XP.factors[0]).wedge_power_divided(2 * h - 1)

    mu = poincare_class(A)
    nu = poincare_class(B)
    term1 = p13.pullback(mu.wedge_power_divided(2 * gA - 1)).wedge(
        p24.pullback(nu.wedge_power_divided(2 * gB))
    )
    term2 = p13.pullback(mu.wedge_power_divided(2 * gA)).wedge(
        p24.pullback(nu.wedge_power_divided(2 * gB - 1))
    )
    require_equal(R_X, term1 + term2, f"two-term split failed at {dims}")

    pushed = p13.pushforward(R_X)
    expected = mu.wedge_power_divided(2 * gA - 1)
    if gB % 2:
        expected = -expected
    require_equal(pushed, expected, f"pushforward identity failed at {dims}")
    return pushed


def _check_prop45_pushforward(A, seed):
    # genus h splits as the product of E_i^{h-1} and one elliptic curve
    gA = A.genus - 1
    if gA < 1:
        raise UnsupportedParams("needs two factors, so genus at least 2")
    _prop45_pushforward(standard_ppav(gA), standard_ppav(1))


def _check_isogeny_degree(X, seed):
    g = X.genus
    rng = random.Random(seed)
    for _ in range(10):
        while True:
            M = _gaussian_hom(rng, g, g)
            if intlinalg.det_bareiss(M) != 0:
                break
        alpha = Homomorphism(X, X, M)
        m = alpha.degree()
        try:
            B = intlinalg.scaled_inverse(M, m)
        except ValueError as exc:
            # a wrong degree leaves m alpha^{-1} non-integral: no beta exists
            raise CheckFailure(f"no beta with beta . alpha = [{m}]: {exc}", X.fundamental_class())
        beta = Homomorphism(X, X, B)
        comp = beta.compose(alpha)
        dual_comp = alpha.dual_hom().compose(beta.dual_hom())
        if comp.matrix != scalar_hom(X, m).matrix:
            raise CheckFailure(f"beta . alpha != [{m}]", X.fundamental_class())
        if alpha.degree() * beta.degree() != m ** (2 * g):
            raise CheckFailure(
                f"deg(alpha) deg(beta) = {alpha.degree() * beta.degree()} != {m}^{2 * g}",
                X.fundamental_class(),
            )
        if dual_comp.matrix != scalar_hom(dual(X), m).matrix:
            raise CheckFailure(f"dual(alpha) . dual(beta) != [{m}]", X.fundamental_class())


def _check_hodge_fourier_unimodular(A, seed):
    # a failure is witnessed by the first basis class of the dual's lattice
    # outside the span of the transforms; a rank mismatch whose cokernel is
    # trivial, by the transform of the first basis class
    for i in range(A.genus + 1):
        fm = fourier_hodge_matrix(A, i)
        if not fm.unimodular:
            witness = fm.outside or fourier(A, hodge_lattice(A, i).basis_classes()[0])
            if fm.source_rank != fm.target_rank:
                what = f"rank mismatch {fm.source_rank} -> {fm.target_rank}"
            else:
                what = "transform matrix not unimodular"
            cok = fm.cokernel
            detail = f"cokernel invariants {cok.divisors}, free rank {cok.free_rank}"
            raise CheckFailure(f"{what} at half-degree {i}: {detail}", witness)


def _check_ihc_certificate(A, seed):
    g = A.genus
    lat2 = hodge_lattice(A, 1)
    if lat2.rank != g * g:
        raise CheckFailure(f"divisor lattice rank {lat2.rank} != {g * g}", A.theta_class())
    _beta_certificate(A, [beta_from_divisor(A, D) for D in lat2.basis_classes()])
    return f"rank {lat2.rank} divisor lattice, trivial cokernel in degree {2 * g - 2}"


def _check_poincare_normalization(A, seed):
    g = A.genus
    X = product(A, dual(A)).variety
    value = X.integrate(poincare_class(A).wedge_power(2 * g))
    expected = (-1) ** g * factorial(2 * g)
    if value != expected:
        diff = Multivector(X.rank, {(1 << X.rank) - 1: value - expected})
        raise CheckFailure(f"integrate(ell^{2 * g}) = {value}, expected {expected}", diff)
    return (
        f"integrate(ell^{2 * g}) = (-1)^{g} ({2 * g})! = {expected}; a "
        "displayed-positive top normalization differs by (-1)^g"
    )


def _check_ell_integrality(A, seed):
    # wedge_power_divided builds ell^k/k! with no division, so it would
    # be integral by construction: the check divides the product itself,
    # each power one product from the last
    ell = poincare_class(A)
    power = Multivector.unit(ell.rank)
    for k in range(2 * A.genus + 1):
        try:
            power.divide_exact(factorial(k))
        except NonDivisible as nd:
            raise CheckFailure(f"ell^{k}/{k}! is not integral: {nd}", nd.witness)
        power = power.wedge(ell)


def _genera(lo: int, hi: int) -> tuple[dict, ...]:
    return tuple({"genus": g} for g in range(lo, hi + 1))


class _CheckSpec(
    namedtuple(
        "_CheckSpec",
        "fn statement ceiling principal own_models randomized grid",
        defaults=(None, False, False, None),
    )
):
    """One check and how the runner and the default grids treat it.

    ``fn(A, seed)`` returns its pass note, a str or None; ``A`` is the
    injected variety, or else ``standard_ppav(genus)``.  It fails only
    by raising :class:`CheckFailure` and skips by raising
    :class:`UnsupportedParams`.  ``ceiling`` is the largest genus run at desk scale;
    ``principal`` the reason given when the polarization is not
    principal; ``own_models`` marks a check that builds further
    standard_ppav models from the genus of its ``A``, so refuses an
    injected variety; ``randomized`` one that takes the suite seed (one
    --genus beyond the ceiling runs at the ceiling); ``grid`` holds the
    default-grid entries, and None runs genus 1 to the ceiling.
    """

    __slots__ = ()


REGISTRY: dict[str, _CheckSpec] = {
    "beauville_exp": _CheckSpec(
        _check_beauville_exp,
        "F(exp(theta)) = exp(-theta_dual) for principal theta",
        ceiling=5,
        principal="the exponential identity needs a principal polarization",
    ),
    "fourier_involution": _CheckSpec(
        _check_fourier_involution,
        "F_dual . F = (-1)^g [-1]^* on every basis monomial",
        ceiling=4,
        grid=_genera(1, 3) + ({"variety": elliptic_product((1, 2))},),
    ),
    "star_exp_of_R": _CheckSpec(
        _check_star_exp_of_R,
        "exp(ell) = (-1)^g E_star((-1)^g R) on A x A^",
        ceiling=3,
    ),
    "claim_star": _CheckSpec(
        _check_claim_star,
        "F_{A x A^}(exp(ell)) = (-1)^g exp(-ell_dual)",
        ceiling=3,
    ),
    "eq35_minclass": _CheckSpec(
        _check_eq35_minclass,
        "F_{A^ x A}((-1)^{g+1} ell_dual) = ell^{2g-1}/(2g-1)!",
        ceiling=4,
    ),
    "tau_equals_R": _CheckSpec(
        _check_tau_equals_R,
        "j1_* gamma + j2_* gamma_dual - graph(lambda)_* gamma = (-1)^{g+1} R",
        ceiling=4,
        principal="the three-term spread needs a principal polarization",
    ),
    "functoriality": _CheckSpec(
        _check_functoriality,
        "dual(f)^* . F = F . f_* and F . f^* = (-1)^{dim X - dim Y} dual(f)_* . F",
        ceiling=3,
        own_models=True,
        randomized=True,
        grid=({"genus": 3},),
    ),
    "product_exchange": _CheckSpec(
        _check_product_exchange,
        "F(x . y) = (-1)^g F(x) * F(y) and F(x * y) = F(x) . F(y)",
        ceiling=3,
        own_models=True,
        randomized=True,
        grid=({"genus": 3},),
    ),
    "theta_divided": _CheckSpec(
        _check_theta_divided,
        "theta^i/i! = gamma_theta^{*(g-i)}/(g-i)! for 0 <= i <= g",
        ceiling=5,
        principal="divided powers of theta need a principal polarization",
    ),
    "kunneth_R": _CheckSpec(
        _check_kunneth_R,
        "R of A x A^ splits into factor minimal classes against point classes",
        ceiling=3,
    ),
    "sigma_triple_sum": _CheckSpec(
        _check_sigma_triple_sum,
        "ell^{2g-2}/(2g-2)! equals the signed triple sum of theta divided powers",
        ceiling=4,
        principal="the triple sum needs a principal polarization",
    ),
    "divided_square": _CheckSpec(
        _check_divided_square,
        "ell^{2g-2}/(2g-2)! = (-1)^g R^{*2}/2!",
        ceiling=4,
    ),
    "beta_surjectivity": _CheckSpec(
        _check_beta_surjectivity,
        "divisor-to-curve classes over a divisor basis generate the curve-class lattice",
        ceiling=3,
        principal="the divisor-to-curve formula needs a principal polarization",
    ),
    "lemma51_diagram": _CheckSpec(
        _check_lemma51_diagram,
        "correspondence action of sigma on degree 2 agrees with the transform",
        ceiling=3,
    ),
    "prop45_pushforward": _CheckSpec(
        _check_prop45_pushforward,
        "the product minimal class splits and pushes to (-1)^{g_B} mu^{2g_A-1}/(2g_A-1)!",
        ceiling=3,
        own_models=True,
        grid=_genera(2, 3),
    ),
    "isogeny_degree": _CheckSpec(
        _check_isogeny_degree,
        "beta . alpha = [m] with deg(alpha) deg(beta) = m^{2h}, dually as well",
        ceiling=3,
        own_models=True,
        randomized=True,
        grid=({"genus": 2},),
    ),
    "hodge_fourier_unimodular": _CheckSpec(
        _check_hodge_fourier_unimodular,
        "the transform maps each Hodge lattice isomorphically with unimodular matrix",
        ceiling=3,
    ),
    "ihc_certificate_elliptic_products": _CheckSpec(
        _check_ihc_certificate,
        "divisor-to-curve classes span the full degree 2g-2 Hodge lattice (trivial cokernel)",
        ceiling=3,
        own_models=True,
        grid=_genera(2, 3),
    ),
    "poincare_normalization": _CheckSpec(
        _check_poincare_normalization,
        "integrate(ell^{2g}) = (-1)^g (2g)!",
        ceiling=4,
    ),
    "ell_integrality": _CheckSpec(
        _check_ell_integrality,
        "ell^k/k! is integral for every k <= 2g",
        ceiling=4,
    ),
}


# the parameters a check takes and the type each must have
_PARAM_TYPES = {"genus": int, "seed": int, "variety": AbelianVariety}


def _descriptor(name: str, params: dict) -> CheckDescriptor:
    """What a result records; an injected variety shows as its genus and name.

    An unknown or mistyped parameter (a bool is not an int) is a ``TypeError``.
    """
    if name not in REGISTRY:
        raise UnknownCheck(name)
    for key, val in params.items():
        kind = _PARAM_TYPES.get(key)
        if kind is None:
            raise TypeError(f"run_check() got an unexpected keyword argument {key!r}")
        if not isinstance(val, kind) or isinstance(val, bool):
            raise TypeError(f"check parameter {key} must be {kind.__name__}, got {val!r}")
    shown = dict(params)
    injected = shown.pop("variety", None)
    if injected is not None:
        shown.update(genus=injected.genus, variety=injected.name)
    return CheckDescriptor(name, REGISTRY[name].statement, tuple(sorted(shown.items())))


def run_check(name: str, **params) -> CheckResult:
    """Run one registered check; deterministic for fixed parameters.

    The parameters are ``genus`` (default 1), the standard model
    ``E_i^genus``; ``variety``, any model, whose genus and name the
    descriptor records and which replaces the standard one; and ``seed``
    (default 0), read by the randomized checks.  The spec is enforced in
    this order: the budget, the variety, the principal hypothesis, then
    the check body.  A hypothesis that does not hold, there or in the
    body, raises :class:`UnsupportedParams` (or its subclass
    :class:`NoComplexStructure`) and the check is ``skipped`` with the
    reason.  A mathematical failure (two sides that differ, an inexact
    division, a transform image outside the Hodge lattice, a star series
    that does not terminate) raises a :class:`CheckFailure` and is a
    ``fail`` carrying the class that witnesses it; that is the only way a
    check fails.  Otherwise the check passes with the note its body
    returns.  An unknown name, an unknown or mistyped parameter and a
    non-positive genus are input errors and raise, as does a body that
    returns anything but a str or None (a ``TypeError``).
    """
    descriptor = _descriptor(name, params)
    spec = REGISTRY[name]
    genus = dict(descriptor.params).get("genus", 1)
    status, witness = "pass", None
    start = time.perf_counter()
    try:
        if genus > spec.ceiling:
            raise UnsupportedParams(
                f"genus {genus} beyond the desk-scale ceiling {spec.ceiling} (budget)"
            )
        A = params.get("variety")
        if A is None:
            # a non-positive genus is an input error, which standard_ppav raises
            A = standard_ppav(genus)
        elif spec.own_models:
            raise UnsupportedParams(
                "the check builds its own principal models and takes no variety or type"
            )
        if spec.principal and not A.is_principal:
            raise UnsupportedParams(spec.principal)
        detail = spec.fn(A, params.get("seed", 0))
        if detail is not None and not isinstance(detail, str):
            raise TypeError(f"check {name} returned {detail!r}, not a pass note")
    except UnsupportedParams as exc:
        status, detail = "skipped", str(exc)
    except CheckFailure as exc:
        status, witness, detail = "fail", exc.witness, str(exc)
    runtime_ms = int((time.perf_counter() - start) * 1000)
    return CheckResult(
        descriptor=descriptor,
        status=status,
        witness=witness,
        detail=detail,
        runtime_ms=runtime_ms,
    )


def default_suite(genus: int | None = None, seed: int = 0):
    """Parameter grid for a full run, derived from the check specs.

    Each entry holds the :func:`run_check` parameters ``genus`` or
    ``variety``, and ``seed`` for a randomized check.  With ``genus``
    given, every check runs once at that genus (a randomized check at
    most at its ceiling); otherwise each check runs over its default grid.
    """
    grid = []
    for name, spec in REGISTRY.items():
        if genus is None:
            entries = spec.grid or _genera(1, spec.ceiling)
        else:
            entries = ({"genus": min(genus, spec.ceiling) if spec.randomized else genus},)
        for params in entries:
            grid.append((name, dict(params, seed=seed) if spec.randomized else dict(params)))
    return grid


def result_order(result: CheckResult) -> tuple[str, str]:
    """The sort key of a report's results: check name, then parameters."""
    return result.descriptor.name, repr(result.descriptor.params)


def run_suite(grid) -> list[CheckResult]:
    """Run a grid of (name, params) pairs; results sorted by :func:`result_order`."""
    results = [run_check(name, **params) for name, params in grid]
    results.sort(key=result_order)
    return results
