"""Named executable checks over the operator calculus, with witnesses.

Every check evaluates one exact identity (or lattice certificate) on
concretely constructed varieties and reports pass/fail together with a
witness class on failure.  Checks are pure and deterministic: randomized
ones derive all choices from an explicit seed that is recorded in the
result parameters.

Each check is described by data, its :class:`_CheckSpec`: a desk-scale
genus ceiling, whether it needs a principal polarization, whether it
builds its own ``standard_ppav`` models and its default-grid entries.
:func:`run_check` enforces these fields in one place and
:func:`default_suite` derives both grids from them.  Beyond its ceiling a
check reports status ``skipped`` with a budget note rather than running
unbounded work.  The ``poincare_normalization`` check is a sign audit: it
asserts the derived normalization ``integrate(ell^{2g}) = (-1)^g (2g)!``
and its result notes that a displayed-positive normalization of the top
self-pairing would differ by exactly ``(-1)^g``; the related Kunneth
split check inserts that recorded sign.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from itertools import combinations
from math import factorial

from . import intlinalg
from .errors import (
    CheckFailure,
    InvalidType,
    NonDivisible,
    NotHodge,
    UnknownCheck,
    UnsupportedParams,
)
from .exterior import Multivector
from .fourier import (
    beta_from_divisor,
    beta_from_divisor_reference,
    context,
    correspondence_action,
    fourier,
    fourier_reference,
    kunneth_R_decomposition,
    named_class,
    poincare_class,
    pontryagin_reference,
    prop45_pushforward_check,
    star_divided_power,
    star_exponential,
)
from .hodge import fourier_hodge_matrix, hodge_lattice, voisin_certificate
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


def _equal_or_witness(lhs: Multivector, rhs: Multivector):
    if lhs == rhs:
        return True, None, None
    return False, lhs - rhs, "left and right sides differ"


# --- individual checks -----------------------------------------------------


def _check_fourier_involution(A, params):
    Ah = dual(A)
    g = A.genus
    for mask in range(1 << A.rank):
        x = Multivector(A.rank, {mask: 1})
        got = fourier(Ah, fourier(A, x))
        want = x * ((-1) ** (g + mask.bit_count()))
        if got != want:
            return False, got - want, f"monomial mask {mask:#x}"
    return True, None, None


def _check_beauville_exp(A, params):
    lhs = fourier(A, A.theta_class().cup_exponential())
    rhs = (-dual(A).theta_class()).cup_exponential()
    return _equal_or_witness(lhs, rhs)


# Up to this genus the checks that rest on a closed form (the star checks
# and beta_surjectivity) also run its definition, so that they do not only
# test the closed form against itself; above it they rest on the closed form.
_REFERENCE_GENUS = 2


def _star_products(A):
    # The products the star checks take star powers from: None is the star
    # functions' default, the fast pontryagin, which is the exchange law
    # itself; the m_* definition is used as well up to _REFERENCE_GENUS.
    return (None, pontryagin_reference) if A.genus <= _REFERENCE_GENUS else (None,)


def _check_star_exp_of_R(A, params):
    g = A.genus
    X = product(A, dual(A)).variety
    R = named_class(A, "R")
    arg = R if g % 2 == 0 else -R
    ch = context(A).ch
    for star in _star_products(A):
        rhs = star_exponential(X, arg, star)
        if g % 2:
            rhs = -rhs
        if rhs != ch:
            return _equal_or_witness(ch, rhs)
    return True, None, None


def _check_claim_star(A, params):
    g = A.genus
    Ah = dual(A)
    X = product(A, Ah).variety
    lhs = fourier(X, context(A).ch)
    rhs = (-poincare_class(Ah)).cup_exponential()
    if g % 2:
        rhs = -rhs
    return _equal_or_witness(lhs, rhs)


def _check_eq35_minclass(A, params):
    g = A.genus
    Ah = dual(A)
    Y = product(Ah, A).variety
    ell_hat = poincare_class(Ah)
    arg = ell_hat if (g + 1) % 2 == 0 else -ell_hat
    return _equal_or_witness(fourier(Y, arg), named_class(A, "R"))


def _check_tau_equals_R(A, params):
    g = A.genus
    R = named_class(A, "R")
    want = R if (g + 1) % 2 == 0 else -R
    return _equal_or_witness(named_class(A, "tau"), want)


def _gaussian_hom(rng, h_src: int, h_tgt: int) -> list[list[int]]:
    """Random Gaussian-integer block matrix: holomorphic for the shipped J."""
    P = [[rng.randint(-3, 3) for _ in range(h_src)] for _ in range(h_tgt)]
    Q = [[rng.randint(-3, 3) for _ in range(h_src)] for _ in range(h_tgt)]
    return [P[i] + [-x for x in Q[i]] for i in range(h_tgt)] + [
        Q[i] + P[i] for i in range(h_tgt)
    ]


def _check_functoriality(_, params):
    gmax = int(params.get("genus", 3))
    count = int(params.get("count", 20))
    rng = random.Random(int(params.get("seed", 0)))
    for _ in range(count):
        h1 = rng.randint(1, gmax)
        h2 = rng.randint(1, gmax)
        X, Y = standard_ppav(h1), standard_ppav(h2)
        f = Homomorphism(X, Y, tuple(tuple(r) for r in _gaussian_hom(rng, h1, h2)), True)
        fhat = f.dual_hom()
        sign = (-1) ** (h1 - h2)
        for mask in range(1 << X.rank):
            x = Multivector(X.rank, {mask: 1})
            lhs = fhat.pullback(fourier(X, x))
            rhs = fourier(Y, f.pushforward(x))
            if lhs != rhs:
                return False, lhs - rhs, f"pushforward law, dims ({h1},{h2}), mask {mask:#x}"
        for mask in range(1 << Y.rank):
            y = Multivector(Y.rank, {mask: 1})
            lhs = fourier(X, f.pullback(y))
            rhs = fhat.pushforward(fourier(Y, y))
            if sign < 0:
                rhs = -rhs
            if lhs != rhs:
                return False, lhs - rhs, f"pullback law, dims ({h1},{h2}), mask {mask:#x}"
    return True, None, None


def _random_even_class(rng, rank: int, max_terms: int = 4) -> Multivector:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        k = rng.choice(range(0, rank + 1, 2))
        mask = sum(1 << i for i in rng.sample(range(rank), k))
        terms[mask] = terms.get(mask, 0) + rng.randint(-3, 3)
    return Multivector(rank, terms)


def _check_product_exchange(_, params):
    # Both laws take the product from its m_* definition: with the fast
    # pontryagin, which is the exchange law itself, the second law would
    # only restate fourier_involution.
    gmax = int(params.get("genus", 3))
    count = int(params.get("count", 50))
    rng = random.Random(int(params.get("seed", 0)))
    for _ in range(count):
        g = rng.randint(1, gmax)
        A = standard_ppav(g)
        Ah = dual(A)
        x = _random_even_class(rng, A.rank)
        y = _random_even_class(rng, A.rank)
        lhs = fourier(A, x.wedge(y))
        rhs = pontryagin_reference(Ah, fourier(A, x), fourier(A, y))
        if g % 2:
            rhs = -rhs
        if lhs != rhs:
            return False, lhs - rhs, f"cup-to-star law at genus {g}"
        lhs2 = fourier(A, pontryagin_reference(A, x, y))
        rhs2 = fourier(A, x).wedge(fourier(A, y))
        if lhs2 != rhs2:
            return False, lhs2 - rhs2, f"star-to-cup law at genus {g}"
    return True, None, None


def _check_theta_divided(A, params):
    g = A.genus
    theta = A.theta_class()
    gamma = named_class(A, "gamma_theta")
    for star in _star_products(A):
        for i in range(g + 1):
            lhs = theta.wedge_power_divided(i)
            rhs = star_divided_power(A, gamma, g - i, star)
            if lhs != rhs:
                return False, lhs - rhs, f"exponent i={i}"
    return True, None, None


def _check_kunneth_R(A, params):
    lhs, rhs = kunneth_R_decomposition(A)
    if A.genus % 2:
        rhs = -rhs
    ok, witness, detail = _equal_or_witness(lhs, rhs)
    note = "compared after inserting the recorded (-1)^g normalization sign"
    return ok, witness, detail or note


def _check_sigma_triple_sum(A, params):
    g = A.genus
    sh = structure_homs(A)
    theta = A.theta_class()
    ell_ident = (
        sh.m.pullback(theta)
        - sh.square.pull_first(theta)
        - sh.square.pull_second(theta)
    )
    lhs = ell_ident.wedge_power_divided(2 * g - 2)
    thp = [theta.wedge_power_divided(t) for t in range(g + 1)]
    rhs = Multivector.zero(sh.square.variety.rank)
    for i in range(g + 1):
        mi = sh.m.pullback(thp[i])
        for j in range(g + 1):
            k = 2 * g - 2 - i - j
            if not 0 <= k <= g:
                continue
            term = mi.wedge(sh.square.pull_first(thp[j])).wedge(sh.square.pull_second(thp[k]))
            rhs = rhs + (term if (j + k) % 2 == 0 else -term)
    return _equal_or_witness(lhs, rhs)


def _beta_certificate(A, lat2):
    """Whether beta(D) over the divisor basis ``lat2`` spans the
    curve-class lattice, as ``(ok, witness, detail)``.

    A generator outside the Hodge lattice is a ``fail`` witnessed by that
    generator, a nontrivial cokernel one witnessed by the first generator.
    A pass has no detail; each check words its own.
    """
    gens = [beta_from_divisor(A, D) for D in lat2.basis_classes()]
    try:
        cok = voisin_certificate(A, A.genus - 1, gens)
    except NotHodge as nh:
        return False, gens[nh.index], f"generator {nh.index} is not a Hodge class"
    if not cok.is_trivial:
        return False, gens[0], f"cokernel invariants {cok.divisors}, free rank {cok.free_rank}"
    return True, None, None


def _check_beta_surjectivity(A, params):
    # beta_from_divisor is the closed form lambda^* F(D); up to
    # _REFERENCE_GENUS it is compared with the triple sum that defines it
    g = A.genus
    lat2 = hodge_lattice(A, 1)
    if g <= _REFERENCE_GENUS:
        named = [("theta", A.theta_class())]
        named += [(f"divisor basis class {i}", D) for i, D in enumerate(lat2.basis_classes())]
        for what, D in named:
            fast, ref = beta_from_divisor(A, D), beta_from_divisor_reference(A, D)
            if fast != ref:
                return False, fast - ref, f"beta({what}) differs from the triple sum"
    gamma = named_class(A, "gamma_theta")
    beta_theta = beta_from_divisor(A, A.theta_class())
    want = gamma if (g - 1) % 2 == 0 else -gamma
    if beta_theta != want:
        return False, beta_theta - want, "beta(theta) has the wrong sign against the minimal class"
    ok, witness, detail = _beta_certificate(A, lat2)
    return ok, witness, detail or f"{lat2.rank} divisor classes generate the curve-class lattice"


def _check_divided_square(A, params):
    g = A.genus
    X = product(A, dual(A)).variety
    R = named_class(A, "R")
    sigma = named_class(A, "sigma")
    for star in _star_products(A):
        sq = star_divided_power(X, R, 2, star)
        if g % 2:
            sq = -sq
        if sq != sigma:
            return _equal_or_witness(sigma, sq)
    return True, None, None


def _check_lemma51_diagram(A, params):
    # The suite's differential check of the closed-form transform: every
    # comparison has the correspondence on one side.
    Ah = dual(A)
    ctx_hat = context(Ah)
    sigma_hat = named_class(Ah, "sigma")
    n = (2 * A.genus - 2)
    multiple = factorial(n) if n >= 0 else 1
    for mask in (sum(1 << i for i in c) for c in combinations(range(Ah.rank), 2)):
        x = Multivector(Ah.rank, {mask: 1})
        via_sigma = correspondence_action(ctx_hat.pair, sigma_hat, x)
        direct = fourier(Ah, x)
        if via_sigma != direct:
            return False, via_sigma - direct, f"degree-2 monomial {mask:#x}"
        scaled = correspondence_action(ctx_hat.pair, sigma_hat * multiple, x)
        if scaled != direct * multiple:
            return False, scaled - direct * multiple, f"integral multiple at mask {mask:#x}"
    for mask in range(1 << A.rank):
        x = Multivector(A.rank, {mask: 1})
        via_ch = fourier_reference(A, x)
        direct = fourier(A, x)
        if via_ch != direct:
            return False, via_ch - direct, f"full correspondence at mask {mask:#x}"
    return True, None, None


def _check_prop45_pushforward(_, params):
    pairs = params.get("pairs")
    if pairs is None:
        g = int(params.get("genus", 2))
        if g < 2:
            raise UnsupportedParams("needs two factors, so genus at least 2")
        pairs = [(g - 1, 1)]
    for gA, gB in pairs:
        A, B = standard_ppav(int(gA)), standard_ppav(int(gB))
        split_ok, push_ok, pushed, expected = prop45_pushforward_check(A, B)
        if not split_ok:
            return False, pushed, f"two-term split failed at dims ({gA},{gB})"
        if not push_ok:
            return False, pushed - expected, f"pushforward identity failed at dims ({gA},{gB})"
    return True, None, None


def _check_isogeny_degree(_, params):
    g = int(params.get("genus", 2))
    count = int(params.get("count", 10))
    rng = random.Random(int(params.get("seed", 0)))
    X = standard_ppav(g)
    for _ in range(count):
        while True:
            M = _gaussian_hom(rng, g, g)
            if intlinalg.det_bareiss(M) != 0:
                break
        alpha = Homomorphism(X, X, tuple(tuple(r) for r in M), True)
        m = alpha.degree()
        beta = Homomorphism(X, X, tuple(map(tuple, intlinalg.scaled_inverse(M, m))), True)
        comp = beta.compose(alpha)
        dual_comp = alpha.dual_hom().compose(beta.dual_hom())
        if comp.matrix != scalar_hom(X, m).matrix:
            return False, X.fundamental_class(), f"beta . alpha != [{m}]"
        if alpha.degree() * beta.degree() != m ** (2 * g):
            return (
                False,
                X.fundamental_class(),
                f"deg(alpha) deg(beta) = {alpha.degree() * beta.degree()} != {m}^{2 * g}",
            )
        if dual_comp.matrix != scalar_hom(dual(X), m).matrix:
            return False, X.fundamental_class(), f"dual(alpha) . dual(beta) != [{m}]"
    return True, None, None


def _check_hodge_fourier_unimodular(A, params):
    for i in range(A.genus + 1):
        fm = fourier_hodge_matrix(A, i)
        if fm.source_rank != fm.target_rank:
            return (
                False,
                A.fundamental_class(),
                f"rank mismatch {fm.source_rank} -> {fm.target_rank} at half-degree {i}",
            )
        if not fm.unimodular:
            return (
                False,
                A.fundamental_class(),
                f"transform matrix not unimodular at half-degree {i}",
            )
    return True, None, None


def _check_ihc_certificate(_, params):
    g = int(params.get("genus", 2))
    A = standard_ppav(g)
    lat2 = hodge_lattice(A, 1)
    if lat2.rank != g * g:
        return False, A.theta_class(), f"divisor lattice rank {lat2.rank} != {g * g}"
    ok, witness, detail = _beta_certificate(A, lat2)
    note = f"rank {lat2.rank} divisor lattice, trivial cokernel in degree {2 * g - 2}"
    return ok, witness, detail or note


def _check_poincare_normalization(A, params):
    g = A.genus
    X = product(A, dual(A)).variety
    value = X.integrate(poincare_class(A).wedge_power(2 * g))
    expected = (-1) ** g * factorial(2 * g)
    if value != expected:
        diff = Multivector(X.rank, {(1 << X.rank) - 1: value - expected})
        return False, diff, f"integrate(ell^{2 * g}) = {value}, expected {expected}"
    note = (
        f"integrate(ell^{2 * g}) = (-1)^{g} ({2 * g})! = {expected}; a "
        "displayed-positive top normalization differs by (-1)^g"
    )
    return True, None, note


def _check_ell_integrality(A, params):
    # wedge_power_divided builds ell^k/k! with no division, so it would
    # be integral by construction: the check divides the product itself
    ell = poincare_class(A)
    for k in range(2 * A.genus + 1):
        try:
            ell.wedge_power(k).divide_exact(factorial(k))
        except NonDivisible as nd:
            return False, nd.witness, f"ell^{k}/{k}! is not integral: {nd}"
    return True, None, None


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

    ``fn(A, params)`` returns ``(ok, witness, detail)``; ``A`` is the
    variety the parameters name, or None when ``own_models`` is set.  It
    may raise :class:`UnsupportedParams` to skip and a
    :class:`CheckFailure` to fail.  ``ceiling`` is the largest genus (for
    ``pairs``, total dimension) run at desk scale; ``principal`` the
    reason given when the polarization is not principal; ``own_models``
    marks a check that builds its own standard_ppav models, so takes no
    variety or type; ``randomized`` one that takes the suite seed (one
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
        grid=_genera(1, 3) + ({"genus": 2, "type": (1, 2)},),
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
        grid=({"genus": 3, "count": 20},),
    ),
    "product_exchange": _CheckSpec(
        _check_product_exchange,
        "F(x . y) = (-1)^g F(x) * F(y) and F(x * y) = F(x) . F(y)",
        ceiling=3,
        own_models=True,
        randomized=True,
        grid=({"genus": 3, "count": 50},),
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
        grid=({"pairs": ((1, 1), (2, 1))},),
    ),
    "isogeny_degree": _CheckSpec(
        _check_isogeny_degree,
        "beta . alpha = [m] with deg(alpha) deg(beta) = m^{2h}, dually as well",
        ceiling=3,
        own_models=True,
        randomized=True,
        grid=({"genus": 2, "count": 10},),
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
        "integrate(ell^{2g}) = (-1)^g (2g)! (sign audit, never a suite failure)",
        ceiling=4,
    ),
    "ell_integrality": _CheckSpec(
        _check_ell_integrality,
        "ell^k/k! is integral for every k <= 2g",
        ceiling=4,
    ),
}


def _canonical_params(params: dict) -> tuple[tuple[str, object], ...]:
    out = []
    for key in sorted(params):
        val = params[key]
        if isinstance(val, (list, tuple)):
            val = tuple(
                tuple(int(x) for x in v) if isinstance(v, (list, tuple)) else int(v)
                for v in val
            )
        out.append((key, val))
    return tuple(out)


def _descriptor(name: str, params: dict) -> CheckDescriptor:
    """What a result records; an injected variety shows as its genus and name."""
    if name not in REGISTRY:
        raise UnknownCheck(name)
    shown = dict(params)
    injected = shown.pop("variety", None)
    if injected is not None:
        shown.update(genus=injected.genus, variety=injected.name)
    return CheckDescriptor(name, REGISTRY[name].statement, _canonical_params(shown))


def _check_budget(spec: _CheckSpec, params: dict):
    pairs = params.get("pairs")
    if pairs is None:
        what, size = "genus", int(params.get("genus", 1))
    else:
        what, size = "total dimension", max((a + b for a, b in pairs), default=0)
    if size > spec.ceiling:
        raise UnsupportedParams(
            f"{what} {size} beyond the desk-scale ceiling {spec.ceiling} (budget)"
        )


def _variety(spec: _CheckSpec, injected, params) -> AbelianVariety | None:
    """The variety a check runs on; None for one that builds its own models."""
    if spec.own_models and (injected is not None or "type" in params):
        raise UnsupportedParams(
            "the check builds its own principal models and takes no variety or type"
        )
    if injected is not None:
        return injected
    g = int(params.get("genus", 1))
    if g < 1:
        # an input error, raised as standard_ppav raises it
        raise InvalidType(f"genus must be positive, got {g}")
    if spec.own_models:
        return None
    ptype = params.get("type")
    if ptype is None:
        return standard_ppav(g)
    ptype = tuple(int(d) for d in ptype)
    if len(ptype) != g:
        raise UnsupportedParams(f"type {ptype} has length {len(ptype)}, genus is {g}")
    return elliptic_product(ptype)


def run_check(name: str, **params) -> CheckResult:
    """Run one registered check; deterministic for fixed parameters.

    A concrete variety may be injected with ``variety=A``; its name and
    genus are recorded in the descriptor and the check runs on it instead
    of the built-in model.  The spec is enforced in this order: the
    budget, the variety, the principal hypothesis, then the check body.
    A hypothesis that does not hold, there or in the body, raises
    :class:`UnsupportedParams` (or its subclass
    :class:`NoComplexStructure`) and the check is ``skipped`` with the
    reason.  A mathematical failure (an inexact division, a transform
    image outside the Hodge lattice, a star series that does not
    terminate) raises a
    :class:`CheckFailure` and is a ``fail`` carrying the class that
    witnesses it.  An unknown name and a non-positive genus are input
    errors and raise.
    """
    descriptor = _descriptor(name, params)
    spec = REGISTRY[name]
    injected = params.pop("variety", None)
    start = time.perf_counter()
    try:
        _check_budget(spec, dict(descriptor.params))
        A = _variety(spec, injected, params)
        if spec.principal and not A.is_principal:
            raise UnsupportedParams(spec.principal)
        ok, witness, detail = spec.fn(A, params)
        status = "pass" if ok else "fail"
    except UnsupportedParams as exc:
        status, witness, detail = "skipped", None, str(exc)
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

    With ``genus`` given, every check runs once at that genus (a
    randomized check at most at its ceiling); otherwise each check runs
    over its default grid.  Randomized checks also take ``seed``.
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


def run_suite(grid) -> list[CheckResult]:
    """Run a grid of (name, params) pairs; results sorted deterministically."""
    results = [run_check(name, **params) for name, params in grid]
    results.sort(key=lambda r: (r.descriptor.name, repr(r.descriptor.params)))
    return results
