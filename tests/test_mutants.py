"""Failure paths of the suite, pinned: a table of mutants of the calculus.

The default report digest pins only passes.  Each mutant here patches one
primitive the checks rest on, runs ``default_suite(genus=2)`` from cold
caches, and pins the checks that fail and the sha256 of the stripped JSON
report, so every witness and detail string of those failures is pinned
as well.
"""

import hashlib
import sys

import pytest

import abelian_fourier
import abelian_fourier.hodge as hodge
import abelian_fourier.suite as suite
import abelian_fourier.varieties as varieties
from abelian_fourier.exterior import Multivector
from abelian_fourier.report import ReportDocument, emit_report, strip_runtimes
from abelian_fourier.suite import default_suite, run_suite
from abelian_fourier.varieties import Homomorphism

# the exported `fourier` function shadows the submodule attribute
fourier_module = sys.modules["abelian_fourier.fourier"]


def patched(owner, name, change):
    """A mutant that applies ``change`` to the output of ``owner.name``."""

    def apply(monkeypatch):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: change(original(*args)))

    return apply


def patched_fourier(change):
    """A mutant of the transform wherever a module looks it up by name."""

    def apply(monkeypatch):
        original = fourier_module.fourier
        for module in (fourier_module, suite, hodge):
            monkeypatch.setattr(module, "fourier", lambda A, x: change(original(A, x)))

    return apply


def negate_odd(x):
    return Multivector(x.rank, {m: -c if m.bit_count() & 1 else c for m, c in x.items()})


def drop_top(x):
    return Multivector(x.rank, {m: c for m, c in x.items() if m.bit_count() < x.rank})


# mutant -> (patch, checks that fail, sha256 of the stripped report)
MUTANTS = {
    "fourier-odd-negated": (
        patched_fourier(negate_odd),
        ("lemma51_diagram",),
        "7e5da723397be211b0aa1bdb33a96e1c33ec5f6ecea953a5639553482528b31e",
    ),
    "fourier-top-dropped": (
        patched_fourier(drop_top),
        (
            "beauville_exp",
            "claim_star",
            "fourier_involution",
            "functoriality",
            "hodge_fourier_unimodular",
            "lemma51_diagram",
            "product_exchange",
        ),
        "77720ed1eccf9843a910e24d143dba85cb442b0fa6352b966575907deb455a1d",
    ),
    "beta-negated": (
        patched(suite, "beta_from_divisor", lambda x: -x),
        ("beta_surjectivity",),
        "aa370b87a90b4f7c901c2df27c6647d6cd764250f4ce070b218a4b1218130427",
    ),
    "pontryagin-reference-doubled": (
        patched(suite, "pontryagin_reference", lambda x: x * 2),
        ("divided_square", "product_exchange", "star_exp_of_R", "theta_divided"),
        "3321bcc02ae83469f9f6a69be2308e0d6fa553acf06853dbed0ae7718cdb38b9",
    ),
    "theta-orientation-flipped": (
        patched(varieties, "_theta_orientation", lambda o: -o),
        (
            "beauville_exp",
            "beta_surjectivity",
            "claim_star",
            "divided_square",
            "eq35_minclass",
            "kunneth_R",
            "poincare_normalization",
            "product_exchange",
            "star_exp_of_R",
            "theta_divided",
        ),
        "6010747506a70be3463ad8229f4e2c3a5c200fa4e9199cdd27ec2d5dc2f41667",
    ),
    "pushforward-negated": (
        patched(Homomorphism, "pushforward", lambda x: -x),
        (
            "functoriality",
            "product_exchange",
            "prop45_pushforward",
            "star_exp_of_R",
            "tau_equals_R",
            "theta_divided",
        ),
        "5f114077e9318c0460f3fccdc92825590cd02fc187cb1fe875ee17731ebd9f01",
    ),
    "pullback-negated": (
        patched(Homomorphism, "pullback", lambda x: -x),
        ("beta_surjectivity", "functoriality", "sigma_triple_sum"),
        "2a1bdfcd3263df955ad8fa232e25e0895047f3043c5437bb30b13c00c21ab19c",
    ),
    "hodge-fourier-doubled": (
        patched(hodge, "fourier", lambda x: x * 2),
        ("hodge_fourier_unimodular",),
        "063a7ecc240eb1e92d0a91316abacd8b92208205676b39f2d67391bf479b1fe4",
    ),
    # a doubled degree still leaves m alpha^{-1} integral, so beta . alpha
    # != [m] fails; an off-by-one one leaves it non-integral, which
    # aborted the run before the check turned it into a failure
    "degree-doubled": (
        patched(Homomorphism, "degree", lambda d: d * 2),
        ("isogeny_degree",),
        "b003b7d4401245b2506953ff8dfde7b2bce6728fc3fcb29a1efb6a7e5a67535f",
    ),
    "degree-off-by-one": (
        patched(Homomorphism, "degree", lambda d: d + 1),
        ("isogeny_degree",),
        "c38215e15901edaf1d1cea1b18b02b3420a63d9d7ff91dc7bad352f1f0f719c0",
    ),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_a_mutant_fails_the_pinned_checks_with_the_pinned_report(monkeypatch, mutant):
    mutate, failing, digest = MUTANTS[mutant]
    abelian_fourier.clear_caches()
    mutate(monkeypatch)
    try:
        results = run_suite(default_suite(genus=2))
    finally:
        monkeypatch.undo()
        abelian_fourier.clear_caches()
    assert tuple(r.descriptor.name for r in results if r.status == "fail") == failing
    # a failure names a class: never None, never zero
    fails = [r for r in results if r.status == "fail"]
    assert all(r.witness is not None and not r.witness.is_zero() for r in fails)
    stripped = emit_report(strip_runtimes(ReportDocument.from_results(results)))
    assert hashlib.sha256(stripped.encode("utf-8")).hexdigest() == digest
