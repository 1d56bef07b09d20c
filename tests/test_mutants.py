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
        "6d8f9dba26b8a633ac06161c87e0bae4f2f3ab058e1c323941e9cfefa38ab2e8",
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
        "9e0fdf7239920e0f1ca8a0b9e5477cf6eab9e6aa82c479de7b0f696ab9fcffe3",
    ),
    "beta-negated": (
        patched(suite, "beta_from_divisor", lambda x: -x),
        ("beta_surjectivity",),
        "1758ce75a33b5f5c108877804edd00fe67de20d8f4049bc29417b2cf69ab2e79",
    ),
    "pontryagin-reference-doubled": (
        patched(suite, "pontryagin_reference", lambda x: x * 2),
        ("divided_square", "product_exchange", "star_exp_of_R", "theta_divided"),
        "211e8f744f7d0e52f0fdb5a20847622835417f2a817652f8867e3dc018d313fc",
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
        "fc6b9860572e29a15786560f35a51978c2dbb31f7319136a373be32a37445440",
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
        "d80233ed8b4bfa5ba11a27c222dbd20b710e26f30a270fb6b871a7c576d56e3b",
    ),
    "pullback-negated": (
        patched(Homomorphism, "pullback", lambda x: -x),
        ("beta_surjectivity", "functoriality", "sigma_triple_sum"),
        "4c726a9c80aef24bcb1b3f2eed9deb5dc0ff6b8d508fb899b105e412db1198ef",
    ),
    "hodge-fourier-doubled": (
        patched(hodge, "fourier", lambda x: x * 2),
        ("hodge_fourier_unimodular",),
        "91642c79c20e1c554f6cf7f88009aca57214fd1db3febd52aa8ba350e731bc9e",
    ),
    # a doubled degree still leaves m alpha^{-1} integral, so beta . alpha
    # != [m] fails; an off-by-one one leaves it non-integral, which
    # aborted the run before the check turned it into a failure
    "degree-doubled": (
        patched(Homomorphism, "degree", lambda d: d * 2),
        ("isogeny_degree",),
        "d70ba5f80fb332810ebb3d81715ee89c3eec4afe3f68ec8401a36ebd84366d42",
    ),
    "degree-off-by-one": (
        patched(Homomorphism, "degree", lambda d: d + 1),
        ("isogeny_degree",),
        "30e5477ba1abd761acc831af3708cb5351e8fe1f0b6d700fea39f373cc0ac833",
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
