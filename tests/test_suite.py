"""Check registry and runner: statuses, witnesses, determinism."""

import signal

import pytest

import abelian_fourier
import abelian_fourier.suite as suite
from abelian_fourier.errors import (
    ImageNotInHodge,
    InvalidType,
    NoComplexStructure,
    NonDivisible,
    NonTerminatingSeries,
    UnknownCheck,
    UnsupportedParams,
)
from abelian_fourier.suite import REGISTRY, default_suite, run_check, run_suite
from abelian_fourier.exterior import Multivector
from abelian_fourier.fourier import kunneth_R_decomposition, poincare_class
from abelian_fourier.varieties import elliptic_product, make_variety, standard_ppav


def test_registry_size_and_names():
    assert len(REGISTRY) == 20
    expected = {
        "fourier_involution",
        "beauville_exp",
        "star_exp_of_R",
        "claim_star",
        "eq35_minclass",
        "tau_equals_R",
        "functoriality",
        "product_exchange",
        "theta_divided",
        "kunneth_R",
        "sigma_triple_sum",
        "beta_surjectivity",
        "divided_square",
        "lemma51_diagram",
        "prop45_pushforward",
        "isogeny_degree",
        "hodge_fourier_unimodular",
        "ihc_certificate_elliptic_products",
        "poincare_normalization",
        "ell_integrality",
    }
    assert set(REGISTRY) == expected


def test_run_check_examples():
    assert run_check("beauville_exp", genus=3).status == "pass"
    assert run_check("fourier_involution", genus=1).status == "pass"
    assert run_check("tau_equals_R", genus=2).status == "pass"


def test_run_check_records_descriptor():
    r = run_check("fourier_involution", genus=2, type=(1, 2))
    assert r.descriptor.name == "fourier_involution"
    assert dict(r.descriptor.params) == {"genus": 2, "type": (1, 2)}
    assert r.status == "pass"
    assert r.runtime_ms >= 0


@pytest.mark.parametrize("genus", [0, -3])
@pytest.mark.parametrize("name", ["beauville_exp", "theta_divided", "functoriality"])
def test_nonpositive_genus_is_invalid_type(name, genus):
    # the error the CLI gets from standard_ppav, also for the checks that
    # build their own models; an input error, so the runner does not turn
    # it into a skip
    message = f"genus must be positive, got {genus}"
    with pytest.raises(InvalidType, match=message):
        run_check(name, genus=genus)


def test_unknown_check():
    with pytest.raises(UnknownCheck):
        run_check("no_such_check")


def test_unsupported_params():
    r = run_check("beauville_exp", genus=2, type=(1, 2))
    assert r.status == "skipped"
    assert r.detail == "the exponential identity needs a principal polarization"


def test_budget_skip():
    r = run_check("claim_star", genus=4)
    assert r.status == "skipped"
    assert "budget" in r.detail
    assert run_check("beauville_exp", genus=6).status == "skipped"


def test_prop45_needs_two_factors():
    assert run_check("prop45_pushforward", genus=1).status == "skipped"
    assert run_check("prop45_pushforward", pairs=((1, 1), (2, 1))).status == "pass"


def test_injected_variety():
    B = elliptic_product((1, 2))
    r = run_check("fourier_involution", variety=B)
    assert r.status == "pass"
    assert dict(r.descriptor.params)["variety"] == B.name
    # a variety without complex structure skips Hodge-dependent checks
    bare = make_variety([[0, 1], [-1, 0]], name="bare")
    r2 = run_check("hodge_fourier_unimodular", variety=bare)
    assert r2.status == "skipped"


def test_an_injected_variety_is_recorded_by_genus_and_name():
    # a variety is a namedtuple, so it must not reach _canonical_params,
    # which reads every tuple as a tuple of ints
    from abelian_fourier.report import _params_to_json

    B = elliptic_product((1, 2), name="S")
    d = suite._descriptor("claim_star", {"variety": B, "seed": 3})
    assert d.params == (("genus", 2), ("seed", 3), ("variety", "S"))
    assert _params_to_json(d.params) == {"genus": 2, "seed": 3, "variety": "S"}


def test_corrupted_orientation_fails_with_witness(monkeypatch):
    # negating the orientation convention must be caught by the
    # exponential identity, with a nonzero witness class
    import abelian_fourier.varieties as varieties

    original = varieties._theta_orientation

    def corrupted(E, g, delta):
        return -original(E, g, delta)

    abelian_fourier.clear_caches()
    monkeypatch.setattr(varieties, "_theta_orientation", corrupted)
    try:
        r = run_check("beauville_exp", genus=1)
        assert r.status == "fail"
        assert r.witness is not None and not r.witness.is_zero()
    finally:
        monkeypatch.undo()
        abelian_fourier.clear_caches()
    assert run_check("beauville_exp", genus=1).status == "pass"


def test_suite_determinism():
    grid = [
        ("fourier_involution", {"genus": 2}),
        ("product_exchange", {"genus": 2, "count": 5, "seed": 11}),
        ("isogeny_degree", {"genus": 1, "count": 3, "seed": 11}),
    ]
    a = run_suite(grid)
    b = run_suite(grid)
    strip = lambda rs: [(r.descriptor, r.status, r.witness, r.detail) for r in rs]
    assert strip(a) == strip(b)
    assert all(r.status != "fail" for r in a)


def test_default_suite_full_grid_names():
    grid = default_suite()
    assert {name for name, _ in grid} == set(REGISTRY)
    grid2 = default_suite(genus=2)
    assert len(grid2) == 20


def test_seed_changes_randomized_checks():
    a = run_check("product_exchange", genus=2, count=3, seed=1)
    b = run_check("product_exchange", genus=2, count=3, seed=2)
    assert a.status == b.status == "pass"
    assert dict(a.descriptor.params)["seed"] != dict(b.descriptor.params)["seed"]


def test_default_suite_sizes():
    assert len(default_suite()) == 62
    # one entry per check at every genus; prop45_pushforward maps the
    # genus to two factors itself and skips genus 1
    assert [len(default_suite(genus=g)) for g in range(1, 6)] == [20] * 5
    # randomized checks take the seed and run at most at their ceiling
    grid = dict(default_suite(genus=5, seed=7))
    assert grid["functoriality"] == {"genus": 3, "seed": 7}
    assert grid["prop45_pushforward"] == {"genus": 5}


def test_own_model_checks_take_no_variety_or_type():
    for name in (
        "functoriality",
        "product_exchange",
        "isogeny_degree",
        "prop45_pushforward",
        "ihc_certificate_elliptic_products",
    ):
        refused = "the check builds its own principal models and takes no variety or type"
        r = run_check(name, genus=2, type=(1, 2))
        assert (r.status, r.detail) == ("skipped", refused)
        assert dict(r.descriptor.params) == {"genus": 2, "type": (1, 2)}
        r = run_check(name, variety=standard_ppav(2))
        assert (r.status, r.detail) == ("skipped", refused)


def with_body(monkeypatch, name, body):
    """Replace the body of the registered check ``name`` for one test."""
    monkeypatch.setitem(REGISTRY, name, REGISTRY[name]._replace(fn=body))


WITNESS = Multivector(2, {0b01: 3})


@pytest.mark.parametrize(
    "failure",
    [
        NonDivisible(0b01, 3, 2, 2),
        ImageNotInHodge("an image outside the Hodge lattice", WITNESS),
        NonTerminatingSeries("a series that does not vanish", WITNESS),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_every_check_failure_from_a_body_is_a_fail(monkeypatch, failure):
    def body(A, params):
        raise failure

    with_body(monkeypatch, "fourier_involution", body)
    r = run_check("fourier_involution", genus=1)
    assert r.status == "fail"
    assert r.witness == failure.witness == WITNESS
    assert r.detail == str(failure)


@pytest.mark.parametrize("skip", [UnsupportedParams, NoComplexStructure])
def test_an_unmet_hypothesis_in_a_body_is_a_skip(monkeypatch, skip):
    def body(A, params):
        raise skip("a hypothesis the body found unmet")

    with_body(monkeypatch, "fourier_involution", body)
    r = run_check("fourier_involution", genus=1)
    assert (r.status, r.witness, r.detail) == (
        "skipped",
        None,
        "a hypothesis the body found unmet",
    )


def test_other_input_errors_escape_a_body(monkeypatch):
    # like a non-positive genus and an unknown name (the tests above), an
    # input error other than UnsupportedParams raises and is not a skip
    def body(A, params):
        raise InvalidType("not a divisor chain")

    with_body(monkeypatch, "fourier_involution", body)
    with pytest.raises(InvalidType, match="not a divisor chain"):
        run_check("fourier_involution", genus=1)


def test_division_failure_witness_has_the_class_rank(monkeypatch):
    # a NonDivisible escaping a check body becomes a fail whose witness
    # lives in the algebra of the class that failed to divide
    def failing_fourier(A, x):
        return Multivector(4, {0b11: 1}).divide_exact(2)

    monkeypatch.setattr(suite, "fourier", failing_fourier)
    r = run_check("beauville_exp", genus=2)
    assert r.status == "fail"
    assert r.witness == Multivector(4, {0b11: 1})
    assert "exact division failed" in r.detail


def test_nonterminating_star_series_fails_with_witness(monkeypatch):
    # star powers that never vanish make the series fail to terminate; the
    # runner reports a fail with the last power as witness instead of
    # letting the error escape.  The n-th power is n! x, so every term
    # divides exactly and only the termination bound can trip.
    import sys

    fourier_module = sys.modules["abelian_fourier.fourier"]
    calls = []

    def stuck_pontryagin(V, p, x):
        calls.append(p)
        return p * (len(calls) + 1)

    abelian_fourier.clear_caches()
    monkeypatch.setattr(fourier_module, "pontryagin", stuck_pontryagin)
    try:
        r = run_check("star_exp_of_R", genus=1)
    finally:
        monkeypatch.undo()
        abelian_fourier.clear_caches()
    assert r.status == "fail"
    assert r.witness is not None and not r.witness.is_zero()
    assert "star power" in r.detail


@pytest.mark.parametrize("name", ["star_exp_of_R", "theta_divided", "divided_square"])
def test_star_checks_use_the_addition_pushforward(monkeypatch, name):
    # up to genus 2 the star checks also take their star powers from the
    # m_* definition, so a wrong m_* product fails them although the fast
    # product is intact; above genus 2 only the fast product is used
    reference = suite.pontryagin_reference

    def doubled(V, x, y):
        return reference(V, x, y) * 2

    monkeypatch.setattr(suite, "pontryagin_reference", doubled)
    assert run_check(name, genus=2).status == "fail"
    assert run_check(name, genus=3).status == "pass"


def test_default_grid_passes():
    results = run_suite(default_suite())
    assert len(results) == 62
    failed = [(r.descriptor.name, r.descriptor.params, r.status) for r in results
              if r.status != "pass"]
    assert failed == []


def test_beta_surjectivity_compares_the_closed_form_with_the_triple_sum(monkeypatch):
    # up to genus 2 beta_surjectivity also runs the triple sum that defines
    # beta, so a wrong closed form fails it with the difference as witness
    fast = suite.beta_from_divisor
    monkeypatch.setattr(suite, "beta_from_divisor", lambda A, D: -fast(A, D))
    r = run_check("beta_surjectivity", genus=2)
    assert r.status == "fail"
    A = standard_ppav(2)
    assert r.witness == fast(A, A.theta_class()) * -2
    assert r.detail == "beta(theta) differs from the triple sum"

    # negating every class but theta keeps the sign test and the trivial
    # cokernel: only the triple sum sees it, so genus 3 still passes
    def negated_off_theta(A, D):
        return fast(A, D) if D == A.theta_class() else -fast(A, D)

    monkeypatch.setattr(suite, "beta_from_divisor", negated_off_theta)
    r = run_check("beta_surjectivity", genus=2)
    assert r.status == "fail"
    assert r.detail == "beta(divisor basis class 0) differs from the triple sum"
    assert r.witness is not None and not r.witness.is_zero()
    assert run_check("beta_surjectivity", genus=3).status == "pass"


def test_ell_integrality_divides_the_product(monkeypatch):
    # ell^k/k! by elementary symmetric sums is integral by construction, so
    # the check must divide the product ell^k itself: a product off by one
    # fails it, a wrong closed form does not reach it
    product = Multivector.wedge_power

    def off_by_one(self, k):
        out = product(self, k)
        if k < 2 or out.is_zero():
            return out
        terms = dict(out.items())
        terms[min(terms)] += 1
        return Multivector(self.rank, terms)

    monkeypatch.setattr(Multivector, "wedge_power", off_by_one)
    r = run_check("ell_integrality", genus=2)
    assert r.status == "fail"
    ell2 = product(poincare_class(standard_ppav(2)), 2)
    low = min(mask for mask, _ in ell2.items())
    assert r.witness == Multivector(8, {low: ell2.coefficient(low) + 1})
    assert r.detail.startswith("ell^2/2! is not integral")

    monkeypatch.setattr(Multivector, "wedge_power", product)
    divided = Multivector.wedge_power_divided
    monkeypatch.setattr(Multivector, "wedge_power_divided", lambda self, k: -divided(self, k))
    assert run_check("ell_integrality", genus=2).status == "pass"


def test_suite_catches_a_wrong_divided_power(monkeypatch):
    # the minimal classes come from wedge_power_divided; negating every
    # divided power of order 2 or more must fail several checks, each with
    # a witness
    divided = Multivector.wedge_power_divided

    def negated(self, k):
        out = divided(self, k)
        return -out if k >= 2 else out

    abelian_fourier.clear_caches()
    monkeypatch.setattr(Multivector, "wedge_power_divided", negated)
    try:
        results = run_suite(default_suite(genus=2))
    finally:
        monkeypatch.undo()
        abelian_fourier.clear_caches()
    failed = [r for r in results if r.status == "fail"]
    assert len(failed) >= 2
    assert all(r.witness is not None and not r.witness.is_zero() for r in failed)
    assert {"theta_divided", "tau_equals_R"} <= {r.descriptor.name for r in failed}


def test_kunneth_R_at_genus_5_within_seconds():
    def timeout(signum, frame):
        raise TimeoutError("kunneth_R_decomposition at genus 5 took over 10 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        lhs, rhs = kunneth_R_decomposition(standard_ppav(5))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert lhs == -rhs
    assert not lhs.is_zero()
