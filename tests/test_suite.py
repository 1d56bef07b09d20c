"""Check registry and runner: statuses, witnesses, determinism."""

import pytest

import abelian_fourier
import abelian_fourier.suite as suite
from abelian_fourier.errors import UnknownCheck, UnsupportedParams
from abelian_fourier.suite import (
    REGISTRY,
    default_suite,
    run_check,
    run_check_lenient,
    run_suite,
)
from abelian_fourier.exterior import Multivector
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


def test_unknown_check():
    with pytest.raises(UnknownCheck):
        run_check("no_such_check")


def test_unsupported_params():
    with pytest.raises(UnsupportedParams):
        run_check("beauville_exp", genus=0)
    with pytest.raises(UnsupportedParams):
        run_check("beauville_exp", genus=2, type=(1, 2))
    r = run_check_lenient("beauville_exp", genus=2, type=(1, 2))
    assert r.status == "skipped"


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
    # prop45_pushforward needs two factors, so genus 1 leaves it out
    assert [len(default_suite(genus=g)) for g in range(1, 6)] == [19, 20, 20, 20, 20]
    # randomized checks take the seed and run at most at their ceiling
    grid = dict(default_suite(genus=5, seed=7))
    assert grid["functoriality"] == {"genus": 3, "seed": 7}
    assert grid["prop45_pushforward"] == {"pairs": ((4, 1),)}


def test_own_model_checks_take_no_variety_or_type():
    for name in (
        "functoriality",
        "product_exchange",
        "isogeny_degree",
        "prop45_pushforward",
        "ihc_certificate_elliptic_products",
    ):
        with pytest.raises(UnsupportedParams):
            run_check(name, genus=2, type=(1, 2))
        with pytest.raises(UnsupportedParams):
            run_check(name, variety=standard_ppav(2))
        r = run_check_lenient(name, genus=2, type=(1, 2))
        assert r.status == "skipped"
        assert dict(r.descriptor.params) == {"genus": 2, "type": (1, 2)}


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
