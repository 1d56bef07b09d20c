"""Check registry and runner: statuses, witnesses, determinism."""

import ast
import functools
import importlib
import pkgutil
import random
import signal
from itertools import combinations
from pathlib import Path

import pytest

import abelian_fourier
import abelian_fourier.suite as suite
import abelian_fourier.varieties as varieties
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
from abelian_fourier.exterior import Multivector, complement_sign
from abelian_fourier.fourier import fourier, poincare_class
from abelian_fourier.hodge import hodge_lattice, voisin_certificate
from abelian_fourier.intlinalg import det_bareiss
from abelian_fourier.varieties import (
    Homomorphism,
    elliptic_product,
    make_variety,
    standard_ppav,
)


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
    r = run_check("fourier_involution", variety=elliptic_product((1, 2)))
    assert r.descriptor.name == "fourier_involution"
    assert dict(r.descriptor.params) == {"genus": 2, "variety": "E_i^2(1, 2)"}
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


@pytest.mark.parametrize(
    "params, message",
    [
        ({"gneus": 3}, "unexpected keyword argument 'gneus'"),
        ({"genus": 2, "type": (1, 2)}, "unexpected keyword argument 'type'"),
        ({"pairs": ((1, 1),)}, "unexpected keyword argument 'pairs'"),
        ({"genus": 3, "count": 5}, "unexpected keyword argument 'count'"),
        ({"genus": "2"}, "genus must be int, got '2'"),
        ({"genus": True}, "genus must be int, got True"),
        ({"genus": 2, "seed": 1.5}, "seed must be int, got 1.5"),
        ({"variety": "S"}, "variety must be AbelianVariety, got 'S'"),
    ],
    ids=["gneus", "type", "pairs", "count", "str-genus", "bool-genus", "float-seed",
         "str-variety"],
)
def test_an_unknown_or_mistyped_parameter_is_a_type_error(params, message):
    # an input error, raised before the check runs: never recorded, never
    # a skipped result
    with pytest.raises(TypeError, match=message):
        run_check("fourier_involution", **params)


def test_unsupported_params():
    r = run_check("beauville_exp", variety=elliptic_product((1, 2)))
    assert r.status == "skipped"
    assert r.detail == "the exponential identity needs a principal polarization"


def test_budget_skip():
    r = run_check("claim_star", genus=4)
    assert r.status == "skipped"
    assert "budget" in r.detail
    assert run_check("beauville_exp", genus=6).status == "skipped"


def test_prop45_needs_two_factors():
    r = run_check("prop45_pushforward", genus=1)
    assert (r.status, r.detail) == ("skipped", "needs two factors, so genus at least 2")
    # genus h is split as the pair (h - 1, 1)
    assert run_check("prop45_pushforward", genus=2).status == "pass"
    assert run_check("prop45_pushforward", genus=3).status == "pass"


def test_prop45_split_failure_is_witnessed_on_the_four_fold(monkeypatch):
    # negating the product's pairing class negates its odd power R_X but
    # not the factors' cross terms, so the split fails on X x X^, rank 4h
    original = suite.poincare_class
    h = 2
    monkeypatch.setattr(
        suite,
        "poincare_class",
        lambda A: -original(A) if A.genus == h else original(A),
    )
    r = run_check("prop45_pushforward", genus=h)
    assert (r.status, r.detail) == ("fail", f"two-term split failed at dims ({h - 1},1)")
    assert r.witness.rank == 4 * h and not r.witness.is_zero()


def test_prop45_sign_flips_with_second_factor_parity():
    # the helper raises on a failure, so these pairs pass by returning;
    # (1, 2) is a pair the default grid, which splits genus h as
    # (h - 1, 1), never reaches
    pushed = {
        (gA, gB): suite._prop45_pushforward(standard_ppav(gA), standard_ppav(gB))
        for gA, gB in ((1, 1), (1, 2), (2, 1))
    }
    # the identity as coded carries (-1)^{g_B}; dropping it must fail for odd g_B
    for (gA, gB), x in pushed.items():
        mu = poincare_class(standard_ppav(gA)).wedge_power_divided(2 * gA - 1)
        assert x == (-mu if gB % 2 else mu) and not x.is_zero()


def test_kunneth_R_sign_is_sharp(monkeypatch):
    # the check passes with the recorded (-1)^g; negating the 4-fold's
    # pairing class negates only the left side R_X, which is nonzero, so
    # the opposite sign fails, witnessed by -2 R_X
    R_X = {}
    for g in (1, 2):
        assert run_check("kunneth_R", genus=g).status == "pass"
        A = standard_ppav(g)
        X = varieties.product(A, varieties.dual(A)).variety
        R_X[g] = poincare_class(X).wedge_power_divided(4 * g - 1)
    original = suite.poincare_class
    monkeypatch.setattr(suite, "poincare_class", lambda V: -original(V))
    for g, lhs in R_X.items():
        r = run_check("kunneth_R", genus=g)
        assert (r.status, r.detail) == ("fail", "left and right sides differ")
        assert r.witness == lhs * -2 and not lhs.is_zero()


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
    # the report records the variety's name, never the variety itself
    from abelian_fourier.report import ReportDocument, report_to_dict

    B = elliptic_product((1, 2), name="S")
    r = run_check("claim_star", variety=B, seed=3)
    assert r.descriptor.params == (("genus", 2), ("seed", 3), ("variety", "S"))
    [check] = report_to_dict(ReportDocument.from_results([r]))["checks"]
    assert check["params"] == {"genus": 2, "seed": 3, "variety": "S"}


def test_corrupted_orientation_fails_with_witness(monkeypatch):
    # negating the orientation convention must be caught by the
    # exponential identity, with a nonzero witness class
    import abelian_fourier.varieties as varieties

    original = varieties._theta_orientation

    def corrupted(*args):
        return -original(*args)

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
        ("product_exchange", {"genus": 2, "seed": 11}),
        ("isogeny_degree", {"genus": 1, "seed": 11}),
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
    a = run_check("product_exchange", genus=2, seed=1)
    b = run_check("product_exchange", genus=2, seed=2)
    assert a.status == b.status == "pass"
    assert dict(a.descriptor.params)["seed"] != dict(b.descriptor.params)["seed"]


def test_default_suite_sizes():
    assert len(default_suite()) == 63
    assert [p for n, p in default_suite() if n == "prop45_pushforward"] == [
        {"genus": 2},
        {"genus": 3},
    ]
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
        r = run_check(name, variety=elliptic_product((1, 2)))
        assert (r.status, r.detail) == ("skipped", refused)
        assert dict(r.descriptor.params) == {"genus": 2, "variety": "E_i^2(1, 2)"}
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


@pytest.mark.parametrize(
    "returned",
    [(False, WITNESS, "left and right sides differ"), (True, None, None), True, WITNESS],
    ids=["fail-tuple", "pass-tuple", "bool", "class"],
)
def test_a_body_that_returns_anything_but_a_note_is_a_type_error(monkeypatch, returned):
    # a body fails only by raising CheckFailure; a leftover (ok, witness,
    # detail) tuple must not be reported as a pass whose detail is a tuple
    with_body(monkeypatch, "fourier_involution", lambda A, seed: returned)
    with pytest.raises(TypeError, match="fourier_involution returned"):
        run_check("fourier_involution", genus=1)


@pytest.mark.parametrize("note", [None, "a pass note"])
def test_a_body_that_returns_a_note_or_none_passes_with_it(monkeypatch, note):
    with_body(monkeypatch, "fourier_involution", lambda A, seed: note)
    r = run_check("fourier_involution", genus=1)
    assert (r.status, r.witness, r.detail) == ("pass", None, note)


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


STAR_CHECK_DETAILS = {
    "star_exp_of_R": "left and right sides differ",
    "theta_divided": "exponent i=0",
    "divided_square": "left and right sides differ",
}


@pytest.mark.parametrize("name", list(STAR_CHECK_DETAILS))
def test_star_checks_use_the_addition_pushforward(monkeypatch, name):
    # the star checks also take their star powers from the m_* definition,
    # so a wrong m_* product fails them at every default-grid genus,
    # although the fast product is intact
    reference = suite.pontryagin_reference

    def doubled(V, x, y):
        return reference(V, x, y) * 2

    monkeypatch.setattr(suite, "pontryagin_reference", doubled)
    points = [params for n, params in default_suite() if n == name]
    assert points
    for params in points:
        r = run_check(name, **params)
        assert (r.status, r.detail) == ("fail", STAR_CHECK_DETAILS[name]), params
        assert r.witness is not None and not r.witness.is_zero()


def test_default_grid_passes():
    results = run_suite(default_suite())
    assert len(results) == 63
    failed = [(r.descriptor.name, r.descriptor.params, r.status) for r in results
              if r.status != "pass"]
    assert failed == []


def test_beta_surjectivity_compares_the_closed_form_with_the_triple_sum(monkeypatch):
    # beta_surjectivity runs the triple sum that defines beta at every
    # default-grid genus, so a wrong closed form fails it with the
    # difference as witness
    fast = suite.beta_from_divisor
    points = [params["genus"] for n, params in default_suite() if n == "beta_surjectivity"]
    assert points == [1, 2, 3]
    monkeypatch.setattr(suite, "beta_from_divisor", lambda A, D: -fast(A, D))
    for g in points:
        r = run_check("beta_surjectivity", genus=g)
        assert (r.status, r.detail) == ("fail", "beta(theta) differs from the triple sum")
        A = standard_ppav(g)
        assert r.witness == fast(A, A.theta_class()) * -2

    # negating every class but theta keeps the sign test and the trivial
    # cokernel: only the triple sum sees it.  At genus 1 theta is the whole
    # divisor basis, so there the mutant is beta itself and passes.
    def negated_off_theta(A, D):
        return fast(A, D) if D == A.theta_class() else -fast(A, D)

    monkeypatch.setattr(suite, "beta_from_divisor", negated_off_theta)
    A = standard_ppav(1)
    assert hodge_lattice(A, 1).basis_classes() == [A.theta_class()]
    assert run_check("beta_surjectivity", genus=1).status == "pass"
    for g in points[1:]:
        r = run_check("beta_surjectivity", genus=g)
        assert r.status == "fail"
        assert r.detail == "beta(divisor basis class 0) differs from the triple sum"
        assert r.witness is not None and not r.witness.is_zero()


def test_a_non_spanning_beta_certificate_names_a_class_outside_the_span(monkeypatch):
    # doubled generators leave the cokernel (Z/2)^r; the witness is the
    # first curve-class basis class outside their span, not a generator
    fast = suite.beta_from_divisor
    monkeypatch.setattr(suite, "beta_from_divisor", lambda A, D: fast(A, D) * 2)
    r = run_check("ihc_certificate_elliptic_products", genus=3)
    assert r.status == "fail" and r.detail.startswith("cokernel invariants")
    assert not r.witness.is_zero()
    A = standard_ppav(3)
    gens = [fast(A, D) * 2 for D in hodge_lattice(A, 1).basis_classes()]
    assert voisin_certificate(A, 2, gens + [r.witness]) != voisin_certificate(A, 2, gens)


def difference_witnesses(path):
    """Line numbers of the ``CheckFailure(...)`` calls in the module at
    ``path`` whose witness, positional or keyword, is a subtraction."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name != "CheckFailure":
            continue
        args = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "witness"]
        if any(isinstance(a, ast.BinOp) and isinstance(a.op, ast.Sub) for a in args):
            lines.append(node.lineno)
    return lines


def require_equal_calls(path):
    """Line numbers of the ``require_equal(...)`` calls in the module at ``path``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "require_equal"
    ]


def test_only_require_equal_builds_a_difference_witness():
    # a failed identity is witnessed by lhs - rhs in one place,
    # errors.require_equal, and only the suite compares identities: the
    # calculus modules hold no check
    package = Path(suite.__file__).parent
    modules = sorted(package.glob("*.py"))
    found = {
        path.name: lines
        for path in modules
        if path.name != "errors.py" and (lines := difference_witnesses(path))
    }
    assert found == {}
    assert difference_witnesses(package / "errors.py")
    callers = {path.name for path in modules if require_equal_calls(path)}
    assert callers == {"suite.py"}


def scalar_int_type_errors(path):
    """Line numbers of the ``raise TypeError(f"<what> {value} is not an
    integer")`` statements in the module at ``path``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        if getattr(node.exc.func, "id", None) != "TypeError" or not node.exc.args:
            continue
        parts = getattr(node.exc.args[0], "values", [])
        if (
            len(parts) >= 2
            and isinstance(parts[-2], ast.FormattedValue)
            and isinstance(parts[-1], ast.Constant)
            and parts[-1].value == " is not an integer"
        ):
            lines.append(node.lineno)
    return lines


def test_only_require_int_raises_a_scalar_integer_type_error():
    # an int argument that is not an int is rejected in one place,
    # errors.require_int, with the same message everywhere; a matrix
    # entry goes through intlinalg.int_matrix
    package = Path(suite.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if path.name != "errors.py" and (lines := scalar_int_type_errors(path))
    }
    assert found == {}
    assert scalar_int_type_errors(package / "errors.py")


def test_clear_caches_empties_every_memo():
    # a memo left out of clear_caches() would keep models built under a
    # corrupted convention alive into the next test
    package = Path(abelian_fourier.__file__).parent
    modules = [
        importlib.import_module(f"abelian_fourier.{info.name}")
        for info in pkgutil.iter_modules([str(package)])
    ]
    memos = {
        f"{module.__name__}.{name}": obj
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == module.__name__
    }
    assert {
        "abelian_fourier.varieties._elliptic_product",
        "abelian_fourier.varieties.dual",
        "abelian_fourier.varieties.product",
        "abelian_fourier.varieties.structure_homs",
        "abelian_fourier.fourier.context",
        "abelian_fourier.fourier.theta_triple_sum",
        "abelian_fourier.hodge._lattice_tables",
    } <= set(memos)
    results = run_suite(default_suite())
    assert all(r.status == "pass" for r in results)
    assert all(memo.cache_info().currsize for memo in memos.values())
    abelian_fourier.clear_caches()
    assert {name: memo.cache_info().currsize for name, memo in memos.items()} == dict.fromkeys(
        memos, 0
    )


def test_ell_integrality_divides_the_product(monkeypatch):
    # ell^k/k! by elementary symmetric sums is integral by construction, so
    # the check must divide the product ell^k itself, each power the last
    # one times ell: a product off by one fails it, a wrong closed form
    # does not reach it
    ell = poincare_class(standard_ppav(2))
    unit = Multivector.unit(ell.rank)
    product = Multivector.wedge

    def off_by_one(self, other):
        out = product(self, other)
        if other != ell or self == unit or out.is_zero():
            return out
        terms = dict(out.items())
        terms[min(terms)] += 1
        return Multivector(self.rank, terms)

    monkeypatch.setattr(Multivector, "wedge", off_by_one)
    r = run_check("ell_integrality", genus=2)
    assert r.status == "fail"
    ell2 = product(ell, ell)
    low = min(mask for mask, _ in ell2.items())
    assert r.witness == Multivector(8, {low: ell2.coefficient(low) + 1})
    assert r.detail.startswith("ell^2/2! is not integral")

    monkeypatch.setattr(Multivector, "wedge", product)
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
    # run_check skips genus 5 for budget, so the body is called directly;
    # a failure raises CheckFailure, a pass returns the sign note.  The
    # left side R_X must be nonzero, or the comparison would hold trivially.
    def timeout(signum, frame):
        raise TimeoutError("kunneth_R at genus 5 took over 10 s")

    A = standard_ppav(5)
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        note = suite._check_kunneth_R(A, 0)
        X = varieties.product(A, varieties.dual(A)).variety
        R_X = poincare_class(X).wedge_power_divided(19)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert note == "compared after inserting the recorded (-1)^g normalization sign"
    assert not R_X.is_zero()


@pytest.mark.parametrize("g", [5, 6])
def test_isogeny_degree_above_its_ceiling_within_seconds(g):
    # beta = m alpha^{-1} is one Bareiss adjugate; through a Smith form,
    # 8 of the 10 seed-0 maps at genus 5 did not finish in 5 s each
    def timeout(signum, frame):
        raise TimeoutError(f"isogeny_degree at genus {g} took over 10 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        # a failure raises CheckFailure; a pass returns no note
        note = suite._check_isogeny_degree(standard_ppav(g), 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert note is None


def monomial_failure(f, fhat):
    """Both functoriality laws of f with one call per monomial, in the
    check's order: the first failure as ``(detail, witness)``, else None."""
    X, Y = f.source, f.target
    h1, h2 = X.genus, Y.genus
    for mask in range(1 << X.rank):
        x = Multivector(X.rank, {mask: 1})
        lhs = fhat.pullback(fourier(X, x))
        rhs = fourier(Y, f.pushforward(x))
        if lhs != rhs:
            return f"pushforward law, dims ({h1},{h2}), mask {mask:#x}", lhs - rhs
    for mask in range(1 << Y.rank):
        y = Multivector(Y.rank, {mask: 1})
        lhs = fourier(X, f.pullback(y))
        rhs = fhat.pushforward(fourier(Y, y))
        if (h1 - h2) % 2:
            rhs = -rhs
        if lhs != rhs:
            return f"pullback law, dims ({h1},{h2}), mask {mask:#x}", lhs - rhs
    return None


def functoriality_oracle(genus, seed):
    """The functoriality check on the maps it draws, one call per monomial."""
    rng = random.Random(seed)
    for _ in range(20):
        h1 = rng.randint(1, genus)
        h2 = rng.randint(1, genus)
        f = Homomorphism(standard_ppav(h1), standard_ppav(h2), suite._gaussian_hom(rng, h1, h2))
        failure = monomial_failure(f, f.dual_hom())
        if failure is not None:
            return failure
    return None


def balanced_digits(c, base):
    """The digits of c in base ``base``, each in (-base/2, base/2]."""
    digits = []
    while c:
        d = c % base
        if d > base // 2:
            d -= base
        digits.append(d)
        c = (c - d) // base
    return digits


@pytest.mark.parametrize("h2", [1, 2, 3])
@pytest.mark.parametrize("h1", [1, 2, 3])
def test_the_stacked_class_gives_back_every_monomial_image(h1, h2):
    # why the check on one stacked class is exact: on each side of each
    # law, the digits of the stacked image in base 4H + 1 are the images of
    # the monomials, found by their index among the masks of their degree
    rng = random.Random(10 * h1 + h2)
    X, Y = standard_ppav(h1), standard_ppav(h2)
    f = Homomorphism(X, Y, suite._gaussian_hom(rng, h1, h2))
    fhat = f.dual_hom()
    base = 4 * suite._minor_bound(f.matrix) + 1
    sides = [
        (X, lambda x: fhat.pullback(fourier(X, x))),
        (X, lambda x: fourier(Y, f.pushforward(x))),
        (Y, lambda y: fourier(X, f.pullback(y))),
        (Y, lambda y: fhat.pushforward(fourier(Y, y))),
    ]
    for V, side in sides:
        masks = [
            sorted(sum(1 << i for i in c) for c in combinations(range(V.rank), k))
            for k in range(V.rank + 1)
        ]
        images = {m: dict(side(Multivector(V.rank, {m: 1})).items()) for m in range(1 << V.rank)}
        # each input degree goes to one output degree, no two to the same
        degree_of = {}
        for k, row in enumerate(masks):
            out = {t.bit_count() for m in row for t in images[m]}
            assert len(out) <= 1 and not out & degree_of.keys()
            degree_of.update((d, k) for d in out)
        decoded = {m: {} for m in range(1 << V.rank)}
        for t, c in side(suite._stacked_class(V.rank, f.matrix)).items():
            for i, d in enumerate(balanced_digits(c, base)):
                if d:
                    decoded[masks[degree_of[t.bit_count()]][i]][t] = d
        assert decoded == images
    assert monomial_failure(f, fhat) is None
    stacked = [("the stacked class", suite._stacked_class(V.rank, f.matrix)) for V in (X, Y)]
    suite._functoriality_laws(f, fhat, stacked[:1], stacked[1:])


def test_the_minor_bound_bounds_every_minor():
    rng = random.Random(3)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        for i in rng.sample(range(rows), rng.randint(0, 2) if rows > 1 else 0):
            M[i] = [0] * cols
        bound = suite._minor_bound(M)
        assert bound >= 1  # the empty minor
        for k in range(1, min(rows, cols) + 1):
            for r in combinations(range(rows), k):
                for c in combinations(range(cols), k):
                    assert abs(det_bareiss([[M[i][j] for j in c] for i in r])) <= bound


def sign_flipped_at(mask):
    """complement_sign with the sign of one mask negated."""
    return lambda s: -complement_sign(s) if s == mask else complement_sign(s)


def pullback_flipped_at(mask):
    """Homomorphism.pullback negating the term at one mask of its input,
    on maps into a standard model only (not on their duals)."""
    original = Homomorphism.pullback

    def pullback(self, y):
        if not self.target.name.endswith("^"):
            y = Multivector(y.rank, {m: -c if m == mask else c for m, c in y.items()})
        return original(self, y)

    return pullback


@pytest.mark.parametrize(
    "owner, name, mutant",
    [
        (varieties, "complement_sign", sign_flipped_at(0b1)),
        (varieties, "complement_sign", sign_flipped_at(0b1111)),
        (varieties, "complement_sign", sign_flipped_at(0b101011)),
        (Homomorphism, "pullback", pullback_flipped_at(0b110)),
    ],
    ids=["sign-0x1", "sign-0xf", "sign-0x2b", "pullback-0x6"],
)
def test_a_one_monomial_mutant_fails_as_the_monomial_loop_does(monkeypatch, owner, name, mutant):
    abelian_fourier.clear_caches()
    monkeypatch.setattr(owner, name, mutant)
    want = functoriality_oracle(3, 0)
    assert want is not None
    r = run_check("functoriality", genus=3, seed=0)
    assert (r.status, r.detail, r.witness) == ("fail", *want)


def test_a_side_that_is_not_linear_fails_on_the_stacked_class(monkeypatch):
    # every monomial passes, so only the stacked class can witness it
    original = Homomorphism.pushforward

    def pushforward(self, x):
        out = original(self, x)
        return out * 2 if len(x) > 1 else out

    monkeypatch.setattr(Homomorphism, "pushforward", pushforward)
    assert functoriality_oracle(2, 0) is None
    r = run_check("functoriality", genus=2, seed=0)
    assert r.status == "fail"
    assert r.detail.endswith("the stacked class")
    assert not r.witness.is_zero()


def test_functoriality_makes_four_map_calls_per_map(monkeypatch):
    # two pullbacks and two pushforwards for each of the 20 maps, not one
    # per monomial
    calls = {"pullback": 0, "pushforward": 0}
    for name in calls:
        original = getattr(Homomorphism, name)

        def counted(self, x, name=name, original=original):
            calls[name] += 1
            return original(self, x)

        monkeypatch.setattr(Homomorphism, name, counted)
    assert run_check("functoriality", genus=3, seed=0).status == "pass"
    assert calls == {"pullback": 40, "pushforward": 40}
