"""File formats: classes, varieties, reports; round-trips are exact."""

import json
import random

import pytest

from abelian_fourier.errors import NonDivisible, NotAlternating, UnsupportedParams
from abelian_fourier.exterior import Multivector
from abelian_fourier.report import (
    ReportDocument,
    class_from_dict,
    class_to_dict,
    emit_class,
    emit_report,
    emit_text,
    parse_class,
    parse_report,
    parse_variety,
    report_to_dict,
    strip_runtimes,
    variety_from_dict,
    variety_to_dict,
)
from abelian_fourier.suite import run_suite
from abelian_fourier.varieties import elliptic_product, standard_ppav
from test_fourier import rational_conjugate
from test_suite import with_body


def test_class_roundtrip_bytes():
    rng = random.Random(71)
    for _ in range(10):
        x = Multivector(
            6, {rng.randrange(64): rng.randint(-(10**15), 10**15) for _ in range(4)}
        )
        text = emit_class(x)
        assert parse_class(text) == x
        # canonical writer: emitting the parse reproduces the bytes
        assert emit_class(parse_class(text)) == text


def test_class_serialization_roundtrip():
    # one term per monomial, in increasing mask order, coefficients as strings
    rng = random.Random(31)
    for _ in range(25):
        x = Multivector(6, {rng.randrange(64): rng.randint(-(10**12), 10**12) for _ in range(5)})
        data = class_to_dict(x)
        masks = [sum(1 << i for i in rec["generators"]) for rec in data["terms"]]
        assert masks == sorted(masks)
        assert all(isinstance(rec["coeff"], str) for rec in data["terms"])
        assert class_from_dict(data) == x


def test_class_format_uses_decimal_strings():
    data = json.loads(emit_class(Multivector(2, {0b11: 12345678901234567890})))
    assert data["terms"][0]["coeff"] == "12345678901234567890"
    assert data["rank"] == 2


def test_variety_roundtrip():
    # the last model stores N = 14 J: its entries are written as x/14 in
    # lowest terms and read back to the same N
    conjugate, _ = rational_conjugate(standard_ppav(2), random.Random(2))
    for A in (standard_ppav(2), elliptic_product((1, 2)), conjugate):
        B = variety_from_dict(variety_to_dict(A))
        assert B.E == A.E
        assert B.J == A.J
        assert B.polarization_type == A.polarization_type


def test_variety_from_type():
    A = variety_from_dict({"name": "S", "genus": 2, "polarization_type": [1, 2]})
    assert A.polarization_type == (1, 2)
    assert A.J is not None  # the type route carries the standard CM structure
    with pytest.raises(UnsupportedParams):
        variety_from_dict({"genus": 3, "polarization_type": [1, 2]})


def test_variety_requires_exactly_one_polarization_field():
    with pytest.raises(UnsupportedParams):
        variety_from_dict({"name": "x"})
    with pytest.raises(UnsupportedParams):
        variety_from_dict(
            {
                "polarization_type": [1],
                "polarization_matrix": [[0, 1], [-1, 0]],
            }
        )


@pytest.mark.parametrize(
    "data",
    [
        {"rank": 2, "terms": [{"generators": [0], "coeff": 1.5}]},
        {"rank": 2.9, "terms": [{"generators": [0], "coeff": "1"}]},
        {"rank": 2, "terms": [{"generators": [0.0], "coeff": "1"}]},
        {"rank": True, "terms": []},
        {"rank": 2, "terms": [{"generators": [0], "coeff": "1.0"}]},
    ],
)
def test_class_fields_must_be_integers(data):
    # a float is rejected, not truncated
    with pytest.raises(ValueError, match="must be an integer or a decimal string"):
        parse_class(json.dumps(data))


def test_class_integer_fields_take_ints_or_decimal_strings():
    data = {"rank": "2", "terms": [{"generators": ["1"], "coeff": -3}]}
    assert parse_class(json.dumps(data)) == Multivector(2, {0b10: -3})


@pytest.mark.parametrize(
    "data",
    [
        {"polarization_matrix": [[0, 1.9], [-1.9, 0]]},
        {"polarization_matrix": [[0, 1], [-1, 0]], "genus": 1.0},
        {"polarization_type": [1.7, 2]},
        {"polarization_type": [1, 2], "genus": "2.0"},
        {"polarization_matrix": [[0, 1], [-1, 0]], "complex_structure": [[0, -0.5], [2, 0]]},
        {"polarization_type": [1], "complex_structure": [["0", "-1/0"], ["1", "0"]]},
        {"polarization_type": [1], "complex_structure": [["0", "-1.0"], ["1", "0"]]},
        {"polarization_type": [1], "complex_structure": [[False, -1], [True, 0]]},
    ],
)
def test_variety_fields_must_be_integers(data):
    with pytest.raises(ValueError, match="must be an integer or a decimal string"):
        variety_from_dict(data)


@pytest.mark.parametrize(
    "data, message",
    [
        ([1, 2], "a variety spec must be a JSON object, got [1, 2]"),
        ({"polarization_type": 5}, "polarization_type must be a JSON list, got 5"),
        ({"polarization_matrix": 3}, "polarization_matrix must be a JSON list, got 3"),
        ({"polarization_matrix": [3]}, "polarization_matrix row must be a JSON list, got 3"),
        (
            {"polarization_type": [1], "complex_structure": "J"},
            "complex_structure must be a JSON list, got 'J'",
        ),
    ],
    ids=["not-an-object", "type-not-a-list", "matrix-not-a-list", "row-not-a-list", "J-not-a-list"],
)
def test_variety_fields_must_have_their_json_shape(data, message):
    with pytest.raises(ValueError) as exc:
        variety_from_dict(data)
    assert str(exc.value) == message


def test_variety_rational_strings():
    A = parse_variety(
        json.dumps(
            {
                "name": "half",
                "polarization_matrix": [[0, 1], [-1, 0]],
                "complex_structure": [["0", "-1/2"], ["2", "0"]],
            }
        )
    )
    # stored as N = 2J, and written back as the same p/q strings
    assert A.J == ((0, -1), (4, 0))
    assert variety_to_dict(A)["complex_structure"] == [["0/1", "-1/2"], ["2/1", "0/1"]]
    assert variety_from_dict(variety_to_dict(A)) == A


def test_variety_genus_must_match_the_polarization_matrix():
    data = variety_to_dict(standard_ppav(2))  # a 4x4 polarization_matrix
    data["genus"] = 3
    with pytest.raises(UnsupportedParams, match="genus 3 does not match a 4-row"):
        variety_from_dict(data)


def test_variety_validation_diagnostic():
    with pytest.raises(NotAlternating):
        parse_variety(json.dumps({"polarization_matrix": [[1, 0], [0, 1]]}))


def test_report_roundtrip_and_verdict_parity(monkeypatch):
    def body(A, params):
        raise NonDivisible(0b01, 3, 2, 2)

    with_body(monkeypatch, "theta_divided", body)
    results = run_suite(
        [
            ("fourier_involution", {"genus": 1}),
            ("beauville_exp", {"genus": 2}),
            ("claim_star", {"genus": 4}),  # skipped (budget)
            ("theta_divided", {"genus": 2}),  # fails with a witness
        ]
    )
    doc = ReportDocument.from_results(results)
    assert doc.exit_status == 1
    text = emit_report(doc)
    back = parse_report(text)
    assert back == doc
    # byte-identical re-emission
    assert emit_report(back) == text
    # text format carries the same verdicts, one row per result
    rendered = emit_text(doc)
    for r in doc.results:
        assert f"[{r.status.upper():7}] {r.descriptor.name}(" in rendered
    assert "[SKIPPED] claim_star(genus=4)" in rendered
    # the failed row is followed by its witness
    lines = rendered.splitlines()
    fail = next(i for i, line in enumerate(lines) if "[FAIL   ] theta_divided(genus=2)" in line)
    assert lines[fail + 1].strip() == f"witness: {Multivector(2, {0b01: 3})!r}"
    assert "summary: 2 passed, 1 failed, 1 skipped" in lines


def test_report_determinism_modulo_runtime():
    grid = [("product_exchange", {"genus": 2, "seed": 5})]
    doc1 = strip_runtimes(ReportDocument.from_results(run_suite(grid)))
    doc2 = strip_runtimes(ReportDocument.from_results(run_suite(grid)))
    assert emit_report(doc1) == emit_report(doc2)


def test_report_no_floats_anywhere():
    results = run_suite([("poincare_normalization", {"genus": 2})])
    doc = report_to_dict(ReportDocument.from_results(results))

    def no_floats(obj):
        if isinstance(obj, float):
            return False
        if isinstance(obj, dict):
            return all(no_floats(v) for v in obj.values())
        if isinstance(obj, list):
            return all(no_floats(v) for v in obj)
        return True

    assert no_floats(doc)


def test_report_conventions_always_present():
    doc = ReportDocument.from_results([])
    data = report_to_dict(doc)
    assert data["conventions"]
    assert "orientation" in data["conventions"]
