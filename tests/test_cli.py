"""Command-line interface: exit codes, file flows, byte-exact round trips."""

import hashlib
import json

import pytest

import abelian_fourier.intlinalg as intlinalg
import abelian_fourier.varieties as varieties
from abelian_fourier import clear_caches
from abelian_fourier.cli import main
from abelian_fourier.exterior import Multivector
from abelian_fourier.fourier import fourier
from abelian_fourier.hodge import hodge_lattice
from abelian_fourier.report import (
    class_from_dict,
    emit_class,
    emit_report,
    parse_class,
    parse_report,
    strip_runtimes,
    variety_to_dict,
)
from abelian_fourier.varieties import dual, standard_ppav


def run_cli(args):
    return main(args)


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")


def test_verify_genus_all_checks_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(
        ["verify", "--genus", "2", "--checks", "all", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["checks"]) == 20
    assert data["exit_status"] == 0
    assert all(c["status"] in ("pass", "skipped") for c in data["checks"])
    assert data["conventions"]


def test_verify_single_check_text(capsys):
    code = run_cli(["verify", "--genus", "1", "--checks", "claim_star"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "claim_star" in captured
    assert "PASS" in captured


def test_verify_genus_1_skips_prop45_pushforward(tmp_path):
    # one factor cannot be split in two: a skipped result, not an empty report
    out = tmp_path / "report.json"
    code = run_cli(
        ["verify", "--genus", "1", "--checks", "prop45_pushforward", "--format", "json",
         "--out", str(out)]
    )
    assert code == 0
    [check] = json.loads(out.read_text())["checks"]
    assert (check["name"], check["status"]) == ("prop45_pushforward", "skipped")
    assert "needs two factors" in check["detail"]


def test_verify_rejects_bad_variety_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    write_json(bad, {"polarization_matrix": [[1, 0], [0, 1]]})
    code = run_cli(["verify", "--variety", str(bad)])
    assert code == 2
    assert "NotAlternating" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "fourier"])
def test_a_genus_zero_variety_file_is_an_input_error(tmp_path, capsys, command):
    # both died with an IndexError traceback in varieties.dual, exit 1
    spec = tmp_path / "empty.json"
    write_json(spec, {"polarization_matrix": []})
    args = [command, "--variety", str(spec)]
    if command == "fourier":
        cls = tmp_path / "x.json"
        cls.write_text(emit_class(Multivector.unit(0)), encoding="utf-8")
        args += ["--class", str(cls), "--inverse"]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "InvalidType" in err and "genus must be positive, got 0" in err


def test_verify_unknown_check(capsys):
    assert run_cli(["verify", "--genus", "1", "--checks", "nope"]) == 2


@pytest.mark.parametrize("checks", ["", ",", " , "])
def test_verify_empty_check_list_is_an_input_error(checks, capsys):
    # a list that names no check would run nothing and report "0 passed"
    assert run_cli(["verify", "--genus", "1", "--checks", checks]) == 2
    captured = capsys.readouterr()
    assert "names no check" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("genus", ["0", "-3"])
@pytest.mark.parametrize("command", ["verify", "fourier", "hodge"])
def test_nonpositive_genus_is_an_input_error(command, genus, capsys):
    # named as a genus, not as the empty polarization type it would build
    extra = {"verify": [], "fourier": ["--class", "x.json"], "hodge": ["--degree", "2"]}
    assert run_cli([command, "--genus", genus, *extra[command]]) == 2
    captured = capsys.readouterr()
    assert f"error [InvalidType]: genus must be positive, got {genus}" in captured.err
    assert captured.out == ""


def test_verify_builds_every_model_without_revalidating(monkeypatch, capsys):
    # the models, duals and products of a verify run are built in closed
    # form from validated parts: a count, not a time
    calls = {"make_variety": 0, "is_positive_definite": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(varieties, "make_variety")
    count(intlinalg, "is_positive_definite")
    clear_caches()
    assert run_cli(["verify", "--genus", "2"]) == 0
    assert calls == {"make_variety": 0, "is_positive_definite": 0}
    # the counters are live: the public constructor still validates
    varieties.make_variety([[0, 1], [-1, 0]], [[0, -1], [1, 0]])
    assert calls == {"make_variety": 1, "is_positive_definite": 1}


@pytest.mark.parametrize("command", ["verify", "fourier", "hodge"])
def test_one_variety_flag(command, capsys):
    # --genus, --type and --variety exclude each other: a second one is a
    # usage error, not silently dropped
    extra = {"verify": [], "fourier": ["--class", "x.json"], "hodge": ["--degree", "2"]}
    assert run_cli([command, "--type", "1,2", "--genus", "5", *extra[command]]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


# int() reads "1_2" as 12, "+1" as 1, " 2" as 2 and the Arabic-Indic digit
# "\u0662" as 2; each argv below runs and exits 0 when its flags are read so
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--type", "+1,\u0662", "--checks", "fourier_involution"],
        ["verify", "--genus", "\u0662", "--checks", "fourier_involution"],
        ["verify", "--genus", "1", "--seed", "+1", "--checks", "functoriality"],
        ["fourier", "--type", "1_2", "--class", "rank2.json"],
        ["fourier", "--genus", " 1", "--class", "rank2.json"],
        ["hodge", "--type", "1_2", "--degree", "2"],
        ["hodge", "--type", "+1,\u0662", "--degree", "2"],
        ["hodge", "--genus", "2", "--degree", "0_2"],
    ],
    ids=repr,
)
def test_integer_flags_are_plain_decimals(argv, tmp_path, monkeypatch, capsys):
    # a flag takes the decimal integers that a spec file takes, else exit 2
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "rank2.json", {"rank": 2, "terms": [{"generators": [0], "coeff": 1}]})
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "not a decimal integer" in err or "must be an integer or a decimal string" in err


@pytest.mark.parametrize("command", ["fourier", "hodge"])
def test_fourier_and_hodge_need_a_model_flag(command, capsys):
    extra = {"fourier": ["--class", "x.json"], "hodge": ["--degree", "2"]}
    assert run_cli([command, *extra[command]]) == 2
    captured = capsys.readouterr()
    assert "one of the arguments --variety --genus --type is required" in captured.err
    assert captured.out == ""


FLOAT_CLASS = {"rank": 2, "terms": [{"generators": [0], "coeff": 1.5}]}
FLOAT_RANK = {"rank": 2.9, "terms": [{"generators": [0], "coeff": "1"}]}


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("fourier", FLOAT_CLASS, "coeff must be an integer or a decimal string, got 1.5"),
        ("fourier", FLOAT_RANK, "rank must be an integer or a decimal string, got 2.9"),
        ("hodge", {"a": 1}, "--certify-generators needs a JSON list of class records"),
        ("hodge", [1], "a class record must be a JSON object, got 1"),
        ("hodge", [FLOAT_CLASS], "coeff must be an integer or a decimal string"),
        ("fourier", {"rank": 2, "terms": [1]}, "a term must be a JSON object, got 1"),
        ("fourier", {"rank": 2, "terms": {"a": 1}}, "terms must be a JSON list, got {'a': 1}"),
        (
            "fourier",
            {"rank": 2, "terms": [{"generators": 0, "coeff": "1"}]},
            "generators must be a JSON list, got 0",
        ),
        (
            "fourier",
            {"rank": 2, "terms": [{"generators": [0, 0], "coeff": "1"}]},
            "repeated generator 0 in term",
        ),
        (
            "fourier",
            {"rank": 2, "terms": [{"generators": [2], "coeff": "1"}]},
            "generator 2 out of range for rank 2",
        ),
    ],
    ids=[
        "float-coeff", "float-rank", "not-a-list", "not-a-record", "float-generator",
        "term-not-a-record", "terms-not-a-list", "generators-not-a-list",
        "repeated-generator", "generator-out-of-range",
    ],
)
def test_a_malformed_class_file_is_an_input_error(tmp_path, capsys, command, payload, message):
    # never truncated to an int, never a traceback with the exit code of
    # a failed check
    path = tmp_path / "x.json"
    write_json(path, payload)
    flag = {"fourier": ["--class"], "hodge": ["--degree", "2", "--certify-generators"]}
    assert run_cli([command, "--genus", "1", *flag[command], str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, spec",
    [
        ("verify", {"polarization_matrix": [[0, 1.9], [-1.9, 0]]}),
        ("hodge", {"polarization_type": [1.7, 2]}),
        ("hodge", {"polarization_matrix": [[0, 1], [-1, 0]],
                   "complex_structure": [[0, -0.5], [2, 0]]}),
    ],
)
def test_a_float_in_a_variety_file_is_an_input_error(tmp_path, capsys, command, spec):
    path = tmp_path / "spec.json"
    write_json(path, spec)
    extra = {"verify": [], "hodge": ["--degree", "2"]}
    assert run_cli([command, "--variety", str(path), *extra[command]]) == 2
    captured = capsys.readouterr()
    assert "entry must be an integer or a decimal string" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"polarization_type": [1], "complex_structure": [["0", "-1/0"], ["1", "0"]]},
         "complex_structure entry must be an integer or a decimal string, or 'p/q' with q > 0"),
        ({"polarization_type": 5}, "polarization_type must be a JSON list, got 5"),
        ({"polarization_matrix": 3}, "polarization_matrix must be a JSON list, got 3"),
        ([1, 2], "a variety spec must be a JSON object, got [1, 2]"),
    ],
    ids=["zero-denominator", "type-not-a-list", "matrix-not-a-list", "not-an-object"],
)
def test_a_malformed_variety_file_is_an_input_error(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    write_json(path, spec)
    assert run_cli(["hodge", "--variety", str(path), "--degree", "2"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_verify_type_runs_the_type_as_an_injected_variety(tmp_path):
    # --type is the --variety path on the built-in model of that type:
    # every result agrees but for the variety name in the parameters
    spec = tmp_path / "surface.json"
    write_json(spec, {"name": "S", "genus": 2, "polarization_type": [1, 2]})
    reports = {}
    for how, flags in (("type", ["--type", "1,2"]), ("variety", ["--variety", str(spec)])):
        out = tmp_path / f"{how}.json"
        assert run_cli(["verify", *flags, "--format", "json", "--out", str(out)]) == 0
        reports[how] = json.loads(out.read_text())["checks"]
    assert len(reports["type"]) == len(reports["variety"]) == 20
    for t, v in zip(reports["type"], reports["variety"]):
        for key in ("name", "status", "detail", "witness"):
            assert t[key] == v[key]
        assert t["params"] == {**v["params"], "variety": "E_i^2(1, 2)"}
        assert v["params"]["variety"] == "S"


def test_verify_variety_file_runs_suite(tmp_path):
    spec = tmp_path / "surface.json"
    write_json(spec, {"name": "S", "genus": 2, "polarization_type": [1, 2]})
    out = tmp_path / "report.json"
    code = run_cli(
        ["verify", "--variety", str(spec), "--format", "json", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    statuses = {c["status"] for c in data["checks"]}
    assert "fail" not in statuses
    # principal-only checks are skipped on the (1,2) surface
    skipped = [c["name"] for c in data["checks"] if c["status"] == "skipped"]
    assert "beauville_exp" in skipped
    # only the randomized checks record the seed
    seeded = {c["name"] for c in data["checks"] if "seed" in c["params"]}
    assert seeded == {"functoriality", "product_exchange", "isogeny_degree"}


def test_fourier_exp_theta(tmp_path):
    A = standard_ppav(2)
    spec = tmp_path / "A.json"
    write_json(spec, variety_to_dict(A))
    cls = tmp_path / "exptheta.json"
    cls.write_text(emit_class(A.theta_class().cup_exponential()), encoding="utf-8")
    out = tmp_path / "out.json"
    code = run_cli(
        ["fourier", "--variety", str(spec), "--class", str(cls), "--out", str(out)]
    )
    assert code == 0
    got = parse_class(out.read_text())
    assert got == (-dual(A).theta_class()).cup_exponential()


def test_fourier_point_class(tmp_path):
    A = standard_ppav(1)
    spec = tmp_path / "A.json"
    write_json(spec, variety_to_dict(A))
    cls = tmp_path / "pt.json"
    cls.write_text(emit_class(A.point_class()), encoding="utf-8")
    out = tmp_path / "out.json"
    assert run_cli(["fourier", "--variety", str(spec), "--class", str(cls), "--out", str(out)]) == 0
    assert parse_class(out.read_text()) == Multivector.unit(2)


def test_fourier_inverse_roundtrip_bytes(tmp_path):
    A = standard_ppav(2)
    spec = tmp_path / "A.json"
    write_json(spec, variety_to_dict(A))
    x = Multivector(4, {0b0011: 3, 0b0110: -2, 0b1: 1})
    f1 = tmp_path / "x.json"
    f1.write_text(emit_class(x), encoding="utf-8")
    f2 = tmp_path / "y.json"
    f3 = tmp_path / "back.json"
    assert run_cli(["fourier", "--variety", str(spec), "--class", str(f1), "--out", str(f2)]) == 0
    assert (
        run_cli(
            ["fourier", "--variety", str(spec), "--class", str(f2), "--inverse", "--out", str(f3)]
        )
        == 0
    )
    assert f3.read_bytes() == f1.read_bytes()


def test_fourier_rank_mismatch(tmp_path, capsys):
    A = standard_ppav(2)
    spec = tmp_path / "A.json"
    write_json(spec, variety_to_dict(A))
    cls = tmp_path / "wrong.json"
    cls.write_text(emit_class(Multivector.unit(2)), encoding="utf-8")
    assert run_cli(["fourier", "--variety", str(spec), "--class", str(cls)]) == 2
    assert "RankMismatch" in capsys.readouterr().err


def test_hodge_rank_and_certificate(tmp_path, capsys):
    out = tmp_path / "hodge.json"
    code = run_cli(
        ["hodge", "--genus", "2", "--degree", "2", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["rank"] == 4
    assert data["ambient_dimension"] == 6
    assert all(d == "1" for d in data["saturation_divisors"])

    # degree 0 has rank 1
    out0 = tmp_path / "h0.json"
    assert run_cli(["hodge", "--genus", "2", "--degree", "0", "--format", "json", "--out", str(out0)]) == 0
    assert json.loads(out0.read_text())["rank"] == 1

    # certificate flow: the doubled point class leaves index 2 in top degree
    A = standard_ppav(2)
    gens = tmp_path / "gens.json"
    gens.write_text(
        json.dumps([json.loads(emit_class(A.point_class() * 2))]), encoding="utf-8"
    )
    outc = tmp_path / "cert.json"
    code = run_cli(
        [
            "hodge",
            "--genus",
            "2",
            "--degree",
            "4",
            "--certify-generators",
            str(gens),
            "--format",
            "json",
            "--out",
            str(outc),
        ]
    )
    assert code == 0
    cert = json.loads(outc.read_text())["certificate"]
    assert cert["cokernel_divisors"] == ["2"]
    assert cert["trivial"] is False


HODGE_GENUS_2_DEGREE_2_TEXT = """\
variety: E_i^2
degree: 2
rank: 4 (ambient 6)
saturation divisors: ['1', '1', '1', '1'] + free rank 2
  monomial [0, 1]: ['1', '0', '0', '0']
  monomial [0, 2]: ['0', '1', '0', '0']
  monomial [1, 2]: ['0', '0', '1', '0']
  monomial [0, 3]: ['0', '0', '1', '0']
  monomial [1, 3]: ['0', '0', '0', '1']
  monomial [2, 3]: ['1', '0', '0', '0']
"""


def test_hodge_text_output_and_certificate_verdicts(tmp_path, capsys):
    # the default --format text: the lattice, then with --certify-generators
    # one verdict line, trivial for the lattice basis and NONTRIVIAL once a
    # basis class is doubled
    assert run_cli(["hodge", "--genus", "2", "--degree", "2"]) == 0
    assert capsys.readouterr().out == HODGE_GENUS_2_DEGREE_2_TEXT
    basis = hodge_lattice(standard_ppav(2), 1).basis_classes()
    verdicts = {
        "trivial": (basis, "trivial (divisors ['1', '1', '1', '1'], free rank 0)"),
        "doubled": (
            [basis[0] * 2] + basis[1:],
            "NONTRIVIAL (divisors ['1', '1', '1', '2'], free rank 0)",
        ),
    }
    for label, (gens, verdict) in verdicts.items():
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps([json.loads(emit_class(x)) for x in gens]), encoding="utf-8")
        code = run_cli(["hodge", "--genus", "2", "--degree", "2", "--certify-generators", str(path)])
        assert code == 0
        assert capsys.readouterr().out == (
            HODGE_GENUS_2_DEGREE_2_TEXT + f"certificate over 4 generators: cokernel {verdict}\n"
        )


def test_hodge_certificate_names_a_wrong_generator_degree(tmp_path, capsys):
    # theta is a Hodge class, but of degree 2 where the lattice has degree 4
    A = standard_ppav(2)
    gens = tmp_path / "gens.json"
    gens.write_text(
        json.dumps([json.loads(emit_class(x)) for x in (A.point_class() * 2, A.theta_class())]),
        encoding="utf-8",
    )
    code = run_cli(["hodge", "--genus", "2", "--degree", "4", "--certify-generators", str(gens)])
    assert code == 2
    captured = capsys.readouterr()
    assert "error [NotHodge]: generator 1 has degree 2, expected degree 4" in captured.err
    assert captured.out == ""


def test_hodge_curve_lattice_genus4_is_saturated(tmp_path):
    # degree 4 on E_i^4: rank C(4,2)^2 = 36 in the C(8,4) = 70 monomials,
    # reported through the block kernel; the basis spans a direct summand
    out = tmp_path / "h4.json"
    code = run_cli(
        ["hodge", "--genus", "4", "--degree", "4", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["rank"] == 36
    assert data["ambient_dimension"] == 70
    assert data["saturation_divisors"] == ["1"] * 36
    assert data["saturation_free_rank"] == data["ambient_dimension"] - data["rank"]


def test_hodge_curve_lattice_genus6_finishes(tmp_path):
    # degree 6 on E_i^6: rank C(6,3)^2 = 400 in the C(12,6) = 924
    # monomials, a saturated sublattice
    out = tmp_path / "h6.json"
    code = run_cli(
        ["hodge", "--genus", "6", "--degree", "6", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["rank"] == 400
    assert data["ambient_dimension"] == 924
    assert data["saturation_divisors"] == ["1"] * 400
    assert data["saturation_free_rank"] == 524


def test_hodge_fails_when_the_inverse_does_not_invert_the_basis(monkeypatch, capsys):
    # the saturation that hodge reports rests on L B = I: a lattice whose
    # inverse fails it is a mathematical failure (exit 1), not an input
    # error, and prints no lattice
    import abelian_fourier.cli as cli
    from abelian_fourier.hodge import _inverse_index

    lattice = cli.hodge_lattice

    def reversed_inverse(V, k):
        lat = lattice(V, k)
        inverse = lat.inverse[::-1]
        return lat._replace(inverse=inverse, index=_inverse_index(lat.masks, inverse))

    monkeypatch.setattr(cli, "hodge_lattice", reversed_inverse)
    assert run_cli(["hodge", "--genus", "2", "--degree", "2"]) == 1
    captured = capsys.readouterr()
    assert "does not invert basis class 0" in captured.err
    assert captured.out == ""


def test_hodge_requires_complex_structure(tmp_path, capsys):
    spec = tmp_path / "bare.json"
    write_json(spec, {"name": "bare", "polarization_matrix": [[0, 1], [-1, 0]]})
    assert run_cli(["hodge", "--variety", str(spec), "--degree", "2"]) == 2
    assert "NoComplexStructure" in capsys.readouterr().err


def test_hodge_odd_degree_rejected(capsys):
    assert run_cli(["hodge", "--genus", "1", "--degree", "1"]) == 2


def test_cli_version(capsys):
    assert run_cli(["--version"]) == 0


OWN_MODEL_CHECKS = {
    "functoriality",
    "product_exchange",
    "isogeny_degree",
    "prop45_pushforward",
    "ihc_certificate_elliptic_products",
}


@pytest.mark.parametrize("how", ["type", "variety"])
def test_verify_own_model_checks_skip_a_given_variety(tmp_path, how):
    # checks that build their own principal models must not report a
    # result for the (1, 2) surface they were handed but never used
    if how == "type":
        flags = ["--type", "1,2"]
    else:
        spec = tmp_path / "surface.json"
        write_json(spec, {"name": "S", "genus": 2, "polarization_type": [1, 2]})
        flags = ["--variety", str(spec)]
    checks = ",".join(sorted(OWN_MODEL_CHECKS | {"claim_star", "theta_divided"}))
    out = tmp_path / "report.json"
    code = run_cli(["verify", *flags, "--checks", checks, "--format", "json", "--out", str(out)])
    assert code == 0
    status = {c["name"]: c["status"] for c in json.loads(out.read_text())["checks"]}
    assert status == {
        **dict.fromkeys(OWN_MODEL_CHECKS, "skipped"),
        "claim_star": "pass",
        "theta_divided": "skipped",
    }


# e0 ^ e1 on E_i^2 (and on its dual, with the same J) is not a Hodge class
NON_HODGE_E2 = Multivector(4, {0b0011: 1})


def test_verify_reports_hodge_image_failure_as_check_failure(tmp_path, monkeypatch):
    # a transform image outside the Hodge lattice is a mathematical
    # failure: the check fails with the image as witness and verify exits
    # 1, not 2 (input error)
    import abelian_fourier.hodge as hodge

    # the degree-2 basis classes of E_i^2 go to a class of the right
    # degree outside the dual's lattice
    monkeypatch.setattr(
        hodge, "fourier", lambda A, x: NON_HODGE_E2 if x.degree() == 2 else fourier(A, x)
    )
    out = tmp_path / "report.json"
    code = run_cli(
        ["verify", "--genus", "2", "--checks", "hodge_fourier_unimodular",
         "--format", "json", "--out", str(out)]
    )
    assert code == 1
    (check,) = json.loads(out.read_text())["checks"]
    assert check["status"] == "fail"
    assert "left the Hodge lattice" in check["detail"]
    assert not class_from_dict(check["witness"]).is_zero()


def test_verify_reports_a_non_unimodular_transform_as_check_failure(tmp_path, monkeypatch):
    # doubling the transform keeps every image a Hodge class but leaves a
    # cokernel Z/2: each genus of the grid fails at half-degree 0, with the
    # divisors in the detail and, as witness, the generator of the dual's
    # top-degree lattice, which the doubled transform of the unit misses
    import abelian_fourier.hodge as hodge

    monkeypatch.setattr(hodge, "fourier", lambda A, x: 2 * fourier(A, x))
    out = tmp_path / "report.json"
    code = run_cli(
        ["verify", "--checks", "hodge_fourier_unimodular", "--format", "json", "--out", str(out)]
    )
    assert code == 1
    checks = json.loads(out.read_text())["checks"]
    assert [c["params"]["genus"] for c in checks] == [1, 2, 3]
    for check in checks:
        A = standard_ppav(check["params"]["genus"])
        assert check["status"] == "fail"
        assert check["detail"] == (
            "transform matrix not unimodular at half-degree 0:"
            " cokernel invariants (2,), free rank 0"
        )
        (top,) = hodge_lattice(dual(A), A.genus).basis_classes()
        assert class_from_dict(check["witness"]) == top


@pytest.mark.parametrize("check", ["beta_surjectivity", "ihc_certificate_elliptic_products"])
def test_verify_reports_non_hodge_generator_as_check_failure(tmp_path, monkeypatch, check):
    # a divisor-to-curve class outside the Hodge lattice is a mathematical
    # failure: the check fails with that class as witness and verify exits
    # 1, not 2 (input error)
    import abelian_fourier.hodge as hodge
    import abelian_fourier.suite as suite

    # the check's first divisor becomes e0 ^ e1, whose curve class (itself,
    # at genus 2) the certificate's own lattice does not contain
    def hodge_lattice(A, k):
        lat = hodge.hodge_lattice(A, k)
        first = ((lat.masks.index(0b0011), 1),)
        return lat._replace(basis=(first, *lat.basis[1:]))

    monkeypatch.setattr(suite, "hodge_lattice", hodge_lattice)
    out = tmp_path / "report.json"
    code = run_cli(
        ["verify", "--genus", "2", "--checks", check, "--format", "json", "--out", str(out)]
    )
    assert code == 1
    (result,) = json.loads(out.read_text())["checks"]
    assert result["status"] == "fail"
    assert result["detail"] == "generator 0 is not a Hodge class"
    assert not class_from_dict(result["witness"]).is_zero()


# sha256 of the default ``verify`` JSON report after ``strip_runtimes``; a
# change that keeps every result keeps this digest
DEFAULT_REPORT_SHA256 = "a719f44fc829b60f3c53346ff8963af6c111969a540271ad96cf295105179751"

# the same for ``verify --variety FILE``, where the variety itself rides in
# the check parameters until the descriptor records its genus and name
VARIETY_REPORT_SHA256 = {
    "surface": "aee5e03bb7ee5be7eee43a22cd3f5165a6a219283ec9ac9d37e06827b01dca78",
    "rational": "d3f0393c92c830408aa4935eacd66c67642dc0c51a58d372567b2e603d0c2444",
}
VARIETY_SPECS = {
    "surface": {"name": "S", "genus": 2, "polarization_type": [1, 2]},
    "rational": {
        "name": "E_rational",
        "polarization_matrix": [[0, 1], [-1, 0]],
        "complex_structure": [["0", "-1/2"], ["2", "0"]],
    },
}


@pytest.mark.parametrize("model", sorted(VARIETY_SPECS))
def test_verify_variety_file_report_digest(tmp_path, model):
    spec = tmp_path / "spec.json"
    write_json(spec, VARIETY_SPECS[model])
    out = tmp_path / "report.json"
    assert run_cli(["verify", "--variety", str(spec), "--format", "json", "--out", str(out)]) == 0
    stripped = emit_report(strip_runtimes(parse_report(out.read_text(encoding="utf-8"))))
    assert hashlib.sha256(stripped.encode("utf-8")).hexdigest() == VARIETY_REPORT_SHA256[model]


def test_default_verify_report_digest(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["verify", "--format", "json", "--out", str(out)]) == 0
    stripped = emit_report(strip_runtimes(parse_report(out.read_text(encoding="utf-8"))))
    assert hashlib.sha256(stripped.encode("utf-8")).hexdigest() == DEFAULT_REPORT_SHA256
