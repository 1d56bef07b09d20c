"""Shared file formats: classes, varieties, and verification reports.

Every format is JSON with deterministic key order.  Coefficients and
other unbounded integers travel as decimal strings, rational matrix
entries as exact ``"p/q"`` strings; no floating point appears anywhere.
Reports are self-describing: they always embed the convention record, so
a report can be interpreted without the producing configuration.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from math import gcd

from . import __version__
from .errors import UnsupportedParams
from .exterior import Multivector, bits_of
from .suite import CONVENTIONS, CheckDescriptor, CheckResult
from .varieties import AbelianVariety, elliptic_product, make_variety, structure_scale

TOOL_NAME = "abelian-fourier"


def _int(value, what: str, other: str = "") -> int:
    """An integer field: an int (not a bool) or a decimal string.

    Anything else, a float above all, raises ``ValueError`` rather than
    being truncated to an int; ``other`` names the field's other forms.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise ValueError(f"{what} must be an integer or a decimal string{other}, got {value!r}")


def _rational(value, what: str):
    """A ``"p/q"`` string with ``q > 0``, read as a Fraction, or an integer
    field (:func:`_int`): a float or ``"1/0"`` raises ``ValueError``."""
    m = isinstance(value, str) and re.fullmatch(r"(-?[0-9]+)/(0*[1-9][0-9]*)", value)
    if not m:
        return _int(value, what, ", or 'p/q' with q > 0")
    from fractions import Fraction

    return Fraction(int(m[1]), int(m[2]))


def _json(value, kind: type, what: str):
    if isinstance(value, kind):
        return value
    name = {list: "list", dict: "object", str: "string"}[kind]
    raise ValueError(f"{what} must be a JSON {name}, got {value!r}")


def _matrix(value, what: str, entry) -> list[list]:
    """A JSON list of rows, each a list, every entry read by ``entry``."""
    return [[entry(x, f"{what} entry") for x in _json(row, list, f"{what} row")]
            for row in _json(value, list, what)]


# --- multivector class files ------------------------------------------------


def class_to_dict(x: Multivector) -> dict:
    terms = [{"generators": bits_of(m), "coeff": str(c)} for m, c in sorted(x.items())]
    return {"rank": x.rank, "terms": terms}


def class_from_dict(data: dict) -> Multivector:
    """The class of a record of :func:`class_to_dict`, every JSON shape
    checked; a generator must be in range and not repeated within its term,
    and terms on one monomial add up."""
    data = _json(data, dict, "a class record")
    rank = _int(data["rank"], "rank")
    Multivector(rank)  # a rank out of range fails before any generator is read
    terms: dict[int, int] = {}
    for rec in _json(data.get("terms", []), list, "terms"):
        rec = _json(rec, dict, "a term")
        mask = 0
        for i in _json(rec["generators"], list, "generators"):
            i = _int(i, "generator")
            if not 0 <= i < rank:
                raise ValueError(f"generator {i} out of range for rank {rank}")
            if mask >> i & 1:
                raise ValueError(f"repeated generator {i} in term {rec!r}")
            mask |= 1 << i
        terms[mask] = terms.get(mask, 0) + _int(rec["coeff"], "coeff")
    return Multivector(rank, terms)


def emit_class(x: Multivector) -> str:
    return json.dumps(class_to_dict(x), indent=2, sort_keys=True) + "\n"


def parse_class(text: str) -> Multivector:
    return class_from_dict(json.loads(text))


# --- variety spec files ------------------------------------------------------


def variety_to_dict(A: AbelianVariety) -> dict:
    out: dict = {
        "name": A.name,
        "genus": A.genus,
        "polarization_matrix": [list(row) for row in A.E],
    }
    if A.J is not None:
        # entry x of N = dJ is x/d, in lowest terms
        d = structure_scale(A.J)
        out["complex_structure"] = [
            [f"{x // gcd(x, d)}/{d // gcd(x, d)}" for x in row] for row in A.J
        ]
    return out


def variety_from_dict(data: dict) -> AbelianVariety:
    """Build a validated variety from the spec-file dictionary.

    Exactly one of ``polarization_type`` (a divisor chain, which also
    fixes the standard Gaussian complex structure) or
    ``polarization_matrix`` must be present; an explicit
    ``complex_structure`` holds rational entries as ``p/q`` strings
    (:func:`_rational`).  A field of the wrong JSON shape, a ``name``
    that is not a string included, is a ``ValueError``.
    """
    data = _json(data, dict, "a variety spec")
    name = _json(data.get("name", "A"), str, "name")
    has_type = "polarization_type" in data
    has_matrix = "polarization_matrix" in data
    if has_type == has_matrix:
        raise UnsupportedParams("need exactly one of polarization_type or polarization_matrix")
    J = None
    if "complex_structure" in data:
        J = _matrix(data["complex_structure"], "complex_structure", _rational)
    if has_type:
        delta = [_int(d, "polarization_type entry")
                 for d in _json(data["polarization_type"], list, "polarization_type")]
        if "genus" in data and _int(data["genus"], "genus") != len(delta):
            raise UnsupportedParams(
                f"genus {data['genus']} does not match type of length {len(delta)}"
            )
        A = elliptic_product(delta, name=name)
        return A if J is None else make_variety(A.E, J, name=name)
    E = _matrix(data["polarization_matrix"], "polarization_matrix", _int)
    if "genus" in data and 2 * _int(data["genus"], "genus") != len(E):
        raise UnsupportedParams(
            f"genus {data['genus']} does not match a {len(E)}-row polarization matrix"
        )
    return make_variety(E, J, name=name)


def parse_variety(text: str) -> AbelianVariety:
    return variety_from_dict(json.loads(text))


# --- verification reports ----------------------------------------------------


class ReportDocument(namedtuple("ReportDocument", "version conventions results exit_status")):
    """Machine-readable outcome of a suite run, conventions included."""

    __slots__ = ()

    @classmethod
    def from_results(cls, results) -> "ReportDocument":
        failed = any(r.status == "fail" for r in results)
        return cls(
            version=__version__,
            conventions=tuple(sorted(CONVENTIONS.items())),
            results=tuple(results),
            exit_status=1 if failed else 0,
        )


def report_to_dict(doc: ReportDocument) -> dict:
    checks = []
    for r in doc.results:
        checks.append(
            {
                "name": r.descriptor.name,
                "statement": r.descriptor.statement,
                "params": dict(r.descriptor.params),
                "status": r.status,
                "witness": None if r.witness is None else class_to_dict(r.witness),
                "detail": r.detail,
                "runtime_ms": r.runtime_ms,
            }
        )
    return {
        "tool": {"name": TOOL_NAME, "version": doc.version},
        "conventions": dict(doc.conventions),
        "checks": checks,
        "exit_status": doc.exit_status,
    }


def report_from_dict(data: dict) -> ReportDocument:
    results = []
    for rec in data.get("checks", []):
        descriptor = CheckDescriptor(
            name=rec["name"],
            statement=rec["statement"],
            params=tuple(sorted(rec.get("params", {}).items())),
        )
        witness = rec.get("witness")
        results.append(
            CheckResult(
                descriptor=descriptor,
                status=rec["status"],
                witness=None if witness is None else class_from_dict(witness),
                detail=rec.get("detail"),
                runtime_ms=int(rec.get("runtime_ms", 0)),
            )
        )
    return ReportDocument(
        version=data["tool"]["version"],
        conventions=tuple(sorted(data.get("conventions", {}).items())),
        results=tuple(results),
        exit_status=int(data["exit_status"]),
    )


def emit_report(doc: ReportDocument) -> str:
    return json.dumps(report_to_dict(doc), indent=2, sort_keys=True) + "\n"


def parse_report(text: str) -> ReportDocument:
    return report_from_dict(json.loads(text))


def strip_runtimes(doc: ReportDocument) -> ReportDocument:
    """Zero the runtime stamps; everything else is run-to-run identical."""
    return doc._replace(results=tuple(r._replace(runtime_ms=0) for r in doc.results))


def emit_text(doc: ReportDocument) -> str:
    """Human-readable report with identical verdicts to the JSON form."""
    lines = [f"{TOOL_NAME} {doc.version}"]
    lines.append("conventions:")
    for key, val in doc.conventions:
        lines.append(f"  {key}: {val}")
    lines.append("checks:")
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for r in doc.results:
        counts[r.status] = counts.get(r.status, 0) + 1
        params = ", ".join(f"{k}={v}" for k, v in r.descriptor.params)
        line = f"  [{r.status.upper():7}] {r.descriptor.name}({params}) ({r.runtime_ms} ms)"
        if r.detail:
            line += f" -- {r.detail}"
        lines.append(line)
        if r.witness is not None:
            lines.append(f"            witness: {r.witness!r}")
    lines.append(
        f"summary: {counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['skipped']} skipped"
    )
    lines.append(f"exit status: {doc.exit_status}")
    return "\n".join(lines) + "\n"
