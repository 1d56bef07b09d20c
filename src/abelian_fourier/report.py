"""Shared file formats: classes, varieties, and verification reports.

Every format is JSON with deterministic key order.  Coefficients and
other unbounded integers travel as decimal strings, rational matrix
entries as exact ``"p/q"`` strings; no floating point appears anywhere.
Reports are self-describing: they always embed the convention record, so
a report can be interpreted without the producing configuration.
"""

from __future__ import annotations

import json
from collections import namedtuple

from . import __version__
from .errors import UnsupportedParams
from .exterior import Multivector
from .suite import CONVENTIONS, CheckDescriptor, CheckResult, _canonical_params
from .varieties import AbelianVariety, elliptic_product, make_variety

TOOL_NAME = "abelian-fourier"


# --- multivector class files ------------------------------------------------


def class_to_dict(x: Multivector) -> dict:
    return {"rank": x.rank, "terms": x.to_records()}


def class_from_dict(data: dict) -> Multivector:
    return Multivector.from_records(int(data["rank"]), data.get("terms", []))


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
        out["complex_structure"] = [
            [f"{x.numerator}/{x.denominator}" for x in row] for row in A.J
        ]
    return out


def variety_from_dict(data: dict) -> AbelianVariety:
    """Build a validated variety from the spec-file dictionary.

    Exactly one of ``polarization_type`` (a divisor chain, which also
    fixes the standard Gaussian complex structure) or
    ``polarization_matrix`` must be present; an explicit
    ``complex_structure`` holds rational entries as ``p/q`` strings.
    """
    from fractions import Fraction

    name = str(data.get("name", "A"))
    has_type = "polarization_type" in data
    has_matrix = "polarization_matrix" in data
    if has_type == has_matrix:
        raise UnsupportedParams(
            "need exactly one of polarization_type or polarization_matrix"
        )
    if has_type:
        delta = tuple(int(d) for d in data["polarization_type"])
        if "genus" in data and int(data["genus"]) != len(delta):
            raise UnsupportedParams(
                f"genus {data['genus']} does not match type of length {len(delta)}"
            )
        A = elliptic_product(delta, name=name)
        if "complex_structure" in data:
            J = [[Fraction(str(x)) for x in row] for row in data["complex_structure"]]
            A = make_variety(A.E, J, name=name)
        return A
    E = [[int(x) for x in row] for row in data["polarization_matrix"]]
    if "genus" in data and 2 * int(data["genus"]) != len(E):
        raise UnsupportedParams(
            f"genus {data['genus']} does not match a {len(E)}-row polarization matrix"
        )
    J = None
    if "complex_structure" in data:
        J = [[Fraction(str(x)) for x in row] for row in data["complex_structure"]]
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


def _params_to_json(params: tuple) -> dict:
    out = {}
    for key, val in params:
        if isinstance(val, tuple):
            out[key] = [list(v) if isinstance(v, tuple) else v for v in val]
        else:
            out[key] = val
    return out


def report_to_dict(doc: ReportDocument) -> dict:
    checks = []
    for r in doc.results:
        checks.append(
            {
                "name": r.descriptor.name,
                "statement": r.descriptor.statement,
                "params": _params_to_json(r.descriptor.params),
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
            params=_canonical_params(rec.get("params", {})),
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
