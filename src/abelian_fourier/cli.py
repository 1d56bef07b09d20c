"""Command-line surface: verify suites, transform classes, compute lattices.

Three subcommands, all file-driven and deterministic:

* ``verify``  -- run identity checks and emit a report (text or JSON);
* ``fourier`` -- transform a class file, optionally inverting;
* ``hodge``   -- compute a Hodge lattice, optionally certifying supplied
  generators against it.

Exit codes: 0 when everything ran and passed, 1 when some check failed,
2 on input errors (bad flags, malformed or invalid files).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import CheckFailure, RankMismatch, UnknownCheck, UnsupportedParams
from .exterior import bits_of
from .fourier import fourier, inverse_fourier
from .hodge import hodge_lattice, voisin_certificate
from .intlinalg import cokernel_invariants
from .report import (
    ReportDocument,
    class_from_dict,
    emit_class,
    emit_report,
    emit_text,
    parse_class,
    parse_variety,
)
from .suite import REGISTRY, default_suite, run_check
from .varieties import elliptic_product, standard_ppav

# Every input error of the package (UnsupportedParams, RankMismatch,
# NoComplexStructure, NotHodge, NotAlternating, ...) is a ValueError,
# UnknownCheck a KeyError, and a malformed file a JSONDecodeError.
# Within a check ``run_check`` turns an UnsupportedParams into ``skipped``.
# A mathematical failure is a CheckFailure, an ArithmeticError: within a
# check it is a ``fail`` with its witness, elsewhere ``main`` exits 1.
_INPUT_ERRORS = (ValueError, KeyError, OSError)


def run_check_lenient(name: str, **params):
    # the per-check call of ``verify``, which benchmarks rebind; it looks
    # ``run_check`` up when called, so a tracer that wraps that sees each check
    return run_check(name, **params)


def _write(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_variety_arg(args):
    if args.variety:
        with open(args.variety, encoding="utf-8") as fh:
            return parse_variety(fh.read())
    if args.type:
        return elliptic_product(tuple(int(d) for d in args.type.split(",")))
    if args.genus is not None:
        return standard_ppav(args.genus)
    return None


def _cmd_verify(args) -> int:
    variety = _load_variety_arg(args)
    if args.checks in (None, "all"):
        names = None
    else:
        names = [n.strip() for n in args.checks.split(",") if n.strip()]
        if not names:
            raise UnsupportedParams(f"--checks {args.checks!r} names no check")
        for n in names:
            if n not in REGISTRY:
                raise UnknownCheck(n)

    grid = default_suite(genus=None if variety is None else variety.genus, seed=args.seed)
    if args.variety:
        grid = [(n, dict(p, variety=variety)) for n, p in grid]
    elif variety is not None and not variety.is_principal:
        grid = [(n, dict(p, type=variety.polarization_type)) for n, p in grid]
    if names is not None:
        grid = [(n, p) for n, p in grid if n in names]
    results = [run_check_lenient(name, **params) for name, params in grid]

    results.sort(key=lambda r: (r.descriptor.name, repr(r.descriptor.params)))
    doc = ReportDocument.from_results(results)
    _write(emit_report(doc) if args.format == "json" else emit_text(doc), args.out)
    return doc.exit_status


def _cmd_fourier(args) -> int:
    variety = _load_variety_arg(args)
    if variety is None:
        raise UnsupportedParams("fourier needs --variety (or --genus/--type)")
    with open(args.class_file, encoding="utf-8") as fh:
        x = parse_class(fh.read())
    if x.rank != variety.rank:
        raise RankMismatch(
            f"class has rank {x.rank}, variety {variety.name} has rank {variety.rank}"
        )
    y = inverse_fourier(variety, x) if args.inverse else fourier(variety, x)
    _write(emit_class(y), args.out)
    return 0


def _cmd_hodge(args) -> int:
    variety = _load_variety_arg(args)
    if variety is None:
        raise UnsupportedParams("hodge needs --variety (or --genus/--type)")
    if args.degree % 2:
        raise UnsupportedParams(f"--degree must be even, got {args.degree}")
    k = args.degree // 2
    lat = hodge_lattice(variety, k)
    ambient = lat.ambient_dimension()
    saturation = cokernel_invariants([list(row) for row in lat.basis], ambient)
    payload = {
        "variety": variety.name,
        "degree": 2 * k,
        "rank": lat.rank,
        "ambient_dimension": ambient,
        "basis_monomials": [bits_of(m) for m in lat.masks],
        "basis": [[str(x) for x in row] for row in lat.basis],
        "saturation_divisors": [str(d) for d in saturation.divisors],
        "saturation_free_rank": saturation.free_rank,
    }
    if args.certify_generators:
        with open(args.certify_generators, encoding="utf-8") as fh:
            records = json.load(fh)
        gens = [class_from_dict(rec) for rec in records]
        cok = voisin_certificate(variety, k, gens)
        payload["certificate"] = {
            "generators": len(gens),
            "cokernel_divisors": [str(d) for d in cok.divisors],
            "cokernel_free_rank": cok.free_rank,
            "trivial": cok.is_trivial,
        }
    if args.format == "json":
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [
            f"variety: {payload['variety']}",
            f"degree: {payload['degree']}",
            f"rank: {payload['rank']} (ambient {payload['ambient_dimension']})",
            f"saturation divisors: {payload['saturation_divisors']}"
            f" + free rank {payload['saturation_free_rank']}",
        ]
        for mono, col in zip(payload["basis_monomials"], payload["basis"]):
            lines.append(f"  monomial {mono}: {col}")
        if "certificate" in payload:
            cert = payload["certificate"]
            verdict = "trivial" if cert["trivial"] else "NONTRIVIAL"
            lines.append(
                f"certificate over {cert['generators']} generators: cokernel "
                f"{verdict} (divisors {cert['cokernel_divisors']}, free rank "
                f"{cert['cokernel_free_rank']})"
            )
        _write("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abelian-fourier",
        description="Exact Fourier calculus and Hodge certificates for abelian varieties",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity verification suite")
    model = p_verify.add_mutually_exclusive_group()
    model.add_argument("--genus", type=int, help="run every check at this genus")
    model.add_argument("--variety", help="variety spec file (JSON)")
    model.add_argument("--type", help="polarization type, e.g. 1,2")
    p_verify.add_argument("--checks", default="all", help="comma list of check names, or 'all'")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", help="write the report here instead of stdout")
    p_verify.set_defaults(fn=_cmd_verify)

    p_fourier = sub.add_parser("fourier", help="transform a class file")
    model = p_fourier.add_mutually_exclusive_group()
    model.add_argument("--variety", help="variety spec file (JSON)")
    model.add_argument("--genus", type=int, help="use the built-in principal model")
    model.add_argument("--type", help="use the built-in model of this type")
    p_fourier.add_argument("--class", dest="class_file", required=True, help="class file (JSON)")
    p_fourier.add_argument(
        "--inverse",
        action="store_true",
        help="apply the inverse transform (input lives on the dual)",
    )
    p_fourier.add_argument("--out", help="write the transformed class here")
    p_fourier.set_defaults(fn=_cmd_fourier)

    p_hodge = sub.add_parser("hodge", help="compute a Hodge-class lattice")
    model = p_hodge.add_mutually_exclusive_group()
    model.add_argument("--variety", help="variety spec file (JSON)")
    model.add_argument("--genus", type=int, help="use the built-in principal model")
    model.add_argument("--type", help="use the built-in model of this type")
    p_hodge.add_argument("--degree", type=int, required=True, help="cohomological degree 2k")
    p_hodge.add_argument(
        "--certify-generators",
        help="JSON list of class records; report the cokernel they leave",
    )
    p_hodge.add_argument("--format", choices=("text", "json"), default="text")
    p_hodge.add_argument("--out", help="write the lattice report here")
    p_hodge.set_defaults(fn=_cmd_hodge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize --version/-h to 0
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except CheckFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        reason = exc.__class__.__name__
        print(f"error [{reason}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
