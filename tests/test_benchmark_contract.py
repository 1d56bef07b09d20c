"""What the benchmark in ``perfbench/`` needs of the package.

The tracer rebinds the functions it lists by name and reads the memo
tables it lists, and the verify workload times each check by patching
``cli.run_check_lenient``.  A change that renames or removes one of these
then fails here instead of in the benchmark run.  The benchmark files are
read, never imported, so no bytecode is written next to them.
"""

import json
import re
import sys
import types
from pathlib import Path

import abelian_fourier
from abelian_fourier import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    lt = load_perfbench("layertrace")
    # resolved as the tracer resolves them on entry
    for module, path, _ in lt.TRACED:
        owner = sys.modules[f"{lt.PACKAGE}.{module}"]
        for part in path.split("."):
            owner = vars(owner)[part] if isinstance(owner, type) else getattr(owner, part)
        assert callable(owner), f"{module}.{path}"
    for module, fn in lt.CACHED:
        assert hasattr(getattr(sys.modules[f"{lt.PACKAGE}.{module}"], fn), "cache_info")
    suite = sys.modules["abelian_fourier.suite"]
    with lt.LayerTracer() as tracer:
        # looked up in the module, where the tracer rebinds it
        assert suite.run_check("fourier_involution", genus=1).status == "pass"
    metrics = tracer.metrics()
    assert metrics["fourier.fourier.calls"] > 0
    assert metrics["suite.check.fourier_involution.ms"] > 0
    # one metric per traced name and per registered check, and the tracer's
    # own overhead: exactly the per-layer metrics the benchmark declares
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(metrics) | {"trace.overhead_frac"} == {m["name"] for m in declared["per_layer"]}
    # every wrapper was taken off again
    assert not hasattr(abelian_fourier.fourier, "__wrapped__")


def test_workloads_use_existing_package_names():
    source = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\baf\.(\w+)", source))
    assert names
    assert [n for n in sorted(names) if not hasattr(abelian_fourier, n)] == []


def test_verify_runs_each_check_through_run_check_lenient(monkeypatch):
    seen = []
    original = cli.run_check_lenient

    def recording(name, **params):
        seen.append(name)
        return original(name, **params)

    monkeypatch.setattr(cli, "run_check_lenient", recording)
    assert cli.main(["verify", "--genus", "1", "--checks", "claim_star,eq35_minclass"]) == 0
    assert sorted(seen) == ["claim_star", "eq35_minclass"]


def test_the_verify_hook_taken_before_tracing_is_traced():
    # the verify workload keeps cli.run_check_lenient before the tracer
    # wraps run_check and calls the kept function inside the tracer, so the
    # hook must look run_check up when called, not hold the unwrapped one
    lt = load_perfbench("layertrace")
    hook = cli.run_check_lenient
    with lt.LayerTracer() as tracer:
        assert hook("fourier_involution", genus=1).status == "pass"
    metrics = tracer.metrics()
    assert metrics["suite.check.fourier_involution.ms"] > 0
    assert metrics["suite.run_check.self_ms"] > 0


def test_certificates_and_the_saturation_check_read_coordinates_traced():
    # HodgeLattice.coordinates is the one reader of a lattice's left
    # inverse; a certificate or check that bypassed it would hide that work
    # from hodge.HodgeLattice.coordinates in the benchmark
    lt = load_perfbench("layertrace")
    hodge = sys.modules["abelian_fourier.hodge"]
    A = abelian_fourier.standard_ppav(2)
    lat = hodge.hodge_lattice(A, 1)
    basis = lat.basis_classes()
    gens = [basis[0], basis[1] * 2 - basis[3], basis[2]]
    with lt.LayerTracer() as tracer:
        assert hodge.voisin_certificate(A, 1, gens).free_rank == 1
    assert tracer.metrics()["hodge.HodgeLattice.coordinates.calls"] == len(gens)
    with lt.LayerTracer() as tracer:
        lat.check_saturated()
    assert tracer.metrics()["hodge.HodgeLattice.coordinates.calls"] == lat.rank
