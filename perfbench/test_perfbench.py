"""Tests of the benchmark's tracer and workloads.

They are not part of the package's test suite; run them with::

    python3 -m pytest -q perfbench

A traced and an untraced ``verify_default`` pass each take about twenty
seconds, so the whole file takes about a minute and a half.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layertrace import CACHED, TRACED, LayerTracer  # noqa: E402
from run import COUNT_SUFFIXES  # noqa: E402
from workloads import WORKLOADS, SpeedProbe, import_package, run_pass  # noqa: E402

af = import_package()

_passes: dict[tuple[str, bool, int], dict] = {}


def cached_pass(workload: str, trace: bool, index: int = 0) -> dict:
    """Pass number ``index`` of a workload at seed 1, run once per session."""
    key = (workload, trace, index)
    if key not in _passes:
        _passes[key] = run_pass(workload, 1, trace)
    return _passes[key]


def _bindings():
    """Every binding of a traced or cached function in the package."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is None or not (name == "abelian_fourier" or name.startswith("abelian_fourier.")):
            continue
        for ns in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
            for attr, value in vars(ns).items():
                if callable(value):
                    out[(id(ns), attr)] = value
    return out


def test_tracer_wraps_every_binding_and_restores_them():
    from abelian_fourier import cli, report  # noqa: F401  (the tracer loads every layer)
    mods = {m: sys.modules[f"abelian_fourier.{m}"] for m in ("fourier", "hodge", "suite", "cli")}
    original = af.fourier
    before = _bindings()
    with LayerTracer() as tracer:
        # the package-level name, the defining module and every importer
        assert af.fourier is not original
        for mod in mods.values():
            assert mod.fourier is af.fourier
        # the operator alias shares the wrapper of the method it aliases
        assert af.Multivector.__xor__ is af.Multivector.wedge
        assert af.Multivector.wedge.__wrapped__ is before[(id(af.Multivector), "wedge")]
        # memo tables stay reachable for clear_caches() and cache_info()
        for module, fn in CACHED:
            assert hasattr(getattr(sys.modules[f"abelian_fourier.{module}"], fn), "cache_info")
        af.clear_caches()
        x = af.Multivector(2, {1: 1})
        assert (x ^ af.Multivector(2, {2: 1})) == x.wedge(af.Multivector(2, {2: 1}))
    assert tracer.stats["exterior.Multivector.wedge"].calls == 2
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert len(TRACED) == len(tracer.stats)


def test_traced_verify_gives_the_untraced_report():
    plain = cached_pass("verify_default", False)
    traced = cached_pass("verify_default", True)
    assert all(ok for *_, ok in plain["items"])
    assert all(ok for *_, ok in traced["items"])
    assert traced["report_sha256"] == plain["report_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_fit_in_the_pass(workload):
    traced = cached_pass(workload, True)
    assert 0 < sum(traced["layer_self_ms"].values()) <= traced["wall_s"] * 1000


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracer_cost_is_a_small_positive_share(workload):
    traced = cached_pass(workload, True)
    assert 0 < traced["trace_overhead_s"] < traced["wall_s"] / 2


def test_speed_probe_samples_and_its_time_is_not_counted():
    with SpeedProbe(0.01) as probe:
        start, raw = probe.clock()[0], perf_counter()
        while perf_counter() - raw < 0.2:
            pass
        elapsed, raw_elapsed = probe.clock()[0] - start, perf_counter() - raw
    assert len(probe.samples) >= 10
    assert elapsed == pytest.approx(raw_elapsed - sum(probe.samples[1:]), abs=2e-3)


def test_only_untraced_passes_are_probed():
    assert cached_pass("verify_default", False)["probe_s"] > 0
    assert "probe_s" not in cached_pass("verify_default", True)


def test_items_are_timed_from_outside():
    plain = cached_pass("verify_default", False)
    assert len(plain["items"]) == len(af.default_suite())
    assert all(s > 0 and c >= 0 for _, s, c, _, _ in plain["items"])
    assert sum(s for _, s, *_ in plain["items"]) <= plain["wall_s"]
    # the long checks are rescaled by the probe samples taken while they ran
    assert any(q for *_, q, _ in plain["items"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_at_the_same_seed(workload):
    first = cached_pass(workload, True, 0)["layers"]
    second = cached_pass(workload, True, 1)["layers"]
    counts = [name for name in first if name.endswith(COUNT_SUFFIXES)]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
