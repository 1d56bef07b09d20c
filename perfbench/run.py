"""Benchmark of ``abelian_fourier``: three workloads, checked, timed and traced.

Run everything (every workload untraced, then traced) with::

    python3 perfbench/run.py

or one workload with the arguments ``BENCHMARK.json`` describes::

    python3 perfbench/run.py --workload hodge_certify --seed 3 --seconds 35 --trace 0

Each pass of a workload runs in its own worker process started from this
one, one at a time.  A run makes passes for about ``--seconds``, at
least two; with ``--trace 1`` every pass is traced.  The time metrics
are medians over the passes of each pass's times rescaled to a fixed
speed of the probe loop the pass samples as it runs.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones.  See ``README.md``
in this directory for what each metric and workload means, and why times
are rescaled.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SRC, WORKLOADS  # noqa: E402

WORKER = HERE / "workloads.py"
BASELINE = HERE / "baseline.json"
BENCHMARK = HERE.parent / "BENCHMARK.json"
IMPORT_SAMPLES = 51
# A typical time of ``workloads.probe_loop`` on the two-processor machine
# the baseline was recorded on, where it varied from 0.21 to 0.31 ms.
# Every time metric is rescaled to this probe time.
REFERENCE_PROBE_S = 0.25e-3
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "slowest_item_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# The per-layer values that are counts: they must repeat exactly.
COUNT_SUFFIXES = (".calls", ".pairs", ".terms_in", ".terms_out", ".max_dim",
                  ".hit_frac", ".zero_frac", ".yield")

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import abelian_fourier\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from workloads import probe_time\n"
    "print(t, probe_time(), abelian_fourier.__file__)\n"
)


class BenchError(RuntimeError):
    """A worker could not run; the benchmark prints no result."""


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith(".yield"):
        return "terms/pair"
    return "count"


def measure_setup_s() -> float:
    """Median time to ``import abelian_fourier`` in a fresh interpreter,
    each import rescaled by the probe time that interpreter measures
    right after it, as a pass's times are."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing the package failed:\n{proc.stderr.strip()}")
        seconds, probe_s, origin = proc.stdout.split(maxsplit=2)
        if SRC.resolve() not in Path(origin.strip()).resolve().parents:
            raise BenchError(f"abelian_fourier was imported from {origin.strip()}, not {SRC}")
        samples.append(float(seconds) * REFERENCE_PROBE_S / float(probe_s))
    return statistics.median(samples)


def run_worker(workload: str, seed: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
         "--trace", str(int(trace))],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Worker passes for about ``seconds``: at least two, and another only
    while the run is expected to end within ``seconds``."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_worker(workload, seed, trace))
        elapsed = perf_counter() - start
        if len(passes) >= 2 and elapsed + elapsed / len(passes) > seconds:
            return passes


def tally(passes) -> tuple[int, int]:
    items = [item for p in passes for item in p["items"]]
    return len(items), sum(1 for *_, ok in items if not ok)


def end_to_end(passes, setup_s: float) -> dict[str, float]:
    """Medians over the passes of times rescaled by the reference probe
    time over the probe time measured meanwhile: over the whole pass, or
    over an item that ran long enough to have its own.  The set-up time
    was rescaled likewise by ``measure_setup_s``."""
    def rescaled(p, seconds, probe_s=None):
        return seconds * REFERENCE_PROBE_S / (probe_s or p["probe_s"])

    def median(value):
        return statistics.median(value(p) for p in passes)

    return {
        "wall_s": median(lambda p: rescaled(p, p["wall_s"])),
        "cpu_s": median(lambda p: rescaled(p, p["cpu_s"])),
        "slowest_item_s": median(lambda p: max(rescaled(p, item[1], item[3]) for item in p["items"])),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": setup_s,
    }


def per_layer(passes) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics: counts, which must agree between the traced
    passes, the median of each time, and the tracer's estimated cost."""
    problems = []
    first = passes[0]["layers"]
    metrics = {}
    for name, value in first.items():
        values = [p["layers"][name] for p in passes]
        if name.endswith(COUNT_SUFFIXES):
            if any(v != value for v in values):
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = value
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = statistics.median(
        p["trace_overhead_s"] / (p["wall_s"] - p["trace_overhead_s"]) for p in passes)
    return metrics, problems


def digest_problems(passes) -> list[str]:
    """Report digests must agree between passes; a change against the
    recorded baseline is flagged but is not an error."""
    digests = {p["report_sha256"] for p in passes if "report_sha256" in p}
    if not digests:
        return []
    if len(digests) > 1:
        return [f"stripped report differs between passes: {sorted(digests)}"]
    (digest,) = digests
    recorded = None
    if BASELINE.is_file():
        recorded = json.loads(BASELINE.read_text()).get("verify_default_report_sha256")
    if recorded is None:
        note = "no baseline recorded"
    elif recorded == digest:
        note = "matches the baseline"
    else:
        note = f"CHANGED from the baseline {recorded}"
    print(f"  report_sha256 = {digest} ({note})")
    return []


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run, check and summarize one workload; returns the result object."""
    setup_s = None if trace else measure_setup_s()
    passes = run_passes(workload, seed, seconds, trace)
    attempted, failed = tally(passes)
    print(f"{workload} (seed {seed}, {len(passes)} {'traced' if trace else 'untraced'} passes):")
    problems = digest_problems(passes)
    for p in passes:
        if "error" in p:
            problems.append(p["error"])
    print(f"  failed_frac = {failed / attempted:.4g} ({failed} of {attempted} items)")
    if trace:
        metrics, more = per_layer(passes)
        problems += more
        layer_ms = {}
        for p in passes:
            for layer, ms in p["layer_self_ms"].items():
                layer_ms.setdefault(layer, []).append(ms)
        total = sum(statistics.median(v) for v in layer_ms.values()) or 1.0
        for layer, values in layer_ms.items():
            ms = statistics.median(values)
            print(f"  layer {layer}: self {ms:.1f} ms ({100 * ms / total:.1f}% of traced self time)")
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(passes, setup_s)
        units = END_TO_END_UNITS
        print(f"  unscaled: median wall_s {statistics.median(p['wall_s'] for p in passes):.6g} s, "
              f"median probe {1000 * statistics.median(p['probe_s'] for p in passes):.4g} ms "
              f"(reference {1000 * REFERENCE_PROBE_S:.4g} ms)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: the run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run "
                             "(with --workload all, both are always run)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                for trace in (False, True):
                    part = run_workload(workload, args.seed, args.seconds, trace)
                    result["correct"] = result["correct"] and part["correct"]
                    result["attempted"] += part["attempted"]
                    result["failed"] += part["failed"]
                    for name, metric in part["metrics"].items():
                        result["metrics"][f"{workload}.{name}"] = metric
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
