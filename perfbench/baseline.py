"""Repeat the benchmark over seeds, report its spread, record a baseline.

Runs ``run.py`` once per seed on each workload with the ``run_seconds``
of ``BENCHMARK.json``, and prints for every end-to-end metric the median,
the quartiles and their distance as a share of the median (the spread),
next to the metric's bound.  With ``--write`` it also makes one traced run
per workload and writes everything to ``baseline.json`` together with the
stripped-report digest of ``verify_default``, the Python version, the
number of processors and the git revision::

    python3 perfbench/baseline.py --write

The seeds are 1 to 10.  One run of every workload takes about two
minutes, so ten runs each take about twenty.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 900
SEEDS = list(range(1, 11))


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    spec = bench_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="also trace each workload once and write baseline.json")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "end_to_end": {},
        "per_layer": {},
    }
    steady = True
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            result, stdout = run_once(workload, seed, seconds, False)
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs NOT correct", file=sys.stderr)
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {metric['value']:.6g}" for name, metric in result["metrics"].items()),
                flush=True)
            digest = re.search(r"report_sha256 = ([0-9a-f]{64})", stdout)
            if digest:
                out["verify_default_report_sha256"] = digest.group(1)
        out["end_to_end"][workload] = {name: summarize(v) for name, v in values.items()}
        print(f"{workload}:")
        for name, s in out["end_to_end"][workload].items():
            ok = s["spread"] < bounds[name] / 3
            steady = steady and ok
            print(f"  {name:16} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}  bound {bounds[name]}  {'ok' if ok else 'WIDE'}")
        if args.write:
            traced, _ = run_once(workload, SEEDS[0], seconds, True)
            out["per_layer"][workload] = {n: m["value"] for n, m in traced["metrics"].items()}
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print("every spread is below a third of its bound" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
