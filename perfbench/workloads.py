"""The benchmark's workloads, and the worker that runs one pass of one.

A pass runs a workload's items once, starting from ``clear_caches()``,
and then checks every item's output.  ``run.py`` starts one worker
process per pass, so a pass also pays for every memo table and lazy
construction, as a command-line user does on each invocation, and its
peak resident memory is that of one pass.

Run a single pass by hand with::

    python3 perfbench/workloads.py --workload hodge_certify --seed 1 --trace 1

It prints one JSON object describing the pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import sys
from contextlib import nullcontext
from math import comb
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# transform_roundtrip: models, class densities and classes per (model, density)
TRANSFORM_MODELS = (("ppav", 4), ("ppav", 5), ("type", (1, 1, 1, 2, 2)))
DENSITIES = ("sparse", "medium", "dense")
CLASSES_PER_CELL = 4
MEDIUM_TERMS = 64

# hodge_certify: genus-5 lattices, genus-4 transform matrices and certificate
LATTICE_GENUS = 5
CERTIFY_GENUS = 4
BASIS_MIXING_STEPS = 16

# How often an untraced pass stops to time the speed probe, and how many
# probe samples an item needs to be rescaled by its own (half a second's
# worth: the machine's speed changes every few seconds).
PROBE_INTERVAL_S = 0.1
ITEM_PROBE_SAMPLES = 5
# How many times a fresh interpreter runs the probe after importing the package.
IMPORT_PROBE_REPEATS = 21


class PackageMissing(RuntimeError):
    """The checkout has no importable ``src/abelian_fourier``."""


def import_package():
    """Import ``abelian_fourier`` from this checkout's ``src``, and only there."""
    if not (SRC / "abelian_fourier" / "__init__.py").is_file():
        raise PackageMissing(f"no package sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import abelian_fourier

    origin = Path(abelian_fourier.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise PackageMissing(f"abelian_fourier was imported from {origin}, not {SRC}")
    return abelian_fourier


# -- inputs -------------------------------------------------------------------


def _model(af, spec):
    kind, arg = spec
    return af.standard_ppav(arg) if kind == "ppav" else af.elliptic_product(arg)


def transform_inputs(seed: int) -> list[tuple[int, str, int, dict[int, int]]]:
    """Seeded classes as ``(model index, density, rank, terms)``.

    Sparse classes have 1 to 4 terms like the named classes, medium ones
    64, dense ones half of all ``2^{2g}`` monomials.
    """
    rng = random.Random(seed)
    out = []
    for index, (kind, arg) in enumerate(TRANSFORM_MODELS):
        rank = 2 * (arg if kind == "ppav" else len(arg))
        for density in DENSITIES:
            for _ in range(CLASSES_PER_CELL):
                n = {
                    "sparse": rng.randint(1, 4),
                    "medium": MEDIUM_TERMS,
                    "dense": 1 << (rank - 1),
                }[density]
                masks = rng.sample(range(1 << rank), n)
                terms = {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in masks}
                out.append((index, density, rank, terms))
    return out


def divisor_mixing(seed: int, n: int) -> list[list[int]]:
    """A seeded unimodular ``n x n`` integer matrix.

    Its rows recombine a divisor basis into another basis, so the
    certificate must still come out trivial.
    """
    rng = random.Random(seed)
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(BASIS_MIXING_STEPS):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    rng.shuffle(U)
    return U


# -- the speed probe ----------------------------------------------------------


def probe_loop() -> int:
    """A fixed piece of pure-Python work, about a quarter of a millisecond."""
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


def trimmed_mean(values) -> float:
    """The mean of the values without their lowest and highest tenth."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


def probe_time() -> float:
    """Trimmed mean time of ``probe_loop`` run ``IMPORT_PROBE_REPEATS``
    times in a row."""
    times = []
    for _ in range(IMPORT_PROBE_REPEATS):
        start = perf_counter()
        probe_loop()
        times.append(perf_counter() - start)
    return trimmed_mean(times)


class SpeedProbe:
    """Samples how fast the machine runs Python while a pass runs.

    On a shared machine the same pass runs up to half again as long from
    one minute to the next, in wall and CPU time alike, as other load
    comes and goes.  While entered, a timer signal interrupts the pass
    every ``interval`` seconds to time ``probe_loop``, and ``samples``
    holds those times.  ``run.py`` rescales the pass's times by a fixed
    probe time over their trimmed mean, which tracked the pass's own
    slowdown more closely than their median did.  ``clock()`` reads wall
    and CPU clocks that stand still while the probe runs, so the probe's
    own time is not counted.  With ``interval`` 0 (traced passes) nothing
    is sampled.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self._wall = 0.0
        self._cpu = 0.0
        self._handler = None

    def clock(self) -> tuple[float, float]:
        return perf_counter() - self._wall, process_time() - self._cpu

    def since(self, first: int) -> float | None:
        """Trimmed mean of the samples from number ``first`` on, if there
        are enough of them to stand for the time since."""
        recent = self.samples[first:]
        return trimmed_mean(recent) if len(recent) >= ITEM_PROBE_SAMPLES else None

    def _tick(self, signum=None, frame=None):
        cpu, start = process_time(), perf_counter()
        probe_loop()
        seconds = perf_counter() - start
        self.samples.append(seconds)
        self._wall += seconds
        self._cpu += process_time() - cpu

    def __enter__(self):
        if self.interval:
            self._tick()
            self._handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
        return False


# -- passes -------------------------------------------------------------------


def _timed_items(af, items, tracer, probe):
    """Run ``(label, thunk)`` items from empty caches; time each one.

    Returns the pass wall and CPU seconds and, per item, its label, wall
    and CPU seconds, probe time while it ran (``None`` if it was too short
    to tell) and output (or the exception it raised).
    """
    af.clear_caches()
    results = []
    with tracer, probe:
        t0, c0 = probe.clock()
        for label, thunk in items:
            first = len(probe.samples)
            start, cpu_start = probe.clock()
            try:
                out = thunk()
            except Exception as exc:  # an item that raises counts as failed
                out = exc
            end, cpu_end = probe.clock()
            results.append((label, end - start, cpu_end - cpu_start, probe.since(first), out))
        t1, c1 = probe.clock()
    return t1 - t0, c1 - c0, results


def pass_verify_default(af, seed: int, tracer, probe) -> dict:
    """``abelian-fourier verify --format json`` over the default grid.

    The seed is not used: the workload is the command as users run it,
    whose randomized checks take the CLI's default seed.  Varying that
    seed changes how much work the functoriality check does, which would
    measure the seed rather than the code.
    """
    from abelian_fourier import cli, report

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"verify-{os.getpid()}.json"
    argv = ["verify", "--format", "json", "--out", str(out_path)]

    # Each check is timed here, around the call the CLI makes, rather than
    # taken from the report's ``runtime_ms``: that is the program's own
    # figure, whose span and rounding the program may change.
    run_check_lenient = cli.run_check_lenient
    checks = []

    def timed_check(name, **params):
        first = len(probe.samples)
        start, cpu_start = probe.clock()
        result = run_check_lenient(name, **params)
        end, cpu_end = probe.clock()
        checks.append((result, end - start, cpu_end - cpu_start, probe.since(first)))
        return result

    cli.run_check_lenient = timed_check
    try:
        wall, cpu, [(*_, status)] = _timed_items(
            af, [("verify", lambda: cli.main(argv))], tracer, probe)
    finally:
        cli.run_check_lenient = run_check_lenient
    try:
        text = out_path.read_text(encoding="utf-8")
        out_path.unlink()
    except OSError:
        text = None
    expected = len(af.default_suite())
    if status != 0 or text is None:
        return {"wall_s": wall, "cpu_s": cpu, "items": [["verify", 0.0, 0.0, None, False]] * expected,
                "error": f"verify returned {status!r}"}
    # The report lists the checks in its own order, so each item takes its
    # status from the result the CLI received, and the report must agree.
    doc = report.parse_report(text)
    statuses = sorted(r.status for r, *_ in checks)
    if statuses != sorted(r.status for r in doc.results):
        return {"wall_s": wall, "cpu_s": cpu, "items": [["verify", 0.0, 0.0, None, False]] * expected,
                "error": f"the report's statuses differ from the {len(checks)} checks run"}
    items = [
        [f"{r.descriptor.name}{dict(r.descriptor.params)}", *times, r.status == "pass"]
        for r, *times in checks
    ]
    items += [["missing check", 0.0, 0.0, None, False]] * (expected - len(items))
    stripped = report.emit_report(report.strip_runtimes(doc)).encode("utf-8")
    return {"wall_s": wall, "cpu_s": cpu, "items": items,
            "report_sha256": hashlib.sha256(stripped).hexdigest()}


def pass_transform_roundtrip(af, seed: int, tracer, probe) -> dict:
    """``inverse_fourier(fourier(x))`` on seeded classes of three densities."""
    def roundtrip(index, rank, terms):
        A = _model(af, TRANSFORM_MODELS[index])
        x = af.Multivector(rank, terms)
        return x, af.inverse_fourier(A, af.fourier(A, x))

    items = [
        (f"{TRANSFORM_MODELS[i][1]}/{density}", lambda i=i, r=r, t=t: roundtrip(i, r, t))
        for i, density, r, t in transform_inputs(seed)
    ]
    wall, cpu, results = _timed_items(af, items, tracer, probe)
    checked = [
        [label, s, c, q, isinstance(out, tuple) and out[0] == out[1]]
        for label, s, c, q, out in results
    ]
    return {"wall_s": wall, "cpu_s": cpu, "items": checked}


def pass_hodge_certify(af, seed: int, tracer, probe) -> dict:
    """Genus-5 Hodge lattices, genus-4 transform matrices and certificate."""
    g5, g4 = LATTICE_GENUS, CERTIFY_GENUS
    n_divisors = g4 * g4
    mixing = divisor_mixing(seed, n_divisors)
    specs = (("ppav", g5), ("type", (1, 1, 1, 2, 2)))

    def lattice(spec, k):
        return af.hodge_lattice(_model(af, spec), k)

    def certificate():
        A = af.standard_ppav(g4)
        basis = af.hodge_lattice(A, 1).basis_classes()
        divisors = []
        for row in mixing:
            D = af.Multivector.zero(A.rank)
            for c, B in zip(row, basis):
                if c:
                    D = D + B * c
            divisors.append(D)
        gens = [af.beta_from_divisor(A, D) for D in divisors]
        return af.voisin_certificate(A, g4 - 1, gens)

    items = [(f"lattice {s[1]} k={k}", lambda s=s, k=k: lattice(s, k))
             for s in specs for k in range(g5 + 1)]
    items += [(f"fourier_hodge_matrix i={i}", lambda i=i: af.fourier_hodge_matrix(af.standard_ppav(g4), i))
              for i in range(g4 + 1)]
    items.append(("certificate", certificate))
    wall, cpu, results = _timed_items(af, items, tracer, probe)

    checked = []
    for label, s, c, q, out in results:
        if isinstance(out, Exception):
            ok = False
        elif label.startswith("lattice"):
            ok = out.rank == comb(g5, out.k) ** 2
        elif label.startswith("fourier_hodge_matrix"):
            ok = out.unimodular
        else:
            ok = out.is_trivial
        checked.append([label, s, c, q, ok])
    return {"wall_s": wall, "cpu_s": cpu, "items": checked}


PASSES = {
    "verify_default": pass_verify_default,
    "transform_roundtrip": pass_transform_roundtrip,
    "hodge_certify": pass_hodge_certify,
}
WORKLOADS = tuple(PASSES)


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    """One pass of a workload in this process, traced or not.

    The record holds the pass wall and CPU seconds, every item as
    ``[label, wall seconds, CPU seconds, probe seconds or None, ok]``, the
    process's peak resident
    memory, the trimmed mean time of the speed probe when untraced and,
    when traced, the per-layer metrics, self time per layer and the
    tracer's estimated cost in seconds.
    """
    af = import_package()
    from layertrace import LayerTracer

    tracer = LayerTracer() if trace else nullcontext()
    probe = SpeedProbe(0 if trace else PROBE_INTERVAL_S)
    record = PASSES[workload](af, seed, tracer, probe)
    if probe.samples:
        record["probe_s"] = trimmed_mean(probe.samples)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        record["layers"] = tracer.metrics()
        record["layer_self_ms"] = tracer.self_ms_by_layer()
        record["trace_overhead_s"] = tracer.overhead_s()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one pass of one benchmark workload")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_pass(args.workload, args.seed, bool(args.trace))
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
