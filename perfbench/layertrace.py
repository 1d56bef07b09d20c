"""Per-layer tracing of ``abelian_fourier`` from outside the package.

The tracer wraps the public functions of each layer (the package modules)
with timing spans, records call counts and a few work counters, and reads
the hit ratios of the package's ``lru_cache`` memo tables.  Nothing inside
the package changes: every binding of a traced function is swapped for a
wrapper on entry and restored on exit.

Bindings matter because the package imports functions by name
(``from .fourier import fourier``), so one function object is reachable
from several module namespaces, and the package-level name ``fourier`` is
the function, not the submodule.  Modules are therefore resolved through
``sys.modules`` and every module namespace and class dictionary of the
package is searched for each original object, which also catches the
``Multivector.__xor__`` alias of ``wedge``.

The ``lru_cache`` functions (``dual``, ``product``, ``structure_homs``,
``context``) stay unwrapped so that ``clear_caches()`` and
``cache_info()`` keep working; their hit ratios come from
``cache_info()``.

A span's self time is its duration minus the durations of the traced
spans it directly contains.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

PACKAGE = "abelian_fourier"

# (module, attribute path) of each traced function, with the counters its
# wrapper records besides calls and self time.
TRACED = (
    ("varieties", "Homomorphism.pullback", "pullback"),
    ("varieties", "Homomorphism.pushforward", None),
    ("varieties", "ProductStructure.push_second", None),
    ("varieties", "make_variety", None),
    ("exterior", "Multivector.wedge", "wedge"),
    ("exterior", "Multivector.cup_exponential", None),
    ("exterior", "Multivector.wedge_power_divided", None),
    ("fourier", "fourier", None),
    ("fourier", "inverse_fourier", None),
    ("fourier", "pontryagin", None),
    ("fourier", "star_exponential", None),
    ("fourier", "named_class", None),
    ("fourier", "beta_from_divisor", None),
    ("hodge", "hodge_lattice", None),
    ("hodge", "is_hodge", None),
    ("hodge", "voisin_certificate", None),
    ("hodge", "fourier_hodge_matrix", None),
    ("hodge", "HodgeLattice.coordinates", None),
    ("intlinalg", "kernel_saturated", "matrix"),
    ("intlinalg", "smith_normal_form", "matrix"),
    ("intlinalg", "rational_solve", None),
    ("intlinalg", "det_bareiss", None),
    ("intlinalg", "cokernel_invariants", None),
    ("suite", "run_check", "check"),
    ("report", "emit_report", None),
    ("cli", "main", None),
)

CACHED = (
    ("varieties", "dual"),
    ("varieties", "product"),
    ("varieties", "structure_homs"),
    ("fourier", "context"),
)

LAYERS = ("cli", "report", "suite", "fourier", "varieties", "exterior", "hodge", "intlinalg")

# The cost of one wrapper call is timed as the best of OVERHEAD_REPEATS
# loops of OVERHEAD_CALLS calls.
OVERHEAD_CALLS = 20000
OVERHEAD_REPEATS = 5


def check_names() -> list[str]:
    """Names of the registered suite checks, in registry order."""
    return list(sys.modules[f"{PACKAGE}.suite"].REGISTRY)


class _Stat:
    __slots__ = ("calls", "self_s", "n_in", "n_out", "n_zero", "max_dim")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.n_in = 0
        self.n_out = 0
        self.n_zero = 0
        self.max_dim = 0


class LayerTracer:
    """Context manager that traces the layers while it is entered.

    ``stats`` maps ``"<module>.<attribute path>"`` to its accumulators and
    ``check_s`` maps each suite check name to its inclusive seconds.
    """

    def __init__(self):
        self.stats = {f"{m}.{p}": _Stat() for m, p, _ in TRACED}
        self.check_s: dict[str, float] = {}
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installing and removing wrappers --------------------------------

    def __enter__(self):
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        namespaces = []
        for mod in modules:
            namespaces.append(mod)
            namespaces += [
                obj for obj in vars(mod).values()
                if isinstance(obj, type) and obj.__module__.startswith(PACKAGE)
            ]
        try:
            for module, path, kind in TRACED:
                owner = sys.modules[f"{PACKAGE}.{module}"]
                for part in path.split("."):
                    owner = vars(owner)[part] if isinstance(owner, type) else getattr(owner, part)
                wrapper = self._wrap(owner, self.stats[f"{module}.{path}"], kind)
                self._rebind(namespaces, owner, wrapper)
        except BaseException:
            self._unbind()
            raise
        return self

    def __exit__(self, *exc):
        self._unbind()
        return False

    def _rebind(self, namespaces, original, wrapper):
        seen = set()
        for ns in namespaces:
            if id(ns) in seen:
                continue
            seen.add(id(ns))
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._restore.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def _unbind(self):
        while self._restore:
            ns, attr, original = self._restore.pop()
            setattr(ns, attr, original)

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, fn, stat: _Stat, kind):
        stack = self._stack
        check_s = self.check_s

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stat.self_s += duration - stack.pop()
                stat.calls += 1
                if stack:
                    stack[-1] += duration
            if kind == "pullback":
                stat.n_in += len(args[1])
                stat.n_out += len(result)
                stat.n_zero += not result
            elif kind == "wedge":
                stat.n_in += len(args[0]) * len(args[1])
                stat.n_out += len(result)
            elif kind == "matrix":
                M = args[0]
                stat.max_dim = max(stat.max_dim, len(M), len(M[0]) if M else 0)
            elif kind == "check":
                check_s[args[0]] = check_s.get(args[0], 0.0) + duration
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything traced so far, by name."""
        out = {}
        for module, path, kind in TRACED:
            base = f"{module}.{path}"
            st = self.stats[base]
            if kind == "check":
                out["suite.run_check.self_ms"] = st.self_s * 1000
                continue
            out[f"{base}.calls"] = st.calls
            out[f"{base}.self_ms"] = st.self_s * 1000
            if kind == "pullback":
                out[f"{base}.terms_in"] = st.n_in
                out[f"{base}.terms_out"] = st.n_out
                out[f"{base}.zero_frac"] = st.n_zero / st.calls if st.calls else 0.0
            elif kind == "wedge":
                out[f"{base}.pairs"] = st.n_in
                out[f"{base}.yield"] = st.n_out / st.n_in if st.n_in else 0.0
            elif kind == "matrix":
                out[f"{base}.max_dim"] = st.max_dim
        for module, fn in CACHED:
            info = getattr(sys.modules[f"{PACKAGE}.{module}"], fn).cache_info()
            lookups = info.hits + info.misses
            out[f"{module}.{fn}.hit_frac"] = info.hits / lookups if lookups else 0.0
        for name in check_names():
            out[f"suite.check.{name}.ms"] = self.check_s.get(name, 0.0) * 1000
        return out

    def overhead_s(self) -> float:
        """Estimated seconds the wrappers added to everything traced so far.

        That is the number of traced calls times the cost of one wrapper
        call, timed on a function that does nothing as the best of a few
        loops through the wrapper less the best of a few bare loops.
        Comparing a traced with an untraced pass instead would compare two
        moments of a shared machine, whose speed drifts by more than the
        tracer costs.
        """
        def nothing():
            return None

        def best(fn) -> float:
            times = []
            for _ in range(OVERHEAD_REPEATS):
                start = perf_counter()
                for _ in range(OVERHEAD_CALLS):
                    fn()
                times.append(perf_counter() - start)
            return min(times)

        wrapped = self._wrap(nothing, _Stat(), None)
        per_call = max(best(wrapped) - best(nothing), 0.0) / OVERHEAD_CALLS
        return per_call * sum(st.calls for st in self.stats.values())

    def self_ms_by_layer(self) -> dict[str, float]:
        """Total self time of the traced functions of each layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for module, path, _ in TRACED:
            out[module] += self.stats[f"{module}.{path}"].self_s * 1000
        return out
