"""Per-layer tracing for the szilard benchmark, installed from outside the package.

Every public function of each package module is replaced by a wrapper that
records a span (name, start, end, parent, work counts).  Modules copy names
with `from .demon import premeasure` and `engine` also imports functions
inside function bodies, so a wrapper replaces the function in its defining
module and in every `szilard.*` namespace that binds it; `check_bindings`
proves that no namespace still holds an original.  `numpy.linalg.eigvalsh`,
which only `infodyn` calls, is wrapped as `infodyn.eigvalsh`.

Spans stay in memory; the caller writes them out when the run ends.  Timed
passes run with no wrappers installed.
"""
from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("numerics", "spectral", "thermo", "infodyn", "demon", "engine", "cli")


def _eig_tridiagonal_work(args, kwargs, result):
    matrix = kwargs.get("matrix", args[0] if args else None)
    k = kwargs.get("k_lowest", args[1] if len(args) > 1 else None)
    return {"levels": k, "points": matrix.dim}


def _sum_series_work(args, kwargs, result):
    return {"terms": result.terms_used}


def _stage_check_work(args, kwargs, result):
    return {"pairs_used": result.pairs_used, "levels_used": result.levels_used}


def _eigvalsh_work(args, kwargs, result):
    shape = getattr(kwargs.get("a", args[0] if args else None), "shape", ())
    batch = 1
    for n in shape[:-2]:
        batch *= n
    return {"dim3": batch * shape[-1] ** 3}


# work counts recorded at a layer boundary, keyed by span name
WORK = {
    "numerics.eig_tridiagonal": _eig_tridiagonal_work,
    "numerics.sum_series": _sum_series_work,
    "thermo.spectral_stage_check": _stage_check_work,
    "infodyn.eigvalsh": _eigvalsh_work,
}


class Tracer:
    """Owns the wrappers, the span log and the list of patched bindings."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, work dict or None]
        self.spans = []
        self._stack = []
        self._patches = []  # (namespace object, attribute, original)
        self._wrapped = []  # (original, wrapper)

    def _wrap(self, name, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)

        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return wrapper

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    @staticmethod
    def _namespaces():
        return [m for n, m in list(sys.modules.items()) if n == "szilard" or n.startswith("szilard.")]

    def install(self):
        import numpy.linalg

        for layer in LAYERS:
            __import__("szilard." + layer)
        namespaces = self._namespaces()
        for layer in LAYERS:
            mod = sys.modules["szilard." + layer]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                self._wrapped.append((fn, wrapper))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, wrapper)
        fn = numpy.linalg.eigvalsh
        wrapper = self._wrap("infodyn.eigvalsh", fn)
        self._wrapped.append((fn, wrapper))
        self._patches.append((numpy.linalg, "eigvalsh", fn))
        numpy.linalg.eigvalsh = wrapper
        self.check_bindings()

    def check_bindings(self):
        """Raise unless every binding of a wrapped function is its wrapper."""
        import numpy.linalg

        wrappers = {id(fn): w for fn, w in self._wrapped}
        for ns, key, fn in self._patches:
            if getattr(ns, key) is not wrappers[id(fn)]:
                raise RuntimeError(f"{ns.__name__}.{key} is not its wrapper")
        for ns in self._namespaces() + [numpy.linalg]:
            for key, value in vars(ns).items():
                if id(value) in wrappers and value is not wrappers[id(value)]:
                    raise RuntimeError(f"tracer missed binding {ns.__name__}.{key}")

    def uninstall(self):
        for ns, key, fn in reversed(self._patches):
            setattr(ns, key, fn)
        self._patches.clear()
        self._wrapped.clear()


def layer_stats(spans, first=0, last=None):
    """Aggregate spans[first:last] by name: calls, total s, self s and work sums.

    Self time is a span's duration minus the durations of its direct
    children; spans nest on one thread, so children never overlap.
    """
    last = len(spans) if last is None else last
    child = defaultdict(float)
    for i in range(first, last):
        name, t0, t1, parent, _ = spans[i]
        if parent >= first:
            child[parent] += t1 - t0
    stats = defaultdict(lambda: defaultdict(float))
    for i in range(first, last):
        name, t0, t1, _, work = spans[i]
        s = stats[name]
        s["calls"] += 1
        s["s"] += t1 - t0
        s["self_s"] += t1 - t0 - child[i]
        for key, value in (work or {}).items():
            s[key] += value
    return stats
