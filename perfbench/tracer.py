"""In-process span tracer for the layer functions of ``mdi_sarg04``.

``install`` wraps each function in ``TRACED`` under every name the package
has bound it to: it imports every ``mdi_sarg04.*`` module and replaces each
module attribute that *is* the function object.  This matters because the
package looks several functions up from more than one module (``rates``,
``cli`` and ``bounds`` each call ``mu_response``, ``phase_bound`` or
``g_type2`` through their own bindings).  A function missing from the
package is reported as absent.

Spans are kept in memory as ``(name, start, end, parent_index)`` and written
out, with per-function call counts and self times, when the process exits.
Self time is a span's duration minus the durations of its traced children.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import pkgutil
import sys
import time

PACKAGE = "mdi_sarg04"

TRACED = (
    "optics.mu_response",
    "sources.poisson_source",
    "sources.spdc_heralded",
    "rates.assemble_gains",
    "rates.key_rate",
    "rates.bb84_baseline_rate",
    "scenario.evaluate_rate",
    "scenario.optimize_mu",
    "bounds.phase_bound",
    "bounds.g_type2",
    "bounds.f_type1",
    "verify.verify_suite",
    "povm.build_povm",
    "linalg.min_eigenvalue",
)

# float-keyed lru_caches whose cache_info() is read at exit
CACHES = {
    "relay_response": ("scenario", "_cached_relay_response"),
    "phase_bound": ("rates", "_cached_phase_bound"),
}


def _package_modules() -> list:
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Spans of the traced functions in this process, in call order."""

    def __init__(self) -> None:
        self.spans: list = []
        self.absent: list[str] = []
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        modules = _package_modules()
        for name in TRACED:
            module_name, func_name = name.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            fn = getattr(home, func_name, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            traced = self._wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, traced)

    def summary(self) -> dict:
        calls = {name: 0 for name in TRACED}
        self_s = {name: 0.0 for name in TRACED}
        for span in self.spans:
            if span is None:  # still open when the process exited
                continue
            name, start, end, parent = span
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0 and self.spans[parent] is not None:
                self_s[self.spans[parent][0]] -= end - start
        return {
            "functions": {n: {"calls": calls[n], "self_s": self_s[n]} for n in TRACED},
            "absent": self.absent,
            "caches": _cache_stats(),
        }

    def dump(self, path: str) -> None:
        out = self.summary()
        out["spans"] = self.spans  # null where a call was still open at exit
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)


def _cache_stats() -> dict:
    stats = {}
    for label, (module_name, attr) in CACHES.items():
        cached = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), attr, None)
        if hasattr(cached, "cache_info"):
            info = cached.cache_info()
            stats[label] = {"hits": info.hits, "misses": info.misses}
        else:
            stats[label] = None
    return stats


def install(path: str) -> Tracer:
    """Trace this process and write the spans to ``path`` at exit."""
    tracer = Tracer()
    tracer.install()
    atexit.register(tracer.dump, path)
    return tracer
