"""Call counting for the traced benchmark run.

Each target function is replaced by a counting wrapper at every module
attribute of the ``varietylab`` package that binds it (and inside module-level
tuples that hold it), so a call made through a name imported with
``from .x import y`` is counted as well as one made through ``x.y``.  A
wrapper keeps a count, the total busy time and the self time (busy time minus
the time spent in other wrapped calls it made), never one span per call:
``decide`` alone is called millions of times by ``verify-paper``.
"""

from __future__ import annotations

import sys
import time

# qualified name -> predicate on the return value that marks a rejection
TARGETS = {
    "terms.parse_word": None,
    "terms.parse_identity": None,
    "models.satisfies": None,
    "models.word_value_classes": None,
    "models.check_axioms": lambda report: not report.passed,
    "varieties.decide": None,
    "varieties.variety_of": None,
    "lattice.build_lattice": None,
    "enumeration.enumerate_algebras": None,
    "enumeration.canonical_form": None,
    "enumeration.classify": None,
    "derivations.parse_script": None,
    "derivations.replay": None,
    "verify.check_06_decision_oracle_equivalence": None,
    "verify.check_07_normal_form_completeness": None,
    "verify.check_11_subdirect_decomposition": None,
    "verify.invariant_classification_coincidence": None,
    "verify.invariant_substitution_closure": None,
    "verify.example_checks": None,
}

# lru_cache'd word measures whose hit ratio is read from cache_info()
CACHED = ("terms.content", "terms.los", "terms.contains_square")

PACKAGE = "varietylab"


class Tracer:
    """Installs the wrappers and accumulates, per binding site, the list
    ``[calls, busy_s, self_s, rejects]``."""

    def __init__(self):
        self.sites = {}  # (module name, qualified target) -> stats list
        self._stack = [0.0]  # time spent in wrapped children, per open call

    def install(self):
        import importlib

        for sub in ("terms", "models", "varieties", "lattice", "enumeration",
                    "derivations", "verify", "cli"):
            importlib.import_module(f"{PACKAGE}.{sub}")
        originals = {}
        for qual in TARGETS:
            mod, attr = qual.split(".")
            originals[id(getattr(sys.modules[f"{PACKAGE}.{mod}"], attr))] = qual
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in modules:
            wrappers = {}

            def wrapper_for(fn, module=module, wrappers=wrappers):
                qual = originals[id(fn)]
                if qual not in wrappers:
                    stats = [0, 0.0, 0.0, 0]
                    self.sites[(module.__name__, qual)] = stats
                    wrappers[qual] = self._wrap(fn, stats, TARGETS[qual])
                return wrappers[qual]

            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    setattr(module, attr, wrapper_for(value))
                elif isinstance(value, tuple) and any(id(v) in originals for v in value):
                    setattr(module, attr, tuple(
                        wrapper_for(v) if id(v) in originals else v for v in value))
        for module in modules:
            for attr, value in vars(module).items():
                if id(value) in originals:
                    raise RuntimeError(f"{module.__name__}.{attr} left unwrapped")

    def _wrap(self, fn, stats, is_reject):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - children
            if is_reject is not None and is_reject(result):
                stats[3] += 1
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def snapshot(self) -> dict:
        """Totals per target and per site, plus the cache counters."""
        totals = {qual: [0, 0.0, 0.0, 0] for qual in TARGETS}
        for (_, qual), stats in self.sites.items():
            totals[qual] = [a + b for a, b in zip(totals[qual], stats)]
        caches = {}
        for qual in CACHED:
            mod, attr = qual.split(".")
            info = getattr(sys.modules[f"{PACKAGE}.{mod}"], attr).cache_info()
            caches[qual] = [info.hits, info.misses]
        sites = {f"{module}:{qual}": list(stats)
                 for (module, qual), stats in self.sites.items()}
        return {"totals": totals, "sites": sites, "caches": caches}


def delta(after: dict, before: dict) -> dict:
    """Counters accumulated between two snapshots."""
    out = {}
    for key in ("totals", "sites", "caches"):
        out[key] = {
            name: [a - b for a, b in zip(vals, before[key].get(name, [0] * len(vals)))]
            for name, vals in after[key].items()
        }
    return out
