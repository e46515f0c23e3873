"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each listed library function with a wrapper at
every binding its callers use: module globals (including names imported with
``from ... import``), dict values in module globals (such as the CLI's suite
table) and class attributes (including aliases such as ``__radd__``).  No
program source is touched.

A *span* wrapper times each call on the clock it is given (``child.py``
gives the host-speed sampler's, which leaves out the probes); its self time
is its duration minus the time of the spans it encloses.  A *count* wrapper only counts calls; it is
used on the hottest functions, where timing every call would dominate the
run.  Spans are aggregated in memory per function and thread, and read out
once at the end with ``metrics``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

SPAN = "span"
COUNT = "count"

# (module, attribute, metric prefix, kind)
TARGETS = [
    ("perms", "Permutation.__new__", "perms.Permutation.new", COUNT),
    ("perms", "Permutation.coxeter_length", "perms.Permutation.coxeter_length", COUNT),
    ("polys", "MultiPoly.__mul__", "polys.MultiPoly.mul", SPAN),
    ("polys", "MultiPoly.__add__", "polys.MultiPoly.add", SPAN),
    ("polys", "MultiPoly.substitute_var", "polys.MultiPoly.substitute_var", SPAN),
    ("gkm", "GkmGraph.oriented_out", "gkm.GkmGraph.oriented_out", SPAN),
    ("gkm", "GkmGraph.neighbors", "gkm.GkmGraph.neighbors", SPAN),
    ("gkm", "l_h", "gkm.l_h", COUNT),
    ("reach", "support_A", "reach.support_A", SPAN),
    ("cells", "fixed_point_oracle", "cells.fixed_point_oracle", SPAN),
    ("cells", "minor_reachability_certificate", "cells.minor_reachability_certificate", SPAN),
    ("cells", "build_cell_chart", "cells.build_cell_chart", SPAN),
    ("classes", "interpolate_class", "classes.interpolate_class", SPAN),
    ("classes", "_solve_vertex", "classes._solve_vertex", SPAN),
    ("classes", "expand_in_basis", "classes.expand_in_basis", SPAN),
    ("classes", "reduce_to_ordinary", "classes.reduce_to_ordinary", SPAN),
    ("classes", "permutohedral_class", "classes.permutohedral_class", SPAN),
    ("dot", "ActionMatrix.apply_vector", "dot.ActionMatrix.apply_vector", SPAN),
    ("dot", "ActionMatrix.compose", "dot.ActionMatrix.compose", SPAN),
    ("dot", "generator_matrix", "dot.generator_matrix", SPAN),
    ("dot", "perm_si_action", "dot.perm_si_action", SPAN),
    # every lookup of the s_i expansion cache, including its own recursion
    ("dot", "_SiExpansionCache.expansion", "dot.perm_si_action.lookups", COUNT),
    ("decomp", "sigma_hat", "decomp.sigma_hat", SPAN),
    ("decomp", "coset_orbit_vectors", "decomp.coset_orbit_vectors", SPAN),
    ("decomp", "_rank_mod_p", "decomp._rank_mod_p", SPAN),
    ("chromatic", "chromatic_qsym", "chromatic.chromatic_qsym", SPAN),
    ("chromatic", "frobenius_of_degree", "chromatic.frobenius_of_degree", SPAN),
    ("symfunc", "SymFunc.to_basis", "symfunc.SymFunc.to_basis", SPAN),
] + [
    ("cli", f"verify_{suite}", f"cli.verify_{suite}", SPAN)
    for suite in ("supports", "minors", "cell_charts", "classes", "poincare",
                  "dot_rules", "coxeter", "decomposition_suite", "genfunc",
                  "sw", "wz")
]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for _module, _attr, prefix, kind in TARGETS:
        if prefix.startswith("cli."):
            names.append(f"{prefix}.self_s")
        elif prefix == "dot.perm_si_action.lookups":
            continue
        elif kind == COUNT:
            names.append(f"{prefix}.calls")
        else:
            names += [f"{prefix}.calls", f"{prefix}.self_s"]
    names += [
        "cells.minor_reachability_certificate.resample_ratio",
        "classes.interpolate_class.unique_ratio",
        "classes.interpolate_class.free_parameters",
        "dot.perm_si_action.hit_ratio",
        "dot.cache_entries",
        "decomp._rank_mod_p.entries",
        "decomp._rank_mod_p.fallback_calls",
        "trace.overhead_s",
    ]
    return names


class _ThreadStats:
    def __init__(self):
        self.stack: list[float] = []  # child-span time of each open span
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.extra: dict[str, float] = {}  # observer sums


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._threads: list[_ThreadStats] = []
        self._cache_entries_at_install = 0

    def _stats(self) -> _ThreadStats:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = self._local.stats = _ThreadStats()
            self._threads.append(stats)
        return stats

    # -- wrappers -----------------------------------------------------------

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls = self._stats().calls
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name, fn, observe):
        clock = self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = self._stats()
            stack = stats.stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                stats.calls[name] = stats.calls.get(name, 0) + 1
                stats.self_s[name] = stats.self_s.get(name, 0.0) + duration - child
            if observe is not None:
                observe(stats.extra, fn, args, kwargs, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import gkmhess
        import gkmhess.cli  # noqa: F401  (its bindings are wrapped too)

        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "gkmhess" or key.startswith("gkmhess."))]
        for module_name, attr, prefix, kind in TARGETS:
            module = sys.modules[f"gkmhess.{module_name}"]
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[fn_name]
                if isinstance(original, staticmethod):  # __new__
                    wrapper = staticmethod(self._wrap(prefix, kind, original.__func__))
                else:
                    wrapper = self._wrap(prefix, kind, original)
                for key, value in list(owner.__dict__.items()):
                    if value is original:
                        setattr(owner, key, wrapper)
            else:
                original = getattr(module, fn_name)
                wrapper = self._wrap(prefix, kind, original)
                for mod in modules:
                    _rebind(vars(mod), original, wrapper)
        self._cache_entries_at_install = _cache_entries()

    def _wrap(self, prefix, kind, fn):
        if kind == COUNT:
            return self._counted(prefix, fn)
        return self._spanned(prefix, fn, _OBSERVERS.get(prefix))

    # -- read-out -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        extra: dict[str, float] = {}
        for stats in self._threads:
            for table, out in ((stats.calls, calls), (stats.self_s, self_s),
                               (stats.extra, extra)):
                for key, value in table.items():
                    out[key] = out.get(key, 0) + value

        def ratio(numerator, denominator):
            # a layer the workload never calls reports 0
            return numerator / denominator if denominator else 0.0

        values: dict[str, float] = {}
        for name in metric_names():
            prefix, _, field = name.rpartition(".")
            if field == "calls":
                values[name] = calls.get(prefix, 0)
            elif field == "self_s":
                values[name] = self_s.get(prefix, 0.0)
        certificates = calls.get("cells.minor_reachability_certificate", 0)
        interpolations = calls.get("classes.interpolate_class", 0)
        lookups = calls.get("dot.perm_si_action.lookups", 0)
        growth = _cache_entries() - self._cache_entries_at_install
        values.update({
            "cells.minor_reachability_certificate.resample_ratio":
                ratio(extra.get("eigenvalue_resamples", 0), certificates),
            "classes.interpolate_class.unique_ratio":
                ratio(extra.get("unique", 0), interpolations),
            "classes.interpolate_class.free_parameters":
                extra.get("free_parameters", 0),
            "dot.perm_si_action.hit_ratio": ratio(lookups - growth, lookups),
            "dot.cache_entries": _cache_entries(),
            "decomp._rank_mod_p.entries": extra.get("rank_entries", 0),
            "decomp._rank_mod_p.fallback_calls": extra.get("rank_fallbacks", 0),
        })
        return values


def _rebind(namespace: dict, original, wrapper) -> None:
    for key, value in list(namespace.items()):
        if value is original:
            namespace[key] = wrapper
        elif isinstance(value, dict):
            for inner_key, inner in list(value.items()):
                if inner is original:
                    value[inner_key] = wrapper


def _cache_entries() -> int:
    caches = sys.modules["gkmhess.dot"]._caches  # the package's ``dot`` is a function
    return sum(len(cache.cache) for cache in caches.values())


# -- observers: derive ratios from what the API already returns ---------------


def _add(extra, key, amount):
    extra[key] = extra.get(key, 0) + amount


def _observe_interpolation(extra, fn, args, kwargs, result):
    _add(extra, "unique", int(result.unique))
    _add(extra, "free_parameters", result.free_parameters)


def _observe_certificate(extra, fn, args, kwargs, result):
    _add(extra, "eigenvalue_resamples", result.eigenvalue_resamples)


def _observe_rank(extra, fn, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    p = args[1] if len(args) > 1 else kwargs.get("p", fn.__defaults__[0])
    _add(extra, "rank_entries", sum(len(row) for row in rows))
    _add(extra, "rank_fallbacks", int(p != fn.__defaults__[0]))


_OBSERVERS = {
    "classes.interpolate_class": _observe_interpolation,
    "cells.minor_reachability_certificate": _observe_certificate,
    "decomp._rank_mod_p": _observe_rank,
}
