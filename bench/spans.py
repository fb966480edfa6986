"""Outside-in tracing of carsfisher's layers.

Wraps public functions of the package's modules from the benchmark side: a
function is replaced on its defining module and on every other carsfisher
module that imported it by name, so calls through either path are seen.
Nothing under src/ changes, and uninstalling restores the originals.
Install after importing carsfisher.cli, which loads every module traced.

Each wrapped function is a span: calls, inclusive time (busy) and self time
(busy minus the busy time of wrapped calls made inside it).  A few spans
also wrap the callable they receive, to count integrand cells, search
evaluations and model calls.  Targets missing from the package (a later
change may delete them) are skipped and report zero.
"""

from __future__ import annotations

import inspect
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "carsfisher"
MODULES = ("numerics", "psf_modes", "excitation", "fisher", "montecarlo",
           "spectral", "cli")

# (module, function) pairs traced as spans
FUNCTIONS = (
    ("numerics", "integrate_2d"),
    ("numerics", "integrate_1d"),
    ("numerics", "golden_section_max"),
    ("fisher", "fi_direct"),
    ("fisher", "fi_spade"),
    ("fisher", "qfi_separation"),
    ("fisher", "mean_photons_spade"),
    ("fisher", "optimize_waist"),
    ("excitation", "image_amplitudes"),
    ("psf_modes", "psf_geometry"),
    ("montecarlo", "run_experiment"),
    ("montecarlo", "ml_estimate"),
    ("montecarlo", "sample_counts"),
    ("spectral", "normalize_phi"),
    ("cli", "main"),
)
# (module, class, method) triples traced as spans on the class
METHODS = (
    ("montecarlo", "BinnedImager", "__init__"),
    ("montecarlo", "BinnedImager", "expectations"),
)


class Tracer:
    """Installs span wrappers and accumulates their statistics."""

    def __init__(self):
        # span name -> counter name -> value; missing entries read as 0
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._children: list[float] = []   # child busy time per open span
        self._restore: list[tuple[object, str, object]] = []
        self.installed: list[str] = []

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, fn, hook=None):
        stat = self.stats[name]
        children = self._children
        signature = inspect.signature(fn) if hook else None

        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            after = None
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                after = hook(stat, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                inner = children.pop()
                stat["busy_s"] += busy
                stat["self_s"] += busy - inner
                if children:
                    children[-1] += busy
            if after is not None:
                after(result)
            return result

        return wrapper

    def install(self):
        # the modules the imported CLI loaded; a module it no longer loads
        # is skipped like a deleted function
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in MODULES
                   if f"{PACKAGE}.{name}" in sys.modules}
        holders = [sys.modules[PACKAGE], *modules.values()]
        model = self.stats["montecarlo.model"]
        hooks = {
            "integrate_2d": _integrate_2d_hook,
            "integrate_1d": _count_arg("f", "cells"),
            "golden_section_max": _count_arg("f", "evals"),
            # run_experiment calls its model only on a cache miss; ml_estimate
            # sees the cached model, so its calls are lookups
            "run_experiment": _count_arg("model", "misses", into=model),
            "ml_estimate": _count_arg("model", "lookups", into=model),
        }
        for module_name, func_name in FUNCTIONS:
            original = getattr(modules.get(module_name), func_name, None)
            if original is None:
                continue
            name = f"{module_name}.{func_name}"
            wrapper = self._span(name, original, hooks.get(func_name))
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, attr, value))
                        setattr(holder, attr, wrapper)
            self.installed.append(name)
        for module_name, class_name, method_name in METHODS:
            cls = getattr(modules.get(module_name), class_name, None)
            original = cls and vars(cls).get(method_name)
            if original is None:
                continue
            name = f"{module_name}.{class_name}.{method_name}"
            self._restore.append((cls, method_name, original))
            setattr(cls, method_name, self._span(name, original))
            self.installed.append(name)

    def uninstall(self):
        for holder, attr, value in reversed(self._restore):
            setattr(holder, attr, value)
        self._restore.clear()

    # -- report --------------------------------------------------------------

    def metrics(self, output_bytes: int, overhead_s: float) -> dict[str, float]:
        st = self.stats
        i2, i1 = st["numerics.integrate_2d"], st["numerics.integrate_1d"]
        lookups = st["montecarlo.model"]["lookups"]
        misses = st["montecarlo.model"]["misses"]
        headroom = i2.get("headroom_min", math.inf)
        out = {
            "numerics.integrate_2d.calls": i2["calls"],
            "numerics.integrate_2d.cells": i2["cells"],
            "numerics.integrate_2d.nodes": i2["nodes"],
            "numerics.integrate_2d.busy_s": i2["busy_s"],
            # 0 when no call reported a nonzero error
            "numerics.integrate_2d.tol_headroom_min": headroom if math.isfinite(headroom) else 0.0,
            "numerics.integrate_1d.calls": i1["calls"],
            "numerics.integrate_1d.cells": i1["cells"],
            "numerics.integrate_1d.busy_s": i1["busy_s"],
            "numerics.golden_section_max.calls": st["numerics.golden_section_max"]["calls"],
            "numerics.golden_section_max.evals": st["numerics.golden_section_max"]["evals"],
            "fisher.fi_direct.self_s": st["fisher.fi_direct"]["self_s"],
            "montecarlo.BinnedImager.init_s": st["montecarlo.BinnedImager.__init__"]["busy_s"],
            "montecarlo.model.lookups": lookups,
            "montecarlo.model.misses": misses,
            "montecarlo.model.hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
            "montecarlo.ml_estimate.self_s": st["montecarlo.ml_estimate"]["self_s"],
            "montecarlo.sample_counts.busy_s": st["montecarlo.sample_counts"]["busy_s"],
            "spectral.normalize_phi.self_s": st["spectral.normalize_phi"]["self_s"],
            "cli.self_s": st["cli.main"]["self_s"],
            "cli.output_bytes": float(output_bytes),
            "trace.overhead_s": overhead_s,
        }
        for name in ("fisher.fi_direct", "fisher.fi_spade", "fisher.qfi_separation",
                     "fisher.mean_photons_spade", "fisher.optimize_waist",
                     "excitation.image_amplitudes", "psf_modes.psf_geometry",
                     "montecarlo.BinnedImager.expectations", "montecarlo.ml_estimate",
                     "spectral.normalize_phi"):
            out[f"{name}.calls"] = st[name]["calls"]
            out[f"{name}.busy_s"] = st[name]["busy_s"]
        return out


# ---------------------------------------------------------------------------
# argument hooks: count calls of the callable a span receives
# ---------------------------------------------------------------------------

def _counting(fn, stat: dict, key: str, nodes: bool):
    def counted(*args, **kwargs):
        stat[key] += 1
        if nodes:
            stat["nodes"] += np.size(args[0])
        return fn(*args, **kwargs)

    return counted


def _count_arg(param: str, key: str, into: dict | None = None, nodes: bool = False):
    """Hook counting calls of argument ``param`` into ``into`` (default: the
    span's own statistics) under ``key``."""

    def hook(stat, arguments):
        if param in arguments:
            target = stat if into is None else into
            arguments[param] = _counting(arguments[param], target, key, nodes)

    return hook


def _integrate_2d_hook(stat, arguments):
    _count_arg("f", "cells", nodes=True)(stat, arguments)
    abs_tol = getattr(arguments.get("spec"), "abs_tol", None)
    if abs_tol is None:
        return None

    def after(result):
        error = result[1]
        if error > 0.0:
            stat["headroom_min"] = min(stat.get("headroom_min", math.inf), abs_tol / error)

    return after
