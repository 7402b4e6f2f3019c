"""In-memory call spans around convkernel's layer functions.

The tracer replaces module attributes with timing wrappers and changes
nothing in the package source.  A name imported with `from ... import`
is bound in the importing module too, so every convkernel module that
holds the original function object gets the wrapper.

A span is [name, start, end, parent index]; spans are kept in memory and
exported once, when the run ends.  Hooks record exact counters at the
same boundaries (calls are counted from the spans themselves).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable

# Defining module -> traced functions: the public entry points of each
# layer plus two private helpers that open performance items target.
TRACED = {
    "config": ("parse_config",),
    "data": ("load_idx_images", "min_norm_solve"),
    "kernels": ("apply_conv_operator", "feature_transforms", "symmetric_spectrum",
                "_check_symmetric_psd"),
    "regression": ("fit_ridgeless", "bias_mc", "variance_mc", "excess_risk_mc",
                   "psd_sqrt", "misalignment", "_apply_pinv"),
    "rng": ("trial_rng",),
    "fileio": ("write_text_atomic", "write_pgm"),
}

FLOAT_BYTES = 8


def conv_op_cost(geometry, padding) -> tuple[int, int]:
    """(adds, bytes) of one direct-stencil application, computed from shapes.

    Each filter tap adds one shifted copy of the input into the output:
    one add per overlapping element, moving 3 floats (two reads, one
    write), after a zero fill of the p x p output.  Cache misses are
    ignored, so both numbers are computed, not measured.
    """
    circular = padding.value == "circular"
    if geometry.kind.value == "1d":
        extents = [(geometry.p, k) for k in (-1, 0, 1)]
        per_tap = [(n if circular else n - abs(k)) ** 2 for n, k in extents]
    else:
        side = geometry.side
        overlap = [side if circular else side - abs(k) for k in (-1, 0, 1)]
        per_tap = [(a * b) ** 2 for a in overlap for b in overlap]
    adds = sum(per_tap)
    return adds, FLOAT_BYTES * (geometry.p**2 + 3 * adds)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {
            "kernels.conv_op.adds_computed": 0,
            "kernels.conv_op.bytes_computed": 0,
            "kernels.transforms_built": 0,
            "regression.mc_trials": 0,
            "regression.pinv.rank_drops": 0,
        }
        self.rng_keys: set[tuple[int, int]] = set()

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """fn with a span named `name` around each call; hook(args, kwargs, result) after."""
        name_index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a convkernel module binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "convkernel" or name.startswith("convkernel.")]
        hooks = self._hooks()
        for owner, functions in TRACED.items():
            home = importlib.import_module(f"convkernel.{owner}")
            for function in functions:
                original = getattr(home, function)
                name = f"{owner}.{function}"
                wrapper = self.wrap(name, original, hooks.get(name))
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            setattr(module, attr, wrapper)

    def _hooks(self) -> dict[str, Callable]:
        counters = self.counters

        def conv_op(args, kwargs, result):
            adds, nbytes = conv_op_cost(args[1], args[2])
            counters["kernels.conv_op.adds_computed"] += adds
            counters["kernels.conv_op.bytes_computed"] += nbytes

        def transforms(args, kwargs, result):
            counters["kernels.transforms_built"] += len(result)

        def trial_rng(args, kwargs, result):
            self.rng_keys.add((int(args[0]), int(args[1])))

        def pinv(args, kwargs, result):
            if result[1] < args[0].shape[0]:
                counters["regression.pinv.rank_drops"] += 1

        def estimator(args, kwargs, result):
            counters["regression.mc_trials"] += result.trials

        return {
            "kernels.apply_conv_operator": conv_op,
            "kernels.feature_transforms": transforms,
            "rng.trial_rng": trial_rng,
            "regression._apply_pinv": pinv,
            "regression.bias_mc": estimator,
            "regression.variance_mc": estimator,
            "regression.excess_risk_mc": estimator,
        }

    def export(self) -> dict:
        counters = dict(self.counters)
        counters["rng.distinct_keys"] = len(self.rng_keys)
        return {"names": self.names, "spans": self.spans, "counters": counters}


def summarize(trace: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds (minus direct children)."""
    names, spans = trace["names"], trace["spans"]
    child_time = [0.0] * len(spans)
    for name_index, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name_index, start, end, _), children in zip(spans, child_time):
        entry = out.setdefault(names[name_index], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - children
    return out
