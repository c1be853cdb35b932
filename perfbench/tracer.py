"""Spans around the library's layers, recorded from outside the library.

Each traced function is replaced, at every module attribute that refers to
it, by a wrapper that records one span per call.  Spans nest on a stack, so
a layer's self time is its span's duration minus the time covered by the
spans it caused.  Per-layer aggregates (calls, self time and layer-specific
counts) are kept in memory and read when a pass ends.

A function is found through the module that defines it and then replaced
under every name in the loaded ``disknorms`` modules that refers to the same
object; modules that re-export or import a function (``from .hardy import
_circle_mean_p``) therefore call the wrapper too.  A function that no
longer exists is skipped and its layer reports zero spans.  A function that
a later version keeps only inside a container (a dispatch table, say) is
not found this way and needs its own lookup here.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

_PACKAGE = "disknorms"


@dataclass
class Layer:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))


def _quad_counts(tracer, layer, parent, args, result):
    layer.counts["evaluations"] += result.evaluations
    layer.counts["converged"] += bool(result.converged)
    if parent == "bergman.radial":
        # the radial integral's own (outer) integrate call: its evaluations
        # are the outer radial nodes
        tracer.layers[parent].counts["outer_nodes"] += result.evaluations


def _norm_counts(tracer, layer, parent, args, result):
    layer.counts["unconverged"] += not result.converged
    layer.counts["divergent"] += bool(result.divergent)


def _points(index):
    def count(tracer, layer, parent, args, result):
        layer.counts["points"] += np.size(args[index])
    return count


def _circle_counts(tracer, layer, parent, args, result):
    # _circle_mean_p returns (mean, abs_err_est, evaluations, converged)
    layer.counts["evaluations"] += result[2]


def _radial_counts(tracer, layer, parent, args, result):
    # _radial_integral returns (value, abs_err_est, converged, evaluations),
    # the evaluations counting outer nodes and inner samples together
    layer.counts["evaluations"] += result[3]


# (defining module, attribute path, layer name, count hook)
SPECS: tuple = (
    ("expr", "BoundaryEvaluator.near", "expr.near", _points(2)),
    ("expr", "BoundaryEvaluator.value", "expr.value", _points(1)),
    ("expr", "boundary_structure", "expr.boundary_structure", None),
    ("expr", "evaluate", "expr.evaluate", None),
    ("quad", "integrate", "quad.integrate", _quad_counts),
    ("quad", "integrate_piecewise", "quad.integrate_piecewise", _quad_counts),
    ("quad", "_panel", "quad.panel", None),
    ("quad", "_singular_side", "quad.singular_side", None),
    ("hardy", "hardy_norm", "hardy.hardy_norm", _norm_counts),
    ("hardy", "_circle_mean_p", "hardy.circle_mean", _circle_counts),
    ("hardy", "_divergence_probe", "hardy.probe", None),
    ("bergman", "bergman_norm", "bergman.bergman_norm", _norm_counts),
    ("bergman", "_radial_integral", "bergman.radial", _radial_counts),
    ("bergman", "_radial_divergence_probe", "bergman.probe", None),
    ("bergman", "membership_evidence", "bergman.membership_evidence", None),
    ("verify", "verify_hp_counterexample", "verify.hp_counterexample", None),
    ("verify", "verify_hp_equality_case", "verify.hp_equality_case", None),
    ("verify", "verify_ap_large_p", "verify.ap_large_p", None),
    ("verify", "verify_ap_small_p", "verify.ap_small_p", None),
    ("cli", "run_sweep", "cli.run_sweep", None),
)


class Tracer:
    """Installs span wrappers on the library and aggregates them per layer."""

    def __init__(self):
        self._stack: list[list] = []      # [layer name, child seconds]
        self._patches: list[tuple] = []   # (owner, attribute, original)
        self.layers: dict[str, Layer] = {}
        self.spans = 0

    def reset(self) -> None:
        self.layers = {spec[2]: Layer() for spec in SPECS}
        self.spans = 0

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            stack.append([name, 0.0])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                _, child = stack.pop()
                if stack:
                    stack[-1][1] += dt
                layer = self.layers[name]
                layer.calls += 1
                layer.self_s += dt - child
                self.spans += 1
            if hook is not None:
                hook(self, layer, parent, args, result)
            return result

        return traced

    def install(self) -> None:
        self.reset()
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == _PACKAGE or
                                         key.startswith(_PACKAGE + "."))]
        for module_name, path, name, hook in SPECS:
            owner = sys.modules.get(f"{_PACKAGE}.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn, hook)
            if outer:   # a method: callers look it up through the class
                self._patch(owner, attr, fn, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, fn, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Per-layer metrics of everything recorded since the last reset."""
        out = {}
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.self_s"] = layer.self_s
        for name in ("quad.integrate", "quad.integrate_piecewise"):
            layer = self.layers[name]
            out[f"{name}.evaluations"] = layer.counts["evaluations"]
            converged = layer.counts["converged"]
            out[f"{name}.converged_frac"] = (
                converged / layer.calls if layer.calls else 0.0)
        for name in ("expr.near", "expr.value"):
            out[f"{name}.points"] = self.layers[name].counts["points"]
        for name in ("hardy.hardy_norm", "bergman.bergman_norm"):
            for key in ("unconverged", "divergent"):
                out[f"{name}.{key}"] = self.layers[name].counts[key]
        out["hardy.circle_mean.evaluations"] = \
            self.layers["hardy.circle_mean"].counts["evaluations"]
        radial = self.layers["bergman.radial"].counts
        outer = radial["outer_nodes"]
        out["bergman.radial.outer_nodes"] = outer
        out["bergman.radial.inner_evals_per_outer_node"] = (
            (radial["evaluations"] - outer) / outer if outer else 0.0)
        out["trace.spans"] = self.spans
        return out
