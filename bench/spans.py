"""Spans around calls into the program's public functions.

The benchmark wraps each traced function from outside: the program's code
is not changed. A function is replaced everywhere it is bound, not only in
its home module, because the modules import each other's functions by name
(verify and cli call scatter.amplitudes through their own globals).

Spans stay in memory as flat arrays (name, start, end, parent, operation)
and are written out once, when the run ends. A span's self time is its
duration minus the time its child spans cover.

Limit: with the default process pool, scan_region classifies the cells of a
large grid in forked workers. Recording stops in a forked child, so those
per-cell calls show up only as singular.scan_region self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

PACKAGE = "qdelta"

# Public functions timed per layer; layers are the modules of src/qdelta.
TRACED = {
    "cli": ("main", "rows_to_csv", "ss_report"),
    "scatter": ("amplitudes", "sweep", "denominator", "energy_grid"),
    "singular": ("scan_region", "ss_closed_form", "classify_region",
                 "quartic_coeffs", "root_nature"),
    "oracle": ("matching_solver", "quartic_roots", "minimize_dsq",
               "potential_from_ss_pairs"),
    "qalg": ("qmul", "symplectic_split"),
    "svgplot": ("render_curves_svg",),
    "verify": ("run_suite", "build_notes",
               "check_reference_constants", "check_resonance_curves",
               "check_algebraic_identities", "check_unitarity",
               "check_matching_equivalence", "check_double_root_boundary",
               "check_lossy_quadrant", "check_region_boundary",
               "check_small_v1_limits", "check_no_ss_anti_hermitian",
               "check_quaternion_algebra", "check_decomposition_identity",
               "check_quartic_root_oracle", "check_scan_claims"),
}

# quartic_roots falls back to companion-matrix eigenvalues through this
# helper; its call count is the fallback count. Once the helper is gone the
# count is absent, not zero.
FALLBACK = ("oracle", "_companion_roots")
FALLBACK_METRIC = "oracle.quartic_roots.fallbacks"


class Tracer:
    """Records a span for every call of the traced functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids = array("i")
        self._parents = array("i")
        self._ops = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack: list[int] = []
        self._op = -1
        self._recording = False
        self._bindings: list[tuple[dict, str, object, object]] = []

        targets = {}
        pairs = [(mod, name) for mod, names in TRACED.items() for name in names]
        for mod, name in pairs + [FALLBACK]:
            fn = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), name, None)
            if callable(fn):
                targets[id(fn)] = (fn, self._wrap(f"{mod}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    self._bindings.append((namespace, key, value, targets[id(value)][1]))
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self._recording = False

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, ops = self._name_ids, self._parents, self._ops
        starts, ends, stack = self._starts, self._ends, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self._op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, op_id: int) -> None:
        self._op = op_id
        for namespace, key, _, wrapper in self._bindings:
            namespace[key] = wrapper
        self._recording = True

    def uninstall(self) -> None:
        self._recording = False
        for namespace, key, original, _ in self._bindings:
            namespace[key] = original

    @property
    def span_count(self) -> int:
        return len(self._starts)

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over all spans."""
        names = np.array(self._name_ids, dtype=np.int32)
        parents = np.array(self._parents, dtype=np.int32)
        dur = np.array(self._ends) - np.array(self._starts)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.array(self._name_ids, dtype=np.int32),
            parent=np.array(self._parents, dtype=np.int32),
            op=np.array(self._ops, dtype=np.int32),
            start=np.array(self._starts), end=np.array(self._ends))


def layer_metrics(summary: dict[str, tuple[int, float, float]], ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as means per traced operation: calls, total_s, self_s."""
    out: dict[str, tuple[float, str]] = {}
    fallback = ".".join(FALLBACK)
    for name, (calls, total, own) in summary.items():
        if name == fallback:
            out[FALLBACK_METRIC] = (calls / ops, "count")
            continue
        out[f"{name}.calls"] = (calls / ops, "count")
        out[f"{name}.total_s"] = (total / ops, "s")
        out[f"{name}.self_s"] = (own / ops, "s")
    return out
