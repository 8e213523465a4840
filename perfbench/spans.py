"""Spans around the package's public functions, patched in from outside.

The package carries no tracing of its own. ``Tracer`` wraps every public
function of each module (its layers) and the numpy dense decompositions every
layer calls (the ``kernel`` layer), and rebinds each wrapped name in every
module that holds it (``sweep.ppt_test``, ``cli.boundary_bisect``, ...). A span
is (name, start, end, parent, op id); spans are kept in memory, in arrays,
and written out once at the end.
"""

import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "claims", "sweep", "report", "analysis", "broadcast", "cloner", "linalg")
KERNELS = ("eigvalsh", "eigh", "svd")

# Per-layer metrics, all per traced op: function -> which of calls / self_s.
FUNCTION_METRICS = {
    "cli.main": ("self_s",),
    "claims.verify_claims": ("self_s",),
    "sweep.run_sweep": ("self_s",),
    "report.emit_rows": ("self_s",),
    "analysis.ppt_test": ("calls", "self_s"),
    "analysis.bell_quantity_m": ("calls", "self_s"),
    "analysis.teleportation_fidelity": ("calls", "self_s"),
    "analysis.werner_decompose": ("calls", "self_s"),
    "analysis.correlation_tensor": ("calls", "self_s"),
    "analysis.filter_search_max_m": ("calls", "self_s"),
    "analysis.boundary_bisect": ("calls", "self_s"),
    "broadcast.nonlocal_state": ("calls", "self_s"),
    "broadcast.local_state": ("calls", "self_s"),
    "broadcast.oracle_broadcast": ("calls", "self_s"),
    "cloner.universality_report": ("calls", "self_s"),
    "cloner.clone_fidelity": ("calls", "self_s"),
    "cloner.machine_isometry": ("calls",),
    "linalg.is_density_operator": ("calls", "self_s"),
    "linalg.hermitian_eigenvalues": ("calls", "self_s"),
    "linalg.partial_trace": ("calls", "self_s"),
    "linalg.partial_transpose": ("calls",),
    "linalg.singular_values": ("calls",),
}
# Counts taken at a layer boundary, per traced op: name -> unit.
COUNTERS = {
    "sweep.rows": "rows/op",
    "report.bytes": "B/op",
    "analysis.filter_search_max_m.grid_points": "points/op",
    "analysis.boundary_bisect.predicate_calls": "calls/op",
}


class Tracer:
    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.op_id = 0
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.counts.update({"kernel.matrices": 0, "cloner.audit_isometries": 0})
        self._stack = [-1]
        self._audits_open = 0
        self._patches = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        """``fn`` inside a span; ``hook(fn, args, kwargs)`` makes the call when given."""
        nid = len(self.names)
        self.names.append(name)
        start, end, parent, names, ops, stack = (
            self.start, self.end, self.parent, self.name, self.op, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parent.append(stack[-1])
            ops.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _count_predicate(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        predicate = bound.arguments["predicate"]

        def counted(alpha_sq):
            self.counts["analysis.boundary_bisect.predicate_calls"] += 1
            return predicate(alpha_sq)

        bound.arguments["predicate"] = counted
        return fn(*bound.args, **bound.kwargs)

    def _count_grid(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        self.counts["analysis.filter_search_max_m.grid_points"] += bound.arguments["budget"] ** 2
        return fn(*args, **kwargs)

    def _count_rows(self, fn, args, kwargs):
        rows = fn(*args, **kwargs)
        self.counts["sweep.rows"] += len(rows)
        return rows

    def _count_bytes(self, fn, args, kwargs):
        # the harness points stdout at a StringIO; its output is ASCII
        before = sys.stdout.tell()
        result = fn(*args, **kwargs)
        self.counts["report.bytes"] += sys.stdout.tell() - before
        return result

    def _count_audit(self, fn, args, kwargs):
        self._audits_open += 1
        try:
            return fn(*args, **kwargs)
        finally:
            self._audits_open -= 1

    def _count_isometry(self, fn, args, kwargs):
        if self._audits_open:
            self.counts["cloner.audit_isometries"] += 1
        return fn(*args, **kwargs)

    def _count_matrices(self, fn, args, kwargs):
        shape = np.shape(args[0] if args else kwargs["a"])
        self.counts["kernel.matrices"] += math.prod(shape[:-2])
        return fn(*args, **kwargs)

    def install(self, package):
        """Prepare wrappers for ``package`` and numpy.linalg; ``patch`` applies them."""
        hooks = {
            "analysis.boundary_bisect": self._count_predicate,
            "analysis.filter_search_max_m": self._count_grid,
            "sweep.run_sweep": self._count_rows,
            "report.emit_rows": self._count_bytes,
            "cloner.universality_report": self._count_audit,
            "cloner.machine_isometry": self._count_isometry,
        }
        modules = [sys.modules[f"{package}.{layer}"] for layer in LAYERS]
        wrapped = {}  # id(original) -> wrapper
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = self._wrap(name, obj, hooks.get(name))
        for mod in [sys.modules[package]] + modules:
            for attr, obj in vars(mod).items():
                if id(obj) in wrapped:
                    self._patches.append((mod, attr, obj, wrapped[id(obj)]))
        for kernel in KERNELS:
            obj = getattr(np.linalg, kernel)
            self._patches.append(
                (np.linalg, kernel, obj, self._wrap(f"kernel.{kernel}", obj, self._count_matrices)))

    def patch(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def unpatch(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self, ops):
        """Per-layer metrics per traced op, as {name: (value, unit)}."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        by_name = {n: (int(calls[i]), float(self_time[i])) for i, n in enumerate(self.names)}
        missing = (0, 0.0)  # a function a later version renamed or removed

        out = {}
        for fn, kinds in FUNCTION_METRICS.items():
            n_calls, self_s = by_name.get(fn, missing)
            if "calls" in kinds:
                out[f"{fn}.calls"] = (n_calls / ops, "calls/op")
            if "self_s" in kinds:
                out[f"{fn}.self_s"] = (self_s / ops, "s/op")
        for counter, unit in COUNTERS.items():
            out[counter] = (self.counts[counter] / ops, unit)
        kernel_calls = sum(by_name[f"kernel.{k}"][0] for k in KERNELS)
        kernel_self = sum(by_name[f"kernel.{k}"][1] for k in KERNELS)
        matrices = self.counts["kernel.matrices"]
        out["kernel.calls"] = (kernel_calls / ops, "calls/op")
        out["kernel.matrices"] = (matrices / ops, "matrices/op")
        out["kernel.self_s"] = (kernel_self / ops, "s/op")
        out["kernel.matrices_per_call"] = (matrices / kernel_calls if kernel_calls else 0.0,
                                           "matrices/call")
        audits = by_name.get("cloner.universality_report", missing)[0]
        out["cloner.isometries_per_audit"] = (
            self.counts["cloner.audit_isometries"] / audits if audits else 0.0,
            "isometries/audit")
        return out

    def write(self, path):
        """All spans, compressed: names[name[i]] ran from start[i] to end[i]."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent), op=np.asarray(self.op))
