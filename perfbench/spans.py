"""Span and counter recording around polydiv's public functions.

The benchmark wraps the layer boundaries from outside the package: every
module-level name bound to a wrapped function is rebound, because
``harness`` and ``hdiv_basis`` import ``triangulate``, ``canonical_basis``,
``assemble_transfer`` and others with ``from ... import``.  Hot inner calls
(point evaluations, field samples) only bump counters.

Spans stay in memory as (name, start, end, parent, pass id) and are
written out when the run ends.  A layer's self time is its span duration
minus the part of that interval covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Sequence, Tuple

# (span name, module, attribute) of the wrapped module-level functions
FUNCTION_SPANS = (
    ("catalog.resolve_shape", "polydiv.catalog", "resolve_shape"),
    ("geometry.validate_shape", "polydiv.geometry", "validate_shape"),
    ("poisson.triangulate", "polydiv.poisson", "triangulate"),
    ("poisson.solve_poisson_many", "polydiv.poisson", "solve_poisson_many"),
    ("hdiv_basis.canonical_basis", "polydiv.hdiv_basis", "canonical_basis"),
    ("hdiv_basis.export_traces", "polydiv.hdiv_basis", "export_traces"),
    ("hdiv_basis.export_interior", "polydiv.hdiv_basis", "export_interior"),
    ("elements.dof_set", "polydiv.elements", "dof_set"),
    ("elements.assemble_transfer", "polydiv.elements", "assemble_transfer"),
    ("elements.tune_basis", "polydiv.elements", "tune_basis"),
    ("elements.classify_degenerate", "polydiv.elements", "classify_degenerate"),
    ("harness.write_study_csv", "polydiv.harness", "write_study_csv"),
    ("harness.cmd_condstudy", "polydiv.harness", "cmd_condstudy"),
    ("harness.cmd_element", "polydiv.harness", "cmd_element"),
)
# spans opened only on the first call per object: later calls hit a cache
FIRST_CALL_SPANS = (
    ("poisson.fe_space", "polydiv.poisson", "TriMesh", "fe_space"),
    ("elements.svd", "polydiv.elements", "TransferMatrix", "singular_values"),
)
COUNTERS = (
    ("poisson.point_evals", "polydiv.poisson", "ScalarField", "value_and_grad"),
    ("hdiv_basis.field_samples", "polydiv.hdiv_basis", "VectorField", "trace_components"),
    ("hdiv_basis.field_samples", "polydiv.hdiv_basis", "VectorField", "values_at_rule"),
)
ROOT = "bench.pass"
CHECK = "bench.check"
PROBE = "trace.probe"

# self-time metric -> span names whose self times it sums
SELF_TIME_METRICS = {
    "catalog.resolve_s": ("catalog.resolve_shape",),
    "geometry.validate_s": ("geometry.validate_shape",),
    "poisson.triangulate_s": ("poisson.triangulate",),
    "poisson.fe_space_s": ("poisson.fe_space",),
    "poisson.solve_s": ("poisson.solve_poisson_many",),
    "hdiv_basis.canonical_basis_self_s": ("hdiv_basis.canonical_basis",),
    "hdiv_basis.export_s": ("hdiv_basis.export_traces", "hdiv_basis.export_interior"),
    "elements.dof_set_s": ("elements.dof_set",),
    "elements.assemble_transfer_s": ("elements.assemble_transfer",),
    "elements.svd_s": ("elements.svd",),
    "elements.tune_basis_s": ("elements.tune_basis",),
    "elements.classify_s": ("elements.classify_degenerate",),
    "harness.self_s": ("harness.cmd_condstudy", "harness.cmd_element"),
    "harness.write_study_csv_s": ("harness.write_study_csv",),
    "bench.check_s": (CHECK,),
}
# count metric -> counter name
COUNT_METRICS = {
    "poisson.triangulate_calls": "poisson.triangulate",
    "poisson.mesh_nodes": "poisson.mesh_nodes",
    "poisson.mesh_retries": "poisson.mesh_retries",
    "poisson.fe_dofs": "poisson.fe_dofs",
    "poisson.lu_nnz": "poisson.lu_nnz",
    "poisson.solve_rhs": "poisson.solve_rhs",
    "poisson.point_evals": "poisson.point_evals",
    "hdiv_basis.functions": "hdiv_basis.functions",
    "hdiv_basis.field_samples": "hdiv_basis.field_samples",
    "hdiv_basis.export_bytes": "hdiv_basis.export_bytes",
    "elements.transfer_entries": "elements.transfer_entries",
    "elements.singular": "elements.singular",
}
# metric -> prefix of the span or counter whose wrapper must have fired for
# the metric to be reported on a workload that expects that span
METRIC_SOURCE = {m: names[0] for m, names in SELF_TIME_METRICS.items()}
METRIC_SOURCE.update({
    "harness.self_s": "harness.cmd_",
    "hdiv_basis.export_s": "hdiv_basis.export_",
    "poisson.triangulate_calls": "poisson.triangulate",
    "poisson.mesh_nodes": "poisson.triangulate",
    "poisson.mesh_retries": "poisson.triangulate",
    "poisson.fe_dofs": "poisson.fe_space",
    "poisson.lu_nnz": "poisson.fe_space",
    "poisson.solve_rhs": "poisson.solve_poisson_many",
    "poisson.point_evals": "poisson.point_evals",
    "hdiv_basis.functions": "hdiv_basis.canonical_basis",
    "hdiv_basis.field_samples": "hdiv_basis.field_samples",
    "hdiv_basis.export_bytes": "hdiv_basis.export_",
    "hdiv_basis.export_mb_per_s": "hdiv_basis.export_",
    "elements.transfer_entries": "elements.assemble_transfer",
    "elements.assemble_us_per_entry": "elements.assemble_transfer",
    "elements.singular": "elements.tune_basis",
})

_COMMON = {
    "catalog.resolve_shape", "geometry.validate_shape", "poisson.triangulate",
    "poisson.fe_space", "poisson.solve_poisson_many", "hdiv_basis.canonical_basis",
    "elements.dof_set", "elements.assemble_transfer", "elements.svd",
    "elements.tune_basis", "elements.classify_degenerate",
    "poisson.point_evals", "hdiv_basis.field_samples",
}
# spans and counters each workload calls; one that never fires is missing
EXPECTED = {
    "sweep": _COMMON | {"harness.cmd_condstudy", "harness.write_study_csv"},
    "shapes": _COMMON | {"harness.cmd_condstudy", "harness.write_study_csv"},
    "element": _COMMON | {"harness.cmd_element", "hdiv_basis.export_traces", "hdiv_basis.export_interior"},
}
# reported self times must add up to the traced pass time within this share
COVERAGE_TOLERANCE = 0.02

# every per-layer metric of a traced run, with its unit (BENCHMARK.json
# lists the same names)
PER_LAYER_UNITS = {
    "poisson.triangulate_s": "s",
    "poisson.triangulate_calls": "count",
    "poisson.mesh_nodes": "count",
    "poisson.mesh_retries": "count",
    "poisson.fe_space_s": "s",
    "poisson.fe_dofs": "count",
    "poisson.lu_nnz": "count",
    "poisson.solve_s": "s",
    "poisson.solve_rhs": "count",
    "poisson.point_evals": "count",
    "hdiv_basis.canonical_basis_self_s": "s",
    "hdiv_basis.functions": "count",
    "hdiv_basis.field_samples": "count",
    "hdiv_basis.export_s": "s",
    "hdiv_basis.export_bytes": "bytes",
    "hdiv_basis.export_mb_per_s": "MB/s",
    "elements.dof_set_s": "s",
    "elements.assemble_transfer_s": "s",
    "elements.transfer_entries": "count",
    "elements.assemble_us_per_entry": "us",
    "elements.svd_s": "s",
    "elements.tune_basis_s": "s",
    "elements.singular": "count",
    "elements.classify_s": "s",
    "harness.self_s": "s",
    "harness.write_study_csv_s": "s",
    "geometry.validate_s": "s",
    "catalog.resolve_s": "s",
    "bench.check_s": "s",
    "trace.overhead_frac": "ratio",
}


def self_times(spans: Sequence[Tuple[str, float, float, int]]) -> List[float]:
    """Self time of each span: its duration minus the union of its
    children's intervals clipped to it.  ``spans`` holds
    (name, start, end, parent index or -1)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span and counter recorder; ``patched()`` installs the wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []    # [name, start, end, parent, pass id]
        self.counts: Counter = Counter()
        self.pass_id = -1
        self._stack: List[int] = []
        self._pass_start = 0
        self._seen: Dict[tuple, weakref.ref] = {}
        self.unpatched: List[str] = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.pass_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _first_call(self, obj, key) -> bool:
        token = (id(obj), key)
        ref = self._seen.get(token)
        if ref is not None and ref() is obj:
            return False
        self._seen[token] = weakref.ref(obj)
        return True

    # -- wrappers --------------------------------------------------------

    def _wrap_function(self, name: str, fn: Callable) -> Callable:
        after = getattr(self, "_after_" + name.split(".", 1)[1], None)
        singular = ()
        if name == "elements.tune_basis":
            singular = getattr(sys.modules["polydiv.elements"], "SingularTransfer", ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self._close(idx)
                if isinstance(exc, singular):
                    self.counts["elements.singular"] += 1
                raise
            self._close(idx)
            if after is not None:
                after(out, args, kwargs)
            return out

        return wrapper

    def _after_triangulate(self, mesh, args, kwargs) -> None:
        from polydiv.poisson import default_mesh_size

        polygon = args[0] if args else kwargs["polygon"]
        h = args[1] if len(args) > 1 else kwargs.get("h")
        requested = default_mesh_size(polygon) if h is None else float(h)
        self.counts["poisson.mesh_nodes"] += mesh.n_nodes
        # each retry shrinks h by 0.7
        self.counts["poisson.mesh_retries"] += round(math.log(mesh.h / requested) / math.log(0.7))

    def _after_solve_poisson_many(self, fields, args, kwargs) -> None:
        self.counts["poisson.solve_rhs"] += len(fields)

    def _after_canonical_basis(self, basis, args, kwargs) -> None:
        self.counts["hdiv_basis.functions"] += basis.size

    def _after_assemble_transfer(self, T, args, kwargs) -> None:
        self.counts["elements.transfer_entries"] += T.matrix.size

    def _after_export(self, out, args, kwargs) -> None:
        path = args[2] if len(args) > 2 else kwargs["path"]
        self.counts["hdiv_basis.export_bytes"] += os.path.getsize(path)

    _after_export_traces = _after_export
    _after_export_interior = _after_export

    def _wrap_fe_space(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def fe_space(mesh, degree):
            if not self._first_call(mesh, ("fe", degree)):
                return fn(mesh, degree)
            self.counts["poisson.fe_space"] += 1
            with self.span("poisson.fe_space"):
                space = fn(mesh, degree)
            self.counts["poisson.fe_dofs"] += space.n_dof
            lu = getattr(space, "_lu", None)
            if lu is not None and hasattr(lu, "L"):
                with self.span(PROBE):
                    self.counts["poisson.lu_nnz"] += lu.L.nnz + lu.U.nnz
            return space

        return fe_space

    def _wrap_svd(self, prop: property) -> property:
        getter = prop.fget

        def singular_values(T):
            if not self._first_call(T, "svd"):
                return getter(T)
            self.counts["elements.svd"] += 1
            with self.span("elements.svd"):
                return getter(T)

        return property(singular_values)

    def _wrap_counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def patched(self):
        """Install every wrapper, rebinding each lookup site; restore the
        originals on exit."""
        restore: List[Tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "polydiv" or n.startswith("polydiv."))]
        self.unpatched = []
        try:
            for name, modname, attr in FUNCTION_SPANS:
                original = getattr(sys.modules.get(modname), attr, None)
                if original is None:
                    self.unpatched.append(name)
                    continue
                wrapper = self._wrap_function(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, key, original))
                            setattr(module, key, wrapper)
            for name, modname, clsname, attr in FIRST_CALL_SPANS + COUNTERS:
                cls = getattr(sys.modules.get(modname), clsname, None)
                original = cls.__dict__.get(attr) if cls is not None else None
                if original is None:
                    self.unpatched.append(name)
                    continue
                if name == "poisson.fe_space":
                    wrapper = self._wrap_fe_space(original)
                elif name == "elements.svd":
                    wrapper = self._wrap_svd(original)
                else:
                    wrapper = self._wrap_counter(name, original)
                restore.append((cls, attr, original))
                setattr(cls, attr, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    # -- passes ----------------------------------------------------------

    @contextmanager
    def traced_pass(self, pass_id: int):
        """Root span of one pass; counters restart at every pass."""
        self.pass_id = pass_id
        self.counts.clear()
        self._pass_start = len(self.spans)
        with self.span(ROOT):
            yield

    def pass_metrics(self) -> Tuple[Dict[str, float], set, float]:
        """Per-layer values of the last pass, the names that fired, and the
        share of the pass time not covered by a reported self time."""
        first = self._pass_start
        spans = [(s[0], s[1], s[2], s[3] - first if s[3] >= 0 else -1) for s in self.spans[first:]]
        selfs = self_times(spans)
        by_name: Dict[str, float] = defaultdict(float)
        for (name, *_), st in zip(spans, selfs):
            by_name[name] += st
        fired = {name for name, *_ in spans} | {n for n, c in self.counts.items() if c}
        metrics: Dict[str, float] = {}
        for metric, names in SELF_TIME_METRICS.items():
            metrics[metric] = sum(by_name.get(n, 0.0) for n in names)
        for metric, counter in COUNT_METRICS.items():
            metrics[metric] = float(self.counts.get(counter, 0))
        entries = metrics["elements.transfer_entries"]
        metrics["elements.assemble_us_per_entry"] = (
            1e6 * metrics["elements.assemble_transfer_s"] / entries if entries else 0.0
        )
        export_s = metrics["hdiv_basis.export_s"]
        metrics["hdiv_basis.export_mb_per_s"] = (
            metrics["hdiv_basis.export_bytes"] / 1e6 / export_s if export_s else 0.0
        )
        pass_s = spans[0][2] - spans[0][1]
        attributed = sum(metrics[m] for m in SELF_TIME_METRICS) + by_name.get(PROBE, 0.0)
        unattributed = (pass_s - attributed) / pass_s
        return metrics, fired, unattributed

    def missing(self, workload: str, fired: set) -> List[str]:
        """Expected spans or counters that never fired (or could not be
        installed) on this workload."""
        return sorted((EXPECTED[workload] - fired) | (EXPECTED[workload] & set(self.unpatched)))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                [{"name": n, "start": s, "end": e, "parent": p, "pass": i} for n, s, e, p, i in self.spans],
                fh,
            )


def metric_missing(metric: str, missing: Sequence[str]) -> bool:
    source = METRIC_SOURCE.get(metric)
    if source is None:
        return False
    return any(m.startswith(source) for m in missing)
