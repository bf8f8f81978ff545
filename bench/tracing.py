"""Outside-in tracing for the benchmark: spans around calls into each module.

The program is not instrumented.  ``Tracer.install`` replaces public
functions at the module attributes their callers look them up by (for
example ``oracle.check_feasible``, which ``verify_pair`` calls, separately
from ``dpsolver.check_feasible``, which ``DpSolver.solve`` calls), so each
call records one span: name, layer, start, end, parent span and instance
id.  Spans stay in memory; the worker writes them out once when its run
ends.  ``uninstall`` puts the original functions back.

A span's self time is its duration minus the durations of its children;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import time
import tracemalloc

# (module, attribute, span name, layer).  Layers are the package's modules;
# a function counts to the layer whose work it is, not where it is imported.
PATCHES = (
    ("jobs", "perturb_release_times", "jobs.perturb", "jobs"),
    ("harness", "perturb_release_times", "jobs.perturb", "jobs"),
    ("oracle", "perturb_release_times", "jobs.perturb", "jobs"),
    ("oracle", "reduction_grid", "grid.reduction_grid", "grid"),
    ("oracle", "build_grid", "grid.build", "grid"),
    ("covering", "build_covering", "covering.build", "covering"),
    ("oracle", "build_covering", "covering.build", "covering"),
    ("dpsolver", "check_feasible", "covering.scan", "covering"),
    ("oracle", "check_feasible", "covering.scan", "covering"),
    ("oracle", "dp_solve", "dpsolver.solve_fn", "dpsolver"),
    ("dpsolver.DpSolver", "solve", "dpsolver.solve", "dpsolver"),
    ("oracle", "brute_force_covering", "oracle.search", "oracle"),
    ("harness", "verify_pair", "oracle.verify", "oracle"),
    ("harness", "campaign_instance", "harness.draw", "harness"),
    ("harness", "run_campaign", "harness.campaign", "harness"),
)

# span fields, stored as lists for speed
NAME, LAYER, START, END, PARENT, INSTANCE, ATTRS = range(7)
EXPORT_FIELDS = ("name", "layer", "start_ns", "end_ns", "parent", "instance")


def _resolve(modules: dict, path: str):
    head, _, rest = path.partition(".")
    obj = modules[head]
    for part in rest.split(".") if rest else ():
        obj = getattr(obj, part)
    return obj


class Tracer:
    """In-memory span recorder that wraps module attributes."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.instance = -1
        self.collect = False  # keep call arguments and results for counting
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, layer: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name, layer)

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, layer, 0, 0, parent, self.instance, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, layer: str):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(rec)
                raise
            tracer._close(rec)
            if tracer.collect:
                rec[ATTRS] = (args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner_path, attr, name, layer in PATCHES:
            owner = _resolve(self.modules, owner_path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, layer))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times_ns(self) -> list[int]:
        """Per-span self time: duration minus the children's durations."""
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def export(self) -> dict:
        """Spans as rows of EXPORT_FIELDS, times in ns from the first span."""
        t0 = self.spans[0][START] if self.spans else 0
        rows = [
            [rec[NAME], rec[LAYER], rec[START] - t0, rec[END] - t0, rec[PARENT], rec[INSTANCE]]
            for rec in self.spans
        ]
        return {"fields": EXPORT_FIELDS, "rows": rows}


class _Span:
    def __init__(self, tracer: Tracer, name: str, layer: str):
        self.tracer = tracer
        self.name = name
        self.layer = layer

    def __enter__(self):
        self.rec = self.tracer._open(self.name, self.layer)
        return self.rec

    def __exit__(self, *exc):
        self.tracer._close(self.rec)
        return False


class AllocPeaks:
    """Peak traced allocation inside each ``DpSolver.solve`` call.

    Uses ``tracemalloc`` on this process only; nothing outside the process
    is traced.  Active only between ``install`` and ``uninstall``.
    """

    def __init__(self, solver_cls):
        self.solver_cls = solver_cls
        self.peaks: list[int] = []
        self._original = None

    def install(self) -> None:
        original = self._original = self.solver_cls.solve
        peaks = self.peaks

        def measured(solver):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return original(solver)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)

        self.solver_cls.solve = measured
        tracemalloc.start()

    def uninstall(self) -> None:
        tracemalloc.stop()
        self.solver_cls.solve = self._original
