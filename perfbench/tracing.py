"""Spans recorded from outside the program, at its module boundaries.

``install`` rebinds public names in the namespaces that call them (the
consumer side), so every call the solvers, the CLI or the rates lab make
through those names opens a span.  No private helper is wrapped and no file
of the program is edited; ``uninstall`` restores the original bindings.

A span is ``(name, start, end, parent, entries)``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``entries`` is the size of the
returned array for block generators, 0 otherwise.  Spans stay in memory
until ``write_spans``.
"""

from __future__ import annotations

import functools
from time import perf_counter

# (module, attribute, span name).  The module is the consumer namespace
# whose global lookup is rebound.
WRAPPED = (
    ("kernelbcd.solvers", "kernel_cross", "kernels.kernel_cross"),
    ("kernelbcd.solvers", "random_features_block", "kernels.random_features_block"),
    ("kernelbcd.solvers", "gram", "linalg.gram"),
    ("kernelbcd.solvers", "spd_solve", "linalg.spd_solve"),
    ("kernelbcd.solvers", "distributed_gram", "distsim.distributed_gram"),
    ("kernelbcd.solvers", "partitioned_matvec", "distsim.partitioned_matvec"),
    ("kernelbcd.solvers", "evaluate", "solvers.evaluate"),
    ("kernelbcd.kernels", "feature_params", "kernels.feature_params"),
    ("kernelbcd.distsim", "gram", "linalg.gram"),
    ("kernelbcd.rates", "kernel_cross", "kernels.kernel_cross"),
    ("kernelbcd.rates", "random_features_block", "kernels.random_features_block"),
    ("kernelbcd.rates", "spd_solve", "linalg.spd_solve"),
    ("kernelbcd.rates", "lambda_extremes", "linalg.lambda_extremes"),
    ("kernelbcd.rates", "run_bcd_quadratic", "rates.run_bcd_quadratic"),
    ("kernelbcd.rates", "improved_bound", "rates.bounds"),
    ("kernelbcd.rates", "classical_bound", "rates.bounds"),
    ("kernelbcd.rates", "chernoff_violation_rate", "rates.chernoff_violation_rate"),
    ("kernelbcd.rates", "bernstein_lower_rate", "rates.bernstein_lower_rate"),
    ("kernelbcd.rates", "rf_concentration_check", "rates.rf_concentration_check"),
    ("kernelbcd.cli", "load_csv", "cli.load_csv"),
    ("kernelbcd.cli", "save_model", "cli.save_model"),
    ("kernelbcd.cli", "lambda_extremes", "linalg.lambda_extremes"),
    ("kernelbcd.cli", "solve_path", "solvers.solve"),
    ("kernelbcd.cli", "solve_full", "solvers.solve"),
    ("kernelbcd.cli", "solve_nystrom", "solvers.solve"),
    ("kernelbcd.cli", "solve_rf", "solvers.solve"),
)

# Spans whose returned array is a generated block; its size is counted.
GENERATORS = ("kernels.kernel_cross", "kernels.random_features_block")


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn):
        """Run ``fn()`` inside a span called ``name`` and return its result."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        out = None
        try:
            out = fn()
            return out
        finally:
            end = perf_counter()
            self._stack.pop()
            entries = int(getattr(out, "size", 0)) if name in GENERATORS else 0
            self.spans[index] = (name, start, end, parent, entries)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, lambda: fn(*args, **kwargs))

        return traced

    def install(self, modules: dict) -> None:
        """Rebind every WRAPPED name, plus ``ConvergenceTrace.write_csv``."""
        for module_name, attr, name in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        trace_cls = modules["kernelbcd.solvers"].ConvergenceTrace
        original = trace_cls.write_csv
        self._saved.append((trace_cls, "write_csv", original))
        trace_cls.write_csv = self.wrap("cli.write_trace", original)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def summarize(spans: list[tuple]) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, entries.

    Self time is a span's duration minus the durations of its direct
    children; children never outlive their parent, so this is the part of
    the interval no child covers.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, entries) in enumerate(spans):
        agg = out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "entries": 0}
        )
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child_time[i]
        agg["entries"] += entries
    return out


def write_spans(spans: list[tuple], path) -> None:
    """One CSV row per span; times are seconds from the first span start."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("index,name,start_s,end_s,parent,entries\n")
        for i, (name, start, end, parent, entries) in enumerate(spans):
            fh.write(
                f"{i},{name},{start - origin:.9f},{end - origin:.9f},"
                f"{parent},{entries}\n"
            )
