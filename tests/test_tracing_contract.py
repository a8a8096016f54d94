"""The benchmark's tracer (``perfbench/tracing.py``) rebinds names in the
package's own modules; a name it wraps that a refactor drops breaks
``perfbench/run.py --trace 1``.  The tracer file is loaded by path, as is."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_bound():
    tracing = _load_tracing()
    assert tracing.WRAPPED
    missing = [
        (module, attr)
        for module, attr, _ in tracing.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_trace_writer_is_bound():
    solvers = importlib.import_module("kernelbcd.solvers")
    assert callable(getattr(solvers.ConvergenceTrace, "write_csv", None))
