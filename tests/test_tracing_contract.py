"""The benchmark's tracer (``perfbench/tracing.py``) rebinds names in the
package's own modules; a name it wraps that a refactor drops breaks
``perfbench/run.py --trace 1``.  The tracer file is loaded by path, as is.

The traced run also rebinds ``kernelbcd.cli.ExecContext`` and attaches its
own ledger when the CLI passes ``ledger=None``; the context the CLI builds
is pinned here."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import kernelbcd.cli
from kernelbcd.distsim import CostLedger
from kernelbcd.kernels import gaussian_blobs

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


@pytest.mark.parametrize(
    "command, workers, ledger_type",
    [("solve", 1, type(None)), ("path", 2, type(None)), ("costs", 1, CostLedger)],
)
def test_cli_builds_its_context_by_keyword(
    command, workers, ledger_type, tmp_path, monkeypatch
):
    made = []
    real = kernelbcd.cli.ExecContext

    def recording(*args, **kwargs):
        made.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(kernelbcd.cli, "ExecContext", recording)
    data = gaussian_blobs(32, 3, 2, seed=1)
    rows = np.hstack([data.X, data.labels[:, None].astype(float)])
    train = tmp_path / "train.csv"
    np.savetxt(train, rows, delimiter=",", fmt="%.17g")
    lambdas = ["--lambda", "1e-2"] + (["--lambda", "1e-3"] if command == "path" else [])
    code = kernelbcd.cli.main(
        [command, "--train", str(train), "--p", "8", "--b", "4", "--epochs", "1",
         "--workers", str(workers), "--out", str(tmp_path / "out"), *lambdas]
    )
    assert code == 0
    [(args, kwargs)] = made
    assert args == () and set(kwargs) == {"workers", "ledger"}
    assert kwargs["workers"] == workers
    assert type(kwargs["ledger"]) is ledger_type
