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
    epochs = [] if command == "costs" else ["--epochs", "1"]  # costs runs one
    code = kernelbcd.cli.main(
        [command, "--train", str(train), "--p", "8", "--b", "4", *epochs,
         "--workers", str(workers), "--out", str(tmp_path / "out"), *lambdas]
    )
    assert code == 0
    [(args, kwargs)] = made
    assert args == () and set(kwargs) == {"workers", "ledger"}
    assert kwargs["workers"] == workers
    assert type(kwargs["ledger"]) is ledger_type


# perfbench/run.py also reads the cost API: predict_costs(...).total_flops()
# and .nbytes, and the phase, flops, nbytes and seconds of each ledger record.
# One epoch on n = 48 rows, k = 2 classes, b = 8 and p = 16 (the universe is
# n for full), against the closed forms written out.
N, K, B, P = 48, 2, 8, 16


def _one_epoch(kb, method, ledger, workers):
    data = kb.gaussian_blobs(N, 3, K, seed=1)
    ctx = kb.ExecContext(workers=workers, ledger=ledger)
    spec = kb.KernelSpec("rbf", 2.0)
    if method == "full":
        plan = kb.make_plan(N, B, seed=1)
        return kb.solve_full(data, spec, 1e-2, plan, 1, exec_ctx=ctx)
    plan = kb.make_plan(P, B, seed=1)
    if method == "nystrom":
        return kb.solve_nystrom(data, spec, P, 1e-2, 1e-6, plan, 1, exec_ctx=ctx)
    return kb.solve_rf(data, kb.FeatureMapSpec(P, 2.0, 3), 1e-2, plan, 1, exec_ctx=ctx)


@pytest.mark.parametrize("workers", [1, 3, 8])
@pytest.mark.parametrize("method", ["full", "nystrom", "rf"])
def test_cost_api_the_benchmark_reads(method, workers):
    kb = importlib.import_module("kernelbcd")
    rounds = {1: 0, 3: 2, 8: 3}[workers]  # ceil(log2(M))
    if method == "full":
        blocks = N // B
        work = (N * B * K + B**3) * blocks
        nbytes = B * B * 8 * blocks
        charged = work  # residual kb @ delta, solve b^3
    else:
        blocks = P // B
        work = (N * B * B + N * B * K + B**3) * blocks
        nbytes = rounds * B * B * 8 * blocks
        charged = (N * B * B + 2 * N * B * K + B**3) * blocks  # kb^T E and kb @ delta
    prediction = kb.predict_costs(method, N, N if method == "full" else P, B, K, workers)
    assert prediction.total_flops() == work
    assert prediction.nbytes == nbytes

    ledger = kb.CostLedger()
    _one_epoch(kb, method, ledger, workers)
    phase_flops = dict.fromkeys(("generation", "gram", "residual", "solve"), 0)
    seconds = 0.0
    for r in ledger.records:
        phase_flops[r.phase] += r.flops
        seconds += r.seconds
    assert seconds > 0.0
    assert phase_flops["generation"] > 0
    assert sum(v for ph, v in phase_flops.items() if ph != "generation") == charged
    assert sum(r.nbytes for r in ledger.records) == ledger.bytes_communicated == nbytes
