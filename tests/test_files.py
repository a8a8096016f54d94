"""Output files appear whole or not at all, and leave no temporary file."""

import os

import numpy as np
import pytest

from kernelbcd.distsim import CostLedger
from kernelbcd.files import write_atomic
from kernelbcd.kernels import KernelSpec
from kernelbcd.solvers import ConvergenceTrace, Model, TraceRecord, save_model


def _trace():
    trace = ConvergenceTrace()
    trace.append(TraceRecord(0, 0, 0.5, 1.25, 0.1))
    return trace


def _ledger():
    ledger = CostLedger()
    ledger.add("gram", flops=10, nbytes=8, seconds=0.25)
    return ledger


_MODEL = Model("full", np.ones((2, 1)), kernel=KernelSpec("rbf", 1.0), anchors=np.eye(2))

WRITERS = {
    "save_model": lambda path: save_model(_MODEL, path),
    "trace": lambda path: _trace().write_csv(path),
    "ledger": lambda path: _ledger().write_csv(path),
}


def test_write_atomic_replaces_the_file_byte_for_byte(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    write_atomic(path, "a,b\r\n1,2\n")
    assert path.read_bytes() == b"a,b\r\n1,2\n"
    assert os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
def test_writer_onto_a_directory_leaves_no_temp_file(writer, tmp_path):
    target = tmp_path / "target"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        writer(target)
    assert os.listdir(tmp_path) == ["target"]
    assert os.listdir(target) == []


def test_write_atomic_removes_the_temp_file_on_any_exception(tmp_path, monkeypatch):
    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_atomic(tmp_path / "out.csv", "x\n")
    assert os.listdir(tmp_path) == []
