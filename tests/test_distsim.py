import threading

import numpy as np
import pytest

from kernelbcd.distsim import (
    NULL_LEDGER,
    CostLedger,
    ExecContext,
    GramPartials,
    distributed_gram,
    make_partition,
    measured_vs_predicted,
    partitioned_matvec,
    predict_costs,
    tree_rounds,
)
from kernelbcd.errors import DimensionMismatchError
from kernelbcd.kernels import FeatureMapSpec, gaussian_blobs
from kernelbcd.linalg import gram
from kernelbcd.solvers import make_plan, solve_rf


class TestPartition:
    def test_sizes_differ_by_at_most_one(self):
        for n, m in [(10, 3), (7, 7), (100, 16), (5, 8)]:
            part = make_partition(n, m)
            sizes = [hi - lo for lo, hi in part.ranges()]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1
            assert part.bounds[0] == 0 and part.bounds[-1] == n

    def test_tree_rounds(self):
        assert [tree_rounds(m) for m in (1, 2, 3, 4, 7, 8, 16)] == [
            0, 1, 2, 2, 3, 3, 4,
        ]


class TestDistributedGram:
    def test_single_worker_bit_identical_and_free(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((20, 4))
        ledger = CostLedger()
        out = distributed_gram(z, make_partition(20, 1), ledger)
        assert np.array_equal(out, gram(z))
        assert ledger.bytes_communicated == 0

    def test_byte_charge_example(self):
        # M = 4 workers, b = 3: ceil(log2 4) * 9 floats * 8 bytes = 144
        rng = np.random.default_rng(1)
        z = rng.standard_normal((12, 3))
        ledger = CostLedger()
        distributed_gram(z, make_partition(12, 4), ledger)
        assert ledger.bytes_communicated == 144

    def test_matches_serial(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((100, 5))
        serial = gram(z)
        out = distributed_gram(z, make_partition(100, 7))
        assert np.abs(out - serial).max() <= 1e-12 * np.abs(serial).max()

    def test_worker_count_does_not_change_values(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((64, 6))
        serial = gram(z)
        scale = np.abs(serial).max()
        for m in (1, 2, 4, 8, 16):
            out = distributed_gram(z, make_partition(64, m))
            assert np.abs(out - serial).max() <= 1e-10 * scale

    def test_gram_into_out_is_byte_equal(self):
        z = np.random.default_rng(6).standard_normal((37, 5))
        out = np.empty((5, 5))
        assert gram(z, out=out) is out
        assert out.tobytes() == gram(z).tobytes()

    @pytest.mark.parametrize("workers", [1, 3, 4])
    def test_partials_made_ahead_on_another_thread_change_no_byte(self, workers):
        # any first m partials made beforehand, on another thread, into a
        # slot: the same gram and one ledger row, whose seconds count them
        z = np.random.default_rng(7).standard_normal((50, 6))
        part = make_partition(50, workers)
        whole = distributed_gram(z, part)
        for m in range(workers + 1):
            slot = GramPartials(workers, 6)
            worker = threading.Thread(target=slot.make, args=(z, part, m))
            worker.start()
            worker.join()
            assert slot.made == m
            made_seconds = slot.seconds
            ledger = CostLedger()
            out = distributed_gram(z, part, ledger, slot)
            assert out.tobytes() == whole.tobytes()
            assert slot.made == workers
            [row] = ledger.records
            assert (row.phase, row.flops) == ("gram", 50 * 36)
            assert row.seconds >= made_seconds

    def test_fixed_tree_is_bit_stable(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((33, 4))
        part = make_partition(33, 5)
        assert np.array_equal(distributed_gram(z, part), distributed_gram(z, part))

    def test_byte_increments_follow_log_law(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((64, 16))
        totals = []
        for m in (1, 2, 4, 8, 16):
            ledger = CostLedger()
            distributed_gram(z, make_partition(64, m), ledger)
            totals.append(ledger.bytes_communicated)
        increments = np.diff(totals)
        assert np.all(increments == 16 * 16 * 8)


class TestDistributedMatvec:
    """``partitioned_matvec``, the row-partitioned product the solvers make."""

    def test_identity_block_selects_rows(self):
        y = np.arange(12.0).reshape(6, 2)
        a = np.zeros((6, 3))
        a[[1, 3, 4], [0, 1, 2]] = 1.0
        out = partitioned_matvec(a, y, make_partition(6, 2))
        assert np.array_equal(out, y[[1, 3, 4]])

    def test_single_worker_matches_serial(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((30, 4))
        y = rng.standard_normal((30, 3))
        out = partitioned_matvec(a, y, make_partition(30, 1))
        assert np.array_equal(out, a.T @ y)

    def test_matches_serial_multi_worker(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((100, 8))
        y = rng.standard_normal((100, 5))
        serial = a.T @ y
        out = partitioned_matvec(a, y, make_partition(100, 6))
        assert np.abs(out - serial).max() <= 1e-12 * np.abs(serial).max()


class TestPredictCosts:
    def test_full_kernel_example(self):
        pred = predict_costs("full", n=100, p=0, b=10, k=2, workers=5)
        assert pred.flops == ((100 * 10 * 2) / 5 + 1000) * 10 == 14000

    def test_rf_example(self):
        pred = predict_costs("rf", n=100, p=20, b=10, k=2, workers=5)
        expected = (100 * 100 / 5 + 100 * 10 * 2 / 5 + 1000) * 2
        assert pred.flops == expected == 6800

    def test_single_worker_no_communication(self):
        for method in ("nystrom", "rf"):
            pred = predict_costs(method, n=64, p=16, b=8, k=2, workers=1)
            assert pred.nbytes == 0

    def test_full_bytes_have_no_worker_dependence(self):
        byte_counts = {
            predict_costs("full", n=64, p=0, b=8, k=2, workers=m).nbytes
            for m in (1, 2, 8)
        }
        assert byte_counts == {8 * 8 * 8 * (64 // 8)}


class TestMeasuredVsPredicted:
    def _run_epoch(self, workers):
        data = gaussian_blobs(256, 4, 2, seed=9)
        fspec = FeatureMapSpec(p=64, sigma=2.0, master_seed=3)
        plan = make_plan(64, 16, seed=1)
        ledger = CostLedger()
        ctx = ExecContext(workers=workers, ledger=ledger)
        solve_rf(data, fspec, 1e-3, plan, 1, exec_ctx=ctx)
        return ledger

    def test_gram_counter_is_exact(self):
        ledger = self._run_epoch(workers=4)
        # n * b^2 per block, p/b blocks
        assert ledger.phase_flops()["gram"] == 256 * 16 * 16 * 4

    def test_bytes_equal_prediction_exactly(self):
        for workers in (1, 2, 4, 8, 16):
            ledger = self._run_epoch(workers)
            pred = predict_costs("rf", n=256, p=64, b=16, k=2, workers=workers)
            report = measured_vs_predicted(ledger, pred)
            assert report.bytes_exact, (workers, report)
            assert report.ok

    def test_dominant_ratio_within_factor_two(self):
        ledger = self._run_epoch(workers=4)
        pred = predict_costs("rf", n=256, p=64, b=16, k=2, workers=4)
        report = measured_vs_predicted(ledger, pred)
        assert 0.5 <= report.flops_ratio <= 2.0

    def test_zero_epoch_ledger_is_empty(self):
        data = gaussian_blobs(64, 4, 2, seed=10)
        fspec = FeatureMapSpec(p=16, sigma=2.0, master_seed=3)
        plan = make_plan(16, 8, seed=1)
        ledger = CostLedger()
        solve_rf(data, fspec, 1e-3, plan, 0, exec_ctx=ExecContext(1, ledger))
        assert ledger.flops == 0 and ledger.bytes_communicated == 0

    def test_ledger_csv(self, tmp_path):
        ledger = self._run_epoch(workers=2)
        path = tmp_path / "ledger.csv"
        ledger.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,block,phase,flops,bytes,seconds"
        assert len(lines) == len(ledger.records) + 1
        phases = {line.split(",")[2] for line in lines[1:]}
        assert phases == {"generation", "gram", "residual", "solve"}


def test_run_without_ledger_charges_the_null_ledger():
    data = gaussian_blobs(64, 4, 2, seed=10)
    fspec = FeatureMapSpec(p=16, sigma=2.0, master_seed=3)
    plan = make_plan(16, 8, seed=1)
    solve_rf(data, fspec, 1e-3, plan, 2, exec_ctx=ExecContext(workers=2))
    z = np.ones((8, 2))
    distributed_gram(z, make_partition(8, 2))
    assert NULL_LEDGER.records == []
    assert (NULL_LEDGER._epoch, NULL_LEDGER._block) == (0, 0)


def test_distributed_gram_charges_its_own_seconds():
    ledger = CostLedger()
    distributed_gram(np.ones((12, 3)), make_partition(12, 4), ledger)
    [record] = ledger.records
    assert (record.phase, record.flops, record.nbytes) == ("gram", 12 * 9, 2 * 9 * 8)
    assert record.seconds > 0.0


@pytest.mark.parametrize("n_rows, workers", [(8, 0), (-1, 2)])
def test_make_partition_refuses_bad_sizes(n_rows, workers):
    with pytest.raises(DimensionMismatchError):
        make_partition(n_rows, workers)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(phase="io", flops=1), "unknown phase 'io'"),
        (dict(phase="gram", flops=-1), "counters must be non-negative"),
        (dict(phase="gram", nbytes=-1), "counters must be non-negative"),
    ],
)
def test_ledger_refuses_unknown_phase_and_negative_counters(kwargs, message):
    ledger = CostLedger()
    with pytest.raises(ValueError, match=message):
        ledger.add(**kwargs)
    assert ledger.records == []


def test_products_refuse_a_partition_of_other_rows():
    a = np.ones((6, 2))
    part = make_partition(5, 2)
    with pytest.raises(DimensionMismatchError, match="partition covers 5 rows, data has 6"):
        distributed_gram(a, part)
    with pytest.raises(DimensionMismatchError, match="partition covers 5 rows, data has 6"):
        partitioned_matvec(a, np.ones((6, 1)), part)
    with pytest.raises(DimensionMismatchError, match="A has 6 rows, rhs has 5"):
        partitioned_matvec(a, np.ones((5, 1)), make_partition(6, 2))


@pytest.mark.parametrize(
    "args, message",
    [
        (("sgd", 8, 8, 4, 2, 1), "unknown method 'sgd'"),
        (("rf", 8, 0, 4, 2, 1), "cost parameters must be positive"),
        (("full", 0, 8, 4, 2, 1), "cost parameters must be positive"),
        (("nystrom", 8, 8, 4, 2, 0), "cost parameters must be positive"),
    ],
)
def test_predict_costs_refuses_unknown_method_and_zero_sizes(args, message):
    with pytest.raises(ValueError, match=message):
        predict_costs(*args)
