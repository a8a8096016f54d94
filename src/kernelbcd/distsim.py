"""Simulated multi-worker execution and cost accounting.

Workers are data-parallel tasks inside one process: each gets a disjoint
row range of the immutable block data, emits a partial b x b / b x k sum,
and a fixed balanced binary tree over worker ids combines the partials.
Only the communication *ledger* models the cluster; no sockets are
involved.

Accounting conventions (these make the measured counters comparable to the
closed-form per-epoch predictions of ``predict_costs``):

* one flop = one fused multiply-add, so the gram of an n x b block costs
  exactly n*b^2 and a b x k product against an n x k right-hand side costs
  n*b*k;
* a local b x b solve is charged a flat b^3, no Cholesky 1/3 constant;
* bytes are 8 per float; a tree aggregation of a b x b result over M
  workers is charged ceil(log2(M)) * b^2 * 8, i.e. rounds x message size.

Every run charges a ledger, the caller's or ``NULL_LEDGER``, which keeps
nothing.  ``distributed_gram`` is the one gram charge, seconds included; the
per-block right-hand-side partials ride in its aggregation message, and only
the b x b payload is charged, as in the closed-form communication column.
``partitioned_matvec`` computes values only; the solvers charge their block
step's products in the ``residual`` phase.

``predict_costs`` is the one statement of an epoch's closed-form cost: it
evaluates the per-block cost once, for a ``CostPrediction`` of the
per-worker critical path (``flops``), the work summed over workers
(``work``, which the ledger counts) and the bytes (``nbytes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .errors import ConfigError, DimensionMismatchError, check_choice, check_count, check_integer
from .files import write_rows
from .linalg import gram

FLOAT_BYTES = 8

PHASES = ("generation", "gram", "solve", "residual")

# the solver methods; the solvers' models and the CLI read this tuple too
METHODS = ("full", "nystrom", "rf")


@dataclass(frozen=True)
class Partition:
    """Disjoint, covering row ranges for M workers; sizes differ by <= 1."""

    n_rows: int
    bounds: tuple[int, ...]

    @property
    def workers(self) -> int:
        return len(self.bounds) - 1

    def ranges(self):
        return [
            (self.bounds[w], self.bounds[w + 1]) for w in range(self.workers)
        ]


def make_partition(n_rows: int, workers: int) -> Partition:
    n_rows = check_integer("row count", n_rows)
    workers = check_integer("worker count", workers)
    if workers < 1:
        raise DimensionMismatchError("need at least one worker")
    if n_rows < 0:
        raise DimensionMismatchError("row count must be non-negative")
    base, extra = divmod(n_rows, workers)
    bounds = [0]
    for w in range(workers):
        bounds.append(bounds[-1] + base + (1 if w < extra else 0))
    return Partition(n_rows=n_rows, bounds=tuple(bounds))


def tree_rounds(workers: int) -> int:
    """Depth of the balanced binary aggregation tree: ceil(log2(M))."""
    return int(math.ceil(math.log2(workers))) if workers > 1 else 0


@dataclass
class PhaseRecord:
    epoch: int
    block: int
    phase: str
    flops: int
    nbytes: int
    seconds: float


@dataclass
class CostLedger:
    """Flop and byte counters attributed per (epoch, block, phase)."""

    records: list[PhaseRecord] = field(default_factory=list)
    _epoch: int = 0
    _block: int = 0

    def set_position(self, epoch: int, block: int) -> None:
        self._epoch = epoch
        self._block = block

    def add(self, phase: str, flops: int = 0, nbytes: int = 0, seconds: float = 0.0):
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")
        if flops < 0 or nbytes < 0:
            raise ValueError("counters must be non-negative")
        self.records.append(
            PhaseRecord(self._epoch, self._block, phase, int(flops), int(nbytes), seconds)
        )

    @property
    def flops(self) -> int:
        return sum(r.flops for r in self.records)

    @property
    def bytes_communicated(self) -> int:
        return sum(r.nbytes for r in self.records)

    def phase_flops(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.phase] = out.get(r.phase, 0) + r.flops
        return out

    def write_csv(self, path) -> None:
        write_rows(
            path,
            ["epoch", "block", "phase", "flops", "bytes", "seconds"],
            [[r.epoch, r.block, r.phase, r.flops, r.nbytes, f"{r.seconds:.6f}"]
             for r in self.records],
        )


class _NullLedger(CostLedger):
    """The ledger a run given none charges.  It keeps nothing, not even a
    position, so one shared instance serves every run."""

    def set_position(self, epoch: int, block: int) -> None:
        pass

    def add(self, phase: str, flops: int = 0, nbytes: int = 0, seconds: float = 0.0):
        pass


NULL_LEDGER = _NullLedger()


@dataclass
class ExecContext:
    """How solvers execute block work: worker count plus optional ledger."""

    workers: int = 1
    ledger: CostLedger | None = None

    def partition(self, n_rows: int) -> Partition:
        return make_partition(n_rows, self.workers)


def _tree_reduce(parts: list[np.ndarray]) -> np.ndarray:
    """Sum partials along the fixed binary tree keyed by worker id.

    Worker i absorbs worker i + 2^r in round r; the order is a pure
    function of M, which is what buys bit-identical aggregation for a
    fixed worker count.
    """
    vals = list(parts)
    step = 1
    while step < len(vals):
        for i in range(0, len(vals), 2 * step):
            if i + step < len(vals):
                vals[i] = vals[i] + vals[i + step]
        step *= 2
    return vals[0]


def _check_partition(part: Partition, n_rows: int) -> None:
    if part.n_rows != n_rows:
        raise DimensionMismatchError(
            f"partition covers {part.n_rows} rows, data has {n_rows}"
        )


def distributed_gram(
    zb: np.ndarray, part: Partition, ledger: CostLedger = NULL_LEDGER
) -> np.ndarray:
    """Row-partitioned Zb^T Zb with tree aggregation.

    Matches the serial ``gram`` to ~1e-10 relative (bit-identical for
    M = 1).  Ledger: n*b^2 flops, ceil(log2(M)) * b^2 * 8 bytes and its seconds.
    """
    start = perf_counter()
    zb = np.asarray(zb, dtype=np.float64)
    _check_partition(part, zb.shape[0])
    parts = [gram(zb[lo:hi]) for lo, hi in part.ranges()]
    out = _tree_reduce(parts)
    ledger.add(  # out holds the b^2 entries
        "gram",
        flops=part.n_rows * out.size,
        nbytes=tree_rounds(part.workers) * out.size * FLOAT_BYTES,
        seconds=perf_counter() - start,
    )
    return out


def partitioned_matvec(a: np.ndarray, rhs: np.ndarray, part: Partition) -> np.ndarray:
    """Row-partitioned A^T @ rhs with tree aggregation; values only."""
    a = np.asarray(a, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if a.shape[0] != rhs.shape[0]:
        raise DimensionMismatchError(
            f"A has {a.shape[0]} rows, rhs has {rhs.shape[0]}"
        )
    _check_partition(part, a.shape[0])
    parts = [a[lo:hi].T @ rhs[lo:hi] for lo, hi in part.ranges()]
    return _tree_reduce(parts)


@dataclass(frozen=True)
class CostPrediction:
    """Closed-form per-epoch costs for one solver configuration.

    ``flops`` is the computation cost as the closed forms state it, with
    the parallelizable terms divided by M (the per-worker critical path);
    ``work`` is the same cost summed over workers, which is what the
    ledger counts; ``nbytes`` is the communication.
    """

    flops: float
    work: int
    nbytes: int

    def total_flops(self) -> int:
        """The work summed over workers (``work``)."""
        return self.work


def predict_costs(
    method: str, n: int, p: int, b: int, k: int, workers: int
) -> CostPrediction:
    """Per-epoch computation and communication closed forms.

    full kernel:  flops (n*b*k/M + b^3) * (n/b),  bytes b^2*8 * (n/b)
    nystrom/rf:   flops (n*b^2/M + n*b*k/M + b^3) * (p/b),
                  bytes ceil(log2(M)) * b^2*8 * (p/b)

    The full-kernel byte entry has no log(M) factor and no M dependence;
    it is reproduced as the closed form states it rather than reconciled
    with the tree model.
    """
    check_choice("method", method, METHODS)
    n, p, b, k, workers = (check_count(name, value) for name, value in (
        ("n", n), ("p", p), ("b", b), ("k", k), ("workers", workers)))
    if min(n, b, k, workers) < 1 or (method != "full" and p < 1):
        raise ConfigError("cost parameters must be positive")
    if method == "full":  # the block is a slice of K: no gram, one message
        blocks, parallel, rounds = n // b, n * b * k, 1
    else:
        blocks, parallel, rounds = p // b, n * b * b + n * b * k, tree_rounds(workers)
    return CostPrediction(
        flops=(parallel / workers + b**3) * blocks,
        work=(parallel + b**3) * blocks,
        nbytes=rounds * b * b * FLOAT_BYTES * blocks,
    )


@dataclass(frozen=True)
class CostReport:
    """Measured ledger counters against a closed-form prediction."""

    flops_measured: int
    flops_predicted: int
    flops_ratio: float
    bytes_measured: int
    bytes_predicted: int
    bytes_exact: bool
    phase_flops: dict[str, int]
    ok: bool


def measured_vs_predicted(ledger: CostLedger, prediction: CostPrediction) -> CostReport:
    """Compare a completed run's counters to the per-epoch closed forms.

    Generation flops are excluded from the comparison (the closed forms do
    not model kernel/feature generation).  ``ok`` requires the dominant
    computation ratio to land in [0.5, 2] and the byte counters to agree
    exactly, both per the shared accounting convention.
    """
    phase_flops = ledger.phase_flops()
    measured = sum(v for ph, v in phase_flops.items() if ph != "generation")
    predicted = prediction.total_flops()
    ratio = measured / predicted if predicted else math.inf
    bytes_measured = ledger.bytes_communicated
    bytes_exact = bytes_measured == prediction.nbytes
    ok = bytes_exact and 0.5 <= ratio <= 2.0
    return CostReport(
        flops_measured=measured,
        flops_predicted=predicted,
        flops_ratio=ratio,
        bytes_measured=bytes_measured,
        bytes_predicted=prediction.nbytes,
        bytes_exact=bytes_exact,
        phase_flops=phase_flops,
        ok=ok,
    )
