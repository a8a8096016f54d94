"""Block coordinate descent solvers for kernel least squares.

One engine, ``_run``, drives three primal solvers.  Each epoch it sweeps
a fresh random block partition (``epoch_blocks``), generates each column
block once per visit, and owns the ledger, the descent guard, test
evaluation, traces, the residual check and the ``grad_tol`` stop.  The
model's column map, ``Model.columns``, is the one block source and the
one width and column-set check: K([n], J) for ``full``, K([n],
landmarks[J]) for ``nystrom`` and Z([n], J) for ``rf``, gathered from the
model's one feature draw; the test set's block, ``predict`` and the dense
diagnostics read it too.  A per-method system states only its math: the
products every lambda shares, its b x b block matrix A, its block of the
normal-equation residual ``grad``, its block's share ``rhs_term`` of the
squared right-hand side, the rows its scatter S_J writes and
``objectives``, every lambda's objective at once, each inner product
summed column by column over the whole batch.  One builder, ``_system``,
picks a model's system.  One block step serves every system: solve
A d = -grad, add d to the block's coefficients and
(K_J + n*lam*S_J)[:, block] d to the maintained fit error
E = (K_J + n*lam*S_J) alpha - Y, which starts at -Y.  The step serves
every lambda at once: their coefficients and E sit side by side, and only
there (``_Batch``), so a visit makes one gradient product and one update
product for all lambdas, with one stacked ``spd_solve`` of every lambda's
b x b system in between.  The
``grad_tol`` check, the residual check and ``normal_equation_residual``
read the same ``grad`` and the same columns.

* ``_FullSystem``: block Gauss-Seidel on (K + n*lam*I) alpha = Y, exact
  blockwise minimization of 0.5<alpha, K alpha> + (n*lam/2)||alpha||^2 - <Y, alpha>;
  E = K alpha - Y and grad = E[idx] + n*lam*alpha[idx], with no product;
* ``_GramSystem``, nystrom: (K_J^T K_J + n*lam*K_JJ + n*lam*gamma*I) alpha =
  K_J^T Y, keeping E = (K_J + n*lam*S_J) alpha - Y, so that
  grad = K_J[:, pos]^T E + n*lam*gamma*alpha[pos];
* ``_GramSystem``, random features: the same with no K_JJ term and gamma = 1,
  (Z^T Z + n*lam*I) w = Z^T Y with E = Z w - Y.

Every update is an exact b x b solve, so each objective is non-increasing;
an increase beyond 1e-9 times max(1, |objective|) raises ``DivergenceError``.
Blocks do not depend on lambda, so a path costs one run's generation, one
pair of block products as wide as every lambda's right-hand sides together,
and one stacked call of b x b solves, one per lambda.
Public APIs take the statistical lambda; systems use lam_eff = n * lambda.

The ``grad_tol`` stop is exact, and there is one check (``_PendingCheck``):
at an epoch end, each lambda's ||grad|| against tol times the square root
of the summed ``rhs_term``, both summed block by block over a partition.
``full`` reads grad off its maintained E, so it sums the check at once on
the epoch's own blocks and generates none.  The nystrom/rf gradient needs
every column block, so an epoch end's check is summed on the blocks the
next sweep generates anyway; if it passes, that sweep is discarded and
the run ends on the batch copied at the epoch end, coefficients and E
together.  A run stopped after T epochs thus generates each block T + 1
times, not 2T.  ``normal_equation_residual`` is that check's ratio on
the model's one block of every column.
``check_residual`` recomputes every lambda's E in one more sweep per epoch.

Within a sweep the next block is generated while the current one is
applied (``threads.ahead``): a block source is called one call at a time,
in sweep order, possibly from a worker thread, and never for a block past
the sweep's last.  A block source writes its n x b block into the array
it is handed (``Model.columns``' ``out=``): a run allocates two such
buffers, on the calling thread, and every sweep of the run, the
``check_residual`` pass included, alternates between them.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import threading
from collections.abc import Callable
from contextlib import closing
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

import numpy as np

from .distsim import (
    FLOAT_BYTES,
    METHODS,
    NULL_LEDGER,
    ExecContext,
    distributed_gram,
    partitioned_matvec,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    check_choice,
    check_count,
    check_lambdas,
    check_level,
    check_matrix,
    check_size,
)
from .files import write_atomic
from .kernels import (
    Dataset,
    FeatureMapSpec,
    KernelSpec,
    feature_draw,
    kernel_cross,
    one_vs_all,
    random_features_block,
)
from .linalg import spd_solve, sum_in_order, validate_indices
from .threads import ahead, solver_threads

# The solvers call gram only through distributed_gram.  It stays bound here
# because perfbench/tracing.py rebinds it in this module's namespace.
from .linalg import gram  # noqa: F401

DESCENT_TOL = 1e-9

MODEL_MAGIC = "kernelbcd-model-v3"
# still read by load_model, except for rf models, whose features were drawn
# by an older rule: v2 is v3's layout, v1 the same header with arrays as
# JSON lists
MODEL_MAGIC_V2 = "kernelbcd-model-v2"
MODEL_MAGIC_V1 = "kernelbcd-model-v1"

# held while an rf model makes a feature draw, so each is made once
_DRAW_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# block plans


@dataclass(frozen=True)
class BlockPlan:
    """How a run cuts the coordinate universe into size-b blocks.

    Every epoch sweeps a fresh random partition (see ``epoch_blocks``), a
    pure function of ``(seed, epoch)``, so a plan stores no blocks.
    """

    block_size: int
    universe: int
    seed: int

    @property
    def n_blocks(self) -> int:
        return self.universe // self.block_size


def make_plan(universe: int, block_size: int, seed: int = 0) -> BlockPlan:
    universe = check_size("universe", universe)
    block_size = check_size("block size", block_size)
    seed = check_count("plan seed", seed)
    if universe % block_size != 0:
        raise ConfigError(
            f"block size {block_size} does not divide universe {universe}"
        )
    # past 2**62 bytes of indices numpy's permutation raises ValueError, not
    # MemoryError, so a universe this large is refused here
    if universe >= 2**59:
        raise ConfigError(f"universe {universe} is too large to index")
    return BlockPlan(block_size=block_size, universe=universe, seed=seed)


def epoch_blocks(plan: BlockPlan, epoch: int) -> np.ndarray:
    """Epoch ``epoch``'s blocks in visit order, one per row: a fresh
    permutation of the universe, drawn from ``SeedSequence(plan.seed,
    spawn_key=(epoch + 1,))`` and cut into size-b blocks."""
    seq = np.random.SeedSequence(plan.seed, spawn_key=(check_count("epoch", epoch) + 1,))
    perm = np.random.default_rng(seq).permutation(plan.universe)
    return perm.reshape(plan.n_blocks, plan.block_size)


def draw_landmarks(n: int, p: int, seed: int) -> np.ndarray:
    """Uniform without-replacement draw of p landmark rows out of n."""
    n = check_count("row count", n)
    p, seed = check_size("landmark count", p, n), check_count("landmark seed", seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.choice(n, size=p, replace=False)


# ---------------------------------------------------------------------------
# traces and models


@dataclass
class TraceRecord:
    epoch: int
    block: int
    seconds: float
    objective: float
    test_error: float | None = None


@dataclass
class ConvergenceTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    def write_csv(self, path) -> None:
        lines = ["epoch,block,seconds,objective,test_error\n"]
        for r in self.records:
            # float(): numpy >= 2 writes a np.float64 as "np.float64(...)"
            terr = "" if r.test_error is None else repr(float(r.test_error))
            lines.append(
                f"{r.epoch},{r.block},{r.seconds:.6f},"
                f"{float(r.objective)!r},{terr}\n"
            )
        write_atomic(path, "".join(lines))


@dataclass
class Model:
    """A trained predictor.

    full:     scores(x) = k(x, anchors) @ coefficients, anchors = training X
    nystrom:  same with anchors = landmark rows
    rf:       scores(x) = z(x) @ coefficients

    ``dim`` is an rf model's input width; anchors give it for the others.
    An rf model without it, built so or read from a file without the key,
    is not checked.  A nystrom model needs its landmarks, the indices of
    the training rows its anchors are.

    An rf model draws its features (``feature_draw``) once per input
    width, on first use, and keeps the draw on the instance: it is not a
    field, so it is in neither the model's file, its repr nor its
    equality.  The models a solve returns share the draw of their run.
    """

    method: str
    coefficients: np.ndarray
    kernel: KernelSpec | None = None
    features: FeatureMapSpec | None = None
    anchors: np.ndarray | None = None
    landmarks: np.ndarray | None = None
    dim: int | None = None

    def __post_init__(self):
        check_choice("method", self.method, METHODS)
        self._draws: dict[tuple, tuple] = {}  # (spec, width) -> feature_draw
        if self.method == "rf":
            if self.features is None:
                raise ConfigError("rf model needs a feature map spec")
            if self.coefficients.shape[0] != self.features.p:
                raise DimensionMismatchError("coefficient rows must equal p")
        else:
            if self.kernel is None or self.anchors is None:
                raise ConfigError(f"{self.method} model needs kernel and anchors")
            if self.method == "nystrom" and self.landmarks is None:
                raise ConfigError("nystrom model needs landmarks")
            if self.coefficients.shape[0] != self.anchors.shape[0]:
                raise DimensionMismatchError(
                    "coefficient rows must match anchor rows"
                )

    def columns(
        self, X: np.ndarray, cols=None, at_anchors: bool = False, *, out=None
    ) -> np.ndarray:
        """The column block at the rows of ``X``: k(X, anchors[cols]) for
        full/nystrom, z(X)[:, cols] for rf; every column when ``cols`` is
        None.  Coefficient row j weights column j.  ``X`` must be 2-d and,
        unless ``dim`` is None, as wide as the model's input.  ``cols``
        must be distinct coefficient rows, a 1-d integer array or list
        (``validate_indices``), or it raises ``IndexOutOfRangeError``.

        An rf block gathers its columns from the model's feature draw for
        X's width (``random_features_block``'s ``draw``), byte for byte
        the columns a bare spec draws.

        ``at_anchors`` says that ``X`` is the training data the anchors are
        rows of (all of them for full, the landmarks for nystrom): the
        block's b x b sub-block at the anchors' own rows is then exactly
        symmetric (``kernel_cross``'s ``rows``).

        ``out``, when given, is a C-contiguous float64 array of the block's
        shape: the block is written into it and it is returned, byte for
        byte the block made without it."""
        X = check_matrix("data", X)
        width = self.dim if self.method == "rf" else self.anchors.shape[1]
        if width is not None and X.shape[1] != width:
            raise DimensionMismatchError(
                f"data has {X.shape[1]} features, model expects {width}"
            )
        if cols is not None:
            cols = validate_indices(cols, self.coefficients.shape[0])
        if self.method == "rf":
            if cols is None:
                cols = np.arange(self.features.p)
            return random_features_block(
                X, cols, self.features, self._draw(X.shape[1]), out=out
            )
        anchors = self.anchors if cols is None else self.anchors[cols]
        rows = None
        if at_anchors:
            rows = np.arange(X.shape[0]) if self.landmarks is None else self.landmarks
            rows = rows if cols is None else rows[cols]
        return kernel_cross(X, anchors, self.kernel, rows, out=out)

    def _draw(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """The rf feature draw for d-dim inputs, made on first use; two
        threads that ask at once get one draw."""
        key = (self.features, d)
        with _DRAW_LOCK:
            if key not in self._draws:
                self._draws[key] = feature_draw(self.features, d)
            return self._draws[key]


@solver_threads()
def predict(model: Model, x_test: np.ndarray) -> np.ndarray:
    """Score matrix (m x k) for the rows of ``x_test``, computed inside
    ``solver_threads`` like training, so the scores do not depend on the
    host's CPU count."""
    return model.columns(x_test) @ model.coefficients


def classify(scores: np.ndarray) -> np.ndarray:
    """Row argmax; ties break toward the lowest class id."""
    return np.argmax(scores, axis=1)


def evaluate(model: Model, data: Dataset, rmse: bool = False) -> float:
    """Top-1 error rate, or root mean square error of the argmax class id."""
    return _test_error(predict(model, data.X), data.labels, rmse)


def _test_error(scores: np.ndarray, labels, rmse: bool) -> float:
    """``evaluate``'s figure for a score matrix; a run's trace uses it too."""
    pred = classify(scores)
    if rmse:
        return float(np.sqrt(np.mean((pred - labels) ** 2.0)))
    return float(np.mean(pred != labels))


def save_model(model: Model, path) -> None:
    """Write a model file: the magic line ``kernelbcd-model-v3``, then one
    JSON header holding each spec's fields (``dataclasses.asdict``, which
    ``load_model`` passes back to the spec), ``dim`` and each array as its
    dtype, shape and the base64 of its little-endian bytes (``_pack``).
    The arrays round-trip bit for bit, and a model always writes the same
    bytes.
    """
    payload = {
        "method": model.method,
        "coefficients": _pack(model.coefficients, "<f8"),
        "kernel": None if model.kernel is None else dataclasses.asdict(model.kernel),
        "features": None if model.features is None else dataclasses.asdict(model.features),
        "anchors": None if model.anchors is None else _pack(model.anchors, "<f8"),
        "landmarks": None
        if model.landmarks is None
        else _pack(model.landmarks, "<i8"),
    }
    if model.dim is not None:
        payload["dim"] = model.dim
    # json.dumps, not json.dump: dump to a file runs the pure-Python encoder
    write_atomic(path, MODEL_MAGIC + "\n" + json.dumps(payload, sort_keys=True) + "\n")


def load_model(path) -> Model:
    """Read a model file: v3 (``save_model``), or a full or nystrom model
    of v2, the same layout, or of v1, whose arrays are JSON lists.  An rf
    model of v1 or v2 names features drawn by an older rule, so it is
    refused.  Any malformed file raises ``ConfigError``."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip().decode("utf-8", "replace")
        body = fh.read()
    if magic not in (MODEL_MAGIC_V1, MODEL_MAGIC_V2, MODEL_MAGIC):
        raise ConfigError(f"not a model file (magic {magic!r})")
    try:
        payload = json.loads(body)
        kernel = payload["kernel"]
        features = payload["features"]
        dim = payload.get("dim")
        model = Model(
            method=payload["method"],
            coefficients=_unpack(payload["coefficients"], "<f8", 2),
            kernel=None if kernel is None else KernelSpec(**kernel),
            features=None if features is None else FeatureMapSpec(**features),
            anchors=None
            if payload["anchors"] is None
            else _unpack(payload["anchors"], "<f8", 2),
            landmarks=None
            if payload["landmarks"] is None
            else _unpack(payload["landmarks"], "<i8", 1),
            dim=None if dim is None else check_count("dim", dim),
        )
    except (ValueError, KeyError, TypeError, DimensionMismatchError) as exc:
        # ValueError covers bad JSON, bad base64 and bad spec values
        raise ConfigError(f"malformed model file {path}: {exc!r}") from None
    if model.method == "rf" and magic != MODEL_MAGIC:
        raise ConfigError(
            f"{path} is a {magic} rf model: its random features were drawn by "
            "a rule this version no longer has; retrain it"
        )
    return model


def _pack(a: np.ndarray, dtype: str) -> dict:
    """A v2 or v3 array entry: dtype, shape and the base64 of the array's bytes
    in that little-endian dtype."""
    a = np.ascontiguousarray(a, dtype=dtype)
    return {
        "dtype": dtype,
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _unpack(entry, dtype: str, ndim: int) -> np.ndarray:
    """The native array of a v1 JSON list or of a v2 or v3 ``_pack``
    entry, which must hold ``dtype`` at rank ``ndim``."""
    native = np.dtype(dtype).newbyteorder("=")
    if not isinstance(entry, dict):
        a = np.asarray(entry, dtype=native)
    else:
        if entry["dtype"] != dtype:
            raise ConfigError(f"array dtype {entry['dtype']!r}, expected {dtype!r}")
        shape = [check_count("array shape", s) for s in entry["shape"]]
        raw = base64.b64decode(entry["data"], validate=True)
        if len(raw) != math.prod(shape) * native.itemsize:
            raise ConfigError(f"{len(raw)} array bytes do not fill shape {shape}")
        a = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(native)
    if a.ndim != ndim:
        raise ConfigError(f"array of rank {a.ndim}, expected {ndim}")
    return a


# ---------------------------------------------------------------------------
# objectives (dense reference forms; the engines maintain these incrementally)


def _ip(a: np.ndarray, b: np.ndarray) -> float:
    """Trace inner product <A, B> = tr(A^T B)."""
    return float(np.sum(a * b))


def full_surrogate(alpha: np.ndarray, K: np.ndarray, Y: np.ndarray, lam: float) -> float:
    """Gauss-Seidel surrogate 0.5<a, Ka> + (n lam / 2)||a||^2 - <Y, a>."""
    n = Y.shape[0]
    ka = K @ alpha
    return 0.5 * _ip(alpha, ka) + 0.5 * n * lam * _ip(alpha, alpha) - _ip(Y, alpha)


def nystrom_objective(
    alpha: np.ndarray,
    k_block: np.ndarray,
    landmarks: np.ndarray,
    Y: np.ndarray,
    lam: float,
    gamma: float,
) -> float:
    """(1/n)||K_J a - Y||^2 + lam <a, K_JJ a> + lam gamma ||a||^2.

    ``k_block`` is the n x p column block K([n], J).
    """
    n = Y.shape[0]
    ka = k_block @ alpha
    return (
        _ip(ka - Y, ka - Y) / n
        + lam * _ip(alpha, ka[landmarks])
        + lam * gamma * _ip(alpha, alpha)
    )


def rf_objective(w: np.ndarray, Z: np.ndarray, Y: np.ndarray, lam: float) -> float:
    """(1/n)||Z w - Y||^2 + lam ||w||^2."""
    n = Y.shape[0]
    r = Z @ w - Y
    return _ip(r, r) / n + lam * _ip(w, w)


def _diagnostic_system(model: Model, data: Dataset, lam, gamma) -> _BlockSystem:
    """A dense diagnostic's system: ``model``'s, on ``data`` as one block
    of every column, once the inputs pass.  ``gamma`` passes
    ``check_level`` and ``lam`` the lambda rule of a solve at the system's
    gamma, ``_check_lams`` (ConfigError), and ``data`` can be the training
    set: it has rows, one class per coefficient column, a full model has
    one anchor per row, and a nystrom model's landmarks are rows of it
    (DimensionMismatchError)."""
    check_level("gamma", gamma)
    # no block source: the diagnostic generates its one block itself
    system = _system(model, one_vs_all(data), model.coefficients.shape[0], gamma, None)
    _check_lams([lam], data.n, system.gamma)
    if data.n == 0:
        raise DimensionMismatchError("data has no rows, so it is no model's training set")
    if data.k != model.coefficients.shape[1]:
        raise DimensionMismatchError(
            f"data has {data.k} classes, the model {model.coefficients.shape[1]} "
            "coefficient columns"
        )
    if model.method == "full" and data.n != model.anchors.shape[0]:
        raise DimensionMismatchError(
            f"data has {data.n} rows, the full model {model.anchors.shape[0]} anchors"
        )
    if model.method == "nystrom" and np.any(model.landmarks >= data.n):
        raise DimensionMismatchError(
            f"landmark {model.landmarks.max()} lies past the data's last row {data.n - 1}"
        )
    return system


@solver_threads()
def objective_value(
    model: Model, data: Dataset, lam: float, gamma: float = 0.0
) -> float:
    """The surrogate objective a solver of this method descends, evaluated
    densely at the model's coefficients (desk-scale diagnostic, inside
    ``solver_threads``).  Refuses the inputs ``normal_equation_residual``
    refuses."""
    Y = _diagnostic_system(model, data, lam, gamma).Y
    kj = model.columns(data.X)
    if model.method == "full":
        return full_surrogate(model.coefficients, kj, Y, lam)
    if model.method == "nystrom":
        return nystrom_objective(model.coefficients, kj, model.landmarks, Y, lam, gamma)
    return rf_objective(model.coefficients, kj, Y, lam)


# ---------------------------------------------------------------------------
# the block-descent engine


class _Batch:
    """Every lambda's coefficients and E side by side: lambda l owns
    columns ``cols[l]`` = l*k:(l+1)*k of one coefficient and one residual
    array, so one product against a column block serves every lambda.
    They are a lambda's only coefficients and E, so a copy of the batch
    copies every lambda's state.  ``lam_eff`` holds n lam per column."""

    def __init__(self, lams, coeffs, resid, n):
        self.lams, self.n = lams, n
        self.coeffs, self.resid = coeffs, resid
        self.k = coeffs.shape[1] // len(lams)
        self.cols = [slice(i * self.k, (i + 1) * self.k) for i in range(len(lams))]
        self.lam_eff = np.repeat([n * lam for lam in lams], self.k)

    def copy(self) -> _Batch:
        return _Batch(self.lams, self.coeffs.copy(), self.resid.copy(), self.n)


def _column_ips(a: np.ndarray, b: np.ndarray, lams: int, weight=None) -> np.ndarray:
    """Each lambda's <A, B> over its k columns of two side-by-side arrays,
    with rows weighted by ``weight`` when given, summed column by column in
    one pass over both."""
    if weight is None:
        sums = np.einsum("ij,ij->j", a, b)
    else:
        sums = np.einsum("i,ij,ij->j", weight, a, b)
    return sums.reshape(lams, -1).sum(axis=1)


def _guard_descent(prev: float, obj: float) -> None:
    if not np.isfinite(obj):
        raise DivergenceError(f"objective became non-finite ({obj})")
    if obj > prev + DESCENT_TOL * max(1.0, abs(prev)):
        raise DivergenceError(
            f"objective increased from {prev!r} to {obj!r}; "
            "residual maintenance is corrupt"
        )


def _check_lams(lams, n: int, gamma: float) -> None:
    """Lambdas that pass ``check_lambdas`` and whose block-matrix terms
    n lam and n lam gamma are finite too."""
    check_lambdas("lambda", lams)
    for lam in lams:
        # python floats: an overflow gives inf without a numpy warning
        if not math.isfinite(n * float(lam) * max(float(gamma), 1.0)):
            term = "n * lambda" if gamma <= 1.0 else f"n * lambda * gamma (gamma = {gamma!r})"
            raise ConfigError(f"{term} overflows at n = {n}, lambda = {lam!r}")


def _assert_residual(fresh: np.ndarray, maintained: np.ndarray, Y: np.ndarray) -> None:
    """The maintained E against its recomputation, relative to the
    recomputed (K_J + n lam S_J) a."""
    scale = max(np.linalg.norm(fresh + Y), 1e-30)
    drift = np.linalg.norm(fresh - maintained) / scale
    if drift > 1e-8:
        raise DivergenceError(
            f"maintained residual drifted {drift:.3e} from recomputation"
        )


@dataclass
class _BlockSystem:
    """The block step every system shares.  ``resid`` holds the fit error
    E = (K_J + n lam S_J) a - Y, where S_J scatters a block's coefficients
    onto its ``rows``; it starts at -Y.  A system states ``visit`` (the
    products every lambda shares), ``matrix`` (its b x b block A),
    ``gradients`` (its block of the normal-equation residual for every
    lambda of a ``_Batch``, side by side), ``rhs_term`` (its block's squared
    norm of the right-hand side), ``rows`` and ``objectives`` (every
    lambda's objective at a batch, from one pass).  ``rhs_norm``, the whole
    right-hand side's norm, is kept from a run's first ``grad_tol`` check.
    """

    Y: np.ndarray
    b: int
    block: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (rows, out) -> out
    gamma = 1.0  # A adds n lam gamma I

    def __post_init__(self):
        self.n = self.Y.shape[0]
        self.rhs_norm: float | None = None

    def rows(self, pos):
        """The training rows S_J scatters block ``pos`` onto, or None."""
        return None

    def accumulate(self, resid, pos, kb, coeffs_b, lam_eff) -> None:
        """resid += (K_J + n lam S_J)[:, pos] @ coeffs_b, for lambdas side
        by side when ``lam_eff`` holds n lam per column.  The product is
        made over row ranges whose results hold n x k entries, one lambda's,
        so a batch's temporary is no larger than a single run's."""
        step = -(-self.n * self.Y.shape[1] // coeffs_b.shape[1])
        for lo in range(0, self.n, step):
            resid[lo : lo + step] += kb[lo : lo + step] @ coeffs_b
        rows = self.rows(pos)
        if rows is not None:
            resid[rows] += lam_eff * coeffs_b

    def update(self, batch, pos, kb, products, part):
        """Every lambda's step on block ``pos``: one gradient product, one
        stacked ``spd_solve`` of every lambda's b x b system A d = -grad,
        formed by one ``matrix`` call, and one update product for all
        lambdas.  Returns the step's residual seconds and the solve's
        seconds.  A solve that fails, for any lambda, raises before any
        lambda is stepped.  With one lambda the products are a single
        run's."""
        t_res = perf_counter()
        grads = self.gradients(batch, pos, kb, part)
        res_seconds = perf_counter() - t_res
        t_solve = perf_counter()
        a = self.matrix(products, batch.lam_eff[:: batch.k, None, None])
        rhs = -grads.reshape(self.b, len(batch.lams), batch.k).transpose(1, 0, 2)
        delta = spd_solve(a, rhs).transpose(1, 0, 2).reshape(grads.shape)
        solve_seconds = perf_counter() - t_solve
        t_res = perf_counter()
        batch.coeffs[pos] += delta
        self.accumulate(batch.resid, pos, kb, delta, batch.lam_eff)
        return res_seconds + perf_counter() - t_res, solve_seconds


@dataclass
class _FullSystem(_BlockSystem):
    """Block Gauss-Seidel on (K + n lam I) alpha = Y.

    ``resid`` holds E = K alpha - Y.  K is symmetric, so block idx of the
    normal-equation residual is E[idx] + n lam alpha[idx], read off
    ``resid`` with no product; the block matrix is K_bb + n lam I and the
    right-hand side is Y.
    """

    def __post_init__(self):
        super().__post_init__()
        self.residual_flops = self.n * self.b * self.Y.shape[1]  # kb @ delta

    def visit(self, idx, kb, part, ledger):
        """Per-visit products shared by every lambda: the diagonal block."""
        # the b x b diagonal block ships to the solving node once per
        # visit; the closed form charges it with no worker dependence
        ledger.add("solve", nbytes=self.b * self.b * FLOAT_BYTES)
        return kb[idx]

    def matrix(self, kbb, lam_eff):
        return kbb + lam_eff * np.eye(self.b)

    def gradients(self, batch, idx, kb, part):
        return batch.resid[idx] + batch.lam_eff * batch.coeffs[idx]

    def objectives(self, batch) -> list[float]:
        """Every lambda's surrogate, with <a, K a> = <a, E> + <a, Y>:
        0.5<a, E> + (n lam / 2)||a||^2 - 0.5<a, Y>, each inner product
        summed column by column over the whole batch."""
        c, lams = batch.coeffs, len(batch.lams)
        ce = _column_ips(c, batch.resid, lams)
        cc = _column_ips(c, c, lams)
        cy = np.einsum("ilj,ij->lj", c.reshape(self.n, lams, batch.k), self.Y).sum(axis=1)
        return (0.5 * ce + 0.5 * batch.lam_eff[:: batch.k] * cc - 0.5 * cy).tolist()

    check_needs_blocks = False  # E is maintained, so check at once

    def rhs_term(self, idx, kb):
        """||Y[idx]||^2, read with no block."""
        return _ip(self.Y[idx], self.Y[idx])


@dataclass
class _GramSystem(_BlockSystem):
    """Descent on (K_J^T K_J + n lam K_JJ + n lam gamma I) a = K_J^T Y.

    ``resid`` holds E = (K_J + n lam S_J) a - Y.  K_JJ is symmetric, so
    K_J^T S_J a = K_JJ a and block pos of the normal-equation residual is
    kb^T E + n lam gamma a[pos]; the block matrix is
    kb^T kb + n lam K_JJ[pos, pos] + n lam gamma I.  Without ``landmarks``
    the K_JJ term and the scatter S_J drop out, and with gamma = 1 this is
    the random-features system (Z^T Z + n lam I) w = Z^T Y with E = Z w - Y.
    """

    landmarks: np.ndarray | None = None
    gamma: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        # kb^T E and kb @ delta
        self.residual_flops = 2 * self.n * self.b * self.Y.shape[1]

    def rows(self, pos):
        return None if self.landmarks is None else self.landmarks[pos]

    def visit(self, pos, kb, part, ledger):
        """Per-visit products shared by every lambda: the gram and, with
        landmarks, the block's b x b block of K_JJ.  The gram charges
        itself; the rhs partials ride in its message."""
        rows = self.rows(pos)
        return distributed_gram(kb, part, ledger), None if rows is None else kb[rows]

    def matrix(self, products, lam_eff):
        g, kbb = products
        system = g if kbb is None else g + lam_eff * kbb
        return system + (lam_eff * self.gamma) * np.eye(self.b)

    def gradients(self, batch, pos, kb, part):
        return (
            partitioned_matvec(kb, batch.resid, part)
            + (batch.lam_eff * self.gamma) * batch.coeffs[pos]
        )

    def objectives(self, batch) -> list[float]:
        """Every lambda's (1/n)||K_J a - Y||^2 + lam <a, K_JJ a> +
        lam gamma ||a||^2, from one pass over E and p x Lk terms, each
        inner product summed column by column.  K_J a - Y is E without the
        scatter: E itself off the landmarks, whose rows the pass weighs 0,
        and E - n lam a at them; K_JJ a is K_J a at the landmark rows."""
        c, e, lams = batch.coeffs, batch.resid, len(batch.lams)
        lam = np.array(batch.lams, dtype=np.float64)
        kjj = 0.0
        if self.landmarks is None:
            fit = _column_ips(e, e, lams)
        else:
            fit = _column_ips(e, e, lams, self._off_landmarks)
            r = e[self.landmarks] - batch.lam_eff * c  # K_J a - Y at the landmarks
            fit += _column_ips(r, r, lams)
            r += np.tile(self.Y[self.landmarks], lams)
            kjj = lam * _column_ips(c, r, lams)
        return (fit / self.n + kjj + lam * self.gamma * _column_ips(c, c, lams)).tolist()

    @cached_property
    def _off_landmarks(self) -> np.ndarray:
        """The objective pass's row weight: 0 at the landmarks, 1 elsewhere,
        made at the first pass, once the inputs are checked."""
        weight = np.ones(self.n)
        weight[self.landmarks] = 0.0
        return weight

    # the normal-equation residual needs every column block, so the engine
    # sums it over the next sweep's blocks
    check_needs_blocks = True

    def rhs_term(self, pos, kb):
        """||block of K_J^T Y||^2, the scale of the relative residual."""
        rhs_b = kb.T @ self.Y
        return _ip(rhs_b, rhs_b)


class _PendingCheck:
    """An epoch end's ``grad_tol`` check, the one the run makes.

    Each block of a partition adds, for every lambda, the squared norm of
    its columns of ``system.gradients`` at the epoch end's batch for that
    block, one product for all lambdas, and the run's first check adds
    ``system.rhs_term`` too; ``passed`` sums them in block order.  A system
    that reads its gradient off E (``check_needs_blocks`` false, full) is
    summed at once, on the live batch and the epoch's own blocks, with no
    block generated.  Otherwise the check keeps a copy of the batch and
    each visit of the next sweep adds its block; that sweep's blocks are a
    partition too, though not the previous epoch's, so the sum is the
    whole gradient.  ``restore`` returns the run to the epoch end: it cuts
    each lambda's trace and the ledger back to their lengths there, sets
    the ledger's position back, and returns the copied batch, which holds
    every lambda's coefficients and E at the epoch end.
    """

    def __init__(self, system, batch, traces, epoch, blocks, ledger):
        self.system = system
        self.epoch, self.block = epoch, len(blocks) - 1
        self.n_records = [len(trace.records) for trace in traces]
        self.n_ledger = len(ledger.records)
        self.terms = [[0.0] * len(blocks) for _ in batch.cols]
        self.rhs_terms = [0.0] * len(blocks) if system.rhs_norm is None else None
        self.snapshot = batch.copy() if system.check_needs_blocks else batch
        if not system.check_needs_blocks:
            for blk, pos in enumerate(blocks):
                self.add(blk, pos, None, None)

    def add(self, blk, pos, kb, part) -> None:
        grads = self.system.gradients(self.snapshot, pos, kb, part)
        for terms, cols in zip(self.terms, self.snapshot.cols):
            terms[blk] = _ip(grads[:, cols], grads[:, cols])
        if self.rhs_terms is not None:
            self.rhs_terms[blk] = self.system.rhs_term(pos, kb)

    def passed(self, tol: float) -> bool:
        """Every lambda's residual is within tol of the right-hand side's
        norm; a NaN residual never is."""
        if self.rhs_terms is not None:
            self.system.rhs_norm = max(np.sqrt(sum_in_order(self.rhs_terms)), 1e-30)
        bound = tol * self.system.rhs_norm
        return all(np.sqrt(sum_in_order(t)) <= bound for t in self.terms)

    def restore(self, traces, ledger) -> _Batch:
        for trace, n_records in zip(traces, self.n_records):
            del trace.records[n_records:]
        del ledger.records[self.n_ledger:]
        ledger.set_position(self.epoch, self.block)
        return self.snapshot


def _recomputed_resids(system, batch, blocks, buffers) -> np.ndarray:
    """Every lambda's E, side by side, recomputed from its coefficients in
    one pass over ``blocks`` starting from -Y, each block generated once,
    into the run's ``buffers``, and applied to every lambda in one
    product."""
    fresh = np.tile(-system.Y, len(batch.lams))
    with closing(ahead(system.block, blocks, buffers)) as kbs:
        for pos, (kb, _) in zip(blocks, kbs):
            system.accumulate(fresh, pos, kb, batch.coeffs[pos], batch.lam_eff)
    return fresh


def _run(
    data: Dataset, system, model: Model, lams, plan: BlockPlan, epochs: int, *,
    test_data: Dataset | None = None, exec_ctx: ExecContext | None = None,
    grad_tol: float | None = None, check_residual: bool = False, rmse: bool = False,
) -> list[tuple[Model, ConvergenceTrace]]:
    """Sweep ``plan`` for ``epochs`` epochs, carrying every lambda, and
    return one copy of ``model`` per lambda with its coefficients, sharing
    ``model``'s feature draw.

    Each visit generates the column block once, times ``system.visit``
    forming the products every lambda shares, then ``system.update`` makes
    one exact b x b update per lambda with one gradient product, one
    stacked solve and one update product for all of them, and
    ``system.objectives`` gives every lambda's objective from one pass
    over the batch.  An rf block gathers its columns from the model's
    feature draw, made at the run's first block, or at its test set's
    block.  The ledger, the descent guard, test
    evaluation, traces, the residual check and the ``grad_tol`` stop live
    here.  The test set's block ``model.columns(test_data.X)`` is generated
    once per run, before the first visit, so a test set of the wrong width
    is refused even with ``epochs=0``; a visit's test error is
    ``evaluate``'s figure for that block times a lambda's coefficients,
    bit for bit what ``evaluate`` gives for the model.  The ledger charges
    each lambda its residual and solve flops and an equal share of the
    step's residual seconds and of the stacked solve's seconds; a trace
    row's seconds count that solve share and the row's own checks, and the
    first lambda's row also the rest of the visit, the objective pass
    included.  A solve that fails, for
    any lambda, raises before any lambda is stepped, guarded, traced or
    charged; otherwise every lambda is stepped, the objective pass made,
    and each lambda guarded in lambda order, and the first guard that
    fails raises.

    The ``grad_tol`` check is one ``_PendingCheck`` per epoch end, summed
    per block from ``system.gradients`` and ``system.rhs_term``.  ``full``
    sums it at the epoch end on that epoch's blocks, from E, and stops
    there if it passes.  Nystrom and rf sum it on the next sweep's blocks;
    if it passes, that sweep is discarded and the run ends on the epoch
    end's batch; an error raised by that sweep's updates counts only if
    the check fails.  No check follows the last epoch: it could not change
    the result.  No ``exec_ctx`` means one worker, and no ledger means
    ``NULL_LEDGER``, which keeps nothing.

    The sweeps run inside ``solver_threads``: OpenBLAS on one thread, and
    each sweep's blocks taken from ``threads.ahead``, which generates block
    i + 1 on a background thread while visit i runs for every lambda.
    Every block of the run is written into one of two n x b buffers
    allocated here, on the calling thread: block i of a sweep into
    ``buffers[i % 2]``.  The first
    block of a sweep is generated after the previous epoch end's stop
    decision, so no block is generated that the run does not use.  A
    generation error is raised when its block is taken; a visit error
    closes the sweep, which waits for the generation in flight.  A trace
    row's seconds count the wait for the block, a ledger generation row
    the generation's own time.  The sweeps' arithmetic ignores numpy's
    overflow and invalid-value warnings, as a non-finite value there raises
    ``DivergenceError`` anyway; the lookahead thread runs under the same
    error state, and the test set's block and errors keep the caller's.
    """
    n, k = system.Y.shape
    _check_lams(lams, n, system.gamma)
    epochs = check_count("epochs", epochs)
    if grad_tol is not None:
        check_level("grad_tol", grad_tol)
    if exec_ctx is None:
        exec_ctx = ExecContext()
    part = exec_ctx.partition(n)
    ledger = exec_ctx.ledger if exec_ctx.ledger is not None else NULL_LEDGER
    batch = _Batch(
        lams, np.zeros((plan.universe, len(lams) * k)), np.tile(-system.Y, len(lams)), n
    )
    traces = [ConvergenceTrace() for _ in lams]
    prev_objs = [np.inf] * len(lams)
    caller_err = np.geterr()
    buffers = (np.empty((n, plan.block_size)), np.empty((n, plan.block_size)))

    def visit(epoch, blk, pos, kb, gen_s, wait_s):
        ledger.set_position(epoch, blk)
        ledger.add("generation", flops=n * system.b * data.d, seconds=gen_s)
        t_visit = perf_counter()
        products = system.visit(pos, kb, part, ledger)
        res_s, solve_s = system.update(batch, pos, kb, products, part)
        objs = system.objectives(batch)
        shared = wait_s + perf_counter() - t_visit - solve_s
        lam_solve_s = solve_s / len(lams)
        for i, (obj, cols) in enumerate(zip(objs, batch.cols)):
            t0 = perf_counter()
            ledger.add("residual", flops=system.residual_flops, seconds=res_s / len(lams))
            ledger.add("solve", flops=system.b**3, seconds=lam_solve_s)
            c = batch.coeffs[:, cols]
            _guard_descent(prev_objs[i], obj)
            prev_objs[i] = obj
            terr = None
            if test_cols is not None:
                with np.errstate(**caller_err):
                    scores = test_cols @ np.ascontiguousarray(c)
                    terr = _test_error(scores, test_data.labels, rmse)
            seconds = perf_counter() - t0 + lam_solve_s + shared
            traces[i].append(TraceRecord(epoch, blk, seconds, obj, terr))
            shared = 0.0

    with solver_threads(), np.errstate(over="ignore", invalid="ignore"):
        test_cols = None
        if test_data is not None:
            with np.errstate(**caller_err):
                test_cols = model.columns(test_data.X)
        pending = None  # the last epoch end's check, summed on this sweep
        for epoch in range(epochs):
            failure = None
            blocks = epoch_blocks(plan, epoch)
            with closing(ahead(system.block, blocks, buffers)) as sweep:
                for blk, pos in enumerate(blocks):
                    t_take = perf_counter()
                    kb, gen_s = next(sweep)
                    wait_s = perf_counter() - t_take
                    if pending is not None:
                        pending.add(blk, pos, kb, part)
                    if failure is not None:
                        continue  # the sweep now only finishes the check
                    try:
                        visit(epoch, blk, pos, kb, gen_s, wait_s)
                    except Exception as exc:
                        if pending is None:
                            raise
                        failure = exc
            if pending is not None:
                if pending.passed(grad_tol):
                    batch = pending.restore(traces, ledger)
                    break
                if failure is not None:
                    raise failure
                pending = None
            if check_residual:
                fresh = _recomputed_resids(system, batch, blocks, buffers)
                for cols in batch.cols:
                    _assert_residual(fresh[:, cols], batch.resid[:, cols], system.Y)
            if grad_tol is None or epoch == epochs - 1:
                continue
            check = _PendingCheck(system, batch, traces, epoch, blocks, ledger)
            if system.check_needs_blocks:
                pending = check
            elif check.passed(grad_tol):  # summed already, from E
                break
    results = []
    for cols, trace in zip(batch.cols, traces):
        fitted = dataclasses.replace(model, coefficients=batch.coeffs[:, cols].copy())
        fitted._draws = model._draws  # the run's feature draw, made once
        results.append((fitted, trace))
    return results


def _system(model: Model, Y: np.ndarray, b: int, gamma: float, block) -> _BlockSystem:
    """The one place a model's method picks its block system, on targets
    ``Y``, block size ``b`` and column source ``block``: full's, or the
    gram system on the model's landmarks.  rf is the nystrom system with no
    landmarks and gamma = 1, whatever ``gamma`` is given."""
    if model.method == "full":
        return _FullSystem(Y, b, block)
    gamma = 1.0 if model.method == "rf" else gamma
    return _GramSystem(Y, b, block, landmarks=model.landmarks, gamma=gamma)


def _run_spec(
    data: Dataset, spec, lams, plan: BlockPlan, epochs: int, *,
    p: int | None = None, gamma: float = 0.0, landmark_seed: int = 0,
    block_fn=None, **kwargs,
) -> list[tuple[Model, ConvergenceTrace]]:
    """The one place a spec (plus ``p``) picks a method: build a
    zero-coefficient model of it, then run its system (``_system``) on the
    model's column map, or on ``block_fn`` when given.  ``block_fn(pos)``
    returns its block, which is copied into the run's buffer."""
    Y = one_vs_all(data)
    if isinstance(spec, FeatureMapSpec):
        model = Model("rf", np.zeros((spec.p, data.k)), features=spec, dim=data.d)
    elif not isinstance(spec, KernelSpec):
        raise ConfigError(f"unsupported spec type {type(spec).__name__}")
    elif p is None:
        model = Model("full", np.zeros((data.n, data.k)), kernel=spec, anchors=data.X)
    else:
        check_level("gamma", gamma)
        landmarks = draw_landmarks(data.n, p, landmark_seed)
        model = Model("nystrom", np.zeros((p, data.k)), kernel=spec,
                      anchors=data.X[landmarks], landmarks=landmarks)
    rows = model.coefficients.shape[0]
    if plan.universe != rows:
        raise ConfigError(f"plan universe {plan.universe} != {rows} coefficient rows")
    if block_fn is None:
        def block(pos, out):
            return model.columns(data.X, pos, at_anchors=True, out=out)
    else:
        def block(pos, out):
            np.copyto(out, block_fn(pos))
            return out
    system = _system(model, Y, plan.block_size, gamma, block)
    return _run(data, system, model, lams, plan, epochs, **kwargs)


# ---------------------------------------------------------------------------
# public entry points


def _expect_spec(spec, kind: type) -> None:
    """The single-method entry points take one spec type; the builder would
    run the other method on the other type."""
    if not isinstance(spec, kind):
        raise ConfigError(f"expected a {kind.__name__}, got {type(spec).__name__}")


def solve_full(
    data: Dataset, kspec: KernelSpec, lam: float, plan: BlockPlan, epochs: int,
    **kwargs,
) -> tuple[Model, ConvergenceTrace]:
    """Full-kernel block coordinate descent on (K + n*lam*I) alpha = Y."""
    _expect_spec(kspec, KernelSpec)
    return _run_spec(data, kspec, [lam], plan, epochs, **kwargs)[0]


def solve_nystrom(
    data: Dataset, kspec: KernelSpec, p: int, lam: float, gamma: float,
    plan: BlockPlan, epochs: int, landmark_seed: int = 0, **kwargs,
) -> tuple[Model, ConvergenceTrace]:
    """Nystrom block coordinate descent on the regularized normal equations."""
    _expect_spec(kspec, KernelSpec)
    return _run_spec(
        data, kspec, [lam], plan, epochs,
        p=p, gamma=gamma, landmark_seed=landmark_seed, **kwargs,
    )[0]


def solve_rf(
    data: Dataset, fspec: FeatureMapSpec, lam: float, plan: BlockPlan, epochs: int,
    **kwargs,
) -> tuple[Model, ConvergenceTrace]:
    """Random-features block coordinate descent on (Z^T Z + n*lam*I) w = Z^T Y."""
    _expect_spec(fspec, FeatureMapSpec)
    return _run_spec(data, fspec, [lam], plan, epochs, **kwargs)[0]


def solve_path(
    data: Dataset, spec, lams, plan: BlockPlan, epochs: int, *,
    p: int | None = None, gamma: float = 0.0, landmark_seed: int = 0, **kwargs,
) -> dict[float, tuple[Model, ConvergenceTrace]]:
    """Regularization path: one model and trace per lambda.

    The method follows from ``spec`` and ``p``: a ``FeatureMapSpec`` runs
    rf; a ``KernelSpec`` runs full when ``p`` is None, and otherwise
    nystrom on ``p`` landmark rows drawn with ``landmark_seed``, with
    ``gamma`` weighting its ridge term.  ``gamma`` and ``landmark_seed``
    are ignored by full and rf.

    Block matrices (the column block and, for nystrom/rf, its gram) are
    generated once per block visit and shared across every lambda, so the
    generation cost matches a single run.  Each visit makes one gradient
    product and one update product for all lambdas, as wide as their k
    columns together, and one stacked ``spd_solve`` of every lambda's b x b
    system.  A one-lambda path is
    byte-identical to its single run.  With several lambdas, OpenBLAS may
    round a column of a wide product differently from the same column of
    a width-k one, so each lambda's result is its single run's up to
    rounding: over 750 random problems (1-4 lambdas, n < 3000, all three
    methods) coefficients differed by at most 2.4e-9 of the largest one,
    on ill-conditioned 1-d nystrom blocks, and objectives by at most
    1.5e-12 relative; about half of the lambda runs were byte-equal.
    """
    lams = list(lams)
    results = _run_spec(
        data, spec, lams, plan, epochs,
        p=p, gamma=gamma, landmark_seed=landmark_seed, **kwargs,
    )
    return {lam: res for lam, res in zip(lams, results)}


# ---------------------------------------------------------------------------
# fixed-point residuals (dense diagnostics used by tests and the CLI)


@solver_threads()
def normal_equation_residual(
    model: Model, data: Dataset, lam: float, gamma: float = 0.0
) -> float:
    """Relative residual of the method's normal equation at the model:
    ||grad|| / ||rhs|| for the system a solve of the method runs, that is

    full:     ||(K + n lam I) a - Y|| / ||Y||
    nystrom:  ||(K_J^T K_J + n lam K_JJ + n lam gamma I) a - K_J^T Y|| / ||K_J^T Y||
    rf:       ||(Z^T Z + n lam I) w - Z^T Y|| / ||Z^T Y||

    It is the ``grad_tol`` check on one block of every column,
    ``model.columns(data.X, at_anchors=True)``: E accumulated from -Y, then
    the system's ``gradients`` and ``rhs_term``.  Materializes the whole
    n x p (or n x n) block, so desk scale only.  Runs inside
    ``solver_threads``.  ``data`` must be the training set: one with no
    rows, a row count other than a full model's anchor count, or a nystrom
    landmark past the last row raises ``DimensionMismatchError``; a
    ``gamma`` that ``check_level`` refuses, or a ``lam`` that a solve of
    the method refuses (``check_lambdas``, or n lam or, for nystrom,
    n lam gamma not finite) raises ``ConfigError``.
    """
    system = _diagnostic_system(model, data, lam, gamma)
    kb = model.columns(data.X, at_anchors=True)
    batch = _Batch([lam], model.coefficients, -system.Y, data.n)
    system.accumulate(batch.resid, slice(None), kb, batch.coeffs, batch.lam_eff)
    grads = system.gradients(batch, slice(None), kb, ExecContext().partition(data.n))
    return float(np.linalg.norm(grads) / np.sqrt(system.rhs_term(slice(None), kb)))
