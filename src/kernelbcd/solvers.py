"""Block coordinate descent solvers for kernel least squares.

One engine, ``_run``, drives three primal solvers.  It sweeps the block
plan, generates each column block once per visit, and owns the ledger,
the descent guard, test evaluation, traces, the residual check and the
``grad_tol`` stop.  The model's column map, ``Model.columns``, is the one
block source: K([n], J) for ``full``, K([n], landmarks[J]) for ``nystrom``
and Z([n], J) for ``rf``; ``predict`` and the dense diagnostics read it
too.  A per-method system states only its math: the products every
lambda shares, its b x b block matrix A, its block of the normal-equation
residual ``grad`` and the rows its scatter S_J writes.  One block step
serves every system: solve A d = -grad, add d to the block's coefficients
and (K_J + n*lam*S_J)[:, block] d to the maintained R.  The ``grad_tol``
check and the residual check read the same ``grad`` and the same columns.

* ``_FullSystem``: block Gauss-Seidel on (K + n*lam*I) alpha = Y, exact
  blockwise minimization of 0.5<alpha, K alpha> + (n*lam/2)||alpha||^2 - <Y, alpha>;
  R = K alpha and grad = (R - Y)[idx] + n*lam*alpha[idx], with no product;
* ``_GramSystem``, nystrom: (K_J^T K_J + n*lam*K_JJ + n*lam*gamma*I) alpha =
  K_J^T Y, keeping R = (K_J + n*lam*S_J) alpha, so that
  grad = K_J[:, pos]^T (R - Y) + n*lam*gamma*alpha[pos];
* ``_GramSystem``, random features: the same with no K_JJ term and gamma = 1,
  (Z^T Z + n*lam*I) w = Z^T Y with R = Z w.

Every update is an exact b x b solve, so each objective is non-increasing;
an increase beyond 1e-9 times max(1, |objective|) raises ``DivergenceError``.
Blocks do not depend on lambda, so a path costs one run's generation plus a
small solve per lambda.
Public APIs take the statistical lambda; systems use lam_eff = n * lambda.

The ``grad_tol`` stop is exact.  ``full`` maintains K alpha and checks at
each epoch end with no blocks.  The nystrom/rf normal-equation residual
needs every column block, so an epoch end's check is summed on the blocks
the next sweep generates anyway; if it passes, that sweep is discarded.  A
run stopped after E epochs thus generates each block E + 1 times, not 2E.
``check_residual`` recomputes every lambda's R in one more sweep per epoch.

Within a sweep the next block is generated while the current one is
applied (``threads.ahead``): a block source is called one call at a time,
in plan order, possibly from a worker thread, and never for a block past
the sweep's last.
"""

from __future__ import annotations

import dataclasses
import json
import os
from collections.abc import Callable
from contextlib import closing
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .distsim import (
    FLOAT_BYTES,
    NULL_LEDGER,
    ExecContext,
    distributed_gram,
    partitioned_matvec,
)
from .errors import ConfigError, DimensionMismatchError, DivergenceError
from .kernels import (
    Dataset,
    FeatureMapSpec,
    KernelSpec,
    kernel_cross,
    one_vs_all,
    random_features_block,
)
from .linalg import spd_solve
from .threads import ahead, solver_threads

# The solvers call gram only through distributed_gram.  It stays bound here
# because perfbench/tracing.py rebinds it in this module's namespace.
from .linalg import gram  # noqa: F401

DESCENT_TOL = 1e-9

MODEL_MAGIC = "kernelbcd-model-v1"


# ---------------------------------------------------------------------------
# block plans


@dataclass(frozen=True)
class BlockPlan:
    """A fixed partition of the coordinate universe into size-b blocks.

    The partition is drawn once from a shuffled universe and held fixed for
    the whole run; only the visit order is re-permuted each epoch (see
    ``epoch_order``).  Both draws are pure functions of ``seed``.
    """

    block_size: int
    blocks: tuple
    seed: int

    @property
    def universe(self) -> int:
        return self.block_size * len(self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def make_plan(universe: int, block_size: int, seed: int = 0) -> BlockPlan:
    if block_size < 1 or universe < 1:
        raise ConfigError("universe and block size must be positive")
    if universe % block_size != 0:
        raise ConfigError(
            f"block size {block_size} does not divide universe {universe}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    perm = rng.permutation(universe)
    blocks = tuple(
        perm[i * block_size : (i + 1) * block_size]
        for i in range(universe // block_size)
    )
    return BlockPlan(block_size=block_size, blocks=blocks, seed=seed)


def epoch_order(plan: BlockPlan, epoch: int) -> np.ndarray:
    """Visit order of block ids for one epoch; pure in (plan.seed, epoch)."""
    rng = np.random.default_rng(
        np.random.SeedSequence(plan.seed, spawn_key=(epoch + 1,))
    )
    return rng.permutation(plan.n_blocks)


def draw_landmarks(n: int, p: int, seed: int) -> np.ndarray:
    """Uniform without-replacement draw of p landmark rows out of n."""
    if not 1 <= p <= n:
        raise ConfigError(f"landmark count must lie in [1, {n}], got {p}")
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
    objective_alt: float | None = None


@dataclass
class ConvergenceTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    def epoch_end_objectives(self) -> np.ndarray:
        """Objective at the last block of each epoch."""
        out = {}
        for r in self.records:
            out[r.epoch] = r.objective
        return np.array([out[e] for e in sorted(out)])

    def write_csv(self, path) -> None:
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "w", newline="") as fh:
            fh.write("epoch,block,seconds,objective,test_error\n")
            for r in self.records:
                terr = "" if r.test_error is None else repr(r.test_error)
                fh.write(
                    f"{r.epoch},{r.block},{r.seconds:.6f},{r.objective!r},{terr}\n"
                )
        os.replace(tmp, path)


@dataclass
class Model:
    """A trained predictor.

    full:     scores(x) = k(x, anchors) @ coefficients, anchors = training X
    nystrom:  same with anchors = landmark rows
    rf:       scores(x) = z(x) @ coefficients

    ``dim`` is an rf model's input width; anchors give it for the others.
    Models saved before it was recorded load with ``dim`` None and are
    not checked.
    """

    method: str
    coefficients: np.ndarray
    kernel: KernelSpec | None = None
    features: FeatureMapSpec | None = None
    anchors: np.ndarray | None = None
    landmarks: np.ndarray | None = None
    dim: int | None = None

    def __post_init__(self):
        if self.method not in ("full", "nystrom", "rf"):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.method == "rf":
            if self.features is None:
                raise ConfigError("rf model needs a feature map spec")
            if self.coefficients.shape[0] != self.features.p:
                raise DimensionMismatchError("coefficient rows must equal p")
        else:
            if self.kernel is None or self.anchors is None:
                raise ConfigError(f"{self.method} model needs kernel and anchors")
            if self.coefficients.shape[0] != self.anchors.shape[0]:
                raise DimensionMismatchError(
                    "coefficient rows must match anchor rows"
                )

    def columns(self, X: np.ndarray, cols=None) -> np.ndarray:
        """The column block at the rows of ``X``: k(X, anchors[cols]) for
        full/nystrom, z(X)[:, cols] for rf; every column when ``cols`` is
        None.  Coefficient row j weights column j."""
        if self.method == "rf":
            if cols is None:
                cols = np.arange(self.features.p)
            return random_features_block(X, cols, self.features)
        anchors = self.anchors if cols is None else self.anchors[cols]
        return kernel_cross(X, anchors, self.kernel)


@solver_threads()
def predict(model: Model, x_test: np.ndarray) -> np.ndarray:
    """Score matrix (m x k) for the rows of ``x_test``, computed inside
    ``solver_threads`` like training, so the scores do not depend on the
    host's CPU count."""
    x_test = np.asarray(x_test, dtype=np.float64)
    if x_test.ndim != 2:
        raise DimensionMismatchError("x_test must be 2-d")
    width = model.dim if model.method == "rf" else model.anchors.shape[1]
    if width is not None and x_test.shape[1] != width:
        raise DimensionMismatchError(
            f"x_test has {x_test.shape[1]} features, model expects {width}"
        )
    return model.columns(x_test) @ model.coefficients


def classify(scores: np.ndarray) -> np.ndarray:
    """Row argmax; ties break toward the lowest class id."""
    return np.argmax(scores, axis=1)


def evaluate(model: Model, data: Dataset, rmse: bool = False) -> float:
    """Top-1 error rate, or root mean square error of the argmax class id."""
    pred = classify(predict(model, data.X))
    if rmse:
        return float(np.sqrt(np.mean((pred - data.labels) ** 2.0)))
    return float(np.mean(pred != data.labels))


def save_model(model: Model, path) -> None:
    """Write a model file: a magic line followed by one JSON document.

    json round-trips float64 exactly (shortest-repr), so load_model
    reproduces the coefficients bit for bit.
    """
    payload = {
        "method": model.method,
        "coefficients": model.coefficients.tolist(),
        "kernel": None
        if model.kernel is None
        else {"family": model.kernel.family, "sigma": model.kernel.sigma},
        "features": None
        if model.features is None
        else {
            "p": model.features.p,
            "sigma": model.features.sigma,
            "master_seed": model.features.master_seed,
        },
        "anchors": None if model.anchors is None else model.anchors.tolist(),
        "landmarks": None if model.landmarks is None else model.landmarks.tolist(),
    }
    if model.dim is not None:
        payload["dim"] = model.dim
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(MODEL_MAGIC + "\n")
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def load_model(path) -> Model:
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != MODEL_MAGIC:
            raise ConfigError(f"not a model file (magic {magic!r})")
        payload = json.load(fh)
    kernel = payload["kernel"]
    features = payload["features"]
    return Model(
        method=payload["method"],
        coefficients=np.asarray(payload["coefficients"], dtype=np.float64),
        kernel=None if kernel is None else KernelSpec(**kernel),
        features=None if features is None else FeatureMapSpec(**features),
        anchors=None
        if payload["anchors"] is None
        else np.asarray(payload["anchors"], dtype=np.float64),
        landmarks=None
        if payload["landmarks"] is None
        else np.asarray(payload["landmarks"], dtype=np.int64),
        dim=payload.get("dim"),
    )


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


def full_lsq_objective(alpha: np.ndarray, K: np.ndarray, Y: np.ndarray, lam: float) -> float:
    """The kernel least-squares value (1/n)||Ka - Y||^2 + lam <a, Ka>."""
    n = Y.shape[0]
    ka = K @ alpha
    return _ip(ka - Y, ka - Y) / n + lam * _ip(alpha, ka)


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


@solver_threads()
def objective_value(
    model: Model, data: Dataset, lam: float, gamma: float = 0.0
) -> float:
    """The surrogate objective a solver of this method descends, evaluated
    densely at the model's coefficients (desk-scale diagnostic, inside
    ``solver_threads``)."""
    Y = one_vs_all(data)
    kj = model.columns(data.X)
    if model.method == "full":
        return full_surrogate(model.coefficients, kj, Y, lam)
    if model.method == "nystrom":
        return nystrom_objective(model.coefficients, kj, model.landmarks, Y, lam, gamma)
    return rf_objective(model.coefficients, kj, Y, lam)


def primal_dual_gap(Z: np.ndarray, w: np.ndarray, Y: np.ndarray, lam: float) -> float:
    """||w - (1/(n lam)) Z^T (Y - Z w)||_F.

    Zero (to rounding) exactly at the ridge optimum, where the primal
    weights and the implied dual variables alpha = Y - Z w coincide
    through w = (1/(n lam)) Z^T alpha.
    """
    n = Y.shape[0]
    alpha_dual = Y - Z @ w
    return float(np.linalg.norm(w - (Z.T @ alpha_dual) / (n * lam)))


# ---------------------------------------------------------------------------
# the block-descent engine


@dataclass
class _LamState:
    lam: float
    coeffs: np.ndarray
    resid: np.ndarray  # R, see _BlockSystem
    trace: ConvergenceTrace = field(default_factory=ConvergenceTrace)
    prev_obj: float = np.inf


def _guard_descent(state: _LamState, obj: float) -> None:
    if not np.isfinite(obj):
        raise DivergenceError(f"objective became non-finite ({obj})")
    if obj > state.prev_obj + DESCENT_TOL * max(1.0, abs(state.prev_obj)):
        raise DivergenceError(
            f"objective increased from {state.prev_obj!r} to {obj!r}; "
            "residual maintenance is corrupt"
        )
    state.prev_obj = obj


def _check_lams(lams) -> None:
    if not lams:
        raise ConfigError("need at least one lambda")
    if any(not 0 < lam < np.inf for lam in lams):
        raise ConfigError("every lambda must be positive and finite")
    if len(set(lams)) != len(lams):
        raise ConfigError("lambda values must be distinct")


def _assert_residual(fresh: np.ndarray, maintained: np.ndarray) -> None:
    scale = max(np.linalg.norm(fresh), 1e-30)
    drift = np.linalg.norm(fresh - maintained) / scale
    if drift > 1e-8:
        raise DivergenceError(
            f"maintained residual drifted {drift:.3e} from recomputation"
        )


@dataclass
class _BlockSystem:
    """The block step every system shares.  ``resid`` holds
    R = (K_J + n lam S_J) a, where S_J scatters a block's coefficients onto
    its ``rows``.  A system states ``visit`` (the products every lambda
    shares), ``matrix`` (its b x b block A), ``gradient`` (its block of the
    normal-equation residual at a state) and ``rows``.
    """

    Y: np.ndarray
    b: int
    block: Callable[[np.ndarray], np.ndarray]  # coefficient rows -> n x b
    model: Callable[[np.ndarray], Model]  # coefficients -> Model

    def __post_init__(self):
        self.n = self.Y.shape[0]
        self.eye_b = np.eye(self.b)

    def rows(self, pos):
        """The training rows S_J scatters block ``pos`` onto, or None."""
        return None

    def accumulate(self, resid, pos, kb, coeffs_b, lam_eff) -> None:
        """resid += (K_J + n lam S_J)[:, pos] @ coeffs_b."""
        resid += kb @ coeffs_b
        rows = self.rows(pos)
        if rows is not None:
            resid[rows] += lam_eff * coeffs_b

    def update(self, st, pos, kb, products, part):
        """One lambda's step on block ``pos``; returns its residual and
        solve seconds."""
        lam_eff = self.n * st.lam
        t_res = perf_counter()
        grad = self.gradient(st, pos, kb, part)
        res_seconds = perf_counter() - t_res
        t_solve = perf_counter()
        delta = spd_solve(self.matrix(products, lam_eff), -grad)
        solve_seconds = perf_counter() - t_solve
        t_res = perf_counter()
        st.coeffs[pos] += delta
        self.accumulate(st.resid, pos, kb, delta, lam_eff)
        return res_seconds + perf_counter() - t_res, solve_seconds


@dataclass
class _FullSystem(_BlockSystem):
    """Block Gauss-Seidel on (K + n lam I) alpha = Y.

    ``resid`` holds K alpha.  K is symmetric, so block idx of the
    normal-equation residual is (K alpha - Y)[idx] + n lam alpha[idx], read
    off ``resid`` with no product; the block matrix is K_bb + n lam I.
    """

    def __post_init__(self):
        super().__post_init__()
        self.residual_flops = self.n * self.b * self.Y.shape[1]  # kb @ delta
        self.y_norm = np.linalg.norm(self.Y)

    def visit(self, idx, kb, part, ledger):
        """Per-visit products shared by every lambda: the diagonal block."""
        # the b x b diagonal block ships to the solving node once per
        # visit; the closed form charges it with no worker dependence
        ledger.add("solve", nbytes=self.b * self.b * FLOAT_BYTES)
        return kb[idx]

    def matrix(self, kbb, lam_eff):
        return kbb + lam_eff * self.eye_b

    def gradient(self, st, idx, kb, part):
        return st.resid[idx] - self.Y[idx] + (self.n * st.lam) * st.coeffs[idx]

    def objective(self, st):
        """The surrogate, and the least-squares value as the alternate."""
        lam_eff = self.n * st.lam
        c, ka = st.coeffs, st.resid
        obj = 0.5 * _ip(c, ka) + 0.5 * lam_eff * _ip(c, c) - _ip(self.Y, c)
        alt = _ip(ka - self.Y, ka - self.Y) / self.n + st.lam * _ip(c, ka)
        return obj, alt

    check_needs_blocks = False  # K alpha is maintained, so check at once

    def converged(self, states, tol):
        """The gradient over every row is within tol of ||Y||."""
        return all(
            np.linalg.norm(self.gradient(st, slice(None), None, None))
            <= tol * max(self.y_norm, 1e-30)
            for st in states
        )


@dataclass
class _GramSystem(_BlockSystem):
    """Descent on (K_J^T K_J + n lam K_JJ + n lam gamma I) a = K_J^T Y.

    ``resid`` holds R = (K_J + n lam S_J) a.  K_JJ is symmetric, so
    K_J^T S_J a = K_JJ a and block pos of the normal-equation residual is
    kb^T (R - Y) + n lam gamma a[pos]; the block matrix is
    kb^T kb + n lam K_JJ[pos, pos] + n lam gamma I.  Without ``landmarks``
    the K_JJ term and the scatter S_J drop out, and with gamma = 1 this is
    the random-features system (Z^T Z + n lam I) w = Z^T Y with R = Z w.
    """

    landmarks: np.ndarray | None = None
    gamma: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        # kb^T (R - Y) and kb @ delta
        self.residual_flops = 2 * self.n * self.b * self.Y.shape[1]
        self.rhs_norm: float | None = None  # ||K_J^T Y||, from the first check

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
        return system + (lam_eff * self.gamma) * self.eye_b

    def gradient(self, st, pos, kb, part):
        return (
            partitioned_matvec(kb, st.resid - self.Y, part)
            + (self.n * st.lam * self.gamma) * st.coeffs[pos]
        )

    def objective(self, st):
        """(1/n)||K_J a - Y||^2 + lam <a, K_JJ a> + lam gamma ||a||^2."""
        ka = st.resid
        if self.landmarks is not None:  # K_J a: R without the scatter
            ka = ka.copy()
            ka[self.landmarks] -= self.n * st.lam * st.coeffs
        r = ka - self.Y
        obj = _ip(r, r) / self.n
        lam = st.lam
        if self.landmarks is not None:
            # nystrom values are taken at (n lam) / n, which can differ
            # from lam in the last bit; kept so its traces stay as they were
            lam = (self.n * st.lam) / self.n
            obj += lam * _ip(st.coeffs, ka[self.landmarks])
        return obj + lam * self.gamma * _ip(st.coeffs, st.coeffs), None

    # the normal-equation residual needs every column block, so the engine
    # sums it over the next sweep's blocks
    check_needs_blocks = True

    def rhs_term(self, kb):
        """||block of K_J^T Y||^2, the scale of the relative residual."""
        rhs_b = kb.T @ self.Y
        return _ip(rhs_b, rhs_b)


def _sum_in_order(terms) -> float:
    """Left-to-right float sum; the built-in ``sum`` may compensate."""
    total = 0.0
    for term in terms:
        total += term
    return total


class _PendingCheck:
    """An epoch end's ``grad_tol`` check, made on the next sweep's blocks.

    It keeps a copy of each lambda's state at the epoch end.  Each visit
    adds ``system.gradient``'s squared norm at those copies for its block;
    ``passed`` sums them in plan order.  ``restore`` returns the run to the
    epoch end: each lambda's coefficients and trace length, and the
    ledger's length and position.  The maintained residuals are not
    restored, as a restored run only returns.
    """

    def __init__(self, system, states, epoch, block, ledger, n_blocks):
        self.system = system
        self.epoch, self.block = epoch, block
        self.snapshots = [
            _LamState(st.lam, st.coeffs.copy(), st.resid.copy()) for st in states
        ]
        self.n_records = [len(st.trace.records) for st in states]
        self.n_ledger = len(ledger.records)
        self.terms = [[0.0] * n_blocks for _ in states]
        self.rhs_terms = [0.0] * n_blocks if system.rhs_norm is None else None

    def add(self, blk, pos, kb, part) -> None:
        for terms, snapshot in zip(self.terms, self.snapshots):
            grad = self.system.gradient(snapshot, pos, kb, part)
            terms[blk] = _ip(grad, grad)
        if self.rhs_terms is not None:
            self.rhs_terms[blk] = self.system.rhs_term(kb)

    def passed(self, tol: float) -> bool:
        """Every lambda's residual is within tol of ||K_J^T Y||."""
        if self.rhs_terms is not None:
            self.system.rhs_norm = max(np.sqrt(_sum_in_order(self.rhs_terms)), 1e-30)
        bound = tol * self.system.rhs_norm
        return not any(np.sqrt(_sum_in_order(t)) > bound for t in self.terms)

    def restore(self, states, ledger) -> None:
        for st, snapshot, n_records in zip(states, self.snapshots, self.n_records):
            st.coeffs = snapshot.coeffs
            del st.trace.records[n_records:]
        del ledger.records[self.n_ledger:]
        ledger.set_position(self.epoch, self.block)


def _recomputed_resids(system, states, blocks) -> list[np.ndarray]:
    """Every lambda's R recomputed from its coefficients in one pass over
    ``blocks``, each block generated once."""
    fresh = [np.zeros(st.resid.shape) for st in states]
    with closing(ahead(system.block, blocks)) as kbs:
        for pos, (kb, _) in zip(blocks, kbs):
            for out, st in zip(fresh, states):
                system.accumulate(out, pos, kb, st.coeffs[pos], system.n * st.lam)
    return fresh


def _run(
    data: Dataset, system, lams, plan: BlockPlan, epochs: int, *,
    test_data: Dataset | None = None, exec_ctx: ExecContext | None = None,
    grad_tol: float | None = None, check_residual: bool = False, rmse: bool = False,
) -> list[tuple[Model, ConvergenceTrace]]:
    """Sweep ``plan`` for ``epochs`` epochs, carrying every lambda.

    Each visit generates the column block once, times ``system.visit``
    forming the products every lambda shares, then applies one exact b x b
    update per lambda.  The ledger, the descent guard, test evaluation,
    traces, the residual check and the ``grad_tol`` stop live here.

    A system whose ``grad_tol`` check needs every column block has it
    summed on the next sweep's blocks (``_PendingCheck``).  If the check
    passes, that sweep is discarded and the run ends as it was at the
    epoch end; an error raised by that sweep's updates counts only if the
    check fails.  No check follows the last epoch: it could not change
    the result.  No ``exec_ctx`` means one worker, and no ledger means
    ``NULL_LEDGER``, which keeps nothing.

    The sweeps run inside ``solver_threads``: OpenBLAS on one thread,
    blocks generated over row ranges on a pool, and each sweep's blocks
    taken from ``threads.ahead``, which generates block i + 1 on a
    background thread while visit i runs for every lambda.  The first
    block of a sweep is generated after the previous epoch end's stop
    decision, so no block is generated that the run does not use.  A
    generation error is raised when its block is taken; a visit error
    closes the sweep, which waits for the generation in flight.  A trace
    row's seconds count the wait for the block, a ledger generation row
    the generation's own time.  The sweeps' arithmetic ignores numpy's
    overflow and invalid-value warnings, as a non-finite value there raises
    ``DivergenceError`` anyway; the lookahead thread runs under the same
    error state, and test evaluation keeps the caller's.
    """
    _check_lams(lams)
    if epochs < 0:
        raise ConfigError("epochs must be >= 0")
    if grad_tol is not None and not 0 <= grad_tol < np.inf:
        raise ConfigError("grad_tol must be finite and >= 0")
    n, k = system.Y.shape
    if exec_ctx is None:
        exec_ctx = ExecContext()
    part = exec_ctx.partition(n)
    ledger = exec_ctx.ledger if exec_ctx.ledger is not None else NULL_LEDGER
    states = [
        _LamState(lam, np.zeros((plan.universe, k)), np.zeros((n, k))) for lam in lams
    ]
    caller_err = np.geterr()

    def visit(epoch, blk, pos, kb, gen_s, wait_s):
        ledger.set_position(epoch, blk)
        ledger.add("generation", flops=n * system.b * data.d, seconds=gen_s)
        t_visit = perf_counter()
        products = system.visit(pos, kb, part, ledger)
        shared = wait_s + perf_counter() - t_visit
        for st in states:
            t0 = perf_counter()
            res_s, solve_s = system.update(st, pos, kb, products, part)
            ledger.add("residual", flops=system.residual_flops, seconds=res_s)
            ledger.add("solve", flops=system.b**3, seconds=solve_s)
            obj, alt = system.objective(st)
            _guard_descent(st, obj)
            terr = None
            if test_data is not None:
                with np.errstate(**caller_err):
                    terr = evaluate(system.model(st.coeffs), test_data, rmse=rmse)
            seconds = perf_counter() - t0 + shared
            st.trace.append(TraceRecord(epoch, blk, seconds, obj, terr, alt))
            shared = 0.0

    with solver_threads(), np.errstate(over="ignore", invalid="ignore"):
        pending = None  # the last epoch end's check, summed on this sweep
        for epoch in range(epochs):
            failure = None
            order = [int(blk) for blk in epoch_order(plan, epoch)]
            positions = [plan.blocks[blk] for blk in order]
            with closing(ahead(system.block, positions)) as sweep:
                for blk, pos in zip(order, positions):
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
                    pending.restore(states, ledger)
                    break
                if failure is not None:
                    raise failure
                pending = None
            if check_residual:
                fresh = _recomputed_resids(system, states, plan.blocks)
                for st, resid in zip(states, fresh):
                    _assert_residual(resid, st.resid)
            if grad_tol is None or epoch == epochs - 1:
                continue
            if system.check_needs_blocks:
                pending = _PendingCheck(system, states, epoch, blk, ledger, plan.n_blocks)
            elif system.converged(states, grad_tol):
                break
    return [(system.model(st.coeffs), st.trace) for st in states]


def _run_spec(
    data: Dataset, spec, lams, plan: BlockPlan, epochs: int, *,
    p: int | None = None, gamma: float = 0.0, landmark_seed: int = 0,
    block_fn=None, **kwargs,
) -> list[tuple[Model, ConvergenceTrace]]:
    """The one place a spec (plus ``p``) picks a method: build a
    zero-coefficient model of it, then run its system on the model's
    column map, or on ``block_fn`` when given."""
    Y = one_vs_all(data)
    if isinstance(spec, FeatureMapSpec):
        model = Model("rf", np.zeros((spec.p, data.k)), features=spec, dim=data.d)
        gamma = 1.0  # rf is the nystrom system with no landmarks and gamma = 1
    elif not isinstance(spec, KernelSpec):
        raise ConfigError(f"unsupported spec type {type(spec).__name__}")
    elif p is None:
        model = Model("full", np.zeros((data.n, data.k)), kernel=spec, anchors=data.X)
    else:
        if not 0 <= gamma < np.inf:
            raise ConfigError("gamma must be finite and >= 0")
        landmarks = draw_landmarks(data.n, p, landmark_seed)
        model = Model("nystrom", np.zeros((p, data.k)), kernel=spec,
                      anchors=data.X[landmarks], landmarks=landmarks)
    rows = model.coefficients.shape[0]
    if plan.universe != rows:
        raise ConfigError(f"plan universe {plan.universe} != {rows} coefficient rows")
    args = (
        Y, plan.block_size,
        block_fn or (lambda pos: model.columns(data.X, pos)),
        lambda c: dataclasses.replace(model, coefficients=c),
    )
    if model.method == "full":
        system = _FullSystem(*args)
    else:
        system = _GramSystem(*args, landmarks=model.landmarks, gamma=gamma)
    return _run(data, system, lams, plan, epochs, **kwargs)


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
    generation cost matches a single run.  Each lambda's result is exactly
    what its own single-lambda run with the same plan would produce.
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
    """Relative residual of the method's normal equation at the model.

    full:     ||(K + n lam I) a - Y|| / ||Y||
    nystrom:  ||(K_J^T K_J + n lam K_JJ + n lam gamma I) a - K_J^T Y|| / ||K_J^T Y||
    rf:       ||(Z^T Z + n lam I) w - Z^T Y|| / ||Z^T Y||

    Materializes the full n x p (or n x n) block, so desk scale only.  Runs
    inside ``solver_threads``.
    """
    Y = one_vs_all(data)
    lam_eff = data.n * lam
    c = model.coefficients
    kj = model.columns(data.X)
    if model.method == "full":
        lhs = kj @ c + lam_eff * c
        return float(np.linalg.norm(lhs - Y) / np.linalg.norm(Y))
    rhs = kj.T @ Y
    lhs = kj.T @ (kj @ c)
    if model.method == "nystrom":
        lhs += lam_eff * (kj[model.landmarks] @ c)
    else:
        gamma = 1.0  # rf: no K_JJ term and a ridge of 1
    lhs += lam_eff * gamma * c
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
