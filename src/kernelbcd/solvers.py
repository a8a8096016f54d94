"""Block coordinate descent solvers for kernel least squares.

One engine, ``_run``, drives three primal solvers.  It sweeps the block
plan, generates each column block once per visit, and owns the ledger,
the descent guard, test evaluation, traces, the residual check and the
``grad_tol`` stop.  A per-method system supplies the block source, the
products every lambda shares, the update, the objective, a fresh residual,
the convergence test and the ``Model``:

* ``_FullSystem``: block Gauss-Seidel on (K + n*lam*I) alpha = Y, exact
  blockwise minimization of 0.5<alpha, K alpha> + (n*lam/2)||alpha||^2 - <Y, alpha>;
* ``_GramSystem``, nystrom: (K_J^T K_J + n*lam*K_JJ + n*lam*gamma*I) alpha =
  K_J^T Y, keeping the residual R = (K_J + n*lam*S_J) alpha;
* ``_GramSystem``, random features: the same with no K_JJ term and gamma = 1,
  (Z^T Z + n*lam*I) w = Z^T Y with R = Z w.

Every update is an exact b x b solve, so each objective is non-increasing;
an increase beyond 1e-9 raises ``DivergenceError``.  Blocks do not depend on
lambda, so a path costs one run's generation plus a small solve per lambda.
Public APIs take the statistical lambda; systems use lam_eff = n * lambda.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .distsim import (
    FLOAT_BYTES,
    ExecContext,
    distributed_gram,
    partitioned_matvec,
    tree_rounds,
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
from .linalg import gram, spd_solve

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
    """

    method: str
    coefficients: np.ndarray
    kernel: KernelSpec | None = None
    features: FeatureMapSpec | None = None
    anchors: np.ndarray | None = None
    landmarks: np.ndarray | None = None

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


def predict(model: Model, x_test: np.ndarray) -> np.ndarray:
    """Score matrix (m x k) for the rows of ``x_test``."""
    x_test = np.asarray(x_test, dtype=np.float64)
    if x_test.ndim != 2:
        raise DimensionMismatchError("x_test must be 2-d")
    if model.method == "rf":
        z = random_features_block(
            x_test, np.arange(model.features.p), model.features
        )
        return z @ model.coefficients
    if x_test.shape[1] != model.anchors.shape[1]:
        raise DimensionMismatchError(
            f"x_test has {x_test.shape[1]} features, model expects "
            f"{model.anchors.shape[1]}"
        )
    kx = kernel_cross(x_test, model.anchors, model.kernel)
    return kx @ model.coefficients


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


def objective_value(
    model: Model, data: Dataset, lam: float, gamma: float = 0.0
) -> float:
    """The surrogate objective a solver of this method descends, evaluated
    densely at the model's coefficients (desk-scale diagnostic)."""
    Y = one_vs_all(data)
    if model.method == "full":
        K = kernel_cross(data.X, data.X, model.kernel)
        return full_surrogate(model.coefficients, K, Y, lam)
    if model.method == "nystrom":
        kj = kernel_cross(data.X, data.X[model.landmarks], model.kernel)
        return nystrom_objective(
            model.coefficients, kj, model.landmarks, Y, lam, gamma
        )
    z = random_features_block(data.X, np.arange(model.features.p), model.features)
    return rf_objective(model.coefficients, z, Y, lam)


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
    resid: np.ndarray  # the system's running matrix, see its docstring
    trace: ConvergenceTrace = field(default_factory=ConvergenceTrace)
    prev_obj: float = np.inf


def _guard_descent(state: _LamState, obj: float) -> None:
    if not np.isfinite(obj):
        raise DivergenceError(f"objective became non-finite ({obj})")
    if obj > state.prev_obj + DESCENT_TOL:
        raise DivergenceError(
            f"objective increased from {state.prev_obj!r} to {obj!r}; "
            "residual maintenance is corrupt"
        )
    state.prev_obj = obj


def _check_lams(lams) -> None:
    if not lams:
        raise ConfigError("need at least one lambda")
    if any(not lam > 0 for lam in lams):
        raise ConfigError("every lambda must be positive")
    if len(set(lams)) != len(lams):
        raise ConfigError("lambda values must be distinct")


def _assert_residual(fresh: np.ndarray, maintained: np.ndarray) -> None:
    scale = max(np.linalg.norm(fresh), 1e-30)
    drift = np.linalg.norm(fresh - maintained) / scale
    if drift > 1e-8:
        raise DivergenceError(
            f"maintained residual drifted {drift:.3e} from recomputation"
        )


def _t_matmul(kb: np.ndarray, m: np.ndarray, part) -> np.ndarray:
    """kb^T @ m, row-partitioned over the simulated workers when given."""
    if part is not None:
        return partitioned_matvec(kb, m, part)
    return kb.T @ m


@dataclass
class _FullSystem:
    """Block Gauss-Seidel on (K + n lam I) alpha = Y.

    ``resid`` holds K alpha, maintained for objective logging and the
    gradient-norm stop; the update itself recomputes its slice from the
    freshly generated column block.
    """

    Y: np.ndarray
    b: int
    block: Callable[[np.ndarray], np.ndarray]  # rows -> K([n], rows)
    model: Callable[[np.ndarray], Model]  # coefficients -> Model

    def __post_init__(self):
        self.n, k = self.Y.shape
        self.eye_b = np.eye(self.b)
        self.residual_flops = 2 * self.n * self.b * k + self.b * self.b * k
        self.y_norm = np.linalg.norm(self.Y)

    def visit(self, idx, kb, part, ledger):
        """Per-visit products shared by every lambda: the diagonal block."""
        if ledger is not None:
            # the b x b diagonal block ships to the solving node once per
            # visit; the closed form charges it with no worker dependence
            ledger.add("solve", nbytes=self.b * self.b * FLOAT_BYTES)
        return kb[idx], 0.0

    def update(self, st, idx, kb, kbb, part):
        lam_eff = self.n * st.lam
        t_res = perf_counter()
        rb = _t_matmul(kb, st.coeffs, part) - kbb @ st.coeffs[idx]
        res_seconds = perf_counter() - t_res
        t_solve = perf_counter()
        new_b = spd_solve(kbb + lam_eff * self.eye_b, self.Y[idx] - rb)
        solve_seconds = perf_counter() - t_solve
        st.resid += kb @ (new_b - st.coeffs[idx])
        st.coeffs[idx] = new_b
        return res_seconds, solve_seconds

    def objective(self, st):
        """The surrogate, and the least-squares value as the alternate."""
        lam_eff = self.n * st.lam
        c, ka = st.coeffs, st.resid
        obj = 0.5 * _ip(c, ka) + 0.5 * lam_eff * _ip(c, c) - _ip(self.Y, c)
        alt = _ip(ka - self.Y, ka - self.Y) / self.n + st.lam * _ip(c, ka)
        return obj, alt

    def fresh_resid(self, st, blocks):
        fresh = np.zeros(st.resid.shape)
        for idx in blocks:
            fresh += self.block(idx) @ st.coeffs[idx]
        return fresh

    def converged(self, states, blocks, tol):
        return all(
            np.linalg.norm(st.resid + self.n * st.lam * st.coeffs - self.Y)
            <= tol * max(self.y_norm, 1e-30)
            for st in states
        )


@dataclass
class _GramSystem:
    """Descent on (K_J^T K_J + n lam K_JJ + n lam gamma I) a = K_J^T Y.

    ``resid`` holds R = (K_J + n lam S_J) a, so each b x b system needs only
    the current column block.  Without ``landmarks`` the K_JJ term and the
    scatter S_J drop out, and with gamma = 1 this is the random-features
    system (Z^T Z + n lam I) w = Z^T Y with R = Z w.
    """

    Y: np.ndarray
    b: int
    block: Callable[[np.ndarray], np.ndarray]  # coefficient rows -> n x b
    model: Callable[[np.ndarray], Model]  # coefficients -> Model
    landmarks: np.ndarray | None = None
    gamma: float = 1.0

    def __post_init__(self):
        self.n, k = self.Y.shape
        self.eye_b = np.eye(self.b)
        self.residual_flops = 3 * self.n * self.b * k
        self.rhs_norm: dict[int, float] = {}  # ||K_J^T Y|| per lambda

    def visit(self, pos, kb, part, ledger):
        """Per-visit products shared by every lambda: the gram and, with
        landmarks, the block's training rows and its b x b block of K_JJ."""
        t_gram = perf_counter()
        g = gram(kb) if part is None else distributed_gram(kb, part)
        seconds = perf_counter() - t_gram
        if ledger is not None:
            # the per-block rhs partials ride in the same aggregation
            # message; only the b x b payload is charged
            rounds = tree_rounds(part.workers) if part is not None else 0
            ledger.add(
                "gram",
                flops=self.n * self.b * self.b,
                nbytes=rounds * self.b * self.b * FLOAT_BYTES,
                seconds=seconds,
            )
        rows = None if self.landmarks is None else self.landmarks[pos]
        return (g, rows, None if rows is None else kb[rows]), seconds

    def update(self, st, pos, kb, products, part):
        g, rows, kbb = products
        lam_eff = self.n * st.lam
        t_res = perf_counter()
        st.resid -= kb @ st.coeffs[pos]
        if rows is not None:
            st.resid[rows] -= lam_eff * st.coeffs[pos]
        rhs = _t_matmul(kb, self.Y - st.resid, part)
        res_seconds = perf_counter() - t_res
        t_solve = perf_counter()
        system = g if rows is None else g + lam_eff * kbb
        new_b = spd_solve(system + (lam_eff * self.gamma) * self.eye_b, rhs)
        solve_seconds = perf_counter() - t_solve
        st.resid += kb @ new_b
        if rows is not None:
            st.resid[rows] += lam_eff * new_b
        st.coeffs[pos] = new_b
        return res_seconds, solve_seconds

    def _fitted(self, st) -> np.ndarray:
        """K_J a, recovered from R by removing the scatter n lam S_J a."""
        if self.landmarks is None:
            return st.resid
        ka = st.resid.copy()
        ka[self.landmarks] -= self.n * st.lam * st.coeffs
        return ka

    def objective(self, st):
        """(1/n)||K_J a - Y||^2 + lam <a, K_JJ a> + lam gamma ||a||^2."""
        ka = self._fitted(st)
        r = ka - self.Y
        obj = _ip(r, r) / self.n
        lam = st.lam
        if self.landmarks is not None:
            # nystrom values are taken at (n lam) / n, which can differ
            # from lam in the last bit; kept so its traces stay as they were
            lam = (self.n * st.lam) / self.n
            obj += lam * _ip(st.coeffs, ka[self.landmarks])
        return obj + lam * self.gamma * _ip(st.coeffs, st.coeffs), None

    def fresh_resid(self, st, blocks):
        fresh = np.zeros(st.resid.shape)
        for pos in blocks:
            fresh += self.block(pos) @ st.coeffs[pos]
            if self.landmarks is not None:
                fresh[self.landmarks[pos]] += self.n * st.lam * st.coeffs[pos]
        return fresh

    def converged(self, states, blocks, tol):
        """Every lambda's normal-equation residual is within tol of
        ||K_J^T Y||; the pass stops at the first lambda that is not."""
        for i, st in enumerate(states):
            lam_eff = self.n * st.lam
            ka = self._fitted(st)
            sq = 0.0
            rhs_sq = 0.0
            for pos in blocks:
                kb = self.block(pos)
                res_b = kb.T @ (ka - self.Y)
                if self.landmarks is not None:
                    res_b += lam_eff * ka[self.landmarks[pos]]
                res_b += lam_eff * self.gamma * st.coeffs[pos]
                sq += _ip(res_b, res_b)
                if i not in self.rhs_norm:
                    rhs_b = kb.T @ self.Y
                    rhs_sq += _ip(rhs_b, rhs_b)
            if i not in self.rhs_norm:
                self.rhs_norm[i] = max(np.sqrt(rhs_sq), 1e-30)
            if np.sqrt(sq) > tol * self.rhs_norm[i]:
                return False
        return True


def _run(
    data: Dataset, system, lams, plan: BlockPlan, epochs: int, *,
    test_data: Dataset | None = None, exec_ctx: ExecContext | None = None,
    grad_tol: float | None = None, check_residual: bool = False, rmse: bool = False,
) -> list[tuple[Model, ConvergenceTrace]]:
    """Sweep ``plan`` for ``epochs`` epochs, carrying every lambda.

    Each visit generates the column block once, lets ``system`` form the
    products every lambda shares, then applies one exact b x b update per
    lambda.  The ledger, the descent guard, test evaluation, traces, the
    residual check and the ``grad_tol`` stop live here and nowhere else.
    """
    _check_lams(lams)
    n, k = system.Y.shape
    part = exec_ctx.partition(n) if exec_ctx is not None else None
    ledger = exec_ctx.ledger if exec_ctx is not None else None
    states = [
        _LamState(lam, np.zeros((plan.universe, k)), np.zeros((n, k))) for lam in lams
    ]
    for epoch in range(epochs):
        for blk in epoch_order(plan, epoch):
            pos = plan.blocks[blk]
            if ledger is not None:
                ledger.set_position(epoch, int(blk))
            t_gen = perf_counter()
            kb = system.block(pos)
            gen_s = perf_counter() - t_gen
            if ledger is not None:
                ledger.add("generation", flops=n * system.b * data.d, seconds=gen_s)
            products, visit_s = system.visit(pos, kb, part, ledger)
            shared = gen_s + visit_s
            for st in states:
                t0 = perf_counter()
                res_s, solve_s = system.update(st, pos, kb, products, part)
                if ledger is not None:
                    ledger.add("residual", flops=system.residual_flops, seconds=res_s)
                    ledger.add("solve", flops=system.b**3, seconds=solve_s)
                obj, alt = system.objective(st)
                _guard_descent(st, obj)
                terr = None
                if test_data is not None:
                    terr = evaluate(system.model(st.coeffs), test_data, rmse=rmse)
                seconds = perf_counter() - t0 + shared
                st.trace.append(TraceRecord(epoch, int(blk), seconds, obj, terr, alt))
                shared = 0.0
        if check_residual:
            for st in states:
                _assert_residual(system.fresh_resid(st, plan.blocks), st.resid)
        if grad_tol is not None and system.converged(states, plan.blocks, grad_tol):
            break
    return [(system.model(st.coeffs), st.trace) for st in states]


def _run_full(
    data: Dataset, kspec: KernelSpec, lams, plan: BlockPlan, epochs: int,
    *, block_fn=None, **kwargs,
) -> list[tuple[Model, ConvergenceTrace]]:
    X = data.X
    if plan.universe != data.n:
        raise ConfigError(f"plan universe {plan.universe} != n = {data.n}")
    system = _FullSystem(
        one_vs_all(data), plan.block_size,
        block_fn or (lambda idx: kernel_cross(X, X[idx], kspec)),
        lambda c: Model("full", c, kernel=kspec, anchors=X),
    )
    return _run(data, system, lams, plan, epochs, **kwargs)


def _run_nystrom(
    data: Dataset, kspec: KernelSpec, p: int, lams, gamma: float,
    plan: BlockPlan, epochs: int, landmark_seed: int,
    *, block_fn=None, **kwargs,
) -> list[tuple[Model, ConvergenceTrace]]:
    if plan.universe != p:
        raise ConfigError(f"plan universe {plan.universe} != p = {p}")
    if gamma < 0:
        raise ConfigError("gamma must be >= 0")
    landmarks = draw_landmarks(data.n, p, landmark_seed)
    anchors = data.X[landmarks]
    system = _GramSystem(
        one_vs_all(data), plan.block_size,
        block_fn or (lambda pos: kernel_cross(data.X, anchors[pos], kspec)),
        lambda c: Model(
            "nystrom", c, kernel=kspec, anchors=anchors, landmarks=landmarks
        ),
        landmarks=landmarks, gamma=gamma,
    )
    return _run(data, system, lams, plan, epochs, **kwargs)


def _run_rf(
    data: Dataset, fspec: FeatureMapSpec, lams, plan: BlockPlan, epochs: int,
    *, block_fn=None, **kwargs,
) -> list[tuple[Model, ConvergenceTrace]]:
    if plan.universe != fspec.p:
        raise ConfigError(f"plan universe {plan.universe} != p = {fspec.p}")
    system = _GramSystem(
        one_vs_all(data), plan.block_size,
        block_fn or (lambda pos: random_features_block(data.X, pos, fspec)),
        lambda c: Model("rf", c, features=fspec),
    )
    return _run(data, system, lams, plan, epochs, **kwargs)


# ---------------------------------------------------------------------------
# public entry points


def solve_full(
    data: Dataset,
    kspec: KernelSpec,
    lam: float,
    plan: BlockPlan,
    epochs: int,
    **kwargs,
) -> tuple[Model, ConvergenceTrace]:
    """Full-kernel block coordinate descent on (K + n*lam*I) alpha = Y."""
    return _run_full(data, kspec, [lam], plan, epochs, **kwargs)[0]


def solve_nystrom(
    data: Dataset,
    kspec: KernelSpec,
    p: int,
    lam: float,
    gamma: float,
    plan: BlockPlan,
    epochs: int,
    landmark_seed: int = 0,
    **kwargs,
) -> tuple[Model, ConvergenceTrace]:
    """Nystrom block coordinate descent on the regularized normal equations."""
    return _run_nystrom(
        data, kspec, p, [lam], gamma, plan, epochs, landmark_seed, **kwargs
    )[0]


def solve_rf(
    data: Dataset,
    fspec: FeatureMapSpec,
    lam: float,
    plan: BlockPlan,
    epochs: int,
    **kwargs,
) -> tuple[Model, ConvergenceTrace]:
    """Random-features block coordinate descent on (Z^T Z + n*lam*I) w = Z^T Y."""
    return _run_rf(data, fspec, [lam], plan, epochs, **kwargs)[0]


def solve_path(
    data: Dataset,
    spec,
    lams,
    plan: BlockPlan,
    epochs: int,
    *,
    p: int | None = None,
    gamma: float = 0.0,
    landmark_seed: int = 0,
    **kwargs,
) -> dict[float, tuple[Model, ConvergenceTrace]]:
    """Regularization path: one model and trace per lambda.

    Block matrices (the column block and, for nystrom/rf, its gram) are
    generated once per block visit and shared across every lambda, so the
    generation cost matches a single run.  Each lambda's result is exactly
    what its own single-lambda run with the same plan would produce.
    """
    lams = list(lams)
    if isinstance(spec, FeatureMapSpec):
        results = _run_rf(data, spec, lams, plan, epochs, **kwargs)
    elif isinstance(spec, KernelSpec):
        if p is None:
            results = _run_full(data, spec, lams, plan, epochs, **kwargs)
        else:
            results = _run_nystrom(
                data, spec, p, lams, gamma, plan, epochs, landmark_seed, **kwargs
            )
    else:
        raise ConfigError(f"unsupported spec type {type(spec).__name__}")
    return {lam: res for lam, res in zip(lams, results)}


# ---------------------------------------------------------------------------
# fixed-point residuals (dense diagnostics used by tests and the CLI)


def normal_equation_residual(
    model: Model, data: Dataset, lam: float, gamma: float = 0.0
) -> float:
    """Relative residual of the method's normal equation at the model.

    full:     ||(K + n lam I) a - Y|| / ||Y||
    nystrom:  ||(K_J^T K_J + n lam K_JJ + n lam gamma I) a - K_J^T Y|| / ||K_J^T Y||
    rf:       ||(Z^T Z + n lam I) w - Z^T Y|| / ||Z^T Y||

    Materializes the full n x p (or n x n) block, so desk scale only.
    """
    Y = one_vs_all(data)
    n = data.n
    lam_eff = n * lam
    if model.method == "full":
        K = kernel_cross(data.X, data.X, model.kernel)
        lhs = K @ model.coefficients + lam_eff * model.coefficients
        return float(np.linalg.norm(lhs - Y) / np.linalg.norm(Y))
    if model.method == "nystrom":
        kj = kernel_cross(data.X, data.X[model.landmarks], model.kernel)
        kjj = kj[model.landmarks]
        rhs = kj.T @ Y
        lhs = (
            kj.T @ (kj @ model.coefficients)
            + lam_eff * (kjj @ model.coefficients)
            + lam_eff * gamma * model.coefficients
        )
        return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    z = random_features_block(data.X, np.arange(model.features.p), model.features)
    rhs = z.T @ Y
    lhs = z.T @ (z @ model.coefficients) + lam_eff * model.coefficients
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
