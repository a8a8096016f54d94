"""Command-line entry point.

Subcommands:

* ``solve``        train one model, write trace.csv and model.kbcd
* ``path``         regularization path over repeated --lambda values
* ``compare``      nystrom vs rf sweep over a feature-count list
* ``rates-check``  convergence-bound and concentration verdicts
* ``costs``        one instrumented epoch, ledger plus predicted-vs-measured

Configuration comes from flags, optionally seeded by a key=value config
file (flags win).  The default output directory can be set through the
``KERNELBCD_OUTDIR`` environment variable.  Exit codes: 0 success,
2 configuration error, 3 data parse error, 4 solver divergence,
5 rate-bound violation.

Output files are written to a temporary name and renamed on success, so a
failed run leaves no partial file behind.  Given identical configuration
and seeds, every value column is reproduced exactly; the ``seconds``
columns are wall-clock measurements and vary run to run.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import rates
from .distsim import CostLedger, ExecContext, measured_vs_predicted, predict_costs
from .errors import (
    ConfigError,
    DataFormatError,
    DivergenceError,
    KernelBcdError,
)
from .kernels import Dataset, FeatureMapSpec, KernelSpec, load_csv
from .linalg import lambda_extremes
from .solvers import evaluate, make_plan, save_model, solve_path

# Every command trains through solve_path.  The single-lambda entry points
# stay bound here because perfbench/tracing.py rebinds them in this module's
# namespace to time them, and fails on a missing name.
from .solvers import solve_full, solve_nystrom, solve_rf  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_RATES = 5

OUTDIR_ENV = "KERNELBCD_OUTDIR"

# seed offsets so one --seed drives plan, features, and landmarks
# through independent streams
PLAN_SEED_OFF = 0
FEATURE_SEED_OFF = 1
LANDMARK_SEED_OFF = 2


@dataclass
class RunConfig:
    command: str
    method: str = "rf"
    kernel: str = "rbf"
    sigma: float = 1.0
    lambdas: list[float] = field(default_factory=lambda: [1e-3])
    gamma: float = 1e-6
    p: list[int] = field(default_factory=list)
    b: int = 64
    epochs: int = 5
    workers: int = 1
    seed: int = 0
    train: str | None = None
    test: str | None = None
    out: str = "."
    rmse: bool = False
    header: bool = False
    tol: float = 1e-6
    # rates-check knobs
    dim: int = 32
    quadratics: int = 3
    ensemble: int = 25
    tau: int = 150
    trials: int = 2000
    delta: float = 0.1

    def validate(self) -> None:
        if self.method not in ("full", "nystrom", "rf"):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.kernel not in ("rbf", "linear"):
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        if not self.lambdas:
            raise ConfigError("need at least one --lambda")
        if any(not lam > 0 for lam in self.lambdas):
            raise ConfigError("--lambda values must be positive")
        if self.gamma < 0:
            raise ConfigError("--gamma must be >= 0")
        if self.b < 1:
            raise ConfigError("--b must be positive")
        if self.epochs < 0:
            raise ConfigError("--epochs must be >= 0")
        if self.workers < 1:
            raise ConfigError("--workers must be >= 1")


def _parse_scalar(text: str):
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text.strip()


def read_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment; lambda/p accept commas."""
    out: dict = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"bad config line {raw.strip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                if key == "lambda":
                    out["lambdas"] = [float(v) for v in value.split(",")]
                elif key == "p":
                    out["p"] = [int(v) for v in value.split(",")]
                else:
                    out[key] = _parse_scalar(value)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelbcd",
        description="block coordinate descent for kernel least squares",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "path", "compare", "rates-check", "costs"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="key=value config file")
        cmd.add_argument("--method", choices=("full", "nystrom", "rf"))
        cmd.add_argument("--kernel", choices=("rbf", "linear"))
        cmd.add_argument("--sigma", type=float)
        cmd.add_argument(
            "--lambda",
            dest="lambdas",
            type=float,
            action="append",
            help="regularization strength; repeat for a path",
        )
        cmd.add_argument("--gamma", type=float)
        cmd.add_argument(
            "--p", type=str, help="feature count, or comma list for compare"
        )
        cmd.add_argument("--b", type=int, help="block size")
        cmd.add_argument("--epochs", type=int)
        cmd.add_argument("--workers", type=int, help="simulated worker count")
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--train", help="training CSV (features..., label)")
        cmd.add_argument("--test", help="test CSV")
        cmd.add_argument("--out", help="output directory")
        cmd.add_argument("--rmse", action="store_true", default=None)
        cmd.add_argument(
            "--header",
            action="store_true",
            default=None,
            help="data CSVs carry a header row",
        )
        cmd.add_argument("--tol", type=float, help="epoch improvement tolerance")
        cmd.add_argument("--dim", type=int, help="rates-check quadratic dimension")
        cmd.add_argument("--quadratics", type=int, help="rates-check problem count")
        cmd.add_argument("--ensemble", type=int, help="rates-check seeds per problem")
        cmd.add_argument("--tau", type=int, help="rates-check iterations")
        cmd.add_argument("--trials", type=int, help="Monte-Carlo trial count")
        cmd.add_argument("--delta", type=float, help="Monte-Carlo failure level")
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    file_values = read_config_file(args.config) if args.config else {}
    for key, value in file_values.items():
        if not hasattr(cfg, key):
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    for key in vars(cfg):
        if key == "command" or not hasattr(args, key):
            continue
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, key, value)
    if getattr(args, "p", None) is not None:
        try:
            cfg.p = [int(v) for v in str(args.p).split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"bad --p value {args.p!r}")
    if args.out is None and not file_values.get("out"):
        cfg.out = os.environ.get(OUTDIR_ENV, ".")
    cfg.validate()
    return cfg


def _load_datasets(cfg: RunConfig) -> tuple[Dataset, Dataset | None]:
    if not cfg.train:
        raise ConfigError("--train is required for this command")
    train = load_csv(cfg.train, has_header=cfg.header)
    test = None
    if cfg.test:
        test = load_csv(cfg.test, has_header=cfg.header)
        if test.d != train.d:
            raise DataFormatError(
                f"test set has {test.d} features, train has {train.d}"
            )
        if test.k > train.k:
            raise DataFormatError("test set contains unseen class labels")
        test = Dataset(X=test.X, labels=test.labels, k=train.k)
    return train, test


def _single_p(cfg: RunConfig) -> int:
    if len(cfg.p) != 1:
        raise ConfigError("this command needs exactly one --p value")
    return cfg.p[0]


def _truncated_p(p: int, b: int) -> int:
    if p % b == 0:
        return p
    new_p = (p // b) * b
    if new_p == 0:
        raise ConfigError(f"block size {b} exceeds p = {p}")
    print(
        f"warning: truncating p from {p} to {new_p} so the block size divides it",
        file=sys.stderr,
    )
    return new_p


def _exec_ctx(cfg: RunConfig, ledger: CostLedger | None = None) -> ExecContext | None:
    if cfg.workers == 1 and ledger is None:
        return None
    return ExecContext(workers=cfg.workers, ledger=ledger)


def _train(cfg: RunConfig, train, test, ledger=None, epochs=None):
    """Train ``cfg.method`` for every ``cfg.lambdas`` value in one
    ``solve_path`` run: the one place the CLI builds a spec and a plan."""
    if cfg.method == "full":
        if cfg.p:
            raise ConfigError("--p does not apply to the full-kernel method")
        if train.n % cfg.b != 0:
            raise ConfigError(
                f"block size {cfg.b} must divide n = {train.n} (n is never truncated)"
            )
        universe = train.n
    else:
        universe = _truncated_p(_single_p(cfg), cfg.b)
    try:
        if cfg.method == "rf":
            spec = FeatureMapSpec(
                p=universe, sigma=cfg.sigma, master_seed=cfg.seed + FEATURE_SEED_OFF
            )
        else:
            spec = KernelSpec(cfg.kernel, cfg.sigma)
    except ValueError as exc:  # the specs reject bad values with ValueError
        raise ConfigError(str(exc)) from None
    extra = {}
    if cfg.method == "nystrom":
        extra = dict(
            p=universe, gamma=cfg.gamma, landmark_seed=cfg.seed + LANDMARK_SEED_OFF
        )
    plan = make_plan(universe, cfg.b, seed=cfg.seed + PLAN_SEED_OFF)
    return solve_path(
        train, spec, cfg.lambdas, plan, cfg.epochs if epochs is None else epochs,
        test_data=test, exec_ctx=_exec_ctx(cfg, ledger), rmse=cfg.rmse, **extra,
    )


def _single_lambda(cfg: RunConfig) -> float:
    if len(cfg.lambdas) != 1:
        raise ConfigError(
            f"{cfg.command} takes a single --lambda; use the path command"
        )
    return cfg.lambdas[0]


def _final_objective(trace) -> float:
    return trace.records[-1].objective if trace.records else float("nan")


def _write_rows(path, header: list[str], rows) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    os.replace(tmp, path)


def cmd_solve(cfg: RunConfig) -> int:
    train, test = _load_datasets(cfg)
    lam = _single_lambda(cfg)
    model, trace = _train(cfg, train, test)[lam]
    os.makedirs(cfg.out, exist_ok=True)
    trace.write_csv(os.path.join(cfg.out, "trace.csv"))
    save_model(model, os.path.join(cfg.out, "model.kbcd"))
    err = evaluate(model, test, rmse=cfg.rmse) if test is not None else None
    print(f"final objective: {_final_objective(trace)!r}")
    print(f"test error: {'' if err is None else repr(err)}")
    return EXIT_OK


def _lambda_tag(lam: float) -> str:
    return repr(lam).replace("-", "m").replace(".", "_")


def cmd_path(cfg: RunConfig) -> int:
    train, test = _load_datasets(cfg)
    results = _train(cfg, train, test)
    os.makedirs(cfg.out, exist_ok=True)
    for lam, (model, trace) in results.items():
        tag = _lambda_tag(lam)
        trace.write_csv(os.path.join(cfg.out, f"trace_{tag}.csv"))
        save_model(model, os.path.join(cfg.out, f"model_{tag}.kbcd"))
        err = evaluate(model, test, rmse=cfg.rmse) if test is not None else None
        print(
            f"lambda {lam!r}: objective {_final_objective(trace)!r}"
            + ("" if err is None else f", test error {err!r}")
        )
    return EXIT_OK


def epochs_to_tolerance(epoch_objectives: np.ndarray, tol: float) -> int:
    """First 1-based epoch whose improvement over the previous epoch-end
    objective is at most tol * max(1, |objective|); the epoch count if the
    run never settles."""
    for e in range(1, len(epoch_objectives)):
        drop = epoch_objectives[e - 1] - epoch_objectives[e]
        if drop <= tol * max(1.0, abs(epoch_objectives[e])):
            return e + 1
    return len(epoch_objectives)


def cmd_compare(cfg: RunConfig) -> int:
    train, test = _load_datasets(cfg)
    if test is None:
        raise ConfigError("compare needs --test")
    if not cfg.p:
        raise ConfigError("compare needs a --p list")
    lam = _single_lambda(cfg)
    rows = []
    for p in cfg.p:
        for method in ("nystrom", "rf"):
            sub = RunConfig(**{**vars(cfg), "method": method, "p": [p]})
            model, trace = _train(sub, train, None)[lam]
            err = evaluate(model, test, rmse=cfg.rmse)
            epochs = epochs_to_tolerance(trace.epoch_end_objectives(), cfg.tol)
            rows.append([p, method, repr(err), epochs])
    os.makedirs(cfg.out, exist_ok=True)
    _write_rows(
        os.path.join(cfg.out, "compare.csv"),
        ["p", "method", "test_error", "epochs_to_tolerance"],
        rows,
    )
    for row in rows:
        print(f"p={row[0]} {row[1]}: test error {row[2]}, epochs {row[3]}")
    return EXIT_OK


def cmd_rates_check(cfg: RunConfig) -> int:
    if not 1 <= cfg.b <= cfg.dim:
        raise ConfigError(f"--b must lie in [1, --dim = {cfg.dim}], got {cfg.b}")
    os.makedirs(cfg.out, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    curve_rows = []
    verdicts = []
    all_ok = True
    for q in range(cfg.quadratics):
        raw = rng.standard_normal((cfg.dim, cfg.dim))
        H = raw @ raw.T / cfg.dim + 0.5 * np.eye(cfg.dim)
        g = rng.standard_normal(cfg.dim)
        prob = rates.QuadraticProblem(H, g)
        m = float(lambda_extremes(H, iters=20000).lmin)
        mean_gap = rates.run_bcd_quadratic(
            prob, cfg.b, seeds=cfg.ensemble, tau=cfg.tau, base_seed=cfg.seed + q
        )
        thm = rates.improved_bound(H, cfg.b, m, mean_gap[0], cfg.tau)
        classical = rates.classical_bound(H, cfg.b, m, mean_gap[0], cfg.tau)
        for t in range(cfg.tau + 1):
            curve_rows.append([q, t, repr(mean_gap[t]), repr(thm[t]), repr(classical[t])])
        thm_ok = bool(np.all(mean_gap <= 1.05 * thm))
        cls_ok = bool(np.all(mean_gap <= 1.05 * classical))
        verdicts.append([f"improved_bound_dominates_q{q}", thm_ok])
        verdicts.append([f"classical_bound_dominates_q{q}", cls_ok])
        all_ok = all_ok and thm_ok and cls_ok
    allowed = cfg.delta + rates.monte_carlo_slack(cfg.delta, cfg.trials)
    A = rng.standard_normal((50, 100))
    chernoff = rates.chernoff_violation_rate(
        A, 10, cfg.delta, cfg.trials, seed=cfg.seed + 101
    )
    verdicts.append(["chernoff_upper_tail", chernoff <= allowed])
    all_ok = all_ok and chernoff <= allowed
    bernstein = rates.bernstein_lower_rate(
        A, 10, cfg.delta, cfg.trials, seed=cfg.seed + 102
    )
    verdicts.append(["bernstein_lower_tail", bernstein <= allowed])
    all_ok = all_ok and bernstein <= allowed
    X = rng.standard_normal((24, 2))
    alpha = 0.5
    p_req = rates.rf_required_features(X, 1.0, alpha, cfg.delta)
    spec = FeatureMapSpec(p=p_req, sigma=1.0, master_seed=cfg.seed + 103)
    rf_res = rates.rf_concentration_check(
        spec, X, alpha, cfg.delta, trials=min(cfg.trials, 200),
        base_seed=cfg.seed + 104,
    )
    verdicts.append(["rf_operator_norm", rf_res.passed])
    all_ok = all_ok and rf_res.passed
    _write_rows(
        os.path.join(cfg.out, "rates_curve.csv"),
        ["problem", "t", "empirical_mean_gap", "improved_bound", "classical_bound"],
        curve_rows,
    )
    _write_rows(
        os.path.join(cfg.out, "rates_verdicts.csv"),
        ["check", "pass"],
        [[name, str(ok).lower()] for name, ok in verdicts],
    )
    for name, ok in verdicts:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"verdict: {'all checks passed' if all_ok else 'bound violation'}")
    return EXIT_OK if all_ok else EXIT_RATES


def cmd_costs(cfg: RunConfig) -> int:
    train, _ = _load_datasets(cfg)
    lam = _single_lambda(cfg)
    ledger = CostLedger()
    model, _ = _train(cfg, train, None, ledger=ledger, epochs=1)[lam]
    # coefficient rows are the plan's universe: n for full, the truncated p
    eff_p = model.coefficients.shape[0]
    prediction = predict_costs(
        cfg.method, train.n, eff_p, cfg.b, train.k, cfg.workers
    )
    report = measured_vs_predicted(ledger, prediction)
    os.makedirs(cfg.out, exist_ok=True)
    ledger.write_csv(os.path.join(cfg.out, "ledger.csv"))
    rows = [
        ["flops_measured", report.flops_measured],
        ["flops_predicted_total", report.flops_predicted],
        ["flops_ratio", repr(report.flops_ratio)],
        ["bytes_measured", report.bytes_measured],
        ["bytes_predicted", report.bytes_predicted],
        ["bytes_exact", str(report.bytes_exact).lower()],
        ["ok", str(report.ok).lower()],
    ]
    for phase, flops in sorted(report.phase_flops.items()):
        rows.append([f"phase_flops_{phase}", flops])
    _write_rows(os.path.join(cfg.out, "costs_report.csv"), ["metric", "value"], rows)
    print(
        f"flops {report.flops_measured} vs {report.flops_predicted} "
        f"(ratio {report.flops_ratio:.3f}), bytes {report.bytes_measured} "
        f"vs {report.bytes_predicted} (exact={report.bytes_exact})"
    )
    return EXIT_OK


COMMANDS = {
    "solve": cmd_solve,
    "path": cmd_path,
    "compare": cmd_compare,
    "rates-check": cmd_rates_check,
    "costs": cmd_costs,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        return COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"error: solver diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except KernelBcdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
