"""Command-line entry point.

Subcommands:

* ``solve``        train one model, write trace.csv and model.kbcd
* ``path``         regularization path over repeated --lambda values
* ``compare``      nystrom vs rf sweep over a feature-count list
* ``rates-check``  convergence-bound and concentration verdicts
* ``costs``        one instrumented epoch, ledger plus predicted-vs-measured

Configuration comes from flags, optionally seeded by a key=value config
file (flags win); a command takes only the options that name it, and any
other flag or key exits 2.  ``solve``, ``path`` and ``compare`` run
``--epochs`` epochs, or stop at the first epoch end whose relative
normal-equation residual is within ``--grad-tol``; ``costs`` runs one.
``KERNELBCD_OUTDIR`` sets the default output directory.  Exit codes: 0 success,
2 configuration error, out of memory or an output that cannot be written,
3 data parse error, 4 solver divergence (including a non-finite block
system), 5 rate-bound violation.

Output files are written to a temporary name and renamed on success.  A
failed write removes its temporary file, so a failed run leaves neither a
partial output nor a temporary file behind.  Given identical configuration
and seeds, every value column is reproduced exactly; the ``seconds``
columns are wall-clock measurements and vary run to run.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import rates
from .distsim import METHODS, CostLedger, ExecContext, measured_vs_predicted, predict_costs
from .errors import (
    ConfigError,
    DataFormatError,
    DivergenceError,
    KernelBcdError,
    check_choice,
    check_count,
    check_delta,
    check_lambdas,
    check_level,
    check_size,
)
from .files import write_rows
from .kernels import KERNEL_FAMILIES, Dataset, FeatureMapSpec, KernelSpec, load_csv
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

FIT = ("solve", "path", "compare")  # the commands that run --epochs on a --test set
TRAIN = (*FIT, "costs")  # the commands that read --train
EVERY = (*TRAIN, "rates-check")

# seed offsets so one --seed drives plan, features, and landmarks
# through independent streams
PLAN_SEED_OFF = 0
FEATURE_SEED_OFF = 1
LANDMARK_SEED_OFF = 2


def boolean(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered not in ("true", "false"):
        raise ValueError("expected true or false")
    return lowered == "true"


def int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _option(default, parse, help: str, commands, key: str | None = None, repeat=False):
    """A ``RunConfig`` field that is also an option of ``commands``.

    ``parse`` turns the option's text into the field's value, for the flag
    and for the config-file line alike; ``key`` names the flag (``--key``)
    and the config-file key when they differ from the field name.  The flag
    spells an underscore as a dash (``grad_tol`` is ``--grad-tol``).  A
    ``repeat`` flag may be given several times, and its values add up.
    """
    meta = {"parse": parse, "help": help, "commands": commands, "key": key, "repeat": repeat}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    command: str
    method: str = _option("rf", str, "full, nystrom or rf", ("solve", "path", "costs"))
    kernel: str = _option("rbf", str, "rbf or linear (full and nystrom)", TRAIN)
    sigma: float = _option(1.0, float, "rbf bandwidth", TRAIN)
    lambdas: list[float] = _option(
        [1e-3], float_list, "regularization strength; repeat for a path", TRAIN,
        key="lambda", repeat=True,
    )
    gamma: float = _option(1e-6, float, "nystrom ridge on the landmark block", TRAIN)
    p: list[int] = _option([], int_list, "feature count, or comma list for compare", TRAIN)
    b: int = _option(64, int, "block size", EVERY)
    epochs: int = _option(5, int, "epoch count", FIT)
    workers: int = _option(1, int, "simulated worker count", TRAIN)
    seed: int = _option(0, int, "seed of every random draw", EVERY)
    train: str | None = _option(None, str, "training CSV (features..., label)", TRAIN)
    test: str | None = _option(None, str, "test CSV", FIT)
    out: str = _option("", str, f"output directory (default ${OUTDIR_ENV}, else .)", EVERY)
    rmse: bool = _option(False, boolean, "test RMSE of the class id, not error rate", FIT)
    header: bool = _option(False, boolean, "data CSVs carry a header row", TRAIN)
    grad_tol: float | None = _option(
        None, float, "stop once the relative normal-equation residual is at most this", FIT
    )
    dim: int = _option(32, int, "rates-check quadratic dimension", ("rates-check",))
    quadratics: int = _option(3, int, "rates-check problem count", ("rates-check",))
    ensemble: int = _option(25, int, "rates-check seeds per problem", ("rates-check",))
    tau: int = _option(150, int, "rates-check iterations", ("rates-check",))
    trials: int = _option(2000, int, "Monte-Carlo trial count", ("rates-check",))
    delta: float = _option(0.1, float, "Monte-Carlo failure level", ("rates-check",))

    def validate(self) -> None:
        """The one choice and range check, run before any file is touched.
        The scalar flags, the method and kernel names and the lambda list go
        through the package's own input rules, named by the flag; the rows
        after them are the CLI's own."""
        for flag, value in (("--epochs", self.epochs), ("--seed", self.seed),
                            ("--tau", self.tau)):
            check_count(flag, value)
        for flag, value in (("--b", self.b), ("--workers", self.workers),
                            ("--quadratics", self.quadratics),
                            ("--ensemble", self.ensemble), ("--trials", self.trials)):
            check_size(flag, value)
        check_level("--gamma", self.gamma)
        if self.grad_tol is not None:
            check_level("--grad-tol", self.grad_tol)
        check_delta("--delta", self.delta)
        check_choice("method", self.method, METHODS)
        check_choice("kernel", self.kernel, KERNEL_FAMILIES)
        check_lambdas("--lambda", self.lambdas)
        cmd = self.command
        rates_check = cmd == "rates-check"
        one_model = cmd in ("solve", "path", "costs")  # compare sets method and p
        p_repeats = sorted({p for p in self.p if self.p.count(p) > 1})
        max_bytes = np.iinfo(np.intp).max  # the largest array numpy can describe
        for ok, message in (
            (self.kernel == "rbf" or one_model and self.method != "rf",
             "rf features approximate the rbf kernel; --kernel linear applies to "
             "full and nystrom"),
            (cmd == "path" or len(self.lambdas) == 1,
             f"{cmd} takes a single --lambda; use the path command"),
            (rates_check or self.train, "--train is required for this command"),
            (cmd != "compare" or self.test, "compare needs --test"),
            (cmd != "compare" or self.p, "compare needs a --p list"),
            (not p_repeats,
             f"--p values must be distinct: {', '.join(map(str, p_repeats))} repeated"),
            (not one_model or self.method != "full" or not self.p,
             "--p does not apply to the full-kernel method"),
            (not one_model or self.method == "full" or len(self.p) == 1,
             "this command needs exactly one --p value"),
            (all(p >= 1 for p in self.p), "--p values must be >= 1"),
            (not rates_check or 1 <= self.b <= self.dim,
             f"--b must lie in [1, --dim = {self.dim}], got {self.b}"),
            (self.dim * self.dim * 8 <= max_bytes,
             f"--dim {self.dim} is too large: its dim x dim matrix exceeds {max_bytes} B"),
            ((self.tau + 1) * 8 <= max_bytes,
             f"--tau {self.tau} is too large: its tau + 1 gaps exceed {max_bytes} B"),
        ):
            if not ok:
                raise ConfigError(message)
        if rates_check:  # --b is in [1, --dim] here
            rates.check_subset_cap(self.dim, self.b)
            return
        # build every spec the command trains with, at each --p cut to --b
        cuts = {}  # cut p -> the given p
        for p in self.p:
            cut = _cut_p(p, self.b)
            if cut in cuts:
                raise ConfigError(
                    f"--p values must be distinct once cut to a multiple of --b = "
                    f"{self.b}: {cuts[cut]} and {p} both give {cut}"
                )
            cuts[cut] = p
        methods = ("nystrom", "rf") if cmd == "compare" else (self.method,)
        for cut, p in list(cuts.items()) or [(None, None)]:  # full has no --p
            if cut != p:
                print(f"warning: truncating p from {p} to {cut} so the block size "
                      "divides it", file=sys.stderr)
            for method in methods:
                _spec(self, method, cut)


# option key (flag name without dashes) -> RunConfig field
OPTIONS = {f.metadata["key"] or f.name: f for f in fields(RunConfig) if f.metadata}


def read_config_file(path: str, command: str) -> dict:
    """``key = value`` lines, '#' starting a comment, parsed into field
    values by the same parsers as the flags."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    values = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {raw.strip()!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        opt = OPTIONS.get(key.replace("-", "_"))
        if opt is None:
            raise ConfigError(f"unknown config key {key!r}")
        if command not in opt.metadata["commands"]:
            raise ConfigError(f"config key {key!r} does not apply to {command}")
        try:
            values[opt.name] = opt.metadata["parse"](text)
        except ValueError as exc:
            raise ConfigError(
                f"config key {key!r}: bad value {text!r} ({exc})"
            ) from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelbcd",
        description="block coordinate descent for kernel least squares",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, allow_abbrev=False)  # a flag is its whole name
        cmd.set_defaults(parser=cmd)  # main reports a stray flag with its usage
        cmd.add_argument("--config", help="key = value file; flags take precedence")
        taken = {key: opt for key, opt in OPTIONS.items() if name in opt.metadata["commands"]}
        for key, opt in taken.items():
            meta = opt.metadata
            if meta["parse"] is boolean:
                kind = dict(action="store_true", default=None)
            else:
                action = "extend" if meta["repeat"] else "store"
                kind = dict(type=meta["parse"], action=action)
            cmd.add_argument(f"--{key.replace('_', '-')}", dest=opt.name,
                             help=meta["help"], **kind)
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    values = read_config_file(args.config, args.command) if args.config else {}
    for opt in OPTIONS.values():
        flagged = getattr(args, opt.name, None)  # None: not given, or not taken
        if flagged is not None:
            values[opt.name] = flagged
    cfg = RunConfig(command=args.command, **values)
    if not cfg.out:
        cfg.out = os.environ.get(OUTDIR_ENV, ".")
    cfg.validate()
    return cfg


def _load_datasets(cfg: RunConfig) -> tuple[Dataset, Dataset | None]:
    try:
        train = load_csv(cfg.train, has_header=cfg.header)
        test = load_csv(cfg.test, has_header=cfg.header) if cfg.test else None
    except OSError as exc:
        raise ConfigError(f"cannot read data file: {exc}") from None
    if test is not None:
        if test.d != train.d:
            raise DataFormatError(
                f"test set has {test.d} features, train has {train.d}"
            )
        if test.k > train.k:
            raise DataFormatError("test set contains unseen class labels")
        test = Dataset(X=test.X, labels=test.labels, k=train.k)
    return train, test


def _cut_p(p: int, b: int) -> int:
    """``p`` cut down to a multiple of ``b``; ``validate`` warns of a cut."""
    if p < b:
        raise ConfigError(f"block size {b} exceeds p = {p}")
    return p // b * b


def _spec(cfg: RunConfig, method: str, p: int | None):
    """The kernel or feature-map spec ``method`` trains with, at the cut p."""
    if method == "rf":
        return FeatureMapSpec(
            p=p, sigma=cfg.sigma, master_seed=cfg.seed + FEATURE_SEED_OFF
        )
    return KernelSpec(cfg.kernel, cfg.sigma)


def _train(cfg: RunConfig, train, test, ledger=None):
    """Train ``cfg.method`` for every ``cfg.lambdas`` value in one
    ``solve_path`` run: the one place the CLI builds a plan."""
    if cfg.method == "full":
        if train.n % cfg.b != 0:
            raise ConfigError(
                f"block size {cfg.b} must divide n = {train.n} (n is never truncated)"
            )
        universe = train.n
    else:
        universe = _cut_p(cfg.p[0], cfg.b)
    spec = _spec(cfg, cfg.method, universe)
    extra = {}
    if cfg.method == "nystrom":
        extra = dict(
            p=universe, gamma=cfg.gamma, landmark_seed=cfg.seed + LANDMARK_SEED_OFF
        )
    plan = make_plan(universe, cfg.b, seed=cfg.seed + PLAN_SEED_OFF)
    return solve_path(
        train, spec, cfg.lambdas, plan, cfg.epochs,
        test_data=test, exec_ctx=ExecContext(workers=cfg.workers, ledger=ledger),
        grad_tol=cfg.grad_tol, rmse=cfg.rmse, **extra,
    )


def _last(trace, name: str) -> float:
    """The trace's last ``name`` (``objective`` or ``test_error``), which is
    the returned model's; nan for a run that made no visit."""
    return getattr(trace.records[-1], name) if trace.records else float("nan")


def cmd_solve(cfg: RunConfig) -> int:
    train, test = _load_datasets(cfg)
    [lam] = cfg.lambdas
    model, trace = _train(cfg, train, test)[lam]
    os.makedirs(cfg.out, exist_ok=True)
    trace.write_csv(os.path.join(cfg.out, "trace.csv"))
    save_model(model, os.path.join(cfg.out, "model.kbcd"))
    print(f"final objective: {_last(trace, 'objective')!r}")
    print(f"test error: {'' if test is None else repr(_last(trace, 'test_error'))}")
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
        print(
            f"lambda {lam!r}: objective {_last(trace, 'objective')!r}"
            + ("" if test is None else f", test error {_last(trace, 'test_error')!r}")
        )
    return EXIT_OK


def cmd_compare(cfg: RunConfig) -> int:
    train, test = _load_datasets(cfg)
    [lam] = cfg.lambdas
    rows = []
    for p in cfg.p:
        for method in ("nystrom", "rf"):
            model, trace = _train(replace(cfg, method=method, p=[p]), train, None)[lam]
            # trained without the test set, so the trace holds no test error
            err = evaluate(model, test, rmse=cfg.rmse)
            epochs_run = trace.records[-1].epoch + 1 if trace.records else 0
            rows.append([p, method, repr(err), epochs_run])
    os.makedirs(cfg.out, exist_ok=True)
    write_rows(
        os.path.join(cfg.out, "compare.csv"),
        ["p", "method", "test_error", "epochs_run"],
        rows,
    )
    for row in rows:
        print(f"p={row[0]} {row[1]}: test error {row[2]}, epochs {row[3]}")
    return EXIT_OK


def cmd_rates_check(cfg: RunConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    curve_rows = []
    verdicts = []
    for q in range(cfg.quadratics):
        raw = rng.standard_normal((cfg.dim, cfg.dim))
        H = raw @ raw.T / cfg.dim + 0.5 * np.eye(cfg.dim)
        g = rng.standard_normal(cfg.dim)
        prob = rates.QuadraticProblem(H, g)
        m = lambda_extremes(H).lmin
        mean_gap = rates.run_bcd_quadratic(
            prob, cfg.b, seeds=cfg.ensemble, tau=cfg.tau, base_seed=cfg.seed + q
        )
        thm = rates.improved_bound(H, cfg.b, m, mean_gap[0], cfg.tau)
        classical = rates.classical_bound(H, cfg.b, m, mean_gap[0], cfg.tau)
        for t in range(cfg.tau + 1):
            curve_rows.append(
                [q, t, *(repr(float(v[t])) for v in (mean_gap, thm, classical))]
            )
        thm_ok = bool(np.all(mean_gap <= 1.05 * thm))
        cls_ok = bool(np.all(mean_gap <= 1.05 * classical))
        verdicts.append([f"improved_bound_dominates_q{q}", thm_ok])
        verdicts.append([f"classical_bound_dominates_q{q}", cls_ok])
    allowed = cfg.delta + rates.monte_carlo_slack(cfg.delta, cfg.trials)
    A = rng.standard_normal((50, 100))
    chernoff = rates.chernoff_violation_rate(
        A, 10, cfg.delta, cfg.trials, seed=cfg.seed + 101
    )
    verdicts.append(["chernoff_upper_tail", chernoff <= allowed])
    bernstein = rates.bernstein_lower_rate(
        A, 10, cfg.delta, cfg.trials, seed=cfg.seed + 102
    )
    verdicts.append(["bernstein_lower_tail", bernstein <= allowed])
    X = rng.standard_normal((24, 2))
    alpha = 0.5
    p_req = rates.rf_required_features(X, 1.0, alpha, cfg.delta)
    spec = FeatureMapSpec(p=p_req, sigma=1.0, master_seed=cfg.seed + 103)
    rf_res = rates.rf_concentration_check(
        spec, X, alpha, cfg.delta, trials=min(cfg.trials, 200),
        base_seed=cfg.seed + 104,
    )
    verdicts.append(["rf_operator_norm", rf_res.passed])
    all_ok = all(ok for _, ok in verdicts)
    os.makedirs(cfg.out, exist_ok=True)
    write_rows(
        os.path.join(cfg.out, "rates_curve.csv"),
        ["problem", "t", "empirical_mean_gap", "improved_bound", "classical_bound"],
        curve_rows,
    )
    write_rows(
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
    [lam] = cfg.lambdas
    ledger = CostLedger()
    model, _ = _train(replace(cfg, epochs=1), train, None, ledger=ledger)[lam]
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
    write_rows(os.path.join(cfg.out, "costs_report.csv"), ["metric", "value"], rows)
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
    try:
        args, stray = build_parser().parse_known_args(argv)
        if stray:
            args.parser.error(f"unrecognized arguments: {' '.join(stray)}")
        cfg = build_config(args)
        return COMMANDS[cfg.command](cfg)
    except SystemExit as exc:  # argparse's status: 2 for a bad flag, 0 for --help
        return exc.code
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"error: solver diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except KernelBcdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
