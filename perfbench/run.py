"""kernelbcd benchmark.

Run one workload from the root of a source checkout:

    python3 perfbench/run.py --workload rf_to_tol --seed 0 --seconds 30 --trace 0

``--trace 0`` times the operation with nothing wrapped and prints the
end-to-end metrics.  Their times are seconds at reference host speed: each
timed region carries a ``pace.Pace`` that samples the host's speed inside
it, and the wall seconds are in the detail line (see README.md).
``--trace 1`` runs it once untraced, once with spans at
every module boundary, and once in a child process with BLAS pinned to one
thread, and prints the per-layer metrics.  The last line of standard output
is the result object; the line before it is a detail object with every
metric, sample counts and the environment.

    python3 perfbench/run.py --all --seed 0 --seconds 30 [--trace 1]

runs every workload in its own process and prints a table of all metrics.
The program is imported from ``src/`` of the checkout; scratch files go
to ``.perfbench_work/`` at its root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from pace import Pace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 5  # fresh processes per run; the median is reported
# Repetitions per run even past --seconds: with three, the median of an
# operation that fills a third of a run still drops one outlier.
MIN_REPEATS = 3
PREDICT_REPEATS = 5
CHILD_TIMEOUT = 150

# The keys of workloads.WORKLOADS, repeated so that argument parsing does not
# import the workloads module.
WORKLOAD_NAMES = ("rf_to_tol", "full_monitored", "nystrom_path", "rates_check")

UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "epoch_s": "s",
    "epochs_run": "count",
    "predict_s": "s",
    "test_error": "ratio",
    "rel_residual": "ratio",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "setup_wall_s": "s",
    "total_wall_s": "s",
    "slowdown": "ratio",
}
END_TO_END = ("setup_s", "total_s", "peak_rss_mb")
PER_LAYER = (
    "kernels.random_features_block_calls",
    "kernels.kernel_cross_calls",
    "kernels.feature_params_calls",
    "kernels.entries_generated",
    "kernels.useful_entry_ratio",
    "kernels.self_s",
    "linalg.spd_solve_calls",
    "linalg.gram_calls",
    "linalg.self_s",
    "distsim.partitioned_matvec_calls",
    "distsim.bytes",
    "distsim.flops_ratio",
    "solvers.epochs_run",
    "solvers.blocks_visited",
    "solvers.phase.generation_flops",
    "solvers.phase.gram_flops",
    "solvers.phase.residual_flops",
    "solvers.phase.solve_flops",
    "cli.output_bytes",
    "trace_overhead_s",
    "traced_total_s",
    "blas1.total_s",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="kernelbcd benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the child processes this script starts
    parser.add_argument("--role", choices=("setup", "reference"), help=argparse.SUPPRESS)
    parser.add_argument("--modules", help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    return args


def import_program(modules=("kernelbcd",)):
    """Put the checkout's sources first on the path, import ``modules``
    and return the kernelbcd package."""
    if not os.path.isfile(os.path.join(SRC, "kernelbcd", "__init__.py")):
        raise SystemExit(f"error: no kernelbcd sources under {SRC}")
    sys.path.insert(0, SRC)
    import importlib

    for module in modules:
        importlib.import_module(module)
    kernelbcd = sys.modules["kernelbcd"]
    if not os.path.abspath(kernelbcd.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported kernelbcd from {kernelbcd.__file__}")
    return kernelbcd


def run_child(argv, env=None) -> dict:
    """Run this script as a child and return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *argv],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, env=env, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"child {argv} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# child roles


def setup_child(args) -> None:
    """Time importing the program and building its objects in this fresh
    process.  The benchmark's own input loading is excluded, and with it
    the import of numpy, which the loading and the probes of ``Pace`` need
    first."""
    import numpy as np

    with np.load(args.inputs) as npz:
        inputs = {key: npz[key] for key in npz.files}
    for key, value in inputs.items():
        if value.dtype.kind == "U":
            inputs[key] = str(value)
    workdir = os.path.dirname(args.inputs)
    with Pace() as imported:
        kb = import_program(args.modules.split(","))
    from workloads import WORKLOADS

    with Pace() as built:
        WORKLOADS[args.workload].build(kb, inputs, workdir)
    print(json.dumps({
        "setup_s": imported.adjusted + built.adjusted,
        "wall_s": imported.own_s + built.own_s,
    }))


def reference_child(args) -> None:
    """One untraced repetition under whatever BLAS threading the parent
    set in this process's environment."""
    kb = import_program()
    from environment import effective_blas_threads
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, args.workload, "reference")
    os.makedirs(workdir, exist_ok=True)
    objs = wl.build(kb, wl.inputs(args.seed, workdir), workdir)
    start = perf_counter()
    try:
        out = wl.run(kb, objs)
        total = perf_counter() - start
        failures = wl.check(kb, objs, out)
    except Exception as exc:  # reported as a failure by the parent
        total, failures = perf_counter() - start, [repr(exc)]
    print(
        json.dumps(
            {
                "total_s": total,
                "blas_threads": effective_blas_threads(),
                "failures": failures,
            }
        )
    )


# ---------------------------------------------------------------------------
# one workload


def median(values):
    return statistics.median(values) if values else None


def percentile_summary(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it,
    and the sample count.

    The tail is the nearest-rank sample with exactly ten samples above it,
    reported with its percentile.  Below 21 samples that rank is not above
    the median and the tail is None.
    """
    values = sorted(samples)
    n = len(values)
    out = {"n": n, "median": None, "tail_pct": None, "tail": None}
    if not n:
        return out
    out["median"] = statistics.median(values)
    if n >= 21:
        out["tail_pct"] = math.floor(100.0 * (n - 10) / n)
        out["tail"] = values[n - 11]
    return out


def save_inputs(inputs: dict, workdir: str) -> str:
    import numpy as np

    path = os.path.join(workdir, "inputs.npz")
    np.savez(path, **{k: np.asarray(v) for k, v in inputs.items()})
    return path


def measure_setup(wl, seed: int, inputs_path: str) -> list[dict]:
    """SETUP_REPEATS set-up children: adjusted and wall seconds of each."""
    argv = [
        "--role", "setup", "--workload", wl.name, "--seed", str(seed),
        "--modules", ",".join(wl.modules), "--inputs", inputs_path,
    ]
    run_child(argv)  # warm the bytecode and file caches; not timed
    return [run_child(argv) for _ in range(SETUP_REPEATS)]


def visit_seconds(traces) -> list[float]:
    """Seconds per block visit, summed over the lambdas that share it."""
    if not traces:
        return []
    return [sum(t[i][1] for t in traces) for i in range(len(traces[0]))]


def quality(kb, wl, objs, out) -> tuple[dict, list[str]]:
    """Deterministic figures of one output plus predict timings."""
    from workloads import test_error_failure

    figures, failures = wl.quality(kb, objs, out)
    traces = wl.traces(out)
    if traces:
        figures["epochs_run"] = max(epoch for epoch, _ in traces[0]) + 1
    model = wl.model(kb, objs, out)
    if model is not None:
        test = objs["test"]
        samples = []
        for _ in range(PREDICT_REPEATS):
            start = perf_counter()
            kb.predict(model, test.X)
            samples.append(perf_counter() - start)
        figures["predict"] = percentile_summary(samples)
        figures["predict_s"] = median(samples)
        figures["test_error"] = kb.evaluate(model, test)
        problem = test_error_failure(wl.name, figures["test_error"], test.n)
        if problem:
            failures.append(problem)
    return figures, failures


def timed_run(kb, wl, objs, seconds: float) -> dict:
    """Repeat the operation for ``seconds``, at least MIN_REPEATS times;
    check every repetition.

    Each repetition is timed inside a ``Pace``: ``samples`` are its seconds
    at reference host speed, ``walls`` its wall seconds less the probes,
    ``slowdowns`` the host's slowdown while it ran.  Past MIN_REPEATS a
    repetition starts only if one more of median length still ends within
    ``seconds``, so a run lasts about ``seconds`` whatever the length of
    one repetition.
    """
    from environment import cpu_steal_seconds

    samples, walls, slowdowns, failures = [], [], [], []
    attempted = failed = 0
    first = None
    peak_kb = 0
    steal = cpu_steal_seconds()
    begin = perf_counter()

    def another():
        if attempted < MIN_REPEATS:
            return True
        expected = statistics.median(walls) if walls else 0.0
        return perf_counter() - begin + expected <= seconds

    while another():
        attempted += 1
        rep = wl.fresh(objs)
        try:
            with Pace() as pace:
                out = wl.run(kb, rep)
            samples.append(pace.adjusted)
            walls.append(pace.own_s)
            slowdowns.append(pace.slowdown)
            problems = wl.check(kb, rep, out)
        except Exception as exc:  # a raising operation is a counted failure
            out, problems = None, [repr(exc)]
        if first is None:
            first = out
            # peak of one repetition: later ones only add allocator noise
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elif out is not None and not wl.same(first, out):
            problems.append("output differs from the first repetition")
        if problems:
            failed += 1
            failures += [f"repetition {attempted}: {p}" for p in problems]
    if steal is not None:
        steal = cpu_steal_seconds() - steal
    return {
        "samples": samples,
        "walls": walls,
        "slowdowns": slowdowns,
        "steal_s": steal,
        "first": first,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        # read before the dense output checks, which materialize K or Z
        "peak_rss_mb": peak_kb / 1024.0,
    }


def end_to_end(kb, wl, args, workdir, inputs) -> tuple[dict, dict]:
    setups = measure_setup(wl, args.seed, save_inputs(inputs, workdir))
    setup = [child["setup_s"] for child in setups]
    objs = wl.build(kb, inputs, workdir)
    run = timed_run(kb, wl, objs, args.seconds)
    detail = {
        "setup": percentile_summary(setup),
        "setup_samples": setup,
        "setup_wall_samples": [child["wall_s"] for child in setups],
        "total": percentile_summary(run["samples"]),
        "total_samples": run["samples"],
        "total_wall": percentile_summary(run["walls"]),
        "total_wall_samples": run["walls"],
        "slowdown_samples": run["slowdowns"],
        # CPU time other guests took while the repetitions ran
        "steal_s": run["steal_s"],
        "failures": run["failures"],
    }
    metrics = {
        "setup_s": median(setup),
        "total_s": median(run["samples"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_wall_s": median(detail["setup_wall_samples"]),
        "total_wall_s": median(run["walls"]),
        "slowdown": median(run["slowdowns"]),
    }
    failed = run["failed"]
    if run["first"] is not None:
        try:
            figures, problems = quality(kb, wl, objs, run["first"])
        except Exception as exc:  # a failing dense check fails the output
            figures, problems = {}, [f"quality: {exc!r}"]
        detail["visit"] = percentile_summary(visit_seconds(wl.traces(run["first"])))
        detail["predict"] = figures.pop("predict", None)
        metrics.update(figures)
        if "epochs_run" in metrics:
            metrics["epoch_s"] = metrics["total_s"] / metrics["epochs_run"]
        if problems:
            # every repetition equals the first, so each shares its failure
            failed = run["attempted"]
            detail["failures"] += problems
    metrics["error_rate"] = failed / run["attempted"]
    return metrics, {
        "attempted": run["attempted"],
        "failed": failed,
        **detail,
    }


def traced(kb, wl, args, workdir, inputs) -> tuple[dict, dict]:
    import kernelbcd.cli
    import kernelbcd.distsim
    import kernelbcd.kernels
    import kernelbcd.rates
    import kernelbcd.solvers
    from tracing import Recorder, summarize, write_spans

    objs = wl.build(kb, inputs, workdir)
    failures = []

    def attempt(call):
        """One repetition; a raise is a counted failure, not a crash."""
        start = perf_counter()
        try:
            return call(), perf_counter() - start, []
        except Exception as exc:  # counted, like an output check that fails
            return None, perf_counter() - start, [repr(exc)]

    def checked(label, out, problems):
        # checks run with nothing wrapped, so they add no spans
        if out is not None:
            try:
                problems = problems + wl.check(kb, objs, out)
            except Exception as exc:  # a raising check fails the output
                problems = problems + [repr(exc)]
        failures.extend(f"{label}: {p}" for p in problems)
        return bool(problems)

    plain, untraced_s, plain_errors = attempt(lambda: wl.run(kb, wl.fresh(objs)))

    rec = Recorder()
    bench_ledger = kb.CostLedger()
    modules = {m.__name__: m for m in (
        kernelbcd.cli, kernelbcd.distsim, kernelbcd.kernels, kernelbcd.rates,
        kernelbcd.solvers,
    )}
    rep = wl.fresh(objs)
    cli_context = kernelbcd.cli.ExecContext

    def context_with_ledger(workers=1, ledger=None):
        # the CLI builds its own context; attach the benchmark's ledger
        return cli_context(
            workers=workers, ledger=bench_ledger if ledger is None else ledger
        )

    def traced_call():
        if wl.cli:
            return rec.span("cli.main", lambda: wl.run(kb, rep))
        ctx = kb.ExecContext(workers=1, ledger=bench_ledger)
        return rec.span("solvers.solve", lambda: wl.run(kb, rep, exec_ctx=ctx))

    rec.install(modules)
    kernelbcd.cli.ExecContext = context_with_ledger
    try:
        out, traced_s, traced_errors = attempt(traced_call)
    finally:
        rec.uninstall()
        kernelbcd.cli.ExecContext = cli_context
    plain_failed = checked("untraced", plain, plain_errors)
    traced_failed = checked("traced", out, traced_errors)
    if plain is not None and out is not None and not wl.same(plain, out):
        failures.append("traced output differs from the untraced one")
        traced_failed = True
    failed = int(plain_failed) + int(traced_failed)

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    reference = run_child(
        ["--role", "reference", "--workload", wl.name, "--seed", str(args.seed)],
        env=env,
    )
    if reference["failures"]:
        failed += 1
        failures += [f"single-thread reference: {p}" for p in reference["failures"]]

    spans = rec.spans
    write_spans(spans, os.path.join(workdir, "spans.csv"))
    agg = summarize(spans)
    layers, problems = layer_metrics(kb, wl, objs, out, agg, bench_ledger)
    if problems and not traced_failed:
        failed += 1
    failures += problems
    layers["trace_overhead_s"] = traced_s - untraced_s
    layers["traced_total_s"] = traced_s
    layers["untraced_total_s"] = untraced_s
    layers["blas1.total_s"] = reference["total_s"]
    layers["blas1.threads"] = reference["blas_threads"]
    return layers, {
        "attempted": 3,
        "failed": failed,
        "failures": failures,
        "spans": len(spans),
        "spans_file": os.path.relpath(os.path.join(workdir, "spans.csv"), ROOT),
    }


def layer_metrics(kb, wl, objs, out, agg, ledger) -> tuple[dict, list[str]]:
    """Per-layer figures from the spans and the ledger of one traced run,
    and the failures of the ledger byte check."""
    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    m = {}
    for fn in ("random_features_block", "kernel_cross", "feature_params"):
        m[f"kernels.{fn}_s"] = self_s(f"kernels.{fn}")
        m[f"kernels.{fn}_calls"] = calls(f"kernels.{fn}")
    entries = sum(agg.get(n, {}).get("entries", 0) for n in
                  ("kernels.random_features_block", "kernels.kernel_cross"))
    m["kernels.entries_generated"] = entries
    m["kernels.self_s"] = sum(v["self_s"] for k, v in agg.items() if k.startswith("kernels."))
    for fn in ("spd_solve", "gram"):
        m[f"linalg.{fn}_s"] = self_s(f"linalg.{fn}")
        m[f"linalg.{fn}_calls"] = calls(f"linalg.{fn}")
    m["linalg.lambda_extremes_s"] = self_s("linalg.lambda_extremes")
    m["linalg.self_s"] = sum(v["self_s"] for k, v in agg.items() if k.startswith("linalg."))
    m["distsim.distributed_gram_s"] = self_s("distsim.distributed_gram")
    m["distsim.partitioned_matvec_s"] = self_s("distsim.partitioned_matvec")
    m["distsim.partitioned_matvec_calls"] = calls("distsim.partitioned_matvec")

    traces = wl.traces(out) if out is not None else []
    visits = len(traces[0]) if traces else 0
    epochs = max(e for e, _ in traces[0]) + 1 if visits else 0
    visit_s = sum(s for t in traces for _, s in t)
    solve_total = agg.get("solvers.solve", {}).get("total_s", 0.0)
    m["solvers.epochs_run"] = epochs
    m["solvers.blocks_visited"] = visits
    m["solvers.visit_s"] = visit_s
    m["solvers.epoch_end_s"] = solve_total - visit_s if visits else 0.0
    m["solvers.test_eval_s"] = agg.get("solvers.evaluate", {}).get("total_s", 0.0)
    m["solvers.test_eval_calls"] = calls("solvers.evaluate")
    m["solvers.self_s"] = self_s("solvers.solve")
    phase_flops = {p: 0 for p in ("generation", "gram", "residual", "solve")}
    phase_s = dict.fromkeys(phase_flops, 0.0)
    for r in ledger.records:
        phase_flops[r.phase] += r.flops
        phase_s[r.phase] += r.seconds
    for phase in phase_flops:
        m[f"solvers.phase.{phase}_flops"] = phase_flops[phase]
        m[f"solvers.phase.{phase}_s"] = phase_s[phase]

    shape = wl.cost_shape(objs)
    useful = 0
    problems = []
    m["distsim.bytes"] = ledger.bytes_communicated
    m["distsim.flops_ratio"] = 0.0
    if shape is not None and epochs:
        method, n, p, b, k, workers = shape
        useful = visits * n * b
        prediction = kb.predict_costs(method, n, p, b, k, workers)
        measured = sum(v for ph, v in phase_flops.items() if ph != "generation")
        m["distsim.flops_ratio"] = measured / epochs / prediction.total_flops()
        expected = prediction.nbytes * epochs
        if ledger.bytes_communicated != expected:
            problems.append(
                f"distsim.bytes {ledger.bytes_communicated} != "
                f"predict_costs nbytes x epochs = {expected}"
            )
    m["kernels.useful_entry_ratio"] = useful / entries if entries else 0.0

    for fn in ("load_csv", "save_model", "write_trace"):
        m[f"cli.{fn}_s"] = self_s(f"cli.{fn}")
    out_dir = objs.get("out")
    m["cli.output_bytes"] = (
        sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
        if out_dir else 0
    )
    m["rates.run_bcd_quadratic_s"] = self_s("rates.run_bcd_quadratic")
    m["rates.bounds_s"] = self_s("rates.bounds")
    for fn in ("chernoff_violation_rate", "bernstein_lower_rate", "rf_concentration_check"):
        m[f"rates.{fn}_s"] = self_s(f"rates.{fn}")
    return m, problems


def run_workload(args) -> int:
    kb = import_program()
    from environment import record
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, wl.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    inputs = wl.inputs(args.seed, workdir)
    if args.trace:
        metrics, detail = traced(kb, wl, args, workdir, inputs)
        names = PER_LAYER
    else:
        metrics, detail = end_to_end(kb, wl, args, workdir, inputs)
        names = END_TO_END
    detail.update(
        workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        environment=record(ROOT),
        metrics={k: {"value": v, "unit": UNITS.get(k) or layer_unit(k)}
                 for k, v in metrics.items()},
    )
    with open(os.path.join(workdir, f"result_trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for name in ("inputs.npz", "train.csv"):
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            os.remove(path)
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {n: detail["metrics"][n] for n in names},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# every workload


def run_all(args) -> int:
    rows = {}
    for name in WORKLOAD_NAMES:
        argv = ["--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), *argv],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        rows[name] = json.loads(lines[-2])["detail"]
    names = sorted({m for d in rows.values() for m in d["metrics"]})
    width = max(len(n) for n in names)
    print(f"{'metric':<{width}} {'unit':<6} " + " ".join(f"{w:>15}" for w in rows))
    for metric in names:
        cells = []
        unit = ""
        for d in rows.values():
            entry = d["metrics"].get(metric)
            unit = entry["unit"] if entry else unit
            cells.append(f"{entry['value']:>15.6g}" if entry and entry["value"] is not None
                         else f"{'n/a':>15}")
        print(f"{metric:<{width}} {unit:<6} " + " ".join(cells))
    print(f"{'attempted/failed':<{width}} {'':<6} "
          + " ".join(f"{str(d['attempted']) + '/' + str(d['failed']):>15}" for d in rows.values()))
    env = next(iter(rows.values()))["environment"]
    print(f"environment: {json.dumps(env)}")
    return 0 if all(d["failed"] == 0 for d in rows.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "setup":
        setup_child(args)
        return 0
    if args.role == "reference":
        reference_child(args)
        return 0
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
