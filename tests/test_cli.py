import contextlib
import csv
import io
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from kernelbcd.cli import (
    COMMANDS,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_RATES,
    OPTIONS,
    main,
)
from kernelbcd.kernels import Dataset, FeatureMapSpec, gaussian_blobs, load_csv
from kernelbcd.solvers import (
    evaluate,
    load_model,
    make_plan,
    normal_equation_residual,
    solve_rf,
)


def write_dataset(path, data):
    rows = np.hstack([data.X, data.labels[:, None].astype(float)])
    np.savetxt(path, rows, delimiter=",", fmt="%.17g")
    return str(path)


@pytest.fixture
def blob_files(tmp_path):
    train = gaussian_blobs(64, 4, 2, seed=1, center_scale=5.0)
    test = gaussian_blobs(32, 4, 2, seed=2, center_scale=5.0)
    return (
        write_dataset(tmp_path / "train.csv", train),
        write_dataset(tmp_path / "test.csv", test),
    )


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSolveCommand:
    def test_full_single_block_trace_rows(self, tmp_path, blob_files, capsys):
        train, test = blob_files
        out = tmp_path / "out"
        code = main(
            [
                "solve", "--train", train, "--test", test, "--method", "full",
                "--b", "64", "--lambda", "1e-2", "--epochs", "4",
                "--sigma", "2.0", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(out / "trace.csv")
        assert rows[0] == ["epoch", "block", "seconds", "objective", "test_error"]
        assert len(rows) == 1 + 4  # b = n: one block per epoch
        printed = capsys.readouterr().out
        assert "final objective" in printed and "test error" in printed
        model = load_model(out / "model.kbcd")
        assert model.method == "full"

    def test_rf_reproduces_library_run(self, tmp_path, blob_files):
        train, _ = blob_files
        out = tmp_path / "out"
        seed = 5
        code = main(
            [
                "solve", "--train", train, "--method", "rf", "--p", "16",
                "--b", "4", "--lambda", "1e-3", "--epochs", "8",
                "--sigma", "2.0", "--seed", str(seed), "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        cli_model = load_model(out / "model.kbcd")
        data = gaussian_blobs(64, 4, 2, seed=1, center_scale=5.0)
        fspec = FeatureMapSpec(p=16, sigma=2.0, master_seed=seed + 1)
        plan = make_plan(16, 4, seed=seed)
        lib_model, _ = solve_rf(data, fspec, 1e-3, plan, 8)
        assert np.array_equal(cli_model.coefficients, lib_model.coefficients)

    def test_missing_label_column_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,0\n3.5\n")
        code = main(
            ["solve", "--train", str(bad), "--method", "rf", "--p", "4", "--b", "2"]
        )
        assert code == EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_no_partial_outputs_on_failure(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,0\nnot-a-number,1.0,1\n")
        out = tmp_path / "out"
        code = main(
            [
                "solve", "--train", str(bad), "--method", "rf", "--p", "4",
                "--b", "2", "--out", str(out),
            ]
        )
        assert code == EXIT_DATA
        assert not (out / "trace.csv").exists()
        assert not (out / "model.kbcd").exists()

    def test_block_size_must_divide_n(self, tmp_path, blob_files, capsys):
        train, _ = blob_files
        code = main(
            ["solve", "--train", train, "--method", "full", "--b", "48",
             "--lambda", "1e-2"]
        )
        assert code == EXIT_CONFIG
        assert "never truncated" in capsys.readouterr().err

    def test_solve_rejects_multiple_lambdas(self, blob_files):
        train, _ = blob_files
        code = main(
            ["solve", "--train", train, "--method", "rf", "--p", "8",
             "--b", "4", "--lambda", "1e-3", "--lambda", "1e-2"]
        )
        assert code == EXIT_CONFIG

    def test_p_truncated_with_warning(self, tmp_path, blob_files, capsys):
        train, _ = blob_files
        out = tmp_path / "out"
        code = main(
            [
                "solve", "--train", train, "--method", "rf", "--p", "18",
                "--b", "4", "--epochs", "2", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert "truncating p from 18 to 16" in capsys.readouterr().err
        assert load_model(out / "model.kbcd").coefficients.shape[0] == 16

    def test_deterministic_outputs_modulo_seconds(self, tmp_path, blob_files):
        train, test = blob_files
        args = [
            "solve", "--train", train, "--test", test, "--method", "nystrom",
            "--p", "16", "--b", "4", "--lambda", "1e-3", "--epochs", "5",
            "--sigma", "2.0", "--gamma", "1e-6", "--seed", "9",
        ]
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(args + ["--out", str(out)]) == EXIT_OK
            outs.append(out)
        model_a = (outs[0] / "model.kbcd").read_bytes()
        model_b = (outs[1] / "model.kbcd").read_bytes()
        assert model_a == model_b
        # trace: every column except wall-clock seconds is identical
        rows_a = read_csv(outs[0] / "trace.csv")
        rows_b = read_csv(outs[1] / "trace.csv")
        strip = lambda rows: [r[:2] + r[3:] for r in rows]
        assert strip(rows_a) == strip(rows_b)


class TestConfigFile:
    def test_flags_override_file(self, tmp_path, blob_files):
        train, _ = blob_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "method = rf\np = 8\nb = 4\nlambda = 1e-3\nepochs = 2\nsigma = 2.0\n"
        )
        out = tmp_path / "out"
        code = main(
            [
                "solve", "--config", str(cfg), "--train", train,
                "--p", "16", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert load_model(out / "model.kbcd").coefficients.shape[0] == 16

    def test_unknown_key_is_config_error(self, tmp_path, blob_files):
        train, _ = blob_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("verbosity = 3\n")
        assert main(["solve", "--config", str(cfg), "--train", train]) == EXIT_CONFIG

    def test_comment_and_blank_lines_are_skipped(self, tmp_path, blob_files):
        # a file with comments and blank lines trains what the same flags do
        train, _ = blob_files
        flags = ["--method", "rf", "--p", "8", "--b", "4", "--epochs", "2"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# rf on the blobs\n\nmethod = rf  # the default\n   \n"
            "p = 8\n# b = 2\nb = 4\n\nepochs = 2\n"
        )
        runs = {"flags": flags, "file": ["--config", str(cfg)]}
        for name, given in runs.items():
            out = tmp_path / name
            assert main(["solve", "--train", train, *given, "--out", str(out)]) == EXIT_OK
        assert (tmp_path / "file" / "model.kbcd").read_bytes() == (
            tmp_path / "flags" / "model.kbcd"
        ).read_bytes()

    def test_line_without_equals_exits_2(self, tmp_path, blob_files, capsys):
        train, _ = blob_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 8\nb 4\n")
        assert main(["solve", "--config", str(cfg), "--train", train]) == EXIT_CONFIG
        assert "bad config line 'b 4'" in capsys.readouterr().err

    def test_config_path_that_is_a_directory_exits_2(self, tmp_path, blob_files, capsys):
        train, _ = blob_files
        assert main(["solve", "--config", str(tmp_path), "--train", train]) == EXIT_CONFIG
        assert "cannot read config file" in capsys.readouterr().err

    def test_header_key_writes_the_bytes_of_the_header_flag(self, tmp_path, capsys):
        data = gaussian_blobs(32, 3, 2, seed=4, center_scale=5.0)
        train = tmp_path / "train.csv"
        rows = np.hstack([data.X, data.labels[:, None].astype(float)])
        np.savetxt(train, rows, delimiter=",", fmt="%.17g", header="a,b,c,label",
                   comments="")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("header = true\n")
        common = ["solve", "--train", str(train), "--test", str(train), "--p", "8",
                  "--b", "4", "--epochs", "2"]
        runs = {}
        for name, given in {"flag": ["--header"], "key": ["--config", str(cfg)]}.items():
            out = tmp_path / name
            assert main([*common, *given, "--out", str(out)]) == EXIT_OK
            runs[name] = (
                capsys.readouterr().out,
                (out / "model.kbcd").read_bytes(),
                [row[:2] + row[3:] for row in read_csv(out / "trace.csv")],  # no seconds
            )
        assert runs["key"] == runs["flag"]

    def test_outdir_env_default(self, tmp_path, blob_files, monkeypatch):
        train, _ = blob_files
        out = tmp_path / "envout"
        monkeypatch.setenv("KERNELBCD_OUTDIR", str(out))
        code = main(
            ["solve", "--train", train, "--method", "rf", "--p", "8",
             "--b", "4", "--epochs", "1"]
        )
        assert code == EXIT_OK
        assert (out / "model.kbcd").exists()


class TestPathCommand:
    def test_writes_per_lambda_outputs(self, tmp_path, blob_files):
        train, _ = blob_files
        out = tmp_path / "out"
        code = main(
            [
                "path", "--train", train, "--method", "rf", "--p", "16",
                "--b", "4", "--lambda", "1e-3", "--lambda", "1e-2",
                "--epochs", "4", "--sigma", "2.0", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        models = sorted(out.glob("model_*.kbcd"))
        traces = sorted(out.glob("trace_*.csv"))
        assert len(models) == 2 and len(traces) == 2


class TestCompareCommand:
    def test_empty_p_list_exits_2(self, blob_files):
        train, test = blob_files
        assert (
            main(["compare", "--train", train, "--test", test]) == EXIT_CONFIG
        )

    def test_needs_test_set(self, blob_files):
        train, _ = blob_files
        assert (
            main(["compare", "--train", train, "--p", "8,16"]) == EXIT_CONFIG
        )

    def test_sweep_trend_and_full_kernel_agreement(self, tmp_path):
        big = gaussian_blobs(528, 4, 2, seed=11, center_scale=3.0, noise=1.3)
        train = Dataset(X=big.X[:128], labels=big.labels[:128], k=big.k)
        test = Dataset(X=big.X[128:], labels=big.labels[128:], k=big.k)
        train_p = write_dataset(tmp_path / "train.csv", train)
        test_p = write_dataset(tmp_path / "test.csv", test)
        out = tmp_path / "out"
        code = main(
            [
                "compare", "--train", train_p, "--test", test_p,
                "--p", "8,32,128", "--b", "8", "--lambda", "1e-3",
                "--sigma", "2.0", "--gamma", "1e-6", "--epochs", "40",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(out / "compare.csv")
        assert rows[0] == ["p", "method", "test_error", "epochs_run"]
        by_method = {"nystrom": [], "rf": []}
        for p, method, err, _ in rows[1:]:
            by_method[method].append((int(p), float(err)))
        for method, series in by_method.items():
            series.sort()
            errs = [e for _, e in series]
            inversions = sum(1 for a, b in zip(errs, errs[1:]) if b > a + 1e-12)
            assert inversions <= 1, f"{method}: {errs}"
        # p = n landmarks reproduce the full-kernel accuracy
        full_code = main(
            [
                "solve", "--train", train_p, "--test", test_p, "--method",
                "full", "--b", "8", "--lambda", "1e-3", "--sigma", "2.0",
                "--epochs", "40", "--seed", "3", "--out", str(tmp_path / "full"),
            ]
        )
        assert full_code == EXIT_OK
        full_rows = read_csv(tmp_path / "full" / "trace.csv")
        full_err = float(full_rows[-1][4])
        ny_at_n = dict(
            ((int(p), m), float(e)) for p, m, e, _ in rows[1:]
        )[(128, "nystrom")]
        assert abs(ny_at_n - full_err) <= 0.005


class TestCostsCommand:
    def test_rf_single_worker_bytes_zero(self, tmp_path, blob_files):
        train, _ = blob_files
        out = tmp_path / "out"
        code = main(
            [
                "costs", "--train", train, "--method", "rf", "--p", "16",
                "--b", "4", "--workers", "1", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(out / "ledger.csv")
        byte_col = [int(r[4]) for r in rows[1:]]
        assert all(v == 0 for v in byte_col)

    def test_bytes_match_prediction_exactly(self, tmp_path, blob_files):
        train, _ = blob_files
        out = tmp_path / "out"
        code = main(
            [
                "costs", "--train", train, "--method", "nystrom", "--p", "16",
                "--b", "4", "--workers", "8", "--gamma", "1e-6",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        report = dict((r[0], r[1]) for r in read_csv(out / "costs_report.csv")[1:])
        assert report["bytes_exact"] == "true"
        assert report["ok"] == "true"
        assert int(report["bytes_measured"]) == 3 * 4 * 4 * 8 * 4

    def test_full_kernel_has_no_gram_phase(self, tmp_path, blob_files):
        train, _ = blob_files
        out = tmp_path / "out"
        code = main(
            [
                "costs", "--train", train, "--method", "full", "--b", "8",
                "--workers", "4", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        phases = {r[2] for r in read_csv(out / "ledger.csv")[1:]}
        assert "gram" not in phases
        assert {"generation", "residual", "solve"} <= phases


class TestRatesCheckCommand:
    def test_small_battery_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "rates-check", "--dim", "12", "--b", "3", "--quadratics", "1",
                "--ensemble", "15", "--tau", "50", "--trials", "300",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "PASS" in printed and "FAIL" not in printed
        curve = read_csv(out / "rates_curve.csv")
        assert curve[0] == [
            "problem", "t", "empirical_mean_gap", "improved_bound", "classical_bound",
        ]
        assert len(curve) == 1 + 51
        verdicts = read_csv(out / "rates_verdicts.csv")
        assert all(row[1] == "true" for row in verdicts[1:])

    def test_curve_values_are_plain_floats(self, tmp_path):
        # the gaps and bounds are np.float64, whose repr under numpy >= 2
        # is "np.float64(...)"
        out = tmp_path / "out"
        code = main(
            [
                "rates-check", "--dim", "4", "--b", "2", "--quadratics", "2",
                "--ensemble", "2", "--tau", "5", "--trials", "20",
                "--out", str(out),
            ]
        )
        assert code in (EXIT_OK, EXIT_RATES)
        rows = read_csv(out / "rates_curve.csv")[1:]
        assert len(rows) == 2 * 6
        assert all(np.isfinite([float(v) for v in row]).all() for row in rows)

    def test_the_benchmark_size_decides_every_monte_carlo_block_by_its_bound(
        self, tmp_path, monkeypatch
    ):
        # the Chernoff and Bernstein blocks are the only 10 x 10 matrices the
        # command eigendecomposes (l_max_b's are b x b, the other tops 16 x
        # 16, 24 x 24 or 100 x 100); at dim 16, b 4, seed 0 a cheap bound
        # decides every one of them
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        code = main(["rates-check", "--dim", "16", "--b", "4", "--seed", "0",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert (4, 4) in shapes and (10, 10) not in shapes


# a problem on blob_files that each method solves to GRAD_TOL well within
# GRAD_TOL_EPOCHS epochs (full after 8, nystrom 16, rf 9)
GRAD_TOL, GRAD_TOL_EPOCHS, GAMMA = 1e-3, 40, 1e-6
_CONVERGING = ["--b", "8", "--sigma", "2.0", "--gamma", repr(GAMMA), "--lambda", "1e-2",
               "--epochs", str(GRAD_TOL_EPOCHS)]
_METHOD_FLAGS = {"full": ["--method", "full"], "nystrom": ["--method", "nystrom", "--p", "32"],
                 "rf": ["--method", "rf", "--p", "32"]}


def _epochs_run(trace_path) -> int:
    rows = read_csv(trace_path)[1:]
    return int(rows[-1][0]) + 1 if rows else 0


@pytest.mark.parametrize("grad_tol", [None, GRAD_TOL], ids=["epochs", "grad_tol"])
@pytest.mark.parametrize("method", list(_METHOD_FLAGS))
def test_solve_and_path_stop_on_grad_tol_and_print_evaluate(
    tmp_path, blob_files, method, grad_tol, capsys
):
    # the stop is the solvers' certified check, so each written model meets
    # the bound; the printed test error is the trace's last, which is
    # evaluate's figure for the written model bit for bit
    train, test = blob_files
    train_data, test_data = load_csv(train), load_csv(test)
    argv = [*_METHOD_FLAGS[method], *_CONVERGING, "--train", train, "--test", test]
    if grad_tol is not None:
        argv += ["--grad-tol", repr(grad_tol)]
    assert main(["solve", *argv, "--out", str(tmp_path / "solve")]) == EXIT_OK
    [_, solve_err] = capsys.readouterr().out.splitlines()
    assert main(["path", *argv, "--lambda", "1e-1", "--out", str(tmp_path / "path")]) == EXIT_OK
    path_lines = capsys.readouterr().out.splitlines()
    runs = [(tmp_path / "solve", "", 1e-2, solve_err.split(": ")[1])] + [
        (tmp_path / "path", f"_{tag}", lam, line.split("test error ")[1])
        for tag, lam, line in zip(["0_01", "0_1"], [1e-2, 1e-1], path_lines)
    ]
    for out, tag, lam, printed in runs:
        model = load_model(out / f"model{tag}.kbcd")
        assert printed == repr(evaluate(model, test_data))
        epochs = _epochs_run(out / f"trace{tag}.csv")
        if grad_tol is None:
            assert epochs == GRAD_TOL_EPOCHS
        else:
            assert epochs < GRAD_TOL_EPOCHS
            assert normal_equation_residual(model, train_data, lam, GAMMA) <= grad_tol


@pytest.mark.parametrize("grad_tol", [None, GRAD_TOL], ids=["epochs", "grad_tol"])
def test_compare_epochs_run_is_the_trace_length(tmp_path, blob_files, grad_tol):
    # compare.csv's epochs_run is the epoch count of the run's trace: the
    # certified stop epoch under --grad-tol, --epochs without it
    train, test = blob_files
    data = ["--train", train, "--test", test]
    stop = [] if grad_tol is None else ["--grad-tol", repr(grad_tol)]
    out = tmp_path / "compare"
    code = main(["compare", *data, *_CONVERGING, "--p", "16,32", *stop, "--out", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out / "compare.csv")[1:]
    assert len(rows) == 4
    for p, method, _, epochs_run in rows:
        solo = tmp_path / f"{method}_{p}"
        assert main(["solve", "--method", method, "--p", p, *data, *_CONVERGING, *stop,
                     "--out", str(solo)]) == EXIT_OK
        assert int(epochs_run) == _epochs_run(solo / "trace.csv")
        if grad_tol is None:
            assert int(epochs_run) == GRAD_TOL_EPOCHS
        else:
            assert int(epochs_run) < GRAD_TOL_EPOCHS
    # no epoch, no record: epochs_run is 0
    assert main(["compare", *data, "--p", "8", "--b", "4", "--epochs", "0",
                 "--out", str(tmp_path / "zero")]) == EXIT_OK
    assert [row[3] for row in read_csv(tmp_path / "zero" / "compare.csv")[1:]] == ["0", "0"]


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kernelbcd.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout


def test_console_script_reports_a_stray_flag_with_the_commands_usage(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "kernelbcd.cli", "rates-check", "--dim", "4",
         "--b", "2", "--test", "missing.csv", "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("usage: kernelbcd rates-check ")
    assert "unrecognized arguments: --test missing.csv" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_stray_flag_is_reported_with_the_commands_usage(tmp_path, capsys):
    # the command's usage line lists the flags it does take
    out = tmp_path / "out"
    code = main(["rates-check", "--dim", "4", "--b", "2", "--test", "missing.csv",
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage: kernelbcd rates-check [-h] [--config CONFIG] [--b B]")
    assert "kernelbcd rates-check: error: unrecognized arguments: --test missing.csv" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "test_rows, message",
    [
        ("1.0,2.0,0\n3.0,4.0,1\n", "test set has 2 features, train has 4"),
        ("1.0,2.0,3.0,4.0,0\n1.0,2.0,3.0,4.0,2\n", "test set contains unseen class labels"),
    ],
    ids=["width", "unseen-class"],
)
def test_test_set_that_does_not_match_train_exits_3(
    tmp_path, blob_files, test_rows, message, capsys
):
    train, _ = blob_files
    test = tmp_path / "odd.csv"
    test.write_text(test_rows)
    out = tmp_path / "out"
    code = main(["solve", "--train", train, "--test", str(test), "--p", "8", "--b", "4",
                 "--out", str(out)])
    assert code == EXIT_DATA
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_path_zero_epochs_reports_nan(tmp_path, blob_files, capsys):
    # no visit, no trace record: the objective and the test error are nan
    train, test = blob_files
    out = tmp_path / "out"
    code = main(
        [
            "path", "--train", train, "--test", test, "--method", "rf", "--p", "16",
            "--b", "4", "--lambda", "1e-3", "--lambda", "1e-2", "--epochs", "0",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "lambda 0.001: objective nan, test error nan" in printed
    assert "lambda 0.01: objective nan, test error nan" in printed
    assert len(list(out.glob("model_*.kbcd"))) == 2


@pytest.mark.parametrize("command", ["compare", "costs"])
def test_single_lambda_commands_reject_several(tmp_path, blob_files, command, capsys):
    train, test = blob_files
    out = tmp_path / "out"
    own = {"compare": ["--test", test], "costs": ["--method", "rf"]}[command]
    code = main(
        [
            command, "--train", train, *own, "--p", "16", "--b", "4",
            "--lambda", "1e-3", "--lambda", "1e-2", "--out", str(out),
        ]
    )
    assert code == EXIT_CONFIG
    assert f"{command} takes a single --lambda" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["full", "nystrom", "rf"])
def test_nonpositive_sigma_is_config_error(blob_files, method, capsys):
    train, _ = blob_files
    p_flag = [] if method == "full" else ["--p", "16"]
    code = main(
        ["solve", "--train", train, "--method", method, "--b", "8",
         "--sigma", "-1"] + p_flag
    )
    assert code == EXIT_CONFIG
    assert "bandwidth must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["1e300", "1e-300"])
@pytest.mark.parametrize("method", ["full", "nystrom"])
def test_rbf_sigma_squared_out_of_range_is_config_error(
    tmp_path, blob_files, method, sigma, capsys
):
    # sigma*sigma overflows to inf or underflows to 0: a config error
    # naming sigma, not an OverflowError or a failed block solve
    train, _ = blob_files
    out = tmp_path / "out"
    p_flag = [] if method == "full" else ["--p", "16"]
    code = main(
        ["solve", "--train", train, "--method", method, "--b", "8",
         "--sigma", sigma, "--out", str(out)] + p_flag
    )
    assert code == EXIT_CONFIG
    assert "sigma" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--dim", "4", "--b", "5"]])
def test_rates_check_rejects_block_beyond_dim(tmp_path, flags, capsys):
    # the defaults (--b 64, --dim 32) are such a case
    out = tmp_path / "out"
    code = main(["rates-check", "--out", str(out)] + flags)
    assert code == EXIT_CONFIG
    assert "--b must lie in [1, --dim" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("epochs", "abc"), ("workers", "two"), ("sigma", "abc"), ("p", "x"),
        ("lambda", "abc"), ("b", "4.5"), ("epochs", "2.0"), ("seed", "1.5"),
        ("rmse", "no"), ("rmse", "yes"), ("rmse", "1"),
    ],
)
def test_bad_config_value_exits_2_naming_key(
    tmp_path, blob_files, key, value, capsys
):
    train, _ = blob_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"p = 16\nb = 4\n{key} = {value}\n")
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--train", train, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_infinite_lambda_is_config_error(blob_files, capsys):
    train, _ = blob_files
    code = main(
        ["solve", "--train", train, "--method", "rf", "--p", "16", "--b", "8",
         "--lambda", "inf"]
    )
    assert code == EXIT_CONFIG
    assert "positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--trials", "0"], ["--ensemble", "0"], ["--tau", "-1"],
        ["--quadratics", "0"], ["--delta", "-1"], ["--seed", "-1"],
        # sizes that used to fail only after an ensemble had run or an
        # allocation was tried, with --out already made
        ["--dim", "32", "--b", "8"], ["--dim", "4294967296", "--b", "4294967296"],
        ["--tau", "10000000000000000000"],
    ],
    ids=["trials", "ensemble", "tau", "quadratics", "delta", "seed",
         "subset-cap", "dim-size", "tau-size"],
)
def test_rates_check_rejects_knobs_out_of_range(tmp_path, flags):
    out = tmp_path / "out"
    code = main(["rates-check", "--dim", "4", "--b", "2", "--out", str(out)] + flags)
    assert code == EXIT_CONFIG
    assert not out.exists()


_SCALAR_FLAG_CASES = [
    ("solve", "--epochs", "-1", "--epochs must be >= 0, got -1"),
    ("solve", "--seed", "-1", "--seed must be >= 0, got -1"),
    ("solve", "--b", "0", "--b must be >= 1, got 0"),
    ("solve", "--workers", "0", "--workers must be >= 1, got 0"),
    ("solve", "--gamma", "-1", "--gamma must be finite and >= 0, got -1.0"),
    ("rates-check", "--tau", "-1", "--tau must be >= 0, got -1"),
    ("rates-check", "--quadratics", "0", "--quadratics must be >= 1, got 0"),
    ("rates-check", "--ensemble", "0", "--ensemble must be >= 1, got 0"),
    ("rates-check", "--trials", "0", "--trials must be >= 1, got 0"),
    ("rates-check", "--delta", "nan", "--delta must lie in (0, 1], got nan"),
]


@pytest.mark.parametrize("command, flag, value, message", _SCALAR_FLAG_CASES,
                         ids=[case[1] for case in _SCALAR_FLAG_CASES])
def test_scalar_flag_refusal_names_the_flag(tmp_path, command, flag, value, message, capsys):
    # the package's input rules, called with the flag as the name, before
    # any file is read
    missing = str(tmp_path / "missing.csv")
    own = (["--dim", "4", "--b", "2"] if command == "rates-check"
           else ["--train", missing, "--p", "8", "--b", "4"])
    out = tmp_path / "out"
    assert main([command, *own, f"{flag}={value}", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {message}\n" in err
    assert "cannot read data file" not in err
    assert not out.exists()


def test_missing_data_file_exits_2(tmp_path, blob_files, capsys):
    train, _ = blob_files
    code = main(
        ["solve", "--train", train, "--test", str(tmp_path / "missing.csv"),
         "--p", "16", "--b", "8", "--out", str(tmp_path / "out")]
    )
    assert code == EXIT_CONFIG
    assert "missing.csv" in capsys.readouterr().err


@pytest.mark.parametrize("column", ["feature", "label"])
@pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
def test_non_finite_csv_value_exits_3(tmp_path, token, column, capsys):
    bad_row = f"{token},1.0,0" if column == "feature" else f"0.5,1.0,{token}"
    train = tmp_path / "train.csv"
    train.write_text(f"0.5,1.0,0\n{bad_row}\n1.5,2.0,1\n")
    code = main(
        ["solve", "--train", str(train), "--p", "4", "--b", "2",
         "--out", str(tmp_path / "out")]
    )
    assert code == EXIT_DATA
    assert "line 2" in capsys.readouterr().err


ADVERSARIAL_VALUES = [
    "abc", "", "-1", "0", "1.5", "2.0", "inf", "nan", "1e400", "true", "no",
    "8,4", ",",
]


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    data = gaussian_blobs(16, 2, 2, seed=5)
    return write_dataset(tmp_path_factory.mktemp("tiny") / "train.csv", data)


def _takes(command, flag):
    """Whether ``command`` takes ``flag`` (``--grad-tol``) or config key."""
    return command in OPTIONS[flag.lstrip("-").replace("-", "_")].metadata["commands"]


# config lines that, with the data files, make a valid small run
_SMALL_RUN = {
    **dict.fromkeys(["solve", "path", "compare"], ["p = 8", "b = 4", "epochs = 1"]),
    "costs": ["p = 8", "b = 4"],
    "rates-check": ["dim = 4", "b = 2", "quadratics = 1", "ensemble = 2", "tau = 5",
                    "trials = 20"],
}


@settings(max_examples=150, deadline=None)
@given(
    # a command and one of its own config keys
    command_key=st.sampled_from(sorted(COMMANDS)).flatmap(
        lambda command: st.tuples(
            st.just(command), st.sampled_from([k for k in OPTIONS if _takes(command, k)])
        )
    ),
    value=st.sampled_from(ADVERSARIAL_VALUES),
    trains=st.booleans(),
)
def test_config_file_values_only_documented_exit_codes(tiny_csv, command_key, value, trains):
    # the file names the command's data files; with ``trains`` its next lines
    # make a valid small run.  Its last line, the adversarial one, overrides
    command, key = command_key
    lines = [f"{k} = {tiny_csv}" for k in ("train", "test") if _takes(command, k)]
    lines += _SMALL_RUN[command] if trains else []
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write("".join(f"{line}\n" for line in [*lines, f"{key} = {value}"]))
        cwd = os.getcwd()
        os.chdir(tmp)  # a relative train or test value names no existing file
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", cfg, "--out", os.path.join(tmp, "out")])
        finally:
            os.chdir(cwd)
    event(f"{command} exit {code}")
    assert code in {0, 2, 3, 4, 5}


def test_undecodable_csv_exits_3(tmp_path, capsys):
    train = tmp_path / "train.csv"
    train.write_bytes(b"\xff0.5,1.0,0\n1.5,2.0,1\n")
    code = main(
        ["solve", "--train", str(train), "--p", "4", "--b", "2",
         "--out", str(tmp_path / "out")]
    )
    assert code == EXIT_DATA
    assert "decode" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["-1", "0"])
def test_nonpositive_p_exits_2_before_truncation(tmp_path, blob_files, p, capsys):
    train, _ = blob_files
    out = tmp_path / "out"
    code = main(["solve", "--train", train, "--p", p, "--b", "8", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--p values must be >= 1" in err
    assert "truncating" not in err
    assert not out.exists()


def test_overflowing_features_exit_4_naming_non_finite_entries(tmp_path, capsys):
    # +-1e300 features overflow the linear kernel to inf; the first block
    # system is then non-finite, which is a divergence, not a bad config
    rng = np.random.default_rng(0)
    huge = Dataset(X=rng.choice([-1e300, 1e300], size=(64, 3)),
                   labels=np.arange(64) % 2, k=2)
    train = write_dataset(tmp_path / "huge.csv", huge)
    code = main(
        ["solve", "--train", train, "--method", "full", "--kernel", "linear",
         "--b", "8", "--out", str(tmp_path / "out")]
    )
    assert code == EXIT_DIVERGED
    assert "non-finite entries" in capsys.readouterr().err


def test_overflowing_features_diverge_without_numpy_warnings(tmp_path):
    # the overflow and the nans after it end in exit 4; numpy's
    # RuntimeWarnings from the training arithmetic are not printed first
    rng = np.random.default_rng(0)
    huge = Dataset(X=rng.choice([-1e300, 1e300], size=(64, 3)),
                   labels=np.arange(64) % 2, k=2)
    train = write_dataset(tmp_path / "huge.csv", huge)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(
            ["solve", "--train", train, "--method", "full", "--kernel", "linear",
             "--b", "8", "--out", str(tmp_path / "out")]
        )
    assert code == EXIT_DIVERGED
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_huge_finite_features_give_finite_random_features(tmp_path, capsys):
    # the same +-1e300 features: their random-feature arguments are finite
    # and far past the float32 cosine's exact range, so they take the
    # float64 cosine, and rf trains without a non-finite entry or warning
    rng = np.random.default_rng(0)
    huge = Dataset(X=rng.choice([-1e300, 1e300], size=(64, 3)),
                   labels=np.arange(64) % 2, k=2)
    train = write_dataset(tmp_path / "huge.csv", huge)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(
            ["solve", "--train", train, "--method", "rf", "--p", "16", "--b", "8",
             "--out", str(tmp_path / "out")]
        )
    assert code == EXIT_OK, capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_allocation_failure_exits_2(tmp_path, blob_files, monkeypatch, capsys):
    # a huge --p fails allocating the run's coefficients or a sweep's
    # permutation; raise as numpy would, without attempting the allocation
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr("kernelbcd.cli.make_plan", no_memory)
    train, _ = blob_files
    code = main(["solve", "--train", train, "--p", "16", "--b", "8",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "out of memory" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["inf", "1e-320"])
def test_rf_sigma_without_finite_reciprocal_is_config_error(blob_files, sigma, capsys):
    train, _ = blob_files
    code = main(["solve", "--train", train, "--method", "rf", "--b", "8",
                 "--p", "16", "--sigma", sigma])
    assert code == EXIT_CONFIG
    assert "bandwidth must be positive and finite" in capsys.readouterr().err


def test_label_too_big_for_the_label_matrix_exits_3_naming_it(tmp_path, capsys):
    # load_csv takes any integer label below 2**63, but 9.2e18 + 1 one-vs-all
    # columns for two rows are past what numpy can index
    train = tmp_path / "train.csv"
    train.write_text("1.0,2.0,0\n1.5,2.5,9.2e18\n")
    code = main(["solve", "--train", str(train), "--method", "full", "--b", "1",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert "label 9200000000000000000" in capsys.readouterr().err


def test_rf_sigma_whose_frequencies_overflow_is_config_error(tmp_path, blob_files, capsys):
    train, _ = blob_files
    code = main(["solve", "--train", train, "--method", "rf", "--b", "8",
                 "--p", "16", "--sigma", "1e-308", "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "38.5 / sigma" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--method", "rf", "--p", "16", "--lambda", "1e308"],
        ["--method", "full", "--lambda", "1e307"],
        ["--method", "nystrom", "--p", "16", "--lambda", "1", "--gamma", "1e308"],
    ],
    ids=["rf", "full", "nystrom-gamma"],
)
def test_overflowing_n_lambda_is_config_error(tmp_path, blob_files, flags, capsys):
    # n * lambda (and n * lambda * gamma) enter the block system; an
    # overflow there is a bad configuration, not a diverged solve
    train, _ = blob_files
    out = tmp_path / "out"
    code = main(["solve", "--train", train, "--b", "8", "--out", str(out)] + flags)
    assert code == EXIT_CONFIG
    assert "overflows at n = 64" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("p", [str(2**59), str(2**62), str(10**30)])
def test_universe_past_numpy_index_range_exits_2(tmp_path, blob_files, p, capsys):
    # numpy raises ValueError, not MemoryError, for a permutation this long
    train, _ = blob_files
    code = main(["solve", "--train", train, "--p", p, "--b", "8",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "too large to index" in capsys.readouterr().err


# zeros, a subnormal, the largest finite magnitudes, non-finite and negative
# values, and a few ordinary ones.  No --p or --b from about 1e6 up to 2**59
# is drawn: that is a real problem size, whose memory and time grow with it
# by design (exit 2 only once an allocation fails)
EXTREME_FLOATS = ["0", "-0.0", "5e-324", "1e308", "-1e308", "inf", "-inf", "nan",
                  "-1", "0.5", "2"]
EXTREME_INTS = ["0", "-0", "-1", "1", "4", "8", "16", "8,4", "6", str(2**59),
                str(2**63), str(10**30), "5e-324", "1e308", "inf", "nan"]
EXTREME_FLAGS = {
    **dict.fromkeys(["--lambda", "--sigma", "--gamma", "--grad-tol"], EXTREME_FLOATS),
    **dict.fromkeys(["--p", "--b", "--seed"], EXTREME_INTS),
}


@settings(max_examples=80, deadline=None)
@given(
    command=st.sampled_from(["solve", "path", "compare", "rates-check", "costs"]),
    method=st.sampled_from(["full", "nystrom", "rf"]),
    kernel=st.sampled_from(["rbf", "linear"]),
    # up to three flags of a run that is otherwise valid take extreme values
    extremes=st.lists(
        st.sampled_from(sorted(EXTREME_FLAGS)).flatmap(
            lambda flag: st.tuples(st.just(flag), st.sampled_from(EXTREME_FLAGS[flag]))
        ),
        max_size=3, unique_by=lambda pair: pair[0],
    ),
    # work counts: a run's cost grows linearly with each by design, so they
    # are drawn from small ranges
    work=st.fixed_dictionaries({
        "--epochs": st.integers(0, 3), "--workers": st.integers(1, 4),
        "--tau": st.integers(0, 6), "--trials": st.integers(1, 20),
        "--ensemble": st.integers(1, 3), "--dim": st.integers(2, 6),
        "--quadratics": st.integers(1, 2),
    }),
)
def test_cli_flags_only_documented_exit_codes(
    tiny_csv, command, method, kernel, extremes, work
):
    flags = {"--train": [tiny_csv], "--test": [tiny_csv], "--method": [method],
             "--kernel": [kernel], "--lambda": ["0.1", "0.01"] if command == "path" else ["0.1"],
             "--b": ["2"], **{flag: [str(n)] for flag, n in work.items()}}
    if method != "full" or command == "compare":
        flags["--p"] = ["8"]
    flags.update((flag, [value]) for flag, value in extremes)
    argv = [command]
    for flag, values in flags.items():
        if _takes(command, flag):  # each command is given only its own flags
            argv += [f"{flag}={value}" for value in values]  # "=" keeps "-1" a value
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv += ["--out", os.path.join(tmp, "out")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)  # argparse rejects a value with exit 2
    event(f"{command} exit {code}")
    assert code in {0, 2, 3, 4, 5}
    assert "Traceback" not in stderr.getvalue()


# each command with small work counts, and every file it writes
_WRITERS = {
    "solve": (["--method", "rf", "--p", "16", "--b", "8"], ["trace.csv", "model.kbcd"]),
    "path": (
        ["--method", "rf", "--p", "16", "--b", "8", "--lambda", "0.01"],
        ["trace_0_01.csv", "model_0_01.kbcd"],
    ),
    "compare": (["--p", "8", "--b", "4", "--epochs", "2"], ["compare.csv"]),
    "rates-check": (
        ["--dim", "4", "--b", "2", "--quadratics", "1", "--ensemble", "2",
         "--tau", "5", "--trials", "20"],
        ["rates_curve.csv", "rates_verdicts.csv"],
    ),
    "costs": (["--method", "rf", "--p", "16", "--b", "8"], ["ledger.csv", "costs_report.csv"]),
}


def _write_failure_argv(command, blob_files, out):
    train, test = blob_files
    flags, _ = _WRITERS[command]
    data = {"rates-check": [], "costs": ["--train", train]}.get(
        command, ["--train", train, "--test", test]
    )
    return [command, *data, *flags, "--out", str(out)]


def _assert_cannot_write(code, capsys, root):
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error: cannot write output" in err and "Traceback" not in err
    assert not list(root.rglob("*.tmp-*"))


@pytest.mark.parametrize("command", _WRITERS)
def test_out_naming_a_file_exits_2(tmp_path, blob_files, command, capsys):
    out = tmp_path / "out"
    out.write_text("a file\n")
    code = main(_write_failure_argv(command, blob_files, out))
    _assert_cannot_write(code, capsys, tmp_path)
    assert out.read_text() == "a file\n"


def test_outdir_env_naming_a_file_exits_2(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    out.write_text("a file\n")
    monkeypatch.setenv("KERNELBCD_OUTDIR", str(out))
    code = main(["rates-check", *_WRITERS["rates-check"][0]])
    _assert_cannot_write(code, capsys, tmp_path)


@pytest.mark.parametrize(
    "command, name",
    [(command, name) for command, (_, names) in _WRITERS.items() for name in names],
)
def test_output_that_is_a_directory_exits_2(tmp_path, blob_files, command, name, capsys):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    code = main(_write_failure_argv(command, blob_files, out))
    _assert_cannot_write(code, capsys, tmp_path)
    assert os.listdir(out / name) == []


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_grad_tol_must_be_finite_and_nonnegative(tmp_path, tol, capsys):
    # the data files do not exist: the check comes before any file is read
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    data = ["--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv")]
    for command, stop in [
        ("solve", ["--grad-tol", tol]), ("path", ["--grad-tol", tol]),
        ("compare", ["--grad-tol", tol]),
        # the config file takes the key with either separator
        ("compare", ["--config", str(cfg)]),
    ]:
        cfg.write_text(f"grad-tol = {tol}\n")
        code = main([command, *data, "--p", "8", "--b", "4", *stop, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "--grad-tol must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()


def test_the_old_tol_flag_and_key_exit_2(tmp_path, blob_files, capsys):
    # --tol and "tol =" were compare's objective-stall rule; they are refused
    # rather than read as --grad-tol
    train, test = blob_files
    argv = ["compare", "--train", train, "--test", test, "--p", "8", "--b", "4",
            "--out", str(tmp_path / "out")]
    assert main([*argv, "--tol", "1e-6"]) == EXIT_CONFIG
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 1e-6\n")
    assert main([*argv, "--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown config key 'tol'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values", [["0.1", "0.1"], ["1e-3", "0.001"]])
def test_repeated_lambda_exits_2_before_any_file_is_read(tmp_path, values, capsys):
    # the training file does not exist: the check comes before it is read
    argv = ["path", "--train", str(tmp_path / "missing.csv"), "--p", "8", "--b", "4",
            "--out", str(tmp_path / "out")]
    for value in values:
        argv += ["--lambda", value]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"--lambda values must be distinct: {float(values[0])!r} repeated" in err
    assert "cannot read data file" not in err


REPEATED_P = {
    "16,16": "--p values must be distinct: 16 repeated",
    "8,16,8": "--p values must be distinct: 8 repeated",
    # 17 cuts to 16 at --b 4, which would train p = 16 twice
    "16,17": "--p values must be distinct once cut to a multiple of --b = 4: "
             "16 and 17 both give 16",
}


@pytest.mark.parametrize("values", list(REPEATED_P))
def test_repeated_p_exits_2_before_any_file_is_read(tmp_path, values, capsys):
    # neither data file exists: the check comes before either is read
    out = tmp_path / "out"
    code = main(["compare", "--train", str(tmp_path / "missing.csv"),
                 "--test", str(tmp_path / "missing_test.csv"), "--p", values,
                 "--b", "4", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert REPEATED_P[values] in err
    assert "truncating" not in err
    assert "cannot read data file" not in err
    assert not out.exists()


def test_costs_refuses_test_before_any_file_is_read(tmp_path, capsys):
    # neither data file exists: costs scores no test set, and argparse
    # refuses the flag before either file is read
    out = tmp_path / "out"
    code = main(["costs", "--train", str(tmp_path / "missing.csv"),
                 "--test", str(tmp_path / "missing_test.csv"), "--method", "rf",
                 "--p", "16", "--b", "8", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unrecognized arguments: --test" in err
    assert "cannot read data file" not in err
    assert not out.exists()


def test_costs_refuses_grad_tol_before_any_file_is_read(tmp_path, capsys):
    # a one-epoch run reaches no epoch-end check, so the flag would do nothing
    out = tmp_path / "out"
    code = main(["costs", "--train", str(tmp_path / "missing.csv"), "--method", "rf",
                 "--p", "16", "--b", "8", "--grad-tol", "1e-3", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unrecognized arguments: --grad-tol" in err
    assert "cannot read data file" not in err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["0", "1", "7"])
def test_costs_measures_exactly_one_epoch(tmp_path, blob_files, seed, capsys):
    # whichever block partition the seed draws, the ledger holds one epoch,
    # and costs takes no --epochs
    train, _ = blob_files
    out = tmp_path / "out"
    code = main(["costs", "--train", train, "--method", "rf", "--p", "16", "--b", "8",
                 "--seed", seed, "--out", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out / "ledger.csv")[1:]
    assert {r[0] for r in rows} == {"0"}
    assert [r[1] for r in rows if r[2] == "solve"] == ["0", "1"]  # 16 / 8 blocks
    capsys.readouterr()
    assert main(["costs", "--help"]) == EXIT_OK
    assert "--epochs" not in capsys.readouterr().out


# a value each option that some command does not take parses; the boolean
# flags take none
_PARSEABLE = {
    "method": "rf", "kernel": "rbf", "sigma": "1", "lambda": "0.1", "gamma": "0",
    "p": "8", "epochs": "1", "workers": "1", "grad_tol": "0.1", "rmse": None,
    "header": None, "dim": "4", "quadratics": "1", "ensemble": "1", "tau": "1",
    "trials": "1", "delta": "0.1",
}


@pytest.mark.parametrize(
    "command, key",
    [(command, key) for command in COMMANDS for key in OPTIONS if not _takes(command, key)],
)
def test_option_outside_its_commands_exits_2_before_any_file_is_read(
    tmp_path, command, key, capsys
):
    # an otherwise valid run whose data files do not exist, given one option
    # its command does not take, as a flag and as a config key
    missing = str(tmp_path / "missing.csv")
    value = missing if key in ("train", "test") else _PARSEABLE[key]
    own = [arg for flag in ("--train", "--test") if _takes(command, flag)
           for arg in (flag, missing)]
    own += ["--dim", "4", "--b", "2"] if command == "rates-check" else ["--p", "8", "--b", "4"]
    out = tmp_path / "out"
    flag = f"--{key.replace('_', '-')}"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {'true' if value is None else value}\n")
    for given, refusal in [
        ([flag] if value is None else [f"{flag}={value}"], f"unrecognized arguments: {flag}"),
        (["--config", str(cfg)], f"config key {key!r} does not apply to {command}"),
    ]:
        assert main([command, *own, *given, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert refusal in err
        assert "cannot read data file" not in err
        assert not out.exists()


@pytest.mark.parametrize("abbrev", ["--lam", "--ep", "--gr"])
def test_flag_abbreviation_exits_2(tmp_path, blob_files, abbrev, capsys):
    # a flag is only its declared name, as a config key is
    train, _ = blob_files
    out = tmp_path / "out"
    code = main(["solve", "--train", train, "--p", "8", "--b", "4", abbrev, "1",
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert f"unrecognized arguments: {abbrev} 1" in capsys.readouterr().err
    assert not out.exists()


_RBF_SIGMA = "rbf bandwidth must be positive, with sigma*sigma neither 0 nor inf"
_RF_SIGMA = "bandwidth must be positive and finite, with 38.5 / sigma finite"
_SPEC_CASES = [
    pytest.param(["solve", "--method", method, *sizes, "--sigma", sigma], message,
                 id=f"{method}-sigma={sigma}")
    for method, sizes, sigmas, message in [
        ("full", ["--b", "2"], ["-1", "0", "inf", "1e300", "1e-300"], _RBF_SIGMA),
        ("nystrom", ["--p", "8", "--b", "4"], ["-1", "0", "inf", "1e300", "1e-300"],
         _RBF_SIGMA),
        ("rf", ["--p", "8", "--b", "4"], ["-1", "0", "inf", "1e-308"], _RF_SIGMA),
    ]
    for sigma in sigmas
] + [
    pytest.param([command, "--method", method, "--p", "4", "--b", "8"],
                 "block size 8 exceeds p = 4", id=f"{command}-{method}-p<b")
    for command in ("solve", "path", "costs")
    for method in ("nystrom", "rf")
] + [
    pytest.param(["compare", "--p", "16,2", "--b", "4"], "block size 4 exceeds p = 2",
                 id="compare-p<b"),
]


@pytest.mark.parametrize("argv, message", _SPEC_CASES)
def test_spec_and_p_checks_come_before_any_file_is_read(tmp_path, argv, message, capsys):
    # neither data file exists: each check must come before either is read
    out = tmp_path / "out"
    test = [] if argv[0] == "costs" else ["--test", str(tmp_path / "missing_test.csv")]
    code = main([*argv, "--train", str(tmp_path / "missing.csv"), *test,
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert message in err
    assert "cannot read data file" not in err
    assert not out.exists()


_RF_LINEAR = "rf features approximate the rbf kernel; --kernel linear applies to full and nystrom"


@pytest.mark.parametrize(
    "argv",
    [[command, "--method", "rf"] for command in ("solve", "path", "costs")] + [["compare"]],
    ids=["solve", "path", "costs", "compare"],
)
@pytest.mark.parametrize("as_key", [False, True], ids=["flag", "config-key"])
def test_linear_kernel_with_rf_exits_2_before_any_file_is_read(tmp_path, argv, as_key, capsys):
    # rf's features approximate the rbf kernel whatever --kernel says, so a
    # linear kernel would be ignored; compare always trains rf
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel = linear\n")
    kernel = ["--config", str(cfg)] if as_key else ["--kernel", "linear"]
    test = [] if argv[0] == "costs" else ["--test", str(tmp_path / "missing_test.csv")]
    code = main([*argv, *kernel, "--p", "8", "--b", "4",
                 "--train", str(tmp_path / "missing.csv"), *test, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert _RF_LINEAR in err
    assert "cannot read data file" not in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["full", "nystrom"])
def test_linear_kernel_trains_full_and_nystrom(tmp_path, blob_files, method, capsys):
    train, _ = blob_files
    sizes = ["--b", "8"] if method == "full" else ["--p", "8", "--b", "4"]
    code = main(["solve", "--method", method, "--kernel", "linear", *sizes,
                 "--train", train, "--epochs", "1", "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert load_model(tmp_path / "out" / "model.kbcd").kernel.family == "linear"


def test_compare_warns_of_each_cut_p_once(tmp_path, blob_files, capsys):
    train, test = blob_files
    code = main(["compare", "--train", train, "--test", test, "--p", "18,12",
                 "--b", "4", "--epochs", "2", "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert err.count("warning: truncating p") == 1
    assert "truncating p from 18 to 16" in err
    rows = read_csv(tmp_path / "out" / "compare.csv")[1:]
    assert [(row[0], row[1]) for row in rows] == [
        ("18", "nystrom"), ("18", "rf"), ("12", "nystrom"), ("12", "rf")
    ]


# the header of every CSV the commands write, and the columns holding text
_CSV_HEADERS = {
    "trace.csv": "epoch,block,seconds,objective,test_error",
    "trace_0_01.csv": "epoch,block,seconds,objective,test_error",
    "compare.csv": "p,method,test_error,epochs_run",
    "rates_curve.csv": "problem,t,empirical_mean_gap,improved_bound,classical_bound",
    "rates_verdicts.csv": "check,pass",
    "ledger.csv": "epoch,block,phase,flops,bytes,seconds",
    "costs_report.csv": "metric,value",
}
_TEXT_COLUMNS = {"method", "phase", "metric", "check"}
_BOOLEAN_METRICS = {"bytes_exact", "ok"}  # costs_report rows whose value is a boolean


@pytest.mark.parametrize(
    "command, name",
    [(command, name) for command, (_, names) in _WRITERS.items()
     for name in names if name.endswith(".csv")],
)
def test_csv_output_format(tmp_path, blob_files, command, name):
    out = tmp_path / "out"
    assert main(_write_failure_argv(command, blob_files, out)) in (EXIT_OK, EXIT_RATES)
    raw = (out / name).read_bytes()
    line_end = b"\n" if name.startswith("trace") else b"\r\n"
    lines = raw.split(line_end)
    assert lines.pop() == b""  # the file ends with a line end
    assert all(b"\r" not in line and b"\n" not in line for line in lines)
    header, *rows = [line.decode().split(",") for line in lines]
    assert ",".join(header) == _CSV_HEADERS[name]
    assert rows
    for row in rows:
        assert len(row) == len(header)
        for column, value in zip(header, row):
            boolean = column == "pass" or (
                column == "value" and row[0] in _BOOLEAN_METRICS
            )
            if boolean:
                assert value in ("true", "false")
            elif column not in _TEXT_COLUMNS:
                float(value)
