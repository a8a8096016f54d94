import csv
import subprocess
import sys

import numpy as np
import pytest

from kernelbcd.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    epochs_to_tolerance,
    main,
)
from kernelbcd.kernels import Dataset, FeatureMapSpec, gaussian_blobs
from kernelbcd.solvers import load_model, make_plan, solve_rf


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
        assert rows[0] == ["p", "method", "test_error", "epochs_to_tolerance"]
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


def test_epochs_to_tolerance_helper():
    # improvement first stalls entering epoch 4 (1-based)
    objs = np.array([10.0, 5.0, 4.0, 3.9999999, 3.9999998])
    assert epochs_to_tolerance(objs, 1e-6) == 4
    # never stalls: report the epoch count itself
    assert epochs_to_tolerance(np.array([5.0, 1.0]), 1e-9) == 2


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kernelbcd.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout


def test_path_zero_epochs_reports_nan(tmp_path, blob_files, capsys):
    train, _ = blob_files
    out = tmp_path / "out"
    code = main(
        [
            "path", "--train", train, "--method", "rf", "--p", "16", "--b", "4",
            "--lambda", "1e-3", "--lambda", "1e-2", "--epochs", "0",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "lambda 0.001: objective nan" in printed
    assert "lambda 0.01: objective nan" in printed
    assert len(list(out.glob("model_*.kbcd"))) == 2


@pytest.mark.parametrize("command", ["compare", "costs"])
def test_single_lambda_commands_reject_several(tmp_path, blob_files, command):
    train, test = blob_files
    out = tmp_path / "out"
    code = main(
        [
            command, "--train", train, "--test", test, "--method", "rf",
            "--p", "16", "--b", "4", "--lambda", "1e-3", "--lambda", "1e-2",
            "--out", str(out),
        ]
    )
    assert code == EXIT_CONFIG
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


@pytest.mark.parametrize("flags", [[], ["--dim", "4", "--b", "5"]])
def test_rates_check_rejects_block_beyond_dim(tmp_path, flags, capsys):
    # the defaults (--b 64, --dim 32) are such a case
    out = tmp_path / "out"
    code = main(["rates-check", "--out", str(out)] + flags)
    assert code == EXIT_CONFIG
    assert "--b must lie in [1, --dim" in capsys.readouterr().err
    assert not out.exists()
