"""Command-line interface: subcommands, exit codes, determinism."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfqmc import cli, gp
from cfqmc.cli import main
from cfqmc.points import read_points_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPointsCommand:
    def test_halton_csv(self, tmp_path, capsys):
        out = tmp_path / "pts.csv"
        code, stdout, _ = run_cli(
            capsys, "points", "--seq", "halton", "--n", "8", "--dim", "2", "--out", str(out)
        )
        assert code == 0
        assert stdout.startswith("config[points]:")
        ps = read_points_csv(out)
        assert len(ps) == 8
        assert ps.dim == 2

    def test_fold_applies_after_shift(self, tmp_path, capsys):
        folded = tmp_path / "folded.csv"
        shifted = tmp_path / "shifted.csv"
        base_args = ["points", "--seq", "lattice", "--n", "8", "--dim", "1",
                     "--gen", "1", "--shift-seed", "3"]
        assert main(base_args + ["--fold", "--out", str(folded)]) == 0
        assert main(base_args + ["--out", str(shifted)]) == 0
        capsys.readouterr()
        shifted_pts = read_points_csv(shifted).points
        folded_pts = read_points_csv(folded).points
        np.testing.assert_allclose(folded_pts, 1.0 - np.abs(2.0 * shifted_pts - 1.0))

    def test_missing_n_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "points", "--seq", "halton", "--dim", "1", "--out", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert "--n" in err

    def test_metrics_printed(self, tmp_path, capsys):
        code, stdout, _ = run_cli(
            capsys, "points", "--seq", "halton", "--n", "16", "--dim", "1",
            "--metrics", "--out", str(tmp_path / "m.csv"),
        )
        assert code == 0
        assert "fill_distance=" in stdout
        assert "mesh_ratio=" in stdout

    def test_deterministic_given_flags(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["points", "--seq", "sobol", "--n", "32", "--dim", "3",
                "--scramble", "--shift-seed", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_lattice_scramble_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "points", "--seq", "lattice", "--n", "8", "--dim", "1",
            "--scramble", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1


class TestWceCommand:
    def test_single_point_file_value(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("dim,index,x1\n1,1,0.5\n")
        code, stdout, _ = run_cli(capsys, "wce", "--in", str(path), "--kernel-k", "0")
        assert code == 0
        printed = float(stdout.strip().splitlines()[-1].split("=")[1])
        assert printed == pytest.approx(math.sqrt(1.0 / 6.0), abs=1e-12)

    def test_more_points_smaller_error(self, capsys):
        values = []
        for n in ("4", "10"):
            code, stdout, _ = run_cli(
                capsys, "wce", "--seq", "halton", "--n", n, "--dim", "2", "--kernel-k", "1"
            )
            assert code == 0
            values.append(float(stdout.strip().splitlines()[-1].split("=")[1]))
        assert values[1] < values[0]

    def test_empty_input_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("dim,index,x1\n")
        code, _, err = run_cli(capsys, "wce", "--in", str(path))
        assert code == 1

    def test_missing_inputs_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "wce")
        assert code == 1

    @pytest.mark.parametrize(
        "text", ["1,1,0.5\n", "dim,index,x1\n1,1,0.5\n1,2,half\n"], ids=["no-header", "non-numeric"]
    )
    def test_malformed_input_file_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, _, err = run_cli(capsys, "wce", "--in", str(path))
        assert code == 1
        assert "cannot use input file" in err


class TestIntegrateCommand:
    def test_constant_family_exact_for_qmc(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "integrate", "--family", "constant", "--dim", "1",
            "--method", "QMC", "--n", "32", "--seed", "4",
        )
        assert code == 0
        line = stdout.strip().splitlines()[-1]
        assert "abs_error=0 " in line
        assert "M_nodes=0" in line

    def test_plain_qmc_reports_zero_nodes(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "integrate", "--family", "gaussian", "--dim", "2",
            "--method", "QMC", "--n", "64", "--seed", "1",
        )
        assert code == 0
        assert "M_nodes=0" in stdout

    def test_cf_reports_grid_nodes(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "integrate", "--family", "gaussian", "--dim", "1",
            "--method", "QMC+CF", "--n", "64", "--k", "1", "--seed", "1",
        )
        assert code == 0
        assert "M_nodes=32" in stdout

    def test_same_flags_same_output(self, capsys):
        args = ["integrate", "--family", "continuous", "--dim", "2",
                "--method", "QMC+CF", "--n", "128", "--seed", "17"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_report_csv_written(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code, _, _ = run_cli(
            capsys, "integrate", "--family", "gaussian", "--dim", "1",
            "--method", "MC", "--n", "32", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,estimate,exact,abs_error,N_total,M_nodes,seed"
        assert lines[1].startswith("MC,")


class TestBenchCommand:
    CONFIG = (
        "families = gaussian\n"
        "dims = 1\n"
        "methods = QMC, QMC+CF\n"
        "n_grid = 16, 32\n"
        "replicates = 2\n"
        "seed_base = 3\n"
    )

    def test_runs_and_emits_files(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(self.CONFIG)
        out_dir = tmp_path / "results"
        code, stdout, _ = run_cli(capsys, "bench", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 0
        assert (out_dir / "campaign.csv").exists()
        assert (out_dir / "campaign.svg").exists()
        assert "config[bench]:" in stdout

    def test_identical_rerun_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(self.CONFIG)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["bench", "--config", str(cfg), "--out-dir", str(d1)]) == 0
        assert main(["bench", "--config", str(cfg), "--out-dir", str(d2)]) == 0
        capsys.readouterr()
        assert (d1 / "campaign.csv").read_bytes() == (d2 / "campaign.csv").read_bytes()
        assert (d1 / "campaign.svg").read_bytes() == (d2 / "campaign.svg").read_bytes()

    def test_bad_config_key_exit_1_naming_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("families = gaussian\nwidget_count = 7\n")
        code, _, err = run_cli(capsys, "bench", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 1
        assert "widget_count" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--config", str(tmp_path / "nope.cfg"), "--out-dir", str(tmp_path)
        )
        assert code == 1


class TestGpCommand:
    def test_synthetic_study_runs(self, tmp_path, capsys):
        out_dir = tmp_path / "gp"
        code, stdout, _ = run_cli(
            capsys, "gp", "--synthetic", "--n-test", "2", "--methods", "QMC,QMC+CF",
            "--budget", "64", "--seeds", "2", "--out-dir", str(out_dir),
        )
        assert code == 0
        pred = (out_dir / "predictions.csv").read_text().splitlines()
        assert pred[0] == "test_index,method,N,seed,estimate"
        assert len(pred) == 1 + 2 * 2 * 2
        sd = (out_dir / "prediction_sd.csv").read_text().splitlines()
        assert sd[0] == "test_index,method,sd_over_seeds"

    def test_unknown_method_exit_1(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "gp", "--synthetic", "--methods", "QMC,WARP", "--out-dir", str(tmp_path)
        )
        assert code == 1
        assert "WARP" in err

    def test_unfactorizable_draw_stops_study_naming_theta(self, tmp_path, capsys, monkeypatch):
        # With an empty ladder the first draw exhausts it: the study stops
        # there (no skipped replicate, no NaN) with the runtime-error code
        # and the draw's theta on stderr.
        predict = gp._SorSolver.predict
        drawn = []

        def recording(solver, theta1, theta2):
            drawn.append((theta1, theta2))
            return predict(solver, theta1, theta2)

        monkeypatch.setattr(gp, "_SOR_LADDER", ())
        monkeypatch.setattr(gp._SorSolver, "predict", recording)
        out_dir = tmp_path / "gp"
        code, _, err = run_cli(
            capsys, "gp", "--synthetic", "--n-test", "2", "--methods", "QMC,QMC+CF",
            "--budget", "64", "--seeds", "2", "--out-dir", str(out_dir),
        )
        assert code == 2
        assert len(drawn) == 1
        theta1, theta2 = drawn[0]
        assert f"theta=({theta1:.4g}, {theta2:.4g})" in err
        assert not (out_dir / "predictions.csv").exists()

    def test_data_file_route(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(60, 4))
        y = rows[:, 0] + 0.1 * rng.normal(size=60)
        path = tmp_path / "data.csv"
        with open(path, "w") as fh:
            for row, yi in zip(rows, y):
                fh.write(",".join(f"{v:.8f}" for v in row) + f",{yi:.8f}\n")
        out_dir = tmp_path / "res"
        code, _, _ = run_cli(
            capsys, "gp", "--data", str(path), "--n-test", "2", "--methods", "QMC",
            "--budget", "64", "--seeds", "2", "--n-train-cap", "40",
            "--n-subset", "20", "--out-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "predictions.csv").exists()


class TestImports:
    # only gp and geometry need scipy; they import it when called

    @staticmethod
    def scipy_after(code):
        """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = code + "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()[-1]

    def test_cli_import_loads_no_scipy(self):
        assert self.scipy_after("import cfqmc.cli") == "[]"

    def test_cf_integrate_loads_no_scipy(self):
        code = "\n".join(
            f"assert main(['integrate', '--family', 'gaussian', '--dim', '{d}', '--method', 'QMC+CF', "
            f"'--n', '64', '--seed', '1']) == 0"
            for d in (1, 2)
        )
        assert self.scipy_after("from cfqmc.cli import main\n" + code) == "[]"


class TestExitCodeContract:
    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_runtime_error_exit_2(self, tmp_path, capsys):
        # unreadable output directory -> runtime error, not usage
        target = tmp_path / "file"
        target.write_text("x")
        code, _, err = run_cli(
            capsys, "points", "--seq", "halton", "--n", "4", "--dim", "1",
            "--out", str(target / "impossible.csv"),
        )
        assert code == 2
