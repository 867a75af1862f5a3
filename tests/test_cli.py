"""Command-line interface: subcommands, exit codes, determinism."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfqmc import bench, cli, gp
from cfqmc.cli import main
from cfqmc.directions import DEFAULT_DIRECTIONS
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

    def test_metrics_beyond_the_fill_grid_usage_error(self, tmp_path, capsys):
        # at d = 7 the default fill grid, 17^7 points, exceeds the size
        # guard: refused before the points file is written
        base = ["points", "--seq", "halton", "--n", "16", "--metrics", "--out"]
        code, stdout, err = run_cli(capsys, *base, str(tmp_path / "d7.csv"), "--dim", "7")
        assert code == 1
        assert "error: --metrics supports --dim up to 6, got 7" in err.splitlines()
        assert "wrote" not in stdout and not (tmp_path / "d7.csv").exists()
        code, stdout, _ = run_cli(capsys, *base, str(tmp_path / "d6.csv"), "--dim", "6")
        assert code == 0 and "fill_resolution=16" in stdout

    def test_deterministic_given_flags(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["points", "--seq", "sobol", "--n", "32", "--dim", "3",
                "--scramble", "--shift-seed", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("seq", ["halton", "sobol", "lattice"])
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_no_points_usage_error(self, tmp_path, capsys, seq, n):
        # lattice used to raise ZeroDivisionError; halton and sobol wrote an
        # empty file
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "points", "--seq", seq, "--n", n, "--dim", "2", "--out", str(out))
        assert code == 1
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: --n must be >= 1, got {n}"
        ]
        assert not out.exists()

    def test_sobol_dim_beyond_direction_table_usage_error(self, tmp_path, capsys):
        # the built-in table covers d <= 8; a --directions table that covers
        # d = 9 serves it
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "points", "--seq", "sobol", "--n", "8", "--dim", "9", "--out", str(out))
        assert code == 1
        assert err.splitlines()[-1] == "error: --dim: direction table covers dimensions up to 8, requested dimension 9"
        assert not out.exists()
        table = tmp_path / "dirs.txt"
        rows = [f"{d} {s} {a} {' '.join(map(str, m))}\n" for d, (s, a, m) in DEFAULT_DIRECTIONS.entries.items()]
        table.write_text("".join(rows) + "9 5 4 1 1 5 5 5\n")
        code, _, _ = run_cli(
            capsys, "points", "--seq", "sobol", "--n", "8", "--dim", "9", "--directions", str(table), "--out", str(out)
        )
        assert code == 0
        assert read_points_csv(out).dim == 9

    @pytest.mark.parametrize("command", ["points", "wce"])
    def test_sobol_n_beyond_the_generator_names_n(self, tmp_path, capsys, command):
        # 2**32 points need 33 bits of a 32-bit generator; the flag at fault
        # is --n, not --dim
        argv = ["--seq", "sobol", "--n", str(2**32), "--dim", "2"]
        if command == "points":
            argv += ["--out", str(tmp_path / "x.csv")]
        code, stdout, err = run_cli(capsys, command, *argv)
        assert code == 1
        assert err.splitlines()[-1] == "error: --n must be below 2**32 for sobol points, got 4294967296"
        assert "wrote" not in stdout and "worst_case_error" not in stdout

    @pytest.mark.parametrize(
        "gen, dim", [("1,x", "2"), ("1,3", "3"), ("1.5,3", "2"), ("99999999999999999999,3", "2"), ("", "1")]
    )
    def test_malformed_gen_usage_error_naming_gen(self, tmp_path, capsys, gen, dim):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "points", "--seq", "lattice", "--n", "16", "--dim", dim, "--gen", gen, "--out", str(out)
        )
        assert code == 1
        assert err.splitlines()[-1] == f"error: --gen must be {dim} comma-separated 64-bit integers, got {gen!r}"
        assert not out.exists()

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

    @pytest.mark.parametrize("seq", ["halton", "lattice"])
    def test_no_points_usage_error(self, capsys, seq):
        code, _, err = run_cli(capsys, "wce", "--seq", seq, "--n", "0", "--dim", "2")
        assert code == 1
        assert "error: --n must be >= 1, got 0" in err.splitlines()

    def test_sobol_dim_beyond_direction_table_usage_error(self, capsys):
        code, stdout, err = run_cli(capsys, "wce", "--seq", "sobol", "--n", "16", "--dim", "9")
        assert code == 1
        assert err.splitlines()[-1] == "error: --dim: direction table covers dimensions up to 8, requested dimension 9"
        assert "worst_case_error" not in stdout

    def test_generating_flags_rejected_beside_input_file(self, tmp_path, capsys):
        # a file's points are taken as they are: a flag that only shapes
        # generated points would be echoed as if it applied
        path = tmp_path / "points.csv"
        assert main(["points", "--seq", "halton", "--n", "64", "--dim", "2", "--out", str(path)]) == 0
        capsys.readouterr()
        code, stdout, err = run_cli(
            capsys, "wce", "--in", str(path), "--fold", "--shift-seed", "3", "--scramble", "--n", "8", "--dim", "3",
            "--seq", "lattice",
        )
        assert code == 1
        named = "--seq, --n, --dim, --scramble, --shift-seed, --fold"
        assert f"error: --in reads points from {path}, so {named} cannot apply" in err.splitlines()
        assert "worst_case_error" not in stdout

    def test_config_echo_names_a_sequence_only_for_generated_points(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        assert main(["points", "--seq", "lattice", "--n", "16", "--dim", "2", "--out", str(path)]) == 0
        capsys.readouterr()
        code, stdout, _ = run_cli(capsys, "wce", "--in", str(path))
        assert code == 0
        assert stdout.startswith("config[wce]: ") and "seq=" not in stdout.splitlines()[0]
        code, stdout, _ = run_cli(capsys, "wce", "--n", "16", "--dim", "2")
        assert code == 0
        assert " seq=halton " in stdout.splitlines()[0]

    @pytest.mark.parametrize(
        "text", ["1,1,0.5\n", "dim,index,x1\n1,1,0.5\n1,2,half\n"], ids=["no-header", "non-numeric"]
    )
    def test_malformed_input_file_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, _, err = run_cli(capsys, "wce", "--in", str(path))
        assert code == 1
        assert "cannot use input file" in err

    def test_nan_in_input_file_usage_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("dim,index,x1,x2\n2,0,0.1,nan\n2,1,0.3,0.4\n")
        code, stdout, err = run_cli(capsys, "wce", "--in", str(path))
        assert code == 1
        assert err.splitlines()[-1] == (
            f"error: cannot use input file {path}: coordinates must lie in the closed unit cube"
        )
        assert "worst_case_error" not in stdout

    @pytest.mark.parametrize("command", ["points", "wce"])
    def test_negative_sobol_shift_seed_usage_error(self, tmp_path, capsys, command):
        # the digital shift's generator takes no negative seed: the error
        # names --shift-seed, and no file is written
        out = tmp_path / "p.csv"
        argv = [command, "--seq", "sobol", "--n", "4", "--dim", "2", "--scramble", "--shift-seed", "-1"]
        code, stdout, err = run_cli(capsys, *argv, *(["--out", str(out)] if command == "points" else []))
        assert code == 1
        assert err.splitlines()[-1] == "error: --shift-seed must be >= 0 for sobol --scramble, got -1"
        assert "wrote" not in stdout and "worst_case_error" not in stdout and not out.exists()

    @pytest.mark.parametrize("seq", ["halton", "lattice"])
    def test_negative_shift_seed_seeds_a_random_shift(self, tmp_path, capsys, seq):
        # a random shift's stream takes any integer seed
        out = tmp_path / "p.csv"
        code, _, _ = run_cli(capsys, "points", "--seq", seq, "--n", "4", "--dim", "2", "--shift-seed", "-1",
                             "--out", str(out))
        assert code == 0 and len(read_points_csv(out)) == 4
        code, stdout, _ = run_cli(capsys, "wce", "--seq", seq, "--n", "4", "--dim", "2", "--shift-seed", "-1")
        assert code == 0 and "worst_case_error = " in stdout


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

    @pytest.mark.parametrize("method", bench.METHODS)
    def test_one_estimate_step(self, capsys, monkeypatch, method):
        # the run's one integrand goes through the campaign's estimate step once
        calls = []
        estimate = bench.CellPoints.estimate

        def recording(cell, method, integrands, point_sets, spec):
            calls.append((method, len(integrands), len(point_sets)))
            return estimate(cell, method, integrands, point_sets, spec)

        monkeypatch.setattr(bench.CellPoints, "estimate", recording)
        code, _, _ = run_cli(
            capsys, "integrate", "--family", "gaussian", "--dim", "2",
            "--method", method, "--n", "64", "--seed", "1",
        )
        assert code == 0
        assert calls == [(method, 1, 1)]

    def test_budget_violation_exits_2(self, capsys, monkeypatch):
        # one evaluation beyond the split, spent before the estimate step
        # checks it, breaks the budget accounting
        cf_estimate = bench.cf_estimate

        def overspending(integrands, *rest):
            result = cf_estimate(integrands, *rest)
            integrands[0].eval_batch(np.full((1, integrands[0].dim), 0.5))
            return result

        monkeypatch.setattr(bench, "cf_estimate", overspending)
        code, _, err = run_cli(
            capsys, "integrate", "--family", "gaussian", "--dim", "1",
            "--method", "QMC+CF", "--n", "64", "--seed", "1",
        )
        assert code == 2
        assert "budget accounting violated: consumed 65, expected 64" in err

    @pytest.mark.parametrize("method", bench.METHODS)
    def test_sobol_dim_beyond_direction_table_usage_error(self, capsys, method):
        # only methods that draw sobol-dshift points need the direction table
        code, stdout, err = run_cli(
            capsys, "integrate", "--family", "gaussian", "--dim", "9", "--method", method,
            "--n", "64", "--seed", "1", "--sequence", "sobol-dshift",
        )
        if method in ("MC", "MC+CF"):
            assert code == 0
        else:
            assert code == 1
            assert err.splitlines()[-1] == (
                "error: --dim: sequence sobol-dshift has direction numbers for d <= 8 only, got d = 9"
            )
            assert "estimate=" not in stdout

    def test_removed_folded_method_exit_1(self, capsys):
        # the tent fold is the lattice-tent rule now, so argparse refuses the method
        code, stdout, err = run_cli(
            capsys, "integrate", "--family", "gaussian", "--dim", "1", "--method", "QMC+CF-folded",
            "--n", "64", "--seed", "1", "--sequence", "lattice",
        )
        assert code == 1
        assert "invalid choice: 'QMC+CF-folded'" in err
        assert "estimate=" not in stdout

    def test_corner_peak_beyond_its_dimension_names_dim(self, capsys):
        code, _, err = run_cli(
            capsys, "integrate", "--family", "corner_peak", "--dim", "7", "--method", "QMC", "--n", "64", "--seed", "1"
        )
        assert code == 1
        assert err.splitlines()[-1] == "error: --dim: family corner_peak has an exact integral for d <= 6 only, got d = 7"

    def test_sobol_n_beyond_generator_bits_usage_error(self, capsys):
        # QMC only: at this n the CF and MC methods allocate gigabytes first
        code, stdout, err = run_cli(
            capsys, "integrate", "--family", "gaussian", "--dim", "1", "--method", "QMC",
            "--n", str(2**32), "--seed", "1", "--sequence", "sobol-dshift",
        )
        assert code == 1
        assert err.splitlines()[-1] == "error: --n: requested N=4294967296 needs 33 bits but the generator provides 32"
        assert "estimate=" not in stdout

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

    @pytest.mark.parametrize(
        "config, message",
        [
            ("families = gaussian, corner_peak\ndims = 2, 7\nmethods = QMC\n",
             "family corner_peak has an exact integral for d <= 6 only, got d = 7"),
            ("sequence = sobol-dshift\ndims = 9\nmethods = QMC, QMC+CF\n",
             "sequence sobol-dshift has direction numbers for d <= 8 only, got d = 9"),
            ("difficulty = inf\n", "difficulty must be positive and finite, got inf"),
            ("difficulty = nan\n", "difficulty must be positive and finite, got nan"),
            ("assumed_alpha = nan\n", "assumed_alpha must be finite and exceed the rule smoothness 1, got nan"),
            ("assumed_alpha = inf\n", "assumed_alpha must be finite and exceed the rule smoothness 1, got inf"),
        ],
        ids=["corner-peak-d7", "sobol-dshift-d9", "difficulty-inf", "difficulty-nan", "alpha-nan", "alpha-inf"],
    )
    def test_config_beyond_a_limit_rejected_before_any_cell(self, tmp_path, capsys, monkeypatch, config, message):
        # a cell past genz's corner-sum limit or the direction table's
        # dimensions would fail mid-campaign, and a non-finite difficulty or
        # alpha would fail there or run degenerate cells; the config is
        # refused first
        built = []
        build = bench.random_genz
        monkeypatch.setattr(bench, "random_genz", lambda *a: built.append(a) or build(*a))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config + "n_grid = 16, 32\nreplicates = 2\n")
        out_dir = tmp_path / "results"
        code, _, err = run_cli(capsys, "bench", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 1
        assert f"error: {message}" in err.splitlines()
        assert built == []
        assert not out_dir.exists()

    def test_folded_method_names_the_tent_rule(self, tmp_path, capsys):
        # the tent fold moved from a CF method into the lattice-tent rule
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sequence = lattice\nmethods = QMC, QMC+CF-folded\nn_grid = 16, 32\nreplicates = 2\n")
        out_dir = tmp_path / "results"
        code, _, err = run_cli(capsys, "bench", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 1
        assert err.splitlines()[-1] == (
            "error: unknown method 'QMC+CF-folded'; expected one of ('MC', 'QMC', 'QMC+CF', 'MC+CF'); "
            "its tent fold is now a rule, sequence = lattice-tent"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("key", ["families", "dims", "methods", "k_values", "n_grid"])
    def test_empty_list_rejected_naming_key(self, tmp_path, capsys, key):
        # an empty list would run no cell and write a header-only CSV
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} =\nreplicates = 2\n" + ("n_grid = 16\n" if key != "n_grid" else ""))
        out_dir = tmp_path / "results"
        code, _, err = run_cli(capsys, "bench", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 1
        assert f"error: {key} is empty" in err
        assert not out_dir.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--config", str(tmp_path / "nope.cfg"), "--out-dir", str(tmp_path)
        )
        assert code == 1

    def test_unbuildable_replicate_tagged_alone(self, tmp_path, capsys):
        # at difficulty 1000 the discontinuous family's exact integral
        # exp(a u) overflows for replicates 0 and 2; those two are tagged in
        # every row of their (family, d), the others keep their estimates
        # and the gaussian cells read as in a campaign without the family
        grid = "dims = 1\nn_grid = 16, 32, 64, 128\nreplicates = 4\ndifficulty = 1000\n"
        lines = {}
        for name, families in (("both", "gaussian, discontinuous"), ("alone", "gaussian")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(f"families = {families}\n{grid}")
            code, _, err = run_cli(capsys, "bench", "--config", str(cfg), "--out-dir", str(tmp_path / name))
            assert code == 0, err
            lines[name] = (tmp_path / name / "campaign.csv").read_text().splitlines()
        rows, _ = bench.read_csv(tmp_path / "both" / "campaign.csv")
        broken = [row for row in rows if row.family == "discontinuous"]
        message = "exact integral for discontinuous came out non-finite"
        assert len(broken) == 2 * 4
        assert all(row.replicates == 2 and row.error == f"r0: {message}; r2: {message}" for row in broken)
        gaussian = [[line for line in lines[name] if line.startswith("gaussian,")] for name in ("both", "alone")]
        assert len(gaussian[0]) == 2 * 4 + 2  # rows and slopes
        assert gaussian[0] == gaussian[1]


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
        assert err.splitlines()[-1] == "error: unknown method 'WARP'; expected one of ('MC', 'QMC', 'QMC+CF', 'MC+CF')"

    def test_mc_methods_alone_run(self, tmp_path, capsys):
        out_dir = tmp_path / "gp"
        code, _, _ = run_cli(
            capsys, "gp", "--synthetic", "--n-test", "2", "--methods", "MC,MC+CF",
            "--budget", "64", "--seeds", "2", "--out-dir", str(out_dir),
        )
        assert code == 0
        pred = (out_dir / "predictions.csv").read_text().splitlines()
        assert sorted({line.split(",")[1] for line in pred[1:]}) == ["MC", "MC+CF"]
        assert len(pred) == 1 + 2 * 2 * 2

    @pytest.mark.parametrize("source, limit", [("synthetic", 100), ("data", 40)])
    def test_n_test_beyond_the_rows_usage_error(self, tmp_path, capsys, source, limit):
        # test points are drawn without replacement from the synthetic
        # inducing subset (100 rows) or the kept data rows (--n-train-cap)
        path = tmp_path / "data.csv"
        rows = np.random.default_rng(2).random((60, 4))
        path.write_text("".join(",".join(f"{v:.8f}" for v in row) + "\n" for row in rows))
        given = ["--synthetic"] if source == "synthetic" else ["--data", str(path), "--n-train-cap", "40"]
        out_dir = tmp_path / "gp"
        code, stdout, err = run_cli(
            capsys, "gp", *given, "--n-test", str(limit + 1), "--methods", "QMC",
            "--budget", "32", "--seeds", "2", "--out-dir", str(out_dir),
        )
        assert code == 1
        assert err.splitlines()[-1] == (
            f"error: --n-test must be <= {limit}, the rows test points are drawn from, got {limit + 1}"
        )
        assert "sd test_index" not in stdout
        assert not out_dir.exists()

    def test_n_subset_beyond_the_rows_usage_error(self, tmp_path, capsys):
        # the default --n-subset (100) exceeds the 50 rows --n-train-cap keeps
        path = tmp_path / "data.csv"
        rows = np.random.default_rng(2).random((60, 4))
        path.write_text("".join(",".join(f"{v:.8f}" for v in row) + "\n" for row in rows))
        out_dir = tmp_path / "gp"
        code, stdout, err = run_cli(
            capsys, "gp", "--data", str(path), "--n-train-cap", "50", "--n-test", "2",
            "--methods", "QMC", "--budget", "32", "--seeds", "2", "--out-dir", str(out_dir),
        )
        assert code == 1
        assert err.splitlines()[-1] == "error: --n-subset: a subset of 100 rows exceeds the 50 training rows"
        assert "sd test_index" not in stdout
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seeds", "1"], "--seeds must be >= 2"),
            (["--seeds", "0"], "--seeds must be >= 2"),
            (["--methods", "QMC,QMC"], "names a method twice"),
            (["--n-subset", "0"], "--n-subset must be >= 1"),
            (["--n-subset", "-5"], "--n-subset must be >= 1"),
        ],
    )
    def test_degenerate_study_usage_error(self, tmp_path, capsys, flags, message):
        # one seed has no spread and a repeated method duplicates every row;
        # the later of two equal flags wins
        out_dir = tmp_path / "gp"
        code, _, err = run_cli(
            capsys, "gp", "--synthetic", "--n-test", "2", "--methods", "QMC,QMC+CF",
            "--budget", "64", "--seeds", "2", "--out-dir", str(out_dir), *flags,
        )
        assert code == 1
        assert message in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("budget", ["31", "0", "-5"])
    @pytest.mark.parametrize("method", bench.METHODS)
    def test_budget_below_two_grids_usage_error(self, tmp_path, capsys, method, budget):
        # every method takes the 16-node split, so a budget under 32 is
        # refused before the study runs, whichever method is asked for
        out_dir = tmp_path / "gp"
        code, stdout, err = run_cli(
            capsys, "gp", "--synthetic", "--n-test", "2", "--methods", method,
            "--budget", budget, "--seeds", "2", "--out-dir", str(out_dir),
        )
        assert code == 1
        assert err.splitlines()[-1] == f"error: --budget must be >= 32, twice the surrogate's nodes, got {budget}"
        assert "sd test_index" not in stdout
        assert not out_dir.exists()

    @pytest.mark.parametrize("cap", ["0", "-1", "1"])
    def test_train_cap_below_two_usage_error(self, tmp_path, capsys, recwarn, cap):
        # standardization needs two rows; the cap is refused before the file is read
        rows = np.random.default_rng(0).normal(size=(50, 4))
        path = tmp_path / "data.csv"
        path.write_text("z1,z2,z3,y\n" + "".join(",".join(f"{v:.8f}" for v in row) + "\n" for row in rows))
        out_dir = tmp_path / "gp"
        code, _, err = run_cli(
            capsys, "gp", "--data", str(path), "--n-test", "2", "--budget", "64", "--seeds", "2",
            "--n-train-cap", cap, "--out-dir", str(out_dir),
        )
        assert code == 1
        assert f"error: --n-train-cap must be >= 2, got {cap}" in err.splitlines()
        assert "Warning" not in err
        assert not recwarn.list
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("row, column, cell", [(11, 0, "nan"), (21, 3, "inf")], ids=["covariate-nan", "response-inf"])
    def test_non_finite_data_cell_exit_2_naming_line(self, tmp_path, capsys, row, column, cell):
        # a NaN or infinite cell would run the study to NaN estimates and
        # spreads; it is refused by file and line, before any output
        lines = ["x1,x2,x3,y"] + [",".join(f"{v:.8f}" for v in r) for r in np.random.default_rng(1).random((60, 4))]
        fields = lines[row].split(",")
        fields[column] = cell
        lines[row] = ",".join(fields)
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "res"
        code, _, err = run_cli(
            capsys, "gp", "--data", str(path), "--n-test", "2", "--methods", "QMC,QMC+CF",
            "--budget", "64", "--seeds", "2", "--out-dir", str(out_dir),
        )
        assert code == 2
        assert f"error: {path}:{row + 1}: non-finite cell in row" in err.splitlines()
        assert not out_dir.exists()


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

    @pytest.mark.parametrize(
        "argv, content",
        [
            ("points --seq sobol --n 8 --dim 4 --directions {tmp}/in.txt --out {tmp}/p.csv",
             "2 1 0 1\n4 3 1 1 3 1\n"),
            ("points --seq sobol --n 8 --dim 3 --directions {tmp}/in.txt --out {tmp}/p.csv",
             "2 1 0 1\n3 2 7 1 3\n"),
            ("gp --synthetic --n-test 2 --budget 64 --seeds 0 --out-dir {tmp}/gp", ""),
            ("gp --synthetic --n-test 2 --budget 64 --seeds 1 --out-dir {tmp}/gp", ""),
            ("gp --synthetic --n-test 2 --budget 64 --methods QMC,QMC --out-dir {tmp}/gp", ""),
            ("wce --in {tmp}/in.txt", "dim,index,x1,x2\n3,0,0.1,0.2\n2,1,0.3,0.4\n"),
            ("bench --config {tmp}/in.txt --out-dir {tmp}/b",
             "families = gaussian, gaussian\nmethods = QMC, QMC\nreplicates = 2\n"),
            ("bench --config {tmp}/in.txt --out-dir {tmp}/b", "replicates = 2\nreplicates = 3\n"),
            ("gp --synthetic --n-test 0 --budget 64 --seeds 2 --out-dir {tmp}/gp", ""),
            ("points --seq halton --n 8 --dim 2 --gen 1,3 --out {tmp}/p.csv", ""),
            ("points --seq halton --n 8 --dim 2 --directions {tmp}/in.txt --out {tmp}/p.csv", ""),
            ("points --seq sobol --n 8 --dim 2 --gen 1,3 --out {tmp}/p.csv", ""),
            ("points --seq lattice --n 8 --dim 2 --directions {tmp}/in.txt --out {tmp}/p.csv", ""),
            ("points --seq lattice --n 0 --dim 2 --out {tmp}/p.csv", ""),
            ("points --seq halton --n 0 --dim 2 --out {tmp}/p.csv", ""),
            ("points --seq sobol --n -3 --dim 2 --out {tmp}/p.csv", ""),
            ("wce --seq lattice --n 0 --dim 2", ""),
            ("gp --synthetic --n-test 2 --budget 64 --seeds 2 --n-subset 0 --out-dir {tmp}/gp", ""),
            ("gp --synthetic --n-test 2 --budget 64 --seeds 2 --n-subset -5 --out-dir {tmp}/gp", ""),
            ("wce --in {tmp}/in.txt --fold", "dim,index,x1,x2\n2,0,0.1,0.2\n2,1,0.3,0.4\n"),
            ("wce --in {tmp}/in.txt --shift-seed 3", "dim,index,x1,x2\n2,0,0.1,0.2\n2,1,0.3,0.4\n"),
            ("wce --in {tmp}/in.txt --scramble", "dim,index,x1,x2\n2,0,0.1,0.2\n2,1,0.3,0.4\n"),
            ("wce --in {tmp}/in.txt --n 8", "dim,index,x1,x2\n2,0,0.1,0.2\n2,1,0.3,0.4\n"),
            ("wce --in {tmp}/in.txt --dim 3", "dim,index,x1,x2\n2,0,0.1,0.2\n2,1,0.3,0.4\n"),
            ("wce --in {tmp}/in.txt --seq lattice", "dim,index,x1,x2\n2,0,0.1,0.2\n2,1,0.3,0.4\n"),
        ],
        ids=["direction-gap", "direction-coefficient", "gp-no-seeds", "gp-one-seed",
             "gp-repeated-method", "wce-mixed-dim", "config-repeated-entries",
             "config-repeated-key", "gp-no-test-points", "halton-gen", "halton-directions",
             "sobol-gen", "lattice-directions", "lattice-no-points", "halton-no-points",
             "sobol-negative-points", "wce-lattice-no-points", "gp-no-subset",
             "gp-negative-subset", "wce-in-fold", "wce-in-shift-seed",
             "wce-in-scramble", "wce-in-n", "wce-in-dim", "wce-in-seq"],
    )
    def test_malformed_input_reported_not_raised(self, tmp_path, capsys, argv, content):
        # parseable arguments whose content is wrong: a contract exit code
        # and an error line, never a traceback
        (tmp_path / "in.txt").write_text(content)
        code, _, err = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv.split()))
        assert code in (1, 2)
        assert any(line.startswith("error: ") for line in err.splitlines())
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, owner, name, exc, message",
        [
            ("integrate --family gaussian --dim 1 --method MC --n 64 --seed 0", bench, "uniform_random",
             MemoryError("Unable to allocate 8.00 TiB for an array"), "Unable to allocate 8.00 TiB for an array"),
            ("gp --synthetic --n-test 2 --budget 64 --seeds 2 --out-dir {tmp}/gp", gp, "run_prediction_study",
             MemoryError(), "MemoryError"),
        ],
        ids=["integrate", "gp"],
    )
    def test_memory_error_exit_2(self, tmp_path, capsys, monkeypatch, argv, owner, name, exc, message):
        # an allocation the machine cannot make is a runtime error, reported
        # in one line; the call that would allocate raises in its place
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(owner, name, fail)
        code, _, err = run_cli(capsys, *argv.format(tmp=tmp_path).split())
        assert code == 2
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("integrate --k 5", "--k"),
            ("integrate --dim 0", "--dim"),
            ("integrate --support 0", "--support"),
            ("integrate --difficulty -1", "--difficulty"),
            ("integrate --difficulty inf", "--difficulty"),
            ("integrate --n 3", "--n"),
            ("wce --n 16 --dim 2 --kernel-k 5", "--kernel-k"),
            ("wce --n 16 --dim 2 --support 1.5", "--support"),
            ("points --seq halton --n 8 --dim 0 --out {tmp}/p.csv", "--dim"),
        ],
    )
    def test_out_of_range_value_usage_error_naming_flag(self, tmp_path, capsys, argv, flag):
        # a value outside the limits of the code that reads it is a usage
        # error, not a runtime one
        if argv.startswith("integrate"):
            defaults = {"--family": "gaussian", "--dim": "1", "--method": "QMC+CF", "--n": "64", "--seed": "0"}
            argv += "".join(f" {name} {value}" for name, value in defaults.items() if name not in argv.split())
        code, stdout, err = run_cli(capsys, *argv.format(tmp=tmp_path).split())
        assert code == 1
        assert flag in err.splitlines()[-1]
        assert "estimate=" not in stdout and "worst_case_error" not in stdout
