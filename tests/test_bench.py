"""Campaign harness: slope fitting, config round trips, CSV/SVG emission."""

import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from cfqmc import bench, cli, estimators, interpolate, points
from cfqmc.bench import (
    CampaignConfig,
    ConvergenceTable,
    Row,
    SlopeFit,
    emit_csv,
    fit_slope,
    format_config,
    parse_config,
    read_csv,
    run_campaign,
)
from cfqmc.directions import DEFAULT_DIRECTIONS
from cfqmc.genz import as_integrand, make_genz, random_genz
from cfqmc.kernels import KernelSpec, kernel_integral
from cfqmc.plotting import emit_svg
from cfqmc.seeding import rng_for, seed_for


def small_config(**overrides):
    base = dict(
        families=("gaussian",),
        dims=(1,),
        methods=("QMC", "QMC+CF"),
        sequence="halton-rr-shift",
        k_values=(1,),
        n_grid=(16, 32, 64, 128),
        replicates=3,
        seed_base=11,
    )
    base.update(overrides)
    return CampaignConfig(**base)


class TestFitSlope:
    def test_exact_power_law_minus_one(self):
        pts = [(n, 0.5 * n**-1.0) for n in (16, 32, 64)]
        slope, intercept, resid = fit_slope(pts)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_exact_power_law_minus_two(self):
        pts = [(n, 3.0 * n**-2.0) for n in (16, 32, 64, 128)]
        slope, _, _ = fit_slope(pts)
        assert slope == pytest.approx(-2.0, abs=1e-12)

    def test_constant_rmse_gives_zero_slope(self):
        slope, _, _ = fit_slope([(16, 0.25), (32, 0.25), (64, 0.25)])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_zero_rmse_points_excluded_with_flag(self):
        with pytest.warns(RuntimeWarning, match="excluded"):
            slope, _, _ = fit_slope([(16, 0.5), (32, 0.25), (64, 0.0)])
        assert slope == pytest.approx(-1.0, abs=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_slope([(16, 0.5)])


class TestConfigFile:
    def test_round_trip(self):
        cfg = small_config(assumed_alpha=2.0, difficulty=5.5)
        assert parse_config(format_config(cfg)) == cfg

    def test_readme_example_echo(self):
        # A literal, so that parse and echo cannot drift together unnoticed.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = re.search(r"```\n(families = .*?)```", readme, re.S).group(1)
        assert format_config(parse_config(example)) == (
            "families = gaussian, oscillatory, continuous, discontinuous\n"
            "dims = 1, 2\n"
            "methods = QMC, QMC+CF\n"
            "sequence = halton-rr-shift\n"
            "k_values = 1\n"
            "support_radius = 1\n"
            "n_grid = 16, 32, 64, 128, 256, 512, 1024, 2048, 4096\n"
            "replicates = 10\n"
            "assumed_alpha = none\n"
            "seed_base = 0\n"
            "difficulty = 7\n"
        )

    def test_float_echo_keeps_every_digit(self):
        text = format_config(small_config(support_radius=0.7, assumed_alpha=2.5, difficulty=5.5))
        assert "support_radius = 0.69999999999999996\n" in text
        assert "assumed_alpha = 2.5\n" in text
        assert "difficulty = 5.5\n" in text

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ValueError, match="warp_factor"):
            parse_config("warp_factor = 9")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("dims = 1, x", "invalid literal for int.*'x'"),
            ("replicates = 4.0", "invalid literal for int.*'4.0'"),
            ("support_radius = wide", "could not convert string to float: 'wide'"),
            ("assumed_alpha = 2.5.1", "could not convert string to float"),
            ("families = gaussian\nfamilies gaussian", "config line 2: expected 'key = value'"),
            ("replicates = ten", "config line 1: bad value for 'replicates'.*'ten'"),
            ("families = gaussian\n\ndims = 1, x", "config line 3: bad value for 'dims'"),
            ("replicates = 2\nfamilies = gaussian\nreplicates = 3",
             "config line 3: repeated config key 'replicates'"),
            ("families = gaussian, oscillatory, gaussian", "families repeats an entry"),
            ("dims = 1, 1", "dims repeats an entry"),
            ("methods = QMC, QMC", "methods repeats an entry"),
            ("k_values = 0, 1, 0", "k_values repeats an entry"),
            ("n_grid = 16, 32, 16", "n_grid repeats an entry"),
        ],
    )
    def test_malformed_value_or_line_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_config(text)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nfamilies = gaussian\nreplicates = 4 # trailing\n")
        assert cfg.families == ("gaussian",)
        assert cfg.replicates == 4

    def test_list_values(self):
        cfg = parse_config("n_grid = 16, 32, 64\ndims = 1, 2\nmethods = QMC, MC\n")
        assert cfg.n_grid == (16, 32, 64)
        assert cfg.dims == (1, 2)
        assert cfg.methods == ("QMC", "MC")

    def test_assumed_alpha_none(self):
        assert parse_config("assumed_alpha = none").assumed_alpha is None

    def test_defaults_applied(self):
        cfg = parse_config("")
        assert cfg.sequence == "halton-rr-shift"
        assert cfg.replicates == 10


class TestConfigValidation:
    def test_non_pow2_grid_rejected(self):
        with pytest.raises(ValueError, match="powers of two"):
            small_config(n_grid=(16, 48))

    def test_single_replicate_rejected(self):
        with pytest.raises(ValueError, match="replicates"):
            small_config(replicates=1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            small_config(methods=("QMC", "QMC+magic"))

    def test_unknown_sequence_rejected(self):
        with pytest.raises(ValueError, match="unknown sequence"):
            small_config(sequence="niederreiter")

    def test_direction_table_limits_only_methods_that_draw_the_sequence(self):
        # any method but MC draws sobol-dshift points, so a CF one is
        # refused past the table; MC methods alone still run
        with pytest.raises(ValueError, match="sequence sobol-dshift .* got d = 9$"):
            small_config(sequence="sobol-dshift", dims=(2, 9), methods=("MC", "QMC+CF"))
        cfg = small_config(sequence="sobol-dshift", dims=(9,), methods=("MC", "MC+CF"), n_grid=(16,), replicates=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rows = run_campaign(cfg).rows
        assert [(row.method, row.replicates, row.error) for row in rows] == [("MC", 2, ""), ("MC+CF", 2, "")]

    def test_node_fraction_from_assumed_alpha(self):
        assert small_config(assumed_alpha=2.0).node_fraction == 0.5
        assert small_config(assumed_alpha=3.0).node_fraction == pytest.approx(2 / 3)
        assert small_config().node_fraction == 0.5


class TestRunCampaign:
    def test_constant_family_has_zero_qmc_rmse(self):
        cfg = small_config(families=("constant",), methods=("QMC",), n_grid=(16,), replicates=2)
        table = run_campaign(cfg)
        assert len(table.rows) == 1
        assert table.rows[0].rmse == 0.0
        assert table.rows[0].mean_error == 0.0

    def test_row_count_is_cells_times_grid(self):
        cfg = small_config(families=("gaussian", "continuous"), dims=(1, 2), n_grid=(16, 32))
        table = run_campaign(cfg)
        assert len(table.rows) == 2 * 2 * 1 * 2 * 2  # families x dims x k x methods x N

    def test_rmse_dominates_mean_error(self):
        table = run_campaign(small_config())
        for row in table.rows:
            assert row.rmse >= abs(row.mean_error) - 1e-15

    def test_equal_budget_across_methods(self):
        cfg = small_config(dims=(2,), methods=("MC", "QMC", "QMC+CF", "MC+CF"), n_grid=(64,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            table = run_campaign(cfg)
        totals = {row.method: row.n_total for row in table.rows}
        assert len(set(totals.values())) == 1  # one shared consumed budget
        assert totals["QMC"] == 57  # 25 grid nodes + 32 eval points

    def test_paired_randomization_log(self, monkeypatch):
        # Replicate r's QMC and QMC+CF points take the same shift, and two
        # replicates different ones, whatever order the methods run in.
        original = bench.random_shift
        shifts = {}  # points shifted -> shifts in replicate order

        def recording(ps, shift):
            shifts.setdefault(len(ps), []).append(tuple(shift))
            return original(ps, shift)

        monkeypatch.setattr(bench, "random_shift", recording)
        cfg = small_config(n_grid=(32,), replicates=2)
        run_campaign(cfg)
        split = bench.split_budget(32, cfg.node_fraction)
        qmc, cf = shifts.pop(split.consumed), shifts.pop(split.n_eval)
        assert not shifts
        assert qmc == cf
        assert len(qmc) == 2 and qmc[0] != qmc[1]

    def test_replicate_pooling_consistency(self):
        # recompute pooled rmse from per-replicate errors derived via mean/rmse
        cfg = small_config(replicates=2, n_grid=(16,), methods=("QMC",))
        table = run_campaign(cfg)
        row = table.rows[0]
        # with R = 2: errors e1, e2 satisfy e1+e2 = 2*mean, e1^2+e2^2 = 2*rmse^2
        disc = 2.0 * row.rmse**2 - 2.0 * row.mean_error**2
        assert disc >= -1e-15
        e1 = row.mean_error + math.sqrt(max(disc, 0.0) / 2.0)
        e2 = row.mean_error - math.sqrt(max(disc, 0.0) / 2.0)
        pooled = math.sqrt((e1**2 + e2**2) / 2.0)
        assert pooled == pytest.approx(row.rmse, abs=1e-12)

    def test_sobol_sequence_runs(self):
        cfg = small_config(sequence="sobol-dshift", n_grid=(16, 32), replicates=2)
        table = run_campaign(cfg)
        assert all(math.isfinite(r.rmse) for r in table.rows)

    def test_lattice_tent_runs(self):
        cfg = small_config(
            sequence="lattice-tent",
            methods=("QMC", "QMC+CF"),
            n_grid=(32, 64),
            replicates=2,
        )
        table = run_campaign(cfg)
        assert all(math.isfinite(r.rmse) for r in table.rows)
        cf_rows = [r for r in table.rows if r.method == "QMC+CF"]
        assert all(r.m_nodes > 0 for r in cf_rows)

    def test_instances_built_once_per_family_dim_replicate(self, monkeypatch):
        # an instance's seed holds no k or N, so every (k, N) of a (family, d)
        # reuses its replicates' instances
        calls = []
        build = bench.random_genz
        monkeypatch.setattr(bench, "random_genz", lambda *a: calls.append(a[:3]) or build(*a))
        cfg = small_config(
            families=("gaussian", "oscillatory"), dims=(1, 2), k_values=(0, 1), n_grid=(16, 32), replicates=3
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_campaign(cfg)
        assert len(calls) == len(set(calls)) == 2 * 2 * 3

    def test_moment_tables_built_once_per_cf_fit(self, monkeypatch):
        # each fit is evaluated once, by the cf_estimate that made it, so
        # forming the d = 1 tables per evaluate forms them once per fit
        fits, tables = [], []
        fit, build = estimators.fit, interpolate._axis_moments
        monkeypatch.setattr(estimators, "fit", lambda *a: fits.append(a) or fit(*a))
        monkeypatch.setattr(interpolate, "_axis_moments", lambda *a: tables.append(a) or build(*a))
        run_campaign(small_config(methods=("QMC", "QMC+CF", "MC+CF"), k_values=(0, 2), support_radius=0.5))
        assert len(fits) == 2 * 2 * 4  # CF methods x k values x N
        assert len(tables) == len(fits)

    def test_mc_cf_method_runs(self):
        cfg = small_config(methods=("MC+CF",), n_grid=(32,), replicates=2)
        table = run_campaign(cfg)
        assert all(math.isfinite(r.rmse) for r in table.rows)


class BrokenInstance:
    """A replicate's instance that raises on every evaluation."""

    def __init__(self, inst):
        self.dim, self.exact = inst.dim, inst.exact

    def __call__(self, x):
        raise FloatingPointError("instance blew up")


class HoleyInstance:
    """A replicate's instance that reads NaN at the first node of an m-grid."""

    def __init__(self, inst, m):
        self.inst, self.dim, self.exact = inst, inst.dim, inst.exact
        self.hole = 0.5 / m

    def __call__(self, x):
        out = self.inst(x)
        out[np.all(x == self.hole, axis=1)] = np.nan
        return out


class TestReplicateFailures:
    # One replicate's instance is replaced; the other replicates' estimates
    # must be the floats of the campaign without it.
    def run(self, monkeypatch, spoil=None):
        cfg = small_config(dims=(1, 2), methods=("QMC", "QMC+CF"), n_grid=(64,), replicates=4)
        bad = {seed_for(cfg.seed_base, "instance", "gaussian", d, 2) for d in cfg.dims}
        build, estimate = random_genz, bench.CellPoints.estimate
        estimates = []
        monkeypatch.setattr(
            bench, "random_genz", lambda *a: spoil(build(*a)) if spoil and a[2] in bad else build(*a)
        )
        monkeypatch.setattr(bench.CellPoints, "estimate", lambda *a: estimates.append(estimate(*a)) or estimates[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            table = run_campaign(cfg)
        return table.rows, estimates

    def test_raising_replicate_tagged_alone(self, monkeypatch):
        clean_rows, clean = self.run(monkeypatch)
        rows, spoiled = self.run(monkeypatch, BrokenInstance)
        assert all(row.replicates == 4 and not row.error for row in clean_rows)
        for row in rows:
            assert row.replicates == 3
            assert row.error == "r2: instance blew up"
        for got, want in zip(spoiled, clean):
            assert np.isnan(got[2])
            assert np.array_equal(np.delete(got, 2), np.delete(want, 2))

    def test_non_finite_node_value_tagged_alone(self, monkeypatch):
        _, clean = self.run(monkeypatch)
        # the 64-point budget puts 32 nodes at d = 1 and 25 at d = 2
        m = {1: 32, 2: 5}
        rows, spoiled = self.run(monkeypatch, lambda inst: HoleyInstance(inst, m[inst.dim]))
        for row in rows:
            if row.method == "QMC":
                assert row.replicates == 4 and not row.error
            else:
                assert row.replicates == 3
                assert row.error == "r2: non-finite estimate nan"
        for got, want in zip(spoiled, clean):
            assert np.array_equal(np.delete(got, 2), np.delete(want, 2))


class TestEstimateStep:
    def test_campaign_runs_each_method_once_per_cell(self, monkeypatch):
        # every replicate of a (cell, method) goes through one step
        calls = []
        estimate = bench.CellPoints.estimate

        def recording(cell, method, integrands, point_sets, spec):
            calls.append((spec.dim, spec.k, cell.split.consumed, method, len(integrands), len(point_sets)))
            return estimate(cell, method, integrands, point_sets, spec)

        monkeypatch.setattr(bench.CellPoints, "estimate", recording)
        cfg = small_config(dims=(1, 2), methods=bench.METHODS, k_values=(0, 1), n_grid=(16, 32), replicates=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_campaign(cfg)
        want = [
            (d, k, bench.split_budget(n, cfg.node_fraction, dim=d).consumed, method, 3, 3)
            for d in cfg.dims
            for k in cfg.k_values
            for n in cfg.n_grid
            for method in cfg.methods
        ]
        assert calls == want

    @pytest.mark.parametrize("method", bench.METHODS)
    def test_one_evaluation_too_many_raises(self, method):
        split = bench.split_budget(64, 0.5, dim=2)
        cell = bench.CellPoints("halton-rr-shift", split, 2)
        inst = random_genz("gaussian", 2, 4)
        integrands = [as_integrand(inst), as_integrand(inst)]
        integrands[1].eval_batch(np.full((1, 2), 0.5))  # spent before the method runs
        point_sets = [cell.points(method, np.full(2, 0.25), None, 5)] * 2
        message = f"budget accounting violated: consumed {split.consumed + 1}, expected {split.consumed}"
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            cell.estimate(method, integrands, point_sets, KernelSpec(1, 2))
        assert integrands[0].eval_count == split.consumed

    @pytest.mark.parametrize("method", ["QMC", "QMC+CF"])
    def test_campaign_violation_tags_every_replicate(self, monkeypatch, method):
        # a violation raises inside the method's step, so each of its
        # replicates carries the message and the other method is untouched
        def overspend(integrands):
            for f in integrands:
                f.eval_batch(np.full((1, f.dim), 0.5))

        if method in bench.CF_METHODS:
            cf = bench.cf_estimate
            monkeypatch.setattr(bench, "cf_estimate", lambda fs, *rest: (cf(fs, *rest), overspend(fs))[0])
        else:
            qmc = bench.qmc_estimate
            monkeypatch.setattr(bench, "qmc_estimate", lambda f, ps: (qmc(f, ps), overspend([f]))[0])
        cfg = small_config(methods=("QMC", "QMC+CF"), n_grid=(64,), replicates=3)
        rows = run_campaign(cfg).rows
        message = "budget accounting violated: consumed 65, expected 64"
        for row in rows:
            if row.method == method:
                assert row.replicates == 0
                assert row.error == "; ".join(f"r{r}: {message}" for r in range(3))
            else:
                assert row.replicates == 3 and not row.error


def fresh_points(method, spec, split, sequence, delta, dshift_seed, mc_seed):
    """The reference for one replicate's point set, generated afresh."""
    d = spec.dim

    def plain(n):
        if sequence == "halton-rr-shift":
            return points.halton(n, d, scramble=True)
        if sequence == "sobol-dshift":
            return points.sobol(n, d)
        return points.lattice(n, d, points.korobov_vector(n, d))

    def randomized(n):
        if sequence == "sobol-dshift":  # the digital shift, XORed into the integer net here
            x = points._sobol_integers(n, d, DEFAULT_DIRECTIONS)
            x ^= np.random.default_rng(dshift_seed).integers(0, 1 << points.SOBOL_BITS, size=d, dtype=np.uint64)
            return points.PointSet(x.astype(np.float64) * 0.5**points.SOBOL_BITS, start=1)
        shifted = points.random_shift(plain(n), delta)
        if sequence == "lattice-tent":  # the tent map t -> 1 - |2t - 1| after the shift
            return points.PointSet(1.0 - np.abs(2.0 * shifted.points - 1.0), shifted.start)
        return shifted

    if method == "MC":
        return points.uniform_random(split.consumed, d, mc_seed)
    if method == "QMC":
        return randomized(split.consumed)
    if method == "QMC+CF":
        return randomized(split.n_eval)
    assert method == "MC+CF"
    return points.uniform_random(split.n_eval, d, mc_seed)


class TestCellPoints:
    @pytest.mark.parametrize("support", [1.0, 0.7])
    @pytest.mark.parametrize("sequence", bench.SEQUENCES)
    def test_estimates_equal_fresh_points(self, monkeypatch, sequence, support):
        # A cell builds its grid and base sets once; every estimate must be
        # the float that the same batched estimators give on point sets
        # generated afresh per replicate.
        cfg = small_config(
            dims=(1, 2), methods=bench.METHODS, sequence=sequence, k_values=(0, 1, 2),
            support_radius=support, n_grid=(16, 64), replicates=2,
        )
        estimates, cf_results = [], []
        estimate, cf_estimate = bench.CellPoints.estimate, bench.cf_estimate
        monkeypatch.setattr(bench.CellPoints, "estimate", lambda *a: estimates.append(estimate(*a)) or estimates[-1])
        monkeypatch.setattr(bench, "cf_estimate", lambda *a: cf_results.append(cf_estimate(*a)) or cf_results[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            table = run_campaign(cfg)
        assert not any(row.error for row in table.rows)

        expected = []
        (family,), seed = cfg.families, cfg.seed_base
        insts = {
            (d, r): random_genz(family, d, seed_for(seed, "instance", family, d, r), cfg.difficulty)
            for d in cfg.dims
            for r in range(cfg.replicates)
        }
        for d in cfg.dims:
            for k in cfg.k_values:
                spec = KernelSpec(k, d, support)
                for n in cfg.n_grid:
                    split = bench.split_budget(n, cfg.node_fraction, dim=d)
                    sets = {m: [] for m in cfg.methods}
                    for r in range(cfg.replicates):
                        delta = rng_for(seed, "shift", family, d, k, n, r).random(d)
                        dshift_seed = seed_for(seed, "dshift", family, d, k, n, r)
                        mc_seed = seed_for(seed, "mc", family, d, k, n, r)
                        for method in cfg.methods:
                            pts = fresh_points(method, spec, split, sequence, delta, dshift_seed, mc_seed)
                            sets[method].append(pts)
                    for method in cfg.methods:
                        integrands = [as_integrand(insts[d, r]) for r in range(cfg.replicates)]
                        if method in bench.CF_METHODS:
                            nodes = points.midpoint_grid(split.m_per_axis, d)
                            ests = estimators.cf_estimate(integrands, nodes, sets[method], spec)[0]
                        else:
                            ests = [estimators.qmc_estimate(f, ps) for f, ps in zip(integrands, sets[method])]
                        expected.append(list(ests))
        assert [list(e) for e in estimates] == expected
        assert cf_results
        for _, interp in cf_results:
            integrals = kernel_integral(interp.spec, interp.nodes.points)
            columns = interp.beta.T
            assert np.array_equal(interp.exact_integral, [np.dot(column, integrals) for column in columns])


class TestSequenceTable:
    def test_unknown_sequence_names_the_known_ones(self):
        split = bench.split_budget(16, 0.5, dim=2)
        message = (
            "unknown sequence 'sobol'; expected one of ('halton-rr-shift', 'sobol-dshift', 'lattice', 'lattice-tent')"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bench.CellPoints("sobol", split, 2)

    @pytest.mark.parametrize("method", ["QMC", "QMC+CF"])
    def test_lattice_tent_unbiased(self, method):
        # criterion 5 on the tent rule: the fold keeps every shifted point
        # uniform, so the mean error of 200 replicates lies within 3 standard
        # errors of zero (over seed bases 0..19 both methods gave |t| <= 2.62)
        inst = make_genz("gaussian", 2, [3.0, 2.0], [0.35, 0.65])
        split = bench.split_budget(256, 0.5, dim=2)
        cell = bench.CellPoints("lattice-tent", split, 2)
        draws = [bench.replicate_draws(41, 2, r) for r in range(200)]
        point_sets = [cell.points(method, *draw) for draw in draws]
        integrands = [as_integrand(inst) for _ in draws]
        errors = cell.estimate(method, integrands, point_sets, KernelSpec(1, 2)) - inst.exact
        assert np.all(errors != 0.0)  # each estimate genuinely approximate
        t_stat = errors.mean() / (errors.std(ddof=1) / math.sqrt(len(errors)))
        assert abs(t_stat) <= 3.0

    def test_a_new_rule_is_one_entry(self, monkeypatch, capsys):
        # unscrambled Halton points with the default uniform shift
        rule = bench.SequenceRule(lambda n, d: points.halton(n, d))
        monkeypatch.setitem(bench.SEQUENCES, "halton-shift", rule)
        split = bench.split_budget(64, 0.5, dim=2)
        delta = np.array([0.3, 0.6])
        want = points.random_shift(points.halton(split.consumed, 2), delta)
        got = bench.CellPoints("halton-shift", split, 2).points("QMC", delta, 1, None)
        assert np.array_equal(got.points, want.points) and got.start == want.start == 1

        cfg = small_config(dims=(2,), methods=bench.METHODS, sequence="halton-shift", n_grid=(16, 64))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rows = run_campaign(cfg).rows
        assert len(rows) == 2 * len(bench.METHODS)
        assert not any(row.error for row in rows) and {row.sequence for row in rows} == {"halton-shift"}

        argv = ["integrate", "--family", "gaussian", "--dim", "2", "--method", "QMC+CF",
                "--n", "64", "--seed", "1", "--sequence", "halton-shift"]
        assert cli.main(argv) == 0
        assert "sequence=halton-shift" in capsys.readouterr().out


class TestDeterminism:
    def test_identical_config_bit_identical_csv(self, tmp_path):
        cfg = small_config(n_grid=(16, 32), replicates=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_campaign(cfg), p1)
        emit_csv(run_campaign(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCsvEmission:
    def test_header_only_for_empty_table(self, tmp_path):
        table = ConvergenceTable(rows=[], slopes=[])
        path = tmp_path / "empty.csv"
        emit_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("family,dim,method,k,")
        assert lines[1] == "#slope"

    def test_round_trip_full_precision(self, tmp_path):
        cfg = small_config(n_grid=(16, 32, 64, 128), replicates=2)
        table = run_campaign(cfg)
        path = tmp_path / "t.csv"
        emit_csv(table, path)
        rows, slopes = read_csv(path)
        originals = sorted(table.rows, key=lambda r: (r.cell_key(), r.n_total))
        for parsed, orig in zip(rows, originals):
            assert parsed.rmse == orig.rmse
            assert parsed.stderr == orig.stderr
            assert parsed.mean_error == orig.mean_error
        assert len(slopes) == len(table.slopes)
        for parsed, orig in zip(slopes, table.slopes):
            assert parsed.slope == orig.slope

    def test_row_order_lexicographic(self, tmp_path):
        cfg = small_config(families=("gaussian", "continuous"), n_grid=(32, 16))
        table = run_campaign(cfg)
        path = tmp_path / "o.csv"
        emit_csv(table, path)
        rows, _ = read_csv(path)
        keys = [(r.family, r.dim, r.method, r.k, r.n_total) for r in rows]
        assert keys == sorted(keys)

    def test_failed_row_round_trips(self, tmp_path):
        failed = Row(
            family="gaussian", dim=2, method="QMC+CF", k=1, support_radius=0.7,
            sequence="lattice", n_total=57, m_nodes=25, replicates=2, rmse=0.125,
            stderr=0.03125, mean_error=-0.0625, seed_base=3, error="r2: boom",
        )
        ok = Row(
            family="gaussian", dim=2, method="QMC", k=1, support_radius=0.7,
            sequence="lattice", n_total=57, m_nodes=0, replicates=3, rmse=0.25,
            stderr=0.0625, mean_error=0.125, seed_base=3,
        )
        table = ConvergenceTable(rows=[failed, ok], slopes=[])
        path = tmp_path / "failed.csv"
        emit_csv(table, path)
        rows, _ = read_csv(path)
        assert rows == [ok, failed]

    def test_headers_name_the_fields_in_order(self):
        row_fields = [f.name for f in dataclasses.fields(Row) if f.name != "error"]
        assert bench._CSV_HEADER.lower().split(",") == row_fields
        assert bench._SLOPE_HEADER.split(",") == [f.name for f in dataclasses.fields(SlopeFit)]

    def test_emitted_bytes(self, tmp_path):
        row = Row(
            family="gaussian", dim=2, method="QMC", k=1, support_radius=0.7,
            sequence="lattice", n_total=57, m_nodes=0, replicates=3, rmse=0.1,
            stderr=math.nan, mean_error=-0.25, seed_base=3,
        )
        slope = SlopeFit(family="gaussian", dim=2, method="QMC", k=1, slope=-1.0, intercept=0.1, residual=0.0)
        path = tmp_path / "golden.csv"
        emit_csv(ConvergenceTable(rows=[row], slopes=[slope]), path)
        assert path.read_text() == (
            "family,dim,method,k,support_radius,sequence,N_total,M_nodes,"
            "replicates,rmse,stderr,mean_error,seed_base\n"
            "gaussian,2,QMC,1,0.69999999999999996,lattice,57,0,3,"
            "0.10000000000000001,nan,-0.25,3\n"
            "#slope\n"
            "family,dim,method,k,slope,intercept,residual\n"
            "gaussian,2,QMC,1,-1,0.10000000000000001,0\n"
        )

    def test_row_with_wrong_cell_count_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(bench._CSV_HEADER + "\ngaussian,1,QMC,1,1,lattice,16,0,2,0.5,0.1,0.0\n")
        with pytest.raises(ValueError, match="expected 13 cells, got 12"):
            read_csv(path)

    def test_io_error_includes_path(self, tmp_path):
        table = ConvergenceTable(rows=[], slopes=[])
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv(table, tmp_path / "no/such/dir/x.csv")


class TestSvgEmission:
    def test_single_cell_panel(self, tmp_path):
        cfg = small_config(n_grid=(16, 32, 64, 128), replicates=2)
        table = run_campaign(cfg)
        path = tmp_path / "plot.svg"
        emit_svg(table, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "gaussian (d=1)" in text
        assert 'stroke-dasharray' in text  # corrected method drawn dashed
        assert "QMC+CF (k=1)" in text  # legend carries method and k
        assert "2^4" in text and "2^7" in text  # power-of-two axis ticks

    def test_deterministic_bytes(self, tmp_path):
        cfg = small_config(n_grid=(16, 32), replicates=2)
        table = run_campaign(cfg)
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(table, p1)
        emit_svg(table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_multi_panel_layout(self, tmp_path):
        cfg = small_config(families=("gaussian", "continuous"), dims=(1, 2), n_grid=(16, 32))
        table = run_campaign(cfg)
        path = tmp_path / "grid.svg"
        emit_svg(table, path)
        text = path.read_text()
        for name in ("gaussian (d=1)", "gaussian (d=2)", "continuous (d=1)", "continuous (d=2)"):
            assert name in text


class TestSlopeSummaries:
    def test_campaign_slopes_need_four_points(self):
        short = run_campaign(small_config(n_grid=(16, 32), replicates=2))
        assert short.slopes == []
        full = run_campaign(small_config(n_grid=(16, 32, 64, 128), replicates=2))
        assert len(full.slopes) == 2  # one per method cell
        cell = full.slope_for("gaussian", 1, "QMC", 1)
        assert cell.slope < 0.0  # errors do decay
