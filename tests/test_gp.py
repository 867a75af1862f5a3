"""GP predictive means, quantile reparametrization, dataset handling."""

import math

import mpmath
import numpy as np
import pytest
from scipy import linalg as sla

from cfqmc import bench, gp
from cfqmc.gp import (
    Dataset,
    GPConfig,
    PredictionTable,
    default_subset_indices,
    gamma2_inverse_cdf,
    gp_predictive_mean_full,
    gp_predictive_mean_sor,
    load_dataset,
    marginal_prediction,
    reparametrized_integrand,
    run_prediction_study,
    standardize,
    synthetic_dataset,
    write_prediction_csv,
)
from cfqmc.points import halton, midpoint_grid, random_shift, uniform_random
from cfqmc.seeding import rng_for, seed_for


def gamma2_cdf(t, scale):
    x = np.asarray(t) / scale
    return 1.0 - (1.0 + x) * np.exp(-x)


def sor_reference(solver, theta1, theta2):
    """The SoR predictive means written out with cho_factor / cho_solve, and
    the ladder rung that factorized."""
    inv2 = -0.5 / theta2**2
    c_sub_n = theta1 * np.exp(inv2 * solver.sq_sub_n)
    c_sub = c_sub_n[:, solver.idx]
    n_sub = solver.idx.size
    eye = np.eye(n_sub)
    jitter = gp._SOR_JITTER * np.trace(c_sub) / n_sub
    system = c_sub_n @ c_sub_n.T + gp._SIGMA**2 * (c_sub + jitter * eye)
    scale = np.trace(system) / n_sub
    for rung, extra in enumerate(gp._SOR_LADDER):
        boosted = system + extra * scale * eye if extra else system
        try:
            cho = sla.cho_factor(boosted, lower=True, check_finite=False)
        except sla.LinAlgError:
            continue
        weights = sla.cho_solve(cho, c_sub_n @ solver.y, check_finite=False)
        return theta1 * np.exp(inv2 * solver.sq_star) @ weights, rung
    raise AssertionError("the ladder ran out")


class TestGamma2InverseCdf:
    def test_median_gamma_2_2(self):
        assert gamma2_inverse_cdf(0.5, 2.0) == pytest.approx(3.35669, abs=1e-4)

    def test_round_trip_accuracy(self):
        q = np.arange(0.01, 1.0, 0.01)
        t = gamma2_inverse_cdf(q, 2.0)
        np.testing.assert_allclose(gamma2_cdf(t, 2.0), q, atol=1e-12)

    def test_small_quantile_tends_to_zero(self):
        assert gamma2_inverse_cdf(1e-10, 2.0) < 1e-3

    def test_boundaries_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                gamma2_inverse_cdf(bad, 2.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="strictly inside"):
            gamma2_inverse_cdf(np.array([0.5, np.nan]), 2.0)
        with pytest.raises(ValueError, match="scale must be positive"):
            gamma2_inverse_cdf(0.5, np.nan)

    def test_scale_parameter(self):
        t1 = gamma2_inverse_cdf(0.7, 1.0)
        t3 = gamma2_inverse_cdf(0.7, 3.0)
        assert t3 == pytest.approx(3.0 * t1, rel=1e-10)

    def test_reparametrized_prior_mean(self):
        # E[theta] under the shape-2/scale-2 prior is 4
        rng = np.random.default_rng(0)
        q = rng.random(1_000_000)
        q = np.clip(q, 1e-15, 1 - 1e-15)
        theta = gamma2_inverse_cdf(q, 2.0)
        se = theta.std(ddof=1) / math.sqrt(len(theta))
        assert abs(theta.mean() - 4.0) <= 3 * se

    def test_matches_50_digit_roots(self):
        # across the tails the prediction table clips to, the quantile is the
        # root of 1 - (1 + x) e^-x = q to 1e-13 relative; the reference solves
        # the equivalent log1p(x) - x = log1p(-q) by Newton at 50 digits from
        # the right, where the concave left side makes every step land
        # between the root and the last iterate
        q = np.concatenate(
            [np.logspace(-15, -1, 200), np.linspace(0.1, 0.9, 200), 1.0 - np.logspace(-1, -15, 200), [1e-15, 1 - 1e-15]]
        )
        with mpmath.workdps(50):
            roots = []
            for qi in q:
                target = mpmath.log1p(-mpmath.mpf(qi))
                x = 4 - 2 * target  # log1p(x) - x <= -x / 2 < target here
                for _ in range(100):
                    step = (mpmath.log1p(x) - x - target) * (1 + x) / x
                    x += step
                    if abs(step) <= x * mpmath.mpf(10) ** -40:
                        break
                assert -mpmath.expm1(-x) - x * mpmath.exp(-x) == pytest.approx(mpmath.mpf(qi), rel=1e-35)
                roots.append(x)
            for scale in (1.0, 2.0):
                t = gamma2_inverse_cdf(q, scale)
                worst = max(abs(mpmath.mpf(ti) / (scale * x) - 1) for ti, x in zip(t, roots))
                assert worst <= 1e-13, f"scale {scale}: worst relative error {float(worst):.3g}"


class TestStandardization:
    def test_invariants_hold(self):
        rng = np.random.default_rng(1)
        data = standardize(rng.normal(2.0, 5.0, size=(80, 3)), rng.normal(size=80))
        assert np.max(np.abs(data.covariates.mean(axis=0))) <= 1e-10
        assert np.max(np.abs(data.covariates.var(axis=0) - 1.0)) <= 1e-8
        assert abs(data.responses.mean()) <= 1e-10

    def test_constant_column_rejected(self):
        x = np.ones((10, 2))
        with pytest.raises(ValueError, match="constant"):
            standardize(x, np.zeros(10))


class TestPredictiveMeans:
    def setup_method(self):
        self.data, self.test_z = synthetic_dataset(n=50, p=3, n_test=4, seed=1)
        self.cfg = GPConfig(test_points=self.test_z, n_subset=50)

    def test_zero_responses_zero_prediction(self):
        zero = Dataset(covariates=self.data.covariates, responses=np.zeros(self.data.n))
        assert gp_predictive_mean_full(zero, self.cfg, (1.0, 1.0), self.test_z[0]) == 0.0
        assert (
            gp_predictive_mean_sor(zero, self.cfg, (1.0, 1.0), self.test_z[0], np.arange(50))
            == 0.0
        )

    def test_vanishing_amplitude_kills_prediction(self):
        small = gp_predictive_mean_full(self.data, self.cfg, (1e-10, 1.0), self.test_z[0])
        assert abs(small) < 1e-6

    def test_single_point_closed_form(self):
        x = np.array([[0.0], [2.0]])  # one training row after standardization
        data = standardize(x, [1.0, 3.0])
        cfg = GPConfig(test_points=data.covariates[:1], n_subset=1)
        theta = (1.7, 0.9)
        got = gp_predictive_mean_full(
            Dataset(data.covariates[:1], data.responses[:1]),
            cfg, theta, data.covariates[0],
        )
        # at the training input the cross covariance is theta1 itself
        expected = theta[0] / (theta[0] + gp._SIGMA**2) * data.responses[0]
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_sor_matches_full_at_full_subset(self, seed):
        data, test_z = synthetic_dataset(n=40, p=3, n_test=2, seed=seed)
        cfg = GPConfig(test_points=test_z, n_subset=40)
        theta = (1.2, 1.4)
        full = gp_predictive_mean_full(data, cfg, theta, test_z[0])
        sor = gp_predictive_mean_sor(data, cfg, theta, test_z[0], np.arange(40))
        assert sor == pytest.approx(full, rel=1e-6)

    def test_sor_predict_matches_cho_factor_reference(self):
        # predict builds the system in place and calls LAPACK directly; the
        # floats are those of the written-out system on every ladder rung
        data, test_z = synthetic_dataset(n=200, p=4, n_test=5, seed=0)
        cfg = GPConfig(test_points=test_z)
        solver = gp._SorSolver(data, test_z, default_subset_indices(data, cfg.n_subset))
        rng = np.random.default_rng(1)
        # the clipped prior's corners are the most extreme theta a study draws
        ends = (gp._CDF_CLIP, 1.0 - gp._CDF_CLIP)
        corners = gamma2_inverse_cdf([(q1, q2) for q1 in ends for q2 in ends], gp._PRIOR_SCALE)
        draws = np.vstack(
            [rng.gamma(2.0, 2.0, size=(100, 2)), rng.uniform(5.0, 60.0, size=(100, 2)), corners]
        )
        rungs = set()
        for theta1, theta2 in draws:
            reference, rung = sor_reference(solver, theta1, theta2)
            assert np.array_equal(solver.predict(theta1, theta2), reference)
            rungs.add(rung)
        assert 0 in rungs and len(rungs) > 1

    def test_subset_beyond_the_rows_rejected(self):
        with pytest.raises(ValueError, match="a subset of 51 rows exceeds the 50 training rows"):
            default_subset_indices(self.data, self.data.n + 1)

    def test_sor_rank_one_is_finite(self):
        val = gp_predictive_mean_sor(self.data, self.cfg, (2.0, 1.0), self.test_z[0], [7])
        assert math.isfinite(val)

    def test_duplicate_subset_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            gp_predictive_mean_sor(self.data, self.cfg, (1.0, 1.0), self.test_z[0], [1, 1])

    def test_nonpositive_theta_rejected(self):
        with pytest.raises(ValueError):
            gp_predictive_mean_full(self.data, self.cfg, (0.0, 1.0), self.test_z[0])

    def test_finite_over_prior_quantile_box(self):
        qs = (0.001, 0.25, 0.75, 0.999)
        subset = default_subset_indices(self.data, 25)
        for q1 in qs:
            for q2 in qs:
                theta = (gamma2_inverse_cdf(q1, 2.0), gamma2_inverse_cdf(q2, 2.0))
                val = gp_predictive_mean_sor(self.data, self.cfg, theta, self.test_z[0], subset)
                assert math.isfinite(val)


class TestMarginalPrediction:
    def setup_method(self):
        self.data, self.test_z = synthetic_dataset(n=60, p=4, n_test=3, seed=0)
        self.cfg = GPConfig(test_points=self.test_z, n_subset=30)
        self.subset = default_subset_indices(self.data, self.cfg.n_subset)
        self.table = PredictionTable(self.data, self.cfg, self.subset)

    def test_budgets_identical_across_methods(self, monkeypatch):
        built = []

        def recording(*args):
            built.append(reparametrized_integrand(*args))
            return built[-1]

        monkeypatch.setattr(gp, "reparametrized_integrand", recording)
        for m in ("QMC", "QMC+CF", "MC", "MC+CF"):
            marginal_prediction(self.table, m, 128, seed=5)
        # one integrand per (method, test point), each charged the full
        # budget even when its points were already solved for another
        assert [f.eval_count for f in built] == [128] * 4 * 3

    def test_points_are_the_campaign_recipe(self, monkeypatch):
        # Every test point of a method averages over one point set: the
        # seed's shifted Halton set or MC draw, of the whole budget for a
        # plain method and of budget - 16 points beside the 4 x 4 grid for a
        # CF method.
        budget, seed = 64, 5
        seen = []  # (nodes or None, evaluation set) per test point
        qmc, cf = bench.qmc_estimate, bench.cf_estimate

        def recording_cf(integrands, nodes, eval_sets, spec):
            seen.extend((nodes, ps) for ps in eval_sets)
            return cf(integrands, nodes, eval_sets, spec)

        monkeypatch.setattr(bench, "qmc_estimate", lambda f, ps: seen.append((None, ps)) or qmc(f, ps))
        monkeypatch.setattr(bench, "cf_estimate", recording_cf)
        for method in bench.METHODS:
            seen.clear()
            marginal_prediction(self.table, method, budget, seed)
            n = budget - 16 if method.endswith("+CF") else budget
            if method.startswith("QMC"):
                want = random_shift(halton(n, 2, scramble=True), rng_for(seed, "gp-shift").random(2))
            else:
                want = uniform_random(n, 2, seed_for(seed, "gp-mc"))
            assert len(seen) == self.table.n_test
            for nodes, ps in seen:
                assert ps.points.shape == (n, 2)
                assert ps.points.tobytes() == want.points.tobytes()
                if method.endswith("+CF"):
                    assert nodes.points.tobytes() == midpoint_grid(4, 2).points.tobytes()
                else:
                    assert nodes is None

    def test_zero_responses_estimate_zero(self):
        zero = Dataset(covariates=self.data.covariates, responses=np.zeros(self.data.n))
        est = marginal_prediction(PredictionTable(zero, self.cfg, self.subset), "QMC", 64, seed=3)
        np.testing.assert_allclose(est, 0.0, atol=1e-14)

    def test_deterministic_given_seed(self):
        a = marginal_prediction(self.table, "QMC+CF", 64, seed=9)
        b = marginal_prediction(self.table, "QMC+CF", 64, seed=9)
        fresh = marginal_prediction(PredictionTable(self.data, self.cfg, self.subset), "QMC+CF", 64, seed=9)
        assert a.tobytes() == b.tobytes() == fresh.tobytes()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            marginal_prediction(self.table, "QMC+CF-folded", 64, seed=1)

    def test_tiny_budget_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            marginal_prediction(self.table, "QMC+CF", 16, seed=1)

    def test_qmc_and_mc_agree_statistically(self):
        # same estimand: the two plain methods must bracket each other
        ests = []
        for m in ("QMC", "MC"):
            vals = [marginal_prediction(self.table, m, 128, seed=s)[0] for s in range(6)]
            ests.append(np.mean(vals))
        assert abs(ests[0] - ests[1]) < 0.05


class TestReparametrizedIntegrand:
    def test_budget_counting(self):
        data, test_z = synthetic_dataset(n=40, p=3, n_test=1, seed=2)
        cfg = GPConfig(test_points=test_z, n_subset=20)
        subset = default_subset_indices(data, 20)
        f = reparametrized_integrand(PredictionTable(data, cfg, subset), 0)
        pts = np.array([[0.5, 0.5], [0.2, 0.9]])
        first = f.eval_batch(pts)
        assert f.eval_count == 2
        # a table hit is still a counted evaluation, with the same value
        assert f.eval_batch(pts).tobytes() == first.tobytes()
        assert f.eval_count == 4

    def test_test_index_out_of_range_rejected(self):
        data, test_z = synthetic_dataset(n=30, p=2, n_test=2, seed=3)
        table = PredictionTable(data, GPConfig(test_points=test_z), np.arange(10))
        for bad in (-1, 2):
            with pytest.raises(ValueError, match="test index"):
                reparametrized_integrand(table, bad)


class TestLoadDataset:
    def _write(self, path, rows, header=None):
        with open(path, "w") as fh:
            if header:
                fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")

    def test_cap_at_least_rows_keeps_everything(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [list(r) for r in np.round(rng.normal(size=(30, 4)), 6)]
        path = tmp_path / "d.csv"
        self._write(path, rows, header="a,b,c,y")
        data = load_dataset(path, n_train_cap=100, seed=1)
        assert data.n == 30
        assert data.covariates.shape[1] == 3

    def test_same_seed_same_subset(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [list(r) for r in np.round(rng.normal(size=(50, 3)), 6)]
        path = tmp_path / "d.csv"
        self._write(path, rows)
        a = load_dataset(path, n_train_cap=20, seed=7)
        b = load_dataset(path, n_train_cap=20, seed=7)
        np.testing.assert_array_equal(a.covariates, b.covariates)

    def test_standardization_invariants_post_load(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = [list(r) for r in rng.normal(5.0, 3.0, size=(40, 3))]
        path = tmp_path / "d.csv"
        self._write(path, rows)
        data = load_dataset(path, n_train_cap=25, seed=3)
        assert np.max(np.abs(data.covariates.mean(axis=0))) <= 1e-10
        assert np.max(np.abs(data.covariates.var(axis=0) - 1.0)) <= 1e-8

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,3.0\n1.0,oops,3.0\n")
        with pytest.raises(ValueError, match=":2"):
            load_dataset(path, n_train_cap=10, seed=0)

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0,3.0\n1.0,2.0\n")
        with pytest.raises(ValueError, match=":2"):
            load_dataset(path, n_train_cap=10, seed=0)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data"):
            load_dataset(path, n_train_cap=10, seed=0)


class TestSyntheticDataset:
    def test_deterministic(self):
        a_data, a_test = synthetic_dataset(n=50, p=3, n_test=5, seed=4)
        b_data, b_test = synthetic_dataset(n=50, p=3, n_test=5, seed=4)
        np.testing.assert_array_equal(a_data.covariates, b_data.covariates)
        np.testing.assert_array_equal(a_test, b_test)

    def test_test_points_lie_on_training_rows(self):
        data, test_z = synthetic_dataset(n=80, p=4, n_test=6, seed=5)
        for z in test_z:
            dists = np.linalg.norm(data.covariates - z, axis=1)
            assert dists.min() == 0.0


class TestPredictionStudy:
    def test_csv_outputs(self, tmp_path):
        data, test_z = synthetic_dataset(n=40, p=3, n_test=2, seed=6)
        cfg = GPConfig(test_points=test_z, n_subset=20)
        study = run_prediction_study(data, cfg, ("QMC", "QMC+CF"), 64, [0, 1, 2])
        est_path = tmp_path / "pred.csv"
        sd_path = tmp_path / "sd.csv"
        write_prediction_csv(study, est_path, sd_path)
        est_lines = est_path.read_text().splitlines()
        assert est_lines[0] == "test_index,method,N,seed,estimate"
        assert len(est_lines) == 1 + 2 * 2 * 3  # points x methods x seeds
        sd_lines = sd_path.read_text().splitlines()
        assert sd_lines[0] == "test_index,method,sd_over_seeds"
        assert len(sd_lines) == 1 + 2 * 2

    def test_one_estimate_step_per_seed_and_method(self, monkeypatch):
        # every test point of a (seed, method) goes through one step of the
        # campaign's, which checks each one's budget
        calls = []
        estimate = bench.CellPoints.estimate

        def recording(cell, method, integrands, point_sets, spec):
            calls.append((method, cell.split.consumed, len(integrands), len(point_sets)))
            return estimate(cell, method, integrands, point_sets, spec)

        monkeypatch.setattr(bench.CellPoints, "estimate", recording)
        data, test_z = synthetic_dataset(n=40, p=3, n_test=3, seed=6)
        methods = ("QMC", "QMC+CF", "MC", "MC+CF")
        run_prediction_study(data, GPConfig(test_points=test_z, n_subset=20), methods, 64, [0, 1])
        assert calls == [(method, 64, 3, 3) for _ in range(2) for method in methods]

    def test_estimates_match_single_point_tables(self):
        # Each study estimate must equal the estimate for that test point
        # alone (a one-row solver on the same seed's points), so no column of
        # the shared table leaks into another test point's integral. The
        # tolerance covers the rounding of a T-row against a one-row product
        # with the SoR weights: up to 6.5e-10 measured over 200 random theta.
        data, test_z = synthetic_dataset(n=60, p=3, n_test=3, seed=7)
        cfg = GPConfig(test_points=test_z, n_subset=30)
        methods = ("QMC", "QMC+CF", "MC", "MC+CF")
        study = run_prediction_study(data, cfg, methods, 64, [0, 1])
        subset = default_subset_indices(data, cfg.n_subset)
        single = [
            PredictionTable(data, GPConfig(test_points=test_z[t : t + 1], n_subset=30), subset)
            for t in range(3)
        ]
        assert len(study.estimates) == 3 * 2 * len(methods)
        for t_idx, method, _, seed, estimate in study.estimates:
            alone = marginal_prediction(single[t_idx], method, 64, seed_for(seed, "gp-point"))
            assert abs(estimate - alone[0]) <= 1e-8
