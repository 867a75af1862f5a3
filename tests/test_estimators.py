"""Plain and surrogate-corrected estimators, error diagnostics, budget rules."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cfqmc import estimators, interpolate
from cfqmc.estimators import (
    _PAIR_ROWS,
    Integrand,
    cf_estimate,
    optimal_split,
    qmc_estimate,
    split_budget,
    worst_case_error,
)
from cfqmc.genz import as_integrand, make_genz, random_genz
from cfqmc.kernels import KernelSpec, kernel_cross, kernel_double_integral, kernel_integral
from cfqmc.points import (
    PointSet,
    baker_fold,
    halton,
    lattice,
    midpoint_grid,
    random_shift,
    uniform_random,
)
from cfqmc.seeding import rng_for


def point_set(coords):
    arr = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    return PointSet(arr)


class TestIntegrand:
    def test_counts_every_evaluation(self):
        f = Integrand(1, lambda x: x[:, 0])
        f.eval_batch(halton(10, 1))
        f(np.array([0.5]))
        assert f.eval_count == 11

    def test_dimension_checked(self):
        f = Integrand(2, lambda x: x[:, 0])
        with pytest.raises(ValueError):
            f.eval_batch(halton(4, 1))

    def test_thread_safe_counting(self):
        import threading

        f = Integrand(1, lambda x: x[:, 0])
        pts = halton(100, 1)
        threads = [threading.Thread(target=lambda: f.eval_batch(pts)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert f.eval_count == 800


class TestPlainEstimate:
    def test_constant_is_exact(self):
        f = Integrand(2, lambda x: np.full(len(x), 3.25))
        assert qmc_estimate(f, halton(17, 2)) == 3.25

    def test_hand_mean_on_lattice(self):
        f = Integrand(1, lambda x: x[:, 0])
        assert qmc_estimate(f, lattice(4, 1, (1,))) == pytest.approx(0.375)

    def test_linearity(self):
        ps = halton(32, 2)
        g = Integrand(2, lambda x: np.sin(x[:, 0]))
        h = Integrand(2, lambda x: x[:, 1] ** 2)
        combo = Integrand(2, lambda x: 2.0 * np.sin(x[:, 0]) - 3.0 * x[:, 1] ** 2)
        lhs = qmc_estimate(combo, ps)
        rhs = 2.0 * qmc_estimate(g, ps) - 3.0 * qmc_estimate(h, ps)
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_empty_set_rejected(self):
        f = Integrand(1, lambda x: x[:, 0])
        with pytest.raises(ValueError):
            qmc_estimate(f, PointSet(np.zeros((0, 1))))


class TestCorrectedEstimate:
    def test_exact_on_kernel_span(self):
        spec = KernelSpec(1, 2)
        nodes = midpoint_grid(4, 2)
        rng = np.random.default_rng(0)
        beta = rng.normal(size=len(nodes))
        f = Integrand(2, lambda x: kernel_cross(spec, x, nodes.points) @ beta)
        true_integral = float(beta @ kernel_integral(spec, nodes.points))
        eval_pts = random_shift(halton(64, 2, scramble=True), [0.3, 0.7])
        (est,), interp = cf_estimate([f], nodes, [eval_pts], spec)
        assert abs(est - true_integral) <= 1e-8 * (1.0 + abs(true_integral))
        assert f.eval_count == len(nodes) + len(eval_pts)

    def test_constant_integrand_close_but_not_exact(self):
        # constants are not in the kernel span; the correction absorbs the
        # mean through the surrogate integral instead
        c = 2.0
        f = Integrand(1, lambda x: np.full(len(x), c))
        nodes = midpoint_grid(128, 1)
        eval_pts = random_shift(halton(128, 1, scramble=True), [0.37])
        (est,), _ = cf_estimate([f], nodes, [eval_pts], KernelSpec(1, 1))
        assert est != c  # genuinely approximate
        assert abs(est - c) <= abs(c) * 1e-6

    def test_unbiased_over_shifts(self):
        inst = make_genz("gaussian", 2, [2.0, 3.0], [0.4, 0.6])
        spec = KernelSpec(1, 2)
        nodes = midpoint_grid(5, 2)
        base = halton(64, 2, scramble=True)
        rng = rng_for(21, "unbias")
        errors = []
        for _ in range(60):
            f = as_integrand(inst)
            (est,), _ = cf_estimate([f], nodes, [random_shift(base, rng.random(2))], spec)
            errors.append(est - inst.exact)
        errors = np.asarray(errors)
        t_stat = errors.mean() / (errors.std(ddof=1) / math.sqrt(len(errors)))
        assert abs(t_stat) <= 3.0

    def test_returns_interpolant_with_budget(self):
        inst = make_genz("continuous", 1, [1.0], [0.5])
        f = as_integrand(inst)
        (est,), interp = cf_estimate([f], midpoint_grid(8, 1), [halton(16, 1)], KernelSpec(0, 1))
        assert len(interp.beta) == 8
        assert f.eval_count == 24

    @pytest.mark.parametrize("d", [1, 2])
    def test_empty_evaluation_set_rejected_before_evaluation(self, d):
        f = Integrand(d, lambda x: np.sin(x[:, 0]))
        with pytest.raises(ValueError, match="empty point set"):
            cf_estimate([f], midpoint_grid(3, d), [PointSet(np.empty((0, d)))], KernelSpec(1, d))
        assert f.eval_count == 0

    def test_columns_share_one_set_of_moment_tables(self, monkeypatch):
        # a 10-column d = 1 fit forms its moment tables once, not per column
        calls = []
        build = interpolate._axis_moments

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(interpolate, "_axis_moments", counting)
        integrands = [as_integrand(random_genz("gaussian", 1, seed)) for seed in range(10)]
        cf_estimate(integrands, midpoint_grid(64, 1), [halton(64, 1)] * 10, KernelSpec(1, 1))
        assert len(calls) == 1

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_surrogate_evaluation_for_all_integrands(self, monkeypatch, d):
        calls = []
        one_evaluation = estimators.evaluate

        def counting(interp, x):
            calls.append(np.shape(x))
            return one_evaluation(interp, x)

        monkeypatch.setattr(estimators, "evaluate", counting)
        integrands = [as_integrand(random_genz("gaussian", d, seed)) for seed in range(10)]
        sets = [random_shift(halton(32, d), rng_for(seed, "sets", d).random(d)) for seed in range(10)]
        cf_estimate(integrands, midpoint_grid(4, d), sets, KernelSpec(1, d))
        assert calls == [(10, 32, d)]

    def test_unequal_evaluation_sets_rejected_before_evaluation(self):
        integrands = [Integrand(1, lambda x: x[:, 0]) for _ in range(2)]
        with pytest.raises(ValueError, match="unequal lengths"):
            cf_estimate(integrands, midpoint_grid(4, 1), [halton(16, 1), halton(8, 1)], KernelSpec(1, 1))
        assert [f.eval_count for f in integrands] == [0, 0]

    def test_non_grid_nodes_rejected_before_evaluation(self):
        # a shifted grid is a plain PointSet: rejected with nothing charged
        f = Integrand(2, lambda x: x[:, 0])
        nodes = random_shift(midpoint_grid(4, 2), [0.1, 0.2])
        with pytest.raises(TypeError, match="MidpointGrid"):
            cf_estimate([f], nodes, [halton(16, 2)], KernelSpec(1, 2))
        assert f.eval_count == 0


class TestFoldedEstimate:
    def test_exact_on_span_with_zero_shift(self):
        spec = KernelSpec(1, 1)
        nodes = midpoint_grid(6, 1)
        beta = np.linspace(-1, 1, 6)
        f = Integrand(1, lambda x: kernel_cross(spec, x, nodes.points) @ beta)
        truth = float(beta @ kernel_integral(spec, nodes.points))
        folded = baker_fold(random_shift(lattice(64, 1, (1,)), [0.0]))
        (est,), _ = cf_estimate([f], nodes, [folded], spec)
        assert abs(est - truth) <= 1e-8 * (1.0 + abs(truth))

    def test_folding_beats_plain_shifted_lattice(self):
        # smooth 1-d integrand at 2^10 lattice points, 10 shifts
        inst = make_genz("gaussian", 1, [4.0], [0.55])
        spec = KernelSpec(1, 1)
        n_eval = 2**10
        nodes = midpoint_grid(64, 1)
        base = lattice(n_eval, 1, (1,))
        rng = rng_for(5, "fold-battle")
        folded_err, plain_err = [], []
        for _ in range(10):
            shift = rng.random(1)
            f1 = as_integrand(inst)
            (folded,), _ = cf_estimate([f1], nodes, [baker_fold(random_shift(base, shift))], spec)
            folded_err.append(folded - inst.exact)
            f2 = as_integrand(inst)
            (plain,), _ = cf_estimate([f2], nodes, [random_shift(base, shift)], spec)
            plain_err.append(plain - inst.exact)
        rmse_folded = float(np.sqrt(np.mean(np.square(folded_err))))
        rmse_plain = float(np.sqrt(np.mean(np.square(plain_err))))
        assert rmse_folded < rmse_plain


class TestWorstCaseError:
    def test_single_point_hand_value(self):
        e = worst_case_error(KernelSpec(0, 1), point_set([[0.5]]))
        assert e == pytest.approx(math.sqrt(1.0 / 6.0), abs=1e-12)

    def test_invariant_to_ordering(self):
        spec = KernelSpec(1, 2)
        pts = uniform_random(20, 2, seed=4).points
        e1 = worst_case_error(spec, point_set(pts))
        e2 = worst_case_error(spec, point_set(pts[::-1]))
        assert e1 == pytest.approx(e2, rel=1e-14)

    def test_halton_error_decreases_with_n(self):
        spec = KernelSpec(1, 2)
        values = [worst_case_error(spec, halton(2**n, 2)) for n in range(4, 11)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_monte_carlo_discrepancy_oracle(self):
        # single-stream MC estimate of the squared error, 3 oracle SEs
        from cfqmc.kernels import wendland_1d

        rng = np.random.default_rng(17)
        for trial in range(5):
            d = int(rng.integers(1, 3))
            spec = KernelSpec(int(rng.integers(0, 3)), d)
            pts = point_set(rng.random((int(rng.integers(3, 20)), d)))
            n_samples = 200_000
            x = rng.random((n_samples, d))
            y = rng.random((n_samples, d))
            pair_term = np.ones(n_samples)
            for i in range(d):
                pair_term *= wendland_1d(spec.k, np.abs(x[:, i] - y[:, i]))
            cross = kernel_cross(spec, y, pts.points)
            point_term = cross.mean(axis=1)
            const = float(np.sum(kernel_cross(spec, pts.points, pts.points))) / len(pts) ** 2
            samples = pair_term - 2.0 * point_term + const
            mc = samples.mean()
            se = samples.std(ddof=1) / math.sqrt(n_samples)
            closed = worst_case_error(spec, pts) ** 2
            assert abs(closed - mc) <= 3 * se

    def test_blocked_pair_sum_matches_whole_matrix(self):
        # the upper block triangle against the whole kernel matrix: 1500 rows
        # end in a short block, and 1 or 2 rows fit in one
        pts = halton(1500, 2).points
        assert len(pts) % _PAIR_ROWS
        for k, support, n in itertools.product((0, 1, 2), (1.0, 0.7), (1, 2, len(pts))):
            spec = KernelSpec(k, 2, support)
            ps = point_set(pts[:n])
            whole = float(np.sum(kernel_cross(spec, ps.points, ps.points))) / (n * n)
            single = float(np.mean(kernel_integral(spec, ps.points)))
            expected = kernel_double_integral(spec) - 2.0 * single + whole
            assert worst_case_error(spec, ps) ** 2 == pytest.approx(expected, rel=0.0, abs=1e-13)

    def test_tiny_negative_squared_error_clamped(self):
        # a dense grid drives the squared error to rounding scale; must not
        # produce a NaN from a negative sqrt argument
        e = worst_case_error(KernelSpec(0, 1), midpoint_grid(4096, 1))
        assert math.isfinite(e)
        assert e >= 0.0


class TestOptimalSplit:
    def test_equal_split_operating_point(self):
        assert optimal_split(2.0, 1.0) == 0.5

    def test_hand_value(self):
        assert optimal_split(3.0, 1.0) == pytest.approx(2.0 / 3.0)

    def test_limit_from_above(self):
        assert optimal_split(1.0 + 1e-9, 1.0) == pytest.approx(0.0, abs=1e-8)

    def test_rejects_no_surplus_smoothness(self):
        with pytest.raises(ValueError):
            optimal_split(1.0, 1.0)
        with pytest.raises(ValueError):
            optimal_split(0.5, 1.0)

    @given(
        st.floats(min_value=1.01, max_value=50.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_always_in_unit_interval(self, alpha, alpha_l):
        if alpha <= alpha_l:
            return
        frac = optimal_split(alpha, alpha_l)
        assert 0.0 < frac < 1.0

    @given(st.floats(min_value=0.1, max_value=5.0))
    def test_strictly_increasing_in_alpha(self, alpha_l):
        alphas = np.linspace(alpha_l * 1.01, alpha_l * 10.0, 12)
        fracs = [optimal_split(a, alpha_l) for a in alphas]
        assert all(a < b for a, b in zip(fracs, fracs[1:]))


class TestSplitBudget:
    def test_even_split_at_512(self):
        s = split_budget(512, 0.5, dim=1)
        assert (s.n_nodes, s.n_eval) == (256, 256)
        assert s.discarded == 0

    def test_non_pow2_total(self):
        s = split_budget(100, 0.5, dim=1)
        assert s.n_eval == 32  # largest power of two <= 50
        assert s.n_nodes == 68
        assert s.discarded == 0

    def test_grid_snapping_d2(self):
        s = split_budget(64, 0.5, dim=2)
        assert s.n_eval == 32
        assert s.m_per_axis == 5
        assert s.n_nodes == 25
        assert s.discarded == 7
        assert s.consumed == 57

    def test_small_fraction_gives_minimal_grid(self):
        s = split_budget(513, 0.001, dim=1)
        assert s.n_eval == 512
        assert s.n_nodes == 1
        assert s.m_per_axis == 1

    def test_budget_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            split_budget(3, 0.5)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            split_budget(64, 0.0)
        with pytest.raises(ValueError):
            split_budget(64, 1.0)

    @given(
        st.integers(min_value=4, max_value=10_000),
        st.floats(min_value=0.05, max_value=0.95),
        st.integers(min_value=1, max_value=4),
    )
    def test_accounting_identity(self, n_total, fraction, dim):
        assume((1.0 - fraction) * n_total >= 1.0)
        s = split_budget(n_total, fraction, dim=dim)
        assert s.n_nodes == s.m_per_axis**dim
        assert s.n_nodes + s.n_eval + s.discarded == n_total
        assert s.n_eval & (s.n_eval - 1) == 0  # power of two
        assert s.n_nodes >= 1 and s.n_eval >= 1


class TestBudgetAccounting:
    def test_estimators_consume_reported_budget(self):
        inst = random_genz("product_peak", 2, seed=3)
        split = split_budget(128, 0.5, dim=2)
        f = as_integrand(inst)
        nodes = midpoint_grid(split.m_per_axis, 2)
        eval_pts = halton(split.n_eval, 2)
        cf_estimate([f], nodes, [eval_pts], KernelSpec(1, 2))
        assert f.eval_count == split.consumed
