"""Surrogate fitting, evaluation, exact integrals and the zero-mean correction."""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from cfqmc import interpolate, kernels
from cfqmc.interpolate import (
    Interpolant,
    control_functional,
    evaluate,
    fit,
)
from cfqmc.kernels import KernelSpec, gram, kernel_cross, kernel_integral
from cfqmc.points import PointSet, halton, midpoint_axis, midpoint_grid, random_shift, uniform_random

# Per-axis evaluation (d >= 2, and d = 1 with 16 m rho < 1): every blocking
# of a stack gives the floats of one block over it: the cache-sized blocks,
# 8 MiB blocks, and 8-row blocks with a one-row tail. A lone row takes BLAS's
# vector path, so a point evaluated on its own agrees to rounding, not
# bitwise. Moment-table evaluation (the other d = 1 fits): the whole stack,
# both parts of every split of it and each point on its own give the same
# floats; each case builds its tables once, for all of those evaluations.
# Checks the smoothness indices given as arguments and prints the failures.
BLOCKING_CHECK = """
import sys
import numpy as np
from cfqmc import interpolate, kernels
from cfqmc.interpolate import evaluate, fit
from cfqmc.kernels import KernelSpec
from cfqmc.points import midpoint_axis, midpoint_grid

failed = []
cache_sized = kernels.BLOCK_BYTES
cases = [(s, d, m) for s in (1.0, 0.7) for d, m in ((1, 1024), (1, 37), (2, 32), (2, 5), (3, 8))]
for k in map(int, sys.argv[1:]):
    for support, d, m in cases + [(0.0015, 1, 37)]:  # 16 m rho < 1: per axis
        case = (k, support, d, m)
        kernels.BLOCK_BYTES = cache_sized
        rng = np.random.default_rng(10 * k + d)
        interp = fit(KernelSpec(k, d, support), midpoint_grid(m, d), rng.normal(size=m**d)[:, None])
        pts = rng.random((1001, d))
        if d == 1 and 16 * m * support >= 1.0:  # moment tables, built once
            tables = interpolate._axis_moments(interp.spec, interp.nodes.points[:, 0], interp.beta)
            build, interpolate._axis_moments = interpolate._axis_moments, lambda *args: tables
            whole = evaluate(interp, pts[None])[0]
            for split in range(1, len(pts)):
                parts = (evaluate(interp, pts[None, :split])[0], evaluate(interp, pts[None, split:])[0])
                if not np.array_equal(np.concatenate(parts), whole):
                    failed.append((case, split))
            if not np.array_equal([evaluate(interp, p[None, None])[0, 0] for p in pts], whole):
                failed.append((case, "single points"))
            interpolate._axis_moments = build
            continue
        axis = KernelSpec(k, 1, support), midpoint_axis(m)[:, None]
        whole = interpolate._grid_values(interp.beta[:, 0], pts, axis)
        blocked = {"cache-sized": evaluate(interp, pts[None])[0]}
        kernels.BLOCK_BYTES = 8 << 20
        blocked["8 MiB"] = evaluate(interp, pts[None])[0]
        kernels.BLOCK_BYTES = 8 * 8 * 4 * d * m
        blocked["8-row"] = evaluate(interp, pts[None])[0]
        for name, got in blocked.items():
            if not np.array_equal(got, whole[: len(got)]):
                failed.append((case, name))
        singles = np.array([evaluate(interp, p[None, None])[0, 0] for p in pts[::50]])
        if np.max(np.abs(singles - whole[::50])) > 1e-14 * np.sum(np.abs(interp.beta)):
            failed.append((case, "single points"))
print(failed)
"""


# d = 1 surrogates with moment tables evaluate without BLAS, so an
# Interpolant built from a fixed beta gives the same bytes under any BLAS
# thread count. Two BLAS threads round a row of a large block by where their
# halves start, so the stack is evaluated in cache-sized blocks and in one
# block. Prints the values in units of sum|beta|, as hex bytes.
THREAD_CHECK = """
import numpy as np
from cfqmc import kernels
from cfqmc.interpolate import Interpolant, evaluate
from cfqmc.kernels import KernelSpec
from cfqmc.points import midpoint_grid

out = []
cache_sized = kernels.BLOCK_BYTES
for k in (0, 1, 2):
    for support in (1.0, 0.3):
        m = 1024
        rng = np.random.default_rng(k)
        interp = Interpolant(
            KernelSpec(k, 1, support), midpoint_grid(m, 1), rng.normal(size=m)[:, None],
            exact_integral=np.zeros(1), jitter=0.0, residual_norm=0.0,
        )
        pts = rng.random((1001, 1))
        for block_bytes in (cache_sized, 1 << 30):
            kernels.BLOCK_BYTES = block_bytes
            out.append(evaluate(interp, pts[None])[0] / np.sum(np.abs(interp.beta)))
print(np.concatenate(out).tobytes().hex())
"""


def per_axis_values(interp, pts):
    """A one-column surrogate at the stack ``pts``, evaluated per axis in one
    block."""
    spec = interp.spec
    axis = KernelSpec(spec.k, 1, spec.support_radius), midpoint_axis(interp.nodes.side)[:, None]
    return interpolate._grid_values(interp.beta[:, 0], pts, axis)


def moment_builds(monkeypatch):
    """A list that records every d = 1 moment-table build from now on."""
    built = []
    build = interpolate._axis_moments
    monkeypatch.setattr(interpolate, "_axis_moments", lambda *args: built.append(args) or build(*args))
    return built


def run_check(script, threads, *args):
    """stdout of ``script``, given the arguments ``args``, in a fresh
    interpreter with that many BLAS threads."""
    src = str(Path(interpolate.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def assembled_u(sym, skew):
    """The axis eigenvectors U from a factor's two blocks: sym = U[:c, :c]
    and skew = U[:h, c:] (h = m // 2, c = m - h), the rows below them
    reversed, the skew ones negated, and zero skew entries in the middle row
    at odd m."""
    c, h = len(sym), len(skew)
    reverse = np.eye(h)[::-1]
    left = np.vstack([sym, reverse @ sym[:h]])
    right = np.vstack([skew, np.zeros((c - h, h)), -(reverse @ skew)])
    return np.hstack([left, right])


def dense_fit(spec, grid, values, nugget):
    """The reference solve of (G + nugget I) beta = values on the assembled
    Gram: (beta, exact integral, bare-kernel node residual)."""
    g = gram(spec, grid)
    beta = np.linalg.solve(g + nugget * np.eye(len(grid)), values)
    integral = float(beta @ kernel_integral(spec, grid.points))
    return beta, integral, float(np.max(np.abs(g @ beta - values)))


class TestFitBasics:
    def test_single_node_constant_column(self):
        spec = KernelSpec(0, 1)
        interp = fit(spec, midpoint_grid(1, 1), [[2.5]])
        np.testing.assert_allclose(interp.beta, [[2.5]])
        assert interp.exact_integral[0] == pytest.approx(2.5 * 0.75)
        assert evaluate(interp, np.array([[[0.75]]]))[0, 0] == pytest.approx(2.5 * 0.75)

    def test_zero_values_zero_surrogate(self):
        spec = KernelSpec(1, 2)
        interp = fit(spec, midpoint_grid(3, 2), np.zeros((9, 1)))
        np.testing.assert_allclose(interp.beta, 0.0, atol=1e-14)
        assert interp.exact_integral[0] == 0.0

    def test_reproducing_column(self):
        spec = KernelSpec(1, 1)
        nodes = midpoint_grid(5, 1)
        values = kernel_cross(spec, nodes.points, nodes.points[:1])
        interp = fit(spec, nodes, values)
        expected = np.zeros((5, 1))
        expected[0] = 1.0
        np.testing.assert_allclose(interp.beta, expected, atol=1e-10)

    def test_value_count_checked(self):
        with pytest.raises(ValueError):
            fit(KernelSpec(0, 1), midpoint_grid(4, 1), [[1.0], [2.0]])

    def test_one_column_needs_its_column_axis(self):
        nodes = midpoint_grid(4, 1)
        with pytest.raises(ValueError, match=r"\(M, R\)"):
            fit(KernelSpec(1, 1), nodes, np.ones(4))
        with pytest.raises(ValueError, match=r"\(M, R\)"):
            Interpolant(KernelSpec(1, 1), nodes, np.ones(4), np.zeros(1), jitter=0.0, residual_norm=0.0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_evaluate_takes_one_stack_per_column(self, d):
        # a one-column fit takes a (1, n, d) stack, not a bare (n, d) one or
        # a point
        interp = fit(KernelSpec(1, d), midpoint_grid(4, d), np.ones((4**d, 1)))
        assert evaluate(interp, np.full((1, 5, d), 0.5)).shape == (1, 5)
        for shape in ((5, d), (d,)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                evaluate(interp, np.full(shape, 0.5))

    def test_no_cached_state(self):
        # the d = 1 moment tables are formed per evaluation, not kept on the
        # surrogate
        interp = fit(KernelSpec(1, 1), midpoint_grid(8, 1), np.ones((8, 1)))
        evaluate(interp, np.full((1, 3, 1), 0.5))
        assert not hasattr(interp, "moments")


class TestInterpolationExactness:
    @pytest.mark.parametrize("d,m", [(1, 256), (2, 16), (3, 6)])
    def test_node_residual_small(self, d, m):
        rng = np.random.default_rng(d)
        nodes = midpoint_grid(m, d)
        freq = rng.uniform(1.0, 4.0, size=d)
        values = np.sin(nodes.points @ freq) + nodes.points[:, 0] ** 2
        interp = fit(KernelSpec(1, d), nodes, values[:, None])
        scale = 1.0 + np.max(np.abs(values))
        assert interp.residual_norm <= 1e-8 * scale

    def test_node_reproduction_via_evaluate(self):
        nodes = midpoint_grid(20, 1)
        values = np.cos(3.0 * nodes.points[:, 0])
        interp = fit(KernelSpec(2, 1), nodes, values[:, None])
        recovered = evaluate(interp, nodes.points[None])[0]
        np.testing.assert_allclose(recovered, values, atol=1e-8)

    def test_evaluate_far_from_nodes_is_zero(self):
        spec = KernelSpec(1, 1, 0.2)
        interp = fit(spec, midpoint_grid(1, 1), [[3.0]])
        assert evaluate(interp, np.array([[[0.9]]]))[0, 0] == 0.0

    def test_evaluate_hand_value(self):
        interp = Interpolant(
            spec=KernelSpec(0, 1),
            nodes=midpoint_grid(1, 1),
            beta=np.array([[1.0]]),
            exact_integral=np.array([0.75]),
            jitter=0.0,
            residual_norm=0.0,
        )
        assert evaluate(interp, np.array([[[0.75]]]))[0, 0] == pytest.approx(0.75)

    def test_batch_matches_scalar_path(self):
        spec = KernelSpec(1, 2, 0.6)
        nodes = midpoint_grid(4, 2)
        rng = np.random.default_rng(0)
        interp = fit(spec, nodes, rng.normal(size=16)[:, None])
        pts = rng.random((50, 2))
        batch = evaluate(interp, pts[None])[0]
        singles = [evaluate(interp, p[None, None])[0, 0] for p in pts]
        np.testing.assert_allclose(batch, singles, atol=1e-14)


class TestExactIntegral:
    # the oracle is a composite Gauss rule exact for the piecewise polynomial

    def test_matches_quadrature_1d(self, surrogate_quadrature):
        nodes = midpoint_grid(12, 1)
        values = np.exp(-3.0 * (nodes.points[:, 0] - 0.4) ** 2)
        interp = fit(KernelSpec(1, 1), nodes, values[:, None])
        assert interp.exact_integral[0] == pytest.approx(surrogate_quadrature(interp), abs=1e-12)

    def test_matches_quadrature_2d(self, surrogate_quadrature):
        nodes = midpoint_grid(5, 2)
        values = np.sin(2.0 * nodes.points[:, 0]) * (1.0 + nodes.points[:, 1])
        interp = fit(KernelSpec(1, 2), nodes, values[:, None])
        assert interp.exact_integral[0] == pytest.approx(surrogate_quadrature(interp), abs=1e-12)

    def test_recomputable_from_fields(self):
        nodes = midpoint_grid(6, 2)
        rng = np.random.default_rng(5)
        interp = fit(KernelSpec(2, 2), nodes, rng.normal(size=36)[:, None])
        recomputed = float(interp.beta[:, 0] @ kernel_integral(interp.spec, nodes.points))
        assert interp.exact_integral[0] == pytest.approx(recomputed, rel=1e-14)


class TestNormMinimality:
    def test_fitted_coefficients_minimize_quadratic_form(self):
        # perturb the coefficients along the Gram's bottom eigendirections so
        # the node equations stay satisfied; the form drop is then bounded by
        # 2 |beta . G eps| <= 2 ||beta|| ||G eps||, so scaling each direction
        # to ||G eps|| <= 1e-9 / (2 ||beta||) keeps the minimality inequality
        # checkable at the 1e-8 level while the coefficients genuinely move
        spec = KernelSpec(2, 1)
        nodes = midpoint_grid(96, 1)
        values = np.sin(4.0 * nodes.points[:, 0])
        beta = fit(spec, nodes, values[:, None]).beta[:, 0]
        g = gram(spec, nodes)
        base_form = float(beta @ g @ beta)
        eigvals, eigvecs = np.linalg.eigh(g)
        beta_norm = np.linalg.norm(beta)
        rng = np.random.default_rng(7)
        for trial in range(20):
            direction = eigvecs[:, :3] @ rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            g_dir = g @ direction
            scale = 1e-9 / (2.0 * beta_norm * np.linalg.norm(g_dir))
            eps = direction * scale
            assert np.max(np.abs(g @ eps)) <= 1e-6  # node equations still hold
            assert np.linalg.norm(eps) > 0.0
            perturbed = beta + eps
            form = float(perturbed @ g @ perturbed)
            assert base_form <= form + 1e-8


class TestControlFunctional:
    def test_zero_fit_gives_zero_correction(self):
        interp = fit(KernelSpec(1, 1), midpoint_grid(8, 1), np.zeros((8, 1)))
        pts = uniform_random(100, 1, seed=1).points
        np.testing.assert_allclose(control_functional(interp, pts[None]), 0.0, atol=1e-14)

    def test_correction_plus_integral_recovers_surrogate(self):
        rng = np.random.default_rng(2)
        interp = fit(KernelSpec(1, 2), midpoint_grid(4, 2), rng.normal(size=16)[:, None])
        pts = rng.random((50, 2))
        lhs = control_functional(interp, pts[None])[0] + interp.exact_integral[0]
        np.testing.assert_allclose(lhs, evaluate(interp, pts[None])[0], atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2])
    def test_columns_each_lose_their_own_integral(self, d):
        nodes = midpoint_grid(6, d)
        batch = fit(KernelSpec(1, d), nodes, bump_columns(nodes, 3, d))
        stacks = np.random.default_rng(d).random((3, 30, d))
        psi = control_functional(batch, stacks)
        assert psi.shape == (3, 30)
        for r in range(3):
            integral = batch.exact_integral[r, None]
            column = Interpolant(batch.spec, nodes, batch.beta[:, r, None].copy(), integral, jitter=0.0, residual_norm=0.0)
            assert np.array_equal(psi[r], control_functional(column, stacks[r, None])[0])

    def test_monte_carlo_mean_near_zero(self):
        nodes = midpoint_grid(10, 1)
        values = np.sin(5.0 * nodes.points[:, 0]) + 0.3
        interp = fit(KernelSpec(1, 1), nodes, values[:, None])
        pts = uniform_random(200_000, 1, seed=8).points
        psi = control_functional(interp, pts[None])[0]
        se = psi.std(ddof=1) / np.sqrt(len(psi))
        assert abs(psi.mean()) <= 3 * se


class TestGridPath:
    """Midpoint-grid fits solve through the cached eigenpairs of the axis Gram
    and evaluate per axis or from moment tables; they must give the surrogate
    of the assembled Gram solved directly."""

    # the oracle solves with the fit's own nugget (None), or with none (0.0):
    # on these small grids the spectral nugget must cost nothing against
    # exact interpolation
    @pytest.mark.parametrize("oracle_nugget", [None, 0.0])
    @pytest.mark.parametrize("support", [1.0, 0.7])
    @pytest.mark.parametrize("d,m", [(1, 12), (2, 6), (3, 4), (4, 3)])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_dense_path(self, k, d, m, support, oracle_nugget):
        spec = KernelSpec(k, d, support)
        grid = midpoint_grid(m, d)
        rng = np.random.default_rng(100 * k + 10 * d + m)
        values = np.sin(grid.points @ rng.uniform(1.0, 4.0, size=d)) + grid.points[:, 0] ** 2
        fast = fit(spec, grid, values[:, None])
        nugget = fast.jitter if oracle_nugget is None else oracle_nugget
        beta, integral, residual = dense_fit(spec, grid, values, nugget)
        assert fast.exact_integral[0] == pytest.approx(integral, abs=1e-10)
        assert fast.residual_norm == pytest.approx(residual, abs=1e-10)
        stack = np.vstack([rng.random((200, d)), grid.points, np.zeros((1, d)), np.ones((1, d))])
        dense = kernel_cross(spec, stack, grid.points) @ beta
        np.testing.assert_allclose(evaluate(fast, stack[None])[0], dense, rtol=0.0, atol=1e-10)
        for p, want in zip(stack[::37], dense[::37]):
            assert evaluate(fast, p[None, None])[0, 0] == pytest.approx(want, abs=1e-10)

    def test_grid_evaluation_spans_blocks(self, monkeypatch):
        spec = KernelSpec(1, 2)
        grid = midpoint_grid(5, 2)
        values = np.cos(3.0 * grid.points[:, 1]) * grid.points[:, 0]
        fast = fit(spec, grid, values[:, None])
        beta, _, _ = dense_fit(spec, grid, values, fast.jitter)
        pts = np.random.default_rng(3).random((1000, 2))
        whole = evaluate(fast, pts[None])[0]
        # rows are 4 * d * m = 40 floats wide: eight rows per block
        monkeypatch.setattr(kernels, "BLOCK_BYTES", 8 * 40 * 8)
        np.testing.assert_array_equal(evaluate(fast, pts[None])[0], whole)
        np.testing.assert_allclose(kernel_cross(spec, pts, grid.points) @ beta, whole, rtol=0.0, atol=1e-10)

    def test_1d_support_under_node_spacing_evaluates_per_axis(self, monkeypatch):
        # 4 / rho centres would take 50 MB of tables for 16 nodes
        grid = midpoint_grid(16, 1)
        interp = fit(KernelSpec(2, 1, 1e-5), grid, np.arange(16.0)[:, None])
        built = moment_builds(monkeypatch)
        # each node's kernel reaches no other node
        np.testing.assert_array_equal(evaluate(interp, grid.points[None]), interp.beta.T)
        assert not built

    def test_1d_evaluation_spans_memory_blocks(self, monkeypatch):
        interp = fit(KernelSpec(2, 1, 0.3), midpoint_grid(64, 1), np.sin(np.arange(64.0))[:, None])
        pts = np.random.default_rng(6).random((1000, 1))
        tables = interpolate._axis_moments(interp.spec, interp.nodes.points[:, 0], interp.beta)
        whole = interpolate._axis_values(interp.spec, tables, pts[:, 0], 0)
        # a point holds 10 (deg + 1) = 80 floats: seven points per block
        monkeypatch.setattr(kernels, "BLOCK_BYTES", 7 * 80 * 8)
        np.testing.assert_array_equal(evaluate(interp, pts[None])[0], whole)

    def test_blocking_leaves_values_unchanged(self):
        # BLAS threads split a block's rows by count, so with more than one
        # thread the d >= 2 floats depend on the blocking; the check pins one
        # thread. The k = 2 cases, which take about as long as the k = 0 and
        # 1 ones together, run in a second process beside them
        with ThreadPoolExecutor(2) as pool:
            found = list(pool.map(lambda ks: run_check(BLOCKING_CHECK, "1", *ks).split(), ["01", "2"]))
        assert found == [["[]"], ["[]"]]

    def test_1d_values_independent_of_blas_threads(self):
        one, two = (np.frombuffer(bytes.fromhex(run_check(THREAD_CHECK, t))) for t in "12")
        assert np.array_equal(one, two)

    @pytest.mark.parametrize("support", [1.0, 0.7, 0.3, 0.1])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_1d_moments_match_direct_sum(self, monkeypatch, k, support):
        # the moment path against the per-axis kernel sum, at the cube's ends,
        # the nodes, the window edges u_i +- rho and random points; past
        # m = 2048 (k = 2 only) at every 32nd node and edge and fewer random
        # points
        eps = np.finfo(np.float64).eps
        bound = (32.0 if support == 1.0 else 512.0) * eps
        spec = KernelSpec(k, 1, support)
        rng = np.random.default_rng(10 * k + int(10 * support))
        built = moment_builds(monkeypatch)
        for m in (1, 2, 37, 1024, 2048) + ((4096, 8192) if k == 2 else ()):
            grid = midpoint_grid(m, 1)
            interp = Interpolant(
                spec, grid, rng.normal(size=m)[:, None], exact_integral=np.zeros(1), jitter=0.0, residual_norm=0.0
            )
            step, draws = (1, 600) if m <= 2048 else (32, 300)
            u = grid.points[::step, 0]
            edges = np.clip(np.concatenate([u - support, u + support]), 0.0, 1.0)
            pts = np.concatenate([[0.0, 1.0], u, edges, rng.random(draws)])[:, None]
            direct = per_axis_values(interp, pts)
            err = np.max(np.abs(evaluate(interp, pts[None])[0] - direct))
            assert len(built) == 1, m  # the moment path
            built.clear()
            assert err <= bound * np.sum(np.abs(interp.beta)), (m, err)

    @pytest.mark.parametrize("support", [1.0, 0.7, 0.3, 0.1])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_1d_float64_moments_match_direct_sum(self, monkeypatch, k, support):
        # the same bounds where long double is double: the prefix sums take
        # no long double, so a narrow host keeps them
        monkeypatch.setattr(np, "longdouble", np.float64)
        self.test_1d_moments_match_direct_sum(monkeypatch, k, support)

    def test_1d_values_equal_where_long_double_is_double(self, monkeypatch):
        # the moment tables take no long double, so a host where it is
        # double evaluates the same bytes
        rng = np.random.default_rng(12)
        interp = fit(KernelSpec(2, 1, 0.3), midpoint_grid(2048, 1), rng.normal(size=(2048, 3)))
        pts = rng.random((3, 1000, 1))
        here = evaluate(interp, pts)
        monkeypatch.setattr(np, "longdouble", np.float64)
        assert evaluate(interp, pts).tobytes() == here.tobytes()

    def test_exact_part_prefix_sums_are_exact(self):
        # against a Fraction oracle, on rows of terms over 2^-60..2^60, a row
        # of pairs that cancel, a row of one sign whose sums grow to w max|t|,
        # a zero row and a row with a NaN: every prefix sum of hi and every
        # t - hi is exact, and a row's NaN stays in it
        rng = np.random.default_rng(19)
        w = 256
        rows = rng.normal(size=(2, 3, w)) * np.ldexp(1.0, rng.integers(-60, 61, size=(2, 3, w)))
        rows[0, 1, w // 2 :] = -rows[0, 1, : w // 2][::-1] * (1.0 + np.ldexp(1.0, -40))
        rows[0, 2] = rng.uniform(0.5, 1.0, size=w)
        rows[1, 0] = 0.0
        rows[1, 2, 7] = np.nan
        hi = interpolate._exact_part(rows)
        finite = rows.reshape(-1, w)[:-1], hi.reshape(-1, w)[:-1]
        for t, h in zip(*finite):
            assert [Fraction(s) for s in np.cumsum(h)] == list(accumulate(map(Fraction, h)))
            assert [Fraction(x) for x in t - h] == [Fraction(a) - Fraction(b) for a, b in zip(t, h)]
        assert not np.any(hi[1, 0]) and np.isnan(hi[1, 2, 7])
        assert np.array_equal(interpolate._exact_part(rows[:, :2]), hi[:, :2])

    @pytest.mark.parametrize("d,m", [(1, 1024), (2, 32), (3, 8), (4, 5)])
    def test_kron_apply_matches_tensordot(self, d, m):
        rng = np.random.default_rng(d)
        mat = rng.normal(size=(m, m))
        t = rng.normal(size=m**d)
        for op in (mat, mat.T):  # fit applies U^T, then U
            reference = t.reshape((m,) * d)
            for _ in range(d):
                reference = np.tensordot(reference, op, axes=(0, 1))
            assert np.array_equal(interpolate._kron_apply(op, t, d), reference.reshape(-1))

    def test_factor_computed_once_per_shape(self, monkeypatch):
        interpolate._FACTORS.clear()
        calls = []
        monkeypatch.setattr(interpolate, "gram", lambda *a, **kw: calls.append(a) or gram(*a, **kw))
        rng = np.random.default_rng(4)
        for _ in range(3):
            fit(KernelSpec(1, 2), midpoint_grid(7, 2), rng.normal(size=(49, 1)))
            fit(KernelSpec(1, 1), midpoint_grid(7, 1), rng.normal(size=(7, 1)))
        fit(KernelSpec(1, 1, 0.5), midpoint_grid(7, 1), rng.normal(size=(7, 1)))
        assert len(calls) == 2

    # 64^4 floats would take 128 MiB, so that shape is left out
    @pytest.mark.parametrize(
        "d,m", [(d, m) for d in (1, 2, 3, 4) for m in (1, 2, 3, 8, 31, 64) if m**d <= 1 << 20]
    )
    def test_eigen_maps_match_assembled_u(self, d, m):
        # both directions against tensordot with U assembled here from the
        # two blocks
        factor = interpolate._grid_factor(KernelSpec(1, d), m)
        u = assembled_u(factor.sym, factor.skew)
        t = np.random.default_rng(m + d).normal(size=m**d)
        for mat, apply in zip((u.T, u), interpolate._eigen_maps(factor, d)):
            reference = t.reshape((m,) * d)
            for _ in range(d):
                reference = np.tensordot(reference, mat, axes=(0, 1))
            reference = reference.reshape(-1)
            got = apply(t)
            assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference))
            if d > 1:  # U assembled bitwise, then the same products
                assert np.array_equal(got, reference)

    @pytest.mark.parametrize("support", [1.0, 0.3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_persymmetric_folds_are_gram_folds(self, k, support):
        # T + F and T - F, bit for bit as folded from the assembled Gram
        spec = KernelSpec(k, 1, support)
        for m in (1, 2, 3, 8, 31, 64, 1024):
            h, c = m // 2, m - m // 2
            g = gram(spec, midpoint_grid(m, 1))
            top, flip = g[:h, :h], g[:h, c:][:, ::-1]
            want_sym = g[:c, :c].copy()
            want_sym[:h, :h] = top + flip
            if m % 2:
                want_sym[h, :h] = want_sym[:h, h] = np.sqrt(2.0) * g[:h, h]
            sym, skew = interpolate._persymmetric_folds(spec, midpoint_axis(m)[:, None])
            assert np.array_equal(sym, want_sym) and np.array_equal(skew, top - flip), m

    @pytest.mark.parametrize("support", [1.0, 0.3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_persymmetric_eigh_factors_gram(self, k, support):
        # against the assembled Gram: reconstruction read at most 2.1e-13 of
        # max|G| (np.linalg.eigh of G: 2.2e-13) and the eigenvalues at most
        # 0.61 m eps max|s| from np.linalg.eigvalsh
        eps = np.finfo(np.float64).eps
        spec = KernelSpec(k, 1, support)
        for m in (1, 2, 3, 8, 31, 64, 1024):
            g = gram(spec, midpoint_grid(m, 1))
            values, sym, skew = interpolate._persymmetric_eigh(spec, midpoint_axis(m)[:, None])
            assert values.shape == (m,) and sym.shape == (m - m // 2,) * 2 and skew.shape == (m // 2,) * 2
            vectors = assembled_u(sym, skew)
            scale = np.max(np.abs(g))
            assert np.max(np.abs((vectors * values) @ vectors.T - g)) <= 1e-12 * scale, m
            assert np.max(np.abs(vectors.T @ vectors - np.eye(m))) <= 1e-12, m
            spread = np.max(np.abs(np.sort(values) - np.linalg.eigvalsh(g)))
            assert spread <= 2.0 * m * eps * np.max(np.abs(values)), m

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_cold_factor_memory_bounded(self):
        # a 2048-node axis factor keeps two 1024 x 1024 blocks, 16 MiB. One
        # eigh of the whole Gram holds the Gram, LAPACK's copy and workspace
        # and the eigenvectors at once and raised the peak RSS by 164 MB; the
        # half-order split with an m x m Gram and U raised it by 75 MB, and
        # without them by 51.5 MiB, which the bound of 2 x 8 m^2 (64 MiB)
        # leaves 24% above. The peak is the child's own VmHWM: its
        # ru_maxrss starts from the parent's RSS at the fork.
        m = 2048
        script = (
            "from cfqmc import interpolate\n"
            "from cfqmc.kernels import KernelSpec\n"
            "def peak():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
            "before = peak()\n"
            f"interpolate._grid_factor(KernelSpec(1, 1), {m})\n"
            "print(1024 * (peak() - before), sum(f.nbytes for f in interpolate._FACTORS.values()))\n"
        )
        grown, held = map(int, run_check(script, "1").split())
        assert grown < 2 * 8 * m * m, grown
        assert held == 16 << 20

    def test_non_grid_node_sets_rejected(self):
        # the type decides, not the coordinates: an unshifted copy of the
        # grid is a plain PointSet too
        spec = KernelSpec(1, 2)
        grid = midpoint_grid(4, 2)
        values = np.arange(16.0)[:, None]
        swapped = PointSet(grid.points[:, ::-1])  # rows in another order
        for nodes in (random_shift(grid, [1e-3, 0.0]), random_shift(grid, [0.0, 0.0]), swapped, halton(16, 2)):
            with pytest.raises(TypeError, match="MidpointGrid"):
                fit(spec, nodes, values)
            with pytest.raises(TypeError, match="MidpointGrid"):
                Interpolant(spec, nodes, values, exact_integral=np.zeros(1), jitter=0.0, residual_norm=0.0)

    def test_node_dimension_checked(self):
        # a grid of another dimension would reshape into the wrong tensor
        for spec, grid in ((KernelSpec(1, 2), midpoint_grid(4, 1)), (KernelSpec(1, 1), midpoint_grid(4, 2))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                fit(spec, grid, np.ones((len(grid), 1)))
            with pytest.raises(ValueError, match="dimension mismatch"):
                Interpolant(spec, grid, np.ones((len(grid), 1)), exact_integral=np.zeros(1), jitter=0.0, residual_norm=0.0)

    @pytest.mark.parametrize("m", [1400, 2048])
    def test_nugget_keeps_grid_spectrum_positive(self, m):
        # the k = 2 axis Gram on these grids is numerically singular: its
        # computed smallest eigenvalue is below zero (-2.0e-14 and -1.25e-13
        # with one OpenBLAS thread, -1.2e-13 and -1.5e-13 with two), so a
        # zero nugget would divide by a non-positive eigenvalue. The node
        # residual read 2.8e-8 and 3.7e-8 with one thread, 2.9e-8 and 3.7e-8
        # with two.
        spec = KernelSpec(2, 1)
        nodes = midpoint_grid(m, 1)
        values = np.sin(4.0 * nodes.points[:, 0])
        interp = fit(spec, nodes, values[:, None])
        spectrum = interpolate._grid_factor(spec, m).values
        assert spectrum.min() < 0.0
        assert interp.jitter >= -spectrum.min()
        assert np.all(spectrum + interp.jitter > 0.0)
        assert np.all(np.isfinite(interp.beta))
        assert interp.residual_norm <= 1e-7

    def test_dimension_mismatch_rejected(self):
        interp = fit(KernelSpec(1, 2), midpoint_grid(3, 2), np.ones((9, 1)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            evaluate(interp, np.ones((1, 4, 3)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_empty_stack_evaluates_to_empty(self, d):
        interp = fit(KernelSpec(1, d), midpoint_grid(3, d), np.ones((3**d, 1)))
        out = evaluate(interp, np.empty((0, d))[None])[0]
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    @pytest.mark.parametrize(
        "change",
        [{"beta": np.zeros((16, 1))}, {"spec": KernelSpec(1, 1, 0.3)}, {"spec": KernelSpec(2, 1)}],
        ids=["beta", "support", "k"],
    )
    def test_replace_evaluates_like_a_fresh_surrogate(self, change):
        # the d = 1 moment tables follow the fields, not the surrogate copied
        interp = fit(KernelSpec(1, 1), midpoint_grid(16, 1), np.sin(np.arange(16.0))[:, None])
        changed = replace(interp, **change)
        fresh = Interpolant(
            changed.spec, changed.nodes, changed.beta.copy(), exact_integral=np.zeros(1), jitter=0.0, residual_norm=0.0
        )
        pts = np.linspace(0.0, 1.0, 33)[None, :, None]
        np.testing.assert_array_equal(evaluate(changed, pts), evaluate(fresh, pts))
        if "beta" in change:
            assert np.all(evaluate(changed, pts) == 0.0)


def bump_columns(nodes, r_count, seed):
    """R node-value columns: Gaussian bumps, every other column with unit
    noise, so both smooth and rough values are fitted."""
    rng = np.random.default_rng(seed)
    x = nodes.points
    centres = rng.random((r_count, x.shape[1]))
    widths = rng.uniform(1, 30, r_count)
    vals = np.exp(-widths * np.sum((x[:, None, :] - centres) ** 2, axis=2))
    vals[:, 1::2] += rng.normal(size=vals[:, 1::2].shape)
    return vals


class TestMultiColumnFit:
    @pytest.mark.parametrize("support", [1.0, 0.3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_1d_batch_matches_column_fits(self, k, support):
        # At d = 1 a batch rounds another way than a column alone. With
        # F = eps sum|beta_i a_i| (a the node integrals) of the column fit,
        # the integrals differed by at most 7.0 F and the batch residual from
        # the largest column residual by 4.6 F (of the largest column's F),
        # over k = 0, 1, 2, supports 1, 0.6, 0.3 and 60 batches of 2-11
        # columns at m = 1024, with one and two BLAS threads. The
        # coefficients carry the near-null directions at full weight, so
        # they moved by up to 3.7e9 F; they stay within 0.46 of
        # eps ||y||_2 / nugget, the rounding of U^T y amplified by the
        # smallest shifted eigenvalue.
        eps = np.finfo(np.float64).eps
        spec = KernelSpec(k, 1, support)
        nodes = midpoint_grid(1024, 1)
        a = kernel_integral(spec, nodes.points)
        vals = bump_columns(nodes, 10, k)
        batch = fit(spec, nodes, vals)
        assert batch.beta.shape == vals.shape and batch.exact_integral.shape == (10,)
        singles = [fit(spec, nodes, vals[:, r, None]) for r in range(vals.shape[1])]
        floors = [eps * np.sum(np.abs(s.beta[:, 0] * a)) for s in singles]
        for r, (single, floor) in enumerate(zip(singles, floors)):
            assert batch.jitter == single.jitter
            assert abs(batch.exact_integral[r] - single.exact_integral[0]) <= 16 * floor
            beta_bound = eps * np.linalg.norm(vals[:, r]) / single.jitter
            assert np.max(np.abs(batch.beta[:, r] - single.beta[:, 0])) <= beta_bound
        assert abs(batch.residual_norm - max(s.residual_norm for s in singles)) <= 16 * max(floors)

    @pytest.mark.parametrize("d,m", [(2, 16), (2, 7), (3, 6)])
    def test_batch_matches_column_fits_bitwise_above_1d(self, d, m):
        # At d >= 2 a batch only adds rows to each axis product, and every
        # integral is its own column's dot product: the floats are those of
        # the column fits.
        spec = KernelSpec(1, d, 0.7)
        nodes = midpoint_grid(m, d)
        vals = bump_columns(nodes, 5, d * m)
        batch = fit(spec, nodes, vals)
        singles = [fit(spec, nodes, vals[:, r, None]) for r in range(vals.shape[1])]
        assert np.array_equal(batch.beta, np.hstack([s.beta for s in singles]))
        assert np.array_equal(batch.exact_integral, np.concatenate([s.exact_integral for s in singles]))
        assert batch.residual_norm == max(s.residual_norm for s in singles)

    def test_column_is_the_one_column_surrogate(self, monkeypatch):
        # evaluate(batch, stacks)[r] is the one-column surrogate of column r
        # at stack r, bitwise: at d = 1 from the stacked moment tables and,
        # with 16 m rho < 1, per axis, and per axis at d = 2, 3
        built = moment_builds(monkeypatch)
        for d, m, support in [(1, 64, 0.7), (1, 64, 5e-4), (2, 5, 0.7), (3, 4, 0.7)]:
            spec = KernelSpec(2, d, support)
            nodes = midpoint_grid(m, d)
            batch = fit(spec, nodes, bump_columns(nodes, 3, d))
            stacks = np.random.default_rng(d).random((3, 40, d))
            built.clear()
            values = evaluate(batch, stacks)
            assert len(built) == (d == 1 and support == 0.7)
            assert values.shape == (3, 40)
            for r in range(3):
                column = Interpolant(
                    spec, nodes, batch.beta[:, r, None].copy(), exact_integral=np.zeros(1), jitter=0.0, residual_norm=0.0
                )
                assert np.array_equal(values[r], evaluate(column, stacks[r, None])[0]), (d, support, r)

    @pytest.mark.parametrize("d", [1, 2])
    def test_points_not_one_stack_per_column_rejected(self, d):
        nodes = midpoint_grid(6, d)
        batch = fit(KernelSpec(1, d), nodes, bump_columns(nodes, 3, d))
        assert evaluate(batch, np.full((3, 40, d), 0.5)).shape == (3, 40)
        for shape in ((40, d), (2, 40, d), (4, 40, d), (3, 40, d + 1), (d,)):
            with pytest.raises(ValueError):
                evaluate(batch, np.full(shape, 0.5))

    @pytest.mark.parametrize("d,m", [(1, 64), (2, 8)])
    def test_non_finite_column_leaves_the_others_alone(self, d, m):
        spec = KernelSpec(1, d)
        nodes = midpoint_grid(m, d)
        vals = bump_columns(nodes, 4, m)
        clean = fit(spec, nodes, vals)
        vals[3, 2] = np.nan
        dirty = fit(spec, nodes, vals)
        keep = [0, 1, 3]
        assert np.array_equal(dirty.beta[:, keep], clean.beta[:, keep])
        assert np.array_equal(dirty.exact_integral[keep], clean.exact_integral[keep])
        assert np.all(np.isnan(dirty.beta[:, 2])) and np.isnan(dirty.exact_integral[2])
