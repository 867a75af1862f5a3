"""Surrogate fitting, evaluation, exact integrals and the zero-mean correction."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from cfqmc import interpolate, kernels
from cfqmc.interpolate import (
    Interpolant,
    control_functional,
    default_jitter,
    evaluate,
    fit,
)
from cfqmc.kernels import KernelSpec, gram, kernel_cross, kernel_integral
from cfqmc.points import PointSet, halton, midpoint_grid, random_shift, uniform_random

# the d = 1 moment tables exist only where long double is wider than double
NEEDS_WIDE_LONG_DOUBLE = pytest.mark.skipif(
    not interpolate._WIDE_LONG_DOUBLE, reason="long double is double: no d = 1 moment tables"
)


# Per-axis evaluation (d >= 2, and d = 1 where long double is double): every
# blocking of a stack gives the floats of one block over it: the cache-sized
# blocks, blocks bounded by kernels.BLOCK_BYTES, and 8-row blocks with a
# one-row tail. A lone row takes BLAS's vector path, so a point evaluated on
# its own agrees to rounding, not bitwise. Moment-table evaluation (d = 1
# where long double is wider): the whole stack, both parts of every split of
# it and each point on its own give the same floats. Prints the failures.
BLOCKING_CHECK = """
import numpy as np
from cfqmc import interpolate
from cfqmc.interpolate import evaluate, fit
from cfqmc.kernels import KernelSpec, row_blocks
from cfqmc.points import midpoint_grid

failed = []
cache_sized = interpolate._GRID_BLOCK_BYTES
for k in (0, 1, 2):
    for support in (1.0, 0.7):
        for d, m in ((1, 1024), (1, 37), (2, 32), (2, 5), (3, 8)):
            case = (k, support, d, m)
            rng = np.random.default_rng(10 * k + d)
            interp = fit(KernelSpec(k, d, support), midpoint_grid(m, d), rng.normal(size=m**d))
            pts = rng.random((1001, d))
            if d == 1 and interpolate._WIDE_LONG_DOUBLE:
                whole = evaluate(interp, pts)
                for split in range(1, len(pts)):
                    parts = (evaluate(interp, pts[:split]), evaluate(interp, pts[split:]))
                    if not np.array_equal(np.concatenate(parts), whole):
                        failed.append((case, split))
                if not np.array_equal([evaluate(interp, p) for p in pts], whole):
                    failed.append((case, "single points"))
                continue
            whole = interpolate._grid_values(interp, pts)
            old = np.empty(1000)
            for block in row_blocks(1000, max(4 * d * m, m ** (d - 1))):
                old[block] = interpolate._grid_values(interp, pts[:1000][block])
            interpolate._GRID_BLOCK_BYTES = cache_sized
            blocked = {"cache-sized": evaluate(interp, pts), "8 MB": old}
            interpolate._GRID_BLOCK_BYTES = 8 * 8 * 4 * d * m
            blocked["8-row"] = evaluate(interp, pts)
            for name, got in blocked.items():
                if not np.array_equal(got, whole[: len(got)]):
                    failed.append((case, name))
            singles = np.array([evaluate(interp, p) for p in pts[::50]])
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
from cfqmc import interpolate
from cfqmc.interpolate import Interpolant, evaluate
from cfqmc.kernels import KernelSpec
from cfqmc.points import midpoint_grid

out = []
cache_sized = interpolate._GRID_BLOCK_BYTES
for k in (0, 1, 2):
    for support in (1.0, 0.3):
        m = 1024
        rng = np.random.default_rng(k)
        interp = Interpolant(
            KernelSpec(k, 1, support), midpoint_grid(m, 1), rng.normal(size=m),
            exact_integral=0.0, jitter=0.0, residual_norm=0.0,
        )
        pts = rng.random((1001, 1))
        for block_bytes in (cache_sized, 1 << 30):
            interpolate._GRID_BLOCK_BYTES = block_bytes
            out.append(evaluate(interp, pts) / np.sum(np.abs(interp.beta)))
print(np.concatenate(out).tobytes().hex())
"""


def run_check(script, threads):
    """stdout of ``script`` in a fresh interpreter with that many BLAS threads."""
    src = str(Path(interpolate.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def dense_fit(spec, grid, values, jitter):
    """The reference solve of (G + jitter I) beta = values on the assembled
    Gram: (beta, exact integral, bare-kernel node residual)."""
    g = gram(spec, grid)
    beta = np.linalg.solve(g + jitter * np.eye(len(grid)), values)
    integral = float(beta @ kernel_integral(spec, grid.points))
    return beta, integral, float(np.max(np.abs(g @ beta - values)))


class TestFitBasics:
    def test_single_node_constant_column(self):
        spec = KernelSpec(0, 1)
        interp = fit(spec, midpoint_grid(1, 1), [2.5], jitter=0.0)
        np.testing.assert_allclose(interp.beta, [2.5])
        assert interp.exact_integral == pytest.approx(2.5 * 0.75)
        assert evaluate(interp, np.array([0.75])) == pytest.approx(2.5 * 0.75)

    def test_zero_values_zero_surrogate(self):
        spec = KernelSpec(1, 2)
        interp = fit(spec, midpoint_grid(3, 2), np.zeros(9))
        np.testing.assert_allclose(interp.beta, 0.0, atol=1e-14)
        assert interp.exact_integral == 0.0

    def test_reproducing_column(self):
        spec = KernelSpec(1, 1)
        nodes = midpoint_grid(5, 1)
        values = kernel_cross(spec, nodes.points, nodes.points[:1]).ravel()
        interp = fit(spec, nodes, values, jitter=0.0)
        expected = np.zeros(5)
        expected[0] = 1.0
        np.testing.assert_allclose(interp.beta, expected, atol=1e-10)

    def test_value_count_checked(self):
        with pytest.raises(ValueError):
            fit(KernelSpec(0, 1), midpoint_grid(4, 1), [1.0, 2.0])

    def test_default_jitter_scales_with_nodes(self):
        assert default_jitter(100) == pytest.approx(1e-8)


class TestInterpolationExactness:
    @pytest.mark.parametrize("d,m", [(1, 256), (2, 16), (3, 6)])
    def test_node_residual_small(self, d, m):
        rng = np.random.default_rng(d)
        nodes = midpoint_grid(m, d)
        freq = rng.uniform(1.0, 4.0, size=d)
        values = np.sin(nodes.points @ freq) + nodes.points[:, 0] ** 2
        interp = fit(KernelSpec(1, d), nodes, values, jitter=1e-10)
        scale = 1.0 + np.max(np.abs(values))
        assert interp.residual_norm <= 1e-8 * scale

    def test_node_reproduction_via_evaluate(self):
        nodes = midpoint_grid(20, 1)
        values = np.cos(3.0 * nodes.points[:, 0])
        interp = fit(KernelSpec(2, 1), nodes, values, jitter=1e-12)
        recovered = evaluate(interp, nodes.points)
        np.testing.assert_allclose(recovered, values, atol=1e-8)

    def test_evaluate_far_from_nodes_is_zero(self):
        spec = KernelSpec(1, 1, 0.2)
        interp = fit(spec, midpoint_grid(1, 1), [3.0], jitter=0.0)
        assert evaluate(interp, np.array([0.9])) == 0.0

    def test_evaluate_hand_value(self):
        interp = Interpolant(
            spec=KernelSpec(0, 1),
            nodes=midpoint_grid(1, 1),
            beta=np.array([1.0]),
            exact_integral=0.75,
            jitter=0.0,
            residual_norm=0.0,
        )
        assert evaluate(interp, np.array([0.75])) == pytest.approx(0.75)

    def test_batch_matches_scalar_path(self):
        spec = KernelSpec(1, 2, 0.6)
        nodes = midpoint_grid(4, 2)
        rng = np.random.default_rng(0)
        interp = fit(spec, nodes, rng.normal(size=16))
        pts = rng.random((50, 2))
        batch = evaluate(interp, pts)
        singles = [evaluate(interp, p) for p in pts]
        np.testing.assert_allclose(batch, singles, atol=1e-14)


class TestExactIntegral:
    def test_matches_quadrature_1d(self):
        nodes = midpoint_grid(12, 1)
        values = np.exp(-3.0 * (nodes.points[:, 0] - 0.4) ** 2)
        interp = fit(KernelSpec(1, 1), nodes, values)
        oracle, _ = quad(
            lambda x: evaluate(interp, np.array([x])), 0.0, 1.0,
            limit=300, epsabs=1e-11, epsrel=1e-11,
        )
        assert interp.exact_integral == pytest.approx(oracle, abs=1e-8)

    def test_matches_quadrature_2d(self):
        nodes = midpoint_grid(5, 2)
        values = np.sin(2.0 * nodes.points[:, 0]) * (1.0 + nodes.points[:, 1])
        interp = fit(KernelSpec(1, 2), nodes, values)
        oracle, _ = dblquad(
            lambda y, x: evaluate(interp, np.array([x, y])),
            0.0, 1.0, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10,
        )
        assert interp.exact_integral == pytest.approx(oracle, abs=1e-8)

    def test_recomputable_from_fields(self):
        nodes = midpoint_grid(6, 2)
        rng = np.random.default_rng(5)
        interp = fit(KernelSpec(2, 2), nodes, rng.normal(size=36))
        recomputed = float(interp.beta @ kernel_integral(interp.spec, nodes.points))
        assert interp.exact_integral == pytest.approx(recomputed, rel=1e-14)


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
        interp = fit(spec, nodes, values)
        g = gram(spec, nodes)
        base_form = float(interp.beta @ g @ interp.beta)
        eigvals, eigvecs = np.linalg.eigh(g)
        beta_norm = np.linalg.norm(interp.beta)
        rng = np.random.default_rng(7)
        for trial in range(20):
            direction = eigvecs[:, :3] @ rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            g_dir = g @ direction
            scale = 1e-9 / (2.0 * beta_norm * np.linalg.norm(g_dir))
            eps = direction * scale
            assert np.max(np.abs(g @ eps)) <= 1e-6  # node equations still hold
            assert np.linalg.norm(eps) > 0.0
            perturbed = interp.beta + eps
            form = float(perturbed @ g @ perturbed)
            assert base_form <= form + 1e-8


class TestControlFunctional:
    def test_zero_fit_gives_zero_correction(self):
        interp = fit(KernelSpec(1, 1), midpoint_grid(8, 1), np.zeros(8))
        pts = uniform_random(100, 1, seed=1).points
        np.testing.assert_allclose(control_functional(interp, pts), 0.0, atol=1e-14)

    def test_correction_plus_integral_recovers_surrogate(self):
        rng = np.random.default_rng(2)
        interp = fit(KernelSpec(1, 2), midpoint_grid(4, 2), rng.normal(size=16))
        pts = rng.random((50, 2))
        lhs = control_functional(interp, pts) + interp.exact_integral
        np.testing.assert_allclose(lhs, evaluate(interp, pts), atol=1e-14)

    def test_monte_carlo_mean_near_zero(self):
        nodes = midpoint_grid(10, 1)
        values = np.sin(5.0 * nodes.points[:, 0]) + 0.3
        interp = fit(KernelSpec(1, 1), nodes, values)
        pts = uniform_random(200_000, 1, seed=8).points
        psi = control_functional(interp, pts)
        se = psi.std(ddof=1) / np.sqrt(len(psi))
        assert abs(psi.mean()) <= 3 * se


class TestGridPath:
    """Midpoint-grid fits solve through the cached eigenpairs of the axis Gram
    and evaluate per axis or from moment tables; they must give the surrogate
    of the assembled Gram solved directly."""

    @pytest.mark.parametrize("jitter", [None, 0.0])
    @pytest.mark.parametrize("support", [1.0, 0.7])
    @pytest.mark.parametrize("d,m", [(1, 12), (2, 6), (3, 4), (4, 3)])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_dense_path(self, k, d, m, support, jitter):
        spec = KernelSpec(k, d, support)
        grid = midpoint_grid(m, d)
        rng = np.random.default_rng(100 * k + 10 * d + m)
        values = np.sin(grid.points @ rng.uniform(1.0, 4.0, size=d)) + grid.points[:, 0] ** 2
        fast = fit(spec, grid, values, jitter)
        assert fast.jitter == (default_jitter(len(grid)) if jitter is None else jitter)
        beta, integral, residual = dense_fit(spec, grid, values, fast.jitter)
        assert fast.exact_integral == pytest.approx(integral, abs=1e-10)
        assert fast.residual_norm == pytest.approx(residual, abs=1e-10)
        stack = np.vstack([rng.random((200, d)), grid.points, np.zeros((1, d)), np.ones((1, d))])
        dense = kernel_cross(spec, stack, grid.points) @ beta
        np.testing.assert_allclose(evaluate(fast, stack), dense, rtol=0.0, atol=1e-10)
        for p, want in zip(stack[::37], dense[::37]):
            assert evaluate(fast, p) == pytest.approx(want, abs=1e-10)

    def test_grid_evaluation_spans_blocks(self, monkeypatch):
        spec = KernelSpec(1, 2)
        grid = midpoint_grid(5, 2)
        values = np.cos(3.0 * grid.points[:, 1]) * grid.points[:, 0]
        fast = fit(spec, grid, values)
        beta, _, _ = dense_fit(spec, grid, values, fast.jitter)
        pts = np.random.default_rng(3).random((1000, 2))
        whole = evaluate(fast, pts)
        # rows are 4 * d * m = 40 floats wide: eight rows per block
        monkeypatch.setattr(interpolate, "_GRID_BLOCK_BYTES", 8 * 40 * 8)
        np.testing.assert_array_equal(evaluate(fast, pts), whole)
        np.testing.assert_allclose(kernel_cross(spec, pts, grid.points) @ beta, whole, rtol=0.0, atol=1e-10)

    def test_1d_support_under_node_spacing_evaluates_per_axis(self):
        # 4 / rho centres would take 50 MB of tables for 16 nodes
        grid = midpoint_grid(16, 1)
        interp = fit(KernelSpec(2, 1, 1e-5), grid, np.arange(16.0))
        assert interp.moments is None
        # each node's kernel reaches no other node
        np.testing.assert_array_equal(evaluate(interp, grid.points), interp.beta)

    @pytest.mark.parametrize("support", [1.0, 0.3])
    def test_1d_without_wide_long_double_evaluates_per_axis(self, monkeypatch, support):
        # where long double is double the moment tables would lose accuracy
        monkeypatch.setattr(interpolate, "_WIDE_LONG_DOUBLE", False)
        interp = fit(KernelSpec(2, 1, support), midpoint_grid(37, 1), np.sin(np.arange(37.0)))
        assert interp.moments is None
        pts = np.random.default_rng(7).random((200, 1))
        np.testing.assert_array_equal(evaluate(interp, pts), interpolate._grid_values(interp, pts))

    @NEEDS_WIDE_LONG_DOUBLE
    def test_1d_evaluation_spans_memory_blocks(self, monkeypatch):
        interp = fit(KernelSpec(2, 1, 0.3), midpoint_grid(64, 1), np.sin(np.arange(64.0)))
        pts = np.random.default_rng(6).random((1000, 1))
        whole = interpolate._axis_values(interp, pts[:, 0])
        # a point holds 10 (deg + 1) = 80 floats: seven points per block
        monkeypatch.setattr(kernels, "BLOCK_BYTES", 7 * 80 * 8)
        np.testing.assert_array_equal(evaluate(interp, pts), whole)

    def test_blocking_leaves_values_unchanged(self):
        # BLAS threads split a block's rows by count, so with more than one
        # thread the d >= 2 floats depend on the blocking; the check pins one
        # thread
        assert run_check(BLOCKING_CHECK, "1").split() == ["[]"]

    def test_1d_values_independent_of_blas_threads(self):
        one, two = (np.frombuffer(bytes.fromhex(run_check(THREAD_CHECK, t))) for t in "12")
        if interpolate._WIDE_LONG_DOUBLE:
            assert np.array_equal(one, two)
        else:  # evaluated per axis, through BLAS: equal to rounding
            np.testing.assert_allclose(one, two, rtol=0.0, atol=1e-14)

    @NEEDS_WIDE_LONG_DOUBLE
    @pytest.mark.parametrize("support", [1.0, 0.7, 0.3, 0.1])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_1d_moments_match_direct_sum(self, k, support):
        # the moment path against the per-axis kernel sum, at the cube's ends,
        # the nodes, the window edges u_i +- rho and random points
        eps = np.finfo(np.float64).eps
        bound = (32.0 if support == 1.0 else 512.0) * eps
        spec = KernelSpec(k, 1, support)
        rng = np.random.default_rng(10 * k + int(10 * support))
        for m in (1, 2, 37, 1024, 2048):
            grid = midpoint_grid(m, 1)
            interp = Interpolant(
                spec, grid, rng.normal(size=m), exact_integral=0.0, jitter=0.0, residual_norm=0.0
            )
            assert interp.moments is not None
            u = grid.points[:, 0]
            edges = np.clip(np.concatenate([u - support, u + support]), 0.0, 1.0)
            pts = np.concatenate([[0.0, 1.0], u, edges, rng.random(600)])[:, None]
            direct = interpolate._grid_values(interp, pts)
            err = np.max(np.abs(evaluate(interp, pts) - direct))
            assert err <= bound * np.sum(np.abs(interp.beta)), (m, err)

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
            fit(KernelSpec(1, 2), midpoint_grid(7, 2), rng.normal(size=49))
            fit(KernelSpec(1, 1), midpoint_grid(7, 1), rng.normal(size=7))
        fit(KernelSpec(1, 1, 0.5), midpoint_grid(7, 1), rng.normal(size=7))
        assert len(calls) == 2

    def test_non_grid_node_sets_rejected(self):
        # the type decides, not the coordinates: an unshifted copy of the
        # grid is a plain PointSet too
        spec = KernelSpec(1, 2)
        grid = midpoint_grid(4, 2)
        values = np.arange(16.0)
        swapped = PointSet(grid.points[:, ::-1], 2, grid.provenance)  # rows in another order
        for nodes in (random_shift(grid, [1e-3, 0.0]), random_shift(grid, [0.0, 0.0]), swapped, halton(16, 2)):
            with pytest.raises(TypeError, match="MidpointGrid"):
                fit(spec, nodes, values)
            with pytest.raises(TypeError, match="MidpointGrid"):
                Interpolant(spec, nodes, values, exact_integral=0.0, jitter=0.0, residual_norm=0.0)

    def test_node_dimension_checked(self):
        # a grid of another dimension would reshape into the wrong tensor
        for spec, grid in ((KernelSpec(1, 2), midpoint_grid(4, 1)), (KernelSpec(1, 1), midpoint_grid(4, 2))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                fit(spec, grid, np.ones(len(grid)))
            with pytest.raises(ValueError, match="dimension mismatch"):
                Interpolant(spec, grid, np.ones(len(grid)), exact_integral=0.0, jitter=0.0, residual_norm=0.0)

    def test_nonpositive_grid_spectrum_raises(self):
        # the k = 2 axis Gram on 1400 midpoints is numerically singular: its
        # computed smallest eigenvalue is below zero (the value depends on the
        # BLAS), so a zero jitter leaves no positive shifted spectrum
        spec = KernelSpec(2, 1)
        nodes = midpoint_grid(1400, 1)
        values = np.sin(4.0 * nodes.points[:, 0])
        with pytest.raises(ValueError, match="jitter 0 .*smallest shifted eigenvalue"):
            fit(spec, nodes, values, jitter=0.0)
        assert np.all(np.isfinite(fit(spec, nodes, values).beta))

    def test_dimension_mismatch_rejected(self):
        interp = fit(KernelSpec(1, 2), midpoint_grid(3, 2), np.ones(9))
        with pytest.raises(ValueError, match="dimension mismatch"):
            evaluate(interp, np.ones((4, 3)))
