"""Kernel closed forms validated against quadrature and recursion oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from cfqmc import kernels
from cfqmc.kernels import (
    KernelSpec,
    _wendland_inplace,
    gram,
    kernel_cross,
    kernel_double_integral,
    kernel_integral,
    kernel_integral_1d,
    wendland_1d,
)
from cfqmc.points import PointSet, uniform_random


def node_set(coords):
    arr = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    return PointSet(arr)


def integral_operator(phi, r):
    """The radial integral operator int_r^1 t phi(t) dt (support ends at 1)."""
    val, _ = quad(lambda t: t * phi(t), r, 1.0, limit=200, epsabs=1e-13, epsrel=1e-13)
    return val


class TestUnivariateClosedForms:
    def test_normalized_at_zero(self):
        for k in kernels.SMOOTHNESS_LEVELS:
            assert wendland_1d(k, 0.0) == 1.0

    def test_compact_support(self):
        for k in kernels.SMOOTHNESS_LEVELS:
            assert wendland_1d(k, 1.0) == 0.0
            assert wendland_1d(k, 1.7) == 0.0

    def test_hand_value_k1(self):
        # (0.5)^3 * 2.5
        assert wendland_1d(1, 0.5) == pytest.approx(0.3125, abs=1e-15)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            wendland_1d(1, -0.1)

    def test_rejects_bad_smoothness(self):
        with pytest.raises(ValueError):
            wendland_1d(3, 0.5)

    def test_coefficients_expand_the_factored_pieces(self):
        # surrogate values and integrals both read the expanded coefficients,
        # hand-expanded from (1 - r)^(2k + 1) P_k(r) here
        expanded = {
            0: [1.0, -1.0],
            1: [1.0, 0.0, -6.0, 8.0, -3.0],
            2: [1.0, 0.0, -7.0, 0.0, 35.0, -56.0, 35.0, -8.0],
        }
        for k, coeffs in expanded.items():
            assert kernels._PHI_COEFFS[k].dtype == np.float64
            assert np.array_equal(kernels._PHI_COEFFS[k], coeffs)

    def test_k1_matches_recursion_oracle(self):
        # one application of the integral operator to the degree-2 base bump
        base = lambda t: max(0.0, 1.0 - t) ** 2
        norm = integral_operator(base, 0.0)
        for r in np.linspace(0.0, 0.99, 100):
            oracle = integral_operator(base, r) / norm
            assert wendland_1d(1, r) == pytest.approx(oracle, abs=1e-8)

    def test_k2_matches_double_recursion_oracle(self):
        # two applications of the operator to the degree-3 base bump
        base = lambda t: max(0.0, 1.0 - t) ** 3
        inner = lambda r: integral_operator(base, r)
        norm = integral_operator(inner, 0.0)
        for r in np.linspace(0.0, 0.99, 100):
            oracle = integral_operator(inner, r) / norm
            assert wendland_1d(2, r) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_inplace_core_matches_written_out_piece(self, k):
        # the pieces as plain expressions, in the core's order of products:
        # the in-place core must give the same floats. r > 1 occurs when the
        # support radius is below 1.
        rng = np.random.default_rng(k)
        r = np.concatenate([np.linspace(0.0, 1.5, 15001), rng.uniform(0.0, 1.5, 15000), [1.0 - 1e-16, 5e-324]])
        w = np.maximum(1.0 - r, 0.0)
        reference = (
            w,
            w * w * (w * (3.0 * r + 1.0)),
            ((8.0 * r + 5.0) * r + 1.0) * w * (w * w) * (w * w),
        )[k]
        assert np.array_equal(_wendland_inplace(k, r.copy()), reference)
        assert np.array_equal(wendland_1d(k, r), reference)
        assert [wendland_1d(k, float(x)) for x in r[::1000]] == reference[::1000].tolist()

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_inplace_core_within_8_ulp_of_exact_piece(self, k):
        # the factored piece in exact rational arithmetic at each float r
        rng = np.random.default_rng(10 + k)
        r = np.concatenate([
            np.linspace(0.0, 1.0, 1001),
            rng.uniform(0.0, 1.0, 3000),
            rng.uniform(0.99, 1.0, 500),
            rng.uniform(0.0, 1e-3, 500),
            1.0 - np.logspace(-16, -1, 200),
            [1.0 - 1e-16, 5e-324, 1.0, 1.5],
        ])
        values = _wendland_inplace(k, r.copy())
        assert np.all((values >= 0.0) & (values <= 1.0))
        for x, value in zip(r.tolist(), values.tolist()):
            t = Fraction(x)
            w = max(1 - t, Fraction(0))
            exact = (w, w**3 * (3 * t + 1), w**5 * (8 * t * t + 5 * t + 1))[k]
            if exact == 0:
                assert value == 0.0
            else:
                ulp = Fraction(float(np.spacing(float(exact))))
                assert abs(Fraction(value) - exact) <= 8 * ulp, (x, value)

    def test_k1_smooth_at_support_edge(self):
        # derivative from inside tends to 0 at r = 1
        h = 1e-6
        deriv = (wendland_1d(1, 1.0) - wendland_1d(1, 1.0 - h)) / h
        assert abs(deriv) < 1e-4


def kernel_value(spec, x, y):
    """K(x, y) for one pair of points, as a 1x1 cross-kernel block."""
    block = kernel_cross(spec, [x], [y])
    assert block.shape == (1, 1)
    return float(block[0, 0])


class TestKernelEval:
    def test_diagonal_is_one(self):
        spec = KernelSpec(2, 3, 0.7)
        x = np.array([0.2, 0.5, 0.9])
        assert kernel_value(spec, x, x) == 1.0

    def test_vanishes_outside_axis_window(self):
        spec = KernelSpec(1, 2, 0.5)
        assert kernel_value(spec, [0.1, 0.1], [0.1, 0.7]) == 0.0

    def test_hand_value_k0_d2(self):
        spec = KernelSpec(0, 2, 1.0)
        assert kernel_value(spec, [0.0, 0.0], [0.5, 0.5]) == pytest.approx(0.25)

    @given(
        st.sampled_from(kernels.SMOOTHNESS_LEVELS),
        st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=2),
        st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=2),
    )
    def test_symmetry_and_range(self, k, x, y):
        spec = KernelSpec(k, 2, 1.0)
        v = kernel_value(spec, x, y)
        assert v == kernel_value(spec, y, x)
        assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("k", kernels.SMOOTHNESS_LEVELS)
    @pytest.mark.parametrize("support", [1.0, 0.7])
    def test_matches_product_of_checked_pieces(self, k, support):
        spec = KernelSpec(k, 3, support)
        x = uniform_random(40, 3, seed=1).points
        y = uniform_random(30, 3, seed=2).points
        reference = np.ones((40, 30))
        for i in range(3):
            r = np.abs(x[:, i, None] - y[None, :, i]) / support
            reference *= wendland_1d(k, r)
        assert np.array_equal(kernel_cross(spec, x, y), reference)

    @pytest.mark.parametrize("k", kernels.SMOOTHNESS_LEVELS)
    @pytest.mark.parametrize("support", [1.0, 0.7])
    def test_cutoff_skipped_only_where_it_is_a_no_op(self, monkeypatch, k, support):
        # An axis whose widest gap is within the support skips the cut-off
        # (1 - r)_+ and keeps the floats of the clipped expression; an axis
        # with a gap beyond the support, among gaps within it, clips.
        rng = np.random.default_rng(k)
        x, y = rng.random((40, 3)), rng.random((30, 3))
        x[:, 0], y[:, 0] = 0.3 + 0.4 * x[:, 0], 0.3 + 0.4 * y[:, 0]  # gaps below 0.4
        x[:, 1], y[:, 1] = support * x[:, 1], support * y[:, 1]
        x[0, 1], y[0, 1] = 0.0, support  # a gap of exactly the support: r = 1
        x[0, 2] = -0.25  # gaps beyond the support, the rest within the cube
        reference = np.ones((40, 30))
        for i in range(3):
            reference *= wendland_1d(k, np.abs(x[:, i, None] - y[None, :, i]) / support)
        clips = []
        core = kernels._wendland_inplace

        def recording(k_, r, clip=True):
            clips.append(clip)
            return core(k_, r, clip)

        monkeypatch.setattr(kernels, "_wendland_inplace", recording)
        assert np.array_equal(kernel_cross(KernelSpec(k, 3, support), x, y), reference)
        assert clips == [False, False, True]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_cross(KernelSpec(0, 2), [[0.5]], [[0.5, 0.5]])


class TestSingleIntegral:
    def test_hand_values_k0(self):
        assert kernel_integral_1d(0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert kernel_integral_1d(0, 1.0, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_positive_and_bounded(self):
        for k in kernels.SMOOTHNESS_LEVELS:
            for rho in (0.25, 0.5, 1.0):
                vals = kernel_integral_1d(k, rho, np.linspace(0, 1, 21))
                assert np.all(vals > 0.0)
                assert np.all(vals <= 1.0)

    def test_quadrature_grid(self):
        # closed form vs adaptive quadrature over the full (k, rho, y) grid
        for k in kernels.SMOOTHNESS_LEVELS:
            for rho in (0.5, 1.0):
                for y in np.linspace(0.0, 1.0, 101):
                    closed = kernel_integral_1d(k, rho, y)
                    breaks = sorted({max(0.0, y - rho), y, min(1.0, y + rho)})
                    oracle, _ = quad(
                        lambda x: wendland_1d(k, abs(x - y) / rho),
                        0.0,
                        1.0,
                        points=breaks,
                        limit=200,
                        epsabs=1e-13,
                        epsrel=1e-13,
                    )
                    assert abs(closed - oracle) <= 1e-10

    def test_rejects_y_outside_cube(self):
        with pytest.raises(ValueError):
            kernel_integral_1d(0, 1.0, 1.2)


class TestProductIntegral:
    def test_hand_value_center(self):
        spec = KernelSpec(0, 2, 1.0)
        assert kernel_integral(spec, [0.5, 0.5]) == pytest.approx(0.5625, abs=1e-15)

    def test_corner_halves_axis_factor(self):
        spec = KernelSpec(0, 2, 1.0)
        assert kernel_integral(spec, [0.0, 0.5]) == pytest.approx(0.375, abs=1e-15)

    def test_monte_carlo_oracle(self):
        spec = KernelSpec(1, 2, 1.0)
        y = np.array([0.3, 0.8])
        rng = np.random.default_rng(99)
        x = rng.random((1_000_000, 2))
        vals = wendland_1d(1, np.abs(x[:, 0] - y[0])) * wendland_1d(1, np.abs(x[:, 1] - y[1]))
        mc = vals.mean()
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(kernel_integral(spec, y) - mc) <= 3 * se

    def test_batched_matches_scalar(self):
        spec = KernelSpec(2, 3, 0.8)
        pts = uniform_random(10, 3, seed=1).points
        batched = kernel_integral(spec, pts)
        singles = [kernel_integral(spec, p) for p in pts]
        np.testing.assert_allclose(batched, singles, rtol=0, atol=1e-15)


class TestDoubleIntegral:
    def test_hand_value_k0(self):
        assert kernel_double_integral(KernelSpec(0, 1, 1.0)) == pytest.approx(2 / 3, abs=1e-15)

    def test_power_law_in_dimension(self):
        for k in kernels.SMOOTHNESS_LEVELS:
            axis = kernel_double_integral(KernelSpec(k, 1, 0.7))
            for d in (2, 3, 4):
                assert kernel_double_integral(KernelSpec(k, d, 0.7)) == pytest.approx(
                    axis**d, rel=1e-14
                )

    def test_decreasing_in_support(self):
        small = kernel_double_integral(KernelSpec(0, 1, 0.5))
        full = kernel_double_integral(KernelSpec(0, 1, 1.0))
        assert small < full

    def test_quadrature_of_closed_single_integral(self):
        for k in kernels.SMOOTHNESS_LEVELS:
            for rho in (0.5, 1.0):
                closed = kernel_double_integral(KernelSpec(k, 1, rho))
                oracle, _ = quad(
                    lambda y: kernel_integral_1d(k, rho, y),
                    0.0,
                    1.0,
                    points=[rho, 1.0 - rho],
                    limit=200,
                    epsabs=1e-13,
                    epsrel=1e-13,
                )
                assert abs(closed - oracle) <= 1e-10


class TestGram:
    def test_single_node(self):
        g = gram(KernelSpec(1, 1), node_set([[0.5]]))
        np.testing.assert_allclose(g, [[1.0]])

    def test_far_nodes_give_identity(self):
        spec = KernelSpec(0, 1, 0.25)
        g = gram(spec, node_set([[0.1], [0.5], [0.9]]))
        np.testing.assert_allclose(g, np.eye(3))

    def test_positive_semidefinite_over_random_sets(self):
        rng = np.random.default_rng(12)
        for trial in range(50):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(2, 41))
            k = int(rng.integers(0, len(kernels.SMOOTHNESS_LEVELS)))
            nodes = node_set(rng.random((m, d)))
            g = gram(KernelSpec(k, d), nodes)
            assert np.linalg.eigvalsh(g).min() >= -1e-10


@given(st.integers(0, 3000), st.integers(1, 1 << 21), st.sampled_from([1, 2, 8]))
def test_row_blocks_cover_the_rows_within_the_bound(n, row_bytes, multiple):
    blocks = kernels.row_blocks(n, row_bytes, multiple)
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n))
    sizes = [b.stop - b.start for b in blocks]
    *whole, last = sizes or [0]
    # whole blocks: the most groups of `multiple` rows within the bound, or one group
    for size in whole:
        assert size == sizes[0] and size % multiple == 0
        assert size * row_bytes <= kernels.BLOCK_BYTES or size == multiple
        assert (size + multiple) * row_bytes > kernels.BLOCK_BYTES
    # the last block: the rest, save that with groups a one-row tail joins it
    assert multiple == 1 or last != 1 or n == 1
    body = last - (multiple > 1 and last > 1 and (last - 1) % multiple == 0)
    assert body * row_bytes <= kernels.BLOCK_BYTES or body <= multiple
    assert not whole or body <= whole[0]


class TestKernelSpecValidation:
    def test_bad_smoothness(self):
        with pytest.raises(ValueError):
            KernelSpec(5, 1)

    def test_bad_support(self):
        with pytest.raises(ValueError):
            KernelSpec(1, 1, 1.5)
        with pytest.raises(ValueError):
            KernelSpec(1, 1, 0.0)
