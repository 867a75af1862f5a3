"""Test-integrand families: exact integrals vs quadrature, sanity properties."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from cfqmc.genz import FAMILIES, as_integrand, make_genz, random_genz
from cfqmc.points import uniform_random


def quadrature_oracle(inst):
    """Adaptive quadrature of the instance over the cube (d <= 2, any d for
    the separable continuous family)."""
    if inst.family == "discontinuous":
        # integrate the exponential over its support box directly
        if inst.dim == 1:
            val, _ = quad(
                lambda x: math.exp(inst.a[0] * x), 0.0, inst.u[0], limit=200, epsabs=1e-12
            )
            return val
        val, _ = dblquad(
            lambda y, x: math.exp(inst.a[0] * x + inst.a[1] * y),
            0.0, inst.u[0], 0.0, inst.u[1], epsabs=1e-12,
        )
        return val
    if inst.family == "continuous":
        # separable: the product of the axis sections through u, each kinked
        # only at u_i (every other factor is 1 on the section)
        val = 1.0
        for i in range(inst.dim):
            def section(t, i=i):
                x = np.array(inst.u, dtype=np.float64)
                x[i] = t
                return float(inst(x[None, :])[0])

            part, _ = quad(
                section, 0.0, 1.0, points=[inst.u[i]], limit=300, epsabs=1e-12, epsrel=1e-12
            )
            val *= part
        return val
    if inst.dim == 1:
        val, _ = quad(
            lambda x: float(inst(np.array([[x]]))[0]),
            0.0, 1.0, points=[inst.u[0]], limit=300, epsabs=1e-12, epsrel=1e-12,
        )
        return val
    val, _ = dblquad(
        lambda y, x: float(inst(np.array([[x, y]]))[0]),
        0.0, 1.0, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11,
    )
    return val


class TestExactIntegrals:
    def test_oscillatory_full_period_vanishes(self):
        inst = make_genz("oscillatory", 1, [2.0 * math.pi], [0.0])
        assert inst.exact == pytest.approx(0.0, abs=1e-14)

    def test_continuous_hand_value(self):
        inst = make_genz("continuous", 1, [1.0], [0.0])
        assert inst.exact == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)

    def test_gaussian_small_difficulty_near_one(self):
        inst = make_genz("gaussian", 2, [1e-4, 1e-4], [0.5, 0.5])
        assert inst.exact == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", [1, 2])
    def test_exact_matches_quadrature(self, family, dim):
        for trial in range(10):
            inst = random_genz(family, dim, seed=1000 * dim + trial, difficulty_scale=5.0)
            oracle = quadrature_oracle(inst)
            assert abs(inst.exact - oracle) <= 1e-9 * (1.0 + abs(inst.exact))

    def test_corner_peak_dimension_guard(self):
        with pytest.raises(ValueError, match="corner"):
            make_genz("corner_peak", 7, np.ones(7), np.zeros(7))


class TestValidation:
    def test_nonpositive_difficulty_rejected(self):
        with pytest.raises(ValueError):
            make_genz("gaussian", 1, [0.0], [0.5])

    def test_location_outside_cube_rejected(self):
        with pytest.raises(ValueError):
            make_genz("gaussian", 1, [1.0], [1.5])

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            make_genz("sawtooth", 1, [1.0], [0.5])

    def test_parameter_length_checked(self):
        with pytest.raises(ValueError):
            make_genz("gaussian", 2, [1.0], [0.5, 0.5])


class TestMonteCarloSanity:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_mc_lands_within_four_ses(self, family, dim):
        inst = random_genz(family, dim, seed=7 * dim + hash(family) % 100, difficulty_scale=5.0)
        pts = uniform_random(1_000_000, dim, seed=99)
        vals = inst(pts)
        mc = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(mc - inst.exact) <= 4 * se


class TestDiscontinuousFamily:
    def test_values_zero_or_exponential(self):
        inst = random_genz("discontinuous", 2, seed=3)
        pts = uniform_random(10_000, 2, seed=5)
        vals = inst(pts)
        assert np.all(np.isfinite(vals))
        positives = vals[vals != 0.0]
        assert np.all(positives > 0.0)
        assert (vals == 0.0).any()  # the cutoff region is hit

    def test_d1_condition_on_first_axis_only(self):
        inst = make_genz("discontinuous", 1, [1.0], [0.5])
        assert inst(np.array([[0.4]]))[0] > 0.0
        assert inst(np.array([[0.6]]))[0] == 0.0


class TestSmoothFamiliesBoundedDerivatives:
    # documents why first-order mixed smoothness theory applies to families 1-4
    _BOUNDS = {
        "oscillatory": lambda a, d: float(np.max(a)),
        "product_peak": lambda a, d: 2.0 * float(np.max(a) ** 2 * np.prod(a**2)),
        "corner_peak": lambda a, d: (d + 1.0) * float(np.max(a)),
        "gaussian": lambda a, d: 2.0 * float(np.max(a) ** 2),
    }

    @pytest.mark.parametrize("family", ["oscillatory", "product_peak", "corner_peak", "gaussian"])
    def test_finite_difference_partials_below_bound(self, family):
        dim = 2
        inst = random_genz(family, dim, seed=11, difficulty_scale=5.0)
        bound = self._BOUNDS[family](inst.a, dim)
        rng = np.random.default_rng(2)
        pts = 0.02 + 0.96 * rng.random((100, dim))
        h = 1e-6
        for axis in range(dim):
            shifted_up = pts.copy()
            shifted_up[:, axis] += h
            shifted_dn = pts.copy()
            shifted_dn[:, axis] -= h
            fd = (inst(shifted_up) - inst(shifted_dn)) / (2 * h)
            assert np.all(np.isfinite(fd))
            assert np.max(np.abs(fd)) <= bound * (1.0 + 1e-6)


class TestRandomInstances:
    def test_same_seed_identical(self):
        a = random_genz("gaussian", 3, seed=42)
        b = random_genz("gaussian", 3, seed=42)
        np.testing.assert_array_equal(a.a, b.a)
        np.testing.assert_array_equal(a.u, b.u)
        assert a.exact == b.exact

    def test_difficulty_normalization(self):
        inst = random_genz("continuous", 4, seed=9, difficulty_scale=6.5)
        assert inst.a.sum() == pytest.approx(6.5, abs=1e-12)

    def test_distinct_seeds_differ(self):
        a = random_genz("gaussian", 2, seed=1)
        b = random_genz("gaussian", 2, seed=2)
        assert not np.array_equal(a.u, b.u)

    def test_constant_debug_family(self):
        inst = random_genz("constant", 2, seed=0, difficulty_scale=3.0)
        pts = uniform_random(10, 2, seed=1)
        np.testing.assert_allclose(inst(pts), 3.0)
        assert inst.exact == 3.0

    def test_dimension_checked_before_any_draw(self):
        # a = raw / raw.sum() would divide by the sum of an empty draw
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="dimension must be >= 1"):
                random_genz("gaussian", 0, seed=0)


class TestIntegrandWrapper:
    def test_counts_and_matches_direct_eval(self):
        inst = random_genz("oscillatory", 2, seed=13)
        f = as_integrand(inst)
        pts = uniform_random(50, 2, seed=3)
        np.testing.assert_array_equal(f.eval_batch(pts), inst(pts))
        assert f.eval_count == 50
