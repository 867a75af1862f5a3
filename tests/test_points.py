"""Point-set generators, randomizations and geometry metrics."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.stats import kstest

from cfqmc import points
from cfqmc.directions import DEFAULT_DIRECTIONS, parse_direction_lines
from cfqmc.points import (
    MidpointGrid,
    PointSet,
    baker_fold,
    digital_shift,
    geometry,
    halton,
    korobov_vector,
    lattice,
    midpoint_grid,
    radical_inverse,
    random_shift,
    read_points_csv,
    reverse_radix_permutation,
    sobol,
    uniform_random,
    write_points_csv,
)


def make_set(coords):
    arr = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    return PointSet(arr)


class TestRadicalInverse:
    def test_hand_values_base2(self):
        assert radical_inverse(1, 2) == 0.5
        assert radical_inverse(3, 2) == 0.75  # digits 11 reversed -> 0.11 binary

    def test_zero_is_zero_for_any_base(self):
        for base in (2, 3, 5, 7, 11):
            assert radical_inverse(0, base) == 0.0

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            radical_inverse(1, 1)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            radical_inverse(1, 3, permutation=[0, 0, 1])

    def test_permutation_applied_to_digits(self):
        # base 3, n = 1 has single digit 1; sigma = (0,2,1) maps it to 2
        assert radical_inverse(1, 3, permutation=[0, 2, 1]) == pytest.approx(2 / 3)

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=13))
    def test_output_in_unit_interval(self, n, base):
        x = radical_inverse(n, base)
        assert 0.0 <= x < 1.0

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=13))
    def test_positive_index_is_positive(self, n, base):
        assert radical_inverse(n, base) > 0.0


class TestReverseRadix:
    def test_known_permutations(self):
        assert reverse_radix_permutation(2).tolist() == [0, 1]
        assert reverse_radix_permutation(3).tolist() == [0, 2, 1]
        assert reverse_radix_permutation(5).tolist() == [0, 4, 2, 1, 3]

    @given(st.integers(min_value=2, max_value=97))
    def test_is_bijection_fixing_zero(self, base):
        perm = reverse_radix_permutation(base)
        assert perm[0] == 0
        assert sorted(perm.tolist()) == list(range(base))


class TestHalton:
    def test_first_points_1d(self):
        ps = halton(3, 1)
        np.testing.assert_allclose(ps.points.ravel(), [0.5, 0.25, 0.75])

    def test_second_axis_base3(self):
        ps = halton(3, 2)
        np.testing.assert_allclose(ps.points[:, 1], [1 / 3, 2 / 3, 1 / 9])

    def test_coordinates_strictly_interior(self):
        ps = halton(200, 4, scramble=True)
        assert ps.points.min() > 0.0
        assert ps.points.max() < 1.0

    def test_prefix_property(self):
        small = halton(50, 3, scramble=True)
        big = halton(128, 3, scramble=True)
        np.testing.assert_array_equal(small.points, big.points[:50])

    def test_deterministic(self):
        a = halton(64, 2, scramble=True)
        b = halton(64, 2, scramble=True)
        np.testing.assert_array_equal(a.points, b.points)

    def test_start_records_first_index(self):
        # Halton skips the all-zeros index 0; shifting and folding keep the start
        ps = halton(5, 1)
        assert ps.start == 1
        assert random_shift(ps, [0.25]).start == baker_fold(ps).start == 1

    @pytest.mark.parametrize("scramble", [False, True])
    def test_every_dimension_is_radical_inverse(self, scramble):
        n, d = 700, 8
        ps = halton(n, d, scramble=scramble)
        for j, base in enumerate(points.first_primes(d)):
            sigma = reverse_radix_permutation(base) if scramble else None
            expected = [radical_inverse(i, base, sigma) for i in range(1, n + 1)]
            assert ps.points[:, j].tolist() == expected

    def test_scramble_changes_points_beyond_base2(self):
        plain = halton(20, 3)
        scrambled = halton(20, 3, scramble=True)
        # base 2 permutation is the identity, higher bases move
        np.testing.assert_array_equal(plain.points[:, 0], scrambled.points[:, 0])
        assert not np.array_equal(plain.points[:, 1], scrambled.points[:, 1])


class TestSobol:
    def test_golden_first_dimension(self):
        # pinned convention: indices from 1, direct binary expansion
        ps = sobol(2, 1)
        np.testing.assert_allclose(ps.points.ravel(), [0.5, 0.25])

    def test_golden_second_dimension(self):
        ps = sobol(3, 2)
        np.testing.assert_allclose(ps.points[:, 1], [0.5, 0.75, 0.25])

    def test_first_dimension_is_radical_inverse(self):
        ps = sobol(64, 1)
        expected = [radical_inverse(n, 2) for n in range(1, 65)]
        np.testing.assert_allclose(ps.points.ravel(), expected)

    def test_outputs_in_half_open_interval(self):
        ps = digital_shift(sobol(256, 8), 7)
        assert ps.points.min() >= 0.0
        assert ps.points.max() < 1.0

    def test_digital_shift_is_xor_of_unshifted_net(self):
        # one seed-drawn bit vector per dimension, XORed into every point
        plain = sobol(32, 4)
        shifted = digital_shift(plain, 3)
        scale = 2.0**points.SOBOL_BITS
        shift = (plain.points * scale).astype(np.uint64) ^ (shifted.points * scale).astype(np.uint64)
        assert np.all(shift == shift[0]) and np.any(shift[0])
        assert shifted.start == plain.start == 1

    def test_digital_shift_deterministic_given_seed(self):
        a = digital_shift(sobol(64, 3), 11)
        b = digital_shift(sobol(64, 3), 11)
        np.testing.assert_array_equal(a.points, b.points)

    def test_dimension_overflow_names_limit(self):
        with pytest.raises(ValueError, match="dimensions up to 8"):
            sobol(8, 9)

    def test_bit_overflow_names_bits(self):
        with pytest.raises(ValueError, match="bits"):
            sobol(2**33, 1)


class TestDirectionTable:
    def test_parse_with_comments_and_header(self):
        table = parse_direction_lines(
            ["# comment", "d s a m_i", "2 1 0 1", "3 2 1 1 3  # trailing"]
        )
        assert table.max_dim == 3

    def test_rejects_wrong_m_count(self):
        with pytest.raises(ValueError, match="s=2"):
            parse_direction_lines(["3 2 1 1"])

    def test_rejects_dimension_gap(self):
        # dimension 3 would otherwise fail later as a missing table entry
        with pytest.raises(ValueError, match="line 2: dimension 4 is given but dimension 3 is missing"):
            parse_direction_lines(["2 1 0 1", "4 3 1 1 3 1"])

    @pytest.mark.parametrize("a", [2, 7, -1])
    def test_rejects_coefficients_beyond_degree(self, a):
        # a = 7 >= 2^(s-1) would silently act as a = 1 on the recurrence
        with pytest.raises(ValueError, match=f"line 2: a={a} must satisfy"):
            parse_direction_lines(["2 1 0 1", f"3 2 {a} 1 3"])

    def test_rejects_repeated_dimension(self):
        with pytest.raises(ValueError, match="line 3: dimension 2 repeats line 1"):
            parse_direction_lines(["2 1 0 1", "3 2 1 1 3", "2 1 0 1"])

    def test_builtin_covers_dim8(self):
        assert DEFAULT_DIRECTIONS.max_dim == 8


class TestLattice:
    def test_quarters(self):
        ps = lattice(4, 1, (1,))
        np.testing.assert_allclose(ps.points.ravel(), [0.0, 0.25, 0.5, 0.75])

    def test_zero_generator_collapses_to_origin(self):
        ps = lattice(6, 2, (0, 0))
        assert np.all(ps.points == 0.0)

    def test_hand_value_n3(self):
        ps = lattice(5, 2, (1, 2))
        np.testing.assert_allclose(ps.points[3], [0.6, 0.2])

    def test_generator_length_checked(self):
        with pytest.raises(ValueError):
            lattice(4, 2, (1,))

    def test_korobov_vector_coprime(self):
        for n in (16, 64, 256, 1024):
            z = korobov_vector(n, 3)
            assert z[0] == 1
            assert math.gcd(z[1], n) == 1

    @pytest.mark.parametrize("n", [0, -4])
    def test_korobov_vector_needs_points(self, n):
        # N = 0 used to raise ZeroDivisionError from the modulus
        for d in (1, 3):
            with pytest.raises(ValueError, match="N >= 1"):
                korobov_vector(n, d)


class TestRandomShift:
    def test_zero_shift_is_identity(self):
        ps = halton(16, 2)
        shifted = random_shift(ps, [0.0, 0.0])
        np.testing.assert_array_equal(shifted.points, ps.points)

    def test_wraps_mod_one(self):
        shifted = random_shift(make_set([[0.75]]), [0.5])
        np.testing.assert_allclose(shifted.points.ravel(), [0.25])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            random_shift(halton(4, 2), [0.5])

    def test_nan_shift_rejected(self):
        with pytest.raises(ValueError, match="shift must lie in the closed unit cube"):
            random_shift(halton(4, 2), [0.5, np.nan])

    def test_output_in_half_open_interval(self):
        ps = lattice(64, 2, (1, 19))
        shifted = random_shift(ps, [0.731, 0.291])
        assert shifted.points.min() >= 0.0
        assert shifted.points.max() < 1.0

    def test_shifted_coordinate_marginally_uniform(self):
        # empirical CDF of 1e4 shifted copies of a fixed point vs U(0,1)
        rng = np.random.default_rng(314)
        fixed = 0.637
        samples = np.mod(fixed + rng.random(10_000), 1.0)
        assert kstest(samples, "uniform").pvalue > 0.01


class TestBakerFold:
    def test_hand_values(self):
        folded = baker_fold(make_set([[0.25], [0.0], [1.0], [0.5]]))
        np.testing.assert_allclose(folded.points.ravel(), [0.5, 0.0, 0.0, 1.0])

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20))
    def test_maps_cube_into_cube(self, coords):
        folded = baker_fold(make_set([[c] for c in coords]))
        assert folded.points.min() >= 0.0
        assert folded.points.max() <= 1.0

    def test_symmetric_set_folds_with_doubled_multiplicity(self):
        m = 6
        folded = np.sort(baker_fold(lattice(2 * m, 1, (1,))).points.ravel())
        # k/(2m) and (2m-k)/(2m) fold to the same value, so interior values
        # pair up; only the endpoints 0 (from k=0) and 1 (from k=m) are single
        assert folded[0] == 0.0 and folded[-1] == 1.0
        pairs = folded[1:-1].reshape(m - 1, 2)
        np.testing.assert_allclose(pairs[:, 0], pairs[:, 1], atol=1e-15)


class TestMidpointGrid:
    def test_thirds(self):
        ps = midpoint_grid(3, 1)
        np.testing.assert_allclose(ps.points.ravel(), [1 / 6, 0.5, 5 / 6])

    def test_2x2_coordinates(self):
        ps = midpoint_grid(2, 2)
        assert len(ps) == 4
        assert set(np.round(ps.points.ravel(), 12)) == {0.25, 0.75}

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match="guard"):
            midpoint_grid(10_000, 3)

    def test_side_matches_point_count(self):
        grid = midpoint_grid(3, 2)
        assert isinstance(grid, MidpointGrid) and grid.side == 3
        with pytest.raises(ValueError, match="not a 2\\^2 grid"):
            MidpointGrid(grid.points, side=2)
        # a transformed grid is a plain point set
        for ps in (random_shift(grid, [0.0, 0.0]), baker_fold(grid)):
            assert not isinstance(ps, MidpointGrid)


class TestGeometry:
    def test_single_point_fill_distance(self):
        g = geometry(make_set([[0.5]]))
        assert g.fill_distance == pytest.approx(0.5)
        assert math.isinf(g.separation_radius)
        assert g.mesh_ratio == 0.0

    def test_two_endpoint_separation(self):
        g = geometry(make_set([[0.0], [1.0]]))
        assert g.separation_radius == pytest.approx(0.5)

    def test_midpoint_grid_mesh_ratio_one(self):
        g = geometry(midpoint_grid(3, 1))
        assert g.fill_distance == pytest.approx(1 / 6)
        assert g.separation_radius == pytest.approx(1 / 6)
        assert g.mesh_ratio == pytest.approx(1.0)

    @pytest.mark.parametrize("m", range(2, 17))
    def test_grid_separation_exact(self, m):
        g = geometry(midpoint_grid(m, 1), fill_resolution=64)
        assert g.separation_radius == pytest.approx(1 / (2 * m), abs=1e-15)

    def test_grid_fill_distance_one_over_2m(self):
        for m in (2, 5, 9):
            g = geometry(midpoint_grid(m, 1), fill_resolution=16 * m)
            assert g.fill_distance == pytest.approx(1 / (2 * m), abs=1e-12)

    def test_fill_monotone_under_appending(self):
        pts = halton(40, 2).points
        fills = []
        for n in (5, 10, 20, 40):
            fills.append(geometry(make_set(pts[:n]), fill_resolution=64).fill_distance)
        assert all(a >= b - 1e-15 for a, b in zip(fills, fills[1:]))

    def test_fill_bounded_by_cube_diameter(self):
        g = geometry(make_set([[0.0, 0.0]]), fill_resolution=32)
        assert g.fill_distance <= math.sqrt(2) + 1e-12

    def test_resolution_recorded(self):
        assert geometry(midpoint_grid(2, 2), fill_resolution=41).fill_resolution == 41

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            geometry(PointSet(np.zeros((0, 1))))

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 5),
        n=st.integers(1, 300),
        layout=st.sampled_from(["uniform", "clustered", "boundary", "on-grid"]),
        res=st.sampled_from([1, 2, 4, 8, 16, 32, 64, 41, 48, 80]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pruned_fill_search_is_exact(self, d, n, layout, res, seed):
        # powers of two, an odd resolution (plain query) and multiples of 16
        while (res + 1) ** d > 300_000:
            res //= 2
        rng = np.random.default_rng(seed)
        pts = rng.random((n, d))
        if layout == "clustered":
            pts = np.clip(rng.random(d) + 0.02 * rng.standard_normal((n, d)), 0.0, 1.0)
        elif layout == "boundary":
            pts[np.arange(n), rng.integers(0, d, n)] = rng.integers(0, 2, n)
        elif layout == "on-grid":
            pts = rng.integers(0, res + 1, (n, d)) / res
        axis = np.linspace(0.0, 1.0, res + 1)
        grid = np.stack([g.reshape(-1) for g in np.meshgrid(*([axis] * d), indexing="ij")], axis=1)
        exhaustive = float(np.max(cKDTree(pts).query(grid, k=1)[0]))
        assert geometry(make_set(pts), fill_resolution=res).fill_distance == exhaustive

    def test_pruned_fill_search_queries_a_fraction_of_the_grid(self, monkeypatch):
        queried = []

        class CountingTree(cKDTree):
            def query(self, x, k=1, **kwargs):
                if k == 1:
                    queried.append(len(x))
                return super().query(x, k=k, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
        g = geometry(halton(1024, 4))
        assert g.fill_resolution == 32
        assert 0 < sum(queried) < 0.1 * 33**4

    def test_separation_in_bounded_memory(self):
        # all pairwise distances of 2^16 points would take 17 GB
        ps = halton(1 << 16, 2)
        tracemalloc.start()
        try:
            g = geometry(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        closest = 2.0 * g.separation_radius
        tree = cKDTree(ps.points)
        assert not tree.query_pairs(closest * (1.0 - 1e-9))
        assert tree.query_pairs(closest * (1.0 + 1e-9))


class TestPointSetValidation:
    def test_out_of_cube_rejected(self):
        with pytest.raises(ValueError):
            make_set([[1.2]])

    @pytest.mark.parametrize("coords", [[[np.nan]], [[0.5, np.nan], [0.2, 0.3]], [[np.nan, 1.5]]])
    def test_nan_coordinate_rejected(self, coords):
        # a NaN fails every comparison, so an in-cube test must fail on it
        with pytest.raises(ValueError, match="closed unit cube"):
            make_set(coords)

    def test_points_frozen(self):
        ps = halton(4, 1)
        with pytest.raises(ValueError):
            ps.points[0, 0] = 0.3

    def test_uniform_random_deterministic(self):
        a = uniform_random(16, 3, seed=5)
        b = uniform_random(16, 3, seed=5)
        np.testing.assert_array_equal(a.points, b.points)


class TestCsvRoundTrip:
    def test_header_and_roundtrip(self, tmp_path):
        ps = halton(7, 3, scramble=True)
        path = tmp_path / "pts.csv"
        write_points_csv(ps, path)
        text = path.read_text().splitlines()
        assert text[0] == "dim,index,x1,x2,x3"
        assert text[1].startswith("3,1,")
        back = read_points_csv(path)
        np.testing.assert_array_equal(back.points, ps.points)
        assert back.dim == 3
        assert back.start == ps.start == 1

    def test_written_bytes(self, tmp_path):
        # zero, an exponent form, 17 significant digits, an index start of 7
        coords = np.array([[0.0, 1e-5], [0.1, 1.0]])
        ps = PointSet(coords, start=7)
        path = tmp_path / "pts.csv"
        write_points_csv(ps, path)
        assert path.read_bytes() == (
            b"dim,index,x1,x2\n2,7,0,1.0000000000000001e-05\n2,8,0.10000000000000001,1\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,0,0.5\n", "missing 'dim,index"),
            ("", "missing 'dim,index"),
            ("dim,index,x1\n", "no data rows"),
            ("dim,index,x1\n\n  \n", "no data rows"),
            ("dim,index,x1,x2\n2,0,0.5,0.25\n2,1,0.5,abc\n", "abc"),
            ("dim,index\n1,0\n", "at least one coordinate"),
            ("dim,index,x1,x2\n3,0,0.1,0.2\n2,1,0.3,0.4\n", "row 1 has dim 3 but 2 coordinates"),
        ],
    )
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body must raise, not warn
            with pytest.raises(ValueError, match=message):
                read_points_csv(path)
