"""Point sets on the closed unit cube: generators, randomizations, geometry.

Generators are deterministic functions of their parameters; randomness only
enters through explicit seeds (random shift, digital shift, MC sampling).
Point arrays are frozen after construction and safe to share across threads.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .directions import DEFAULT_DIRECTIONS, DirectionTable

SOBOL_BITS = 32

# fill-distance search cells per axis, by dimension (recorded in the output)
_FILL_RESOLUTION = {1: 256, 2: 256, 3: 64, 4: 32}
_FILL_RESOLUTION_HIGH_D = 16
_GRID_GUARD = 1 << 26  # refuse grids that would not fit in memory


@dataclass(frozen=True)
class Provenance:
    """How a point set was made: enough to regenerate it bit-exactly."""

    generator: str
    randomization: str = "none"
    seed: Optional[int] = None
    index_range: tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class PointSet:
    """An ordered set of d-dimensional points in [0, 1]^d."""

    points: np.ndarray
    dim: int
    provenance: Provenance

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got shape {pts.shape}")
        if self.dim < 1 or pts.shape[1] != self.dim:
            raise ValueError(f"dimension mismatch: dim={self.dim}, array is {pts.shape}")
        if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
            raise ValueError("coordinates must lie in the closed unit cube")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class GeometryMetrics:
    """Covering/packing geometry of a node set (Euclidean units)."""

    fill_distance: float
    separation_radius: float
    mesh_ratio: float
    fill_resolution: int
    single_point: bool = False


def as_point(x, dim: int) -> np.ndarray:
    """Validate a coordinate sequence as a point of the given dimension."""
    p = np.asarray(x, dtype=np.float64).reshape(-1)
    if p.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim} coordinates, got {p.shape[0]}")
    if p.min() < 0.0 or p.max() > 1.0:
        raise ValueError("point must lie in the closed unit cube")
    return p


def first_primes(count: int) -> list[int]:
    """The first ``count`` primes (Halton bases)."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def reverse_radix_permutation(base: int) -> np.ndarray:
    """Deterministic digit permutation for ``base``: bit-reverse the indices
    0..2^ceil(log2 base)-1 and keep values < base in order of appearance.

    Identity for base 2; e.g. base 3 -> (0, 2, 1), base 5 -> (0, 4, 2, 1, 3).
    Always fixes 0, so scrambled radical inverses stay in [0, 1).
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    nbits = max(1, (base - 1).bit_length())
    perm = []
    for i in range(1 << nbits):
        rev = int(f"{i:0{nbits}b}"[::-1], 2)
        if rev < base:
            perm.append(rev)
    return np.asarray(perm, dtype=np.int64)


def radical_inverse(n: int, base: int, permutation: Optional[Sequence[int]] = None) -> float:
    """Digit-reversal map: n = sum a_j base^j  ->  sum sigma(a_j) base^(-j-1).

    ``permutation`` (sigma) must be a bijection on {0, ..., base-1}; identity
    when absent. Only the digits of n's finite expansion are permuted.
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    if n < 0:
        raise ValueError("n must be non-negative")
    sigma = None
    if permutation is not None:
        sigma = np.asarray(permutation, dtype=np.int64)
        if sorted(sigma.tolist()) != list(range(base)):
            raise ValueError(f"permutation must be a bijection on 0..{base - 1}")
    result = 0.0
    factor = 1.0 / base
    while n > 0:
        n, digit = divmod(n, base)
        result += (sigma[digit] if sigma is not None else digit) * factor
        factor /= base
    return result


def _radical_inverse_many(indices: np.ndarray, base: int, sigma: Optional[np.ndarray]) -> np.ndarray:
    remaining = indices.astype(np.int64)
    out = np.zeros(remaining.shape, dtype=np.float64)
    factor = 1.0 / base
    # an index whose digits have run out adds sigma(0) * factor = +0.0, which
    # leaves its sum bitwise unchanged (every permutation fixes 0)
    while remaining.any():
        remaining, digits = np.divmod(remaining, base)
        mapped = sigma[digits] if sigma is not None else digits
        out += mapped * factor
        factor /= base
    return out


def halton(N: int, d: int, scramble: bool = False) -> PointSet:
    """First N Halton points (indices 1..N; the all-zeros index-0 point is skipped).

    Bases are the first d primes. With ``scramble`` the digits are permuted by
    the deterministic reverse-radix permutation per base; this is seed-free,
    so randomization comes only from a subsequent uniform shift.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    bases = first_primes(d)
    indices = np.arange(1, N + 1, dtype=np.int64)
    columns = []
    for base in bases:
        sigma = reverse_radix_permutation(base) if scramble else None
        columns.append(_radical_inverse_many(indices, base, sigma))
    pts = np.column_stack(columns) if columns else np.zeros((N, 0))
    prov = Provenance(
        generator="halton",
        randomization="reverse-radix" if scramble else "none",
        index_range=(1, N + 1),
    )
    return PointSet(pts.reshape(N, d), d, prov)


def _sobol_integers(N: int, d: int, table: DirectionTable) -> np.ndarray:
    nbits_needed = N.bit_length()
    if nbits_needed > SOBOL_BITS:
        raise ValueError(
            f"requested N={N} needs {nbits_needed} bits but the generator "
            f"provides {SOBOL_BITS}"
        )
    v = table.direction_integers(d, SOBOL_BITS)  # (d, SOBOL_BITS)
    idx = np.arange(1, N + 1, dtype=np.uint64)
    x = np.zeros((N, d), dtype=np.uint64)
    for j in range(nbits_needed):
        mask = ((idx >> np.uint64(j)) & np.uint64(1)).astype(bool)
        x[mask] ^= v[:, j]
    return x


def sobol_with_shift(
    N: int,
    d: int,
    shift_vectors: Optional[np.ndarray],
    directions: Optional[DirectionTable] = None,
    seed: Optional[int] = None,
    randomization: str = "none",
) -> PointSet:
    """Digital-net points for indices 1..N with an explicit per-dimension
    XOR shift (``None`` or all zeros leaves the net unshifted)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    table = directions if directions is not None else DEFAULT_DIRECTIONS
    x = _sobol_integers(N, d, table)
    if shift_vectors is not None:
        shift = np.asarray(shift_vectors, dtype=np.uint64).reshape(1, d)
        x = x ^ shift
    pts = x.astype(np.float64) * (0.5 ** SOBOL_BITS)
    prov = Provenance(
        generator="sobol", randomization=randomization, seed=seed, index_range=(1, N + 1)
    )
    return PointSet(pts, d, prov)


def sobol(
    N: int,
    d: int,
    directions: Optional[DirectionTable] = None,
    digital_shift: bool = False,
    seed: Optional[int] = None,
) -> PointSet:
    """First N points of the binary digital net (indices 1..N, origin skipped).

    ``directions`` defaults to the built-in table (dimensions <= 8); larger
    tables can be loaded with :func:`cfqmc.directions.load_direction_file`.
    With ``digital_shift`` each dimension's bits are XORed with a seed-derived
    random bit vector, which preserves the net structure and gives marginally
    uniform points.
    """
    if digital_shift:
        if seed is None:
            raise ValueError("digital_shift requires an explicit seed")
        rng = np.random.default_rng(seed)
        shift = rng.integers(0, 1 << SOBOL_BITS, size=d, dtype=np.uint64)
        return sobol_with_shift(N, d, shift, directions, seed=seed, randomization="digital-shift")
    return sobol_with_shift(N, d, None, directions, seed=seed, randomization="none")


def lattice(N: int, d: int, generator: Sequence[int]) -> PointSet:
    """Rank-1 lattice: point n has coordinates frac(n * z_i / N), n = 0..N-1.

    Coprimality of the generating vector with N is the caller's business.
    """
    z = np.asarray(generator, dtype=np.int64).reshape(-1)
    if z.shape[0] != d:
        raise ValueError(f"generator has {z.shape[0]} components, expected {d}")
    if N < 1:
        raise ValueError("N must be >= 1")
    n = np.arange(N, dtype=np.float64).reshape(-1, 1)
    pts = np.mod(n * (z.astype(np.float64) / N), 1.0)
    prov = Provenance(generator=f"lattice(z={tuple(int(c) for c in z)})", index_range=(0, N))
    return PointSet(pts, d, prov)


def korobov_vector(N: int, d: int) -> tuple[int, ...]:
    """Fixed Korobov-style generating vector (1, a, a^2, ...) mod N.

    The multiplier is the golden-ratio fraction of N nudged to be coprime
    with N; a pragmatic default, not a searched-for optimum.
    """
    if d == 1:
        return (1,)
    a = max(1, round(N * (math.sqrt(5.0) - 1.0) / 2.0))
    while math.gcd(a, N) != 1:
        a -= 1
    z = [1]
    for _ in range(d - 1):
        z.append((z[-1] * a) % N)
    return tuple(z)


def uniform_random(N: int, d: int, seed: int) -> PointSet:
    """N iid uniform points (the MC baseline); deterministic given the seed."""
    rng = np.random.default_rng(seed)
    pts = rng.random((N, d))
    prov = Provenance(generator="uniform", randomization="iid", seed=seed, index_range=(0, N))
    return PointSet(pts, d, prov)


def random_shift(ps: PointSet, shift) -> PointSet:
    """Translate every point by ``shift`` with wrap-around mod 1."""
    delta = as_point(shift, ps.dim)
    pts = np.mod(ps.points + delta, 1.0)
    prov = replace(
        ps.provenance,
        randomization=(ps.provenance.randomization + "+shift").removeprefix("none+"),
    )
    return PointSet(pts, ps.dim, prov)


def baker_fold(ps: PointSet) -> PointSet:
    """Tent map t -> 1 - |2t - 1| applied coordinate-wise; output stays in [0, 1]."""
    pts = 1.0 - np.abs(2.0 * ps.points - 1.0)
    prov = replace(
        ps.provenance,
        randomization=(ps.provenance.randomization + "+fold").removeprefix("none+"),
    )
    return PointSet(pts, ps.dim, prov)


def midpoint_axis(m: int) -> np.ndarray:
    """The m cell midpoints (2i-1)/(2m), i = 1..m, of one grid axis."""
    return (2.0 * np.arange(1, m + 1) - 1.0) / (2.0 * m)


@dataclass(frozen=True)
class MidpointGrid(PointSet):
    """``midpoint_grid(side, dim)``: grid node (i_1, ..., i_d) sits at
    row-major position (i_1, ..., i_d), and its coordinate j is the i_j-th
    of the ``side`` axis midpoints. Shifting or folding it gives a plain
    ``PointSet``."""

    side: int

    def __post_init__(self):
        super().__post_init__()
        if self.side < 1 or self.side**self.dim != len(self):
            raise ValueError(f"{len(self)} points are not a {self.side}^{self.dim} grid")


def midpoint_grid(m: int, d: int) -> MidpointGrid:
    """Cartesian grid of cell midpoints (2i-1)/(2m), i = 1..m, per axis.

    Points are strictly interior; in d = 1 the mesh ratio is exactly 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    total = m**d
    if total > _GRID_GUARD:
        raise ValueError(f"midpoint grid of {m}^{d} = {total} points exceeds the size guard")
    grids = np.meshgrid(*([midpoint_axis(m)] * d), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    prov = Provenance(generator=f"midpoint-grid(m={m})", index_range=(0, total))
    return MidpointGrid(pts, d, prov, m)


def default_fill_resolution(d: int) -> int:
    return _FILL_RESOLUTION.get(d, _FILL_RESOLUTION_HIGH_D)


def _index_lattice(values: np.ndarray, d: int) -> np.ndarray:
    """Every d-tuple over ``values``, as an (len(values)^d, d) index array."""
    return np.stack(np.meshgrid(*([values] * d), indexing="ij"), axis=-1).reshape(-1, d)


def _fill_distance(tree, axis: np.ndarray, d: int) -> float:
    """max over the grid axis^d of the distance to the nearest point in
    ``tree``, a ``scipy.spatial.cKDTree``.

    Branch and bound over cells of the grid: every grid point of a cell of
    side s (in grid steps) lies within its half diagonal of the cell centre,
    a grid point when s is even, so by the triangle inequality a cell whose
    centre distance plus half diagonal stays below a distance already
    attained holds no larger one and is dropped unqueried. Every distance
    that enters the maximum is a tree query at a grid point, so the result is
    the float the exhaustive query returns.
    """

    def nearest(index):
        return tree.query(axis[index], k=1)[0]

    res = len(axis) - 1
    side = next((s for s in (8, 4, 2) if res % s == 0), 0)
    if not side:
        return float(np.max(nearest(_index_lattice(np.arange(res + 1), d))))
    best = float(np.max(nearest(_index_lattice(np.arange(0, res + 1, side), d))))
    cells = _index_lattice(np.arange(0, res, side), d)  # lower corners
    # half diagonal of a cell per grid step of its side, from the widest step
    half_step = 0.5 * math.sqrt(d) * float(np.max(np.diff(axis)))
    while True:
        centre = nearest(cells + side // 2)
        best = float(np.max(centre, initial=best))
        # the relative margin covers rounding in the distances and the bound
        cells = cells[centre + side * half_step > best * (1.0 - 1e-12)]
        if side == 2:
            break
        side //= 2
        cells = (cells[:, None, :] + _index_lattice(np.array([0, side]), d)).reshape(-1, d)
    # the side-1 cells left: every grid point of a side-2 cell, deduplicated
    # by flat grid index, whose sort order is the row order of the indices
    corners = (cells[:, None, :] + _index_lattice(np.arange(3), d)).reshape(-1, d)
    shape = (res + 1,) * d
    flat = np.unique(np.ravel_multi_index(corners.T, shape))
    corners = np.stack(np.unravel_index(flat, shape), axis=1)
    return float(np.max(nearest(corners), initial=best))


def geometry(ps: PointSet, fill_resolution: Optional[int] = None) -> GeometryMetrics:
    """Fill distance, separation radius and mesh ratio of a point set.

    The separation radius (half the minimum pairwise distance) is exact; the
    fill distance sup_x min_n ||x - u^n|| is approximated from below by a
    regular evaluation grid with ``fill_resolution`` cells per axis (grid
    lines include the cube boundary, so boundary-attained suprema of simple
    configurations are found exactly). The grid maximum is exact, found by a
    pruned search that queries only part of the grid. A single-point set
    reports an infinite separation radius with ``single_point`` set.
    """
    if len(ps) == 0:
        raise ValueError("geometry of an empty point set is undefined")
    res = fill_resolution if fill_resolution is not None else default_fill_resolution(ps.dim)
    if res < 1:
        raise ValueError("fill_resolution must be >= 1")
    if (res + 1) ** ps.dim > _GRID_GUARD:
        raise ValueError(
            f"fill grid of {res + 1}^{ps.dim} evaluation points exceeds the size guard; "
            "lower fill_resolution"
        )
    from scipy.spatial import cKDTree  # only geometry needs scipy

    tree = cKDTree(ps.points)
    fill = _fill_distance(tree, np.linspace(0.0, 1.0, res + 1), ps.dim)

    if len(ps) == 1:
        return GeometryMetrics(
            fill_distance=fill,
            separation_radius=math.inf,
            mesh_ratio=0.0,
            fill_resolution=res,
            single_point=True,
        )
    # each point's nearest other point: memory linear in N, not N(N-1)/2 pairs
    separation = 0.5 * float(np.min(tree.query(ps.points, k=2)[0][:, 1]))
    ratio = fill / separation if separation > 0.0 else math.inf
    return GeometryMetrics(
        fill_distance=fill,
        separation_radius=separation,
        mesh_ratio=ratio,
        fill_resolution=res,
    )


def write_points_csv(ps: PointSet, path) -> None:
    """CSV export: header ``dim,index,x1,...,xd`` with 17-significant-digit values."""
    n, d = ps.points.shape
    start = ps.provenance.index_range[0]
    table = np.empty((n, d + 1), dtype=object)
    table[:, 0] = range(start, start + n)
    table[:, 1:] = ps.points
    line = f"{d},%d" + ",%.17g" * d + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(["dim", "index"] + [f"x{i + 1}" for i in range(d)]) + "\n")
        fh.write((line * n) % tuple(table.ravel()))


def read_points_csv(path) -> PointSet:
    """Read back a point set written by :func:`write_points_csv`."""
    with open(path) as fh:
        header, _, body = fh.read().lstrip().partition("\n")
    if not header.startswith("dim,index"):
        raise ValueError(f"{path}: missing 'dim,index,x1,...' header")
    if not body.strip():
        raise ValueError(f"{path}: no data rows")
    table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if table.shape[1] < 3:
        raise ValueError(f"{path}: rows need dim, index and at least one coordinate")
    dim, start = int(table[-1, 0]), int(table[0, 1])
    prov = Provenance(generator=f"file({path})", index_range=(start, start + table.shape[0]))
    return PointSet(table[:, 2:], dim, prov)
