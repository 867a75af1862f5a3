"""Point sets on the closed unit cube: generators, randomizations, geometry.

A point set is an array of points and ``start``, the sequence index of its
first row. Generators are deterministic functions of their parameters;
randomness only enters through explicit seeds (random shift, digital shift,
MC sampling). Point arrays are frozen after construction and safe to share
across threads.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .directions import DEFAULT_DIRECTIONS, DirectionTable

SOBOL_BITS = 32

# fill-distance search cells per axis, by dimension (recorded in the output)
_FILL_RESOLUTION = {1: 256, 2: 256, 3: 64, 4: 32}
_FILL_RESOLUTION_HIGH_D = 16
_GRID_GUARD = 1 << 26  # refuse grids that would not fit in memory


@dataclass(frozen=True)
class PointSet:
    """An ordered set of d-dimensional points in [0, 1]^d; row n is point
    ``start + n`` of the sequence that made it."""

    points: np.ndarray
    start: int = 0

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ValueError(f"points must be a 2-d array of d >= 1 columns, got shape {pts.shape}")
        if pts.size and not (pts.min() >= 0.0 and pts.max() <= 1.0):  # NaN fails too
            raise ValueError("coordinates must lie in the closed unit cube")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class GeometryMetrics:
    """Covering/packing geometry of a node set (Euclidean units)."""

    fill_distance: float
    separation_radius: float
    mesh_ratio: float
    fill_resolution: int


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
    return PointSet(np.column_stack(columns), start=1)


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


def sobol(N: int, d: int, directions: Optional[DirectionTable] = None) -> PointSet:
    """First N points of the binary digital net (indices 1..N, origin skipped).

    ``directions`` defaults to the built-in table (dimensions <= 8); larger
    tables can be loaded with :func:`cfqmc.directions.load_direction_file`.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    table = directions if directions is not None else DEFAULT_DIRECTIONS
    x = _sobol_integers(N, d, table)
    return PointSet(x.astype(np.float64) * (0.5**SOBOL_BITS), start=1)


def digital_shift(ps: PointSet, seed: int) -> PointSet:
    """XOR the first SOBOL_BITS binary digits of each dimension's coordinates
    with a random bit vector drawn from ``seed`` (a digital shift): a digital
    net stays a net, with marginally uniform points. Later digits are dropped;
    the points of ``sobol`` have none."""
    bits = np.random.default_rng(seed).integers(0, 1 << SOBOL_BITS, size=ps.dim, dtype=np.uint64)
    return PointSet(((ps.points * 2.0**SOBOL_BITS).astype(np.uint64) ^ bits) * 0.5**SOBOL_BITS, ps.start)


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
    return PointSet(np.mod(n * (z.astype(np.float64) / N), 1.0))


def korobov_vector(N: int, d: int) -> tuple[int, ...]:
    """Fixed Korobov-style generating vector (1, a, a^2, ...) mod N.

    The multiplier is the golden-ratio fraction of N nudged to be coprime
    with N; a pragmatic default, not a searched-for optimum.
    """
    if N < 1:
        raise ValueError(f"a lattice needs N >= 1 points, got {N}")
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
    return PointSet(np.random.default_rng(seed).random((N, d)))


def random_shift(ps: PointSet, shift) -> PointSet:
    """Translate every point by ``shift``, a point of the cube, with
    wrap-around mod 1."""
    delta = np.asarray(shift, dtype=np.float64).reshape(-1)
    if delta.shape != (ps.dim,):
        raise ValueError(f"dimension mismatch: expected {ps.dim} coordinates, got {delta.shape[0]}")
    if not (delta.min() >= 0.0 and delta.max() <= 1.0):
        raise ValueError("shift must lie in the closed unit cube")
    return PointSet(np.mod(ps.points + delta, 1.0), ps.start)


def baker_fold(ps: PointSet) -> PointSet:
    """Tent map t -> 1 - |2t - 1| applied coordinate-wise; output stays in [0, 1]."""
    return PointSet(1.0 - np.abs(2.0 * ps.points - 1.0), ps.start)


def midpoint_axis(m: int) -> np.ndarray:
    """The m cell midpoints (2i-1)/(2m), i = 1..m, of one grid axis."""
    return (2.0 * np.arange(1, m + 1) - 1.0) / (2.0 * m)


@dataclass(frozen=True)
class MidpointGrid(PointSet):
    """``midpoint_grid(side, dim)``: grid node (i_1, ..., i_d) sits at
    row-major position (i_1, ..., i_d), and its coordinate j is the i_j-th
    of the ``side`` axis midpoints. Shifting or folding it gives a plain
    ``PointSet``."""

    side: int = field(kw_only=True)

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
    return MidpointGrid(np.stack([g.reshape(-1) for g in grids], axis=1), side=m)


def default_fill_resolution(d: int) -> int:
    return _FILL_RESOLUTION.get(d, _FILL_RESOLUTION_HIGH_D)


def geometry_max_dim() -> int:
    """The largest dimension whose default fill grid fits the size guard."""
    d = 1
    while (default_fill_resolution(d + 1) + 1) ** (d + 1) <= _GRID_GUARD:
        d += 1
    return d


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
    has no nearest other point: its separation radius is infinite and its
    mesh ratio 0.
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
    # each point's nearest other point (at infinity when N = 1): memory
    # linear in N, not N(N-1)/2 pairs
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
    table = np.empty((n, d + 1), dtype=object)
    table[:, 0] = range(ps.start, ps.start + n)
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
    dim = table.shape[1] - 2
    bad = np.flatnonzero(table[:, 0] != dim)
    if bad.size:
        row = bad[0]
        raise ValueError(f"{path}: data row {row + 1} has dim {table[row, 0]:g} but {dim} coordinates")
    return PointSet(table[:, 2:], int(table[0, 1]))
