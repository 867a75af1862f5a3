"""Kernel interpolation surrogates with exactly computable integrals.

``fit`` solves the node interpolation equations for the coefficient vector,
producing a surrogate f_M(x) = sum_n beta_n K(x, u^n) whose integral over the
cube is the closed-form sum of per-node kernel integrals. Subtracting that
integral gives a zero-integral function (the control functional) used by the
estimators module.

On a midpoint grid the Gram matrix of the tensor-product kernel is the d-fold
Kronecker power of one m x m axis Gram, G = G_1 (x) ... (x) G_1. Its
eigenpairs G_1 = U diag(s) U^T and the axis node integrals depend only on
(k, support radius, m), so they are computed once, kept in a small cache,
and every grid fit solves
(G + lambda I) beta = y as U^(x)d diag(1 / (s^(x)d + lambda)) U^(x)d,T y.
G_1 is symmetric Toeplitz on the equally spaced midpoints, hence
persymmetric, so its eigenpairs come from two eigenproblems of order
ceil(m/2) and floor(m/2), filled from one kernel block of each order
without forming G_1; they factor the Gram's persymmetric part, which equals
the float Gram only to rounding. The cache keeps U as the two half-order
blocks of eigenvectors, ceil(m/2)^2 + floor(m/2)^2 floats. At d = 1 a solve
applies U from them by folding the node values about the middle node, at
d >= 2 it assembles U, which then holds no more floats than the node values.
The nugget lambda = max(0, -min s^(x)d) + 16 eps max s^(x)d is the smallest
shift that keeps that spectrum positive with a relative margin, so the
solve is as close to exact interpolation as the computed spectrum allows.
At d >= 2 grid surrogates are evaluated per axis: one m-vector of kernel
values per axis and point, from ``kernels.kernel_cross`` against the axis
midpoints, contracted with the coefficient tensor. At d = 1
the kernel pieces are polynomials in r on [0, 1], so the sum over the nodes
within reach of x splits into a left and a right sum, each a Taylor sum
sum_q D_q(X - C) sum_i beta_i (C - V_i)^q about a centre C (X, V_i in units
of the support radius, D_q = phi^(q) / q!). An evaluation forms prefix sums
of those moments in float64, split so that they round about once on every
host, and a point costs two binary searches and O(deg^2) flops, not O(m). The
nodes are always a ``points.MidpointGrid``, the only node set the Kronecker
solve applies to.

``fit`` takes R columns of node values, (M, R), as for the replicates of a
campaign cell or the test points of the GP study, which share the grid; one
surrogate is R = 1. The spectrum, nugget, assembled U and node integrals
are formed once, and each application of U or U^T is one matrix product
over all R columns, not R vector products. One ``evaluate`` takes every
column, each at its own stack of points, and forms the d = 1 moment tables
of all columns for that call. A column's floats do not depend on the other
columns' values, so a non-finite column stays in its own coefficients. At
d >= 2 a batch only adds rows to each axis product, and each integral is
its own column's dot product: with OpenBLAS the floats were those of the
column fits (d = 2..4, m up to 45, R up to 17, one and two threads). At
d = 1 they depend on R: the BLAS blocks a product by its shape, so a column
rounds differently in a batch of R than alone, as it does under another
BLAS thread count. The integrals then differ by a few eps sum|beta_i a_i|
(a the node integrals).

The kernel span does not contain exact constants, so flat targets are fitted
approximately; the achieved node residual is recorded on the result.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial, reduce
from math import ceil, comb
from typing import ClassVar, Optional

import numpy as np

from .kernels import _PHI_COEFFS, KernelSpec, gram, kernel_cross, kernel_integral, row_blocks
from .points import MidpointGrid, midpoint_axis

# Bound on the eigenvector bytes the grid factor cache keeps, counted as
# each factor's two half-order blocks: 16 MiB at m = 2048, so the bound holds
# four such factors where it held two m x m eigenvector matrices (the newest
# factor is always kept).
_FACTOR_CACHE_BYTES = 64 << 20

# Spacing of the d = 1 moment-table centres, in units of the support radius.
# A point takes its nearest centre, so it lies within half a step of it and
# its kernel window within _CENTRE_REACH. The table of a centre holds only
# those nodes: prefix sums shared by far-apart centres would cancel large
# sums of far-node moments.
_CENTRE_STEP = 0.25
_CENTRE_REACH = 1.0 + _CENTRE_STEP / 2
# X - 1, X, X + 1: the left edge, the left/right split and the right edge of
# a point's kernel window
_WINDOW = np.array([-1.0, 0.0, 1.0])[:, None]


def _taylor_table(k: int) -> np.ndarray:
    """T[e, q, side] with sum_e T[e, q, side] a^e the q-th Taylor coefficient
    at a of phi (side 0) or of psi(t) = phi(-t) (side 1), shaped
    (deg + 1, deg + 1, 2, 1) to broadcast over points. The entries are small
    integers, so they are exact."""
    c = _PHI_COEFFS[k]
    deg = len(c) - 1
    t = np.zeros((deg + 1, deg + 1, 2, 1))
    for q in range(deg + 1):
        for e in range(deg + 1 - q):
            p = q + e
            t[e, q, 0] = c[p] * comb(p, q)
            t[e, q, 1] = (-1) ** p * t[e, q, 0]
    return t


_TAYLOR = {k: _taylor_table(k) for k in _PHI_COEFFS}


@dataclass(frozen=True)
class _GridFactor:
    """Eigenpairs of the axis Gram on m midpoints, G_1 = U diag(s) U^T, and
    the m axis node integrals a, whose d-fold outer product holds the cube
    integrals of the grid nodes' kernels.

    U is kept as its two persymmetric blocks (``_persymmetric_eigh``). With
    h = m // 2 and c = m - h, ``sym`` is U[:c, :c] and ``skew`` is U[:h, c:];
    the other rows of U are their reversals, U[c:, :c] = J sym[:h] and
    U[c:, c:] = -J skew, and row h of the skew columns is zero at odd m.
    ``values`` holds the c symmetric eigenvalues, then the h skew ones
    (each group unsorted).
    """

    values: np.ndarray
    sym: np.ndarray
    skew: np.ndarray
    integrals: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.sym.nbytes + self.skew.nbytes


_FACTORS: OrderedDict[tuple, _GridFactor] = OrderedDict()
_FACTORS_LOCK = threading.Lock()


@dataclass(frozen=True)
class _AxisMoments:
    """Prefix moments of the R columns of a d = 1 grid fit, in units of the
    support radius (V_i the nodes, C_j the centres).

    Centre j's table holds the nodes with |V_i - C_j| <= _CENTRE_REACH, and
    ``prefix[q, r * stride + base[j] + i]`` is sum beta_l (C_j - V_l)^q over
    the table's nodes l < i for column r: one stacked layout for every R.
    ``bounds`` are the midpoints between centres.
    """

    nodes: np.ndarray
    centres: np.ndarray
    bounds: np.ndarray
    base: np.ndarray
    stride: int
    prefix: np.ndarray


def _exact_part(terms: np.ndarray) -> np.ndarray:
    """hi = (t + sigma) - sigma for each row of w terms t along the last axis,
    sigma the row's power of two above 2 w max|t|: every prefix sum of a
    row's hi, and t - hi, is a float.

    Proof (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 2008): |t| <= sigma / 2,
    so t + sigma lies in [sigma / 2, 3 sigma / 2] and rounds to a multiple
    of u = eps sigma / 2. Subtracting sigma from it is exact (Sterbenz), and
    t - hi is the rounding error of that addition, a float (Fast2Sum). So
    every hi is a multiple of u with |hi| <= |t| + u, and any sum of a row's
    hi is a multiple of u of magnitude at most w (sigma / (2 w) + u) <=
    sigma = 2^53 u: a float, whatever the order of the additions. An
    all-zero row takes sigma = 1 and gives zeros; a row with a NaN or inf
    takes sigma = 1 and keeps its non-finite values to itself.
    """
    _, e = np.frexp(2.0 * terms.shape[-1] * np.max(np.abs(terms), axis=-1, keepdims=True))
    sigma = np.ldexp(1.0, e)
    return (terms + sigma) - sigma


def _axis_moments(spec: KernelSpec, axis: np.ndarray, beta: np.ndarray) -> _AxisMoments:
    """The moment tables of sum_i beta_i phi(|x - axis_i| / rho) for each
    column of ``beta``, (m, R).

    At radius 1 the one centre 1/2 is within 1/2 of every point of the cube
    and its table holds every node. Below 1 the centres are the multiples of
    _CENTRE_STEP up to the first at or past 1/rho. Centres and bounds are
    then exact multiples of 1/8, so a point past bound j - 1 and at most at
    bound j has X - 1 >= C_j - _CENTRE_REACH and X + 1 <= C_j + _CENTRE_REACH
    after rounding too: its window edges fall inside centre j's table.

    Each (moment, column, centre) row of terms t splits exactly as hi + lo,
    hi = ``_exact_part(t)``, and stores cumsum(hi) + cumsum(lo): cumsum(hi)
    is exact, so a prefix sum rounds about once, in float64 on every host,
    and its error does not grow with the table length. Each row takes its
    own scale, so a column's sums run as they would alone.
    """
    rho = spec.support_radius
    nodes = axis / rho
    if rho == 1.0:
        centres = np.array([0.5])
    else:
        centres = np.arange(ceil(1.0 / (rho * _CENTRE_STEP)) + 1) * _CENTRE_STEP
    starts = np.searchsorted(nodes, centres - _CENTRE_REACH, side="left")
    stops = np.searchsorted(nodes, centres + _CENTRE_REACH, side="right")
    width = int(np.max(stops - starts))
    index = starts[:, None] + np.arange(width)
    held = index < stops[:, None]
    index = np.minimum(index, len(nodes) - 1)
    gaps = np.where(held, centres[:, None] - nodes[index], 0.0)
    columns = beta.T
    terms = np.where(held, columns[:, index], 0.0)
    prefix = np.zeros((len(_PHI_COEFFS[spec.k]), len(columns), len(centres), width + 1))
    for q in range(len(prefix)):
        hi = _exact_part(terms)
        prefix[q, :, :, 1:] = np.cumsum(hi, axis=2) + np.cumsum(terms - hi, axis=2)
        terms *= gaps
    return _AxisMoments(
        nodes=nodes,
        centres=centres,
        bounds=(centres[1:] + centres[:-1]) / 2,
        base=np.arange(len(centres)) * (width + 1) - starts,
        stride=len(centres) * (width + 1),
        prefix=prefix.reshape(len(prefix), -1),
    )


@dataclass(frozen=True)
class Interpolant:
    """R fitted surrogates on one grid: the grid nodes, the (M, R)
    coefficients ``beta`` and the (R,) exact cube integrals.

    ``residual_norm`` is the largest node residual over the columns and
    ``jitter`` the nugget the solve added to the Gram's diagonal;
    ``evaluate`` takes all R columns at once.
    """

    spec: KernelSpec
    nodes: MidpointGrid
    beta: np.ndarray
    exact_integral: np.ndarray
    jitter: float
    residual_norm: float
    # always None; the benchmark's tracer counts a result with a note as a
    # solver fallback
    solver_note: ClassVar[Optional[str]] = None

    def __post_init__(self):
        _check_nodes(self.spec, self.nodes)
        beta = np.asarray(self.beta, dtype=np.float64)
        if beta.ndim != 2 or beta.shape[0] != len(self.nodes):
            raise ValueError(f"coefficients of shape {beta.shape} for {len(self.nodes)} nodes; expected (M, R)")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)


def _check_nodes(spec: KernelSpec, nodes) -> None:
    if not isinstance(nodes, MidpointGrid):
        raise TypeError(f"surrogate nodes must be a MidpointGrid, got {type(nodes).__name__}")
    if nodes.dim != spec.dim:
        raise ValueError(f"dimension mismatch: spec.dim={spec.dim}, nodes are {nodes.dim}-d")


def _persymmetric_folds(axis_spec: KernelSpec, axis: np.ndarray):
    """T + F (bordered at odd m) and T - F of the axis Gram G on the m
    midpoints ``axis`` (a column), without forming G.

    The midpoints are equally spaced, so G is symmetric Toeplitz and
    persymmetric, J G J = G with J the reversal. With h = m // 2 and
    c = m - h, T = G[:h, :h] and F = G[:h, c:] J. T and, at odd m, G's middle
    column and G[h, h] come from one ``gram`` of the first c nodes, F from
    ``kernel_cross`` of the first h nodes against the last h reversed. Every
    entry is the kernel at one node pair, so both blocks are bitwise the
    folds of ``gram`` of all m nodes.
    """
    m = len(axis)
    h = m // 2
    sym = gram(axis_spec, axis[: m - h])
    flip = kernel_cross(axis_spec, axis[:h], axis[::-1][:h])
    skew = sym[:h, :h] - flip
    sym[:h, :h] += flip
    if m % 2:
        sym[h, :h] = sym[:h, h] = np.sqrt(2.0) * sym[:h, h]
    return sym, skew


def _persymmetric_eigh(axis_spec: KernelSpec, axis: np.ndarray):
    """(values, sym, skew): the eigenpairs of the axis Gram G on the m
    midpoints ``axis``, from two eigenproblems of half its order, with the
    eigenvectors as ``_GridFactor``'s two blocks.

    Each eigenvector of G is symmetric, [v; sqrt 2 v_mid; J v] / sqrt 2 with
    [v; v_mid] an eigenvector of T + F (``_persymmetric_folds``), or skew,
    [w; 0; -J w] / sqrt 2 with w an eigenvector of T - F (Cantoni and Butler,
    1976). This factors the persymmetric part of G, which equals the float
    Gram only to rounding. Neither G nor the m x m U is formed: at m = 2048
    a cold factor raised the peak RSS by 51.5 MiB, against 75 MiB when both
    were and 164 MB for one eigh of G. The eigenvalues are not sorted.
    """
    h = len(axis) // 2
    sym, skew = _persymmetric_folds(axis_spec, axis)
    sym_values, sym_vectors = np.linalg.eigh(sym)
    del sym
    skew_values, skew_vectors = np.linalg.eigh(skew)
    del skew
    half = np.sqrt(0.5)
    sym_vectors[:h] *= half
    skew_vectors *= half
    return np.concatenate([sym_values, skew_values]), sym_vectors, skew_vectors


def _grid_factor(spec: KernelSpec, m: int) -> _GridFactor:
    """The cached eigenpairs of the axis Gram for (k, support radius, m)."""
    key = (spec.k, spec.support_radius, m)
    with _FACTORS_LOCK:
        factor = _FACTORS.get(key)
        if factor is not None:
            _FACTORS.move_to_end(key)
            return factor
    axis_spec = KernelSpec(spec.k, 1, spec.support_radius)
    axis = midpoint_axis(m)[:, None]
    factor = _GridFactor(*_persymmetric_eigh(axis_spec, axis), kernel_integral(axis_spec, axis))
    with _FACTORS_LOCK:
        _FACTORS[key] = factor
        held = sum(f.nbytes for f in _FACTORS.values())
        while held > _FACTOR_CACHE_BYTES and len(_FACTORS) > 1:
            _, dropped = _FACTORS.popitem(last=False)
            held -= dropped.nbytes
    return factor


def _kron_apply(mat: np.ndarray, t: np.ndarray, d: int) -> np.ndarray:
    """(mat (x) ... (x) mat) applied to t, a flat C-ordered tensor of shape
    (m,)*d or an (m^d, R) stack of R of them, returned in t's shape.

    Each step contracts the leading axis and appends the result axis, so
    after d steps the tensor axes are back in their original order, behind
    the stack axis. A step is ``np.tensordot(t, mat, axes=(0, 1))`` written
    as the one matrix product tensordot makes, on the same operands, so the
    floats are the same; a stack only adds rows to that product.
    """
    shape, m = t.shape, mat.shape[0]
    for _ in range(d):
        t = np.dot(t.reshape(m, -1).T, mat.T)
    return t.reshape(-1, shape[0]).T.reshape(shape)


def _fold_apply(factor: _GridFactor, x: np.ndarray, transpose: bool) -> np.ndarray:
    """U^T x (``transpose``) or U x for an m-vector x or an (m, R) stack of
    them, from U's blocks.

    U^T x folds x into [top + J bottom; middle; top - J bottom] and
    multiplies the c symmetric rows by ``sym``^T and the h skew rows by
    ``skew``^T. U y multiplies first and unfolds the products p (symmetric)
    and q (skew) into [p_top + q; p_middle; J (p_top - q)]. Either way the
    c^2 + h^2 floats of the blocks are read once for all R columns, not the
    m^2 of U per column.
    """
    sym, skew = factor.sym, factor.skew
    c, h = len(sym), len(skew)
    if transpose:
        top, bottom = x[:h], x[::-1][:h]
        fold = np.concatenate([top + bottom, x[h:c], top - bottom])
        return np.concatenate([sym.T @ fold[:c], skew.T @ fold[c:]])
    p, q = sym @ x[:c], skew @ x[c:]
    return np.concatenate([p[:h] + q, p[h:], (p[:h] - q)[::-1]])


def _eigen_maps(factor: _GridFactor, d: int):
    """(x -> U^(x)d,T x, y -> U^(x)d y) on flat (m,)*d tensors or (m^d, R)
    stacks of them.

    At d = 1 they apply U from its blocks (``_fold_apply``). At d >= 2, U is
    assembled once for both maps and applied one axis at a time
    (``_kron_apply``): it holds no more floats than one tensor, and one
    matrix product per axis costs less than a fold's several numpy calls on
    the grids a campaign fits (m <= 45 at N = 4096).
    """
    if d == 1:
        return partial(_fold_apply, factor, transpose=True), partial(_fold_apply, factor, transpose=False)
    sym, skew = factor.sym, factor.skew
    c, h = len(sym), len(skew)
    u = np.zeros((c + h, c + h))
    u[:c, :c] = sym
    u[:h, c:] = skew
    u[c:, :c] = sym[:h][::-1]
    np.negative(skew[::-1], out=u[c:, c:])
    return partial(_kron_apply, u.T, d=d), partial(_kron_apply, u, d=d)


def _grid_solve(factor: _GridFactor, d: int, vals: np.ndarray):
    """(beta, nugget, bare-kernel node residual) of the Kronecker system for
    the (M, R) node values ``vals``, the residual the largest over the
    columns. On fine grids the smallest computed eigenvalues round to zero
    or below, and the nugget lifts them to 16 eps of the largest."""
    spectrum = reduce(np.multiply.outer, [factor.values] * d).reshape(-1, 1)
    nugget = max(0.0, -float(spectrum.min())) + 16.0 * np.finfo(np.float64).eps * float(spectrum.max())
    to_eigen, from_eigen = _eigen_maps(factor, d)
    coeffs = to_eigen(vals) / (spectrum + nugget)
    beta = from_eigen(coeffs)
    fitted = from_eigen(spectrum * coeffs)
    return beta, nugget, float(np.max(np.abs(fitted - vals)))


def fit(spec: KernelSpec, nodes: MidpointGrid, values) -> Interpolant:
    """Solve (G + nugget I) beta = values on a midpoint grid and attach the
    closed-form integrals.

    ``values`` holds R columns of one value per node, (M, R), solved
    together in one pass into an R-column ``Interpolant``; one surrogate is
    R = 1. The system is solved through the cached eigenpairs of the axis
    Gram, and the nugget is chosen from their spectrum (``_grid_solve``); it
    is recorded as ``Interpolant.jitter``. Raises TypeError for nodes that
    are not a ``MidpointGrid`` and ValueError when their dimension is not
    ``spec.dim`` or the values are not (M, R) with M the node count.
    """
    _check_nodes(spec, nodes)
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 2 or vals.shape[0] != len(nodes):
        raise ValueError(f"node values of shape {vals.shape} for {len(nodes)} nodes; expected (M, R)")

    factor = _grid_factor(spec, nodes.side)
    beta, nugget, residual = _grid_solve(factor, spec.dim, vals)
    # the product a[i_1] * ... * a[i_d] in kernel_integral's order, so the
    # node integrals are bitwise the same
    node_integrals = reduce(np.multiply.outer, [factor.integrals] * spec.dim).reshape(-1)
    # one dot product per column, as a one-column fit takes it: a matrix
    # product over the columns would round each integral another way
    exact = np.array([np.dot(column, node_integrals) for column in beta.T])
    return Interpolant(
        spec=spec,
        nodes=nodes,
        beta=beta,
        exact_integral=exact,
        jitter=nugget,
        residual_norm=residual,
    )


def _axis_values(spec: KernelSpec, mom: _AxisMoments, x: np.ndarray, col) -> np.ndarray:
    """d = 1 grid surrogate at the points x from its moment tables ``mom``,
    point i from the tables of column ``col[i]``.

    A point X (in support units) takes its nearest centre C and sums
    D_q(X - C) times the left-window moments plus the psi analogue times the
    right-window ones, psi(t) = phi(-t). Every step is elementwise, a gather
    or a binary search, so a point's float does not depend on the stack
    around it or on BLAS. A point holds about 10 (deg + 1) floats of
    temporaries.
    """
    scaled = x / spec.support_radius
    centre = np.searchsorted(mom.bounds, scaled)
    offset = scaled - mom.centres[centre]
    rows = np.searchsorted(mom.nodes, scaled + _WINDOW, side="right")
    rows += mom.base[centre] + np.multiply(col, mom.stride)
    moments = mom.prefix[:, rows]
    sides = np.subtract(moments[:, 1:], moments[:, :2])
    taylor = _TAYLOR[spec.k]
    weights = taylor[-1] * offset
    for e in range(len(taylor) - 2, 0, -1):  # Horner in the offset
        weights += taylor[e]
        weights *= offset
    weights += taylor[0]
    weights *= sides
    return np.cumsum(weights.reshape(-1, len(x)), axis=0)[-1]


def _grid_values(beta: np.ndarray, rows: np.ndarray, axis) -> np.ndarray:
    """Grid surrogate of one column's contiguous coefficients at the rows:
    one ``kernel_cross`` block of axis kernel values per axis against
    ``axis`` (the one-axis kernel, the axis midpoints as a column), then a
    contraction with the (m,)*d coefficient tensor, one axis at a time."""
    axis_spec, nodes = axis
    m, d = len(nodes), rows.shape[1]
    t = kernel_cross(axis_spec, rows[:, 0, None], nodes) @ beta.reshape(m, -1)
    for i in range(1, d):
        w = kernel_cross(axis_spec, rows[:, i, None], nodes)
        t = np.matmul(w[:, None, :], t.reshape(rows.shape[0], m, t.shape[1] // m))[:, 0, :]
    return t[:, 0]


def evaluate(interp: Interpolant, stacks) -> np.ndarray:
    """Surrogate values sum_n beta_n K(x, u^n) of every column of a fit,
    each at its own stack of points: (R, n, d) stacks give (R, n) values.

    d = 1 surrogates evaluate from moment tables (``_axis_values``) formed
    for the call, all columns in one pass at about 10 (deg + 1) floats a
    point; the others per axis (``_grid_values``), one column at a time at
    4 d m floats (or m^(d-1) partial sums) a row, in 8-row groups. Both run
    in ``kernels.row_blocks``, and a column's floats are those of a
    one-column fit: with one BLAS thread OpenBLAS rounds a row alike in any
    block of whole 8-row groups.
    """
    stacks = np.asarray(stacks, dtype=np.float64)
    spec, beta = interp.spec, interp.beta
    m, d = interp.nodes.side, spec.dim
    if stacks.ndim != 3 or len(stacks) != beta.shape[1] or stacks.shape[2] != d:
        raise ValueError(f"dimension mismatch: points {stacks.shape} for {beta.shape[1]} column(s) at d = {d}")
    out = np.empty(stacks.shape[:2])
    # 4 / rho centres: a support under 1/16 of the node spacing would take
    # over 64 m of them, so such a surrogate is evaluated per axis
    if d == 1 and 16 * m * spec.support_radius >= 1.0:
        mom = _axis_moments(spec, interp.nodes.points[:, 0], beta)
        col = np.repeat(np.arange(len(stacks)), out.shape[1])
        for block in row_blocks(out.size, 80 * len(mom.prefix)):
            out.flat[block] = _axis_values(spec, mom, stacks.flat[block], col[block])
        return out
    columns = np.ascontiguousarray(beta.T)
    axis = KernelSpec(spec.k, 1, spec.support_radius), midpoint_axis(m)[:, None]
    for r, rows in enumerate(stacks):
        for block in row_blocks(len(rows), 8 * max(4 * d * m, m ** (d - 1)), multiple=8):
            out[r, block] = _grid_values(columns[r], rows[block], axis)
    return out


def control_functional(interp: Interpolant, stacks) -> np.ndarray:
    """Zero-integral corrections f_M(x) - I[f_M] of every column, at (R, n, d)
    stacks as ``evaluate`` takes them."""
    return evaluate(interp, stacks) - interp.exact_integral[:, None]
