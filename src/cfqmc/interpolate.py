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
(G + jitter I) beta = y as U^(x)d diag(1 / (s^(x)d + jitter)) U^(x)d,T y.
At d >= 2 grid surrogates are evaluated per axis: one m-vector of kernel
values per axis and point, contracted with the coefficient tensor. At d = 1
the kernel pieces are polynomials in r on [0, 1], so the sum over the nodes
within reach of x splits into a left and a right sum, each a Taylor sum
sum_q D_q(X - C) sum_i beta_i (C - V_i)^q about a centre C (X, V_i in units
of the support radius, D_q = phi^(q) / q!). Where long double is wider than
double, every fit keeps prefix sums of those moments, and a point costs two
binary searches and O(deg^2) flops, not O(m). The nodes are always a
``points.MidpointGrid``, the only node set the Kronecker solve applies to.

The kernel span does not contain exact constants, so flat targets are fitted
approximately; the achieved node residual is recorded on the result.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import reduce
from math import ceil, comb
from typing import ClassVar, Optional

import numpy as np

# kernel_cross is unused here, but the benchmark's tracer patches it by name
from .kernels import _PHI_COEFFS, KernelSpec, _wendland_inplace, gram, kernel_cross, kernel_integral, row_blocks
from .points import MidpointGrid, midpoint_grid

DEFAULT_JITTER_PER_NODE = 1e-10

# Bound on the eigenvector bytes the grid factor cache keeps (the newest
# factor is always kept).
_FACTOR_CACHE_BYTES = 64 << 20

# Bound on one grid-evaluation block at d >= 2, counted as 4 d m floats per
# row (the distances, kernel values and kernel-core temporaries) or m^(d-1)
# partial sums. Blocks that stay in cache run faster: with a 2 MiB L2 per
# core, a 1024-row stack at d = 2, m = 32 took 0.42-0.66 ms in 1 MiB blocks
# against 0.61-0.71 ms in 8 MiB ones. d = 1 evaluates from moment tables
# and does not use this bound.
_GRID_BLOCK_BYTES = 1 << 20

# Spacing of the d = 1 moment-table centres, in units of the support radius.
# A point takes its nearest centre, so it lies within half a step of it and
# its kernel window within _CENTRE_REACH. The table of a centre holds only
# those nodes: prefix sums shared by far-apart centres would cancel large
# sums of far-node moments.
_CENTRE_STEP = 0.25
_CENTRE_REACH = 1.0 + _CENTRE_STEP / 2
# The moment tables keep their accuracy because their prefix sums accumulate
# in long double. Where long double is double (Windows and Apple silicon
# builds, for example) those sums would round at every step, so d = 1 grids
# are evaluated per axis there.
_WIDE_LONG_DOUBLE = np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant
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
    integrals of the grid nodes' kernels."""

    values: np.ndarray
    vectors: np.ndarray
    integrals: np.ndarray


_FACTORS: OrderedDict[tuple, _GridFactor] = OrderedDict()
_FACTORS_LOCK = threading.Lock()


@dataclass(frozen=True)
class _AxisMoments:
    """Prefix moments of a d = 1 grid surrogate, in units of the support
    radius (V_i the nodes, C_j the centres).

    Centre j's table holds the nodes with |V_i - C_j| <= _CENTRE_REACH, and
    ``prefix[q, base[j] + i]`` is sum beta_l (C_j - V_l)^q over the table's
    nodes l < i. ``bounds`` are the midpoints between centres.
    """

    nodes: np.ndarray
    centres: np.ndarray
    bounds: np.ndarray
    base: np.ndarray
    prefix: np.ndarray


def _axis_moments(spec: KernelSpec, axis: np.ndarray, beta: np.ndarray) -> _AxisMoments:
    """The moment tables of sum_i beta_i phi(|x - axis_i| / rho).

    At radius 1 the one centre 1/2 is within 1/2 of every point of the cube
    and its table holds every node. Below 1 the centres are the multiples of
    _CENTRE_STEP up to the first at or past 1/rho. Centres and bounds are
    then exact multiples of 1/8, so a point past bound j - 1 and at most at
    bound j has X - 1 >= C_j - _CENTRE_REACH and X + 1 <= C_j + _CENTRE_REACH
    after rounding too: its window edges fall inside centre j's table.

    The prefix sums accumulate in long double and are rounded once, so on
    hosts where long double is wider than double their error does not grow
    with the table length.
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
    terms = np.where(held, beta[index], 0.0)
    prefix = np.zeros((len(_PHI_COEFFS[spec.k]), len(centres), width + 1))
    for table in prefix:
        table[:, 1:] = np.cumsum(terms, axis=1, dtype=np.longdouble)
        terms *= gaps
    return _AxisMoments(
        nodes=nodes,
        centres=centres,
        bounds=(centres[1:] + centres[:-1]) / 2,
        base=np.arange(len(centres)) * (width + 1) - starts,
        prefix=prefix.reshape(len(prefix), -1),
    )


@dataclass(frozen=True)
class Interpolant:
    """A fitted surrogate: grid nodes, coefficients, and its exact cube
    integral.

    Evaluation runs from ``moments`` at d = 1 where long double is wider than
    double, per axis otherwise. ``moments`` is derived from the nodes and
    ``beta``.
    """

    spec: KernelSpec
    nodes: MidpointGrid
    beta: np.ndarray
    exact_integral: float
    jitter: float
    residual_norm: float
    moments: Optional[_AxisMoments] = field(default=None, init=False, repr=False, compare=False)
    # always None; the benchmark's tracer counts a result with a note as a
    # solver fallback
    solver_note: ClassVar[Optional[str]] = None

    def __post_init__(self):
        _check_nodes(self.spec, self.nodes)
        beta = np.asarray(self.beta, dtype=np.float64)
        if beta.shape != (len(self.nodes),):
            raise ValueError("coefficient vector length must equal the node count")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        # 4 / rho centres: a support under 1/16 of the node spacing would
        # take over 64 m of them, so such a surrogate is evaluated per axis
        side = self.nodes.side
        if _WIDE_LONG_DOUBLE and self.spec.dim == 1 and 16 * side * self.spec.support_radius >= 1.0:
            moments = _axis_moments(self.spec, self.nodes.points[:, 0], beta)
            object.__setattr__(self, "moments", moments)


def default_jitter(n_nodes: int) -> float:
    """Scaled nugget 1e-10 * M: keeps ~8-digit interpolation while keeping
    the shifted grid spectrum positive on fine grids, where the smallest
    computed eigenvalues of the bare Gram round to zero or below."""
    return DEFAULT_JITTER_PER_NODE * n_nodes


def _check_nodes(spec: KernelSpec, nodes) -> None:
    if not isinstance(nodes, MidpointGrid):
        raise TypeError(f"surrogate nodes must be a MidpointGrid, got {type(nodes).__name__}")
    if nodes.dim != spec.dim:
        raise ValueError(f"dimension mismatch: spec.dim={spec.dim}, nodes are {nodes.dim}-d")


def _grid_factor(spec: KernelSpec, m: int) -> _GridFactor:
    """The cached eigenpairs of the axis Gram for (k, support radius, m)."""
    key = (spec.k, spec.support_radius, m)
    with _FACTORS_LOCK:
        factor = _FACTORS.get(key)
        if factor is not None:
            _FACTORS.move_to_end(key)
            return factor
    axis_spec = KernelSpec(spec.k, 1, spec.support_radius)
    axis_nodes = midpoint_grid(m, 1)
    values, vectors = np.linalg.eigh(gram(axis_spec, axis_nodes))
    factor = _GridFactor(values, vectors, kernel_integral(axis_spec, axis_nodes.points))
    with _FACTORS_LOCK:
        _FACTORS[key] = factor
        held = sum(f.vectors.nbytes for f in _FACTORS.values())
        while held > _FACTOR_CACHE_BYTES and len(_FACTORS) > 1:
            _, dropped = _FACTORS.popitem(last=False)
            held -= dropped.vectors.nbytes
    return factor


def _kron_apply(mat: np.ndarray, t: np.ndarray, d: int) -> np.ndarray:
    """(mat (x) ... (x) mat) applied to the flat C-ordered tensor t of shape
    (m,)*d, returned flat.

    Each step contracts the leading axis and appends the result axis, so
    after d steps the axes are back in their original order. A step is
    ``np.tensordot(t, mat, axes=(0, 1))`` written as the one matrix product
    tensordot makes, on the same operands, so the floats are the same.
    """
    m = mat.shape[0]
    for _ in range(d):
        t = np.dot(t.reshape(m, -1).T, mat.T)
    return t.reshape(-1)


def _grid_solve(factor: _GridFactor, d: int, vals: np.ndarray, jitter: float):
    """(beta, bare-kernel node residual) of the Kronecker system."""
    spectrum = reduce(np.multiply.outer, [factor.values] * d).reshape(-1)
    shifted = spectrum + jitter
    if not np.all(shifted > 0.0):
        raise ValueError(
            f"jitter {jitter:g} leaves the grid system singular: "
            f"smallest shifted eigenvalue {np.min(shifted):.3e}"
        )
    coeffs = _kron_apply(factor.vectors.T, vals, d) / shifted
    beta = _kron_apply(factor.vectors, coeffs, d)
    fitted = _kron_apply(factor.vectors, spectrum * coeffs, d)
    return beta, float(np.max(np.abs(fitted - vals)))


def fit(spec: KernelSpec, nodes: MidpointGrid, values, jitter: Optional[float] = None) -> Interpolant:
    """Solve (G + jitter I) beta = values on a midpoint grid and attach the
    closed-form integral.

    The system is solved through the cached eigenpairs of the axis Gram.
    Raises TypeError for nodes that are not a ``MidpointGrid`` and
    ValueError when their dimension is not ``spec.dim`` or when a
    caller-chosen jitter leaves the shifted spectrum not positive.
    """
    _check_nodes(spec, nodes)
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if vals.shape[0] != len(nodes):
        raise ValueError(f"{vals.shape[0]} values for {len(nodes)} nodes")
    if jitter is None:
        jitter = default_jitter(len(nodes))
    if jitter < 0.0:
        raise ValueError("jitter must be >= 0")

    factor = _grid_factor(spec, nodes.side)
    beta, residual = _grid_solve(factor, spec.dim, vals, jitter)
    # the product a[i_1] * ... * a[i_d] in kernel_integral's order, so the
    # node integrals are bitwise the same
    node_integrals = reduce(np.multiply.outer, [factor.integrals] * spec.dim).reshape(-1)
    exact = float(np.dot(beta, node_integrals))
    return Interpolant(
        spec=spec,
        nodes=nodes,
        beta=beta,
        exact_integral=exact,
        jitter=jitter,
        residual_norm=residual,
    )


def _axis_values(interp: Interpolant, x: np.ndarray) -> np.ndarray:
    """d = 1 grid surrogate at the points x from its moment tables.

    A point X (in support units) takes its nearest centre C and sums
    D_q(X - C) times the left-window moments plus the psi analogue times the
    right-window ones, psi(t) = phi(-t). Every step is elementwise, a gather
    or a binary search, so a point's float does not depend on the stack
    around it or on BLAS. A point holds about 10 (deg + 1) floats of
    temporaries.
    """
    mom = interp.moments
    scaled = x / interp.spec.support_radius
    centre = np.searchsorted(mom.bounds, scaled)
    offset = scaled - mom.centres[centre]
    rows = np.searchsorted(mom.nodes, scaled + _WINDOW, side="right")
    rows += mom.base[centre]
    moments = mom.prefix[:, rows]
    sides = np.subtract(moments[:, 1:], moments[:, :2])
    taylor = _TAYLOR[interp.spec.k]
    weights = taylor[-1] * offset
    for e in range(len(taylor) - 2, 0, -1):  # Horner in the offset
        weights += taylor[e]
        weights *= offset
    weights += taylor[0]
    weights *= sides
    return np.cumsum(weights.reshape(-1, len(x)), axis=0)[-1]


def _grid_values(interp: Interpolant, rows: np.ndarray, clip: bool = True) -> np.ndarray:
    """Grid surrogate at the rows: per-axis kernel values, then a contraction
    with the (m,)*d coefficient tensor, one axis at a time. ``clip=False``
    skips the kernel cut-off, for rows whose every distance is within the
    support."""
    m, d = interp.nodes.side, interp.spec.dim
    axis = _grid_axis(interp)
    # axis - rows, bitwise -(rows - axis), as in kernels.kernel_cross
    r = np.empty((rows.shape[0], d, m))
    r[...] = axis
    r -= rows[:, :, None]
    np.abs(r, out=r)
    if interp.spec.support_radius != 1.0:  # r / 1.0 is r
        r /= interp.spec.support_radius
    w = _wendland_inplace(interp.spec.k, r, clip)
    t = w[:, 0, :] @ interp.beta.reshape(m, -1)
    for i in range(1, d):
        t = np.matmul(w[:, i, None, :], t.reshape(rows.shape[0], m, -1))[:, 0, :]
    return t[:, 0]


def _grid_axis(interp: Interpolant) -> np.ndarray:
    """The axis midpoints: the last coordinate of the first m grid nodes."""
    return interp.nodes.points[: interp.nodes.side, interp.spec.dim - 1]


def _grid_blocked(interp: Interpolant, rows: np.ndarray) -> np.ndarray:
    """``_grid_values`` over a stack, in blocks of a multiple of 8 rows
    within ``_GRID_BLOCK_BYTES`` (and at least 8). A row holds d m distances
    and kernel values (with the kernel core's temporaries, at most 4 d m
    floats) or m^(d-1) partial sums.

    With one thread, OpenBLAS rounds a row alike in any block of whole 8-row
    groups but takes its vector path on a one-row block, so a last block of
    one row joins the block before it: the floats are those of one block
    over the stack.
    """
    n, m, d = rows.shape[0], interp.nodes.side, interp.spec.dim
    # float subtraction and division are monotone, so when the widest gap
    # between a row coordinate and a midpoint is within the support every
    # r <= 1 and the cut-off changes nothing (as in kernels.kernel_cross);
    # on a lone row the test costs more than the cut-off
    axis = _grid_axis(interp)
    inside = n > 1 and max(rows.max() - axis[0], axis[-1] - rows.min()) <= interp.spec.support_radius
    step = 8 * max(1, _GRID_BLOCK_BYTES // (64 * max(4 * d * m, m ** (d - 1))))
    if n <= step + 1:
        return _grid_values(interp, rows, not inside)
    out = np.empty(n)
    bounds = [*range(0, n - 1, step), n]
    for start, stop in zip(bounds, bounds[1:]):
        out[start:stop] = _grid_values(interp, rows[start:stop], not inside)
    return out


def evaluate(interp: Interpolant, x):
    """Surrogate value sum_n beta_n K(x, u^n) at a point (d,) or stack (n, d).

    A single point is evaluated as a one-row stack. d = 1 surrogates
    evaluate from their moment tables (``_axis_values``) where they have
    them, the others per axis in cache-sized blocks (``_grid_blocked``).
    Moment-table evaluation bounds its temporaries by
    ``kernels.BLOCK_BYTES``; its floats do not depend on those blocks.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    rows = np.atleast_2d(x_arr)
    d = interp.spec.dim
    if rows.shape[1] != d:
        raise ValueError(f"dimension mismatch: spec.dim={d}, points are {rows.shape[1]}-d")
    if interp.moments is not None:
        out = np.empty(rows.shape[0])
        for block in row_blocks(rows.shape[0], 10 * len(interp.moments.prefix)):
            out[block] = _axis_values(interp, rows[block, 0])
    else:
        out = _grid_blocked(interp, rows)
    return float(out[0]) if x_arr.ndim == 1 else out


def control_functional(interp: Interpolant, x):
    """Zero-integral correction f_M(x) - I[f_M] built from the surrogate."""
    return evaluate(interp, x) - interp.exact_integral
