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
Grid surrogates are evaluated per axis: one m-vector of kernel values per
axis and point, contracted with the coefficient tensor. Node sets that are
not exactly a midpoint grid take the dense Cholesky path.

The kernel span does not contain exact constants, so flat targets are fitted
approximately; the achieved node residual is recorded on the result.
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np
from scipy import linalg as sla

from .kernels import KernelSpec, _wendland_inplace, gram, kernel_cross, kernel_integral, row_blocks
from .points import PointSet, midpoint_axis, midpoint_grid

DEFAULT_JITTER_PER_NODE = 1e-10

# Bound on the eigenvector bytes the grid factor cache keeps (the newest
# factor is always kept).
_FACTOR_CACHE_BYTES = 64 << 20

# Bound on one grid-evaluation block, counted as 4 d m floats per row (the
# distances, kernel values and kernel-core temporaries). Blocks that stay in
# cache run faster. With a 2 MiB L2 per core, a 1024-row stack took 7.0-8.2
# ms at d = 1, m = 1024 in 1 MiB (32-row) blocks against 8.4-9.7 ms in 8 MiB
# ones and 9.6 ms in 256 KiB ones; at d = 2, m = 32 it took 0.42-0.66 ms in
# 1 MiB blocks against 0.61-0.71 ms in 8 MiB ones.
_GRID_BLOCK_BYTES = 1 << 20


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
class Interpolant:
    """A fitted surrogate: nodes, coefficients, and its exact cube integral.

    ``grid_m`` is the grid side when the nodes are ``midpoint_grid(grid_m, d)``
    (evaluation then runs per axis) and 0 for any other node set.
    """

    spec: KernelSpec
    nodes: PointSet
    beta: np.ndarray
    exact_integral: float
    jitter: float
    residual_norm: float
    solver_note: Optional[str] = None
    grid_m: int = 0

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        if beta.shape != (len(self.nodes),):
            raise ValueError("coefficient vector length must equal the node count")
        if self.grid_m and self.grid_m**self.spec.dim != len(self.nodes):
            raise ValueError("grid side does not match the node count")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)


def default_jitter(n_nodes: int) -> float:
    """Scaled nugget 1e-10 * M: keeps ~8-digit interpolation while guaranteeing
    a factorizable system on clustered grids."""
    return DEFAULT_JITTER_PER_NODE * n_nodes


def _grid_side(spec: KernelSpec, nodes: PointSet) -> int:
    """m when the nodes are exactly midpoint_grid(m, spec.dim), else 0.

    Grid node (i_1, ..., i_d) sits at row-major position (i_1, ..., i_d) and
    its coordinate j is the i_j-th axis midpoint, so each coordinate is
    compared with the axis laid along its own tensor axis.
    """
    n, d = nodes.points.shape
    if d != spec.dim or n == 0:
        return 0
    m = round(n ** (1.0 / d))
    if m**d != n:
        return 0
    axis = midpoint_axis(m)
    tensor = nodes.points.reshape((m,) * d + (d,))
    for j in range(d):
        if not np.all(tensor[..., j] == axis.reshape((m,) + (1,) * (d - 1 - j))):
            return 0
    return m


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
    """(beta, bare-kernel node residual) of the Kronecker system, or None when
    the shifted spectrum is not positive."""
    spectrum = reduce(np.multiply.outer, [factor.values] * d).reshape(-1)
    shifted = spectrum + jitter
    if not np.all(shifted > 0.0):
        return None
    coeffs = _kron_apply(factor.vectors.T, vals, d) / shifted
    beta = _kron_apply(factor.vectors, coeffs, d)
    fitted = _kron_apply(factor.vectors, spectrum * coeffs, d)
    return beta, float(np.max(np.abs(fitted - vals)))


def fit(spec: KernelSpec, nodes: PointSet, values, jitter: Optional[float] = None) -> Interpolant:
    """Solve (G + jitter I) beta = values and attach the closed-form integral.

    On a midpoint grid the system is solved through the cached eigenpairs of
    the axis Gram. Otherwise, or when the shifted grid spectrum is not
    positive, it uses a symmetric positive-definite factorization, falling
    back to a pivoted least-squares solve (with a note on the result) if
    factorization fails, so long campaigns survive an ill-conditioned
    replicate.
    """
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if vals.shape[0] != len(nodes):
        raise ValueError(f"{vals.shape[0]} values for {len(nodes)} nodes")
    if jitter is None:
        jitter = default_jitter(len(nodes))
    if jitter < 0.0:
        raise ValueError("jitter must be >= 0")

    m = _grid_side(spec, nodes)
    factor = _grid_factor(spec, m) if m else None
    solved = _grid_solve(factor, spec.dim, vals, jitter) if m else None
    note = None
    if solved is not None:
        beta, residual = solved
        # the product a[i_1] * ... * a[i_d] in kernel_integral's order, so
        # the node integrals are bitwise the same
        node_integrals = reduce(np.multiply.outer, [factor.integrals] * spec.dim).reshape(-1)
    else:
        m = 0
        beta, residual, note = _dense_solve(spec, nodes, vals, jitter)
        node_integrals = np.atleast_1d(kernel_integral(spec, nodes.points))
    exact = float(np.dot(beta, node_integrals))
    return Interpolant(
        spec=spec,
        nodes=nodes,
        beta=beta,
        exact_integral=exact,
        jitter=jitter,
        residual_norm=residual,
        solver_note=note,
        grid_m=m,
    )


def _dense_solve(spec: KernelSpec, nodes: PointSet, vals: np.ndarray, jitter: float):
    """(beta, bare-kernel node residual, solver note) from the assembled Gram."""
    g = gram(spec, nodes, jitter)
    note = None
    try:
        cho = sla.cho_factor(g, lower=True, check_finite=False)
        beta = sla.cho_solve(cho, vals, check_finite=False)
    except sla.LinAlgError:
        cond = np.linalg.cond(g)
        note = f"cholesky failed (cond~{cond:.3e}); used least-squares fallback"
        warnings.warn(note, RuntimeWarning)
        beta, *_ = sla.lstsq(g, vals, check_finite=False)

    # g carries the nugget on its diagonal; the residual is against the bare kernel
    residual = float(np.max(np.abs(g @ beta - jitter * beta - vals))) if len(vals) else 0.0
    return beta, residual, note


def _grid_values(interp: Interpolant, rows: np.ndarray) -> np.ndarray:
    """Grid surrogate at the rows: per-axis kernel values, then a contraction
    with the (m,)*d coefficient tensor, one axis at a time."""
    m, d = interp.grid_m, interp.spec.dim
    # the last coordinate of the first m grid nodes runs over the axis midpoints
    axis = interp.nodes.points[:m, d - 1]
    r = np.subtract(rows[:, :, None], axis)
    np.abs(r, out=r)
    if interp.spec.support_radius != 1.0:  # r / 1.0 is r
        r /= interp.spec.support_radius
    w = _wendland_inplace(interp.spec.k, r)
    t = w[:, 0, :] @ interp.beta.reshape(m, -1)
    for i in range(1, d):
        t = np.matmul(w[:, i, None, :], t.reshape(rows.shape[0], m, -1))[:, 0, :]
    return t[:, 0]


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
    n, m, d = rows.shape[0], interp.grid_m, interp.spec.dim
    step = 8 * max(1, _GRID_BLOCK_BYTES // (64 * max(4 * d * m, m ** (d - 1))))
    if n <= step + 1:
        return _grid_values(interp, rows)
    out = np.empty(n)
    bounds = [*range(0, n - 1, step), n]
    for start, stop in zip(bounds, bounds[1:]):
        out[start:stop] = _grid_values(interp, rows[start:stop])
    return out


def evaluate(interp: Interpolant, x):
    """Surrogate value sum_n beta_n K(x, u^n) at a point (d,) or stack (n, d).

    A single point is evaluated as a one-row stack. Grid surrogates evaluate
    stacks in cache-sized blocks (``_grid_blocked``), other surrogates in
    blocks bounded by ``kernels.BLOCK_BYTES``.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    rows = np.atleast_2d(x_arr)
    d = interp.spec.dim
    if rows.shape[1] != d:
        raise ValueError(f"dimension mismatch: spec.dim={d}, points are {rows.shape[1]}-d")
    if interp.grid_m:
        out = _grid_blocked(interp, rows)
    else:
        out = np.empty(rows.shape[0])
        nodes = interp.nodes.points
        for block in row_blocks(rows.shape[0], len(nodes)):
            out[block] = kernel_cross(interp.spec, rows[block], nodes) @ interp.beta
    return float(out[0]) if x_arr.ndim == 1 else out


def control_functional(interp: Interpolant, x):
    """Zero-integral correction f_M(x) - I[f_M] built from the surrogate."""
    return evaluate(interp, x) - interp.exact_integral
