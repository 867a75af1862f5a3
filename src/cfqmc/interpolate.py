"""Kernel interpolation surrogates with exactly computable integrals.

``fit`` solves the node interpolation equations for the coefficient vector,
producing a surrogate f_M(x) = sum_n beta_n K(x, u^n) whose integral over the
cube is the closed-form sum of per-node kernel integrals. Subtracting that
integral gives a zero-integral function (the control functional) used by the
estimators module.

The kernel span does not contain exact constants, so flat targets are fitted
approximately; the achieved node residual is recorded on the result.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import linalg as sla

from .kernels import KernelSpec, gram, kernel_cross, kernel_integral
from .points import PointSet

DEFAULT_JITTER_PER_NODE = 1e-10

_EVAL_CHUNK = 65536


@dataclass(frozen=True)
class Interpolant:
    """A fitted surrogate: nodes, coefficients, and its exact cube integral."""

    spec: KernelSpec
    nodes: PointSet
    beta: np.ndarray
    exact_integral: float
    jitter: float
    residual_norm: float
    solver_note: Optional[str] = None

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        if beta.shape != (len(self.nodes),):
            raise ValueError("coefficient vector length must equal the node count")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)


def default_jitter(n_nodes: int) -> float:
    """Scaled nugget 1e-10 * M: keeps ~8-digit interpolation while guaranteeing
    a factorizable system on clustered grids."""
    return DEFAULT_JITTER_PER_NODE * n_nodes


def fit(spec: KernelSpec, nodes: PointSet, values, jitter: Optional[float] = None) -> Interpolant:
    """Solve (G + jitter I) beta = values and attach the closed-form integral.

    Uses a symmetric positive-definite factorization, falling back to a
    pivoted least-squares solve (with a note on the result) if factorization
    fails, so long campaigns survive an ill-conditioned replicate.
    """
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if vals.shape[0] != len(nodes):
        raise ValueError(f"{vals.shape[0]} values for {len(nodes)} nodes")
    if jitter is None:
        jitter = default_jitter(len(nodes))
    if jitter < 0.0:
        raise ValueError("jitter must be >= 0")

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
    node_integrals = kernel_integral(spec, nodes.points)
    exact = float(np.dot(beta, np.atleast_1d(node_integrals)))
    return Interpolant(
        spec=spec,
        nodes=nodes,
        beta=beta,
        exact_integral=exact,
        jitter=jitter,
        residual_norm=residual,
        solver_note=note,
    )


def evaluate(interp: Interpolant, x):
    """Surrogate value sum_n beta_n K(x, u^n) at a point (d,) or stack (n, d).

    A single point is evaluated as a one-row stack; stacks are evaluated in
    chunks.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    rows = np.atleast_2d(x_arr)
    nodes = interp.nodes.points
    out = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], _EVAL_CHUNK):
        block = rows[start : start + _EVAL_CHUNK]
        out[start : start + _EVAL_CHUNK] = kernel_cross(interp.spec, block, nodes) @ interp.beta
    return float(out[0]) if x_arr.ndim == 1 else out


def control_functional(interp: Interpolant, x):
    """Zero-integral correction f_M(x) - I[f_M] built from the surrogate."""
    return evaluate(interp, x) - interp.exact_integral
