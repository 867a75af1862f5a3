"""Core integration estimators on the unit cube.

The plain equal-weight estimator averages the integrand over a point set.
The accelerated estimator first fits a kernel surrogate on a midpoint grid, then
averages the residual integrand minus surrogate over the evaluation set and
adds back the surrogate's exact integral:

    estimate = I[f_M] + mean_v (f(v) - f_M(v))

Every integrand evaluation is counted, which backs the equal-budget
accounting used in the benchmark harness.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .interpolate import Interpolant, evaluate, fit
from .kernels import BLOCK_BYTES, KernelSpec, kernel_cross, kernel_double_integral, kernel_integral, row_blocks
from .points import MidpointGrid, PointSet

WCE_CLAMP = 1e-14
# Rows per block of the WCE pair sum. The sum runs over the upper block
# triangle, so it computes about N^2 / 2 + N * rows / 2 kernel entries, and
# short blocks stay in cache: with a 4 MiB L2, 16 to 64 rows timed within 10%
# of each other, 128 rows 1.25x and 256 rows 1.65x slower (N = 1024, 2048).
# 32 rows ran the WCE sums 10-20% faster than 64, but the block sums then
# add in another order, and the squared error D - 2S + P cancels to about
# 1e-8 of its terms, so the printed 12-digit errors moved in their last digit.
_PAIR_ROWS = 64


class Integrand:
    """A counted black-box integrand f : [0,1]^d -> R.

    ``fn`` must map an (n, d) array to an (n,) array and be deterministic.
    The evaluation counter increments by one per point and is safe to bump
    from concurrent replicate threads.
    """

    def __init__(self, dim: int, fn: Callable[[np.ndarray], np.ndarray]):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim
        self._fn = fn
        self._count = 0
        self._lock = threading.Lock()

    @property
    def eval_count(self) -> int:
        return self._count

    def __call__(self, x) -> float:
        return float(self.eval_batch(np.asarray(x, dtype=np.float64).reshape(1, -1))[0])

    def eval_batch(self, pts) -> np.ndarray:
        arr = np.atleast_2d(np.asarray(getattr(pts, "points", pts), dtype=np.float64))
        if arr.shape[1] != self.dim:
            raise ValueError(f"dimension mismatch: integrand dim={self.dim}, points are {arr.shape[1]}-d")
        out = np.asarray(self._fn(arr), dtype=np.float64).reshape(-1)
        if out.shape[0] != arr.shape[0]:
            raise ValueError("integrand returned wrong number of values")
        with self._lock:
            self._count += arr.shape[0]
        return out


def qmc_estimate(f: Integrand, ps: PointSet) -> float:
    """Equal-weight average of f over the point set."""
    if len(ps) == 0:
        raise ValueError("cannot average over an empty point set")
    return float(np.mean(f.eval_batch(ps)))


def cf_estimate(
    f: Integrand,
    nodes: MidpointGrid,
    eval_points: PointSet,
    spec: KernelSpec,
    jitter: Optional[float] = None,
) -> tuple[float, Interpolant]:
    """Surrogate-corrected estimate: I[f_M] + mean over eval_points of (f - f_M),
    with f_M fitted on the midpoint grid ``nodes``.

    Consumes len(nodes) + len(eval_points) integrand evaluations. Node and
    evaluation roles may overlap, but overlapping wastes budget.
    """
    if nodes.dim != f.dim or eval_points.dim != f.dim:
        raise ValueError("dimension mismatch between integrand and point sets")
    node_values = f.eval_batch(nodes)
    interp = fit(spec, nodes, node_values, jitter)
    f_vals = f.eval_batch(eval_points)
    surrogate_vals = evaluate(interp, eval_points.points)
    estimate = interp.exact_integral + float(np.mean(f_vals - surrogate_vals))
    return estimate, interp


def worst_case_error(spec: KernelSpec, ps: PointSet) -> float:
    """Closed-form worst-case quadrature error of the equal-weight rule.

    The squared error is the double cube integral of the kernel, minus twice
    the mean single integral at the points, plus the mean of the kernel
    matrix, summed over its upper block triangle in row blocks bounded by
    ``kernels.BLOCK_BYTES``.
    Cancellation can push the float result a hair below zero; values
    above -1e-14 are clamped silently, larger undershoots clamp with a
    warning.
    """
    if len(ps) == 0:
        raise ValueError("worst-case error of an empty point set is undefined")
    n = len(ps)
    term_double = kernel_double_integral(spec)
    term_single = float(np.mean(np.atleast_1d(kernel_integral(spec, ps.points))))
    pts = ps.points
    # the kernel matrix is symmetric: each row block adds its diagonal tile
    # and twice the tiles right of it, at most _PAIR_ROWS and BLOCK_BYTES rows
    term_pair = 0.0
    for b in row_blocks(n, max(n, BLOCK_BYTES // (8 * _PAIR_ROWS))):
        block = kernel_cross(spec, pts[b], pts[b.start :])
        tile = block.shape[0]
        term_pair += float(np.sum(block[:, :tile])) + 2.0 * float(np.sum(block[:, tile:]))
    term_pair /= n * n
    e2 = term_double - 2.0 * term_single + term_pair
    if e2 < 0.0:
        if e2 < -WCE_CLAMP:
            warnings.warn(
                f"squared worst-case error {e2:.3e} below the -{WCE_CLAMP:g} clamp threshold",
                RuntimeWarning,
            )
        e2 = 0.0
    return math.sqrt(e2)


def optimal_split(alpha: float, alpha_L: float) -> float:
    """Asymptotically optimal node fraction (alpha - alpha_L) / alpha.

    Requires alpha > alpha_L > 0; otherwise the split is undefined and the
    caller should use the plain estimator.
    """
    if alpha_L <= 0.0:
        raise ValueError("alpha_L must be positive")
    if alpha <= alpha_L:
        raise ValueError(
            f"assumed smoothness {alpha} must exceed the rule smoothness {alpha_L}; "
            "with no surplus smoothness use plain QMC"
        )
    return (alpha - alpha_L) / alpha


@dataclass(frozen=True)
class BudgetSplit:
    """Evaluation-budget allocation between fitting nodes and evaluation points."""

    m_per_axis: int
    n_nodes: int
    n_eval: int
    discarded: int

    @property
    def consumed(self) -> int:
        return self.n_nodes + self.n_eval


def _int_root(n: int, d: int) -> int:
    """floor(n ** (1/d)) without float-precision surprises."""
    m = max(1, int(round(n ** (1.0 / d))))
    while m**d > n:
        m -= 1
    while (m + 1) ** d <= n:
        m += 1
    return m


def split_budget(n_total: int, fraction: float, dim: int = 1) -> BudgetSplit:
    """Allocate a total budget between grid nodes and evaluation points.

    The evaluation count is the largest power of two at most
    (1 - fraction) * n_total and the nodes get the rest. The node count is
    then snapped down to the nearest m^dim for the midpoint grid; the
    remainder is reported as discarded rather than silently re-spent.
    """
    if n_total < 4:
        raise ValueError("budget too small: need n_total >= 4 to allocate both parts")
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    target_eval = (1.0 - fraction) * n_total
    if target_eval < 1.0:
        raise ValueError("budget too small for a power-of-two evaluation set")
    n_eval = 1 << int(math.floor(math.log2(target_eval)))
    raw_nodes = n_total - n_eval
    if raw_nodes < 1 or n_eval < 1:
        raise ValueError("budget too small to allocate both node and evaluation sets")
    m = _int_root(raw_nodes, dim)
    n_nodes = m**dim
    return BudgetSplit(m_per_axis=m, n_nodes=n_nodes, n_eval=n_eval, discarded=raw_nodes - n_nodes)
