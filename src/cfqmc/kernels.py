"""Compactly supported piecewise-polynomial kernels on the unit cube.

The univariate pieces are the smoothness-indexed polynomial bumps

    k = 0:  (1 - r)_+
    k = 1:  (1 - r)_+^3 (3r + 1)
    k = 2:  (1 - r)_+^5 (8r^2 + 5r + 1)

normalized to 1 at r = 0, combined as a tensor product over axes with an
optional per-axis support rescaling r -> r / support_radius. The product
structure is what makes the cube integrals closed-form: each axis factor
integrates to a polynomial expression, so interpolants built on this kernel
have exactly computable integrals.

k = 0 is provided for every dimension even though its radial native-space
characterization carries a d > 3 caveat in the literature; only the tensor
product is used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

SMOOTHNESS_LEVELS = (0, 1, 2)

# Bound on the float64 rows a blocked kernel sum or surrogate evaluation
# holds at once; keeps memory flat in N instead of growing as N x M.
BLOCK_BYTES = 1 << 23

# Expanded coefficients (ascending powers on [0, 1]) of the normalized
# univariate pieces; frozen after hand derivation from the factored forms.
_PHI_COEFFS = {
    0: np.array([1.0, -1.0]),
    1: np.array([1.0, 0.0, -6.0, 8.0, -3.0]),
    2: np.array([1.0, 0.0, -7.0, 0.0, 35.0, -56.0, 35.0, -8.0]),
}
# A_k(u) = int_0^u phi_k(t) dt, valid on [0, 1]
_A_COEFFS = {k: npoly.polyint(c) for k, c in _PHI_COEFFS.items()}
# A_k(1) = int_0^1 phi_k and B_k(1) = int_0^1 A_k (enter the double integral)
_A_AT_1 = {k: float(npoly.polyval(1.0, c)) for k, c in _A_COEFFS.items()}
_B_AT_1 = {k: float(npoly.polyval(1.0, npoly.polyint(c))) for k, c in _A_COEFFS.items()}


@dataclass(frozen=True)
class KernelSpec:
    """Tensor-product kernel description: smoothness k, dimension, support radius.

    ``support_radius`` rescales each axis factor, shrinking the (per-axis)
    support window from 1 to that radius and sparsifying Gram matrices.
    """

    k: int
    dim: int
    support_radius: float = 1.0

    def __post_init__(self):
        if self.k not in SMOOTHNESS_LEVELS:
            raise ValueError(f"smoothness index must be one of {SMOOTHNESS_LEVELS}, got {self.k}")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if not 0.0 < self.support_radius <= 1.0:
            raise ValueError("support_radius must lie in (0, 1]")


def wendland_1d(k: int, r):
    """Univariate kernel piece at distance r >= 0 (scalar or array)."""
    if k not in SMOOTHNESS_LEVELS:
        raise ValueError(f"smoothness index must be one of {SMOOTHNESS_LEVELS}, got {k}")
    r_arr = np.array(r, dtype=np.float64)
    if np.any(r_arr < 0.0):
        raise ValueError("r must be non-negative")
    out = _wendland_inplace(k, r_arr.reshape(-1)).reshape(r_arr.shape)
    return float(out) if np.isscalar(r) or out.ndim == 0 else out


def _wendland_inplace(k: int, r: np.ndarray, clip: bool = True) -> np.ndarray:
    """``wendland_1d(k, r)`` without its checks, for a float64 array of
    distances r >= 0 that the caller owns: ``r`` is overwritten, and the
    result may be ``r`` itself. ``clip=False`` skips the cut-off (1 - r)_+,
    which leaves the floats unchanged when every r <= 1.

    The powers of w = (1 - r)_+ are products, since ``np.power`` calls libm
    ``pow`` per element at about three times the cost: the k = 1 piece is
    w^2 (w (3r + 1)) and the k = 2 piece (w^2)^2 w (8r^2 + 5r + 1). Each
    stays within 8 ulp of its exact value at the float r."""
    w = np.subtract(1.0, r, out=r if k == 0 else None)
    if clip:
        np.maximum(w, 0.0, out=w)
    if k == 0:
        return w
    if k == 1:
        # w (3r + 1) in r, then w^2 in w: (w w) w would take a third array
        r *= 3.0
        r += 1.0
        r *= w
        w *= w
        w *= r
        return w
    poly = np.square(r)
    poly *= 8.0
    r *= 5.0
    r += poly
    r += 1.0
    np.multiply(w, w, out=poly)
    poly *= poly
    poly *= w
    poly *= r
    return poly


def _coords(nodes) -> np.ndarray:
    pts = getattr(nodes, "points", nodes)
    return np.asarray(pts, dtype=np.float64)


def kernel_cross(spec: KernelSpec, x, y) -> np.ndarray:
    """Kernel matrix between two point arrays, shape (len(x), len(y))."""
    xa = np.atleast_2d(_coords(x))
    ya = np.atleast_2d(_coords(y))
    if xa.shape[1] != spec.dim or ya.shape[1] != spec.dim:
        raise ValueError(
            f"dimension mismatch: spec.dim={spec.dim}, arrays are "
            f"{xa.shape[1]} and {ya.shape[1]}"
        )
    out = None
    rho = spec.support_radius
    for i in range(spec.dim):
        xi, yi = xa[:, i], ya[:, i]
        # yi - xi, bitwise -(xi - yi): copying yi into each row and
        # subtracting one x per row in place runs faster than the broadcast
        r = np.empty((len(xi), len(yi)))
        r[...] = yi
        r -= xi[:, None]
        np.abs(r, out=r)
        if rho != 1.0:  # r / 1.0 is r
            r /= rho
        # float subtraction and division are monotone, so when the widest
        # gap on the axis is within the support every r <= 1 and the
        # cut-off changes nothing
        inside = r.size and max(xi.max() - yi.min(), yi.max() - xi.min()) <= rho
        w = _wendland_inplace(spec.k, r, clip=not inside)
        # the first factor is the product itself: 1.0 * w is w exactly
        out = w if out is None else np.multiply(out, w, out=out)
    return out


def row_blocks(n_rows: int, row_floats: int) -> list[slice]:
    """Slices covering range(n_rows), each at most BLOCK_BYTES of float64 rows
    ``row_floats`` wide (and at least one row)."""
    step = max(1, BLOCK_BYTES // (8 * max(1, row_floats)))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _phi_cdf(k: int, u) -> np.ndarray:
    """int_0^u phi_k(t) dt with u clipped to the support [0, 1]."""
    u_clipped = np.minimum(np.asarray(u, dtype=np.float64), 1.0)
    return npoly.polyval(u_clipped, _A_COEFFS[k])


def kernel_integral_1d(k: int, support: float, y):
    """int_0^1 phi_k(|x - y| / support) dx for y in [0, 1] (scalar or array).

    The support interval [y - support, y + support] is truncated by the cube
    boundary, leaving one antiderivative evaluation per side.
    """
    if k not in SMOOTHNESS_LEVELS:
        raise ValueError(f"smoothness index must be one of {SMOOTHNESS_LEVELS}, got {k}")
    if not 0.0 < support <= 1.0:
        raise ValueError("support must lie in (0, 1]")
    y_arr = np.asarray(y, dtype=np.float64)
    if np.any(y_arr < 0.0) or np.any(y_arr > 1.0):
        raise ValueError("y must lie in [0, 1]")
    left = _phi_cdf(k, y_arr / support)
    right = _phi_cdf(k, (1.0 - y_arr) / support)
    out = support * (left + right)
    return float(out) if np.isscalar(y) or out.ndim == 0 else out


def kernel_integral(spec: KernelSpec, y):
    """int_{[0,1]^d} K(x, y) dx: the product of the per-axis integrals.

    Accepts a single point (d,) returning a float, or a stack (n, d)
    returning an (n,) array.
    """
    y_arr = np.asarray(_coords(y), dtype=np.float64)
    single = y_arr.ndim == 1
    y2 = np.atleast_2d(y_arr)
    if y2.shape[1] != spec.dim:
        raise ValueError(f"dimension mismatch: spec.dim={spec.dim}, point has {y2.shape[1]}")
    out = np.ones(y2.shape[0])
    for i in range(spec.dim):
        out *= kernel_integral_1d(spec.k, spec.support_radius, y2[:, i])
    return float(out[0]) if single else out


def kernel_double_integral(spec: KernelSpec) -> float:
    """int int_{[0,1]^d} K(x, y) dx dy, the d-th power of the axis value.

    Per axis (rho = support radius, A/B the first/second antiderivatives of
    the univariate piece): 2 rho^2 B(1) + 2 rho (1 - rho) A(1).
    """
    rho = spec.support_radius
    axis = 2.0 * rho**2 * _B_AT_1[spec.k] + 2.0 * rho * (1.0 - rho) * _A_AT_1[spec.k]
    return axis**spec.dim


def gram(spec: KernelSpec, nodes) -> np.ndarray:
    """Kernel matrix K(u^i, u^j) over a node set; positive semi-definite by
    construction."""
    pts = np.atleast_2d(_coords(nodes))
    if pts.shape[0] == 0:
        raise ValueError("gram of an empty node set is undefined")
    return kernel_cross(spec, pts, pts)
