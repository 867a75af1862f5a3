"""The six classic multidimensional test-integrand families.

Each instance carries difficulty parameters ``a`` (all positive), location
parameters ``u`` in the cube, and its analytically derived exact integral,
which serves as ground truth for convergence experiments. A seventh
``constant`` family is a harness-only debug integrand.

Exact-integral derivations (per axis, combined by the product/sum structure):

    oscillatory     cos(2 pi u_1 + sum a_i x_i)
                    -> Re[ exp(2i pi u_1) prod (exp(i a_j) - 1) / (i a_j) ]
    product_peak    prod (a_i^-2 + (x_i - u_i)^2)^-1
                    -> prod a_i [atan(a_i (1 - u_i)) + atan(a_i u_i)]
    corner_peak     (1 + sum a_i x_i)^-(d+1)
                    -> inclusion-exclusion over the 2^d cube corners
                       (implemented for d <= 6; cost grows as 2^d)
    gaussian        exp(-sum a_i^2 (x_i - u_i)^2)
                    -> prod (sqrt(pi) / (2 a_i)) [erf(a_i (1 - u_i)) + erf(a_i u_i)]
    continuous      exp(-sum a_i |x_i - u_i|)
                    -> prod (1 / a_i) (2 - exp(-a_i u_i) - exp(-a_i (1 - u_i)))
    discontinuous   exp(sum a_i x_i) on {x_1 <= u_1 and x_2 <= u_2}, else 0
                    (for d = 1 the condition is x_1 <= u_1 only; this d = 1
                    specialization follows the original package convention)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .estimators import Integrand

FAMILIES = (
    "oscillatory",
    "product_peak",
    "corner_peak",
    "gaussian",
    "continuous",
    "discontinuous",
)
DEBUG_FAMILIES = ("constant",)

CORNER_PEAK_MAX_DIM = 6


@dataclass(frozen=True)
class GenzInstance:
    """One concrete test integrand with its exact integral."""

    family: str
    dim: int
    a: np.ndarray
    u: np.ndarray
    exact: float

    def __post_init__(self):
        for name in ("a", "u"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __call__(self, pts) -> np.ndarray:
        """Evaluate on an (n, d) array of cube points; returns (n,)."""
        x = np.atleast_2d(np.asarray(getattr(pts, "points", pts), dtype=np.float64))
        if x.shape[1] != self.dim:
            raise ValueError(f"dimension mismatch: instance dim={self.dim}")
        return _EVALS[self.family](x, self.a, self.u)


def _eval_oscillatory(x, a, u):
    return np.cos(2.0 * np.pi * u[0] + x @ a)


def _eval_product_peak(x, a, u):
    return 1.0 / np.prod(a**-2.0 + (x - u) ** 2, axis=1)


def _eval_corner_peak(x, a, u):
    d = x.shape[1]
    return (1.0 + x @ a) ** (-(d + 1.0))


def _eval_gaussian(x, a, u):
    return np.exp(-np.sum(a**2 * (x - u) ** 2, axis=1))


def _eval_continuous(x, a, u):
    return np.exp(-np.sum(a * np.abs(x - u), axis=1))


def _eval_discontinuous(x, a, u):
    inside = x[:, 0] <= u[0]
    if x.shape[1] >= 2:
        inside = inside & (x[:, 1] <= u[1])
    return np.where(inside, np.exp(x @ a), 0.0)


def _eval_constant(x, a, u):
    return np.full(x.shape[0], a[0])


_EVALS = {
    "oscillatory": _eval_oscillatory,
    "product_peak": _eval_product_peak,
    "corner_peak": _eval_corner_peak,
    "gaussian": _eval_gaussian,
    "continuous": _eval_continuous,
    "discontinuous": _eval_discontinuous,
    "constant": _eval_constant,
}


def _exact_oscillatory(d, a, u):
    factors = (np.exp(1j * a) - 1.0) / (1j * a)
    return float(np.real(np.exp(2j * np.pi * u[0]) * np.prod(factors)))


def _exact_product_peak(d, a, u):
    return float(np.prod(a * (np.arctan(a * (1.0 - u)) + np.arctan(a * u))))


def _exact_corner_peak(d, a, u):
    if d > CORNER_PEAK_MAX_DIM:
        raise ValueError(
            f"corner_peak exact integral uses a 2^d corner sum; d <= {CORNER_PEAK_MAX_DIM} supported"
        )
    total = 0.0
    for subset in itertools.product((0, 1), repeat=d):
        sign = -1.0 if sum(subset) % 2 else 1.0
        total += sign / (1.0 + float(np.dot(subset, a)))
    return total / (math.factorial(d) * float(np.prod(a)))


def _exact_gaussian(d, a, u):
    erf = np.vectorize(math.erf)
    factors = (math.sqrt(math.pi) / (2.0 * a)) * (erf(a * (1.0 - u)) + erf(a * u))
    return float(np.prod(factors))


def _exact_continuous(d, a, u):
    factors = (2.0 - np.exp(-a * u) - np.exp(-a * (1.0 - u))) / a
    return float(np.prod(factors))


def _exact_discontinuous(d, a, u):
    limits = np.ones(d)
    limits[0] = u[0]
    if d >= 2:
        limits[1] = u[1]
    return float(np.prod((np.exp(a * limits) - 1.0) / a))


_EXACTS = {
    "oscillatory": _exact_oscillatory,
    "product_peak": _exact_product_peak,
    "corner_peak": _exact_corner_peak,
    "gaussian": _exact_gaussian,
    "continuous": _exact_continuous,
    "discontinuous": _exact_discontinuous,
    "constant": lambda d, a, u: float(a[0]),
}


def make_genz(family: str, dim: int, a, u) -> GenzInstance:
    """Build an instance from explicit parameters, with its exact integral."""
    if family not in _EVALS:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES + DEBUG_FAMILIES}")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    a_arr = np.asarray(a, dtype=np.float64).reshape(-1)
    u_arr = np.asarray(u, dtype=np.float64).reshape(-1)
    if a_arr.shape[0] != dim or u_arr.shape[0] != dim:
        raise ValueError(f"parameter vectors must have length {dim}")
    if np.any(a_arr <= 0.0):
        raise ValueError("difficulty parameters a must be strictly positive")
    if np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
        raise ValueError("location parameters u must lie in the unit cube")
    exact = _EXACTS[family](dim, a_arr, u_arr)
    if not math.isfinite(exact):
        raise ValueError(f"exact integral for {family} came out non-finite")
    return GenzInstance(family=family, dim=dim, a=a_arr, u=u_arr, exact=exact)


def random_genz(family: str, dim: int, seed: int, difficulty_scale: float = 7.0) -> GenzInstance:
    """Random instance: u uniform in the cube, a positive and renormalized so
    sum(a) equals ``difficulty_scale``. Deterministic given the seed."""
    if not 0.0 < difficulty_scale < math.inf:
        raise ValueError(f"difficulty_scale must be positive and finite, got {difficulty_scale}")
    if dim < 1:  # before the draws: a = raw / raw.sum() divides by an empty sum
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random(dim)
    raw = rng.random(dim) + 1e-3  # bounded away from zero before rescaling
    a = raw * (difficulty_scale / raw.sum())
    if family == "constant":
        return make_genz(family, dim, np.full(dim, difficulty_scale), u)
    return make_genz(family, dim, a, u)


def as_integrand(inst: GenzInstance) -> Integrand:
    """Wrap an instance as a counted integrand for the estimators."""
    return Integrand(inst.dim, inst)
