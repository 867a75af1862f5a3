"""Shared test oracles."""

import os

# One BLAS thread for in-process tests, set before numpy loads: a threaded
# eigh or Cholesky slows down many times over when another process holds a
# core. Tests that start a subprocess set their own counts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from cfqmc.interpolate import evaluate


def gauss_integral(interp) -> float:
    """Cube integral of a one-column surrogate by a tensor composite
    Gauss-Legendre rule, from ``evaluate`` alone.

    Per axis the surrogate is a polynomial of degree 3k+1 between the cuts 0,
    1, the node coordinates and node +- support (clipped to [0, 1]), and
    ceil((3k+2)/2) points per piece integrate that degree exactly.
    """
    spec = interp.spec
    coords = np.unique(interp.nodes.points)
    rho = spec.support_radius
    cuts = np.unique(np.clip(np.concatenate([[0.0, 1.0], coords, coords - rho, coords + rho]), 0.0, 1.0))
    t, w = np.polynomial.legendre.leggauss(-(-(3 * spec.k + 2) // 2))
    half = 0.5 * np.diff(cuts)[:, None]
    x = (cuts[:-1, None] + half * (1.0 + t)).ravel()
    wx = (half * w).ravel()
    rows = np.stack(np.meshgrid(*[x] * spec.dim, indexing="ij"), axis=-1).reshape(-1, spec.dim)
    weights = np.prod(np.stack(np.meshgrid(*[wx] * spec.dim, indexing="ij"), axis=-1), axis=-1).ravel()
    return float(weights @ evaluate(interp, rows[None])[0])


@pytest.fixture
def surrogate_quadrature():
    return gauss_integral
