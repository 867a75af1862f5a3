"""Gaussian-process predictive means integrated over hyper-parameters.

Workflow: a squared-exponential GP with amplitude/lengthscale parameters
(theta_1, theta_2), independent Gamma(shape 2, scale 2) priors on both, and a
subset-of-regressors (SoR) low-rank approximation of the predictive mean.
The posterior-mean prediction marginalizes the hyper-parameters, i.e.
integrates the predictive mean against the prior; mapping the prior through
its inverse CDF per coordinate turns this into a unit-square integral that
the estimators module handles (plain or surrogate-corrected, equal budgets).

Budget note: the corrected estimators fit a 4x4 midpoint node grid (a 16x16
interpolation system, the documented fit size of this workflow at budget
2^8) and spend the remaining budget on evaluation points, so every method
consumes the full budget exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import linalg as sla
from scipy import special

from .bench import CellPoints
from .estimators import BudgetSplit, Integrand
from .estimators import cf_estimate, qmc_estimate  # noqa: F401  perfbench's tracer wraps gp's names
from .kernels import KernelSpec
from .points import midpoint_grid
from .seeding import rng_for, seed_for

# Surrogate node grid for the application: a 4x4 midpoint grid, i.e. a 16x16
# interpolation system, the fit size this workflow is documented with at
# budget 2^8. Every method then consumes the full budget exactly
# (16 nodes + 240 evaluation points for the corrected methods).
GP_NODE_GRID_M = 4

_CDF_CLIP = 1e-15  # keeps inverse-CDF arguments off the unbounded endpoints
_PRIOR_SCALE = 2.0  # Gamma scale of both priors; the shape 2 is gamma2_inverse_cdf's
_SIGMA = 0.1  # observation noise scale of the GP model
_SOR_JITTER = 1e-10
# escalating diagonal boost (relative to trace/n') when a draw makes the
# normal-equation system numerically semidefinite; deterministic ladder
_SOR_LADDER = (0.0, 1e-12, 1e-10, 1e-8)
# called directly: posv is cho_factor and cho_solve in one LAPACK call
_SYRK = sla.get_blas_funcs("syrk", dtype=np.float64)
_POSV = sla.get_lapack_funcs("posv", dtype=np.float64)


@dataclass(frozen=True)
class Dataset:
    """Training data, stored standardized (covariates zero-mean/unit-variance,
    responses centered on the training split)."""

    covariates: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.covariates, dtype=np.float64)
        y = np.asarray(self.responses, dtype=np.float64).reshape(-1)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("covariates must be (n, p) with one response per row")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "responses", y)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]


def standardize(raw_covariates, raw_responses) -> Dataset:
    """Build a Dataset: rescale columns to mean 0 / variance 1, center responses."""
    x = np.asarray(raw_covariates, dtype=np.float64)
    y = np.asarray(raw_responses, dtype=np.float64).reshape(-1)
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    if np.any(scale == 0.0):
        raise ValueError("constant covariate column cannot be standardized")
    return Dataset(covariates=(x - mean) / scale, responses=y - y.mean())


@dataclass(frozen=True)
class GPConfig:
    """Model settings: the SoR subset size and the test inputs."""

    test_points: np.ndarray
    n_subset: int = 100

    def __post_init__(self):
        tp = np.atleast_2d(np.asarray(self.test_points, dtype=np.float64))
        tp.setflags(write=False)
        object.__setattr__(self, "test_points", tp)
        if self.n_subset < 1:
            raise ValueError("n_subset must be >= 1")


def gamma2_inverse_cdf(q, scale: float):
    """Inverse CDF of the shape-2 Gamma with the given scale (scalar or array),
    ``scale * gammaincinv(2, q)``; NaN fails both input checks."""
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    q = np.asarray(q, dtype=np.float64)
    if not np.all((q > 0.0) & (q < 1.0)):
        raise ValueError("q must lie strictly inside (0, 1)")
    return scale * special.gammaincinv(2.0, q)


def _sq_dists(za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    return np.sum((za[:, None, :] - zb[None, :, :]) ** 2, axis=2)


def _sq_exp_cross(za: np.ndarray, zb: np.ndarray, theta1: float, theta2: float) -> np.ndarray:
    return theta1 * np.exp(-0.5 * _sq_dists(za, zb) / theta2**2)


class _SorSolver:
    """Subset-of-regressors predictive means at fixed test inputs with
    hyper-parameters swapped per call: pairwise squared distances are computed
    once, each evaluation only exponentiates, builds the lower triangle of the
    normal equations with one ``syrk``, factors and solves them with one
    ``posv`` per ladder rung and returns one mean per row of ``z_star``. The
    inducing rows are training rows, so C_{n'} is read off C_{n',n} by column.

    Large lengthscales drive the system numerically semidefinite; a small
    deterministic diagonal ladder restores factorizability. A draw that
    exhausts the ladder raises ``LinAlgError`` naming theta. Nothing skips
    or masks it: the study stops, and ``cfqmc gp`` exits with the
    runtime-error code and prints the message.
    """

    def __init__(self, data: Dataset, z_star: np.ndarray, subset_indices):
        self.idx = np.asarray(subset_indices, dtype=np.int64)
        if self.idx.size != np.unique(self.idx).size:
            raise ValueError("subset indices must be distinct")
        z_sub = data.covariates[self.idx]
        self.sq_sub_n = _sq_dists(z_sub, data.covariates)
        self.sq_star = _sq_dists(np.atleast_2d(z_star), z_sub)
        self.y = data.responses
        self.diag = np.diag_indices(self.idx.size)

    def predict(self, theta1: float, theta2: float) -> np.ndarray:
        if theta1 <= 0.0 or theta2 <= 0.0:
            raise ValueError("hyper-parameters must be positive")
        inv2 = -0.5 / theta2**2
        c_sub_n = np.multiply(inv2, self.sq_sub_n)
        np.exp(c_sub_n, out=c_sub_n)
        c_sub_n *= theta1
        # sigma^2 (C_{n'} + jitter I) is exactly symmetric, so its transpose is
        # the Fortran-ordered array that syrk adds C_{n',n} C_{n,n'} into
        system = c_sub_n[:, self.idx].T
        n_sub = self.idx.size
        system[self.diag] += _SOR_JITTER * np.trace(system) / n_sub
        system *= _SIGMA**2
        system = _SYRK(1.0, c_sub_n.T, beta=1.0, c=system, trans=1, lower=1, overwrite_c=1)
        rhs = c_sub_n @ self.y
        for extra in _SOR_LADDER:
            boosted = system
            if extra:  # the rung before was not positive definite
                boosted = system.copy(order="F")
                boosted[self.diag] += extra * (np.trace(system) / n_sub)
            _, weights, info = _POSV(boosted, rhs, lower=1, overwrite_a=bool(extra))
            if info < 0:
                raise ValueError(f"LAPACK rejected argument {-info} of the SoR Cholesky solve")
            if info == 0:
                break
        else:
            raise sla.LinAlgError(
                f"SoR system unfactorizable at theta=({theta1:.4g}, {theta2:.4g})"
            )
        c_star = np.multiply(inv2, self.sq_star)
        np.exp(c_star, out=c_star)
        c_star *= theta1
        return c_star @ weights


def gp_predictive_mean_full(data: Dataset, cfg: GPConfig, theta, z_star) -> float:
    """Exact predictive mean: cross-covariance times (C_n + sigma^2 I)^-1 y."""
    theta1, theta2 = float(theta[0]), float(theta[1])
    if theta1 <= 0.0 or theta2 <= 0.0:
        raise ValueError("hyper-parameters must be positive")
    z = np.atleast_2d(np.asarray(z_star, dtype=np.float64))
    c_n = _sq_exp_cross(data.covariates, data.covariates, theta1, theta2)
    c_n[np.diag_indices_from(c_n)] += _SIGMA**2
    cho = sla.cho_factor(c_n, lower=True, check_finite=False)
    weights = sla.cho_solve(cho, data.responses, check_finite=False)
    c_star = _sq_exp_cross(z, data.covariates, theta1, theta2)
    out = c_star @ weights
    return float(out[0]) if out.shape[0] == 1 else out


def gp_predictive_mean_sor(
    data: Dataset, cfg: GPConfig, theta, z_star, subset_indices
) -> float:
    """Subset-of-regressors predictive mean on an n'-point inducing subset:

        C_{*,n'} (C_{n',n} C_{n,n'} + sigma^2 C_{n'})^-1 C_{n',n} y

    with a small trace-scaled jitter on C_{n'} for factorization stability.
    """
    solver = _SorSolver(data, np.atleast_2d(np.asarray(z_star, dtype=np.float64)), subset_indices)
    out = solver.predict(float(theta[0]), float(theta[1]))
    return float(out[0]) if out.shape[0] == 1 else out


def default_subset_indices(data: Dataset, n_subset: int) -> np.ndarray:
    """Deterministic uniform draw without replacement from the training rows."""
    if n_subset > data.n:
        raise ValueError(f"a subset of {n_subset} rows exceeds the {data.n} training rows")
    rng = rng_for(0, "sor-subset", data.n, n_subset)
    return np.sort(rng.choice(data.n, size=n_subset, replace=False))


class PredictionTable:
    """SoR predictive means at every test input of ``cfg``, memoised by the
    exact unit-square point whose prior quantiles give theta.

    One ``_SorSolver`` over all test points backs the table, so a theta drawn
    once is solved once however many test points and methods read it. A
    point's entry never goes stale, since the point alone fixes theta;
    ``clear`` only bounds memory, and keeps the rows a caller reads again.
    """

    def __init__(self, data: Dataset, cfg: GPConfig, subset_indices):
        self.n_test = cfg.test_points.shape[0]
        self.solver = _SorSolver(data, cfg.test_points, subset_indices)
        self._rows: dict[bytes, np.ndarray] = {}

    def clear(self, keep) -> None:
        """Drop every row but those of the points ``keep``, (n, 2)."""
        keys = (row.tobytes() for row in np.asarray(keep, dtype=np.float64))
        self._rows = {key: self._rows[key] for key in keys if key in self._rows}

    def means(self, x: np.ndarray) -> np.ndarray:
        """(n, T) predictive means at theta = prior^-1(x), one row per row of x.

        Quantiles and solves run only for rows not yet in the table.
        Coordinates are clipped a hair inside (0, 1) before inversion because
        the quantile map is unbounded at the endpoints.
        """
        keys = [row.tobytes() for row in x]
        misses: dict[bytes, int] = {}
        for i, key in enumerate(keys):
            if key not in self._rows:
                misses.setdefault(key, i)
        if misses:
            q = np.clip(x[list(misses.values())], _CDF_CLIP, 1.0 - _CDF_CLIP)
            for key, (t1, t2) in zip(misses, gamma2_inverse_cdf(q, _PRIOR_SCALE)):
                self._rows[key] = self.solver.predict(t1, t2)
        return np.array([self._rows[key] for key in keys])


def reparametrized_integrand(table: PredictionTable, t_idx: int) -> Integrand:
    """The unit-square integrand x -> predictive mean at test input ``t_idx``
    at theta = prior^-1(x): column ``t_idx`` of the table's means."""
    if not 0 <= t_idx < table.n_test:
        raise ValueError(f"test index {t_idx} outside 0..{table.n_test - 1}")
    return Integrand(2, lambda x: table.means(x)[:, t_idx])


def marginal_prediction(table: PredictionTable, method: str, budget: int, seed: int) -> np.ndarray:
    """Posterior-mean predictions at every test input by 2-d integration:
    one estimate per test point for one (seed, method).

    The seed fixes one Halton shift and one MC stream, the same for every
    method and every test point, so within a seed all test points and
    methods share one theta sample and ``table`` solves each theta once.
    The points, the estimate step and the method check (``bench.METHODS``)
    are the campaign's (``bench.CellPoints``) for a split of 16 grid nodes
    (``GP_NODE_GRID_M``) and ``budget - 16`` evaluation points; CF methods
    fit the k = 1 kernel on that grid, every test point's surrogate in one
    multi-column fit. The step checks that each test point's integrand
    consumes the full budget exactly, as equal budgets across methods need.
    """
    m_nodes_cf = GP_NODE_GRID_M**2
    if budget < 2 * m_nodes_cf:
        raise ValueError(f"budget {budget} too small for the {m_nodes_cf}-node surrogate")
    # ``study`` passes 64-bit derived seeds: the shift stream is rooted at
    # their low 32 bits, the draws the GP study's outputs were made with
    delta = rng_for(seed & 0xFFFFFFFF, "gp-shift").random(2)
    mc_seed = seed_for(seed, "gp-mc")
    spec = KernelSpec(k=1, dim=2)
    cell = CellPoints("halton-rr-shift", BudgetSplit(GP_NODE_GRID_M, m_nodes_cf, budget - m_nodes_cf, 0), 2)
    eval_pts = cell.points(method, delta, None, mc_seed)
    integrands = [reparametrized_integrand(table, t_idx) for t_idx in range(table.n_test)]
    return cell.estimate(method, integrands, [eval_pts] * table.n_test, spec)


def load_dataset(path, n_train_cap: int, seed: int) -> Dataset:
    """Load a covariates+response CSV (p feature columns then one response,
    optional header; every cell a finite number) and keep a
    seed-deterministic random subset of at most ``n_train_cap`` rows;
    standardization is computed on that subset."""
    rows: list[list[float]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            fields = text.split(",")
            try:
                values = [float(f) for f in fields]
            except ValueError:
                if lineno == 1:
                    continue  # header line
                raise ValueError(f"{path}:{lineno}: non-numeric cell in row")
            if not np.isfinite(values).all():
                raise ValueError(f"{path}:{lineno}: non-finite cell in row")
            if rows and len(values) != len(rows[0]):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(rows[0])} columns, got {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if len(rows[0]) < 2:
        raise ValueError(f"{path}: need at least one covariate column plus the response")
    data = np.asarray(rows, dtype=np.float64)
    if n_train_cap < data.shape[0]:
        rng = rng_for(seed, "train-subset", data.shape[0], n_train_cap)
        keep = np.sort(rng.choice(data.shape[0], size=n_train_cap, replace=False))
        data = data[keep]
    return standardize(data[:, :-1], data[:, -1])


def synthetic_dataset(
    n: int = 200, p: int = 4, n_test: int = 20, seed: int = 0, noise: float = 0.1
) -> tuple[Dataset, np.ndarray]:
    """Self-contained default data: a smooth bump response plus observation noise.

    Returns the standardized training Dataset and test inputs already mapped
    through the training standardization. Test inputs are drawn from the
    default inducing subset's training rows, the desk-scale analogue of the
    densely sampled trajectories this workflow targets (every test
    configuration has essentially coincident support points, which keeps the
    predictive mean well conditioned over the whole hyper-parameter prior).
    """
    rng = rng_for(seed, "synthetic-data", n, p)
    raw_x = rng.normal(size=(n, p))
    raw_y = 3.0 * np.exp(-0.5 * np.sum(raw_x**2, axis=1)) + noise * rng.normal(size=n)
    data = standardize(raw_x, raw_y)
    subset = default_subset_indices(data, min(100, n))
    rows = rng.choice(subset, size=min(n_test, subset.size), replace=False)
    return data, data.covariates[rows]


@dataclass(frozen=True)
class PredictionStudy:
    """Per-(test point, method, seed) estimates plus per-point spread summary."""

    estimates: list[tuple[int, str, int, int, float]]  # (test_index, method, N, seed, estimate)
    spread: list[tuple[int, str, float]]  # (test_index, method, sd over seeds)


def run_prediction_study(
    data: Dataset,
    cfg: GPConfig,
    methods: Sequence[str],
    budget: int,
    seeds: Sequence[int],
) -> PredictionStudy:
    """Estimate every test point with every method over the given seeds.

    The SoR subset is drawn once and shared, so the spread over seeds
    isolates the estimator's sampling variability. Within a seed all test
    points and methods share one theta sample, pairing the comparison, and
    each distinct theta is solved once for all test points; the table of
    solves is cleared per seed, bounding it to methods x budget x T floats,
    except for the grid nodes, which every seed's surrogates read.
    """
    table = PredictionTable(data, cfg, default_subset_indices(data, cfg.n_subset))
    grid = midpoint_grid(GP_NODE_GRID_M, 2).points
    per_method: dict[str, list[np.ndarray]] = {m: [] for m in methods}
    for seed in seeds:
        table.clear(keep=grid)
        run_seed = seed_for(seed, "gp-point")
        for method in methods:
            per_method[method].append(marginal_prediction(table, method, budget, run_seed))
    by_seed = {m: np.array(per_method[m]) for m in methods}  # (seeds, T)
    estimates = [
        (t_idx, method, budget, seed, float(by_seed[method][s_idx, t_idx]))
        for t_idx in range(table.n_test)
        for s_idx, seed in enumerate(seeds)
        for method in methods
    ]
    spread = [
        (t_idx, method, float(np.std(by_seed[method][:, t_idx], ddof=1)))
        for t_idx in range(table.n_test)
        for method in methods
    ]
    return PredictionStudy(estimates=estimates, spread=spread)


def write_prediction_csv(study: PredictionStudy, estimates_path, spread_path) -> None:
    with open(estimates_path, "w") as fh:
        fh.write("test_index,method,N,seed,estimate\n")
        for t_idx, method, n, seed, est in study.estimates:
            fh.write(f"{t_idx},{method},{n},{seed},{est:.17g}\n")
    with open(spread_path, "w") as fh:
        fh.write("test_index,method,sd_over_seeds\n")
        for t_idx, method, sd in study.spread:
            fh.write(f"{t_idx},{method},{sd:.17g}\n")
