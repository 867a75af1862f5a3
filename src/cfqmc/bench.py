"""Convergence-study harness: RMSE-vs-N campaigns over test-integrand cells.

A campaign runs every (family, dim, smoothness, method) cell over a grid of
power-of-two budgets with replicated random instances and randomizations,
aggregates RMSE against the exact integrals, fits log-log slopes, and emits
CSV and SVG.

Budget accounting: for each (N, dim) the node/evaluation split is computed
once, and *every* method in the cell consumes exactly the same canonical
budget m^dim + N_eval (the power-of-two evaluation rule can leave a few
evaluations unallocatable to a square grid for dim >= 2; those are logged as
discarded, never silently re-spent). Plain methods therefore run on the
consumed budget, keeping eval counts identical across methods.

Paired randomness: within one (cell, replicate) all QMC-based methods share
the same shift vector / scramble seed, so method comparisons are paired.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, get_args, get_origin, get_type_hints

import numpy as np

from .estimators import BudgetSplit, cf_estimate, optimal_split, qmc_estimate, split_budget
from .genz import DEBUG_FAMILIES, FAMILIES, as_integrand, random_genz
from .kernels import SMOOTHNESS_LEVELS, KernelSpec
from .points import (
    MidpointGrid,
    PointSet,
    baker_fold,
    halton,
    korobov_vector,
    lattice,
    midpoint_grid,
    random_shift,
    sobol,
    uniform_random,
)
from .seeding import rng_for, seed_for

METHODS = ("MC", "QMC", "QMC+CF", "MC+CF", "QMC+CF-folded")
CF_METHODS = ("QMC+CF", "MC+CF", "QMC+CF-folded")
SEQUENCES = ("halton-rr-shift", "sobol-dshift", "lattice")

@dataclass(frozen=True)
class CampaignConfig:
    families: tuple[str, ...] = ("gaussian",)
    dims: tuple[int, ...] = (1,)
    methods: tuple[str, ...] = ("QMC", "QMC+CF")
    sequence: str = "halton-rr-shift"
    k_values: tuple[int, ...] = (1,)
    support_radius: float = 1.0
    n_grid: tuple[int, ...] = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
    replicates: int = 10
    assumed_alpha: Optional[float] = None  # None -> fixed M = N/2 split
    seed_base: int = 0
    difficulty: float = 7.0

    def __post_init__(self):
        known = FAMILIES + DEBUG_FAMILIES
        for fam in self.families:
            if fam not in known:
                raise ValueError(f"unknown family {fam!r}")
        for d in self.dims:
            if d < 1:
                raise ValueError("dims must be >= 1")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
        if self.sequence not in SEQUENCES:
            raise ValueError(f"unknown sequence {self.sequence!r}; expected one of {SEQUENCES}")
        for k in self.k_values:
            if k not in SMOOTHNESS_LEVELS:
                raise ValueError(f"k values must be within {SMOOTHNESS_LEVELS}")
        if not 0.0 < self.support_radius <= 1.0:
            raise ValueError("support_radius must lie in (0, 1]")
        for n in self.n_grid:
            if n < 4 or n & (n - 1):
                raise ValueError(f"n_grid entries must be powers of two >= 4, got {n}")
        if self.replicates < 2:
            raise ValueError("replicates must be >= 2 so standard errors are defined")
        if self.assumed_alpha is not None and self.assumed_alpha <= 1.0:
            raise ValueError("assumed_alpha must exceed the rule smoothness 1")
        if self.difficulty <= 0.0:
            raise ValueError("difficulty must be positive")

    @property
    def node_fraction(self) -> float:
        if self.assumed_alpha is None:
            return 0.5
        return optimal_split(self.assumed_alpha, 1.0)


@dataclass(frozen=True)
class Row:
    family: str
    dim: int
    method: str
    k: int
    support_radius: float
    sequence: str
    n_total: int
    m_nodes: int
    replicates: int
    rmse: float
    stderr: float
    mean_error: float
    seed_base: int
    error: str = ""

    def cell_key(self):
        return (self.family, self.dim, self.method, self.k)


@dataclass(frozen=True)
class SlopeFit:
    family: str
    dim: int
    method: str
    k: int
    slope: float
    intercept: float
    residual: float


@dataclass
class ConvergenceTable:
    rows: list[Row]
    slopes: list[SlopeFit]
    config: CampaignConfig

    def slope_for(self, family: str, dim: int, method: str, k: int) -> SlopeFit:
        for s in self.slopes:
            if (s.family, s.dim, s.method, s.k) == (family, dim, method, k):
                return s
        raise KeyError(f"no slope for cell ({family}, {dim}, {method}, {k})")


class CellPoints:
    """The point sets every (family, k) cell at one (d, N) shares across its
    replicates: they depend only on the sequence, the budget split and d.

    The node grid and each unrandomized base set are built on first use and
    kept until the campaign ends; a replicate only shifts or folds them. A
    set that fails to build is not kept, so every replicate that needs it
    records the failure.
    """

    def __init__(self, sequence: str, split: BudgetSplit, dim: int):
        self.sequence = sequence
        self.split = split
        self.dim = dim
        self._bases: dict[int, PointSet] = {}

    @cached_property
    def nodes(self) -> MidpointGrid:
        return midpoint_grid(self.split.m_per_axis, self.dim)

    def base(self, n: int) -> PointSet:
        """The first n points of the sequence, unrandomized."""
        if n not in self._bases:
            if self.sequence == "halton-rr-shift":
                ps = halton(n, self.dim, scramble=True)
            elif self.sequence == "sobol-dshift":
                ps = sobol(n, self.dim)
            else:
                ps = lattice(n, self.dim, korobov_vector(n, self.dim))
            self._bases[n] = ps
        return self._bases[n]

    def randomized(self, n: int, delta: np.ndarray, dshift_seed: int) -> PointSet:
        """A replicate's n QMC points: the base set shifted by ``delta``. The
        digital shift of sobol-dshift acts on the integer net, so it builds
        its net afresh."""
        if self.sequence == "sobol-dshift":
            return sobol(n, self.dim, digital_shift=True, seed=dshift_seed)
        return random_shift(self.base(n), delta)


def _run_method(
    method: str,
    integrand,
    spec: KernelSpec,
    cell: CellPoints,
    delta: np.ndarray,
    dshift_seed: int,
    mc_seed: int,
) -> float:
    split, d = cell.split, cell.dim
    if method == "MC":
        return qmc_estimate(integrand, uniform_random(split.consumed, d, mc_seed))
    if method == "QMC":
        return qmc_estimate(integrand, cell.randomized(split.consumed, delta, dshift_seed))
    nodes = cell.nodes
    if method == "QMC+CF":
        eval_pts = cell.randomized(split.n_eval, delta, dshift_seed)
    elif method == "MC+CF":
        eval_pts = uniform_random(split.n_eval, d, mc_seed)
    elif method == "QMC+CF-folded":
        eval_pts = baker_fold(random_shift(cell.base(split.n_eval), delta))
    else:
        raise ValueError(f"unknown method {method!r}")
    return cf_estimate(integrand, nodes, eval_pts, spec)[0]


def run_campaign(cfg: CampaignConfig) -> ConvergenceTable:
    """Run every cell of the campaign; replicate failures are tagged per row
    and the campaign continues."""
    rows: list[Row] = []
    fraction = cfg.node_fraction
    cells: dict[tuple[int, int], CellPoints] = {}
    for family in cfg.families:
        for d in cfg.dims:
            for k in cfg.k_values:
                spec = KernelSpec(k=k, dim=d, support_radius=cfg.support_radius)
                for n_nominal in cfg.n_grid:
                    split = split_budget(n_nominal, fraction, dim=d)
                    if split.discarded:
                        warnings.warn(
                            f"cell ({family}, d={d}, N={n_nominal}): grid snapping discards "
                            f"{split.discarded} evaluations (consumed budget {split.consumed})",
                            RuntimeWarning,
                        )
                    if (d, n_nominal) not in cells:
                        cells[d, n_nominal] = CellPoints(cfg.sequence, split, d)
                    cell = cells[d, n_nominal]
                    errors: dict[str, list[float]] = {m: [] for m in cfg.methods}
                    failures: dict[str, list[str]] = {m: [] for m in cfg.methods}
                    for r in range(cfg.replicates):
                        inst = random_genz(
                            family,
                            d,
                            seed_for(cfg.seed_base, "instance", family, d, r),
                            cfg.difficulty,
                        )
                        delta = rng_for(cfg.seed_base, "shift", family, d, k, n_nominal, r).random(d)
                        dshift_seed = seed_for(cfg.seed_base, "dshift", family, d, k, n_nominal, r)
                        mc_seed = seed_for(cfg.seed_base, "mc", family, d, k, n_nominal, r)
                        for method in cfg.methods:
                            integrand = as_integrand(inst)
                            try:
                                est = _run_method(
                                    method, integrand, spec, cell, delta, dshift_seed, mc_seed
                                )
                            except Exception as exc:  # campaign must survive one bad replicate
                                failures[method].append(f"r{r}: {exc}")
                                continue
                            consumed = integrand.eval_count
                            if consumed != split.consumed:
                                failures[method].append(
                                    f"r{r}: budget mismatch ({consumed} != {split.consumed})"
                                )
                                continue
                            errors[method].append(est - inst.exact)
                    for method in cfg.methods:
                        errs = np.asarray(errors[method])
                        ok = errs.size
                        if ok:
                            rmse = float(np.sqrt(np.mean(errs**2)))
                            mean_error = float(np.mean(errs))
                            if rmse > 0.0 and ok >= 2:
                                stderr = float(np.std(errs**2, ddof=1) / (2.0 * rmse * math.sqrt(ok)))
                            else:
                                stderr = 0.0
                        else:
                            rmse = math.nan
                            mean_error = math.nan
                            stderr = math.nan
                        rows.append(
                            Row(
                                family=family,
                                dim=d,
                                method=method,
                                k=k,
                                support_radius=cfg.support_radius,
                                sequence=cfg.sequence,
                                n_total=split.consumed,
                                m_nodes=split.n_nodes if method in CF_METHODS else 0,
                                replicates=ok,
                                rmse=rmse,
                                stderr=stderr,
                                mean_error=mean_error,
                                seed_base=cfg.seed_base,
                                error="; ".join(failures[method]),
                            )
                        )
    slopes = _fit_cell_slopes(rows)
    return ConvergenceTable(rows=rows, slopes=slopes, config=cfg)


def fit_slope(points) -> tuple[float, float, float]:
    """Ordinary least squares of log2 rmse on log2 N.

    Zero-rmse points are excluded with a warning; at least two positive
    points are required. Returns (slope, intercept, rms residual).
    """
    pts = [(float(n), float(r)) for n, r in points]
    if len(pts) < 2:
        raise ValueError("need at least 2 (N, rmse) points to fit a slope")
    valid = [(n, r) for n, r in pts if r > 0.0 and math.isfinite(r)]
    if len(valid) < len(pts):
        warnings.warn(
            f"excluded {len(pts) - len(valid)} zero/non-finite rmse points from the slope fit",
            RuntimeWarning,
        )
    if len(valid) < 2:
        raise ValueError("fewer than 2 positive-rmse points; slope undefined")
    x = np.log2([n for n, _ in valid])
    y = np.log2([r for _, r in valid])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return float(slope), float(intercept), residual


def _fit_cell_slopes(rows: list[Row]) -> list[SlopeFit]:
    cells: dict[tuple, list[Row]] = {}
    for row in rows:
        cells.setdefault(row.cell_key(), []).append(row)
    slopes = []
    for key in sorted(cells):
        cell_rows = sorted(cells[key], key=lambda r: r.n_total)
        pts = [(r.n_total, r.rmse) for r in cell_rows if math.isfinite(r.rmse) and r.rmse > 0.0]
        if len(pts) < 4:  # slope summaries need a real grid behind them
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            slope, intercept, residual = fit_slope(pts)
        family, dim, method, k = key
        slopes.append(
            SlopeFit(
                family=family, dim=dim, method=method, k=k,
                slope=slope, intercept=intercept, residual=residual,
            )
        )
    return slopes


_CSV_HEADER = (
    "family,dim,method,k,support_radius,sequence,N_total,M_nodes,"
    "replicates,rmse,stderr,mean_error,seed_base"
)
_SLOPE_HEADER = "family,dim,method,k,slope,intercept,residual"

# Each schema is its dataclass: field order is column (or line) order, and
# the annotated type says how a value is written and read back.
_CONFIG_TYPES = get_type_hints(CampaignConfig)
_ROW_TYPES = {name: hint for name, hint in get_type_hints(Row).items() if name != "error"}
_SLOPE_TYPES = get_type_hints(SlopeFit)


def _format_value(hint, value) -> str:
    """One value as text: floats to 17 significant digits, None as ``none``."""
    if value is None:
        return "none"
    if hint in (float, Optional[float]):
        return f"{value:.17g}"
    if get_origin(hint) is tuple:
        return ", ".join(str(v) for v in value)
    return str(value)


def _parse_value(hint, text: str):
    """Inverse of :func:`_format_value`; an empty optional float is None too."""
    if hint == Optional[float]:
        return None if text.lower() in ("", "none") else float(text)
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        return tuple(item(s.strip()) for s in text.split(",") if s.strip())
    return hint(text)


def _csv_line(record, types: dict) -> str:
    return ",".join(_format_value(hint, getattr(record, name)) for name, hint in types.items()) + "\n"


def _csv_record(cls, types: dict, line: str, path):
    cells = line.split(",")
    if len(cells) != len(types):
        raise ValueError(f"{path}: expected {len(types)} cells, got {len(cells)}: {line}")
    return cls(**{name: _parse_value(hint, cell) for (name, hint), cell in zip(types.items(), cells)})


def emit_csv(table: ConvergenceTable, path) -> None:
    """Write the row schema plus a '#slope' summary section, deterministically
    ordered (lexicographic cell key, then N)."""
    rows = sorted(table.rows, key=lambda r: (r.cell_key(), r.n_total))
    try:
        with open(path, "w") as fh:
            fh.write(_CSV_HEADER + "\n")
            fh.writelines(_csv_line(row, _ROW_TYPES) for row in rows)
            fh.write("#slope\n")
            fh.write(_SLOPE_HEADER + "\n")
            fh.writelines(_csv_line(s, _SLOPE_TYPES) for s in table.slopes)
            for row in rows:
                if row.error:
                    fh.write(
                        f"#error family={row.family},dim={row.dim},method={row.method},"
                        f"k={row.k},N={row.n_total}: {row.error}\n"
                    )
    except OSError as exc:
        raise OSError(f"failed writing campaign CSV to {path}: {exc}") from exc


def read_csv(path) -> tuple[list[Row], list[SlopeFit]]:
    """Parse a file written by :func:`emit_csv` back into rows and slopes,
    restoring each row's ``#error`` message."""
    rows: list[Row] = []
    slopes: list[SlopeFit] = []
    errors: dict[tuple, str] = {}
    section = "rows"
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError(f"{path}: missing campaign CSV header")
    for ln in lines[1:]:
        if ln == "#slope":
            section = "slopes"
            continue
        if ln.startswith("#error "):
            head, message = ln[len("#error "):].split(": ", 1)
            key = dict(item.split("=", 1) for item in head.split(","))
            errors[(key["family"], int(key["dim"]), key["method"], int(key["k"]), int(key["N"]))] = message
            continue
        if not ln or ln.startswith("#") or ln == _SLOPE_HEADER:
            continue
        if section == "rows":
            rows.append(_csv_record(Row, _ROW_TYPES, ln, path))
        else:
            slopes.append(_csv_record(SlopeFit, _SLOPE_TYPES, ln, path))
    rows = [replace(r, error=errors.pop((*r.cell_key(), r.n_total), "")) for r in rows]
    if errors:
        raise ValueError(f"{path}: #error line names no row: {next(iter(errors))}")
    return rows, slopes


def parse_config(text: str) -> CampaignConfig:
    """Parse the flat ``key = value`` campaign format (one key per
    :class:`CampaignConfig` field, lists comma-separated, '#' comments);
    unknown keys are rejected by name."""
    data: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_TYPES:
            raise ValueError(f"config line {lineno}: unknown config key {key!r}")
        data[key] = value
    kwargs = {key: _parse_value(hint, data[key]) for key, hint in _CONFIG_TYPES.items() if key in data}
    return CampaignConfig(**kwargs)


def format_config(cfg: CampaignConfig) -> str:
    """One ``key = value`` line per field, in field order, that
    :func:`parse_config` reads back to ``cfg``."""
    return "".join(
        f"{key} = {_format_value(hint, getattr(cfg, key))}\n" for key, hint in _CONFIG_TYPES.items()
    )
