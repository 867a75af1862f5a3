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
from typing import Callable, Optional, get_args, get_origin, get_type_hints

import numpy as np

from .estimators import BudgetSplit, cf_estimate, optimal_split, qmc_estimate, split_budget
from .directions import DEFAULT_DIRECTIONS
from .genz import CORNER_PEAK_MAX_DIM, DEBUG_FAMILIES, FAMILIES, GenzInstance, as_integrand, random_genz
from .kernels import SMOOTHNESS_LEVELS, KernelSpec
from .points import (
    MidpointGrid,
    PointSet,
    baker_fold,
    digital_shift,
    halton,
    korobov_vector,
    lattice,
    midpoint_grid,
    random_shift,
    sobol,
    uniform_random,
)
from .seeding import rng_for, seed_for

METHODS = ("MC", "QMC", "QMC+CF", "MC+CF")  # a point source (MC or the rule), CF-corrected or not
MC_METHODS = ("MC", "MC+CF")
CF_METHODS = ("QMC+CF", "MC+CF")


@dataclass(frozen=True)
class SequenceRule:
    """A randomized rule: ``base(n, d)``, its first n points; ``randomize(ps, delta, dshift_seed)``,
    one replicate of them (``delta``'s uniform shift by default); ``max_dim``, its largest d."""

    base: Callable[[int, int], PointSet]
    randomize: Callable[..., PointSet] = lambda ps, delta, dshift_seed: random_shift(ps, delta)
    max_dim: float = math.inf


_KOROBOV = SequenceRule(lambda n, d: lattice(n, d, korobov_vector(n, d)))
SEQUENCES = {
    "halton-rr-shift": SequenceRule(lambda n, d: halton(n, d, scramble=True)),
    "sobol-dshift": SequenceRule(
        lambda n, d: sobol(n, d), lambda ps, delta, seed: digital_shift(ps, seed), DEFAULT_DIRECTIONS.max_dim
    ),
    "lattice": _KOROBOV,
    # the tent fold after the shift lifts the lattice to order about 2 on non-periodic integrands
    "lattice-tent": replace(_KOROBOV, randomize=lambda ps, delta, seed: baker_fold(random_shift(ps, delta))),
}


def replicate_draws(seed_base: int, dim: int, *at) -> tuple[np.ndarray, int, int]:
    """The uniform shift (``dim`` floats), digital-shift seed and MC seed of
    the replicate at ``at``, each from its own stream whatever the rule."""
    delta = rng_for(seed_base, "shift", *at).random(dim)
    return delta, seed_for(seed_base, "dshift", *at), seed_for(seed_base, "mc", *at)


def check_dim_limits(families, sequence: str, methods, dim: int) -> None:
    """Raise ValueError where a cell at dimension ``dim`` would fail mid-run:
    past genz's corner-peak integral, or past the sequence's ``max_dim`` for
    a method that draws sequence points (MC methods do not)."""
    if "corner_peak" in families and dim > CORNER_PEAK_MAX_DIM:
        raise ValueError(f"family corner_peak has an exact integral for d <= {CORNER_PEAK_MAX_DIM} only, got d = {dim}")
    if set(methods) - set(MC_METHODS) and dim > (max_dim := SEQUENCES[sequence].max_dim):
        raise ValueError(f"sequence {sequence} has direction numbers for d <= {max_dim} only, got d = {dim}")


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
        # an empty list would run no cell; a repeated entry would run its
        # cells twice and pool the copies into rows that claim twice the
        # replicates
        for name in ("families", "dims", "methods", "k_values", "n_grid"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} is empty: a campaign needs at least one entry")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats an entry: {', '.join(map(str, values))}")
        known = FAMILIES + DEBUG_FAMILIES
        for fam in self.families:
            if fam not in known:
                raise ValueError(f"unknown family {fam!r}")
        for d in self.dims:
            if d < 1:
                raise ValueError("dims must be >= 1")
        for m in self.methods:
            if m not in METHODS:
                moved = "; its tent fold is now a rule, sequence = lattice-tent" if m == "QMC+CF-folded" else ""
                raise ValueError(f"unknown method {m!r}; expected one of {METHODS}{moved}")
        if self.sequence not in SEQUENCES:
            raise ValueError(f"unknown sequence {self.sequence!r}; expected one of {tuple(SEQUENCES)}")
        check_dim_limits(self.families, self.sequence, self.methods, max(self.dims))
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
        if self.assumed_alpha is not None and not (1.0 < self.assumed_alpha < math.inf):
            raise ValueError(f"assumed_alpha must be finite and exceed the rule smoothness 1, got {self.assumed_alpha}")
        if not 0.0 < self.difficulty < math.inf:
            raise ValueError(f"difficulty must be positive and finite, got {self.difficulty}")

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

    def slope_for(self, family: str, dim: int, method: str, k: int) -> SlopeFit:
        for s in self.slopes:
            if (s.family, s.dim, s.method, s.k) == (family, dim, method, k):
                return s
        raise KeyError(f"no slope for cell ({family}, {dim}, {method}, {k})")


class CellPoints:
    """The point sets every (family, k) cell at one (d, N) shares across its
    replicates, the one recipe (``points``) by which each method draws its
    own and the one step (``estimate``) that runs the method on them and
    checks its budget, for the campaign, ``cfqmc integrate`` and the GP
    study alike.

    The node grid and each unrandomized base set are built on first use and
    kept as long as the cell; a replicate only randomizes them by the rule.
    A set that fails to build is not kept, so every replicate that needs it
    records the failure.
    """

    def __init__(self, sequence: str, split: BudgetSplit, dim: int):
        if sequence not in SEQUENCES:
            raise ValueError(f"unknown sequence {sequence!r}; expected one of {tuple(SEQUENCES)}")
        self.rule = SEQUENCES[sequence]
        self.split = split
        self.dim = dim
        self._bases: dict[int, PointSet] = {}

    @cached_property
    def nodes(self) -> MidpointGrid:
        return midpoint_grid(self.split.m_per_axis, self.dim)

    def base(self, n: int) -> PointSet:
        """The first n points of the sequence, unrandomized."""
        if n not in self._bases:
            self._bases[n] = self.rule.base(n, self.dim)
        return self._bases[n]

    def points(self, method: str, delta: np.ndarray, dshift_seed: Optional[int], mc_seed: Optional[int]) -> PointSet:
        """The points one replicate of ``method`` averages its integrand over:
        the evaluation set for a CF method, the whole budget otherwise. MC
        methods draw them from ``mc_seed``; the others randomize the base set
        by the rule. ``replicate_draws`` draws the last three arguments."""
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
        n = self.split.n_eval if method in CF_METHODS else self.split.consumed
        if method in MC_METHODS:
            return uniform_random(n, self.dim, mc_seed)
        return self.rule.randomize(self.base(n), delta, dshift_seed)

    def estimate(self, method: str, integrands, point_sets, spec: KernelSpec) -> np.ndarray:
        """One estimate per integrand over its point set (``points``): one
        ``cf_estimate`` on the cell's grid for all of them if ``method`` is a
        CF method, a plain average each otherwise. An integrand that has not
        then consumed exactly the cell's budget raises ``RuntimeError``."""
        if method in CF_METHODS:
            estimates = cf_estimate(integrands, self.nodes, point_sets, spec)[0]
        else:
            estimates = np.array([qmc_estimate(f, ps) for f, ps in zip(integrands, point_sets)])
        for f in integrands:
            if f.eval_count != self.split.consumed:
                raise RuntimeError(
                    f"budget accounting violated: consumed {f.eval_count}, expected {self.split.consumed}"
                )
        return estimates


class _Replicate:
    """The function of one replicate's integrand: its Genz instance, with
    what an evaluation raises kept in ``error`` and NaN returned in its
    place. A failing replicate then stays in its own column of the cell's
    batched fit, the other replicates' estimates do not change, and the
    exception becomes this replicate's failure tag."""

    def __init__(self, inst: GenzInstance):
        self.inst = inst
        self.dim = inst.dim
        self.error: Optional[Exception] = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        try:
            return self.inst(x)
        except Exception as exc:  # the campaign must survive one bad replicate
            if self.error is None:
                self.error = exc
            return np.full(len(x), np.nan)


def _cell_row(
    cfg: CampaignConfig, family: str, d: int, method: str, k: int, split: BudgetSplit, errs, failures
) -> Row:
    """The row of one (cell, N, method) from its replicates' errors and
    failure tags (replicate index -> message)."""
    errs = np.asarray(errs)
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
    return Row(
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
        error="; ".join(f"r{r}: {message}" for r, message in sorted(failures.items())),
    )


def run_campaign(cfg: CampaignConfig) -> ConvergenceTable:
    """Run every cell of the campaign; replicate failures are tagged per row
    and the campaign continues.

    Each method draws every replicate's points and estimates them at once
    (``CellPoints.estimate``): a CF method fits them in one multi-column
    solve on the cell's grid. A failing integrand tags its replicate alone; a
    failure to draw or estimate, a budget violation included, tags every
    replicate of the method."""
    rows: list[Row] = []
    fraction = cfg.node_fraction
    cells: dict[tuple[int, int], CellPoints] = {}
    for family in cfg.families:
        for d in cfg.dims:
            # an instance's seed holds no k or N, so every cell of (family, d) shares them
            insts = [
                random_genz(family, d, seed_for(cfg.seed_base, "instance", family, d, r), cfg.difficulty)
                for r in range(cfg.replicates)
            ]
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
                    cell = cells.setdefault((d, n_nominal), CellPoints(cfg.sequence, split, d))
                    # one randomization per replicate, shared by every method (paired)
                    draws = [
                        replicate_draws(cfg.seed_base, d, family, d, k, n_nominal, r) for r in range(cfg.replicates)
                    ]
                    for method in cfg.methods:
                        fns = [_Replicate(inst) for inst in insts]
                        integrands = [as_integrand(fn) for fn in fns]
                        errs, estimates, failures = [], [], {}
                        try:
                            point_sets = [cell.points(method, *draw) for draw in draws]
                            estimates = cell.estimate(method, integrands, point_sets, spec)
                        except Exception as exc:  # a failure of the whole method tags each replicate
                            failures = dict.fromkeys(range(len(fns)), str(exc))
                        for r, (fn, est) in enumerate(zip(fns, estimates)):
                            if fn.error is not None:
                                failures[r] = str(fn.error)
                            elif not math.isfinite(est):
                                failures[r] = f"non-finite estimate {est}"
                            else:
                                errs.append(est - fn.inst.exact)
                        rows.append(_cell_row(cfg, family, d, method, k, split, errs, failures))
    slopes = _fit_cell_slopes(rows)
    return ConvergenceTable(rows=rows, slopes=slopes)


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
    unknown and repeated keys, and values that do not parse, are rejected
    by line and key."""
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_TYPES:
            raise ValueError(f"config line {lineno}: unknown config key {key!r}")
        if key in kwargs:
            raise ValueError(f"config line {lineno}: repeated config key {key!r}")
        try:
            kwargs[key] = _parse_value(_CONFIG_TYPES[key], value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key!r}: {exc}") from None
    return CampaignConfig(**kwargs)


def format_config(cfg: CampaignConfig) -> str:
    """One ``key = value`` line per field, in field order, that
    :func:`parse_config` reads back to ``cfg``."""
    return "".join(
        f"{key} = {_format_value(hint, getattr(cfg, key))}\n" for key, hint in _CONFIG_TYPES.items()
    )
