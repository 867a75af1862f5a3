"""Control-functional accelerated quasi-Monte Carlo integration.

Low-discrepancy point sets with shift/fold/scramble randomizations,
compactly supported tensor-product kernels with closed-form cube integrals,
kernel-interpolation surrogates, surrogate-corrected estimators with error
diagnostics, a convergence benchmark over the classic test-integrand
families, and a GP hyper-parameter marginalization application.
"""

__version__ = "0.1.0"

from .bench import CampaignConfig, ConvergenceTable, emit_csv, fit_slope, parse_config, run_campaign
from .estimators import (
    BudgetSplit,
    Integrand,
    cf_estimate,
    optimal_split,
    qmc_estimate,
    split_budget,
    worst_case_error,
)
from .genz import GenzInstance, make_genz, random_genz
from .interpolate import Interpolant, control_functional, evaluate, fit
from .kernels import (
    KernelSpec,
    gram,
    kernel_double_integral,
    kernel_integral,
    kernel_integral_1d,
    wendland_1d,
)
from .plotting import emit_svg
from .points import (
    GeometryMetrics,
    MidpointGrid,
    PointSet,
    baker_fold,
    digital_shift,
    geometry,
    halton,
    lattice,
    midpoint_grid,
    radical_inverse,
    random_shift,
    sobol,
    uniform_random,
)

__all__ = [
    "BudgetSplit",
    "CampaignConfig",
    "ConvergenceTable",
    "GenzInstance",
    "GeometryMetrics",
    "Integrand",
    "Interpolant",
    "KernelSpec",
    "MidpointGrid",
    "PointSet",
    "baker_fold",
    "cf_estimate",
    "control_functional",
    "digital_shift",
    "emit_csv",
    "emit_svg",
    "evaluate",
    "fit",
    "fit_slope",
    "geometry",
    "gram",
    "halton",
    "kernel_double_integral",
    "kernel_integral",
    "kernel_integral_1d",
    "lattice",
    "make_genz",
    "midpoint_grid",
    "optimal_split",
    "parse_config",
    "qmc_estimate",
    "radical_inverse",
    "random_genz",
    "random_shift",
    "run_campaign",
    "sobol",
    "split_budget",
    "uniform_random",
    "wendland_1d",
    "worst_case_error",
]
