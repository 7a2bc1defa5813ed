"""Numerics for scalar equations driven by bounded-variation signals.

The package covers the full pipeline: right-continuous BV drivers,
one-sided kernel smoothing, the forward Euler scheme on shifted
lattices, the limit equation with explicit jump maps, and the analysis
tools (regime classification, convergence studies, staircase checks)
that connect the two ends.
"""

from .drivers import BVFunction
from .fields import ScalarField
from .mollify import (
    DEFAULT_DELTAS,
    DEFAULT_MESHES,
    DEFAULT_U_PROBES,
    F_n,
    MollifierProfile,
    RegimeReport,
    Schedule,
    SigmaProbe,
    classify_regime,
    fit_sigma_from_probes,
    get_profile,
    mollify_L,
    mollify_f,
    sigma_delta_limit,
)
from .jumpmap import (
    JumpMeasure,
    SigmaG,
    XiGrid,
    measure_from_sigma,
    phi_explicit_ramp,
    phi_recursion,
    phi_solve,
    ramp_z,
)
from .scheme import (
    GridPath,
    StepLimitError,
    discrete_jump_map,
    solve_grid,
    xi_grid_for_offset,
)
from .limit import LimitPath, solve_limit
from .analysis import (
    SigmaCheckResult,
    StudyResult,
    convergence_study,
    l1_distance,
    sigma_n_check,
)
from .config import ConfigError, ExperimentConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "BVFunction",
    "ConfigError",
    "DEFAULT_DELTAS",
    "DEFAULT_MESHES",
    "DEFAULT_U_PROBES",
    "ExperimentConfig",
    "F_n",
    "GridPath",
    "JumpMeasure",
    "LimitPath",
    "MollifierProfile",
    "RegimeReport",
    "Schedule",
    "SigmaCheckResult",
    "SigmaG",
    "SigmaProbe",
    "ScalarField",
    "StepLimitError",
    "StudyResult",
    "XiGrid",
    "classify_regime",
    "convergence_study",
    "discrete_jump_map",
    "fit_sigma_from_probes",
    "get_profile",
    "l1_distance",
    "load_config",
    "measure_from_sigma",
    "mollify_L",
    "mollify_f",
    "phi_explicit_ramp",
    "phi_recursion",
    "phi_solve",
    "ramp_z",
    "sigma_delta_limit",
    "sigma_n_check",
    "solve_grid",
    "solve_limit",
    "xi_grid_for_offset",
    "__version__",
]
