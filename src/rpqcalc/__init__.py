"""Two-parameter deformed calculus.

Deformed combinatorial numbers, derivative operators on truncated power
series, a deformed Gamma function with growth diagnostics, weighted norms
with radius-of-convergence surrogates, and sector-based boundedness checks
— all driven by a user-supplied deformation kernel R(u, v) with parameters
0 < q < p <= 1.
"""

from .asymptotics import AsymptoticFit, fit_log_growth, sum_asymptotics_check
from .errors import RpqError
from .gamma import (
    GammaConfig,
    StirlingDiagnostic,
    gamma_log,
    recurrence_check,
    stirling_diagnostic,
)
from .kernel import (
    DeformedContext,
    KernelSpec,
    bidisk_radius_estimate,
    build_context,
    difference_kernel,
    jagannathan_srinivasa_kernel,
    kernel_value,
    laurent_kernel,
    q_kernel,
    spec_from_dict,
    spec_to_dict,
)
from .numbers import (
    LogQuantity,
    deformed_binomial,
    deformed_factorial,
    deformed_number,
)
from .norms import (
    BoundCheckReport,
    SeminormFamily,
    cauchy_hadamard_radius,
    coefficient_bound_check,
    operator_norm_inequality_check,
    seminorm,
    sup_disk_bound_check,
    weighted_norm,
)
from .sectors import (
    GrowthEnvelope,
    SectorSpec,
    anisotropic_order,
    borel_caratheodory_check,
    deformed_pseudonorm,
    in_deformed_disc,
    pl_interior_check,
    sector_membership,
)
from .series import (
    MODE_CANONICAL,
    MODE_COMPOSITE,
    TruncatedSeries,
    algebra_diagnostic,
    deformed_exponential,
    eval_on_circle,
    eval_series,
    invert_P_minus_Q,
    pq_derivative,
    r_derivative,
    r_multiplier_op,
    scale_op,
    series_from_pairs,
    series_to_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticFit",
    "BoundCheckReport",
    "DeformedContext",
    "MODE_CANONICAL",
    "MODE_COMPOSITE",
    "GammaConfig",
    "GrowthEnvelope",
    "KernelSpec",
    "LogQuantity",
    "RpqError",
    "SectorSpec",
    "SeminormFamily",
    "StirlingDiagnostic",
    "TruncatedSeries",
    "algebra_diagnostic",
    "anisotropic_order",
    "bidisk_radius_estimate",
    "borel_caratheodory_check",
    "build_context",
    "cauchy_hadamard_radius",
    "coefficient_bound_check",
    "deformed_binomial",
    "deformed_exponential",
    "deformed_factorial",
    "deformed_number",
    "deformed_pseudonorm",
    "difference_kernel",
    "eval_on_circle",
    "eval_series",
    "fit_log_growth",
    "gamma_log",
    "in_deformed_disc",
    "invert_P_minus_Q",
    "jagannathan_srinivasa_kernel",
    "kernel_value",
    "laurent_kernel",
    "operator_norm_inequality_check",
    "pl_interior_check",
    "pq_derivative",
    "q_kernel",
    "r_derivative",
    "r_multiplier_op",
    "recurrence_check",
    "scale_op",
    "sector_membership",
    "seminorm",
    "series_from_pairs",
    "series_to_pairs",
    "spec_from_dict",
    "spec_to_dict",
    "stirling_diagnostic",
    "sum_asymptotics_check",
    "sup_disk_bound_check",
    "weighted_norm",
]
