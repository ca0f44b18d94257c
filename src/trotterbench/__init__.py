"""Operator-norm convergence of split-step products for u' = -(A + B(t)) u.

The library builds the two split products from exact factor semigroups,
measures their operator-norm distance to a high-accuracy reference
propagator, realises the evolution-semigroup picture on a discrete slotted
space, and fits empirical convergence rates against the regularity declared
for the perturbation family.
"""

from . import errors
from .operator_core import (
    GENERATOR_ROLE,
    GENERIC_ROLE,
    SpectralOperator,
    as_symmetric,
    diagonalize,
    op_norm,
    scalar_operator,
    sym_expm_neg,
)
from .problem_families import (
    AssumptionReport,
    ScalarProfile,
    TimeDependentFamily,
    constant_potential,
    estimate_c_alpha,
    estimate_holder,
    holder_seminorm,
    make_heat1d_family,
    make_scalar_family,
    make_synthetic_matrix_family,
    sin_squared_potential,
    zero_potential,
)
from .trotter_products import Partition, Propagator, step_G, trotter_left, trotter_right
from .reference_oracle import (
    REFINEMENT_CAP,
    adaptive_simpson,
    analytic_commuting,
    midpoint_exponential,
    reference_grid,
    refine_to_tol,
)
from .evolution_semigroup import (
    BlockShiftOperator,
    CorrespondenceResult,
    SlottedFunction,
    block_norm,
    build_T,
    build_T_reversed,
    build_U0,
    build_U_evo,
    build_expB,
    check_onestep_linear_bound,
    check_power_smoothing,
    check_sandwiched_defect,
    correspondence_check,
    measure_smoothing_constant,
    semigroup_defect_series,
)
from .bounds_and_rates import (
    BetaSumCheck,
    ConvergenceReport,
    beta_sum_bound,
    beta_sum_scan,
    euler_beta,
    rate_fit,
    sandwiched_defect_constant,
    solve_stability_constant,
    stability_step_threshold,
    sup_error,
)

__version__ = "0.1.0"
