"""infoqm: moment-constrained maximum-entropy densities, the logarithmic
nonlinear oscillator eigenproblem (closed form and on a grid), and the
orthonormality/uniqueness/completeness diagnostics of the state family.
"""

__version__ = "0.1.0"

from .analysis import (
    GaussPower,
    ProjectionReport,
    completeness_projection,
    energy_ordering_check,
    gram_matrix,
    mu0_estimate,
)
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    IllConditionedError,
    InfeasibleMomentsError,
    InfoqmError,
    InstabilityError,
    NotFoundError,
    NumericError,
    ValidationError,
)
from .maxent import (
    EndpointFactors,
    ExpFamilyDensity1D,
    ExpFamilyDensity2D,
    FitDiagnostics,
    MomentSpec1D,
    MomentSpec2D,
    density_eval,
    density_eval_2d,
    density_from_json,
    density_to_json,
    density_values,
    fit_multipliers_1d,
    fit_multipliers_2d,
    information,
    modified_information,
    moment_gradient_check,
    moment_spec_from_json,
    normalization_residual,
)
from .nls import (
    FlowConfig,
    GridProblem,
    GroundStateSolution,
    UniquenessReport,
    discrete_energy,
    gradient_flow_ground_state,
    ground_state,
    self_consistent_lambda,
    uniqueness_probe,
)
from .numerics import (
    Grid1D,
    QuadratureRule,
    find_root,
    hermite_deriv,
    hermite_eval,
)
from .oscillator import (
    OscillatorState,
    alpha_from_beta,
    beta_closure_residual,
    eigen_residual,
    energy,
    lambda_from_beta,
    psi_deriv,
    psi_eval,
    psi_second_derivative,
    solve_state,
    state_information,
    table,
)
from .series import (
    PowerSeries1D,
    PowerSeries2D,
    RemainderReport,
    binomial_series_eval,
    partial_sums,
    poly_taylor_coeffs,
    radial_stationary_point,
    taylor2_coeffs,
    taylor_remainder_scan,
    two_var_series_eval,
)
