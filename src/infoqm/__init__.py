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
    IllConditionedError,
    InfeasibleMomentsError,
    InfoqmError,
    InstabilityError,
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
    hermite_eval,
)
from .oscillator import (
    OscillatorState,
    alpha_from_beta,
    eigen_residual,
    energy,
    lambda_from_beta,
    psi_deriv,
    psi_eval,
    psi_second_derivative,
    solve_state,
    table,
)
from .series import (
    PowerSeries2D,
    binomial_series_eval,
    partial_sums,
    taylor2_coeffs,
    two_var_series_eval,
)
