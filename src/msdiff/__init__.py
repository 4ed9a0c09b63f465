"""Isothermal, isobaric multicomponent cross-diffusion in one dimension.

The library simulates mixtures whose species fluxes are coupled through
binary friction coefficients, using an implicit scheme posed in entropy
variables.  Working in those variables makes positivity and the unit-sum
constraint structural rather than enforced, and every run can audit itself
against the inequalities the scheme provably satisfies: entropy decrease
with quantified dissipation, exact mass balances, strict bounds, and
exponential relaxation toward the homogeneous state.
"""

from .config import (
    RunConfig,
    config_from_pairs,
    materialize,
    materialize_spec,
    scan_config_lines,
)
from .diagnostics import (
    AuditVerdict,
    DiagnosticsRecord,
    audit_step,
    fit_decay_rate,
    reconstruct_fluxes,
    solver_slack,
)
from .errors import (
    AuditFailure,
    DimensionMismatch,
    InadmissibleInitialData,
    InadmissibleState,
    InconsistentFields,
    InsufficientData,
    InvalidProductionLaw,
    MsdiffError,
    NonPositiveEntropy,
    NonPositiveOffDiagonal,
    NonSymmetricD,
    NonlinearDivergence,
    NotStrictlyAdmissible,
    NotSymmetric,
    ParseError,
    SimulationAborted,
    SingularA0,
    ValidationError,
    WrongSpeciesCount,
)
from .grid import (
    Grid1D,
    divergence,
    face_gradient,
    integrate,
    laplacian_squared_lower_bands,
)
from .mixture import (
    EPS_ADMISSIBLE,
    MixtureSpec,
    ProductionLaw,
    c_to_w,
    diffusivity_matrix_from_upper,
    friction_matrix,
    friction_matrix_symmetric,
    full_concentrations,
    mobility_matrix,
    new_mixture_spec,
    production_rates,
    reduced_friction_inverse_bound,
    reduced_friction_matrix,
    w_to_c,
)
from .scenarios import (
    PRESETS,
    build_initial,
    cosine_profile,
    heat_analytic,
    step_profile,
    uniform_profile,
)
from .spectra import (
    SpectrumReport,
    certify_friction_spectrum,
    certify_reduced_spectrum,
    symmetric_spectrum,
)
from .stepper import (
    SchemeParams,
    SimulationResult,
    StepResult,
    advance_step,
    regularize_initial,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "EPS_ADMISSIBLE",
    "AuditFailure",
    "AuditVerdict",
    "DiagnosticsRecord",
    "DimensionMismatch",
    "Grid1D",
    "InadmissibleInitialData",
    "InadmissibleState",
    "InconsistentFields",
    "InsufficientData",
    "InvalidProductionLaw",
    "MixtureSpec",
    "MsdiffError",
    "NonPositiveEntropy",
    "NonPositiveOffDiagonal",
    "NonSymmetricD",
    "NonlinearDivergence",
    "NotStrictlyAdmissible",
    "NotSymmetric",
    "PRESETS",
    "ParseError",
    "ProductionLaw",
    "RunConfig",
    "SchemeParams",
    "SimulationAborted",
    "SimulationResult",
    "SingularA0",
    "SpectrumReport",
    "StepResult",
    "ValidationError",
    "WrongSpeciesCount",
    "advance_step",
    "audit_step",
    "build_initial",
    "c_to_w",
    "config_from_pairs",
    "certify_friction_spectrum",
    "certify_reduced_spectrum",
    "cosine_profile",
    "diffusivity_matrix_from_upper",
    "divergence",
    "face_gradient",
    "fit_decay_rate",
    "friction_matrix",
    "friction_matrix_symmetric",
    "full_concentrations",
    "heat_analytic",
    "integrate",
    "laplacian_squared_lower_bands",
    "materialize",
    "materialize_spec",
    "mobility_matrix",
    "new_mixture_spec",
    "production_rates",
    "reconstruct_fluxes",
    "reduced_friction_inverse_bound",
    "reduced_friction_matrix",
    "regularize_initial",
    "run_simulation",
    "scan_config_lines",
    "solver_slack",
    "step_profile",
    "symmetric_spectrum",
    "uniform_profile",
    "w_to_c",
]
