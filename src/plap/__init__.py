"""Numerics for the regularized p-Laplace equation on model manifolds.

Energy minimization of the perturbed p-energy, epsilon continuation,
condenser capacities, end classification, and verifiers for the
associated pointwise identities and integral estimates.
"""

from .energy import EnergySpec, q_energy, weak_residual
from .errors import (
    ConstantsInfeasibleError,
    DomainError,
    InternalInconsistencyError,
    InvalidInputError,
    NeedsAsymptoticsError,
    NoBarrierError,
    NoDataError,
    NonConvergenceError,
    PlapError,
    SingularityError,
    UnsupportedVariantError,
)
from .geometry import (
    Cosh,
    EndKind,
    Exponential,
    ModelManifold,
    PolyEven,
    Power,
    Tabulated,
    euclidean,
    sphere_area,
    warped,
)
from .grid import Analytic1D, DiscreteField, Grid1D, Grid2D, wp_distance
from .solver import (
    SolveConfig,
    SolveReport,
    decade_schedule,
    eps_path,
    epsilon_continuation,
    radial_p_harmonic,
    sandwich_check,
    solve_dirichlet,
    two_end_barrier,
)
from .capacity import (
    CapacityResult,
    Condenser,
    capacity_analytic,
    capacity_monotonicity_suite,
    capacity_numeric,
    end_barrier_sweep,
    p_poincare_bound,
    tail_energy_profile,
    volume_growth_check,
)
from .verifiers import (
    VerifierReport,
    bochner_residual,
    bochner_s_residual,
    caccioppoli_check,
    example_gallery,
    kappa,
    kato_ratio,
    monotonicity_gap,
    monotonicity_suite,
    regularization_gap,
    strong_form_residual,
    weighted_caccioppoli_check,
    weighted_poincare_check,
)

__version__ = "0.1.0"
