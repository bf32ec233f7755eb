"""Numerics for the regularized p-Laplace equation on model manifolds.

Energy minimization of the perturbed p-energy, epsilon continuation,
condenser capacities, end classification, and verifiers for the
associated pointwise identities and integral estimates.

The package's names are bound on first use (PEP 562): ``import plap``
executes none of its modules, ``plap.<module>`` imports that module
alone, and the first public name read (``plap.X``, ``from plap import
X``, ``from plap import *``) imports all seven modules and binds every
name of ``__all__``, as an eager import would.  All at once, not one
module per name: a batch that reads public names while it is built pays
for the whole library then, not inside its first job to reach
``solver``.  So a CLI launch imports only the modules its subcommand
runs (see ``plap.cli``).
"""

import importlib

# module -> its public names, in the order the modules are imported
_EXPORTS = {
    "energy": ("EnergySpec", "q_energy", "weak_residual"),
    "errors": (
        "ConstantsInfeasibleError",
        "DomainError",
        "InternalInconsistencyError",
        "InvalidInputError",
        "NeedsAsymptoticsError",
        "NoBarrierError",
        "NoDataError",
        "NonConvergenceError",
        "PlapError",
        "SingularityError",
        "UnsupportedVariantError",
    ),
    "geometry": (
        "Cosh",
        "EndKind",
        "Exponential",
        "ModelManifold",
        "PolyEven",
        "Power",
        "Tabulated",
        "euclidean",
        "sphere_area",
        "warped",
    ),
    "grid": ("Analytic1D", "DiscreteField", "Grid1D", "Grid2D", "wp_distance"),
    "solver": (
        "SolveConfig",
        "SolveReport",
        "decade_schedule",
        "eps_path",
        "epsilon_continuation",
        "radial_p_harmonic",
        "sandwich_check",
        "solve_dirichlet",
        "two_end_barrier",
    ),
    "capacity": (
        "CapacityResult",
        "Condenser",
        "capacity_analytic",
        "capacity_monotonicity_suite",
        "capacity_numeric",
        "end_barrier_sweep",
        "p_poincare_bound",
        "tail_energy_profile",
        "volume_growth_check",
    ),
    "verifiers": (
        "VerifierReport",
        "bochner_residual",
        "bochner_s_residual",
        "caccioppoli_check",
        "example_gallery",
        "kappa",
        "kato_ratio",
        "monotonicity_gap",
        "monotonicity_suite",
        "regularization_gap",
        "strong_form_residual",
        "weighted_caccioppoli_check",
        "weighted_poincare_check",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name in __all__:
        namespace = globals()
        for module, names in _EXPORTS.items():
            mod = importlib.import_module("." + module, __name__)
            namespace.update((n, getattr(mod, n)) for n in names)
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
