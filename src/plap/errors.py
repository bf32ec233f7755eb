"""Exception hierarchy shared by all plap modules."""


class PlapError(Exception):
    """Base class for all library errors."""


class DomainError(PlapError):
    """Evaluation point lies outside the declared domain."""


class InvalidInputError(PlapError):
    """Arguments violate a documented precondition."""


class UnsupportedVariantError(PlapError):
    """Operation not defined for this manifold variant."""


class NeedsAsymptoticsError(PlapError):
    """The warp declares no asymptotics toward an infinite end, so whether
    an integral converges toward it is not known."""


class SingularityError(PlapError):
    """Degenerate operator: differentiation refused at eps = 0 (or p < 2
    with vanishing gradient)."""


class NonConvergenceError(PlapError):
    """Newton failed to reach tolerance; carries the best iterate."""

    def __init__(self, message, best=None, report=None):
        super().__init__(message)
        self.best = best
        self.report = report


class NoBarrierError(PlapError):
    """Two-end barrier requested but at least one end is parabolic."""


class ConstantsInfeasibleError(PlapError):
    """Supplied (tau, eps1, eps2) make the Caccioppoli constant C <= 0."""


class InternalInconsistencyError(PlapError):
    """Two independent diagnostics disagree (bug or insufficient range)."""


class NoDataError(PlapError):
    """Every node was excluded from a verifier statistic."""
