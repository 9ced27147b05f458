"""Exception types shared across the package."""


class DegenwaveError(Exception):
    """Base class for package-specific errors."""


class NonDegenerateError(DegenwaveError):
    """Coefficient does not vanish at x = 0."""


class NotPositiveError(DegenwaveError):
    """Coefficient is not strictly positive on (0, 1]."""


class KOutOfRangeError(DegenwaveError):
    """Degeneracy measure K >= 2 (outside the supported range)."""


class GridTooCoarseError(DegenwaveError):
    """Grid has too few nodes for the requested stencils."""


class InconsistentBCError(DegenwaveError):
    """Boundary parameters incompatible with operator kind and degeneracy class."""


class EigSolveFailureError(DegenwaveError):
    """Generalized eigenvalue solve failed."""


class NotLocallyIntegrableError(DegenwaveError):
    """Kernel data does not define a locally integrable function."""


class InfeasibleError(DegenwaveError):
    """No stability certificate can be issued for the requested data."""


class SubdomainNotAlignedError(DegenwaveError):
    """Subdomain data does not match the snapped node range."""


class LinearSolveFailureError(DegenwaveError):
    """Implicit-step linear solve failed."""


class NotExponentiallyStableError(DegenwaveError):
    """System matrix has spectral abscissa >= 0."""


class BoundViolatedError(DegenwaveError):
    """A certified energy bound failed along a trajectory."""

    def __init__(self, message, step=None, time=None, ratio=None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.ratio = ratio


class DegenerateFitError(DegenwaveError):
    """Trajectory norm too small everywhere to fit a decay rate."""
