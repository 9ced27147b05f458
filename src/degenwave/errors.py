"""Exception types shared across the package, the one allocation that raises
one for an array too large to hold, and the one rule for a certificate
constant that overflows."""

import math

import numpy as np


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


def certificate_constant(name: str, compute) -> float:
    """compute(), a constant of a stability certificate; InfeasibleError naming
    it when it overflows (OverflowError, or a value that is not finite)."""
    try:
        value = compute()
        if math.isfinite(value):
            return value
    except OverflowError:
        pass
    raise InfeasibleError(f"{name} overflows")


class SubdomainNotAlignedError(DegenwaveError):
    """Subdomain data does not match the snapped node range."""


class ArrayTooLargeError(DegenwaveError):
    """An array a run needs cannot be allocated."""


def allocate(shape, what: str, hint: str, zero: bool = False) -> np.ndarray:
    """np.empty(shape), or np.zeros with `zero`, of doubles; ArrayTooLargeError
    naming `what`, its size and the `hint` of what to change when the request
    fails at once.  A request that succeeds is not touched here."""
    try:
        return np.zeros(shape) if zero else np.empty(shape)
    except (MemoryError, ValueError):       # ValueError: past numpy's size limit
        size = math.prod(shape)
        raise ArrayTooLargeError(
            f"{what} need {' x '.join(map(str, shape))} doubles ({size * 8 / 2**30:,.1f} GiB), "
            f"more than can be allocated; {hint}") from None


class LinearSolveFailureError(DegenwaveError):
    """Implicit-step linear solve failed."""


class NotExponentiallyStableError(DegenwaveError):
    """System matrix has spectral abscissa >= 0."""


class DegenerateFitError(DegenwaveError):
    """Trajectory norm too small everywhere to fit a decay rate."""
