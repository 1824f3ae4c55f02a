"""Exception types shared across the package."""

# what plain-float arithmetic raises on radii near the ends of the float range
_FLOAT_RANGE_ERRORS = (OverflowError, ZeroDivisionError)


class PhotonSurfError(Exception):
    """Base class for all package-specific errors."""


class UnknownFamilyError(PhotonSurfError, ValueError):
    """Requested metric family is not a built-in."""


class InvalidFamilyParamsError(PhotonSurfError, ValueError):
    """Family parameters yield no valid exterior region."""


class DomainError(PhotonSurfError, ValueError):
    """A radius or isotropic radius lies outside the declared interval."""


class ForbiddenRadiusError(PhotonSurfError, ValueError):
    """Initial radius not admissible for the requested surface/geodesic."""


class TooFewSamplesError(PhotonSurfError, ValueError):
    """A curve has fewer samples than its finite differences need."""


class StepUnderflowError(PhotonSurfError, RuntimeError):
    """Adaptive integrator could not advance; carries the last state."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class StepBudgetError(StepUnderflowError):
    """Adaptive integrator attempted its step budget on one half-line without
    reaching the end; carries the last state."""


class CompatibilityError(PhotonSurfError, ValueError):
    """Isotropic data cannot be rewritten in area-radius form."""

    def __init__(self, message, worst_s=None, worst_residual=None):
        super().__init__(message)
        self.worst_s = worst_s
        self.worst_residual = worst_residual


class PrincipalNullError(PhotonSurfError, ValueError):
    """Operation requires positive angular momentum (timelike case)."""


class MinimalSphereError(PhotonSurfError, ValueError):
    """Mean curvature vanishes (semi-static horizon case); only detected."""


class IdentityNotApplicableError(PhotonSurfError, ValueError):
    """Curvature identity is not expected to hold for this spacetime."""
