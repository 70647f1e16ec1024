"""Exception hierarchy for the freesde package.

Every failure mode that callers are expected to handle gets its own class;
all of them derive from FreeSdeError so a bare ``except FreeSdeError`` at a
CLI boundary catches any numerical refusal without masking programming bugs.
"""


class FreeSdeError(Exception):
    """Base class for all package-specific failures."""


class NonFinite(FreeSdeError):
    """A transform evaluation produced NaN or Inf."""


class GridTooCoarse(FreeSdeError):
    """Too few grid points inside the support for a principal-value quadrature."""


class GridMismatch(FreeSdeError):
    """Operation requires density curves sampled on one common grid."""


class OrderTooHigh(FreeSdeError):
    """Moment or polynomial order beyond what the engine resolves."""


class OddOrder(FreeSdeError):
    """Identity check requires an even power."""


class Overflow(FreeSdeError, OverflowError):
    """Exact-integer guard exceeded (Catalan orders above 30)."""


class ClampExceeded(FreeSdeError):
    """Clamped negative density mass beyond tolerance; wrong branch suspected."""


class NotNormalized(FreeSdeError):
    """Curve claimed to be a full probability density but its mass is off."""


class MomentsUnavailable(FreeSdeError):
    """A moment of higher order than the supplied moment function covers."""


class StepTooLarge(FreeSdeError):
    """First integrator step already produced non-finite stage values."""


class OutsideSurface(FreeSdeError):
    """Query point not bracketed by the characteristic surface; no extrapolation."""


class NewtonDiverged(FreeSdeError):
    """Damped Newton failed to meet the residual tolerance."""


class BranchViolation(FreeSdeError):
    """Converged root is not on the upper-half-plane (Herglotz) branch."""


class PastBlowup(FreeSdeError):
    """Query beyond the finite blow-up time of the explosive model."""


class EigenFail(FreeSdeError):
    """Dense symmetric eigensolver did not converge."""


class InvalidConfig(FreeSdeError):
    """Malformed model or simulation configuration."""


class EmptyHistogram(FreeSdeError):
    """Distance requested against a histogram with no samples."""
