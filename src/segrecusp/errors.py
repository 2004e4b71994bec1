"""Exception hierarchy shared by all segrecusp modules."""


class SegreCuspError(Exception):
    """Base class for all errors raised by this package."""


class FieldError(SegreCuspError):
    """Invalid construction or mixing of coefficient domains."""


class TowerUnsupported(FieldError):
    """An operation would need a coefficient field outside the supported
    enumeration (rationals, one quadratic extension, rational functions)."""


class OrderTooSmall(SegreCuspError):
    """The requested truncation order is below a routine's minimum; unlike
    :class:`TruncationInsufficient`, nothing retries it."""


class TruncationInsufficient(SegreCuspError):
    """A vanishing order hit the truncation cap; retry with a larger order."""


class SingularJacobian(SegreCuspError):
    """The linearization of an implicit system is not invertible."""


class DegeneratePencil(SegreCuspError):
    """det(lambda*P + mu*Q) vanishes identically."""


class IrrationalEigenvalue(SegreCuspError):
    """The pencil has an eigenvalue outside the rationals."""

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


class DuplicateEigenvalue(SegreCuspError):
    """Two distinct eigenvalue ids were assigned the same rational."""


class CrossCheckMismatch(SegreCuspError):
    """Two independent routes to the same quantity disagree."""


class NonIsolatedSingularity(SegreCuspError):
    """A positive-dimensional singular locus was detected."""


class UnsupportedSingularity(SegreCuspError):
    """A singularity outside the A1..A4, D4, D5 range for Segre surfaces."""


class PointSingular(SegreCuspError):
    """A smooth point was required but a singular one was supplied."""


class NotOnSurface(SegreCuspError):
    """A point or a line that must lie on the surface does not."""


class PointNotOnLine(SegreCuspError):
    """The base point does not lie on the supplied line."""


class HyperplaneNotTangent(SegreCuspError):
    """The hyperplane does not contain the tangent plane at the point."""


class RootFieldUnsupported(SegreCuspError):
    """Roots would require more than one quadratic extension."""


class NonGenericPoint(SegreCuspError):
    """A sampled point landed on a special locus; resample and retry."""


class NoDoubleRoot(SegreCuspError):
    """The tangency construction degenerated at the chosen base point."""


class RetryExhausted(SegreCuspError):
    """A randomized construction failed within its attempt budget."""


class ValidationFailure(SegreCuspError):
    """A surface configuration failed validation; carries the report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(SegreCuspError):
    """A configuration file could not be parsed."""
