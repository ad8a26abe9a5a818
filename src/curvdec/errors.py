"""Exception hierarchy for curvdec."""


class CurvdecError(Exception):
    """Base class for all curvdec errors."""


class DimensionTooSmall(CurvdecError):
    """Scalar products and curvature tensors require dimension n >= 3."""


class NotSymmetric(CurvdecError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class DegenerateMetric(CurvdecError):
    """A scalar product matrix has an eigenvalue too close to zero."""


class NonFiniteInput(CurvdecError):
    """An input array holds NaN or infinite entries, or drives a result out of float range."""


class NonPositiveFactor(CurvdecError):
    """A scale factor that must be positive is zero or negative."""


class DimensionMismatch(CurvdecError):
    """Operands carry inconsistent dimensions."""


class UnknownSpace(CurvdecError):
    """Unrecognized curvature-space tag."""


class UnknownConnection(CurvdecError):
    """Unrecognized chart connection name."""


class UnknownCheck(CurvdecError):
    """Unrecognized invariant-suite check name."""


class NotGeneralizedCurvature(CurvdecError):
    """Input fails the antisymmetry/first-Bianchi residual test."""


class NotAlgebraic(CurvdecError):
    """Input fails the last-pair antisymmetry residual test."""


class FormSymmetryViolation(CurvdecError):
    """A bilinear form fails its required (anti)symmetry."""


class EmptySpace(CurvdecError):
    """The requested subspace is zero-dimensional at this dimension."""


class NegativeStreamKey(CurvdecError):
    """A sample stream's seed or index entry is negative."""


class EmptyRun(CurvdecError):
    """A run is configured to draw no samples or to visit no (dimension, signature) pair."""


class SchemaError(CurvdecError):
    """Malformed input document; carries the offending path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class LengthMismatch(SchemaError):
    """Array length inconsistent with the declared dimension."""


class DegenerateAtPoint(CurvdecError):
    """Chart metric is degenerate at the requested evaluation point."""
