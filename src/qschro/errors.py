"""Exception types shared across the package."""


class QschroError(Exception):
    """Base class for all library errors."""


class NonRealError(QschroError):
    """A real-valued function was required but the data has an imaginary part."""


class NonRealScanError(NonRealError):
    """The real eigenvalue scan met a discriminant that is not real; ``ratio``
    is max |Im D|/|D| over the scan grid."""

    def __init__(self, message: str, ratio: float):
        super().__init__(message)
        self.ratio = ratio


class DiscontinuousQuasiDerivativeError(QschroError):
    """The first quasi-derivative jumps at a point where continuity is required.

    Carries the one-sided values so callers can inspect the mismatch.
    """

    def __init__(self, location, left, right):
        self.location = location
        self.left = left
        self.right = right
        super().__init__(
            f"quasi-derivative jumps at x={location!r}: "
            f"left={left!r}, right={right!r}"
        )


class StepUnderflowError(QschroError):
    """Adaptive step size fell below the integrator's floor (blow-up or pathology)."""


class SideMismatchError(QschroError):
    """Bracket arguments must pair one direct-side and one adjoint-side state."""


class ZeroNormError(QschroError):
    """A test function with zero L2 norm cannot be normalized."""


class UnsupportedTestFunctionError(QschroError):
    """Test function does not vanish at and outside the declared support window."""


class BadSchemeError(QschroError):
    """Interval scheme is unusable (overlap, wrong ordering, empty ramp room)."""


class OverflowUnrecoverableError(QschroError):
    """Log-rescaling bookkeeping could not bring a result to a representable scale."""
