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
    """A step fell below the integrator's floor (blow-up or pathology).

    Carries the position ``x`` the step would start from, the refused step
    ``h``, and the state there: (y0, y1) times exp(logscale).
    """

    def __init__(self, x, h, y0, y1, logscale):
        self.x = x
        self.h = h
        self.y0 = y0
        self.y1 = y1
        self.logscale = logscale
        super().__init__(
            f"step size {abs(h):.3e} below floor at x={x:.6g} "
            "(solution blow-up or coefficient pathology)"
        )


class SideMismatchError(QschroError):
    """Bracket arguments must pair one direct-side and one adjoint-side state."""


class ZeroNormError(QschroError):
    """A test function with zero L2 norm cannot be normalized."""


class FamilyMemberError(ValueError):
    """A member of a family of test functions cannot be built; ``index`` names it."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class UnsupportedTestFunctionError(QschroError):
    """Test function does not vanish at and outside the declared support window."""


class BadSchemeError(QschroError):
    """Interval scheme is unusable (overlap, wrong ordering, empty ramp room)."""


class OverflowUnrecoverableError(QschroError):
    """Log-rescaling bookkeeping could not bring a result to a representable scale.

    Carries where it fired, each None where it does not apply: the probe
    ``window`` T whose Gram matrix is not finite, the ``logscale`` that
    overflows a re-fit at absolute scale, and the ``index`` of the test
    function whose form, norm or w is not finite.
    """

    def __init__(self, message: str, window=None, logscale=None, index=None):
        super().__init__(message)
        self.window = window
        self.logscale = logscale
        self.index = index
