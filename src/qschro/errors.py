"""Exception types shared across the package."""


class QschroError(Exception):
    """Base class for all library errors."""


class NonRealError(QschroError):
    """A real-valued function was required but the data has an imaginary part."""


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
    """A step fell below the integrator's floor, or a step of any size left a
    state, series or row that is not finite (blow-up or pathology).

    Carries the position ``x`` the step would start from, the refused step
    ``h``, and the state there: (y0, y1) times exp(logscale).  With
    ``finite`` False the message says that the state is not finite after
    the step, not that the step is below the floor.
    """

    def __init__(self, x, h, y0, y1, logscale, *, finite=True):
        self.x = x
        self.h = h
        self.y0 = y0
        self.y1 = y1
        self.logscale = logscale
        what = f"step size {abs(h):.3e} below floor" if finite else f"state not finite after a step of {abs(h):.3e}"
        super().__init__(f"{what} at x={x:.6g} (solution blow-up or coefficient pathology)")


class StepBudgetError(QschroError):
    """A walk would take more steps than its budget (``config.MAX_WALK_STEPS``).

    Carries the position ``x`` of the first step past the budget, that
    step ``h``, the state there, (y0, y1) times exp(logscale), and the
    ``budget``.
    """

    def __init__(self, x, h, y0, y1, logscale, budget):
        self.x = x
        self.h = h
        self.y0 = y0
        self.y1 = y1
        self.logscale = logscale
        self.budget = budget
        super().__init__(
            f"walk needs more than {budget} steps: step {abs(h):.3e} at x={x:.6g} "
            "(interval too long for the coefficients and lambda)"
        )


class ZeroNormError(QschroError):
    """A test function with zero L2 norm cannot be normalized."""


class FamilyMemberError(ValueError):
    """A member of a family of test functions cannot be built; ``index`` names it."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class UnsupportedTestFunctionError(QschroError):
    """Test function does not vanish at and outside the declared support window."""


class BadSchemeError(QschroError, ValueError):
    """Interval scheme is unusable (overlap, wrong ordering, empty ramp room).

    A ValueError too: a scheme is input, so a bad one is a validation error."""


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
