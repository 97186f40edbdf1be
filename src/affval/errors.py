"""Exception types shared across the library."""


class AffvalError(Exception):
    """Base class for all library errors."""


class EmptyInput(AffvalError):
    pass


class DimMismatch(AffvalError):
    pass


class SingularMap(AffvalError):
    pass


class SingularHessian(AffvalError):
    pass


class OutsideDomain(AffvalError):
    pass


class DegenerateDomain(AffvalError):
    pass


class NotConvex(AffvalError):
    pass


class EmptyDomain(AffvalError):
    pass


class BadSegment(AffvalError):
    pass


class NotFiniteValued(AffvalError):
    pass


class BadParameter(AffvalError):
    pass


class BadInput(AffvalError):
    pass


class NotConc(AffvalError):
    pass


class BadTransform(AffvalError):
    pass


class EvalError(AffvalError):
    pass


class NotAValuation(AffvalError):
    pass


class NumericalLimit(AffvalError):
    """A valid input that floating point cannot resolve within the
    library's tolerances (e.g. Qhull fails even with joggle)."""
