"""Exception types shared across the package."""


class TamexpError(Exception):
    """Base class for all package errors."""


class NonPrime(TamexpError):
    pass


class DegreeZero(TamexpError):
    pass


class BoundViolated(TamexpError):
    """A proved bound failed; this signals an implementation bug."""


class DimensionMismatch(TamexpError):
    pass


class DegreeOverflow(TamexpError):
    """Symbolic expansion exceeded the configured term cap."""


class NotInvertible(TamexpError):
    """A factorial/binomial needed by a construction is zero mod p."""


class BadExponent(TamexpError):
    """Target exponent violates the congruence t = t_ij mod (E-1)."""


class BudgetExceeded(TamexpError):
    pass


class RankTooLarge(TamexpError):
    pass


class ClashingMinimalPolynomials(TamexpError):
    pass


class ValueOutsideSubfield(TamexpError):
    pass


class FieldTooLarge(TamexpError):
    """A field beyond ff.TABLE_LIMIT where the array kernels need its
    exp/log tables: an input the command cannot run with."""


class NotClosed(TamexpError):
    """A generator maps a domain point outside the domain."""


class NoConvergence(TamexpError):
    pass


class ProbeFailed(TamexpError):
    """A constructive probe failed on a concrete tuple (bug signal)."""
