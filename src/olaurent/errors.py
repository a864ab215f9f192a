"""Exception hierarchy.

Every error carries an ``exit_code`` used by the command line front end:
2 for configuration problems, 3 for numeric validation failures, 4 when
the representation condition a != 0 fails.  An error is raised where
the value it judges is read: a zero source coefficient, for one, only
where a system reads it (:class:`ZeroCoefficient`).
"""

__all__ = [
    "OLaurentError",
    "InvalidParams",
    "UnsupportedFamily",
    "InsufficientOrder",
    "ZeroCoefficient",
    "MissingCoefficients",
    "ZeroConstantTerm",
    "EvalAtZero",
    "WindowExceeded",
    "RadiusInvalid",
    "NearZeroDenominator",
    "TailNotNegligible",
    "DomainViolation",
    "PoleProximity",
    "UnrepresentableValue",
    "RepresentationCondFailed",
]


class OLaurentError(Exception):
    """Base class for all package errors."""

    exit_code = 3


# -- configuration / input errors (exit code 2) -----------------------------

class InvalidParams(OLaurentError):
    """Parameters violate a documented constraint."""

    exit_code = 2


class UnsupportedFamily(InvalidParams):
    """The requested operation has no closed form for this family kind."""


class InsufficientOrder(InvalidParams):
    """A series was realized to too low a truncation order for the request."""


class ZeroCoefficient(InvalidParams):
    """A coefficient among the d_0..d_K that a system of order K reads is zero."""


class MissingCoefficients(InvalidParams):
    """Recurrence data does not extend far enough for the requested index."""


# -- numeric validation errors (exit code 3) --------------------------------

class ZeroConstantTerm(OLaurentError):
    """Reciprocal of a series whose constant term vanishes."""


class EvalAtZero(OLaurentError):
    """A Laurent polynomial with negative exponents evaluated at zero."""


class WindowExceeded(OLaurentError):
    """Polynomial support falls outside the available moment window."""


class RadiusInvalid(OLaurentError):
    """A contour radius outside the series' disc, or an atom circle that must pass 2**120."""


class NearZeroDenominator(OLaurentError):
    """The integrand denominator comes too close to zero on the contour."""


class TailNotNegligible(OLaurentError):
    """Truncation tail too large for the requested quadrature accuracy."""


class DomainViolation(OLaurentError):
    """Evaluation point outside the identity's domain of validity."""


class PoleProximity(OLaurentError):
    """Evaluation point too close to a pole of the kernel."""


class UnrepresentableValue(OLaurentError):
    """An exactly computed value overflows the double range when rounded."""


# -- representation condition (exit code 4) ---------------------------------

class RepresentationCondFailed(OLaurentError):
    """The normalizing moment a = L(x^-n) vanishes; no representation."""

    exit_code = 4
