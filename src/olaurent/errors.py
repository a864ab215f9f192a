"""Exception hierarchy.

Every error carries an ``exit_code`` used by the command line front end:
2 for configuration problems, 3 for numeric validation failures, 4 when
the representation condition a != 0 fails.  An error is raised where
the value it judges is read, and each refusal has one class wherever it
is met: a zero coefficient (:class:`ZeroCoefficient`), an input too
short for the index asked for (:class:`InsufficientOrder`), a point
outside a domain (:class:`DomainViolation`).
"""

__all__ = [
    "OLaurentError",
    "InvalidParams",
    "UnsupportedFamily",
    "InsufficientOrder",
    "ZeroCoefficient",
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
    """A series, or recurrence data, stops short of the index a request reads."""


class ZeroCoefficient(InvalidParams):
    """A zero among the d_0..d_K a system of order K reads, or d_0 of a series to invert."""


# -- numeric validation errors (exit code 3) --------------------------------

class WindowExceeded(OLaurentError):
    """Polynomial support falls outside the available moment window."""


class RadiusInvalid(OLaurentError):
    """A contour radius outside the series' disc, or an atom circle that must pass 2**120."""


class NearZeroDenominator(OLaurentError):
    """The integrand denominator comes too close to zero on the contour."""


class TailNotNegligible(OLaurentError):
    """Truncation tail too large for the requested quadrature accuracy."""


class DomainViolation(OLaurentError):
    """A point outside an identity's domain, or 0 for a Laurent polynomial with x^-k terms."""


class PoleProximity(OLaurentError):
    """Evaluation point too close to a pole of the kernel."""


class UnrepresentableValue(OLaurentError):
    """An exactly computed value overflows the double range when rounded."""


# -- representation condition (exit code 4) ---------------------------------

class RepresentationCondFailed(OLaurentError):
    """The normalizing moment a = L(x^-n) vanishes; no representation."""

    exit_code = 4
