"""Orthogonal Laurent polynomials from power-series partial sums.

The package builds the Laurent system R_n attached to a power series
with nonzero Maclaurin coefficients, evaluates the orthogonality
functional both from exact reciprocal-series moments and by contour
quadrature, verifies the generating-function and recurrence identities,
and solves finite recurrence systems with explicit atomic representing
measures.
"""

__version__ = "0.1.0"

from .errors import (
    DomainViolation,
    EvalAtZero,
    InsufficientOrder,
    InvalidParams,
    MissingCoefficients,
    NearZeroDenominator,
    NonzeroCoefficientViolated,
    OLaurentError,
    PoleProximity,
    RadiusInvalid,
    RepresentationCondFailed,
    TailNotNegligible,
    UnrepresentableValue,
    UnsupportedFamily,
    WindowExceeded,
    ZeroCoefficient,
    ZeroConstantTerm,
)
from .families import FamilySpec, realize, reciprocal_closed_form
from .finite import (
    AtomicMeasure,
    FiniteSystemSpec,
    FunctionalSolve,
    build_atomic_measure,
    build_Q,
    represent_functional,
    solve_moments,
)
from .functional import (
    ContourSpec,
    MomentTable,
    apply_L,
    contour_L,
    exact_moments,
    gram_matrix,
    specialized_L_exp_binomial,
)
from .genfun import (
    GenfunCheck,
    GenfunSample,
    check_laurent_genfun,
    check_partial_sum_genfun,
    rn_all_by_contour,
    rn_by_contour,
)
from .series import LaurentPoly, TruncatedPowerSeries
from .systems import (
    NormalizationReport,
    OLPSystem,
    RecurrenceData,
    build_by_recurrence,
    build_system,
    check_normalization,
    recurrence_data,
)

__all__ = [
    "__version__",
    "TruncatedPowerSeries",
    "LaurentPoly",
    "FamilySpec",
    "realize",
    "reciprocal_closed_form",
    "OLPSystem",
    "RecurrenceData",
    "NormalizationReport",
    "build_system",
    "recurrence_data",
    "build_by_recurrence",
    "check_normalization",
    "MomentTable",
    "ContourSpec",
    "exact_moments",
    "apply_L",
    "contour_L",
    "gram_matrix",
    "specialized_L_exp_binomial",
    "GenfunSample",
    "GenfunCheck",
    "check_partial_sum_genfun",
    "check_laurent_genfun",
    "rn_all_by_contour",
    "rn_by_contour",
    "FiniteSystemSpec",
    "FunctionalSolve",
    "AtomicMeasure",
    "build_Q",
    "solve_moments",
    "build_atomic_measure",
    "represent_functional",
    "OLaurentError",
    "InvalidParams",
    "NonzeroCoefficientViolated",
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
