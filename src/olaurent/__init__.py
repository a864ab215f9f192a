"""Orthogonal Laurent polynomials from power-series partial sums.

The package builds the Laurent system R_n attached to a power series
with nonzero Maclaurin coefficients, evaluates the orthogonality
functional both from exact reciprocal-series moments and by contour
quadrature, verifies the generating-function and recurrence identities,
and solves finite recurrence systems with explicit atomic representing
measures.
"""

__version__ = "0.1.0"

# each module's __all__ is the package surface, named once
from . import errors, families, finite, functional, genfun, series, systems
from .errors import *
from .families import *
from .finite import *
from .functional import *
from .genfun import *
from .series import *
from .systems import *

__all__ = ["__version__", *(name for module in (series, families, systems, functional, genfun,
                                                finite, errors) for name in module.__all__)]
