"""Numeric kernels, one numpy implementation each.

On contiguous complex arrays:

* ``eval_poly(coeffs, pts, dtype)`` -- the one Horner loop, ascending coeffs;
  a scalar point, or a list of them, runs in Python complex arithmetic
* ``cauchy_product(a, b, n)``       -- truncated convolution, n output terms
* ``reciprocal_coeffs(a)``          -- coefficients of 1/sum(a_k z^k)

No CLI path multiplies or inverts a power series; the last two serve
``TruncatedPowerSeries``, which tests and the benchmark's tracer use.  For
contour quadrature in the widest complex dtype available:
``circle_nodes_extended``, ``eval_poly_extended`` (``eval_poly`` in that
dtype), ``circle_spectrum`` (the one sum over quadrature nodes, a single
FFT) and ``circle_coefficients``, which rounds once and refuses an
overflow.  The contour routes call ``eval_poly_extended`` once per table,
on distinct points only: the N / gcd(N, 2) values of y^2 for a moment
table, and the N nodes of one kernel for the R_n(x) spectrum.
"""

import numpy as np

from .errors import UnrepresentableValue

# Kept for the benchmark's machine facts, which record the kernel backend;
# numba is no longer used, so these are constants.
HAS_NUMBA = False


def backend() -> str:
    """Name of the kernel backend, always ``"numpy"``."""
    return "numpy"


def eval_poly(coeffs: np.ndarray, pts, dtype=np.complex128):
    """Horner evaluation, accumulating in `dtype`, at an ndarray of points, a scalar or a list.

    The coefficients enter as Python numbers, converted once per call, which
    numpy adds in the array's dtype.  A scalar, and each scalar of a list,
    runs in Python complex arithmetic in the default dtype, which rounds like
    numpy's complex128 scalars at about half their cost, and gives a
    ``complex``; a list gives a list, so its points share one conversion.
    """
    rest = coeffs[-2::-1].tolist()

    def horner(acc, z):
        for c in rest:
            acc = acc * z + c
        return acc

    if isinstance(pts, np.ndarray):
        return horner(np.full(pts.shape, coeffs[-1], dtype=dtype), pts)
    top = dtype(coeffs[-1]).item()
    return [horner(top, z) for z in pts] if isinstance(pts, list) else horner(top, pts)


def cauchy_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    return np.convolve(a, b)[:n]


def reciprocal_coeffs(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    e = np.zeros(n, dtype=np.complex128)
    e[0] = 1.0 / a[0]
    for k in range(1, n):
        e[k] = -np.dot(a[1:k + 1], e[k - 1::-1]) / a[0]
    return e


# -- extended-precision quadrature helpers -----------------------------------
#
# A Cauchy coefficient k on a circle of radius c != 1 is a node average
# scaled by c ** -k, so the average cancels by that factor and the 64-bit
# rounding of each node value would be amplified by it.  These helpers run
# Horner and the FFT in the widest complex dtype the platform provides (80-bit
# extended on x86 Linux, plain double elsewhere) and round once at the end.

QUAD_DTYPE = np.complex256 if hasattr(np, "complex256") else np.complex128
_REAL_QUAD = np.longdouble if hasattr(np, "complex256") else np.float64


def circle_nodes_extended(radius: float, count: int) -> np.ndarray:
    """Equispaced points on ``|z| = radius`` in ``QUAD_DTYPE``."""
    pi = np.arccos(_REAL_QUAD(-1.0))
    k = np.arange(count, dtype=_REAL_QUAD)
    return _REAL_QUAD(radius) * np.exp(2j * pi * k / count)


def eval_poly_extended(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """:func:`eval_poly` accumulating in ``QUAD_DTYPE``; the benchmark's tracer wraps this name."""
    return eval_poly(coeffs, pts, QUAD_DTYPE)


def circle_spectrum(values: np.ndarray) -> np.ndarray:
    """Averages of N samples at radius exp(2 pi i j / N) against exp(-2 pi i j k / N), one FFT."""
    return np.fft.fft(np.asarray(values, dtype=QUAD_DTYPE)) / len(values)


def circle_coefficients(spectrum: np.ndarray, radius: float, ks) -> np.ndarray:
    """Trapezoid Cauchy coefficients k (mod N) from a :func:`circle_spectrum`, each rounded once."""
    ks = np.asarray(ks)
    with np.errstate(over="ignore", invalid="ignore"):  # the first overflow is refused below
        c = (spectrum[ks % len(spectrum)] * _REAL_QUAD(radius) ** -ks).astype(np.complex128)
    bad = np.flatnonzero(~np.isfinite(c))
    if bad.size:
        raise UnrepresentableValue(f"Cauchy coefficient {ks[bad[0]]} on radius {radius} "
                                   "overflows a double")
    return c


__all__ = [
    "backend",
    "eval_poly",
    "cauchy_product",
    "reciprocal_coeffs",
    "QUAD_DTYPE",
    "circle_nodes_extended",
    "eval_poly_extended",
    "circle_spectrum",
    "circle_coefficients",
]
