"""Truncated power series and dense Laurent polynomials.

A :class:`TruncatedPowerSeries` stores Maclaurin coefficients ``d_0..d_T``
together with radius-of-convergence metadata, and checks only their shape
and the radius: what a construction needs of them (d_0 = 1, nonzero
d_0..d_K) is checked where it reads them, by
:func:`~olaurent.systems.build_system` and
:func:`~olaurent.functional.exact_moments`.  Products truncate to the
smaller operand order; reciprocals use the standard triangular recurrence
and refuse d_0 = 0 (:class:`~olaurent.errors.ZeroCoefficient`).

A :class:`LaurentPoly` is an immutable finite sum ``sum_k c_k x^k`` over
integer exponents of either sign, stored densely and exactly: every
polynomial here (a partial sum over a power of x, a recurrence step,
their products) has contiguous support.  Products are convolutions;
evaluation accepts scalars or numpy arrays and raises
:class:`~olaurent.errors.DomainViolation` when a negative exponent meets
the origin.  ``LaurentPoly()`` is zero and ``LaurentPoly({e: c})`` the
monomial c x^e.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from . import exact, kernels
from .errors import DomainViolation, InvalidParams, ZeroCoefficient

__all__ = ["TruncatedPowerSeries", "LaurentPoly"]


class TruncatedPowerSeries:
    """Maclaurin coefficients ``d_0..d_T`` plus a positive radius.

    Args:
        coeffs: complex coefficients, ascending powers, at least one entry.
        radius: radius of convergence of the underlying function; may be
            ``math.inf``.  Must be strictly positive.
    """

    __slots__ = ("coeffs", "radius")

    def __init__(self, coeffs, radius: float = math.inf):
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.shape[0] == 0:
            raise InvalidParams("coeffs must be a non-empty 1-d sequence")
        if not radius > 0:
            raise InvalidParams(f"radius must be positive, got {radius}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "radius", float(radius))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedPowerSeries is immutable")

    @property
    def order(self) -> int:
        """Truncation order T (index of the last stored coefficient)."""
        return self.coeffs.shape[0] - 1

    def coeff(self, k: int) -> complex:
        """d_k, or 0 for k beyond the truncation order."""
        if k < 0:
            raise InvalidParams("power series coefficients start at k = 0")
        if k > self.order:
            return 0j
        return complex(self.coeffs[k])

    def __mul__(self, other: "TruncatedPowerSeries") -> "TruncatedPowerSeries":
        if not isinstance(other, TruncatedPowerSeries):
            return NotImplemented
        # mixed orders truncate to the shorter operand; radii take the min
        n = min(self.order, other.order) + 1
        prod = kernels.cauchy_product(self.coeffs, other.coeffs, n)
        return TruncatedPowerSeries(prod, min(self.radius, other.radius))

    def reciprocal(self) -> "TruncatedPowerSeries":
        """Coefficients of 1/f to the same order, same radius metadata.

        The metadata is a conservative bound: 1/f converges at least on the
        disc where f does whenever f has no zeros there, which is the regime
        every caller in this package operates in.
        """
        if self.coeffs[0] == 0:
            raise ZeroCoefficient("cannot invert a series with d_0 = 0")
        return TruncatedPowerSeries(kernels.reciprocal_coeffs(self.coeffs), self.radius)

    def __call__(self, z):
        """Evaluate the truncated polynomial at a scalar or ndarray."""
        if isinstance(z, np.ndarray):
            return kernels.eval_poly(self.coeffs, np.ascontiguousarray(z, dtype=np.complex128))
        return kernels.eval_poly(self.coeffs, complex(z))

    def tail_bound(self, s: float) -> float:
        """Estimated magnitude of the dropped tail at ``|z| = s``.

        Extrapolates geometrically from the trailing retained terms: with
        t_k = |d_k| s^k and q the largest of the last few ratios t_k/t_{k-1},
        the estimate is t_T q/(1-q), or ``inf`` when q >= 1.
        """
        t = np.abs(self.coeffs) * float(s) ** np.arange(self.coeffs.shape[0])
        if self.order == 0:
            return 0.0
        w = min(8, self.order)
        num, den = t[-w:], t[-w - 1:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(den > 0, num / np.where(den > 0, den, 1.0),
                              np.where(num > 0, np.inf, 0.0))
        q = float(np.max(ratios))
        if not q < 1.0:
            return math.inf
        return float(t[-1]) * q / (1.0 - q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedPowerSeries):
            return NotImplemented
        return (self.radius == other.radius
                and self.coeffs.shape == other.coeffs.shape
                and bool(np.all(self.coeffs == other.coeffs)))

    __hash__ = None

    def __repr__(self) -> str:
        head = ", ".join(f"{c:g}" for c in self.coeffs[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"TruncatedPowerSeries([{head}{tail}], order={self.order}, radius={self.radius})"


class LaurentPoly:
    """Finite Laurent polynomial ``sum_k c_k x^k``, exponents of any sign, held exactly.

    The coefficient of x^(lo+i) is ``numerators[i] / denominator`` (see
    :mod:`olaurent.exact`), with nonzero ends (none for the zero
    polynomial, which has ``lo = 0``).  Finite doubles enter exactly; a
    non-finite coefficient or scalar is refused.  ``+``, ``-``, ``*`` and
    :meth:`shift` are exact.  ``coeffs``, :meth:`coeff`,
    :meth:`items` and evaluation round a coefficient once, and refuse one
    that overflows, when they read it.  ``items`` and ``len`` skip
    interior zeros.
    """

    def __new__(cls, terms: Mapping[int, complex] | None = None):
        terms = {int(e): c for e, c in (terms or {}).items()}
        lo, hi = min(terms, default=0), max(terms, default=0)
        num, scale = exact.scaled([terms.get(e, 0.0) for e in range(lo, hi + 1)])
        return cls.from_exact(lo, num, 1 << scale)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_exact(cls, lo: int, numerators, denominator: int) -> "LaurentPoly":
        """``sum_i numerators[i] / denominator x^(lo + i)``; every constructor ends here.

        Only the zeros at the two ends are looked for, and trimmed.
        """
        num = tuple(numerators)
        i = next((i for i, c in enumerate(num) if c), len(num))
        j = len(num) - next((i for i, c in enumerate(reversed(num)) if c), 0)
        p = object.__new__(cls)
        vars(p).update(lo=lo + i if i < j else 0, numerators=num[i:j], denominator=denominator)
        return p

    # -- inspection -----------------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        """A new complex128 array of the coefficients of x^lo, x^(lo+1), ..., each rounded once."""
        return np.array([exact.to_complex(c, self.denominator) for c in self.numerators],
                        dtype=np.complex128)

    def coeff(self, exponent: int) -> complex:
        i = int(exponent) - self.lo
        if 0 <= i < len(self.numerators):
            return exact.to_complex(self.numerators[i], self.denominator)
        return 0j

    def items(self) -> list[tuple[int, complex]]:
        """Nonzero terms as (exponent, coefficient) pairs, ascending exponent."""
        return [(self.lo + i, exact.to_complex(c, self.denominator))
                for i, c in enumerate(self.numerators) if c]

    def __len__(self) -> int:
        return sum(map(bool, self.numerators))

    def __bool__(self) -> bool:
        return bool(self.numerators)

    @property
    def min_exponent(self) -> int | None:
        return self.lo if self else None

    @property
    def max_exponent(self) -> int | None:
        return self.lo + len(self.numerators) - 1 if self else None

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        den = math.lcm(self.denominator, other.denominator)
        lo = min(self.lo, other.lo)
        out = [0] * (max(self.lo + len(self.numerators), other.lo + len(other.numerators)) - lo)
        for p in (self, other):
            f = den // p.denominator
            for i, c in enumerate(p.numerators, start=p.lo - lo):
                out[i] += c * f
        return LaurentPoly.from_exact(lo, out, den)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly.from_exact(self.lo, [-c for c in self.numerators], self.denominator)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + -other if isinstance(other, LaurentPoly) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = [0] * max(len(self.numerators) + len(other.numerators) - 1, 0)
        for i, a in enumerate(self.numerators):
            for j, b in enumerate(other.numerators, start=i):
                out[j] += a * b
        return LaurentPoly.from_exact(self.lo + other.lo, out,
                                      self.denominator * other.denominator)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by ``x**k`` (exponent shift)."""
        return LaurentPoly.from_exact(self.lo + k, self.numerators, self.denominator)

    # -- evaluation ---------------------------------------------------------------

    def __call__(self, x):
        """Evaluate at a scalar or ndarray: Horner on the rounded ``coeffs``, times ``x**lo``."""
        array = isinstance(x, np.ndarray)
        pts = np.ascontiguousarray(x, dtype=np.complex128) if array else complex(x)
        if not self:
            return np.zeros(pts.shape, dtype=np.complex128) if array else 0j
        lo = self.lo
        if lo < 0 and np.any(pts == 0):
            raise DomainViolation("negative exponents cannot be evaluated at 0")
        vals = kernels.eval_poly(self.coeffs, pts)
        return vals if lo == 0 else vals * pts ** lo

    # -- comparisons ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return not self - other if isinstance(other, LaurentPoly) else NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        if not self:
            return "LaurentPoly(0)"
        bits = [f"({c:g})*x^{e}" for e, c in self.items()]
        return "LaurentPoly(" + " + ".join(bits) + ")"
