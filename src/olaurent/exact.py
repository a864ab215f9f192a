"""Exact arithmetic on double inputs.

An exact value is an integer numerator over a positive int denominator,
rounded to a double once, at the end, by :func:`to_complex`.  A finite
double is n / 2**s, so sums and products of complex doubles are Gaussian
dyadic rationals: :func:`split` and :func:`scaled` give the numerators
and the exponent s that the dyadic kernels shift by, and their results
are over 2**s; :func:`common_scale` puts split pairs over their largest
2**s.  A source's coefficients are split once, by the series' own view
:attr:`~olaurent.series.TruncatedPowerSeries.exact_coeffs`, which the
exact routes read instead of splitting them again.  A real numerator is
a plain ``int`` and a complex one a :class:`Gaussian`, which mixes with
``int`` the way ``complex`` mixes with ``float``; both have ``.real``,
``.imag`` and ``.conjugate()``, so each exact algorithm is written once
and real inputs never leave ``int``.
"""

from __future__ import annotations

import math

from .errors import InvalidParams, UnrepresentableValue

__all__ = ["Gaussian", "split", "scaled", "common_scale", "to_complex", "as_int", "as_number",
           "refuse_unknown_keys"]


class Gaussian:
    """The Gaussian integer real + i imag; the other operand is an int or a Gaussian.

    A reflected operator sees only an int on its left, so it scales or
    shifts the parts directly: int times Gaussian is two products, not four.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real: int, imag: int):
        self.real, self.imag = real, imag

    def __bool__(self) -> bool:
        return bool(self.real or self.imag)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (int, Gaussian)):
            return NotImplemented
        return self.real == other.real and self.imag == other.imag

    __hash__ = None

    def __neg__(self) -> Gaussian:
        return Gaussian(-self.real, -self.imag)

    def conjugate(self) -> Gaussian:
        return Gaussian(self.real, -self.imag)

    def __add__(self, other) -> Gaussian:
        return Gaussian(self.real + other.real, self.imag + other.imag)

    def __radd__(self, n: int) -> Gaussian:
        return Gaussian(n + self.real, self.imag)

    def __sub__(self, other) -> Gaussian:
        return Gaussian(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, n: int) -> Gaussian:
        return Gaussian(n - self.real, -self.imag)

    def __mul__(self, other) -> Gaussian:
        a, b, c, d = self.real, self.imag, other.real, other.imag
        return Gaussian(a * c - b * d, a * d + b * c)

    def __rmul__(self, n: int) -> Gaussian:
        return Gaussian(n * self.real, n * self.imag)

    def __lshift__(self, n: int) -> Gaussian:
        return Gaussian(self.real << n, self.imag << n)

    def __rshift__(self, n: int) -> Gaussian:
        return Gaussian(self.real >> n, self.imag >> n)


def split(z: complex) -> tuple[int | Gaussian, int]:
    """(value, scale) with z = value / 2**scale exactly, scale >= 0 minimal; int when z is real."""
    z = complex(z)
    try:
        nr, dr = z.real.as_integer_ratio()
        ni, di = z.imag.as_integer_ratio()
    except (ValueError, OverflowError) as exc:
        raise InvalidParams(f"non-finite value {z} has no exact form") from exc
    # both denominators are powers of two
    den = max(dr, di)
    re, im = nr * (den // dr), ni * (den // di)
    return (Gaussian(re, im) if im else re), den.bit_length() - 1


def scaled(values) -> tuple[list, int]:
    """Values over one common denominator 2**scale: (numerators, scale)."""
    return common_scale([split(v) for v in values])


def common_scale(parts) -> tuple[list, int]:
    """(value, scale) pairs, as :func:`split` gives them, over their largest 2**scale."""
    scale = max((s for _, s in parts), default=0)
    return [v << (scale - s) for v, s in parts], scale


def to_complex(v, den: int) -> complex:
    """v / den for any int den > 0, the real and imaginary parts each correctly rounded."""
    try:
        return complex(v.real / den, v.imag / den)
    except OverflowError as exc:
        raise UnrepresentableValue(
            f"exact value of magnitude ~2**{(max(abs(v.real), abs(v.imag)) // den).bit_length()} "
            "overflows a double") from exc


def as_int(value, what: str) -> int:
    """The int that the JSON number `value` is exactly: an int or an integral float.

    A bool, a fraction, a non-finite float or any other type raises
    InvalidParams naming `what`, rather than being cut down by ``int()``.
    """
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise InvalidParams(f"{what} must be an integer, got {value!r}")


def as_number(value, what: str, pair: bool = False) -> float | complex:
    """The finite float that the JSON number `value` is: an int or a float.

    With `pair`, a complex value: a number or an ``[re, im]`` pair of
    numbers.  A bool, a string, a non-finite float, an int beyond the
    double range or any other type raises InvalidParams naming `what`,
    rather than being converted by ``float()`` or ``complex()``.
    """
    parts = value if pair and type(value) is list and len(value) == 2 else [value]
    try:
        if all(type(v) in (int, float) and math.isfinite(v) for v in parts):
            return complex(*parts) if pair else float(value)
    except OverflowError:  # an int beyond the double range
        pass
    raise InvalidParams(f"{what}: {value!r} is not a finite JSON number"
                        + (" or an [re, im] pair of them" if pair else ""))


def refuse_unknown_keys(keys, known, what: str) -> None:
    """Raise InvalidParams naming each of the JSON object keys `keys` that is not in `known`."""
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise InvalidParams(f"{what}: unknown key {', '.join(map(repr, unknown))}")
