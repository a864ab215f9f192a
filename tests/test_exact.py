"""Exact arithmetic: the Gaussian integer type, the one rounding of a numerator over
a denominator, the int-only real path and the JSON number rules."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from olaurent import build_system, exact_moments, recurrence_data, solve_moments
from olaurent.errors import InvalidParams, UnrepresentableValue
from olaurent.exact import Gaussian, as_number, scaled, split, to_complex
from olaurent.systems import two_step


def pair(v):
    """(real, imag) of an int or a Gaussian as Fractions."""
    return Fraction(v.real), Fraction(v.imag)


def add(x, y):
    return x[0] + y[0], x[1] + y[1]


def mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


@pytest.mark.parametrize("a, b", [
    (3, Gaussian(2, -5)),
    (Gaussian(2, -5), -3),
    (Gaussian(-7, 4), Gaussian(6, 11)),
    (Gaussian(1 << 80, -3), -(1 << 70)),
    (Gaussian(0, 1), Gaussian(0, 1)),
    (Gaussian(3, 4), Gaussian(-3, -4)),     # cancels to Gaussian(0, 0)
])
def test_gaussian_arithmetic_matches_fraction_pairs(a, b):
    x, y = pair(a), pair(b)
    total = a + b
    assert type(total) is Gaussian and type(a * b) is Gaussian
    assert pair(total) == add(x, y) and pair(b + a) == add(x, y)
    assert pair(a * b) == mul(x, y) and pair(b * a) == mul(x, y)
    assert pair(-a) == (-x[0], -x[1])
    assert pair(a - b) == add(x, (-y[0], -y[1])) and pair(b - a) == add(y, (-x[0], -x[1]))
    assert pair(a << 7) == (x[0] * 128, x[1] * 128)
    assert pair(a.conjugate()) == (x[0], -x[1])
    # solve_moments skips zero coefficients, so a zero sum must be falsy
    assert bool(total) == any(add(x, y))
    assert pair(sum([a, b, a])) == add(add(x, y), x)
    re, im = mul(x, y)
    for den in (1, 8, 1 << 200, 3, 33 << 200):
        assert to_complex(a * b, den) == complex(float(re / den), float(im / den))


def test_gaussian_equality_compares_both_parts():
    assert Gaussian(1, 2) == Gaussian(1, 2) and not Gaussian(1, 2) != Gaussian(1, 2)
    assert Gaussian(3, 0) == 3 and 3 == Gaussian(3, 0)
    assert Gaussian(3, 1) != 3 and 3 != Gaussian(3, 1) and Gaussian(4, 0) != 3
    assert Gaussian(1, 2) != Gaussian(0, 2) and Gaussian(1, 2) != Gaussian(1, -2)
    with pytest.raises(TypeError):
        hash(Gaussian(1, 2))


def test_to_complex_refuses_what_overflows_a_double():
    # the message names the bit length of |part| // den: 2**1030 has 1031 bits
    with pytest.raises(UnrepresentableValue, match=r"~2\*\*1031 "):
        to_complex(Gaussian(1, 3 << 1030), 3)


def _sized(bits: int):
    """Non-negative ints below 2**bits of every bit length: a length, then a value of it."""
    return st.integers(0, bits).flatmap(lambda b: st.integers(0, (1 << b) - 1))


_parts = st.builds(lambda m, neg: -m if neg else m, _sized(1100), st.booleans())
_odd = _sized(300).map(lambda k: 2 * k + 1)
# a power of two, an odd int, and an odd int times a power of two
_dens = st.one_of(st.integers(0, 1200).map(lambda e: 1 << e), _odd,
                  st.builds(lambda k, e: k << e, _odd, st.integers(1, 1200)))


@given(v=st.one_of(_parts, st.builds(Gaussian, _parts, _parts)), den=_dens)
def test_to_complex_rounds_each_part_as_fraction_does(v, den):
    try:
        want = complex(float(Fraction(v.real, den)), float(Fraction(v.imag, den)))
    except OverflowError:
        bits = (max(abs(v.real), abs(v.imag)) // den).bit_length()
        with pytest.raises(UnrepresentableValue, match=rf"~2\*\*{bits} overflows a double"):
            to_complex(v, den)
    else:
        assert to_complex(v, den) == want


@given(q=st.integers(1 << 1024, 1 << 1100), r=_sized(1500), den=_dens,
       neg=st.booleans(), imag=st.booleans())
def test_to_complex_refuses_an_overflow_naming_its_magnitude(q, r, den, neg, imag):
    part = q * den + r % den    # |part| // den = q >= 2**1024
    part = -part if neg else part
    v = Gaussian(1, part) if imag else part
    with pytest.raises(UnrepresentableValue, match=rf"~2\*\*{q.bit_length()} overflows a double"):
        to_complex(v, den)


@pytest.mark.parametrize("z", [0.1, -3.0, complex(0.1, -0.3), complex(2.5, -0.0), 1j, 0j])
def test_split_is_exact_and_real_values_stay_int(z):
    v, s = split(z)
    assert (type(v) is int) == (complex(z).imag == 0)
    assert pair(v) == (Fraction(complex(z).real) * 2 ** s, Fraction(complex(z).imag) * 2 ** s)
    assert to_complex(v, 1 << s) == z
    # minimal: exact_moments' exponent rate R is set by these scales
    assert s == 0 or v.real % 2 or v.imag % 2
    values, scale = scaled([z, 0.75, 1e-30])
    assert [to_complex(w, 1 << scale) for w in values] == [z, 0.75, 1e-30]


@pytest.mark.parametrize("family", ["geometric", "exponential", "exp_binomial"])
def test_real_inputs_never_leave_int(family, request):
    src = request.getfixturevalue(family)
    assert all(type(v) is int for v in exact_moments(src, 24).values)
    rd = recurrence_data(src, 24)
    assert all(type(c) is int for q in two_step(rd.g[1:], rd.f_rec[1:]) for c in q.numerators)
    table = solve_moments(build_system(src, 16).R, 8)
    assert all(type(v) is int for v in table.values)


@pytest.mark.parametrize("value, pair, expected", [
    (2, False, 2.0), (-0.5, False, -0.5), (2, True, 2 + 0j), ([1, -0.5], True, 1 - 0.5j),
])
def test_as_number_takes_ints_floats_and_pairs(value, pair, expected):
    got = as_number(value, "x", pair=pair)
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("value, pair", [
    (True, False), ("0.5", False), (None, False), (float("nan"), False), (float("inf"), True),
    (10 ** 400, False), ([1, 2], False), ([1, 2, 3], True), ([1, True], True), ([1, "2"], True),
])
def test_as_number_refuses_what_float_and_complex_would_convert(value, pair):
    with pytest.raises(InvalidParams, match="not a finite JSON number"):
        as_number(value, "x", pair=pair)
