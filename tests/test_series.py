"""Truncated power series arithmetic and dense Laurent polynomials."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olaurent import LaurentPoly, TruncatedPowerSeries
from olaurent.errors import (
    DomainViolation,
    InvalidParams,
    UnrepresentableValue,
    ZeroCoefficient,
)


def tps(coeffs, radius=math.inf):
    return TruncatedPowerSeries(np.asarray(coeffs, dtype=complex), radius)


# -- truncated power series ---------------------------------------------------


def test_order_counts_from_zero():
    assert tps([1, 2, 3]).order == 2
    assert tps([1]).order == 0


def test_coeff_beyond_order_is_zero():
    s = tps([1, 2])
    assert s.coeff(5) == 0
    with pytest.raises(InvalidParams):
        s.coeff(-1)


def test_constructor_rejects_bad_input():
    with pytest.raises(InvalidParams):
        tps([])
    with pytest.raises(InvalidParams):
        tps([1, 2], radius=0.0)
    with pytest.raises(InvalidParams):
        tps([1, 2], radius=-1.0)


def test_immutable():
    s = tps([1, 2])
    with pytest.raises(AttributeError):
        s.radius = 3.0
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0


def test_product_exp_times_exp_doubles_argument():
    # e^z * e^z = e^{2z}: coefficients 2^k / k!
    k = np.arange(11)
    e = tps(1.0 / np.array([math.factorial(int(i)) for i in k]))
    prod = e * e
    expect = 2.0 ** k / np.array([math.factorial(int(i)) for i in k])
    assert np.allclose(prod.coeffs, expect, rtol=1e-14, atol=0)


def test_product_geometric_times_one_minus_z_is_one():
    geo = tps(np.ones(12))
    lin = tps([1, -1] + [0] * 10)
    prod = geo * lin
    expect = np.zeros(12, dtype=complex)
    expect[0] = 1
    assert np.array_equal(prod.coeffs, expect)


def test_product_truncates_to_shorter_operand_and_min_radius():
    a = tps([1, 1, 1], radius=2.0)
    b = tps([1, 1], radius=1.0)
    p = a * b
    assert p.order == 1
    assert p.radius == 1.0


@pytest.mark.parametrize("seed", range(10))
def test_reciprocal_roundtrip(seed):
    # decaying perturbations keep f bounded away from zero on its disc, so
    # the reciprocal recurrence stays well conditioned
    rng = np.random.default_rng(seed)
    c = 0.5 * (rng.normal(size=20) + 1j * rng.normal(size=20)) * 0.5 ** np.arange(20)
    c[0] = 1.0
    s = tps(c)
    both = s * s.reciprocal()
    expect = np.zeros(20, dtype=complex)
    expect[0] = 1
    assert np.max(np.abs(both.coeffs - expect)) <= 1e-13


def test_series_are_equal_on_radius_shape_and_every_coefficient():
    s = tps([1, 0.5, 0.25], radius=2.0)
    assert s == tps([1, 0.5, 0.25], radius=2.0)
    assert s != tps([1, 0.5, 0.25], radius=1.0)
    assert s != tps([1, 0.5], radius=2.0)
    assert s != tps([1, 0.5, 0.5], radius=2.0)
    assert s.__eq__([1, 0.5, 0.25]) is NotImplemented
    with pytest.raises(TypeError):
        hash(s)


def test_series_repr_shows_at_most_four_coefficients():
    assert repr(tps([1, 0.5j], radius=2.0)) == (
        "TruncatedPowerSeries([1+0j, 0+0.5j], order=1, radius=2.0)")
    assert repr(tps([1, 1, 0.5, 0.25, 0.125])) == (
        "TruncatedPowerSeries([1+0j, 1+0j, 0.5+0j, 0.25+0j, ...], order=4, radius=inf)")


def test_reciprocal_of_zero_constant_term():
    with pytest.raises(ZeroCoefficient, match="d_0 = 0"):
        tps([0, 1]).reciprocal()


def test_evaluation_matches_horner_by_hand():
    s = tps([1, 2, 3])
    assert s(0.5) == 1 + 2 * 0.5 + 3 * 0.25
    pts = np.array([0.5 + 0j, -1.0 + 0j])
    assert np.allclose(s(pts), [2.75, 2.0])


def test_tail_bound_shrinks_with_radius():
    geo = tps(np.ones(40), radius=1.0)
    assert geo.tail_bound(0.25) < geo.tail_bound(0.5) < geo.tail_bound(0.8)


def every_term_tail_bound(series, s):
    """The estimate with every t_k = |d_k| s^k formed: the reference for the last-terms form."""
    t = np.abs(series.coeffs) * float(s) ** np.arange(series.coeffs.shape[0])
    if series.order == 0:
        return 0.0
    w = min(8, series.order)
    num, den = t[-w:], t[-w - 1:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(den > 0, num / np.where(den > 0, den, 1.0),
                          np.where(num > 0, np.inf, 0.0))
    q = float(np.max(ratios))
    return math.inf if not q < 1.0 else float(t[-1]) * q / (1.0 - q)


@pytest.mark.parametrize("coeffs", [
    [1.0], [1.0, 0.5], 0.5 ** np.arange(81), 1 / np.cumprod(np.r_[1.0, np.arange(1.0, 81)]),
    np.r_[1.0, 0.5 ** np.arange(1, 40), 0.0, 0.0], 1.5 ** np.arange(30),
    np.exp(1j * np.arange(90)) * 0.8 ** np.arange(90),
], ids=["order-0", "order-1", "geometric", "exponential", "zero-end", "growing", "complex"])
def test_tail_bound_reads_only_its_last_terms_bitwise(coeffs):
    series = tps(coeffs)
    radii = np.array([0.0, 1e-12, 0.3, 0.7, 1.0, 1.26, 2.5, math.nan])
    batch = series.tail_bound(radii)
    assert batch.shape == radii.shape
    for s, got in zip(radii, batch):
        one = series.tail_bound(float(s))
        assert type(one) is float
        assert np.float64(one).tobytes() == got.tobytes() == np.float64(
            every_term_tail_bound(series, s)).tobytes(), s


# -- Laurent polynomials ------------------------------------------------------


def lp(d):
    return LaurentPoly(d)


def test_zero_one_monomial():
    # the one spelling of each: no zero(), one() or monomial() constructors
    assert not LaurentPoly()
    assert LaurentPoly({0: 1}).items() == [(0, 1.0 + 0j)]
    m = LaurentPoly({-3: 2.0})
    assert m.items() == [(-3, 2.0 + 0j)]
    assert m.min_exponent == m.max_exponent == -3
    assert not {"zero", "one", "monomial"} & set(vars(LaurentPoly))


def test_square_of_inverse_plus_one():
    p = lp({-1: 1, 0: 1})
    assert (p * p).items() == [(-2, 1 + 0j), (-1, 2 + 0j), (0, 1 + 0j)]


def test_product_with_zero_is_zero():
    p = lp({-2: 3, 1: -1})
    assert p * LaurentPoly() == LaurentPoly()
    assert not (p * LaurentPoly())


def test_scalar_multiplication_both_sides():
    p = lp({-1: 1, 2: 4})
    assert (2 * p).coeff(2) == 8
    assert (p * 0.5).coeff(-1) == 0.5


def test_addition_cancels_to_canonical_form():
    p = lp({-1: 1, 0: 2})
    q = lp({-1: -1, 0: 3, 5: 0.0})
    total = p + q
    assert total.items() == [(0, 5 + 0j)]  # the -1 term cancelled, the 0*z^5 term never existed
    assert (p - p) == LaurentPoly()


def test_zero_coefficients_dropped_at_construction():
    assert lp({3: 0.0, 1: 2.0}).items() == [(1, 2 + 0j)]
    assert lp({}).min_exponent is None
    # an interior zero is stored in the dense array but is not a term
    gap = lp({-1: 1, 1: 1})
    assert len(gap) == 2
    assert gap.items() == [(-1, 1 + 0j), (1, 1 + 0j)]
    assert gap.lo == -1 and list(gap.coeffs) == [1, 0, 1]


def test_shift_moves_all_exponents():
    p = lp({-1: 1, 0: 1}).shift(2)
    assert p.items() == [(1, 1 + 0j), (2, 1 + 0j)]


def test_evaluation_examples():
    assert lp({-1: 1, 0: 1})(2.0) == 1.5
    assert lp({-2: 1, -1: 2, 0: 1})(1j) == pytest.approx(-2j)
    p = lp({-3: 0.7, -1: -2, 0: 1, 4: 3.5})
    assert p(1.0) == pytest.approx(sum(c for _, c in p.items()))


def test_negative_exponent_at_zero_raises():
    p = lp({-1: 1})
    with pytest.raises(DomainViolation):
        p(0.0)
    with pytest.raises(DomainViolation):
        p(np.zeros(3, dtype=complex))
    assert lp({0: 2, 1: 5})(0.0) == 2.0


def test_vector_evaluation_matches_scalar():
    p = lp({-2: 1.5, 0: -1, 3: 2j})
    pts = np.array([0.5 + 0.1j, -1.2 + 0j, 2j])
    vals = p(pts)
    assert np.allclose(vals, [p(complex(z)) for z in pts], rtol=1e-14)


def test_evaluation_refuses_a_coefficient_with_no_double():
    # 1e300 * 1e300 is held exactly; it has no double, so it is refused
    # where it is rounded, not evaluated as inf
    p = LaurentPoly({-1: 1.0, 0: 1e300}) * 1e300
    assert p.coeff(-1) == 1e300
    for x in (2.0, np.array([2.0 + 0j, 3.0 + 0j])):
        with pytest.raises(UnrepresentableValue, match=r"~2\*\*1994 overflows a double"):
            p(x)


def test_non_finite_coefficient_or_scalar_is_refused_when_built():
    for build in (lambda: LaurentPoly({0: math.inf}), lambda: LaurentPoly({0: 1.0, 1: math.nan}),
                  lambda: lp({0: 1.0}) * math.inf):
        with pytest.raises(InvalidParams, match="non-finite value .* has no exact form"):
            build()


def test_polynomial_repr_lists_each_term_in_rounded_form():
    assert repr(LaurentPoly({})) == "LaurentPoly(0)"
    assert repr(LaurentPoly.from_exact(-1, [1, 0, 0, 6j], 2)) == (
        "LaurentPoly((0.5+0j)*x^-1 + (0+3j)*x^2)")


def test_empty_polynomial_evaluates_to_zero():
    assert LaurentPoly()(2.0) == 0j
    assert np.array_equal(LaurentPoly()(np.ones(2, dtype=complex)), np.zeros(2))


# -- property-based checks ----------------------------------------------------

finite_complex = st.complex_numbers(
    min_magnitude=0, max_magnitude=4, allow_nan=False, allow_infinity=False)
laurents = st.dictionaries(st.integers(-6, 6), finite_complex, max_size=8).map(LaurentPoly)


@given(laurents, laurents, laurents)
@settings(max_examples=60, deadline=None)
def test_multiplication_distributes_over_addition(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(laurents, laurents)
@settings(max_examples=60, deadline=None)
def test_multiplication_commutes(p, q):
    # the arithmetic is exact, so the accumulation order cannot show
    assert p * q == q * p


@given(laurents, laurents)
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_ring_homomorphism(p, q):
    x = 0.83 + 0.41j  # fixed point away from 0 keeps |x|^e moderate for |e| <= 12
    lhs = (p * q)(x)
    rhs = p(x) * q(x)
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs) + abs(rhs))


@given(laurents)
@settings(max_examples=60, deadline=None)
def test_canonical_form_has_no_zero_terms(p):
    assert all(c != 0 for _, c in p.items())
    exps = [e for e, _ in p.items()]
    assert exps == sorted(exps)
    if p:
        assert p.min_exponent == exps[0]
        assert p.max_exponent == exps[-1]
