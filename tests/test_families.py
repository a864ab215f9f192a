"""Coefficient families: realization and closed-form reciprocals."""

import json
import math

import numpy as np
import pytest

from olaurent import FamilySpec, realize, reciprocal_closed_form
from olaurent.errors import InvalidParams, UnsupportedFamily

# independent oracle: convolution of exp(z) with geometric(1/2) coefficients
EXP_BINOMIAL_ORACLE = [
    1.0,
    1.5,
    1.25,
    0.7916666666666666,
    0.4375,
    0.22708333333333333,
    0.11493055555555555,
    0.05766369047619047,
    0.028856646825396826,
]


def test_geometric_coefficients_and_radius():
    s = realize(FamilySpec("geometric"), 6)
    assert np.array_equal(s.coeffs, np.ones(7))
    assert s.radius == 1.0


def test_exponential_coefficients():
    s = realize(FamilySpec("exponential"), 4)
    assert np.allclose(s.coeffs, [1, 1, 0.5, 1 / 6, 1 / 24], rtol=0, atol=0)
    assert math.isinf(s.radius)


def test_exp_binomial_reduces_to_geometric_scale_when_b_zero():
    # f = (1 - z/2)^(-1): d_k = (1/2)^k
    spec = FamilySpec("exp-binomial", b=0.0, a=(0.5,), family_lambda=(1.0,))
    s = realize(spec, 8)
    assert np.allclose(s.coeffs, 0.5 ** np.arange(9), rtol=1e-14)
    assert s.radius == 2.0


def test_exp_binomial_matches_convolution_oracle(exp_binomial):
    assert np.allclose(exp_binomial.coeffs[:9], EXP_BINOMIAL_ORACLE, rtol=1e-13)


def test_exp_binomial_coefficients_positive():
    spec = FamilySpec("exp-binomial", b=0.7, a=(0.3, 0.6), family_lambda=(1.5, 2.0))
    s = realize(spec, 30)
    assert np.all(s.coeffs.real > 0)
    assert np.all(s.coeffs.imag == 0)
    assert s.radius == pytest.approx(1 / 0.6)


def test_all_families_start_at_one():
    specs = [FamilySpec("geometric"), FamilySpec("exponential"),
             FamilySpec("exp-binomial", b=1.0, a=(0.5,), family_lambda=(1.0,)),
             FamilySpec("explicit", coeffs=[1, 3, 2], radius=0.5)]
    for spec in specs:
        assert realize(spec, 2).coeff(0) == 1


def test_explicit_family_needs_enough_coefficients():
    spec = FamilySpec("explicit", coeffs=[1, 2, 3], radius=1.0)
    assert np.array_equal(realize(spec, 2).coeffs, [1, 2, 3])
    with pytest.raises(InvalidParams):
        realize(spec, 3)


def test_reciprocal_closed_form_geometric():
    e = reciprocal_closed_form(FamilySpec("geometric"), 5)
    assert np.array_equal(e.coeffs, [1, -1, 0, 0, 0, 0])


def test_reciprocal_closed_form_exponential():
    e = reciprocal_closed_form(FamilySpec("exponential"), 5)
    k = np.arange(6)
    expect = (-1.0) ** k / np.array([math.factorial(int(i)) for i in k])
    assert np.allclose(e.coeffs, expect, rtol=1e-15)


def test_reciprocal_closed_form_exp_binomial_is_polynomial_times_exp(exp_binomial_spec):
    # 1/f = e^(-z) (1 - z/2): convolution of the two factors
    e = reciprocal_closed_form(exp_binomial_spec, 10)
    k = np.arange(11)
    expz = (-1.0) ** k / np.array([math.factorial(int(i)) for i in k])
    expect = expz.copy()
    expect[1:] -= 0.5 * expz[:-1]
    assert np.allclose(e.coeffs, expect, rtol=1e-13)


@pytest.mark.parametrize("seed", range(8))
def test_closed_form_agrees_with_series_reciprocal(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    spec = FamilySpec(
        "exp-binomial", b=float(rng.uniform(0, 2)),
        a=tuple(rng.uniform(0.1, 0.9, size=m)),
        family_lambda=tuple(rng.uniform(0.2, 3.0, size=m)),
    )
    direct = reciprocal_closed_form(spec, 24).coeffs
    via_series = realize(spec, 24).reciprocal().coeffs
    # reciprocal coefficients decay superexponentially, so a bare relative
    # comparison is meaningless once |e_k| falls to rounding level; measure
    # against the scale both recurrences actually compute on
    scale = max(1.0, float(np.abs(realize(spec, 24).coeffs).max()))
    assert np.max(np.abs(direct - via_series) / (scale + np.abs(direct))) <= 1e-12


def test_no_closed_form_reciprocal_for_explicit_lists():
    with pytest.raises(UnsupportedFamily):
        reciprocal_closed_form(FamilySpec("explicit", coeffs=[1, 2], radius=1.0), 4)


def test_parameter_validation():
    with pytest.raises(InvalidParams):
        FamilySpec("exp-binomial", b=-1.0, a=(0.5,), family_lambda=(1.0,))
    with pytest.raises(InvalidParams):
        FamilySpec("exp-binomial", b=0.0, a=(1.5,), family_lambda=(1.0,))
    with pytest.raises(InvalidParams):
        FamilySpec("exp-binomial", b=0.0, a=(0.5,), family_lambda=(-1.0,))
    with pytest.raises(InvalidParams):
        FamilySpec("exp-binomial", b=0.0, a=(0.5, 0.6), family_lambda=(1.0,))
    with pytest.raises(InvalidParams):
        FamilySpec(kind="parabolic")
    with pytest.raises(InvalidParams):
        realize(FamilySpec("geometric"), -1)


@pytest.mark.parametrize("spec", [
    FamilySpec("geometric"),
    FamilySpec("exponential"),
    FamilySpec("exp-binomial", b=1.0, a=(0.5, 0.25), family_lambda=(1.0, 2.0)),
    FamilySpec("explicit", coeffs=[1, 2j, 3 - 1j], radius=0.75),
])
def test_json_roundtrip(spec):
    again = FamilySpec.from_json(spec.to_json())
    assert again == spec
    assert np.array_equal(realize(again, 2).coeffs, realize(spec, 2).coeffs)


def test_from_json_diagnostics():
    with pytest.raises(InvalidParams):
        FamilySpec.from_json({"a": [0.5]})
    with pytest.raises(InvalidParams):
        FamilySpec.from_json({"kind": "exp-binomial", "a": [0.5]})
    with pytest.raises(InvalidParams):
        FamilySpec.from_json({"kind": "explicit"})


@pytest.mark.parametrize("spec, twin", [
    (FamilySpec("geometric"), {"kind": "geometric"}),
    (FamilySpec("exponential"), {"kind": "exponential"}),
    (FamilySpec("exp-binomial", b=1, a=[0.5, 0.25], family_lambda=[1, 2]),
     {"kind": "exp-binomial", "b": 1, "a": [0.5, 0.25], "family_lambda": [1, 2]}),
    (FamilySpec("explicit", coeffs=[1, 2j, 3], radius=2),
     {"kind": "explicit", "coeffs": [1, [0, 2], 3], "radius": 2}),
], ids=["geometric", "exponential", "exp-binomial", "explicit"])
def test_a_family_written_any_way_is_one_value(spec, twin):
    # written with ints and lists, a family used to keep them: it differed
    # from its from_json twin, could not be hashed and printed "b": 1
    again = FamilySpec.from_json(twin)
    assert spec == again and hash(spec) == hash(again)
    assert json.dumps(spec.to_json()) == json.dumps(again.to_json())
    assert FamilySpec.from_json(spec.to_json()) == spec


def test_stock_radius_follows_from_the_parameters():
    assert FamilySpec(kind="geometric").radius == 1.0
    assert math.isinf(FamilySpec(kind="exponential").radius)
    assert FamilySpec("exp-binomial", b=1, a=[0.5, 0.8], family_lambda=[1, 1]).radius == 1.25


@pytest.mark.parametrize("kind, fields", [
    ("geometric", {"b": 3.0}),
    ("geometric", {"b": 3.0, "coeffs": (1, 2)}),
    ("geometric", {"radius": 1.0}),
    ("exponential", {"a": (0.5,)}),
    ("exponential", {"radius": 2.0}),
    ("exp-binomial", {"b": 1.0, "a": (0.5,), "family_lambda": (1.0,), "radius": 50.0}),
    ("exp-binomial", {"a": (0.5,), "family_lambda": (1.0,), "coeffs": (1, 2)}),
    ("explicit", {"coeffs": (1, 2), "radius": 1.0, "b": 0.5}),
    ("explicit", {"coeffs": (1, 2), "a": (0.5,), "family_lambda": (1.0,)}),
])
def test_a_field_of_another_kind_is_refused(kind, fields):
    with pytest.raises(InvalidParams, match=f"a {kind} family takes no"):
        FamilySpec(kind=kind, **fields)
