"""Generating-function identities and contour extraction of R_n."""

import json
import warnings

import mpmath
import numpy as np
import pytest

from olaurent import FamilySpec, TruncatedPowerSeries, build_system, cli, genfun, kernels, realize
from olaurent.genfun import (
    check_laurent_genfun,
    check_partial_sum_genfun,
    rn_all_by_contour,
    rn_by_contour,
)
from olaurent.errors import (
    DomainViolation,
    InsufficientOrder,
    InvalidParams,
    PoleProximity,
    UnrepresentableValue,
)


@pytest.fixture(scope="module")
def geo_sys():
    return build_system(realize(FamilySpec("geometric"), 100), 100)


@pytest.fixture(scope="module")
def exp_sys():
    return build_system(realize(FamilySpec("exponential"), 80), 80)


def floor_of(check):
    return 1e-13 * (1 + abs(check.lhs))


# -- partial-sum identity -----------------------------------------------------


@pytest.mark.parametrize("t", [0.2, 0.4, 0.6])
def test_partial_sum_identity_at_x_zero(exp_sys, t):
    chk = check_partial_sum_genfun(exp_sys, 0.0, t, 80)
    assert chk.lhs == pytest.approx(1 / (1 - t), rel=1e-14)
    assert chk.residual <= 1e-13


def test_partial_sum_identity_geometric(geo_sys):
    chk = check_partial_sum_genfun(geo_sys, 0.3, 0.4, 40)
    assert chk.residual <= 1e-10
    assert chk.residual <= chk.tail_bound + floor_of(chk)


def test_partial_sum_identity_exponential(exp_sys):
    chk = check_partial_sum_genfun(exp_sys, 1.5, 0.5, 60)
    assert chk.residual <= 1e-10


def test_partial_sum_residual_halves_geometrically(geo_sys):
    res = {T: check_partial_sum_genfun(geo_sys, 0.3, 0.45, T).residual
           for T in (10, 20, 40, 80)}
    chk = check_partial_sum_genfun(geo_sys, 0.3, 0.45, 10)
    floor = floor_of(chk)
    for T in (10, 20, 40):
        # rate consistent with the geometric factor 0.45^T, generous headroom
        assert res[2 * T] <= res[T] * 0.45 ** T * 50 or res[2 * T] <= floor


# -- two-kernel Laurent identity ----------------------------------------------


def test_laurent_identity_collapses_at_z_zero(exp_sys):
    chk = check_laurent_genfun(exp_sys, 1.0, 0.0, 40)
    assert chk.lhs == 2
    assert chk.residual <= 1e-13


def test_laurent_identity_geometric(geo_sys):
    chk = check_laurent_genfun(geo_sys, 0.25, 0.2, 60)
    assert chk.residual <= 1e-9
    assert chk.residual <= chk.tail_bound + floor_of(chk)


def test_laurent_identity_other_branch(geo_sys):
    chk = check_laurent_genfun(
        geo_sys, 0.25, 0.2, 60, sqrt_x=-0.5)
    assert chk.residual <= 1e-9


def test_branch_invariance_of_left_side(geo_sys):
    a = check_laurent_genfun(geo_sys, 0.25 + 0.1j, 0.15, 60)
    s = complex(np.sqrt(complex(0.25 + 0.1j)))
    b = check_laurent_genfun(
        geo_sys, 0.25 + 0.1j, 0.15, 60, sqrt_x=-s)
    assert abs(a.lhs - b.lhs) <= 1e-9 * (1 + abs(a.lhs))


def test_laurent_residual_shrinks_with_doubling(geo_sys):
    res = {T: check_laurent_genfun(geo_sys, 0.25, 0.2, T).residual
           for T in (10, 20, 40, 80)}
    chk = check_laurent_genfun(geo_sys, 0.25, 0.2, 10)
    floor = floor_of(chk)
    ratio = 0.2 / 0.5
    for T in (10, 20, 40):
        assert res[2 * T] <= res[T] * ratio ** T * 50 or res[2 * T] <= floor


@pytest.mark.parametrize("seed", range(6))
def test_residuals_sit_under_tail_estimate(geo_sys, exp_sys, seed):
    rng = np.random.default_rng(seed)
    for sysK in (geo_sys, exp_sys):
        rho = min(sysK.source.radius, 3.0)
        x = rho * rng.uniform(0.25, 0.6) * np.exp(2j * np.pi * rng.uniform())
        t = rng.uniform(0.25, 0.7) * np.exp(2j * np.pi * rng.uniform())
        z = abs(np.sqrt(x)) * rng.uniform(0.25, 0.6) * np.exp(2j * np.pi * rng.uniform())
        ps = check_partial_sum_genfun(sysK, complex(x), complex(t), 80)
        assert ps.residual <= ps.tail_bound + floor_of(ps)
        la = check_laurent_genfun(sysK, complex(x), complex(z), 80)
        assert la.residual <= la.tail_bound + floor_of(la)


def test_dropped_partial_sums_sit_under_the_series_majorant(capsys):
    # at order 64 and terms 0 the partial sums f_n(x) keep changing past
    # n = terms, so max |f_n(x)| over n <= terms bounded none of the dropped
    # ones: 7 of these 40 rows missed it, sample 2's Laurent residual 4.788
    # against 3.275
    cli.main(["genfun-check", "--terms", "0", "--seed", "0"])
    rows = json.loads(capsys.readouterr().out)["samples"]
    system = build_system(realize(FamilySpec("geometric"), 64), 0)
    for row in rows:
        key = "t" if row["kind"] == "partial_sum" else "z"
        check = check_partial_sum_genfun if key == "t" else check_laurent_genfun
        chk = check(system, complex(*row["x"]), complex(*row[key]), 0)
        assert chk.residual < chk.tail_bound + floor_of(chk), row


# -- domain and parameter guards ----------------------------------------------


def test_sample_validation(geo_sys):
    with pytest.raises(InvalidParams, match="terms must be >= 0"):
        check_partial_sum_genfun(geo_sys, 0.3, 0.4, -1)
    with pytest.raises(InvalidParams, match="terms must be >= 0"):
        check_laurent_genfun(geo_sys, 0.3, 0.2, -1)
    with pytest.raises(InvalidParams, match="sqrt_x"):
        check_laurent_genfun(geo_sys, 0.3, 0.2, 10, sqrt_x=0.9)  # 0.81 != 0.3


def test_partial_sum_guards(geo_sys):
    with pytest.raises(DomainViolation):
        check_partial_sum_genfun(geo_sys, 0.3, 1.0, 10)
    with pytest.raises(DomainViolation):
        check_partial_sum_genfun(geo_sys, 0.99, 0.4, 10)
    with pytest.raises(InsufficientOrder):
        check_partial_sum_genfun(geo_sys, 0.3, 0.4, 101)


def test_laurent_guards(geo_sys):
    with pytest.raises(DomainViolation):
        check_laurent_genfun(geo_sys, 0.0, 0.1, 10)
    with pytest.raises(DomainViolation):
        check_laurent_genfun(geo_sys, 0.25, 0.6, 10)
    with pytest.raises(PoleProximity):
        check_laurent_genfun(geo_sys, 0.25, 0.5 - 1e-8, 10)  # 1e-8 < POLE_TOL |sqrt x|
    # the pole guard is scaled to |sqrt x|: z = 0 stays clear of +-sqrt(x) at any x
    assert check_laurent_genfun(geo_sys, 1e-13, 0.0, 10).lhs == pytest.approx(2)


# -- coefficient extraction -----------------------------------------------------


def test_extraction_of_constant_term(geo_sys):
    assert abs(rn_by_contour(geo_sys.source, 0, 0.37 + 0.1j) - 1) <= 1e-10


def test_extraction_geometric_r1(geo_sys):
    # R_1 = z^{-1} + 1, so R_1(0.25) = 5
    assert abs(rn_by_contour(geo_sys.source, 1, 0.25) - 5) <= 1e-9


def test_extraction_exponential_r3(exp_sys):
    expect = 1 + 1 + 0.5 + 1 / 6
    assert abs(rn_by_contour(exp_sys.source, 3, 1.0) - expect) <= 1e-9


@pytest.mark.parametrize("n", [0, 1, 5, 12, 20])
def test_extraction_matches_direct_evaluation(exp_sys, n):
    x = 1.1 - 0.4j
    direct = exp_sys.R[n](x)
    assert abs(rn_by_contour(exp_sys.source, n, x) - direct) <= 1e-8


def test_extraction_refuses_an_r_n_that_overflows_without_a_warning(geo_sys):
    # R_n(1e-300) ~ 1e300^ceil(n/2) overflows from n = 3; it used to come back as inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnrepresentableValue, match=r"coefficient 3 on radius 5e-151 "):
            rn_all_by_contour(realize(FamilySpec("geometric"), 64), 1e-300, 20)


def test_extraction_guards(geo_sys):
    with pytest.raises(InvalidParams):
        rn_by_contour(geo_sys.source, -1, 0.3)
    with pytest.raises(InvalidParams):
        rn_by_contour(geo_sys.source, 2, 0.3, nodes=8)
    with pytest.raises(InvalidParams):
        rn_by_contour(geo_sys.source, 0, 0.3, nodes=10 ** 20)
    with pytest.raises(DomainViolation):
        rn_by_contour(geo_sys.source, 2, 0.0)
    with pytest.raises(DomainViolation):
        rn_by_contour(geo_sys.source, 2, 1.5)
    # N nodes read coefficient n mod N: n = 64 and 70 would return the
    # aliased 9.95e35 and 5.27e37 against the direct 7.7e16 and 2.86e18
    with pytest.raises(InvalidParams, match="n = 64, nodes = 64"):
        rn_by_contour(geo_sys.source, 64, 0.3, nodes=64)
    with pytest.raises(InvalidParams, match="n = 70, nodes = 64"):
        rn_by_contour(geo_sys.source, 70, 0.3, nodes=64)
    with pytest.raises(InvalidParams):
        rn_all_by_contour(geo_sys.source, 0.3, 64, nodes=64)
    assert rn_all_by_contour(geo_sys.source, 0.3, 63, nodes=64).shape == (64,)
    # past the truncation order the left side is that of the truncated
    # polynomial: R_15 at order 10 would be -1359.858+4613.054i, not the
    # true -1359.887+4613.112i
    short = realize(FamilySpec("geometric"), 10)
    with pytest.raises(InsufficientOrder, match="order 10 < n = 15"):
        rn_by_contour(short, 15, 0.3 + 0.2j)
    with pytest.raises(InsufficientOrder):
        rn_all_by_contour(short, 0.3 + 0.2j, 11)
    assert rn_all_by_contour(short, 0.3 + 0.2j, 10).shape == (11,)


def mp_rn(source, n, x):
    """f_n(x) / x^ceil(n/2) on the realized coefficients, summed in 40-digit mpmath."""
    with mpmath.workdps(40):
        xm = mpmath.mpc(x)
        f_n = mpmath.fsum(mpmath.mpc(complex(c)) * xm ** k
                          for k, c in enumerate(source.coeffs[:n + 1]))
        return complex(f_n / xm ** ((n + 1) // 2))


STOCK_POINTS = [
    (FamilySpec("geometric"), 0.3), (FamilySpec("geometric"), 0.37 + 0.1j),
    (FamilySpec("exponential"), 1.1 - 0.4j), (FamilySpec("exponential"), -0.8),
    (FamilySpec("exp-binomial", b=1.0, a=[0.5], family_lambda=[1.0]), 0.6 + 0.2j),
    (FamilySpec("exp-binomial", b=1.0, a=[0.5], family_lambda=[1.0]), -1.2j),
]


@pytest.mark.parametrize("family, x", STOCK_POINTS)
def test_shared_spectrum_reproduces_the_per_n_extraction_bitwise(family, x):
    source = realize(family, 64)
    every = rn_all_by_contour(source, x, 20)
    assert every.dtype == np.complex128 and every.shape == (21,)
    for n in range(21):
        assert np.complex128(rn_by_contour(source, n, x)).tobytes() == every[n].tobytes()
        ref = mp_rn(source, n, x)
        assert abs(every[n] - ref) <= 1e-13 * (1 + abs(ref))


def test_one_spectrum_serves_every_index_at_a_point(geo_sys, monkeypatch):
    calls = []
    horner = kernels.eval_poly_extended
    monkeypatch.setattr(kernels, "eval_poly_extended", lambda c, p: calls.append(1) or horner(c, p))
    genfun._lhs_spectrum.cache_clear()
    for n in range(21):
        rn_by_contour(geo_sys.source, n, 0.21 - 0.03j)
    assert len(calls) == 1
    for n in range(21):
        rn_by_contour(geo_sys.source, n, 0.22)
    assert len(calls) == 2


def test_spectrum_memo_is_keyed_on_coefficients(geo_sys, exp_sys):
    genfun._lhs_spectrum.cache_clear()
    first = rn_by_contour(geo_sys.source, 5, 0.3)
    twin = TruncatedPowerSeries(geo_sys.source.coeffs.copy(), geo_sys.source.radius)
    assert rn_by_contour(twin, 5, 0.3) == first
    info = genfun._lhs_spectrum.cache_info()
    assert (info.hits, info.currsize) == (1, 1)
    ref = mp_rn(exp_sys.source, 5, 0.3)
    assert abs(rn_by_contour(exp_sys.source, 5, 0.3) - ref) <= 1e-13 * (1 + abs(ref))
    assert genfun._lhs_spectrum.cache_info().currsize == 2


def test_memoized_spectrum_is_read_only(geo_sys):
    spectrum = genfun._lhs_spectrum(geo_sys.source.coeffs.tobytes(), 0.3 + 0j, 0.3 ** 0.5 / 2, 64)
    assert not spectrum.flags.writeable
    with pytest.raises(ValueError):
        spectrum[0] = 0
