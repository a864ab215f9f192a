"""Generating-function identities and contour extraction of R_n."""

import cmath
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
    return genfun.GENFUN_FLOOR * (1 + abs(check.lhs))


# -- partial-sum identity -----------------------------------------------------


@pytest.mark.parametrize("t", [0.2, 0.4, 0.6])
def test_partial_sum_identity_at_x_zero(exp_sys, t):
    chk, = check_partial_sum_genfun(exp_sys, [0.0], [t], 80)
    assert chk.lhs == pytest.approx(1 / (1 - t), rel=1e-14)
    assert chk.residual <= 1e-13


def test_partial_sum_identity_geometric(geo_sys):
    chk, = check_partial_sum_genfun(geo_sys, [0.3], [0.4], 40)
    assert chk.residual <= 1e-10
    assert chk.passed


def test_partial_sum_identity_exponential(exp_sys):
    chk, = check_partial_sum_genfun(exp_sys, [1.5], [0.5], 60)
    assert chk.residual <= 1e-10


def test_partial_sum_residual_halves_geometrically(geo_sys):
    res = {T: check_partial_sum_genfun(geo_sys, [0.3], [0.45], T)[0].residual
           for T in (10, 20, 40, 80)}
    chk, = check_partial_sum_genfun(geo_sys, [0.3], [0.45], 10)
    floor = floor_of(chk)
    for T in (10, 20, 40):
        # rate consistent with the geometric factor 0.45^T, generous headroom
        assert res[2 * T] <= res[T] * 0.45 ** T * 50 or res[2 * T] <= floor


# -- two-kernel Laurent identity ----------------------------------------------


def test_laurent_identity_collapses_at_z_zero(exp_sys):
    chk, = check_laurent_genfun(exp_sys, [1.0], [0.0], 40)
    assert chk.lhs == 2
    assert chk.residual <= 1e-13


def test_laurent_identity_geometric(geo_sys):
    chk, = check_laurent_genfun(geo_sys, [0.25], [0.2], 60)
    assert chk.residual <= 1e-9
    assert chk.passed


def two_kernel_lhs(f, x, z, s):
    """((s+1)/(s-z)) f(s z) + ((s-1)/(s+z)) f(-s z) for one root s of x."""
    return ((s + 1) / (s - z)) * f(s * z) + ((s - 1) / (s + z)) * f(-s * z)


def test_laurent_identity_other_branch(geo_sys):
    # the identity with its left side formed on the root s = -0.5 of x = 0.25:
    # |lhs(-0.5) - rhs| <= |lhs(-0.5) - lhs| + |lhs - rhs|
    chk, = check_laurent_genfun(geo_sys, [0.25], [0.2], 60)
    other = two_kernel_lhs(geo_sys.source, 0.25, 0.2, -0.5)
    assert abs(other - chk.lhs) + chk.residual <= 1e-9


def test_branch_invariance_of_left_side(geo_sys):
    x, z = 0.25 + 0.1j, 0.15
    chk, = check_laurent_genfun(geo_sys, [x], [z], 60)
    s = cmath.sqrt(x)
    a, b = (two_kernel_lhs(geo_sys.source, x, z, r) for r in (s, -s))
    assert abs(a - b) <= 1e-9 * (1 + abs(a))
    assert abs(a - chk.lhs) <= 1e-9 * (1 + abs(chk.lhs))


def test_left_side_is_the_two_kernel_form_on_both_branches(geo_sys, exp_sys):
    # the check writes the left side in x alone; the paper's form, on either root
    # of x, must give the same value
    rng = np.random.default_rng(5)
    for system in (geo_sys, exp_sys):
        rho = min(system.source.radius, 3.0)
        for _ in range(40):
            x = complex(rho * rng.uniform(0.1, 0.9) * cli._phase(rng))
            z = complex(abs(x) ** 0.5 * rng.uniform(0.0, 0.9) * cli._phase(rng))
            chk, = check_laurent_genfun(system, [x], [z], 60)
            for s in (cmath.sqrt(x), -cmath.sqrt(x)):
                old = two_kernel_lhs(system.source, x, z, s)
                assert abs(old - chk.lhs) <= 1e-13 * (1 + abs(chk.lhs)), (x, z, s)


def test_laurent_residual_shrinks_with_doubling(geo_sys):
    res = {T: check_laurent_genfun(geo_sys, [0.25], [0.2], T)[0].residual
           for T in (10, 20, 40, 80)}
    chk, = check_laurent_genfun(geo_sys, [0.25], [0.2], 10)
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
        ps, = check_partial_sum_genfun(sysK, [complex(x)], [complex(t)], 80)
        assert ps.passed
        la, = check_laurent_genfun(sysK, [complex(x)], [complex(z)], 80)
        assert la.passed


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
        chk, = check(system, [complex(*row["x"])], [complex(*row[key])], 0)
        assert chk.residual < chk.bound, row


COMPLEX_EXPLICIT = FamilySpec("explicit", radius=1.25, coeffs=[1.0] + [
    complex(0.8 ** k * np.exp(1j * k)) for k in range(1, 90)])
BATCH_FAMILIES = [FamilySpec("geometric"), FamilySpec("exponential"),
                  FamilySpec("exp-binomial", b=1.0, a=[0.5], family_lambda=[1.0]), COMPLEX_EXPLICIT]


def bits(check):
    return np.array([check.residual, check.tail_bound, check.lhs]).tobytes()


@pytest.mark.parametrize("terms", [0, 8, 80])
@pytest.mark.parametrize("family", BATCH_FAMILIES, ids=["geometric", "exponential",
                                                         "exp-binomial", "complex-explicit"])
def test_a_batch_is_its_one_point_checks_bitwise(family, terms):
    system = build_system(realize(family, cli._series_order(family, terms)), terms)
    rng = np.random.default_rng(terms)
    xs = [min(family.radius, 3.0) * rng.uniform(0.2, 0.6) * cli._phase(rng) for _ in range(20)]
    ts = [rng.uniform(0.2, 0.7) * cli._phase(rng) for _ in xs]
    zs = [0j] + [x ** 0.5 * rng.uniform(0.2, 0.6) * cli._phase(rng) for x in xs[1:]]
    for check, points in ((check_partial_sum_genfun, ts), (check_laurent_genfun, zs)):
        batch = check(system, xs, points, terms)
        assert len(batch) == len(xs)
        for i, got in enumerate(batch):
            assert bits(got) == bits(check(system, [xs[i]], [points[i]], terms)[0]), i


def hexes(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


@pytest.mark.parametrize("family", BATCH_FAMILIES, ids=["geometric", "exponential",
                                                         "exp-binomial", "complex-explicit"])
def test_each_left_side_is_formed_from_scalar_f_calls_bitwise(family):
    # a check evaluates f (F_e and F_o for the Laurent identity) at all of its points
    # in one call; one scalar call per point (and parity) is the reference
    system = build_system(realize(family, cli._series_order(family, 80)), 80)
    f, rng = system.source, np.random.default_rng(7)
    xs = [min(family.radius, 3.0) * rng.uniform(0.2, 0.6) * cli._phase(rng) for _ in range(20)]
    ts = [rng.uniform(0.2, 0.7) * cli._phase(rng) for _ in xs]
    zs = [0j] + [x ** 0.5 * rng.uniform(0.2, 0.6) * cli._phase(rng) for x in xs[1:]]
    got = check_partial_sum_genfun(system, xs, ts, 80)
    assert hexes(c.lhs for c in got) == hexes(f(x * t) / (1 - t) for x, t in zip(xs, ts))
    got = check_laurent_genfun(system, xs, zs, 80)
    expect = []
    for x, z in zip(xs, zs):
        even, odd = (kernels.eval_poly(c, x * z * z) for c in (f.coeffs[::2], f.coeffs[1::2]))
        expect.append(2 * (even + z * (1 + z) * (even + x * odd) / (x - z * z)))
    assert hexes(c.lhs for c in got) == hexes(expect)


@pytest.mark.parametrize("terms", [0, 8, 80])
@pytest.mark.parametrize("flag", [
    "geometric", '{"kind": "exp-binomial", "b": 1.0, "a": [0.5], "family_lambda": [1.0]}',
], ids=["geometric", "exp-binomial"])
def test_each_report_row_is_its_one_point_check_bitwise(capsys, flag, terms):
    assert cli.main(["genfun-check", "--family", flag, "--terms", str(terms), "--seed", "3"]) == 0
    rows = json.loads(capsys.readouterr().out)["samples"]
    family = cli._family_flag(flag)
    system = build_system(realize(family, cli._series_order(family, terms)), terms)
    for row in rows:
        key = "t" if row["kind"] == "partial_sum" else "z"
        check = check_partial_sum_genfun if key == "t" else check_laurent_genfun
        chk, = check(system, [complex(*row["x"])], [complex(*row[key])], terms)
        assert (row["residual"].hex(), row["bound"].hex()) == (chk.residual.hex(),
                                                               chk.bound.hex()), row
        assert row["passed"] is chk.passed, row


# -- domain and parameter guards ----------------------------------------------


def test_sample_validation(geo_sys):
    with pytest.raises(InvalidParams, match="terms must be >= 0"):
        check_partial_sum_genfun(geo_sys, [0.3], [0.4], -1)
    with pytest.raises(InvalidParams, match="terms must be >= 0"):
        check_laurent_genfun(geo_sys, [0.3], [0.2], -1)
    with pytest.raises(InvalidParams, match=r"differ in length: \[2, 1\]"):
        check_partial_sum_genfun(geo_sys, [0.3, 0.2], [0.4], 10)


def test_partial_sum_guards(geo_sys):
    with pytest.raises(DomainViolation):
        check_partial_sum_genfun(geo_sys, [0.3], [1.0], 10)
    with pytest.raises(DomainViolation):
        check_partial_sum_genfun(geo_sys, [0.99], [0.4], 10)
    with pytest.raises(InsufficientOrder):
        check_partial_sum_genfun(geo_sys, [0.3], [0.4], 101)
    # a NaN t is refused for its domain, as a NaN x is; it used to reach the
    # tail estimate and end in TailNotNegligible ("tail estimate nan")
    with pytest.raises(DomainViolation, match=r"point 0: \|t\| = nan"):
        check_partial_sum_genfun(geo_sys, [0.3], [complex("nan")], 10)


def test_a_batch_guard_names_its_first_offending_point(geo_sys):
    xs, ts, zs = [0.3, 0.2, 0.25, 0.3, 0.1, 0.3], [0.4] * 6, [0.1] * 6
    with pytest.raises(DomainViolation, match=r"point 3: \|t\| = 1.5"):
        check_partial_sum_genfun(geo_sys, xs, ts[:3] + [1.5, 0.4, 1.5], 10)
    with pytest.raises(DomainViolation, match=r"point 3: \|x\| = 0.99"):
        check_partial_sum_genfun(geo_sys, xs[:3] + [0.99, 0.1, 0.99], ts, 10)
    with pytest.raises(DomainViolation, match=r"point 3: \|z\| = 0.6"):
        check_laurent_genfun(geo_sys, xs, zs[:3] + [0.6, 0.1, 0.6], 10)
    with pytest.raises(PoleProximity, match="point 3: "):
        check_laurent_genfun(geo_sys, [0.25] * 6, zs[:3] + [0.5 - 1e-8, 0.1, 0.5 - 1e-8], 10)


def test_laurent_guards(geo_sys):
    with pytest.raises(DomainViolation):
        check_laurent_genfun(geo_sys, [0.0], [0.1], 10)
    with pytest.raises(DomainViolation):
        check_laurent_genfun(geo_sys, [0.25], [0.6], 10)
    with pytest.raises(PoleProximity):
        check_laurent_genfun(geo_sys, [0.25], [0.5 - 1e-8], 10)  # |x - z^2| ~ 1e-8 < POLE_TOL |x|
    # the pole guard is scaled to |x|: z = 0 stays clear of +-sqrt(x) at any x
    assert check_laurent_genfun(geo_sys, [1e-13], [0.0], 10)[0].lhs == pytest.approx(2)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("x", [0.25, -0.3 + 0.4j, 2.0j])
def test_pole_guard_is_pole_tol_times_x(geo_sys, exp_sys, x, sign):
    # z just inside and just outside |x - z^2| = POLE_TOL |x|, next to +sqrt(x) or
    # -sqrt(x); against |sqrt x| both sat within 0.5e-6 |sqrt x| of a pole and were refused
    system = geo_sys if abs(x) < 1 else exp_sys
    under, over = (sign * cmath.sqrt(x * (1 - q * genfun.POLE_TOL)) for q in (1 - 1e-6, 1 + 1e-6))
    assert abs(x - under * under) < genfun.POLE_TOL * abs(x) < abs(x - over * over)
    with pytest.raises(PoleProximity, match=r"point 0: \|x - z\^2\|"):
        check_laurent_genfun(system, [x], [under], 10)
    assert check_laurent_genfun(system, [x], [over], 10)[0].passed


# the first sample of `genfun-check --family '{"kind": "explicit", "coeffs": [1, 0.5, ...,
# 2**-10], "radius": 1e-12}' --terms 8 --samples 3`, |x| = 4.5e-13
TINY_X = complex(-5.6394924043645443e-14, 4.512745429248222e-13)


@pytest.mark.parametrize("x", [TINY_X, 3e-15, -3e-15j, 1e-300 + 1e-300j])
def test_z_zero_gives_exactly_two_at_any_x(x):
    # the two 1/s prefactors of the two-kernel form cancel at small |s| and
    # left 1.164e-10 at TINY_X (3.7e-9 at 3e-15) against a bound of 3e-13
    family = FamilySpec("explicit", coeffs=[2.0 ** -k for k in range(11)], radius=1e-12)
    chk, = check_laurent_genfun(build_system(realize(family, 10), 8), [x], [0j], 8)
    assert (chk.lhs, chk.residual) == (2, 0.0)


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
