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
    return 1e-13 * (1 + abs(check.lhs))


# -- partial-sum identity -----------------------------------------------------


@pytest.mark.parametrize("t", [0.2, 0.4, 0.6])
def test_partial_sum_identity_at_x_zero(exp_sys, t):
    chk, = check_partial_sum_genfun(exp_sys, [0.0], [t], 80)
    assert chk.lhs == pytest.approx(1 / (1 - t), rel=1e-14)
    assert chk.residual <= 1e-13


def test_partial_sum_identity_geometric(geo_sys):
    chk, = check_partial_sum_genfun(geo_sys, [0.3], [0.4], 40)
    assert chk.residual <= 1e-10
    assert chk.residual <= chk.tail_bound + floor_of(chk)


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
    assert chk.residual <= chk.tail_bound + floor_of(chk)


def test_laurent_identity_other_branch(geo_sys):
    chk, = check_laurent_genfun(geo_sys, [0.25], [0.2], 60, sqrt_xs=[-0.5])
    assert chk.residual <= 1e-9


def test_branch_invariance_of_left_side(geo_sys):
    a, = check_laurent_genfun(geo_sys, [0.25 + 0.1j], [0.15], 60)
    s = complex(np.sqrt(complex(0.25 + 0.1j)))
    b, = check_laurent_genfun(geo_sys, [0.25 + 0.1j], [0.15], 60, sqrt_xs=[-s])
    assert abs(a.lhs - b.lhs) <= 1e-9 * (1 + abs(a.lhs))


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
        assert ps.residual <= ps.tail_bound + floor_of(ps)
        la, = check_laurent_genfun(sysK, [complex(x)], [complex(z)], 80)
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
        chk, = check(system, [complex(*row["x"])], [complex(*row[key])], 0)
        assert chk.residual < chk.tail_bound + floor_of(chk), row


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
    roots = [-(x ** 0.5) for x in xs]
    for check, points, kwargs in ((check_partial_sum_genfun, ts, {}),
                                  (check_laurent_genfun, zs, {}),
                                  (check_laurent_genfun, zs, {"sqrt_xs": roots})):
        batch = check(system, xs, points, terms, **kwargs)
        assert len(batch) == len(xs)
        for i, got in enumerate(batch):
            one = {k: [v[i]] for k, v in kwargs.items()}
            assert bits(got) == bits(check(system, [xs[i]], [points[i]], terms, **one)[0]), i


def hexes(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


@pytest.mark.parametrize("family", BATCH_FAMILIES, ids=["geometric", "exponential",
                                                         "exp-binomial", "complex-explicit"])
def test_each_left_side_is_formed_from_scalar_f_calls_bitwise(family):
    # a check evaluates f at all of its points in one call; one scalar call per point is the reference
    system = build_system(realize(family, cli._series_order(family, 80)), 80)
    f, rng = system.source, np.random.default_rng(7)
    xs = [min(family.radius, 3.0) * rng.uniform(0.2, 0.6) * cli._phase(rng) for _ in range(20)]
    ts = [rng.uniform(0.2, 0.7) * cli._phase(rng) for _ in xs]
    zs = [0j] + [x ** 0.5 * rng.uniform(0.2, 0.6) * cli._phase(rng) for x in xs[1:]]
    got = check_partial_sum_genfun(system, xs, ts, 80)
    assert hexes(c.lhs for c in got) == hexes(f(x * t) / (1 - t) for x, t in zip(xs, ts))
    for roots in (None, [-(x ** 0.5) for x in xs]):
        got = check_laurent_genfun(system, xs, zs, 80, sqrt_xs=roots)
        expect = [((s + 1) / (s - z)) * f(s * z) + ((s - 1) / (s + z)) * f(-s * z)
                  for z, s in zip(zs, roots or [cmath.sqrt(x) for x in xs])]
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
        bound = chk.tail_bound + cli.GENFUN_FLOOR * (1 + abs(chk.lhs))
        assert (row["residual"].hex(), row["bound"].hex()) == (chk.residual.hex(), bound.hex()), row


# -- domain and parameter guards ----------------------------------------------


def test_sample_validation(geo_sys):
    with pytest.raises(InvalidParams, match="terms must be >= 0"):
        check_partial_sum_genfun(geo_sys, [0.3], [0.4], -1)
    with pytest.raises(InvalidParams, match="terms must be >= 0"):
        check_laurent_genfun(geo_sys, [0.3], [0.2], -1)
    with pytest.raises(InvalidParams, match="sqrt_x"):
        check_laurent_genfun(geo_sys, [0.3], [0.2], 10, sqrt_xs=[0.9])  # 0.81 != 0.3
    # the root guard is scaled to |x|: 1e-7 squares to 1e-14, not 1e-13, and
    # against max(1, |x|) it passed, to a residual 1.23e7 against a bound 1.95e4
    with pytest.raises(InvalidParams, match="point 0: sqrt_x"):
        check_laurent_genfun(geo_sys, [1e-13], [5e-8], 10, sqrt_xs=[1e-7])
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
    roots = [x ** 0.5 for x in xs]
    with pytest.raises(InvalidParams, match="point 3: sqrt_x"):
        check_laurent_genfun(geo_sys, xs, zs, 10, sqrt_xs=roots[:3] + [0.9, 0.1, 0.9])


def test_laurent_guards(geo_sys):
    with pytest.raises(DomainViolation):
        check_laurent_genfun(geo_sys, [0.0], [0.1], 10)
    with pytest.raises(DomainViolation):
        check_laurent_genfun(geo_sys, [0.25], [0.6], 10)
    with pytest.raises(PoleProximity):
        check_laurent_genfun(geo_sys, [0.25], [0.5 - 1e-8], 10)  # 1e-8 < POLE_TOL |sqrt x|
    # the pole guard is scaled to |sqrt x|: z = 0 stays clear of +-sqrt(x) at any x
    assert check_laurent_genfun(geo_sys, [1e-13], [0.0], 10)[0].lhs == pytest.approx(2)


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
