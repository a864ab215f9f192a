"""The orthogonality functional: exact moments, quadrature, Gram matrices."""

import math
from fractions import Fraction

import numpy as np
import pytest

from olaurent import (
    ContourSpec,
    FamilySpec,
    LaurentPoly,
    TruncatedPowerSeries,
    apply_L,
    build_system,
    contour_L,
    exact_moments,
    gram_matrix,
    realize,
    specialized_L_exp_binomial,
)
from olaurent import cli, exact, kernels
from olaurent.errors import (
    InsufficientOrder,
    InvalidParams,
    NearZeroDenominator,
    RadiusInvalid,
    TailNotNegligible,
    UnrepresentableValue,
    UnsupportedFamily,
    WindowExceeded,
)
from olaurent.functional import (
    MAX_NODES,
    MomentTable,
    _first_nonzero_window,
    contour_moments,
    difference_gram,
)


def test_moment_values_geometric(geometric):
    mom = exact_moments(geometric, 3)
    assert mom[0] == 1
    assert mom[-1] == -1
    assert mom[-2] == 0
    assert mom[-3] == 0
    for m in (1, 2, 3):
        assert mom[m] == 0j  # structural, not approximate


def test_moment_values_exponential(exponential):
    mom = exact_moments(exponential, 6)
    for m in range(7):
        assert mom[-m] == pytest.approx((-1.0) ** m / math.factorial(m), rel=1e-14)


def test_moment_window_enforced(geometric):
    mom = exact_moments(geometric, 3)
    with pytest.raises(WindowExceeded):
        mom[4]
    with pytest.raises(WindowExceeded):
        mom[-4]


def test_moments_need_normalized_source():
    s = TruncatedPowerSeries([2, 1, 1], radius=1.0)
    with pytest.raises(InvalidParams, match=r"^source needs d_0 = 1, got \(2\+0j\)$"):
        exact_moments(s, 2)
    with pytest.raises(InsufficientOrder):
        exact_moments(TruncatedPowerSeries([1, 1], radius=1.0), 5)


def test_apply_L_basics(geometric):
    mom = exact_moments(geometric, 4)
    sys2 = build_system(geometric, 2)
    assert apply_L(LaurentPoly({0: 1}), mom) == 1
    assert apply_L(sys2.R[1], mom) == 0
    assert apply_L(sys2.R[1] * sys2.R[1], mom) == -1
    assert apply_L(LaurentPoly(), mom) == 0j


def test_apply_L_rejects_wide_support(geometric):
    mom = exact_moments(geometric, 2)
    with pytest.raises(WindowExceeded):
        apply_L(LaurentPoly({-3: 1}), mom)
    with pytest.raises(WindowExceeded):
        apply_L(LaurentPoly({3: 1}), mom)


def test_contour_of_constant_is_one(geometric, exponential, exp_binomial):
    for src, c in ((geometric, 0.5), (exponential, 0.8), (exp_binomial, 0.7)):
        v = contour_L(LaurentPoly({0: 1}), src, ContourSpec(radius=c))
        assert abs(v - 1) <= 1e-12


def test_contour_kills_even_polynomials_geometric(geometric):
    sysK = build_system(geometric, 12)
    spec = ContourSpec(radius=0.5)
    for n in range(1, 13):
        assert abs(contour_L(sysK.R[n], geometric, spec)) <= 1e-10


def test_contour_r1_squared_geometric(geometric):
    sysK = build_system(geometric, 1)
    v = contour_L(sysK.R[1] * sysK.R[1], geometric, ContourSpec(radius=0.5, nodes=256))
    assert abs(v - (-1)) <= 1e-10


def test_contour_L_is_apply_L_on_the_quadrature_moments(exponential):
    sysK = build_system(exponential, 5)
    p = sysK.R[3] * sysK.R[5]
    spec = ContourSpec(radius=0.8)
    assert contour_L(p, exponential, spec) == apply_L(p, contour_moments(exponential, spec, 6))


def test_contour_gram_matches_exact_gram_geometric(geometric):
    # one node sum per moment; summing each product R_n R_m over the nodes
    # instead loses ~1e-7 here
    system = build_system(geometric, 20)
    exact = gram_matrix(system, exact_moments(geometric, 20))
    quad = gram_matrix(system, contour_moments(geometric, ContourSpec(radius=0.5, nodes=512), 20))
    assert np.max(np.abs(quad - exact)) <= 1e-8


def y_node_moments(source, radius, nodes, window):
    """mu~_{-window}..mu~_window by the rule as written on |y| = radius: f at y^2 on every node."""
    y = kernels.circle_nodes_extended(radius, nodes)
    spectrum = kernels.circle_spectrum(1 / kernels.eval_poly_extended(source.coeffs, y * y))
    return kernels.circle_coefficients(spectrum, radius, range(2 * window, -2 * window - 1, -2))


@pytest.mark.parametrize("nodes", [17, 63, 64, 65])
def test_w_node_rule_is_the_y_node_rule_for_either_parity(exponential, exp_binomial, nodes):
    for src, c in ((exponential, 0.5), (exp_binomial, 0.7)):
        table = contour_moments(src, ContourSpec(radius=c, nodes=nodes), 6)
        ref = y_node_moments(src, c, nodes, 6)
        for m in range(-6, 7):
            assert abs(table[m] - ref[m + 6]) <= 1e-15 * (1 + abs(ref[m + 6]))
    # squaring permutes the 17 odd-count nodes, so the rule's aliasing
    # survives: mu~_6 picks up e_11 r^17 on |w| = r = 0.25
    mu6 = contour_moments(exponential, ContourSpec(radius=0.5, nodes=17), 6)[6]
    assert mu6 == pytest.approx(-0.25 ** 17 / math.factorial(11), rel=1e-9)


@pytest.mark.parametrize("nodes, points", [(64, 32), (63, 63)])
def test_f_is_evaluated_once_per_distinct_square(monkeypatch, capsys, nodes, points):
    seen = []
    horner = kernels.eval_poly_extended
    monkeypatch.setattr(kernels, "eval_poly_extended",
                        lambda c, p: seen.append(p.size) or horner(c, p))
    assert cli.main(["ortho", "--family", "exponential", "--order", "4",
                     "--radius", "0.8", "--nodes", str(nodes)]) == 0
    capsys.readouterr()
    assert seen == [points]


def test_a_real_source_keeps_an_integer_table(geometric, exponential, exp_binomial):
    for src, c in ((geometric, 0.5), (exponential, 0.8), (exp_binomial, 0.7)):
        table = contour_moments(src, ContourSpec(radius=c), 20)
        assert all(type(v) is int for v in table.values)


def _complex_source(rng, order):
    """An explicit source with d_0 = 1 and d_k of random phase and modulus ~ 2**-k."""
    moduli = rng.uniform(0.5, 1.5, order + 1) * 0.5 ** np.arange(order + 1)
    coeffs = moduli * np.exp(2j * np.pi * rng.uniform(size=order + 1))
    coeffs[0] = 1
    return realize(FamilySpec("explicit", coeffs=coeffs, radius=2.0), order)


def test_a_complex_source_keeps_a_gaussian_table():
    src = _complex_source(np.random.default_rng(7), 40)
    table = contour_moments(src, ContourSpec(radius=0.8), 12)
    assert all(isinstance(v, exact.Gaussian) for v in table.values if v)
    mu = exact_moments(src, 12)
    ref = y_node_moments(src, 0.8, 512, 12)
    err = max(abs(table[m] - mu[m]) / (1 + abs(mu[m])) for m in range(-12, 13))
    ref_err = max(abs(ref[m + 12] - mu[m]) / (1 + abs(mu[m])) for m in range(-12, 13))
    assert err <= ref_err


def test_specialized_route_weighs_each_distinct_square_once(exp_binomial_spec, exp_binomial,
                                                             monkeypatch):
    lengths = []
    spectrum = kernels.circle_spectrum
    monkeypatch.setattr(kernels, "circle_spectrum", lambda v: lengths.append(len(v)) or spectrum(v))
    # acceptance criterion 2's check: all R_n R_m, n, m <= 12, at 512 nodes
    system = build_system(exp_binomial, 12)
    moments = exact_moments(exp_binomial, 12)
    for n in range(13):
        for m in range(n, 13):
            p = system.R[n] * system.R[m]
            ex = apply_L(p, moments)
            quad = specialized_L_exp_binomial(p, exp_binomial_spec, nodes=512)
            assert abs(quad - ex) <= 1e-9 * (1 + abs(ex))
    assert set(lengths) == {256}


def test_contour_agrees_with_moments_for_empty_polynomial(geometric):
    assert contour_L(LaurentPoly(), geometric, ContourSpec(radius=0.5)) == 0j


def test_contour_radius_must_sit_inside_disc(geometric):
    with pytest.raises(RadiusInvalid):
        contour_L(LaurentPoly({0: 1}), geometric, ContourSpec(radius=1.0))


def test_contour_rejects_fat_truncation_tail():
    short = realize(FamilySpec("geometric"), 20)
    with pytest.raises(TailNotNegligible):
        contour_L(LaurentPoly({0: 1}), short, ContourSpec(radius=0.5))


def test_contour_rejects_denominator_near_zero():
    # 1 - 2w vanishes at w = 0.5, which the k = 0 node hits when c = sqrt(1/2)
    f = TruncatedPowerSeries([1, -2] + [0] * 12, radius=math.inf)
    with pytest.raises(NearZeroDenominator):
        contour_L(LaurentPoly({0: 1}), f, ContourSpec(radius=math.sqrt(0.5)))


def test_a_nan_on_the_nodes_is_a_near_zero_denominator():
    # min |f| is NaN, which fails every comparison: the guard must refuse it
    # before 1 / f, not end in "Cauchy coefficient 4 ... overflows"
    d = [2.0 ** -k for k in range(65)]
    d[30] = math.nan
    with np.errstate(all="raise"), pytest.raises(NearZeroDenominator, match=r"= nan$"):
        contour_moments(TruncatedPowerSeries(d, radius=2.0), ContourSpec(0.5), 4)


def test_contour_spec_validation():
    with pytest.raises(InvalidParams):
        ContourSpec(radius=0.0)
    with pytest.raises(InvalidParams, match=r"c = 1e-200 has c\^2 = 0"):
        ContourSpec(radius=1e-200)
    assert ContourSpec(radius=1e-160).radius ** 2 > 0   # subnormal, not zero
    with pytest.raises(InvalidParams):
        ContourSpec(radius=0.5, nodes=8)
    assert ContourSpec(radius=0.5, nodes=MAX_NODES).nodes == MAX_NODES
    for nodes in (MAX_NODES + 1, 10 ** 20):
        with pytest.raises(InvalidParams):
            ContourSpec(radius=0.5, nodes=nodes)


def test_node_doubling_converges_to_floor(exponential):
    sysK = build_system(exponential, 6)
    mom = exact_moments(exponential, 12)
    p = sysK.R[6] * sysK.R[6]
    exact = apply_L(p, mom)
    floor = 1e-12 * (1 + abs(exact))
    errs = {N: abs(contour_L(p, exponential, ContourSpec(radius=0.8, nodes=N)) - exact)
            for N in (16, 32, 64, 128, 256)}
    # the 16-node rule has genuine aliasing error; one doubling must crush it
    assert errs[16] > 100 * floor
    assert errs[32] <= errs[16] / 2
    for small, big in ((32, 64), (64, 128), (128, 256)):
        assert errs[big] <= errs[small] or errs[big] <= floor


def test_gram_geometric_small(geometric):
    G = gram_matrix(build_system(geometric, 2), exact_moments(geometric, 4))
    assert np.array_equal(G, np.diag([1.0, -1.0, 1.0]))


def test_gram_diagonal_tracks_source_coefficients(exponential):
    # the diagonal is a cancellation of O(1) moment products down to values
    # near 1/K!, so it keeps its relative accuracy only when the products are
    # summed exactly; K = 40 is where a rounded sum is off by a factor ~145
    for K, window in ((10, 12), (40, 40)):
        G = gram_matrix(build_system(exponential, K), exact_moments(exponential, window))
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) <= 1e-10
        for n in range(K + 1):
            expect = exponential.coeff(n) if n % 2 == 0 else -exponential.coeff(n + 1)
            assert abs(G[n, n] - expect) <= 1e-11 * abs(expect)


def test_gram_needs_wide_enough_window(exponential):
    with pytest.raises(WindowExceeded):
        gram_matrix(build_system(exponential, 10), exact_moments(exponential, 9))


def test_specialized_route_exp_binomial(exp_binomial_spec, exp_binomial):
    sysK = build_system(exp_binomial, 1)
    assert abs(specialized_L_exp_binomial(LaurentPoly({0: 1}), exp_binomial_spec) - 1) <= 1e-12
    assert abs(specialized_L_exp_binomial(sysK.R[1], exp_binomial_spec)) <= 1e-12
    r1sq = sysK.R[1] * sysK.R[1]
    expect = -exp_binomial.coeff(2)
    assert abs(specialized_L_exp_binomial(r1sq, exp_binomial_spec) - expect) <= 1e-11


def test_specialized_route_rejects_other_kinds():
    with pytest.raises(UnsupportedFamily):
        specialized_L_exp_binomial(LaurentPoly({0: 1}), FamilySpec("geometric"))
    for nodes in (4, 10 ** 20):
        with pytest.raises(InvalidParams):
            specialized_L_exp_binomial(
                LaurentPoly({0: 1}),
                FamilySpec("exp-binomial", b=1.0, a=(0.5,), family_lambda=(1.0,)), nodes=nodes)


def test_two_routes_agree_on_random_polynomials(exp_binomial, exp_binomial_spec):
    rng = np.random.default_rng(11)
    mom = exact_moments(exp_binomial, 8)
    spec = ContourSpec(radius=0.7)
    for _ in range(10):
        terms = {int(e): complex(*rng.normal(size=2)) for e in rng.integers(-8, 9, size=5)}
        p = LaurentPoly(terms)
        ex = apply_L(p, mom)
        assert abs(contour_L(p, exp_binomial, spec) - ex) <= 1e-10 * (1 + abs(ex))
        assert abs(specialized_L_exp_binomial(p, exp_binomial_spec) - ex) <= 1e-10 * (1 + abs(ex))


STOCK = (FamilySpec("geometric"), FamilySpec("exponential"),
         FamilySpec("exp-binomial", b=1.0, a=(0.5,), family_lambda=(1.0,)))


def _exact_reciprocal(coeffs, order):
    """e_0..e_order of 1/f as (re, im) Fractions, from the d_0 = 1 recursion."""
    d = [(Fraction(c.real), Fraction(c.imag)) for c in map(complex, coeffs)]
    e = [(Fraction(1), Fraction(0))]
    for m in range(1, order + 1):
        re = im = Fraction(0)
        for k in range(1, m + 1):
            (a, b), (c, s) = d[k], e[m - k]
            re -= a * c - b * s
            im -= a * s + b * c
        e.append((re, im))
    return e


def _max_plus_scale(s, window):
    """T_window of T_0 = 0, T_m = max_{k=1..m} (s_k + T_{m-k}): the least scale of the recursion."""
    T = [0]
    for m in range(1, window + 1):
        T.append(max(s[k] + T[m - k] for k in range(1, m + 1)))
    return T[window]


# d_1 = d_2 = 0; and 2**-k up to a subnormal d_30, whose s_30 / 30 = 1074 / 30 sets the rate
SPARSE = TruncatedPowerSeries([1, 0, 0, 0.375, 0, -0.25, 0.5, 0, 0, 1.5, 0, -0.125, 0, 0,
                               0.0625, 0.75, 0, 0, 0, -2.5, 0, 0.3], radius=1.0)
LATE_RATE = TruncatedPowerSeries([1.0] + [2.0 ** -k for k in range(1, 30)] + [5e-324],
                                 radius=1.0)
# subnormal d_k, a complex one among them: s_1 = 1074 sets R, so the table is
# over 2**(1074 window) and the Gram over 2**(1074 window + 2148)
SUBNORMAL = realize(FamilySpec("explicit", coeffs=[1, 5e-324, 1e-310, 0.5, 2.5e-320, 1,
                                                   complex(-3e-321, 7e-315), 4.9e-322, -0.75],
                               radius=1.0), 8)


def test_exact_moments_are_the_rounded_exact_reciprocal():
    rng = np.random.default_rng(3)
    sources = [TruncatedPowerSeries([1.0] + list(rng.normal(size=n) + 1j * rng.normal(size=n)),
                                    radius=1.0) for n in (12, 80)]
    for src in sources + [realize(spec, 80) for spec in STOCK] + [SPARSE, LATE_RATE, SUBNORMAL]:
        window = src.order
        mom = exact_moments(src, window)
        # the table is over 2**(window R), R = max_k ceil(s_k / k), with d_k over 2**s_k
        s = [max(Fraction(x).denominator for x in (c.real, c.imag)).bit_length() - 1
             for c in map(complex, src.coeffs)]
        R = max(-(-s[k] // k) for k in range(1, window + 1))
        assert mom.denominator == 1 << window * R
        assert window * R < _max_plus_scale(s, window) + window + max(s)
        for m, (re, im) in enumerate(_exact_reciprocal(src.coeffs, window)):
            v = mom.values[window - m]
            assert (Fraction(v.real, mom.denominator), Fraction(v.imag, mom.denominator)) \
                == (re, im), (window, m)
            assert mom[-m] == complex(float(re), float(im)), (window, m)
        assert all(mom[m] == 0j for m in range(1, window + 1))


def test_gram_is_exactly_diagonal_for_complex_coefficients():
    rng = np.random.default_rng(4)
    coeffs = [1.0] + list(rng.uniform(0.5, 1.5, 16) * np.exp(2j * np.pi * rng.uniform(size=16)))
    src = TruncatedPowerSeries(coeffs, radius=1.0)
    G = gram_matrix(build_system(src, 15), exact_moments(src, 16))
    h = [src.coeff(n) if n % 2 == 0 else -src.coeff(n + 1) for n in range(16)]
    assert np.array_equal(G, np.diag(h))


def test_exact_values_that_overflow_a_double_are_refused():
    # e_2 = d_1^2 - d_2 = 1e600 is exact but has no double: the table holds
    # it, and it is refused where it is rounded, when it is read as a double
    src = TruncatedPowerSeries([1.0, 1e300, 1.0], radius=1.0)
    table = exact_moments(src, 2)
    with pytest.raises(UnrepresentableValue, match=r"~2\*\*1994 overflows a double"):
        table[-2]
    # each read rounds only its own moment: mu_{-1} = -d_1 is a double
    assert table[-1] == -1e300


def test_a_table_whose_moments_overflow_still_gives_a_gram_of_doubles():
    # every entry of the Gram is an exact sum that is a double, diag(d_0, -d_2, d_2)
    src = TruncatedPowerSeries([1.0, 1e300, 1.0], radius=1.0)
    G = gram_matrix(build_system(src, 2), exact_moments(src, 2))
    assert np.array_equal(G, np.diag([1.0, -1.0, 1.0]))


def test_a_quadrature_coefficient_that_overflows_names_its_index_and_radius():
    spectrum = kernels.circle_spectrum(np.ones(8))
    with np.errstate(all="raise"):   # refused, not warned
        with pytest.raises(UnrepresentableValue, match=r"coefficient 200 on radius 0\.01 "):
            kernels.circle_coefficients(spectrum, 0.01, [0, 200, 300])


def _dense_gram(system, moments):
    """The Gram by the loop that sums and rounds every entry n <= m, zero or not."""
    K = system.K
    need = 2 * math.ceil(K / 2)
    d, ds = exact.scaled(system.source.coeffs[:K + 1])
    w, mu = moments.window, moments.values
    den = moments.denominator << 2 * ds
    P = [0] * (need + 1)
    G = np.zeros((K + 1, K + 1), dtype=np.complex128)
    for m in range(K + 1):
        for u in range(need + 1):
            P[u] += d[m] * mu[m - u + w]
        tm = (m + 1) // 2
        g = 0
        for n in range(m + 1):
            tn = (n + 1) // 2
            if n % 2:
                g = sum(d[i] * P[tn + tm - i] for i in range(n + 1))
            else:
                g += d[n] * P[tn + tm - n]
            G[n, m] = G[m, n] = exact.to_complex(g, den)
    return G


def _assert_bitwise_dense(src, K, moments):
    system = build_system(src, K)
    assert gram_matrix(system, moments).tobytes() == _dense_gram(system, moments).tobytes(), K


def test_gram_is_bitwise_the_dense_loop_on_exact_tables():
    for spec in STOCK:
        src = realize(spec, 80)
        for K in (*range(41), 80):
            _assert_bitwise_dense(src, K, exact_moments(src, 2 * math.ceil(K / 2)))
    # the widest mantissa shifts: exponential d_160 ~ 1/160! is a 53-bit mantissa over 2**998
    src = realize(STOCK[1], 160)
    _assert_bitwise_dense(src, 160, exact_moments(src, 160))
    rng = np.random.default_rng(17)
    for K in (0, 1, 2, 5, 12, 25, 40):
        src = _complex_source(rng, 40)
        moments = exact_moments(src, 2 * math.ceil(K / 2))
        assert K == 0 or any(isinstance(v, exact.Gaussian) for v in moments.values)
        _assert_bitwise_dense(src, K, moments)
    for K in range(SUBNORMAL.order + 1):
        _assert_bitwise_dense(SUBNORMAL, K, exact_moments(SUBNORMAL, 2 * math.ceil(K / 2)))
    # a sparse source's table (mu_{-1} = mu_{-2} = 0 and more interior zeros)
    # under other systems: P_m is no delta, so its rows mix zeros and nonzeros
    for src in (realize(STOCK[1], 20), _complex_source(rng, 20)):
        for K in range(21):
            _assert_bitwise_dense(src, K, exact_moments(SPARSE, 2 * math.ceil(K / 2)))


def test_the_exact_routes_split_each_coefficient_once(monkeypatch):
    coeffs = [1, 0.5, -0.25j, 0.125 + 1j, 3.0, 5e-324, -7.5]
    calls, split = [], exact.split

    def counted(z):
        calls.append(z)
        return split(z)

    monkeypatch.setattr(exact, "split", counted)
    src, twin = (TruncatedPowerSeries(coeffs, radius=2.0) for _ in range(2))
    assert src == twin
    moments = exact_moments(src, 6)
    gram_matrix(build_system(src, 6), moments)
    build_system(src, 6).R
    # each stored d_k is split once, by the view, which is kept
    assert calls == src.coeffs.tolist()
    assert src.exact_coeffs is src.exact_coeffs
    assert [exact.to_complex(v, 1 << s) for v, s in src.exact_coeffs] == src.coeffs.tolist()
    # equality ignores the view: formed on one side, on both, or on neither
    assert src == twin and twin == src
    assert TruncatedPowerSeries(coeffs, radius=2.0) == TruncatedPowerSeries(coeffs, radius=2.0)
    twin.exact_coeffs
    assert src == twin and src != TruncatedPowerSeries(coeffs[:-1] + [7.5], radius=2.0)
    for s in (src, twin):
        with pytest.raises(TypeError):
            hash(s)
        with pytest.raises(AttributeError):
            s.exact_coeffs = ()
    assert len(calls) == 14


def test_gram_is_bitwise_the_dense_loop_on_contour_tables(geometric, exponential, exp_binomial):
    complex_src = _complex_source(np.random.default_rng(18), 64)
    for src, c in ((geometric, 0.5), (exponential, 0.8), (exp_binomial, 0.7), (complex_src, 0.8)):
        for K in (8, 12, 20):
            _assert_bitwise_dense(src, K, contour_moments(src, ContourSpec(radius=c), K))


def test_gram_is_bitwise_the_dense_loop_on_single_moment_tables(geometric, exponential):
    # P_m is updated only where a moment is nonzero: a table whose one
    # nonzero moment lies at either end, or beyond every m, is no exception
    for src in (geometric, exponential):
        for i in range(9):
            table = MomentTable(window=4, values=tuple(3 * (j == i) for j in range(9)),
                                denominator=2)
            for K in (0, 1, 3, 4):
                _assert_bitwise_dense(src, K, table)


def test_first_nonzero_window_is_its_definition():
    def first(P, tm, m):
        return next((n for n in range(m + 1)
                     if P[tm + (n + 1) // 2 if n % 2 else tm - n // 2]), m + 1)

    rng = np.random.default_rng(21)
    values = (0, 0, 0, 0, 1, -3, exact.Gaussian(0, 2), exact.Gaussian(0, 0))
    for m in range(25):
        tm = (m + 1) // 2
        columns = [[values[i] for i in rng.integers(len(values), size=27)] for _ in range(20)]
        columns.append([0] * 27)
        for end in (tm - m // 2, tm + (m + 1) // 2):   # either end of W_m
            columns.append([3 * (u == end) for u in range(27)])
        for P in columns:
            assert _first_nonzero_window(P, tm, m) == first(P, tm, m), (m, P)


def _roundings(monkeypatch, thunk):
    """thunk() and the number of values it rounds by exact.to_complex."""
    calls = []
    to_complex = exact.to_complex
    monkeypatch.setattr(exact, "to_complex", lambda v, den: calls.append(v) or to_complex(v, den))
    result = thunk()
    monkeypatch.undo()
    return result, len(calls)


def test_an_exact_gram_rounds_only_its_diagonal(monkeypatch):
    # on an exact table P_m[u] = (d * e)_u = delta_{u0} for u <= m, so every
    # window W_n with n < m reads zeros only; the table rounds no moment
    for spec in STOCK:
        src = realize(spec, 80)
        system = build_system(src, 80)
        _, count = _roundings(monkeypatch, lambda: gram_matrix(system, exact_moments(src, 80)))
        assert count == 81, spec.kind


def test_a_contour_gram_rounds_every_nonzero_entry(monkeypatch, exponential, exp_binomial):
    # L~(R_0 R_1) = mu~_{-1} + mu~_0 can be an exact 0 on the quadrature table too
    for src, c in ((exponential, 0.8), (exp_binomial, 0.7)):
        table = contour_moments(src, ContourSpec(radius=c), 20)
        G, count = _roundings(monkeypatch, lambda: gram_matrix(build_system(src, 20), table))
        # a dense table: all but a few of the 231 entries n <= m are nonzero
        assert count == np.count_nonzero(np.triu(G)) >= 21 * 22 // 2 - 5


def test_an_entry_that_cancels_to_zero_is_not_rounded(monkeypatch, geometric):
    # mu_{-2..2} = -2, 1, 0, 0, 0: G[1, 1], G[1, 2] and G[2, 2] read nonzero
    # windows whose exact sums cancel; G[0, 0] reads the zero window {mu_0}
    table = MomentTable(window=2, values=(-2, 1, 0, 0, 0), denominator=1)
    G, count = _roundings(monkeypatch, lambda: gram_matrix(build_system(geometric, 2), table))
    assert G.tobytes() == _dense_gram(build_system(geometric, 2), table).tobytes()
    assert np.array_equal(G, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    assert count == 2


def _delta_table(moments, quadrature):
    """delta = mu~ - mu as one exact MomentTable over the tables' common denominator."""
    den = math.lcm(moments.denominator, quadrature.denominator)
    a, b = den // moments.denominator, den // quadrature.denominator
    return MomentTable(window=moments.window, denominator=den,
                       values=tuple(b * q - a * m for q, m in zip(quadrature.values,
                                                                  moments.values)))


def _route_cases():
    """(name, source, radius): the stock families at their workload radii and 0.5; a complex one."""
    for spec, c in zip(STOCK, (0.5, 0.8, 0.7)):
        for radius in sorted({c, 0.5}):
            yield spec.kind, realize(spec, 80), radius
    yield "complex", _complex_source(np.random.default_rng(19), 80), 0.8


@pytest.mark.parametrize("K", [0, 1, 2, 8, 12, 20, 80])
def test_the_difference_gram_is_within_its_bound_of_the_exact_gram_of_delta(K):
    window = 2 * math.ceil(K / 2)
    for kind, src, radius in _route_cases():
        system = build_system(src, K)
        moments = exact_moments(src, window)
        quadrature = contour_moments(src, ContourSpec(radius=radius), window)
        G, E = difference_gram(system, moments, quadrature)
        # the reference rounds each exact entry once, by at most 2**-53 of
        # itself, so this is stricter than |G - exact| <= E
        ref = gram_matrix(system, _delta_table(moments, quadrature))
        assert np.all(np.abs(G - ref) + 2.0 ** -52 * np.abs(ref) <= E), (kind, radius)
        # the route figure as two exact Grams gave it, each rounded apart:
        # that moves it by up to 2u (1 + |G~| / (1 + |G|)) from the exact figure
        exact = gram_matrix(system, moments)
        two_grams = np.max(np.abs(gram_matrix(system, quadrature) - exact) / (1 + np.abs(exact)))
        figure = np.max(np.abs(G) / (1 + np.abs(exact)))
        assert abs(figure - two_grams) <= 1e-12 * two_grams + 2.0 ** -51, (kind, radius)


def test_the_difference_gram_bound_holds_every_term_of_its_derivation():
    # the docstring's terms, from R_n's own coefficients: the products'
    # (2g + g^2) M and the once-rounded delta's u/(1 - u) M
    u = 2.0 ** -53
    for K in (0, 1, 8, 20):
        c, N = math.ceil(K / 2), K + 1
        g = math.sqrt(2) * 2 * N * u / (1 - 2 * N * u)
        for kind, src, radius in _route_cases():
            system = build_system(src, K)
            moments = exact_moments(src, 2 * c)
            quadrature = contour_moments(src, ContourSpec(radius=radius), 2 * c)
            _, E = difference_gram(system, moments, quadrature)
            delta = _delta_table(moments, quadrature)
            A = np.zeros((N, N), dtype=complex)
            for n, R in enumerate(system.R):
                A[n, R.min_exponent + c:R.max_exponent + c + 1] = R.coeffs
            H = np.array([[delta[i + j - 2 * c] for j in range(N)] for i in range(N)])
            M = np.abs(A) @ np.abs(H) @ np.abs(A).T
            assert np.all(E >= (2 * g + g * g + u / (1 - u)) * M), (kind, radius, K)

