"""Laurent system construction and the two-step recurrence route."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from olaurent import (
    FamilySpec,
    LaurentPoly,
    OLPSystem,
    RecurrenceData,
    TruncatedPowerSeries,
    build_by_recurrence,
    build_system,
    check_normalization,
    realize,
    recurrence_data,
)
from olaurent import exact, systems
from olaurent.errors import InsufficientOrder, InvalidParams, ZeroCoefficient
from olaurent.exact import to_complex


def test_geometric_first_three(geometric):
    sys2 = build_system(geometric, 2)
    assert sys2.R[0] == LaurentPoly({0: 1})
    assert sys2.R[1] == LaurentPoly({-1: 1, 0: 1})
    assert sys2.R[2] == LaurentPoly({-1: 1, 0: 1, 1: 1})


def test_r0_is_one_for_any_source(exponential, exp_binomial):
    for src in (exponential, exp_binomial):
        assert build_system(src, 0).R[0] == LaurentPoly({0: 1})


def test_exponential_fourth_polynomial(exponential):
    r3 = build_system(exponential, 3).R[3]
    assert r3.coeff(-2) == 1
    assert r3.coeff(-1) == 1
    assert r3.coeff(0) == 0.5
    assert r3.coeff(1) == pytest.approx(1 / 6, rel=1e-15)
    assert r3.max_exponent == 1 and r3.min_exponent == -2


@pytest.mark.parametrize("K", [0, 1, 7, 20])
def test_shape_law_exact(exp_binomial, K):
    sysK = build_system(exp_binomial, K)
    for n, r in enumerate(sysK.R):
        if n % 2 == 0:
            assert r.max_exponent == n // 2
            assert r.min_exponent >= -(n // 2)
        else:
            assert r.min_exponent == -(n // 2 + 1)
            assert r.max_exponent <= n // 2


def test_extremal_coefficients(exp_binomial):
    sysK = build_system(exp_binomial, 15)
    for n in range(16):
        if n % 2 == 0:
            assert sysK.R[n].coeff(n // 2) == exp_binomial.coeff(n)
        else:
            assert sysK.R[n].coeff(-(n // 2 + 1)) == 1


def test_shifted_system_reproduces_partial_sums(geometric, exponential):
    for src in (geometric, exponential):
        sysK = build_system(src, 9)
        for n in range(10):
            shifted = sysK.R[n].shift(math.ceil(n / 2))
            expect = LaurentPoly({k: src.coeff(k) for k in range(n + 1)})
            assert shifted == expect
            assert sysK.R[n].lo == -math.ceil(n / 2)
            assert np.array_equal(sysK.R[n].coeffs, src.coeffs[:n + 1])


def test_build_requires_enough_coefficients():
    short = TruncatedPowerSeries([1, 1, 1], radius=1.0)
    with pytest.raises(InsufficientOrder):
        build_system(short, 3)


def test_a_system_is_checked_when_it_is_made():
    # OLPSystem used to take R as given; with a short source, a gram_matrix
    # or check_normalization call then ended in a bare IndexError
    short = TruncatedPowerSeries([1, 1, 1], radius=1.0)
    with pytest.raises(InsufficientOrder):
        OLPSystem(short, 3)
    with pytest.raises(InvalidParams):
        OLPSystem(short, -1)
    assert OLPSystem(short, 2) == build_system(short, 2)


def test_systems_are_equal_when_their_sources_and_orders_are(geometric, exponential):
    # an equal but distinct source, so the comparison reaches TruncatedPowerSeries.__eq__
    copy = TruncatedPowerSeries(geometric.coeffs.copy(), geometric.radius)
    assert copy is not geometric
    assert OLPSystem(geometric, 4) == OLPSystem(copy, 4)
    assert OLPSystem(geometric, 4) != OLPSystem(copy, 3)
    assert OLPSystem(geometric, 4) != OLPSystem(exponential, 4)
    assert OLPSystem(geometric, 4) != OLPSystem(TruncatedPowerSeries(geometric.coeffs, 2.0), 4)


def test_a_system_checks_only_the_coefficients_it_reads():
    # a series holds any coefficients; a system refuses d_0 != 1 and a zero
    # among d_0..d_K, and a coefficient beyond d_K may be zero
    src = TruncatedPowerSeries([1, 0.5, 0, 0.25], radius=2.0)
    assert build_system(src, 1).K == 1 and recurrence_data(src, 1).g[1] == 0.5
    for K in (2, 3):
        with pytest.raises(ZeroCoefficient, match=r"^d_2 = 0; the construction needs nonzero"):
            build_system(src, K)
    with pytest.raises(InvalidParams, match=r"^source needs d_0 = 1, got \(2\+0j\)$"):
        build_system(TruncatedPowerSeries([2, 1], radius=1.0), 1)


def test_build_rejects_zero_coefficient():
    src = TruncatedPowerSeries([1, 1, 0, 1], radius=1.0)
    with pytest.raises(ZeroCoefficient):
        build_system(src, 3)
    with pytest.raises(ZeroCoefficient):
        recurrence_data(src, 3)


def test_recurrence_closed_forms_exponential(exponential):
    rd = recurrence_data(exponential, 12)
    n = np.arange(13)
    assert np.allclose(rd.c, np.where(n == 0, 1, -n), rtol=1e-13)
    assert np.allclose(rd.xi, [math.factorial(int(k)) for k in n], rtol=1e-13)
    # index 0 of g / index 1 of recur_lambda are conventions, skip them
    assert np.allclose(rd.g[1:], 1.0 / n[1:], rtol=1e-13)
    assert np.allclose(rd.f_rec[1:], -1.0 / n[1:], rtol=1e-13)
    assert np.allclose(rd.recur_lambda[2:], n[2:] - 1, rtol=1e-13)


def test_recurrence_closed_forms_geometric(geometric):
    rd = recurrence_data(geometric, 10)
    assert np.allclose(rd.c[1:], -1.0, rtol=0)
    assert np.allclose(rd.xi, [(-1.0) ** k * (-1.0) ** k for k in range(11)], rtol=0)
    assert np.allclose(rd.g[1:], 1.0, rtol=0)
    assert np.allclose(rd.f_rec[1:], -1.0, rtol=0)
    assert np.allclose(rd.recur_lambda[2:], 1.0, rtol=0)


def test_xi_zero_is_one(exp_binomial):
    assert recurrence_data(exp_binomial, 0).xi[0] == 1


def test_recurrence_initialization(geometric):
    rd = recurrence_data(geometric, 1)
    q = build_by_recurrence(rd, 1)
    assert q[0] == LaurentPoly({0: 1})
    assert q[1] == LaurentPoly({-1: 1, 0: 1})


def test_recurrence_route_matches_direct_for_exponential(exponential):
    # xi_n * d_n = n!/n! = 1, so the raw recurrence output IS R_n
    rd = recurrence_data(exponential, 20)
    q = build_by_recurrence(rd, 20)
    sysK = build_system(exponential, 20)
    for n in range(21):
        diff = q[n] - sysK.R[n]
        scale = max(abs(c) for _, c in sysK.R[n].items())
        assert all(abs(c) <= 1e-13 * scale for _, c in diff.items())


def test_geometric_q2_equals_r2(geometric):
    rd = recurrence_data(geometric, 2)
    q = build_by_recurrence(rd, 2)
    assert q[2] == build_system(geometric, 2).R[2]


def test_recurrence_needs_enough_data(geometric):
    rd = recurrence_data(geometric, 3)
    with pytest.raises(InsufficientOrder, match="recurrence data stops at 3, need 4"):
        build_by_recurrence(rd, 4)


@pytest.mark.parametrize("family", ["geometric", "exponential", "exp_binomial"])
def test_recurrence_data_is_the_once_rounded_closed_form(family, request):
    src = request.getfixturevalue(family)
    d = [complex(v) for v in src.coeffs[:41]]
    rd = recurrence_data(src, 40)
    for k in range(1, 41):
        assert rd.c[k] == -d[k - 1] / d[k]
        assert rd.xi[k] == 1 / d[k]
        assert rd.g[k] == d[k] / d[k - 1]
        assert rd.f_rec[k] == -rd.g[k]
    assert rd.recur_lambda[2:] == tuple(d[k - 2] / d[k - 1] for k in range(2, 41))


FAMILIES = {"geometric": FamilySpec("geometric"), "exponential": FamilySpec("exponential"),
            "exp_binomial": FamilySpec("exp-binomial", b=1.0, a=(0.5,), family_lambda=(1.0,))}


@pytest.mark.parametrize("family", ["geometric", "exponential", "exp_binomial"])
def test_normalization_report(family):
    # Q_n = R_n by identity; only the rounding of each g_k shows
    src = realize(FAMILIES[family], 80)
    report = check_normalization(build_system(src, 80), recurrence_data(src, 80))
    assert report.K == 80
    assert report.max_rel_deviation <= 1e-16
    assert len(report.per_index) == 81
    assert report.per_index[0] == 0.0


def _elementwise_normalization(system, rd):
    """per_index by the elementwise route: Q_n - R_n on every coefficient of every n."""
    Q = build_by_recurrence(rd, system.K)
    per = [float(np.max(np.abs(Q[n].coeffs - system.R[n].coeffs), initial=0.0)
                 / np.max(np.abs(system.R[n].coeffs)))
           for n in range(system.K + 1)]
    return per, max(per)


def _random_explicit(seed, K):
    rng = np.random.default_rng(seed)
    return FamilySpec("explicit", coeffs=[1] + list(rng.normal(size=K) + 1j * rng.normal(size=K)),
                      radius=1.0)


SPECS = {**FAMILIES, **{f"random{s}": _random_explicit(s, 80) for s in range(4)}}


# at scale the stock families only; exponential stops at K = 170
@pytest.mark.parametrize("name, K", [(name, K) for name in SPECS for K in (20, 40, 80)]
                         + [(name, 160) for name in FAMILIES]
                         + [("geometric", 320), ("exp_binomial", 320)])
def test_normalization_is_bitwise_the_elementwise_route(name, K):
    src = realize(SPECS[name], K)
    system = build_system(src, K)
    report = check_normalization(system, recurrence_data(src, K))
    per, worst = _elementwise_normalization(system, recurrence_data(src, K))
    assert [v.hex() for v in report.per_index] == [v.hex() for v in per]
    assert report.max_rel_deviation.hex() == worst.hex()


def test_normalization_rounds_one_coefficient_per_step(monkeypatch):
    src = realize(_random_explicit(7, 30), 30)
    system, rd = build_system(src, 30), recurrence_data(src, 30)
    want = check_normalization(system, rd)
    rounded = []
    monkeypatch.setattr(systems.exact, "to_complex",
                        lambda v, den: rounded.append(den) or to_complex(v, den))
    monkeypatch.setattr(systems, "build_by_recurrence", None)
    monkeypatch.setattr(systems, "two_step", None)
    monkeypatch.setattr(LaurentPoly, "from_exact", None)
    assert check_normalization(build_system(src, 30), rd) == want
    assert len(rounded) == 30


@pytest.mark.parametrize("k", [2, 3, 10])
def test_normalization_refuses_data_that_is_not_the_sources_own(k):
    src = realize(_random_explicit(3, 12), 12)
    rd = recurrence_data(src, 12)
    # a change in the real part, or only in the imaginary part, of f^rec_k
    for step in (2.0 ** -40, 2.0 ** -40 * 1j):
        f_rec = list(rd.f_rec)
        f_rec[k] += step
        with pytest.raises(InvalidParams, match=rf"^Q_{k} changes coefficient 1 of Q_{k - 1};"):
            check_normalization(build_system(src, 12),
                                dataclasses.replace(rd, f_rec=tuple(f_rec)))
    # f^rec_1 multiplies Q_{-1} = 0, so any value is the source's own
    free = dataclasses.replace(rd, f_rec=(0j, 7.5 - 2j, *rd.f_rec[2:]))
    assert check_normalization(build_system(src, 12), free) == \
        check_normalization(build_system(src, 12), rd)


@pytest.mark.parametrize("field, k", [("g", 12), ("f_rec", 1), ("f_rec", 12)])
def test_normalization_refuses_a_non_finite_value_before_any_step(field, k):
    # as the recurrence reads its data: a non-finite g_k or f^rec_k, even the free f^rec_1,
    # is refused ahead of the changed f^rec_2 that step 2 would refuse
    src = realize(_random_explicit(3, 12), 12)
    rd = recurrence_data(src, 12)
    data = {"g": list(rd.g), "f_rec": list(rd.f_rec)}
    data["f_rec"][2] += 1
    data[field][k] = math.nan
    with pytest.raises(InvalidParams, match=r"^non-finite value \(nan\+0j\)"):
        check_normalization(build_system(src, 12),
                            dataclasses.replace(rd, **{f: tuple(v) for f, v in data.items()}))


def _first_changing_step(rd, K):
    """The first n whose exact Q_n, as f_n = Q_n x^ceil(n/2), changes a term of f_{n-1} below x^n."""
    Q = build_by_recurrence(rd, K)
    for n in range(1, K + 1):
        added = Q[n].shift(math.ceil(n / 2)) - Q[n - 1].shift(math.ceil((n - 1) / 2))
        if added and added.min_exponent < n:
            return n
    return None


coefficient = st.floats(0.125, 8) | st.floats(-8, -0.125)


@given(st.one_of(st.lists(coefficient, min_size=1, max_size=14),
                 st.lists(st.builds(complex, coefficient, coefficient), min_size=1, max_size=14)),
       st.lists(st.tuples(st.integers(1, 14), st.sampled_from([1, 1j]), st.floats(-1, 1)),
                max_size=3))
@settings(max_examples=100, deadline=None)
def test_normalization_refuses_where_the_recurrence_changes_a_carried_coefficient(d, changes):
    # the refusal is the proof's, not a recurrence run: it must name the first step at which
    # the exact recurrence changes a coefficient it was handed, and pass data where none does
    K = len(d)
    src = realize(FamilySpec("explicit", coeffs=[1, *d], radius=1.0), K)
    system, rd = build_system(src, K), recurrence_data(src, K)
    f_rec = list(rd.f_rec)
    for k, unit, step in changes:   # a real or an imaginary change of f^rec_k, k in 1..K
        f_rec[1 + (k - 1) % K] += unit * step
    changed = dataclasses.replace(rd, f_rec=tuple(f_rec))
    n = _first_changing_step(changed, K)
    if n is None:
        assert check_normalization(system, changed) == check_normalization(system, rd)
    else:
        with pytest.raises(InvalidParams, match=rf"^Q_{n} changes coefficient 1 of Q_{n - 1};"):
            check_normalization(system, changed)


def test_recurrence_substitution_leaves_zero_residual(exp_binomial):
    # odd step: Q_{2n+1} - (x^{-1} + g) Q_{2n} - f Q_{2n-1} = 0
    # even step: Q_{2n+2} - (1 + g x) Q_{2n+1} - f Q_{2n} = 0
    rd = recurrence_data(exp_binomial, 16)
    q = build_by_recurrence(rd, 16)
    for k in range(1, 17):
        if k % 2 == 1:
            step = LaurentPoly({-1: 1, 0: rd.g[k]})
        else:
            step = LaurentPoly({0: 1, 1: rd.g[k]})
        prev2 = q[k - 2] if k >= 2 else LaurentPoly()
        resid = q[k] - step * q[k - 1] - rd.f_rec[k] * prev2
        assert resid == LaurentPoly()


def _data(g, f_rec):
    """RecurrenceData carrying only g and f_rec; index 0 is the unused slot."""
    K = len(g) - 1
    ones = (1.0,) * (K + 1)
    return RecurrenceData(c=ones, recur_lambda=ones, xi=ones, g=g, f_rec=f_rec, K=K)


def _gaussian(z):
    return Fraction(z.real), Fraction(z.imag)


def _gaussian_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _exact_recurrence(g, f_rec):
    """Q_0..Q_K over Gaussian rationals, as {exponent: (re, im)}."""
    one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))

    def add(p, e, c):
        a = p.get(e, zero)
        p[e] = (a[0] + c[0], a[1] + c[1])

    prev, cur, out = {}, {0: one}, [{0: one}]
    for k in range(1, len(g)):
        gk, fk = _gaussian(complex(g[k])), _gaussian(complex(f_rec[k]))
        step = {}
        for e, c in cur.items():
            add(step, e - 1 if k % 2 == 1 else e, c)
            add(step, e if k % 2 == 1 else e + 1, _gaussian_mul(gk, c))
        for e, c in prev.items():
            add(step, e, _gaussian_mul(fk, c))
        prev, cur = cur, step
        out.append(step)
    return out


def test_recurrence_rounds_the_exact_sum_once():
    # Q_2 = x^-1 + (g_1 + g_2 + f_2) + g_1 g_2 x; summed in doubles,
    # 0.1 + 0.2 - 0.3 gives 5.55e-17, twice the exact 2.78e-17
    q = build_by_recurrence(_data((0, 0.1, 0.2), (0, -1, -0.3)), 2)
    assert q[2].coeff(0) == float(Fraction(0.1) + Fraction(0.2) - Fraction(0.3))
    assert q[2].coeff(1) == float(Fraction(0.1) * Fraction(0.2))
    assert q[2].coeff(-1) == 1


def test_complex_recurrence_rounds_the_exact_values_once():
    g = (0, 0.1 + 0.1j, 0.2 + 0.2j, 0.7 - 0.3j, -1.1 + 0.4j)
    f_rec = (0, -1, -0.3 - 0.3j, 0.25 + 1.5j, -0.6 - 0.2j)
    q = build_by_recurrence(_data(g, f_rec), 4)
    want = _exact_recurrence(g, f_rec)
    for qk, wk in zip(q, want):
        rounded = LaurentPoly({e: complex(float(re), float(im)) for e, (re, im) in wk.items()})
        assert qk.lo == rounded.lo and np.array_equal(qk.coeffs, rounded.coeffs)
    # the cancelling constant term of Q_2 is where the float loop is off
    assert q[2].coeff(0) == complex(float(Fraction(0.1) + Fraction(0.2) - Fraction(0.3)),
                                    float(Fraction(0.1) + Fraction(0.2) - Fraction(0.3)))


parts = st.floats(min_value=-8, max_value=8, allow_nan=False)


@given(st.one_of(st.lists(parts, max_size=12),
                 st.lists(st.builds(complex, parts, parts), max_size=12)),
       st.builds(complex, parts, parts))
@settings(max_examples=60, deadline=None)
def test_two_step_on_a_sources_own_data_carries_every_coefficient(g, f1):
    # f^rec_k = -g_k for k >= 2: coefficient i of Q_n is g_1 ... g_i for every n >= i
    f_rec = [f1] + [-v for v in g[1:]]
    products = [(Fraction(1), Fraction(0))]
    for v in g:
        products.append(_gaussian_mul(products[-1], _gaussian(complex(v))))
    for n, q in enumerate(systems.two_step(g, f_rec), start=1):
        # a zero g_i trims the top end, so compare exponent by exponent
        lo, den = -math.ceil(n / 2), q.denominator
        assert q.lo == lo and q.max_exponent <= lo + n
        num = dict(enumerate(q.numerators, start=q.lo))
        assert [(Fraction(c.real, den), Fraction(c.imag, den))
                for c in (num.get(lo + i, 0) for i in range(n + 1))] == products[:n + 1]


def _reference_two_step(g, f_rec):
    """Reference for `two_step`: each term of g_k Q_{k-1} and of f_k Q_{k-2} shifted to the
    step's denominator and added on its own, with no alignment, factoring or skipped add."""
    steps = [(exact.split(a), exact.split(b)) for a, b in zip(g, f_rec)]
    lo0, q0, s0 = 0, [], 0      # Q_{-1} = 0
    lo1, q1, s1 = 0, [1], 0     # Q_0 = 1
    for k, ((gk, sg), (fk, sf)) in enumerate(steps, start=1):
        scale = max(sg + s1, sf + s0)
        u, v, w = scale - s1, scale - sg - s1, scale - sf - s0
        lo = lo1 - 1 if k % 2 == 1 else lo1
        q = [a << u for a in q1] + [0]
        for i, a in enumerate(q1, start=1):
            q[i] += (gk * a) << v
        for i, a in enumerate(q0, start=lo0 - lo):
            q[i] += (fk * a) << w
        yield LaurentPoly.from_exact(lo, q, 1 << scale)
        lo0, q0, s0 = lo1, q1, s1
        lo1, q1, s1 = lo, q, scale


def _exact_form(q):
    return q.lo, [(c.real, c.imag) for c in q.numerators], q.denominator


# m 2**e for m in [-2, 2] and e in [-60, 60], with zeros, real or complex
wide = st.one_of(st.just(0.0), st.builds(math.ldexp, st.floats(-2, 2, allow_nan=False),
                                         st.integers(-60, 60)))
wide_values = st.one_of(wide, st.builds(complex, wide, wide))


@given(st.lists(st.tuples(wide_values, wide_values), max_size=14), st.booleans())
@example([(1.0, -0.5), (3.0, -0.75), (0.5 + 0.25j, -1 - 0.5j), (2.0 ** 60, -(2.0 ** -60))], False)
@settings(max_examples=150, deadline=None)
def test_two_step_is_bitwise_the_reference_loop(steps, own):
    # general g and f^rec, or a source's own f^rec_k = -g_k; zeros in both.  The
    # example's f^rec_k has minus the numerator of g_k over another power of two
    g = [a for a, _ in steps]
    f_rec = [-a for a in g] if own else [b for _, b in steps]
    got = list(systems.two_step(g, f_rec))
    want = list(_reference_two_step(g, f_rec))
    assert [_exact_form(q) for q in got] == [_exact_form(q) for q in want]
