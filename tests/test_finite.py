"""Finite recurrence systems, triangular moment solves, atomic measures."""

import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from olaurent import (
    FamilySpec,
    FiniteSystemSpec,
    FunctionalSolve,
    LaurentPoly,
    apply_L,
    build_Q,
    build_atomic_measure,
    build_system,
    exact_moments,
    realize,
    represent_functional,
    solve_moments,
    two_step,
)
from olaurent import cli, finite
from olaurent.finite import SOLVE_GUARD_BITS
from olaurent.errors import (
    InsufficientOrder,
    InvalidParams,
    RadiusInvalid,
    RepresentationCondFailed,
    WindowExceeded,
)

# f = (1 - 6z)/(1 - z/2): nonzero coefficients, radius 2, and mu_{-m} != 0
# at every level, so the whole pipeline runs without hitting a = 0
RATIONAL = FamilySpec(
    "explicit", coeffs=[1] + [-5.5 * 0.5 ** (k - 1) for k in range(1, 25)], radius=2.0)


def test_spec_pads_to_full_length():
    spec = FiniteSystemSpec(n_cap=2, g=(2.0,), f_rec=(-3.0,))
    assert len(spec.g) == len(spec.f_rec) == 8
    assert spec.g == (2.0,) + (1.0,) * 7
    assert spec.f_rec == (-3.0,) + (-1.0,) * 7


def test_spec_validation():
    with pytest.raises(InvalidParams):
        FiniteSystemSpec(n_cap=0)
    with pytest.raises(InvalidParams):
        FiniteSystemSpec(n_cap=1, g=(1.0,) * 5)
    with pytest.raises(InvalidParams):
        FiniteSystemSpec(n_cap=1, f_rec=(-1.0, 0.0))


def test_degenerate_leading_coefficient_detected():
    # g_2 = 0 kills the x^1 coefficient of Q_2, the pivot of mu_1
    with pytest.raises(InvalidParams):
        FiniteSystemSpec(n_cap=1, g=(1.0, 0.0))


def test_spec_json_roundtrip():
    spec = FiniteSystemSpec(n_cap=2, g=(1 + 2j, 0.5), f_rec=(-1.0, 2j))
    again = FiniteSystemSpec.from_json(spec.to_json())
    assert again == spec
    with pytest.raises(InvalidParams):
        FiniteSystemSpec.from_json({"g": [1, 2]})


def test_q0_is_always_one():
    assert build_Q(FiniteSystemSpec(n_cap=1))[0] == LaurentPoly({0: 1})


def test_first_step_uses_g1():
    q = build_Q(FiniteSystemSpec(n_cap=1, g=(1.0,)))
    assert q[1] == LaurentPoly({-1: 1, 0: 1})


def test_build_q_is_the_exact_recurrence():
    # Q_2's constant term is 0.1 + 0.2 - 0.3 exactly, which no rounded Q_2 holds
    spec = FiniteSystemSpec(n_cap=1, g=(0.1, 0.2, 0.5 + 0.25j), f_rec=(-1.0, -0.3, 0.75j))
    q = build_Q(spec)
    assert len(q) == 5
    for got, want in zip(q[1:], two_step(spec.g, spec.f_rec), strict=True):
        assert (got.lo, got.numerators, got.denominator) == \
            (want.lo, want.numerators, want.denominator)
    assert q[2].coeff(0) == float(Fraction(0.1) + Fraction(0.2) - Fraction(0.3))


def test_shape_alternates_between_extremes():
    q = build_Q(FiniteSystemSpec(n_cap=2))
    for k, poly in enumerate(q):
        if k == 0:
            continue
        if k % 2 == 1:
            assert poly.min_exponent == -(k + 1) // 2
            assert poly.coeff(poly.min_exponent) == 1
        else:
            assert poly.max_exponent == k // 2


def test_derived_spec_reproduces_source_system(geometric):
    # geometric has xi_k d_k = 1, so the recurrence output IS R_k
    spec = FiniteSystemSpec.from_partial_sums(geometric, 2)
    q = build_Q(spec)
    sysK = build_system(geometric, 8)
    for k in range(9):
        diff = q[k] - sysK.R[k]
        assert all(abs(c) <= 1e-12 for _, c in diff.items())


@pytest.mark.parametrize("family, ncap, tol", [
    (FamilySpec("geometric"), 2, 1e-12),
    # pivots down to 1/32!: any rounding of Q_k before the solve is
    # amplified far past these tolerances
    (FamilySpec("exponential"), 4, 1e-15),
    (FamilySpec("exponential"), 6, 1e-15),
    (FamilySpec("exponential"), 8, 1e-15),
], ids=["geometric-2", "exponential-4", "exponential-6", "exponential-8"])
def test_solved_moments_match_exact_moments(family, ncap, tol):
    src = realize(family, 4 * ncap)
    spec = FiniteSystemSpec.from_partial_sums(src, ncap)
    solved = solve_moments(spec, 2 * ncap)
    exact = exact_moments(src, 2 * ncap)
    assert solved[0] == 1
    for m in range(-2 * ncap, 2 * ncap + 1):
        assert abs(solved[m] - exact[m]) <= tol


def test_solved_moments_match_exact_moments_rational():
    src = realize(RATIONAL, 24)
    spec = FiniteSystemSpec.from_partial_sums(src, 3)
    solved = solve_moments(spec, 6)
    exact = exact_moments(src, 6)
    for m in range(-6, 7):
        assert abs(solved[m] - exact[m]) <= 1e-10 * (1 + abs(exact[m]))


def test_solve_needs_enough_polynomials():
    spec = FiniteSystemSpec(n_cap=1)
    with pytest.raises(InsufficientOrder, match=r"need Q_0..Q_6, have 4"):
        solve_moments(spec, 3)


def test_functional_solve_normalizes(geometric):
    mom = exact_moments(geometric, 2)
    solve = FunctionalSolve.from_moments(mom, 1)
    assert solve.a == -1  # mu_{-1} of the geometric family
    assert solve.s[0] == 1
    assert len(solve.s) == 3
    assert solve.s[1] == -1  # mu_0 / a


def test_functional_solve_guards(geometric):
    mom = exact_moments(geometric, 3)
    with pytest.raises(InvalidParams):
        FunctionalSolve.from_moments(mom, 0)
    with pytest.raises(WindowExceeded):
        FunctionalSolve.from_moments(mom, 4)
    # mu_{-2} = 0 for the geometric family: representation condition fails
    with pytest.raises(RepresentationCondFailed):
        FunctionalSolve.from_moments(mom, 2)


def test_trivial_measure_is_uniform():
    m = build_atomic_measure([1.0, 0.0, 0.0])
    assert m.radius == 1.0
    assert np.allclose(m.weights, 1 / 5)
    assert abs(m.moment(0) - 1) <= 1e-15
    assert abs(m.moment(1)) <= 1e-15
    assert abs(m.moment(2)) <= 1e-15
    for k in (-1, m.moment_window + 1):
        with pytest.raises(WindowExceeded):
            m.moment(k)


def test_three_atom_measure_by_hand():
    # s = (1, 1/2): r doubles once, then w = (1/2, 1/4, 1/4)
    m = build_atomic_measure([1.0, 0.5])
    assert m.radius == 2.0
    assert np.allclose(sorted(m.weights), [0.25, 0.25, 0.5])
    assert abs(m.moment(1) - 0.5) <= 1e-15


@pytest.mark.parametrize("seed", range(6))
def test_measure_moments_and_positivity(seed):
    rng = np.random.default_rng(seed)
    s = np.concatenate(([1.0 + 0j], rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)))
    m = build_atomic_measure(s)
    M = len(m.atoms)
    assert M == 13
    assert np.all(m.weights >= 1 / (2 * M))
    assert abs(sum(m.weights) - 1) <= 1e-12
    for k in range(7):
        # the verification sum itself rounds at scale r^k
        assert abs(m.moment(k) - s[k]) <= 1e-14 * (1 + m.radius ** k)


def test_measure_input_validation():
    with pytest.raises(InvalidParams):
        build_atomic_measure([2.0, 0.5])
    with pytest.raises(InvalidParams):
        build_atomic_measure([])
    # a NaN or an infinity is refused by name, whatever its index
    for s, k in (([math.nan, 0.5], 0), ([1.0, math.nan], 1), ([1.0, math.inf], 1)):
        with pytest.raises(InvalidParams, match=rf"s_{k} = .* is not finite"):
            build_atomic_measure(s)


def test_a_measure_needs_every_field():
    # a measure without its exact numerators used to fail on first read
    with pytest.raises(TypeError, match="missing 5 required"):
        finite.AtomicMeasure(atoms=((1 + 0j, 1.0),), moment_window=1, radius=1.0)


def test_representation_reproduces_normalizing_moment(geometric):
    mom = exact_moments(geometric, 2)
    solve = FunctionalSolve.from_moments(mom, 1)
    measure = build_atomic_measure(solve.s)
    # L(x^{-1}) = a and L(1) = 1 by construction
    got_a = represent_functional(solve, measure, LaurentPoly({-1: 1}))
    assert abs(got_a - solve.a) <= 1e-12
    got_one = represent_functional(solve, measure, LaurentPoly({0: 1}))
    assert abs(got_one - 1) <= 1e-12


def test_representation_kills_first_polynomial(geometric):
    spec = FiniteSystemSpec.from_partial_sums(geometric, 1)
    q = build_Q(spec)
    solve = FunctionalSolve.from_moments(solve_moments(spec, 2), 1)
    measure = build_atomic_measure(solve.s)
    assert abs(represent_functional(solve, measure, q[1])) <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_representation_matches_moment_sums(seed):
    src = realize(RATIONAL, 24)
    solve = FunctionalSolve.from_moments(exact_moments(src, 6), 3)
    measure = build_atomic_measure(solve.s)
    mom = exact_moments(src, 3)
    rng = np.random.default_rng(seed)
    for _ in range(25):
        terms = {int(e): complex(*rng.normal(size=2)) for e in rng.integers(-3, 4, size=4)}
        p = LaurentPoly(terms)
        expect = apply_L(p, mom)
        got = represent_functional(solve, measure, p)
        assert abs(got - expect) <= 1e-9 * (1 + abs(expect))


def test_representation_window_guards(geometric):
    mom = exact_moments(geometric, 2)
    solve = FunctionalSolve.from_moments(mom, 1)
    measure = build_atomic_measure(solve.s)
    with pytest.raises(WindowExceeded):
        represent_functional(solve, measure, LaurentPoly({2: 1}))
    narrow = dataclasses.replace(measure, moment_window=1)
    with pytest.raises(InvalidParams):
        represent_functional(solve, narrow, LaurentPoly({0: 1}))
    assert represent_functional(solve, measure, LaurentPoly()) == 0j


def test_orthogonality_survives_the_measure_representation():
    # products Q_k Q_n for k, n <= 2n_cap leave the base window, so the
    # representation must run at the doubled level with a doubled-window
    # measure; through it the solved functional must stay diagonal
    ncap = 2
    spec = FiniteSystemSpec.from_partial_sums(
        realize(FamilySpec("exponential"), 4 * ncap), ncap)
    q = build_Q(spec)
    table = solve_moments(spec, 2 * ncap)
    solve = FunctionalSolve.from_moments(table, 2 * ncap)
    measure = build_atomic_measure(solve.s)
    for k in range(2 * ncap + 1):
        for n in range(k, 2 * ncap + 1):
            val = represent_functional(solve, measure, q[k] * q[n])
            if k == n:
                assert abs(val) >= 1e-8
            else:
                assert abs(val) <= 1e-9


def _rational_Q(g, f_rec):
    """Q_0..Q_K of the two-step recurrence in exact complex rationals.

    Each Q_k maps exponent to (re, im) Fractions of the double inputs.
    """
    zero = (Fraction(0), Fraction(0))
    Q = [{}, {0: (Fraction(1), Fraction(0))}]      # Q_{-1}, Q_0
    for k, (gk, fk) in enumerate(zip(g, f_rec), start=1):
        gr, gi, fr, fi = (Fraction(v) for v in (gk.real, gk.imag, fk.real, fk.imag))
        # odd k: (x^{-1} + g) Q_{k-1}; even k: (1 + g x) Q_{k-1}
        unit = -1 if k % 2 == 1 else 0
        terms = [(unit, 1, 0, Q[-1]), (unit + 1, gr, gi, Q[-1]), (0, fr, fi, Q[-2])]
        new = {}
        for shift, cr, ci, poly in terms:
            for e, (pr, pi) in poly.items():
                nr, ni = new.get(e + shift, zero)
                new[e + shift] = (nr + cr * pr - ci * pi, ni + cr * pi + ci * pr)
        Q.append(new)
    return Q[1:]


def _rational_solve(Q, window):
    """The triangular solve in exact complex rationals, as (re, im) Fractions."""
    mu = {0: (Fraction(1), Fraction(0))}
    for k in range(1, 2 * window + 1):
        new = -(k + 1) // 2 if k % 2 == 1 else k // 2
        ar = ai = Fraction(0)
        for e, (cr, ci) in Q[k].items():
            if e != new:
                mr, mi = mu[e]
                ar += cr * mr - ci * mi
                ai += cr * mi + ci * mr
        pr, pi = Q[k][new]
        den = pr * pr + pi * pi
        mu[new] = (-(ar * pr + ai * pi) / den, (ar * pi - ai * pr) / den)
    return mu


@pytest.mark.parametrize("seed", range(3))
def test_solve_is_within_guard_of_the_exact_rational_solution(seed):
    rng = np.random.default_rng(seed)
    g = tuple(complex(*rng.uniform(0.2, 1.2, 2)) for _ in range(12))
    f = tuple(complex(*rng.uniform(-1.2, -0.2, 2)) for _ in range(12))
    table = solve_moments(FiniteSystemSpec(n_cap=3, g=g, f_rec=f), 6)
    exact = _rational_solve(_rational_Q(g, f), 6)
    tol = Fraction(1, 2 ** SOLVE_GUARD_BITS)
    for m in range(-6, 7):
        re, im = exact[m]
        assert abs(Fraction(table.values[m + 6].real, table.denominator) - re) <= tol
        assert abs(Fraction(table.values[m + 6].imag, table.denominator) - im) <= tol


def test_build_q_rounds_the_exact_recurrence_once():
    # Q_2 = x^-1 + (g_1 + g_2 + f_2) + g_1 g_2 x; summed in doubles,
    # 0.1 + 0.2 - 0.3 gives 5.55e-17, twice the exact 2.78e-17
    q = build_Q(FiniteSystemSpec(n_cap=1, g=(0.1, 0.2), f_rec=(-1.0, -0.3)))
    exact = Fraction(0.1) + Fraction(0.2) - Fraction(0.3)
    assert q[2].coeff(0) == float(exact)
    assert q[2].coeff(1) == float(Fraction(0.1) * Fraction(0.2))


# -- the atomic measure in fixed point ---------------------------------------

BENCH_JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "bench_jobs.py"


def _bench_jobs():
    """perfbench/bench_jobs.py, loaded by path; it imports only olaurent and the standard library."""
    spec = importlib.util.spec_from_file_location("bench_jobs", BENCH_JOBS)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_jobs", module)   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _finite_report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("bits", [64, 200, 600])
def test_unit_roots_are_the_per_root_rounding(bits):
    # each root alone, 64 bits past the target, rounded to the nearest int
    worst = 0
    for m in range(3, 66):
        with mpmath.workprec(bits + 64):
            ref = [mpmath.expjpi(mpmath.mpf(2 * q) / m) for q in range(m)]
            ref = [(int(mpmath.nint(mpmath.ldexp(z.real, bits))),
                    int(mpmath.nint(mpmath.ldexp(z.imag, bits)))) for z in ref]
        got = finite._unit_roots(m, bits)
        worst = max(worst, *(max(abs(a - c), abs(b - d)) for (a, b), (c, d) in zip(got, ref)))
    assert worst <= 1


@pytest.mark.parametrize("bits", [100, 300, 1000, 3000])
def test_primitive_root_is_the_wide_mpmath_root_rounded(bits):
    # an independent construction: mpmath at bits + 16 bits, rounded once to bits
    for m in range(3, 80):
        with mpmath.workprec(bits + 16):
            omega = mpmath.expjpi(mpmath.mpf(2) / m)
            ref = (int(mpmath.nint(mpmath.ldexp(omega.real, bits))),
                   int(mpmath.nint(mpmath.ldexp(omega.imag, bits))))
        z = finite._primitive_root(m, bits)
        assert (z.real, z.imag) == ref, m


def _mpmath_atoms(s, radius, dps):
    """The equal-angle atoms of s, summed in mpmath at `dps` digits."""
    n, m = len(s) - 1, 2 * len(s) - 1
    with mpmath.workdps(dps):
        roots = mpmath.unitroots(m)
        r = mpmath.mpf(radius)
        t = [mpmath.mpc(s[k]) * r ** -k for k in range(n + 1)]
        weights = [(1 + 2 * mpmath.fsum((t[k] * roots[-j * k % m]).real
                                        for k in range(1, n + 1))) / m for j in range(m)]
        return [(complex(r * roots[j]), float(weights[j])) for j in range(m)]


def _bits(atoms):
    return [(z.real.hex(), z.imag.hex(), w.hex()) for z, w in atoms]


@pytest.mark.parametrize("n", range(1, 17))
def test_atoms_are_bitwise_those_of_a_wide_mpmath_construction(n):
    rng = np.random.default_rng(n)
    s = [1.0] + [complex(*rng.uniform(-1, 1, 2)) for _ in range(n)]
    measure = build_atomic_measure(s)
    assert _bits(measure.atoms) == _bits(_mpmath_atoms(s, measure.radius, 2 * measure.precision))


def _complex_fraction(v, den=1):
    return Fraction(v.real) / den, Fraction(v.imag) / den


@pytest.mark.parametrize("family, level", [(FamilySpec("exponential"), 3), (RATIONAL, 2)])
def test_representation_is_the_exact_sum_rounded_once(family, level):
    solve = FunctionalSolve.from_moments(exact_moments(realize(family, 24), 2 * level), level)
    measure = build_atomic_measure(solve.s)
    moments = [_complex_fraction(v, measure.denominator) for v in measure.wide_moments]
    a_re, a_im = _complex_fraction(solve.a)
    rng = np.random.default_rng(level)
    for _ in range(20):
        p = LaurentPoly({int(e): complex(*rng.normal(size=2))
                         for e in rng.integers(-level, level + 1, size=4)})
        re = im = Fraction(0)
        for e, c in zip(range(p.min_exponent, p.max_exponent + 1), p.coeffs.tolist()):
            m_re, m_im = moments[e + level]
            c_re, c_im = Fraction(c.real), Fraction(c.imag)
            re += c_re * m_re - c_im * m_im
            im += c_re * m_im + c_im * m_re
        expect = complex(float(a_re * re - a_im * im), float(a_re * im + a_im * re))
        assert represent_functional(solve, measure, p) == expect


def test_the_exponential_ncap_8_measure_moments_are_within_1e_30():
    rep = _finite_report(["finite", "--family", "exponential", "--ncap", "8"])
    assert rep["moment_residual_max"] <= 1e-30


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_moment_residual_is_within_the_stated_bound(seed):
    bench_jobs = _bench_jobs()
    deck = next(bench_jobs.decks("finite", seed))
    for job in deck:
        rep = _finite_report(bench_jobs.cli_argv(job))
        assert 0 < rep["moment_error_bound"] <= 1e-30
        assert rep["moment_residual_max"] <= rep["moment_error_bound"], job


@pytest.mark.parametrize("seed", range(12))
def test_bound_holds_for_radii_up_to_2_96(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    rho = 2.0 ** rng.uniform(1, 94)
    s = [1.0] + [complex(*rng.uniform(-1, 1, 2)) * rho ** k for k in range(1, n + 1)]
    measure = build_atomic_measure(s)
    assert 2.0 ** 3 <= measure.radius <= 2.0 ** 96
    worst = max(abs(measure.moment(k) - s[k]) for k in range(n + 1))
    assert worst <= measure.error_bound


def test_an_s_0_that_misses_one_is_refused():
    # criterion 7's complex spec 0: a / a in complex doubles is 1 - 3.97e-17j,
    # so from_moments sets s_0 = 1 exactly; the weights are built for
    # s_0 = 1, and a direct caller's s_0 that misses it is refused
    rng = np.random.default_rng(77)
    g = tuple(1 + 0.05 * complex(*rng.uniform(-1, 1, 2)) for _ in range(12))
    f = tuple(-1 + 0.05 * complex(*rng.uniform(-1, 1, 2)) for _ in range(12))
    table = solve_moments(FiniteSystemSpec(3, g, f), 6)
    solve = FunctionalSolve.from_moments(table, 3)
    assert table[-3] / solve.a != 1
    assert solve.s[0] == 1 and math.copysign(1.0, solve.s[0].imag) == 1.0
    assert build_atomic_measure(solve.s).error_bound < 1e-38
    with pytest.raises(InvalidParams, match=r"s_0 must be 1, got \(1-3.9\d*e-17j\)"):
        build_atomic_measure((table[-3] / solve.a, *solve.s[1:]))


def test_a_functional_solve_checks_itself():
    # the level and a guards ran only in from_moments, and represent_functional
    # refused only an a that is exactly 0
    with pytest.raises(RepresentationCondFailed, match=r"\|a\| = \|mu\[-1\]\| = 1.000e-30"):
        FunctionalSolve(level=1, a=1e-30, s=(1, 0.5, 0.25))
    with pytest.raises(InvalidParams, match="level must be >= 1"):
        FunctionalSolve(level=0, a=1.0, s=(1,))
    assert FunctionalSolve(level=1, a=0.5, s=[1, 0.5, 0.25]).s == (1, 0.5, 0.25)


def test_a_spec_whose_radius_search_lands_at_2_96():
    rep = _finite_report(["finite", "--spec", '{"n_cap":1,"g":[[1e-19,0],[1e-19,0]]}'])
    assert rep["radius"] == 2.0 ** 96
    assert rep["moment_residual_max"] <= rep["moment_error_bound"]


def test_runaway_radius_search_states_its_sum():
    with pytest.raises(RadiusInvalid, match=r"= 1\.500e\+00 > 1/2 at r = 2\*\*120"):
        build_atomic_measure([1.0, 0.75 * 2.0 ** 120])
