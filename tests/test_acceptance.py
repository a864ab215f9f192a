"""Acceptance gate: eight end-to-end criteria with pinned tolerances.

Each test prints exactly one ``CRITERION n: PASS/FAIL`` line (visible
under ``pytest -s``) carrying the measured worst case, then asserts it.
Seeds, radii, and tolerances are frozen; a red line here is a real
property failure, not noise.
"""

from __future__ import annotations

import cmath
import time

import numpy as np
import pytest

from olaurent import (
    ContourSpec,
    FamilySpec,
    FiniteSystemSpec,
    FunctionalSolve,
    LaurentPoly,
    RepresentationCondFailed,
    apply_L,
    build_atomic_measure,
    build_by_recurrence,
    build_Q,
    build_system,
    check_laurent_genfun,
    check_partial_sum_genfun,
    contour_L,
    exact_moments,
    gram_matrix,
    realize,
    recurrence_data,
    represent_functional,
    rn_by_contour,
    solve_moments,
    specialized_L_exp_binomial,
)
from olaurent.cli import main as cli_main

EXP_BINOMIAL = dict(b=1.0, a=(0.5,), family_lambda=(1.0,))

# quadrature circle radius per family for the dual-route comparisons
CONTOUR_RADIUS = {"geometric": 0.5, "exponential": 0.8, "exp-binomial": 0.7}


def families():
    return [
        ("geometric", FamilySpec("geometric")),
        ("exponential", FamilySpec("exponential")),
        ("exp-binomial", FamilySpec("exp-binomial", **EXP_BINOMIAL)),
    ]


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def phase(rng) -> complex:
    return cmath.exp(2j * cmath.pi * rng.uniform())


def test_criterion_1_gram_orthogonality_three_families():
    K = 20
    parts, ok = [], True
    for name, fam in families():
        t0 = time.perf_counter()
        src = realize(fam, K)
        system = build_system(src, K)
        moments = exact_moments(src, K)
        gram = gram_matrix(system, moments)
        elapsed = time.perf_counter() - t0
        off = np.abs(gram - np.diag(np.diag(gram)))
        offmax = float(off.max())
        # the norms h_n come from the closed form G[2n, 2n] = d_{2n},
        # G[2n+1, 2n+1] = -d_{2n+2} on the source coefficients, never from the
        # matrix under test; they decay like 1/n! for the exponential family,
        # so every entry is held to its own scale sqrt(|h_n h_m|)
        h = np.array([src.coeff(n) if n % 2 == 0 else -src.coeff(n + 1)
                      for n in range(K + 1)])
        scaled = float(np.max(np.abs(gram - np.diag(h)) / np.sqrt(np.abs(np.outer(h, h)))))
        good = offmax <= 1e-10 and scaled <= 1e-10 and elapsed <= 5.0
        ok &= good
        parts.append(f"{name}: offdiag {offmax:.3e}, scaled |G - diag(h)| {scaled:.3e} "
                     f"(min|h| {np.min(np.abs(h)):.3e}), {elapsed:.2f}s")
    assert verdict(1, ok, "; ".join(parts))


def test_criterion_2_contour_route_matches_exact_route():
    N = 12
    parts, ok = [], True
    for name, fam in families():
        src = realize(fam, 64)
        system = build_system(src, N)
        moments = exact_moments(src, N)
        spec = ContourSpec(radius=CONTOUR_RADIUS[name], nodes=512)
        worst = 0.0
        for n in range(N + 1):
            for m in range(n, N + 1):
                p = system.R[n] * system.R[m]
                exact = apply_L(p, moments)
                quad = contour_L(p, src, spec)
                worst = max(worst, abs(quad - exact) / (1 + abs(exact)))
        ok &= worst <= 1e-9
        parts.append(f"{name}: {worst:.3e}")
    fam = FamilySpec("exp-binomial", **EXP_BINOMIAL)
    src = realize(fam, 64)
    system = build_system(src, N)
    moments = exact_moments(src, N)
    worst = 0.0
    for n in range(N + 1):
        for m in range(n, N + 1):
            p = system.R[n] * system.R[m]
            exact = apply_L(p, moments)
            quad = specialized_L_exp_binomial(p, fam, nodes=512)
            worst = max(worst, abs(quad - exact) / (1 + abs(exact)))
    ok &= worst <= 1e-9
    parts.append(f"specialized: {worst:.3e}")
    assert verdict(2, ok, "all R_n R_m, n,m <= 12, tol 1e-9: " + "; ".join(parts))


def test_criterion_3_functional_is_one_then_zero_on_the_basis():
    parts, ok = [], True
    for name, fam in families():
        src = realize(fam, 64)
        system = build_system(src, 20)
        moments = exact_moments(src, 10)
        spec = ContourSpec(radius=CONTOUR_RADIUS[name], nodes=512)
        worst_exact = worst_quad = 0.0
        for n in range(21):
            want = 1.0 if n == 0 else 0.0
            worst_exact = max(worst_exact, abs(apply_L(system.R[n], moments) - want))
            worst_quad = max(worst_quad, abs(contour_L(system.R[n], src, spec) - want))
        ok &= worst_exact <= 1e-10 and worst_quad <= 1e-10
        parts.append(f"{name}: exact {worst_exact:.3e}, contour {worst_quad:.3e}")
    assert verdict(3, ok, "L(R_0)=1, L(R_n)=0 for n<=20, tol 1e-10: " + "; ".join(parts))


def test_criterion_4_recurrence_route_reproduces_direct_route():
    K = 30
    parts, ok = [], True
    for name, fam in families():
        src = realize(fam, K)
        system = build_system(src, K)
        rd = recurrence_data(src, K)
        Q = build_by_recurrence(rd, K)
        worst = 0.0
        for n in range(K + 1):
            scaled = Q[n] * (rd.xi[n] * src.coeff(n))
            scale = max(abs(c) for _, c in system.R[n].items())
            dev = max(abs(scaled.coeff(e) - c) for e, c in system.R[n].items())
            dev = max(dev, max((abs(c) for e, c in scaled.items()
                                if system.R[n].coeff(e) == 0), default=0.0))
            worst = max(worst, dev / scale)
        ok &= worst <= 1e-11
        parts.append(f"{name}: {worst:.3e}")
    rd = recurrence_data(realize(FamilySpec("exponential"), K), K)
    fact, closed = 1.0, 0.0
    for k in range(1, K + 1):
        fact *= k
        closed = max(closed,
                     abs(rd.xi[k] - fact) / fact,
                     abs(rd.g[k] - 1.0 / k) * k,
                     abs(rd.f_rec[k] + 1.0 / k) * k)
    ok &= closed <= 1e-13
    parts.append(f"exponential closed forms: {closed:.3e}")
    assert verdict(4, ok, "Q~_n (xi_n d_n) = R_n for n<=30, tol 1e-11 rel: " + "; ".join(parts))


def test_criterion_5_generating_function_residuals_within_tails():
    rng = np.random.default_rng(55)
    ladder = (10, 20, 40, 80)
    parts, ok = [], True
    for name, fam in families():
        src = realize(fam, 80)
        system = build_system(src, 80)
        rho = min(src.radius, 3.0)
        worst_ps = worst_lp = 0.0
        bound_fails = mono_fails = 0
        for _ in range(20):
            x = rho * rng.uniform(0.25, 0.6) * phase(rng)
            t = rng.uniform(0.25, 0.7) * phase(rng)
            z = abs(cmath.sqrt(x)) * rng.uniform(0.25, 0.6) * phase(rng)

            ps = check_partial_sum_genfun(system, x, t, 80)
            floor = 1e-13 * (1 + abs(ps.lhs))
            if ps.residual > ps.tail_bound + floor:
                bound_fails += 1
            worst_ps = max(worst_ps, ps.residual)

            for root in (None, -cmath.sqrt(x)):
                lp = check_laurent_genfun(system, x, z, 80, sqrt_x=root)
                floor = 1e-13 * (1 + abs(lp.lhs))
                if lp.residual > lp.tail_bound + floor:
                    bound_fails += 1
                worst_lp = max(worst_lp, lp.residual)

            for check, point in ((check_partial_sum_genfun, t), (check_laurent_genfun, z)):
                prev = None
                for terms in ladder:
                    res = check(system, x, point, terms)
                    floor = 1e-13 * (1 + abs(res.lhs))
                    if prev is not None and res.residual > prev and res.residual > floor:
                        mono_fails += 1
                    prev = res.residual
        ok &= bound_fails == 0 and mono_fails == 0
        parts.append(f"{name}: worst residuals {worst_ps:.2e}/{worst_lp:.2e}, "
                     f"bound misses {bound_fails}, monotonicity misses {mono_fails}")
    assert verdict(5, ok, "20 samples/family, terms=80, both roots: " + "; ".join(parts))


def test_criterion_6_series_extraction_by_contour_matches_direct():
    rng = np.random.default_rng(20260815)
    parts, ok = [], True
    for name, fam in families():
        src = realize(fam, 64)
        system = build_system(src, 20)
        rho = min(src.radius, 3.0)
        worst = 0.0
        for _ in range(10):
            x = rho * rng.uniform(0.3, 0.6) * phase(rng)
            for n in range(21):
                direct = system.R[n](x)
                quad = rn_by_contour(src, n, x, nodes=512)
                worst = max(worst, abs(quad - direct))
        ok &= worst <= 1e-8
        parts.append(f"{name}: {worst:.3e}")
    assert verdict(6, ok, "n<=20, 10 random x/family, tol 1e-8: " + "; ".join(parts))


def test_criterion_7_finite_systems_measure_and_representation(tmp_path):
    ncap = 3
    specs = []
    for name, fam in families():
        specs.append((f"derived/{name}", FiniteSystemSpec.from_partial_sums(
            realize(fam, 4 * ncap), ncap)))
    rng = np.random.default_rng(77)
    for i in range(5):
        g = tuple(1 + 0.05 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(4 * ncap))
        f = tuple(-1 + 0.05 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(4 * ncap))
        specs.append((f"random/{i}", FiniteSystemSpec(n_cap=ncap, g=g, f_rec=f)))

    ok = True
    wmin_ratio, worst_mom, worst_off, diag_min = np.inf, 0.0, 0.0, np.inf
    degenerate = []
    for label, spec in specs:
        Q = build_Q(spec)
        table = solve_moments(spec, 2 * ncap)
        try:
            solves = [FunctionalSolve.from_moments(table, ncap),
                      FunctionalSolve.from_moments(table, 2 * ncap)]
        except RepresentationCondFailed as exc:
            # vanishing a must surface as exit code 4, never as numbers
            ok &= exc.exit_code == 4
            degenerate.append(label)
            continue
        for fs in solves:
            measure = build_atomic_measure(fs.s)
            m = len(measure.atoms)
            wmin_ratio = min(wmin_ratio, float(measure.weights.min()) * 2 * m)
            ok &= bool(measure.weights.min() >= 1 / (2 * m))
            res = max(abs(measure.moment(k) - fs.s[k]) for k in range(len(fs.s)))
            worst_mom = max(worst_mom, res)
            ok &= res <= 1e-10
        fs = solves[1]
        measure = build_atomic_measure(fs.s)
        for k in range(2 * ncap + 1):
            for n in range(k, 2 * ncap + 1):
                val = abs(represent_functional(fs, measure, Q[k] * Q[n]))
                if k == n:
                    diag_min = min(diag_min, val)
                else:
                    worst_off = max(worst_off, val)
    ok &= worst_off <= 1e-9 and diag_min >= 1e-8

    # the degenerate spec must also exit 4 through the CLI, here the
    # geometric-derived one (its deep moments vanish identically)
    code = cli_main(["finite", "--family", '{"kind": "geometric"}',
                     "--ncap", str(ncap), "--out", str(tmp_path / "r.json")])
    ok &= code == 4 and degenerate == ["derived/geometric"]
    assert verdict(
        7, ok,
        f"weights >= 1/(2M) (min ratio {wmin_ratio:.3f}), moment residuals "
        f"{worst_mom:.3e} (tol 1e-10), gram offdiag {worst_off:.3e} (tol 1e-9), "
        f"min diag {diag_min:.3e}; a=0 -> exit {code} for {degenerate}")


def test_criterion_8_solved_moments_match_exact_moments():
    parts, ok = [], True
    for name, fam in families():
        src = realize(fam, 12)
        spec = FiniteSystemSpec.from_partial_sums(src, 3)
        solved = solve_moments(spec, 6)
        exact = exact_moments(src, 6)
        worst = max(abs(solved[m] - exact[m]) for m in range(-6, 7))
        ok &= worst <= 1e-10
        parts.append(f"{name}: {worst:.3e}")
    assert verdict(8, ok, "window [-6, 6], tol 1e-10: " + "; ".join(parts))
