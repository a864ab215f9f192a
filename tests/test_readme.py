"""Every measured figure that README quotes, recomputed and looked up in README.

Each figure is formatted to the digits README quotes, so changing a quoted
figure, or the code behind it, without the other fails here.
"""

import cmath
import json
from pathlib import Path

import numpy as np
import pytest

from olaurent import (
    ContourSpec,
    FamilySpec,
    FiniteSystemSpec,
    FunctionalSolve,
    RepresentationCondFailed,
    apply_L,
    build_atomic_measure,
    build_system,
    contour_L,
    exact_moments,
    realize,
    rn_by_contour,
    solve_moments,
)
from olaurent.cli import main

EXP_BINOMIAL = '{"kind": "exp-binomial", "b": 1.0, "a": [0.5], "family_lambda": [1.0]}'
EB_SMALL_A = '{"kind": "exp-binomial", "a": [0.2], "family_lambda": [0.5]}'
STOCK = (FamilySpec("geometric"), FamilySpec("exponential"),
         FamilySpec("exp-binomial", b=1.0, a=[0.5], family_lambda=[1.0]))


@pytest.fixture(scope="module")
def readme():
    """README's text with every run of whitespace, line breaks included, made one space."""
    return " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())


def fig(value: float) -> str:
    """`value` as README quotes it: 0, or two significant digits and no exponent zero pad."""
    return "0" if value == 0 else f"{value:.1e}".replace("e-0", "e-").replace("e+0", "e+")


def report(capsys, *argv) -> dict:
    assert main(list(argv)) == 0, argv
    return json.loads(capsys.readouterr().out)


def test_criterion_8_figures(readme):
    worst = []
    for fam in STOCK:
        src = realize(fam, 12)
        solved = solve_moments(FiniteSystemSpec.from_partial_sums(src, 3), 6)
        exact = exact_moments(src, 6)
        worst.append(fig(max(abs(solved[m] - exact[m]) for m in range(-6, 7))))
    assert f"measures {' / '.join(worst)} for geometric / exponential / exp-binomial" in readme


def test_criterion_2_geometric_figure(readme):
    # the acceptance gate's worst family: geometric on radius 0.5
    src = realize(FamilySpec("geometric"), 64)
    system, moments = build_system(src, 12), exact_moments(src, 12)
    spec = ContourSpec(radius=0.5, nodes=512)
    worst = 0.0
    for n in range(13):
        for m in range(n, 13):
            p = system.R[n] * system.R[m]
            exact = apply_L(p, moments)
            worst = max(worst, abs(contour_L(p, src, spec) - exact) / (1 + abs(exact)))
    assert f"The contour routes agree with the exact functional to {fig(worst)} against" in readme


def test_criterion_7_moment_residual_figure(readme):
    # the acceptance gate's specs at n_cap 3: three derived, five drawn
    specs = [FiniteSystemSpec.from_partial_sums(realize(fam, 12), 3) for fam in STOCK]
    rng = np.random.default_rng(77)
    for _ in range(5):
        g = tuple(1 + 0.05 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(12))
        f = tuple(-1 + 0.05 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(12))
        specs.append(FiniteSystemSpec(n_cap=3, g=g, f_rec=f))
    worst = 0.0
    for spec in specs:
        table = solve_moments(spec, 6)
        try:
            solves = [FunctionalSolve.from_moments(table, level) for level in (3, 6)]
        except RepresentationCondFailed:
            continue
        for fs in solves:
            measure = build_atomic_measure(fs.s)
            worst = max(worst, *(abs(measure.moment(k) - fs.s[k]) for k in range(len(fs.s))))
    assert f"measure moment residuals reach {fig(worst)} against 1e-10" in readme


def test_criterion_6_geometric_figure(readme):
    # the acceptance gate's draws: geometric is its first family
    rng = np.random.default_rng(20260815)
    src = realize(FamilySpec("geometric"), 64)
    system = build_system(src, 20)
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(0.3, 0.6) * cmath.exp(2j * cmath.pi * rng.uniform())
        worst = max(worst, *(abs(rn_by_contour(src, n, x, nodes=512) - system.R[n](x))
                             for n in range(21)))
    assert f"Criterion 6 extracts R_n(x) to {fig(worst)} (geometric) against 1e-8" in readme


def test_ortho_route_disagreement_figures(readme, capsys):
    worst = [fig(report(capsys, "ortho", "--family", family, "--order", "20", "--radius",
                        radius)["contour"]["max_route_disagreement"])
             for family, radius in (("geometric", "0.5"), ("exponential", "0.8"),
                                    (EXP_BINOMIAL, "0.7"))]
    assert (f"the `ortho` route disagreement is {worst[0]} (geometric, radius 0.5), "
            f"{worst[1]} (exponential, 0.8) and {worst[2]} (exp-binomial, 0.7)") in readme


def test_build_normalization_figures(readme, capsys):
    dev = {family: fig(report(capsys, "build", "--family", family, "--order", "80")
                       ["normalization"]["max_rel_deviation"])
           for family in ("geometric", "exponential", EXP_BINOMIAL)}
    assert (f"({dev['exponential']} / {dev[EXP_BINOMIAL]} for exponential / exp-binomial "
            f"at K = 80, {dev['geometric']} for geometric)") in readme


def test_finite_exponential_n_cap_8_figures(readme, capsys):
    rep = report(capsys, "finite", "--family", "exponential", "--ncap", "8")
    assert (f"(exponential n_cap 8: {fig(rep['moment_error_bound'])} against "
            f"{fig(rep['moment_residual_max'])})") in readme
    assert (f"`solve_amplification_log2` ({rep['solve_amplification_log2']} for the "
            "exponential family at n_cap 8)") in readme


def test_finite_exp_binomial_small_a_figures(readme, capsys):
    reps = {n: report(capsys, "finite", "--family", EB_SMALL_A, "--ncap", str(n))
            for n in range(6, 15)}
    deviation = {fig(rep["exact_moment_deviation"]) for rep in reps.values()}
    assert len(deviation) == 1
    assert reps[14]["a"][1] == 0
    assert (f"exp-binomial b = 0, a = 0.2, lambda = 0.5 at n_cap 14 "
            f"(a = {fig(reps[14]['a'][0])})") in readme
    assert f"({deviation.pop()} for exp-binomial a = 0.2 at n_cap 6 to 14)" in readme


def test_finite_a_relative_deviation_figures(readme, capsys):
    reps = [report(capsys, "finite", "--family", EXP_BINOMIAL, "--ncap", str(n))
            for n in (8, 16, 20)]
    rel = [fig(rep["a_relative_deviation"]) for rep in reps]
    assert (f"lambda = 1 it is {rel[0]} at n_cap 8, {rel[1]} at n_cap 16 and {rel[2]} at "
            "n_cap 20, while every absolute deviation stays below 2e-16") in readme
    assert max(rep["exact_moment_deviation"] for rep in reps) < 2e-16
