"""Command-line reports: content, determinism, exit codes, refused options and files."""

import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import olaurent
from olaurent import (
    ContourSpec,
    FamilySpec,
    LaurentPoly,
    MomentTable,
    TruncatedPowerSeries,
    build_system,
    cli,
    contour_moments,
    exact_moments,
    gram_matrix,
    realize,
)
from olaurent.cli import main
from olaurent.errors import UnrepresentableValue
from olaurent.families import MAX_ORDER
from olaurent.systems import NormalizationReport, recurrence_data


def run(tmp_path, *argv):
    """Invoke the CLI writing JSON to a temp file; return (exit, report|None)."""
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    if out.exists():
        return code, json.loads(out.read_text())
    return code, None


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def strict_loads(text):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def test_build_geometric_k2(tmp_path):
    code, rep = run(tmp_path, "build", "--family", "geometric", "--order", "2")
    assert code == 0
    assert rep["version"] == olaurent.__version__
    assert rep["config"]["order"] == 2
    r2 = rep["R"][2]
    assert r2["n"] == 2
    assert r2["coeffs"] == [[-1, 1.0, 0.0], [0, 1.0, 0.0], [1, 1.0, 0.0]]
    assert rep["normalization"]["max_rel_deviation"] <= 1e-12


def test_build_order_zero_has_only_r0(tmp_path):
    code, rep = run(tmp_path, "build", "--family", "exponential", "--order", "0")
    assert code == 0
    assert len(rep["R"]) == 1
    assert rep["R"][0]["coeffs"] == [[0, 1.0, 0.0]]


def test_invalid_family_is_a_config_error(tmp_path, capsys):
    code = main(["build", "--family",
                 '{"kind": "exp-binomial", "a": [1.5], "family_lambda": [1.0]}'])
    assert code == 2
    assert "0 < a_j < 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["finite", "--spec"], ["build", "--family"]],
                         ids=["spec", "family"])
def test_an_unreadable_json_file_is_a_config_error(tmp_path, capsys, argv):
    assert main([*argv, str(tmp_path / "missing.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "cannot read" in err


def test_an_unwritable_report_path_is_a_config_error(tmp_path, capsys):
    # the path is a directory, so the report cannot be opened for writing
    assert main(["moments", "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "cannot write report" in err


@pytest.mark.parametrize("option, value", [("--format", "csv"), ("--format", "json"),
                                           ("--config", "x.json")])
@pytest.mark.parametrize("command", ["build", "ortho", "moments", "genfun-check", "finite"])
def test_removed_options_are_refused(capsys, command, option, value):
    # JSON is the one report format and flags the one way to set a run
    assert main([command, option, value]) == 2
    assert capsys.readouterr().out == ""


def test_moments_ordering_and_values(tmp_path):
    code, rep = run(tmp_path, "moments", "--family", "geometric", "--window", "3")
    assert code == 0
    assert rep["ordering"].startswith("ascending")
    assert rep["moments"] == [[-3, 0.0, 0.0], [-2, 0.0, 0.0], [-1, -1.0, 0.0],
                              [0, 1.0, 0.0], [1, 0.0, 0.0], [2, 0.0, 0.0], [3, 0.0, 0.0]]


def test_ortho_geometric_diagonal(tmp_path):
    code, rep = run(tmp_path, "ortho", "--family", "geometric", "--order", "2")
    assert code == 0
    assert rep["diag"] == [[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]
    assert rep["gram"][0][0] == [1.0, 0.0]
    assert rep["max_offdiag"] == 0.0


def test_ortho_contour_agreement_reported(tmp_path):
    code, rep = run(tmp_path, "ortho", "--family", "exponential", "--order", "10",
                    "--radius", "0.8", "--nodes", "256")
    assert code == 0
    assert rep["contour"]["nodes"] == 256
    assert rep["contour"]["max_route_disagreement"] <= 1e-9


def test_ortho_bad_radius_is_numeric_failure(tmp_path, capsys):
    code = main(["ortho", "--family", "geometric", "--order", "2", "--radius", "1.0"])
    assert code == 3
    assert "RadiusInvalid" in capsys.readouterr().err


@pytest.mark.parametrize("nodes", [str(2 ** 20 + 1), str(10 ** 20)])
def test_ortho_refuses_contour_node_counts(capsys, nodes):
    # refused before any node is allocated: 10**20 used to end in a numpy
    # ValueError, and counts short of numpy's limit would allocate gigabytes
    code = main(["ortho", "--radius", "0.5", "--nodes", nodes])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "InvalidParams" in err


@pytest.mark.parametrize("nodes", ["3", "512"])
def test_ortho_refuses_nodes_without_a_radius(capsys, nodes):
    # --nodes used to be ignored without a contour, even a count that
    # ContourSpec refuses
    code = main(["ortho", "--order", "2", "--nodes", nodes])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: InvalidParams: ") and "--nodes" in err and "--radius" in err


@pytest.mark.parametrize("order", [1, 2])
def test_ortho_without_contour_needs_only_the_window(tmp_path, capsys, order):
    # the Gram matrix reads d_0..d_window (window = 2, as G_11 = -d_2), so
    # three coefficients suffice when no contour asks for a long tail
    family = json.dumps({"kind": "explicit", "coeffs": [1, 2, 3]})
    code, rep = run(tmp_path, "ortho", "--family", family, "--order", str(order))
    assert code == 0
    assert rep["diag"] == [[1.0, 0.0], [-3.0, 0.0], [3.0, 0.0]][:order + 1]
    assert rep["max_offdiag"] == 0.0
    # the contour reads the three coefficients the family gives, and the
    # tail guard, not a demand for order 64, refuses them
    capsys.readouterr()
    assert main(["ortho", "--family", family, "--order", str(order), "--radius", "0.5"]) == 3
    err = capsys.readouterr().err
    assert "TailNotNegligible" in err and "order 64" not in err


def test_ortho_needs_no_moment_to_be_a_double(tmp_path, capsys):
    # mu_{-2} = e_2 = 1e600 has no double, but no Gram entry reads it as one:
    # the Gram is the closed-form diag(d_0, -d_2, d_2)
    family = json.dumps({"kind": "explicit", "coeffs": [1, 1e300, 1]})
    code, rep = run(tmp_path, "ortho", "--family", family, "--order", "2")
    assert code == 0
    assert rep["gram"] == [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                           [[0.0, 0.0], [-1.0, 0.0], [0.0, 0.0]],
                           [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]
    # a report that prints the moment still refuses it, where it is rounded
    capsys.readouterr()
    assert main(["moments", "--family", family, "--window", "2"]) == 3
    assert capsys.readouterr().err == (
        "error: UnrepresentableValue: exact value of magnitude ~2**1994 overflows a double\n")


def _halving(zero=None, d_0=1):
    """An explicit family of 70 coefficients d_k = 2**-k, radius 2, with d_zero = 0 and d_0 as given."""
    d = [d_0] + [0.5 ** k for k in range(1, 70)]
    if zero is not None:
        d[zero] = 0
    return json.dumps({"kind": "explicit", "coeffs": d, "radius": 2})


def test_moments_read_through_a_zero_coefficient(tmp_path):
    # e_m = -sum d_k e_{m-k} needs d_0 = 1 only: mu_{-1} = -d_1, mu_{-2} = d_1^2 - d_2
    code, rep = run(tmp_path, "moments", "--family",
                    '{"kind": "explicit", "coeffs": [1, 0, 0.5]}', "--window", "2")
    assert code == 0
    assert rep["moments"][:3] == [[-2, -0.5, 0.0], [-1, 0.0, 0.0], [0, 1.0, 0.0]]


def test_a_zero_that_is_only_evaluated_is_not_refused(tmp_path):
    # d_40 lies beyond the Gram window and the genfun terms; the contour and
    # the genfun sums only evaluate f, where a zero coefficient is a term like any other
    code, plain = run(tmp_path, "ortho", "--family", _halving(40), "--order", "4")
    assert code == 0
    code, contour = run(tmp_path, "ortho", "--family", _halving(40), "--order", "4",
                        "--radius", "0.5")
    assert code == 0 and contour["gram"] == plain["gram"]
    assert contour["contour"]["max_route_disagreement"] <= 1e-9
    code, rep = run(tmp_path, "genfun-check", "--family", _halving(40), "--terms", "8")
    assert code == 0 and rep["all_passed"]


def test_a_zero_among_the_last_evaluated_coefficients_gives_an_infinite_tail(capsys):
    # the tail estimate reads the ratios of the last eight of d_0..d_64, and
    # d_61 / d_60 with d_60 = 0 is infinite: the contour is refused as not
    # negligible (exit 3), not as a zero coefficient (exit 2)
    assert main(["ortho", "--family", _halving(60), "--order", "4", "--radius", "0.5"]) == 3
    assert capsys.readouterr().err == ("error: TailNotNegligible: truncation tail estimate inf "
                                       "exceeds 1e-13 at |z| = 0.25\n")


SYSTEM_READERS = [["build", "--order", "4"], ["ortho", "--order", "4"],
                  ["genfun-check", "--terms", "8"], ["finite", "--ncap", "1"]]


@pytest.mark.parametrize("argv", SYSTEM_READERS, ids=lambda argv: argv[0])
def test_a_zero_that_a_system_reads_is_a_config_error(capsys, argv):
    assert main([argv[0], "--family", _halving(2), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: ZeroCoefficient: d_2 = 0; the construction needs nonzero coefficients\n"


@pytest.mark.parametrize("argv", [*SYSTEM_READERS, ["moments", "--window", "2"]],
                         ids=lambda argv: argv[0])
def test_every_subcommand_refuses_d_0_other_than_one(capsys, argv):
    assert main([argv[0], "--family", _halving(d_0=2), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: InvalidParams: source needs d_0 = 1, got (2+0j)\n"


@pytest.mark.parametrize("argv, key, rows", [
    (["build", "--order", "0"], "R", [{"n": 0, "coeffs": [[0, 1.0, 0.0]]}]),
    (["moments", "--window", "0"], "moments", [[0, 1.0, 0.0]]),
], ids=["build", "moments"])
def test_a_one_coefficient_family_serves_what_reads_one(tmp_path, argv, key, rows):
    # build K = 0 and moments window 0 read d_0 only; they asked for d_1
    code, rep = run(tmp_path, *argv, "--family", '{"kind": "explicit", "coeffs": [1]}')
    assert code == 0 and rep[key] == rows


def test_genfun_check_refuses_a_negative_seed(capsys):
    # numpy's default_rng used to end the run in a ValueError traceback
    assert main(["genfun-check", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: InvalidParams: seed must be >= 0, got -1\n"


def test_genfun_check_fixed_point_and_determinism(tmp_path):
    args = ["genfun-check", "--family", "exponential", "--samples", "3",
            "--terms", "60", "--seed", "7"]
    code, rep = run(tmp_path, *args)
    assert code == 0
    assert rep["all_passed"] is True
    first_laurent = [s for s in rep["samples"] if s["kind"] == "laurent"][0]
    assert first_laurent["z"] == [0.0, 0.0]
    assert first_laurent["residual"] <= 1e-13

    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_genfun_check_refuses_an_infinite_tail_estimate(capsys):
    # d_k grows, so the tail estimate at most samples is infinite: no
    # residual can be judged against it, and the check used to pass with
    # "bound": Infinity in the report
    code = main(["genfun-check", "--family", '{"kind":"explicit","coeffs":[1,2,3]}',
                 "--terms", "2", "--samples", "2"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" or strict_loads(out)
    assert "TailNotNegligible" in err


def test_genfun_check_passes_at_a_tiny_radius(capsys):
    # sample 0 (z = 0, |x| = 4.5e-13) read a Laurent residual of 1.164e-10 against
    # a bound of 3.0e-13 and the run exited 3: the two-kernel form's 1/sqrt(x)
    # prefactors cancelled
    family = json.dumps({"kind": "explicit", "coeffs": [2.0 ** -k for k in range(11)],
                         "radius": 1e-12})
    assert main(["genfun-check", "--family", family, "--terms", "8", "--samples", "3"]) == 0
    row = strict_loads(capsys.readouterr().out)["samples"][1]
    assert (row["kind"], row["z"], row["residual"]) == ("laurent", [0.0, 0.0], 0.0)


def test_genfun_check_runs_on_an_order_0_source(capsys):
    # d_0 alone: f's odd part F_o has no coefficients
    assert main(["genfun-check", "--family", '{"kind": "explicit", "coeffs": [1]}',
                 "--terms", "0", "--samples", "5"]) == 0
    assert strict_loads(capsys.readouterr().out)["all_passed"] is True


@pytest.mark.parametrize("family", [
    "geometric", "exponential",
    '{"kind": "exp-binomial", "b": 1.0, "a": [0.5], "family_lambda": [1.0]}',
], ids=["geometric", "exponential", "exp-binomial"])
def test_genfun_check_passes_at_small_terms(capsys, family):
    # the series was realized to max(terms, 1), so the tail estimate read at
    # most terms + 1 coefficients and was infinite at most exponential and
    # exp-binomial seeds; and at terms 0 the bound missed geometric rows
    for terms in range(7):
        for seed in range(3):
            assert main(["genfun-check", "--family", family, "--terms", str(terms),
                         "--seed", str(seed)]) == 0, (terms, seed)
            rep = strict_loads(capsys.readouterr().out)
            assert all(r["residual"] <= r["bound"] for r in rep["samples"])


def test_finite_defaults_hit_representation_condition(tmp_path, capsys):
    # the default coefficient extension has mu_{-2} = 0, so level 2 cannot
    # be represented; level 1 can
    code = main(["finite"])
    assert code == 4
    assert "RepresentationCondFailed" in capsys.readouterr().err
    code, rep = run(tmp_path, "finite", "--level", "1")
    assert code == 0
    assert all(w > 0 for _, _, w in rep["atoms"])


def test_finite_derived_from_family(tmp_path):
    code, rep = run(tmp_path, "finite", "--family", "exponential", "--ncap", "2")
    assert code == 0
    M = len(rep["atoms"])
    assert M == 9  # 2 * (2 * level) + 1 atoms at level 2
    assert rep["min_weight"] >= 1 / (2 * M)
    assert rep["moment_residual_max"] <= 1e-10
    assert rep["representation_residual_max"] <= 1e-10
    # the config names the family whose own R_0..R_8 were solved, not a spec
    assert rep["config"] == {"family": FamilySpec("exponential").to_json(), "n_cap": 2,
                             "level": 2, "format": "json"}


def _check_finite_matches_moments(capsys, family, ncap):
    assert main(["finite", "--family", family, "--ncap", str(ncap)]) == 0
    rep = strict_loads(capsys.readouterr().out)
    assert isinstance(rep["solve_amplification_log2"], int)
    assert main(["moments", "--family", family, "--window", str(2 * ncap)]) == 0
    exact = strict_loads(capsys.readouterr().out)["moments"]
    assert [m for m, _, _ in rep["moments"]] == [m for m, _, _ in exact]
    worst = max(abs(complex(re1, im1) - complex(re2, im2))
                for (_, re1, im1), (_, re2, im2) in zip(rep["moments"], exact))
    assert worst <= 1e-15
    assert rep["exact_moment_deviation"] == worst
    # the deep moment a = mu_{-n_cap} can be far off relative to its size
    mu = next(complex(re, im) for m, re, im in exact if m == -ncap)
    assert rep["a_relative_deviation"] == abs(complex(*rep["a"]) - mu) / abs(mu)


def test_a_finite_system_derived_from_a_family_refuses_only_what_it_reads(tmp_path):
    # c_2 = -5e309 and xi_2 = 1e310 overflow, but the system reads only
    # d_0..d_4, which a double holds (d_2 = 1e-310 is subnormal, not 0)
    family = '{"kind": "explicit", "coeffs": [1, 0.5, 1e-310, 1e-160, 1e-10], "radius": 1}'
    code, rep = run(tmp_path, "finite", "--family", family, "--ncap", "1")
    assert code == 0
    assert rep["config"]["family"]["coeffs"][2] == [1e-310, 0.0]
    assert rep["moment_residual_max"] <= rep["moment_error_bound"]
    # exponential at 4 n_cap = 172: xi_171 = 171! overflows, and d_171 is subnormal
    code, rep = run(tmp_path, "finite", "--family", "exponential", "--ncap", "43", "--level", "1")
    assert code == 0
    assert rep["a_relative_deviation"] == 0


def test_finite_exponential_ncap_8_matches_the_exact_moments(capsys):
    # the pivots of Q_1..Q_32 fall to 1/32!; the solve runs on the exact Q_k
    _check_finite_matches_moments(capsys, "exponential", 8)


EB_SMALL_A = '{"kind": "exp-binomial", "a": [0.2], "family_lambda": [0.5]}'


@pytest.mark.parametrize("family, ncap", [
    (EB_SMALL_A, 8), (EB_SMALL_A, 10),
    # a = mu_{-n} is 9.1e-13 and 4.8e-14 here, far above the solve's 2**-64
    (EB_SMALL_A, 14), ("exponential", 16),
], ids=["exp-binomial-8", "exp-binomial-10", "exp-binomial-14", "exponential-16"])
def test_finite_derived_moments_match_the_exact_moments(capsys, family, ncap):
    # the solve amplifies any misrounding of g_k, f_k past these bounds
    _check_finite_matches_moments(capsys, family, ncap)


def test_finite_explicit_spec_inline(tmp_path):
    spec = '{"n_cap": 1, "g": [[1.0, 0.0]], "f_rec": [[-1.0, 0.0]]}'
    code, rep = run(tmp_path, "finite", "--spec", spec, "--level", "1")
    assert code == 0
    assert rep["exact_moment_deviation"] is None
    assert rep["a_relative_deviation"] is None
    assert rep["a"] == [-1.0, 0.0]


def test_finite_spec_takes_an_integral_float_n_cap(tmp_path):
    code, rep = run(tmp_path, "finite", "--spec", '{"n_cap": 2.0}', "--level", "1")
    assert code == 0
    assert type(rep["config"]["finite_spec"]["n_cap"]) is int
    assert rep["config"]["finite_spec"]["n_cap"] == 2


@pytest.mark.parametrize("n_cap", ["2.7", "true", '"3"'], ids=["fraction", "bool", "string"])
def test_finite_spec_refuses_a_non_integer_n_cap(capsys, n_cap):
    # int() used to run 2.7 as 2 and true as 1, and took the string "3"
    code = main(["finite", "--spec", f'{{"n_cap": {n_cap}}}', "--level", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "'n_cap' must be an integer" in err


@pytest.mark.parametrize("argv", [
    ["finite", "--spec", '{"n_cap": 1, "g": ["2"], "f_rec": [true]}', "--level", "1"],
    ["finite", "--spec", '{"n_cap": 1, "g": [[1, 0, 0]]}', "--level", "1"],
    ["moments", "--family", '{"kind": "exp-binomial", "a": ["0.5"], "family_lambda": [true]}'],
    ["moments", "--family", '{"kind": "exp-binomial", "b": "1", "a": [0.5], "family_lambda": [1]}'],
    ["moments", "--family", '{"kind": "explicit", "coeffs": [1, true]}'],
    ["moments", "--family", '{"kind": "explicit", "coeffs": [1, 0.5], "radius": "2"}'],
    ["moments", "--family", f'{{"kind": "explicit", "coeffs": [1, {10 ** 400}]}}'],
], ids=["spec-string-and-bool", "spec-triple", "eb-string-and-bool", "eb-string-b",
        "explicit-bool", "explicit-string-radius", "explicit-int-beyond-double"])
def test_json_numbers_refuse_strings_and_bools(capsys, argv):
    # float() and complex() used to take "2" and true (the spec ran with
    # a = -2) and a 400-digit integer ended in an OverflowError traceback
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "is not a finite JSON number" in err


@pytest.mark.parametrize("flags", [["--ncap", "5"], ["--family", "exponential"]],
                         ids=["ncap", "family"])
def test_finite_spec_refuses_ncap_and_family_flags(capsys, flags):
    # both used to be ignored next to --spec, which sets n_cap and the coefficients
    code = main(["finite", "--spec", '{"n_cap": 2}', "--level", "1", *flags])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "--spec" in err


@pytest.mark.parametrize("argv, key", [
    (["moments", "--family",
      '{"kind": "exp-binomial", "a": [0.5], "family_lambda": [1.0], "B": 3.0}'], "'B'"),
    (["moments", "--family", '{"kind": "geometric", "radius": 0.1}'], "'radius'"),
    (["finite", "--spec", '{"n_cap": 1, "g": [[2, 0]], "f": [[5, 0]]}', "--level", "1"], "'f'"),
], ids=["eb-B", "geometric-radius", "spec-f"])
def test_unknown_json_keys_are_refused(capsys, argv, key):
    # each used to run with the key ignored: b = 0, the stock geometric
    # family and the default f_rec
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert f"unknown key {key}" in err


@pytest.mark.parametrize("family", ["geometric", "exponential",
                                    '{"kind": "exp-binomial", "b": 1.0, "a": [0.5], '
                                    '"family_lambda": [1.0]}'])
def test_genfun_samples_lie_in_their_ranges(tmp_path, family):
    # t and z used to take their phase as cos(u1) + i sin(u2) with two
    # angles, which put a quarter of them outside these magnitudes
    for seed in range(8):
        _, rep = run(tmp_path, "genfun-check", "--family", family, "--seed", str(seed),
                     "--samples", "10", "--terms", "40")
        for row in rep["samples"]:
            x = complex(*row["x"])
            if row["kind"] == "partial_sum":
                assert 0.2 - 1e-12 <= abs(complex(*row["t"])) <= 0.7 + 1e-12, (seed, row)
            elif row["index"] > 0:
                ratio = abs(complex(*row["z"])) / abs(x) ** 0.5
                assert 0.2 - 1e-12 <= ratio <= 0.6 + 1e-12, (seed, row)


def test_failing_genfun_check_says_why_on_stderr(capsys, monkeypatch):
    # exit 3 used to come with an empty stderr, which the benchmark counts as wrong
    real = cli.check_laurent_genfun

    def missed(system, xs, zs, terms):
        return [type(check)(residual=check.residual + 1.0, tail_bound=check.tail_bound,
                            lhs=check.lhs) for check in real(system, xs, zs, terms)]

    monkeypatch.setattr(cli, "check_laurent_genfun", missed)
    code = main(["genfun-check", "--family", "exponential", "--samples", "3", "--terms", "30"])
    out, err = capsys.readouterr()
    assert code == 3
    rep = strict_loads(out)
    assert rep["all_passed"] is False
    worst = max((r for r in rep["samples"] if not r["passed"]),
                key=lambda r: r["residual"] / r["bound"])
    assert err.splitlines() == [
        f"error: genfun-check: 3 of 6 samples miss their bound; worst: sample "
        f"{worst['index']} laurent, residual {worst['residual']:.3e} > bound {worst['bound']:.3e}"]


def test_repeated_calls_share_no_options(capsys):
    # the parser is built once; no option of one call may leak into the next
    assert main(["ortho", "--family", "exponential", "--order", "3",
                 "--radius", "0.5", "--nodes", "64"]) == 0
    assert strict_loads(capsys.readouterr().out)["contour"]["nodes"] == 64
    assert main(["ortho"]) == 0
    rep = strict_loads(capsys.readouterr().out)
    assert rep["config"]["contour"] is None and "contour" not in rep
    assert rep["config"]["order"] == 8 and rep["config"]["format"] == "json"
    assert rep["config"]["family"] == {"kind": "geometric"}


def test_json_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["ortho", "--family", "exponential", "--order", "6",
                     "--radius", "0.8", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["build", "--family", "exponential", "--order", "3"],
    ["ortho", "--family", "exponential", "--order", "4", "--radius", "0.8", "--nodes", "64"],
    ["moments", "--window", "2"],
    ["genfun-check", "--samples", "2", "--terms", "30"],
    ["finite", "--level", "1"],
], ids=lambda argv: argv[0])
def test_json_report_is_one_compact_strict_line(capsys, argv):
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
    assert strict_loads(text)["command"] == argv[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["NaN", "Infinity", "-Infinity"])
def test_non_finite_report_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch, bad):
    # strict JSON has no token for NaN or an infinity, so _emit refuses the report
    out = tmp_path / "r.json"

    def refused():
        for extra in ([], ["--out", str(out)]):
            assert main(["build", "--order", "2", *extra]) == 3
            stdout, err = capsys.readouterr()
            assert stdout == "" and not out.exists()
            assert err.startswith("error: UnrepresentableValue: the report holds a NaN or an inf")

    monkeypatch.setattr(cli, "check_normalization",
                        lambda system, rd: NormalizationReport((bad,), bad, rd.K))
    refused()
    # d_2 alone non-finite, so only the R field, which build encodes itself, holds it
    clean = realize(FamilySpec("geometric"), 2)
    monkeypatch.setattr(cli, "realize", lambda spec, K: TruncatedPowerSeries([1, 1, bad]))
    monkeypatch.setattr(cli, "recurrence_data", lambda source, K: recurrence_data(clean, K))
    monkeypatch.setattr(cli, "check_normalization",
                        lambda system, rd: NormalizationReport((0.0,) * 3, 0.0, 2))
    refused()


def test_module_entry_point_writes_one_strict_json_line():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "olaurent.cli", "moments", "--window", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert strict_loads(lines[0])["command"] == "moments"


def test_unknown_subcommand_exits_nonzero():
    assert main(["polish"]) != 0


NON_FINITE = ["nan", "inf", float("nan"), float("-inf")]
NON_FINITE_IDS = ["str-nan", "str-inf", "NaN", "-Infinity"]


@pytest.mark.parametrize("bad", NON_FINITE, ids=NON_FINITE_IDS)
def test_ortho_refuses_non_finite_explicit_coefficients(tmp_path, capsys, bad):
    coeffs = [1.0] + [0.5 ** k for k in range(1, 65)]
    coeffs[3] = bad
    family = json.dumps({"kind": "explicit", "coeffs": coeffs, "radius": 2.0})
    code, rep = run(tmp_path, "ortho", "--family", family, "--order", "4")
    assert code == 2 and rep is None
    assert "finite coefficients" in capsys.readouterr().err


@pytest.mark.parametrize("bad", NON_FINITE, ids=NON_FINITE_IDS)
def test_finite_refuses_non_finite_spec_values(tmp_path, capsys, bad):
    for key in ("g", "f_rec"):
        spec = json.dumps({"n_cap": 1, key: [[1.0, 0.0], bad]})
        code, rep = run(tmp_path, "finite", "--spec", spec, "--level", "1")
        assert code == 2 and rep is None
        assert "must be finite" in capsys.readouterr().err
    family = json.dumps({"kind": "explicit", "coeffs": [1.0, 0.5, bad, 0.125, 0.0625]})
    code, rep = run(tmp_path, "finite", "--family", family, "--ncap", "1")
    assert code == 2 and rep is None
    assert "finite coefficients" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["build", "--family", "exponential", "--order", "172"],   # xi_171 = 171! overflows
    ["build", "--family", '{"kind": "explicit", "coeffs": [1, 1e-320, 1], "radius": 1}',
     "--order", "2"],                                          # c_1 = -1e320 overflows
    ["build", "--family", '{"kind": "explicit", "coeffs": [1, 1e-200, 1e200], "radius": 1}',
     "--order", "2"],                                          # c_2 underflows to -0
    ["moments", "--family", "exponential", "--window", "180"],  # d_178 = 1/178! underflows
    ["ortho", "--family", "geometric", "--order", "120", "--radius", "0.05",
     "--nodes", "16"],                                         # mu~_{-120} ~ 400^120 overflows
], ids=["exponential-172", "overflowing-c1", "underflowing-c2",
        "exponential-underflow-178", "contour-moment-overflow"])
def test_unrepresentable_recurrence_data_is_refused(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" or strict_loads(out)
    assert "UnrepresentableValue" in err


HUGE = str(10 ** 20)


@pytest.mark.parametrize("argv", [
    ["build", "--order", HUGE], ["ortho", "--order", HUGE], ["moments", "--window", HUGE],
    ["genfun-check", "--terms", HUGE], ["finite", "--ncap", HUGE],
    ["finite", "--family", "exponential", "--ncap", HUGE],
    ["build", "--order", str(MAX_ORDER + 1)], ["finite", "--ncap", str(MAX_ORDER // 4 + 1)],
    ["genfun-check", "--samples", HUGE], ["genfun-check", "--samples", str(MAX_ORDER + 1)],
], ids=["build", "ortho", "moments", "genfun-check", "finite", "finite-family",
        "build-cap-plus-1", "finite-cap-plus-1", "genfun-check-samples",
        "genfun-check-samples-cap-plus-1"])
def test_size_flags_above_the_cap_are_config_errors(capsys, argv):
    # refused before anything of that size is allocated
    assert main(argv) == 2
    assert f"MAX_ORDER = {MAX_ORDER}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", str(MAX_ORDER + 1)])
@pytest.mark.parametrize("command, flag", [
    ("build", "--order"), ("ortho", "--order"), ("moments", "--window"),
    ("genfun-check", "--terms"),
])
def test_a_size_flag_out_of_range_is_refused_by_its_name_and_value(capsys, command, flag, value):
    # ortho used to name its window 2 ceil(K/2), the others "order" or "K"
    assert main([command, flag, value]) == 2
    assert capsys.readouterr().err == (f"error: InvalidParams: {flag} must be in "
                                       f"[0, MAX_ORDER = {MAX_ORDER}], got {value}\n")


SHORT_EXPLICIT = '{"kind": "explicit", "coeffs": [1, 2, 3]}'
FUZZ_FAMILIES = ["geometric", "exponential",
                 '{"kind": "exp-binomial", "b": 1.0, "a": [0.5], "family_lambda": [1.0]}',
                 SHORT_EXPLICIT]
SMALL_INTS = ["-1", "0", "1", "2", "5", "nan", "inf"]
# sizes above MAX_ORDER only: one at the cap takes seconds and ~250 MB
ABOVE_CAP = [str(MAX_ORDER + 1), HUGE]
FUZZ_FLAGS = {
    "build": {"--family": FUZZ_FAMILIES, "--order": SMALL_INTS + ABOVE_CAP},
    "ortho": {"--family": FUZZ_FAMILIES, "--order": SMALL_INTS + ABOVE_CAP,
              "--radius": ["nan", "inf", "-0.5", "0", "0.5", "0.8", "2"],
              "--nodes": ["-1", "0", "16", "64", str(2 ** 20 + 1), str(10 ** 20), "nan"]},
    "moments": {"--family": FUZZ_FAMILIES, "--window": SMALL_INTS + ABOVE_CAP},
    "genfun-check": {"--family": FUZZ_FAMILIES, "--terms": SMALL_INTS + ABOVE_CAP,
                     "--samples": ["0", "1", "2"] + ABOVE_CAP},
    "finite": {"--family": FUZZ_FAMILIES, "--ncap": SMALL_INTS + ["8", HUGE]},
}
@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [command]
    for flag, values in FUZZ_FLAGS[command].items():
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv += [flag, value]
    return argv


@given(argv=cli_argv())
@example(argv=["genfun-check", "--family", SHORT_EXPLICIT, "--terms", "2", "--samples", "2"])
@example(argv=["ortho", "--radius", "0.5", "--nodes", str(10 ** 20)])
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cli_fuzz_exits_documented_codes_with_strict_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    text = out.getvalue()
    if code == 0 or text:
        strict_loads(text)


@pytest.mark.parametrize("argv", [
    ["ortho", "--family", "exponential", "--order", "40"],
    ["ortho", "--family", "geometric", "--order", "8", "--radius", "0.5"],
    ["genfun-check", "--family", "exponential", "--samples", "3", "--terms", "40"],
], ids=["ortho", "ortho-contour", "genfun-check"])
def test_ortho_and_genfun_build_no_laurent_polynomials(capsys, monkeypatch, argv):
    # both read only the source and K; they used to build R_0..R_K
    # every constructor, the arithmetic included, ends in from_exact
    calls = []
    real = LaurentPoly.from_exact.__func__

    def counted(cls, lo, numerators, denominator):
        calls.append(lo)
        return real(cls, lo, numerators, denominator)

    monkeypatch.setattr(LaurentPoly, "from_exact", classmethod(counted))
    assert main(argv) == 0
    strict_loads(capsys.readouterr().out)
    assert calls == []


def test_build_reports_the_partial_sums(capsys):
    K = 7
    family = '{"kind": "exp-binomial", "b": 1.0, "a": [0.5], "family_lambda": [1.0]}'
    assert main(["build", "--family", family, "--order", str(K)]) == 0
    rep = strict_loads(capsys.readouterr().out)
    d = realize(FamilySpec.from_json(json.loads(family)), K).coeffs
    assert [r["n"] for r in rep["R"]] == list(range(K + 1))
    for n, row in enumerate(rep["R"]):
        lo = -math.ceil(n / 2)
        assert row["coeffs"] == [[lo + k, d[k].real, d[k].imag] for k in range(n + 1)]


# a complex explicit family: -0.0 imaginary parts, and values near 1e300 and
# 1e-300 whose neighbours keep every g_k, c_k, xi_k and recur_lambda_k finite
R_TEXT_COMPLEX = json.dumps({"kind": "explicit", "radius": 1.0, "coeffs": [
    1, [0.5, -0.0], [1e300, 2.5], [-3e299, -0.0], [1e-8, 1e-300], [1e-300, -0.0],
    [-2e-300, 3e-301], [0.25, -0.0], [-1.5e-7, 4e-9]]})
R_TEXT_FAMILIES = {
    "geometric": "geometric", "exponential": "exponential",
    "exp-binomial": '{"kind": "exp-binomial", "b": 1.0, "a": [0.5], "family_lambda": [1.0]}',
    "complex": R_TEXT_COMPLEX}


@pytest.mark.parametrize("name, K", [*((name, K) for name in list(R_TEXT_FAMILIES)[:3]
                                       for K in (*range(13), 80)),
                                     *(("complex", K) for K in (0, 1, 2, 7, 8))])
def test_the_r_text_is_json_dumps_of_the_row_form(capsys, name, K):
    # build writes the R field from one encoding per d_k; the report must
    # still be json.dumps of R_n = d_k x^(k - ceil(n/2)) as [e, re, im] rows
    family = R_TEXT_FAMILIES[name]
    assert main(["build", "--family", family, "--order", str(K)]) == 0
    text = capsys.readouterr().out
    report = strict_loads(text)
    d = [complex(z) for z in realize(cli._family_flag(family), K).coeffs]
    report["R"] = [{"n": n, "coeffs": [[k - (n + 1) // 2, d[k].real, d[k].imag]
                                       for k in range(n + 1)]} for n in range(K + 1)]
    assert text == json.dumps(report, sort_keys=True, separators=(",", ":"),
                              allow_nan=False) + "\n"
    if name == "complex":
        assert ",-0.0]" in text and "1e+300," in text and ",1e-300]" in text


# a complex explicit family of 96 coefficients of modulus 2**-k and
# scattered phases, so K = 80 and a contour at radius 0.8 both fit
GRAM_TEXT_COMPLEX = json.dumps({"kind": "explicit", "radius": 2.0, "coeffs": [
    [0.5 ** k * math.cos(2.3 * k * k), 0.5 ** k * math.sin(2.3 * k * k)] for k in range(96)]})
GRAM_TEXT_FAMILIES = {**{name: R_TEXT_FAMILIES[name] for name in list(R_TEXT_FAMILIES)[:3]},
                      "complex": GRAM_TEXT_COMPLEX}
GRAM_TEXT_RADII = {"geometric": "0.5", "exponential": "0.8", "exp-binomial": "0.7",
                   "complex": "0.8"}
# 3 x 3 matrices that no exact Gram holds: signed zeros, no nonzero, a NaN, an infinity
GRAM_TEXT_MATRICES = {
    "signed-zeros": [[1, -0.0, complex(0, -0.0)], [complex(-0.0, -0.0), -2.5, complex(-0.0, 1e-300)],
                     [complex(1e300, -0.0), 0, 3j]],
    "all-zero": [[0] * 3] * 3,
    "nan": [[1, 0, complex(0, np.nan)], [0, 1, 0], [0, 0, 1]],
    "inf": [[1, 0, 0], [np.inf, 1, 0], [0, 0, 1]],
}


@pytest.mark.parametrize("name, K, contour", [
    *((name, K, contour) for name in GRAM_TEXT_FAMILIES for K in (0, 1, 2, 20, 80)
      for contour in (False, True)),
    *((name, 2, False) for name in GRAM_TEXT_MATRICES)])
def test_the_gram_text_is_json_dumps_of_the_pair_form(capsys, monkeypatch, name, K, contour):
    # ortho writes the gram field from one encoding of its nonzero entries;
    # the report must still be json.dumps of the Gram as [re, im] pairs
    grams = []

    def recorded_gram(*args):
        crafted = GRAM_TEXT_MATRICES.get(name)
        grams.append(gram_matrix(*args) if crafted is None
                     else np.array(crafted, dtype=np.complex128))
        return grams[-1]

    monkeypatch.setattr(cli, "gram_matrix", recorded_gram)
    argv = ["ortho", "--family", GRAM_TEXT_FAMILIES.get(name, "geometric"), "--order", str(K)]
    code = main(argv + (["--radius", GRAM_TEXT_RADII[name]] if contour else []))
    text, err = capsys.readouterr()
    G = grams[0]   # the exact Gram, which the report prints; a contour takes its difference
    if name in ("nan", "inf"):
        # refused as json.dumps(allow_nan=False) refuses it, and no report is written
        assert (code, text) == (3, "")
        assert err.startswith("error: UnrepresentableValue: ")
        with pytest.raises(UnrepresentableValue):
            cli._gram_text(G)
        return
    assert code == 0, err
    assert len(grams) == 1
    report = strict_loads(text)
    report["gram"] = cli._pairs(G)
    assert text == json.dumps(report, sort_keys=True, separators=(",", ":"),
                              allow_nan=False) + "\n"
    assert cli._gram_text(G) == cli._json(cli._pairs(G))
    if name == "signed-zeros":
        assert "[[[1.0,0.0],[-0.0,0.0],[0.0,-0.0]],[[-0.0,-0.0]," in text


@pytest.mark.parametrize("name", list(GRAM_TEXT_FAMILIES))
def test_the_route_figure_is_within_its_bound_of_the_exact_gram_of_delta(capsys, name):
    for K in (8, 12, 20):
        assert main(["ortho", "--family", GRAM_TEXT_FAMILIES[name], "--order", str(K),
                     "--radius", GRAM_TEXT_RADII[name]]) == 0
        contour = strict_loads(capsys.readouterr().out)["contour"]
        source = realize(cli._family_flag(GRAM_TEXT_FAMILIES[name]), 64)
        system, window = build_system(source, K), 2 * math.ceil(K / 2)
        moments = exact_moments(source, window)
        quadrature = contour_moments(source, ContourSpec(float(GRAM_TEXT_RADII[name])), window)
        den = math.lcm(moments.denominator, quadrature.denominator)
        delta = MomentTable(window, tuple(den // quadrature.denominator * q
                                          - den // moments.denominator * m
                                          for q, m in zip(quadrature.values, moments.values)), den)
        # each reference entry is rounded once and its quotient in doubles:
        # within 4u of the exact figure, which the 2**-50 (8u) term allows
        exact = np.max(np.abs(gram_matrix(system, delta))
                       / (1 + np.abs(gram_matrix(system, moments))))
        assert 0 < contour["route_disagreement_bound"] <= 1e-12 * contour["max_route_disagreement"]
        assert (abs(contour["max_route_disagreement"] - exact)
                <= contour["route_disagreement_bound"] + 2.0 ** -50 * exact), (name, K)


@pytest.mark.parametrize("mu, error", [
    # mu~_0 - mu_0 = 2**1100 has no double
    ([0, 0, 1 + 2 ** 1100, 0, 0], "exact value of magnitude ~2**1101 overflows a double"),
    # each delta is a double, but G[1, 1] = delta_{-2} + 2 delta_{-1} + delta_0 is not
    ([1.5e308, 1.5e308, 1, 0, 0], "route disagreement overflows a double"),
    # G[0, 1] = delta_{-1} + delta_0 = 0, but |delta_{-1}| + |delta_0| is no double
    ([0, 1e308, 1 - 1e308, 0, 0], "route disagreement bound overflows a double"),
], ids=["delta", "gram", "bound"])
def test_an_overflowing_route_comparison_is_refused(capsys, monkeypatch, mu, error):
    table = MomentTable(2, tuple(int(v) for v in mu), 1)
    monkeypatch.setattr(cli, "contour_moments", lambda source, spec, window: table)
    code = main(["ortho", "--order", "2", "--radius", "0.5"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (3, "", f"error: UnrepresentableValue: {error}\n")


@pytest.mark.parametrize("name", ["exponential", "complex"])
def test_a_k_80_contour_report_is_the_same_in_two_processes(name):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "olaurent.cli", "ortho", "--family", GRAM_TEXT_FAMILIES[name],
            "--order", "80", "--radius", "0.8"]
    first, second = (subprocess.run(argv, capture_output=True, env=env, timeout=120)
                     for _ in range(2))
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout and first.stderr == second.stderr == b""
    assert strict_loads(first.stdout.decode())["contour"]["route_disagreement_bound"] > 0


B_HUGE = '{"kind": "exp-binomial", "b": 1e200, "a": [0.5], "family_lambda": [1.0]}'


@pytest.mark.parametrize("argv", [
    ["build", "--family", B_HUGE],
    ["ortho", "--family", B_HUGE],
    ["moments", "--family", B_HUGE],
    ["genfun-check", "--family", B_HUGE],
    ["finite", "--family", B_HUGE],
    ["finite", "--family", "exponential", "--ncap", "2", "--level", "5"],
    ["moments", "--family", '{"kind": "geometric", "radius": 0.5}'],
], ids=["build-b-1e200", "ortho-b-1e200", "moments-b-1e200", "genfun-check-b-1e200",
        "finite-b-1e200", "finite-level-5", "unknown-family-key"])
def test_a_refusal_is_one_error_line(argv):
    # b = 1e200 used to print numpy's overflow warnings before its error
    # line; a warning would reach stderr outside pytest, so none may be issued
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (2, 3, 4)
    assert [str(w.message) for w in caught] == []
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_a_contour_radius_whose_square_underflows_is_a_config_error():
    # c = 1e-200 has c^2 = 0, which put every w-node at 0; the run used to
    # exit 3 with a quadrature moment "on radius 0.0" that overflows
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["ortho", "--order", "3", "--radius", "1e-200"]) == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: InvalidParams: "), lines
    assert "c = 1e-200" in lines[0]
    # a subnormal c^2 = 1e-320 is no collapse: it keeps the numeric guard
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["ortho", "--order", "3", "--radius", "1e-160"]) == 3
    assert err.getvalue().startswith("error: UnrepresentableValue: ")


@pytest.mark.parametrize("spec", [
    '{"n_cap":1,"g":[[1e-19,0],[1e-40,0]]}',
    '{"n_cap":1,"g":[[1,0],[1,0]],"f_rec":[[-1,0],[-1e80,0]]}',
], ids=["tiny-g", "huge-f"])
def test_runaway_radius_search_is_a_numerical_guard(spec):
    # valid specs whose moments outgrow every radius up to 2**120 used to exit 2
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["finite", "--spec", spec]) == 3
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: RadiusInvalid: "), lines
    assert "> 1/2 at r = 2**120" in lines[0]


def test_an_overflowing_residual_names_what_overflowed(tmp_path, capsys):
    # the solve and the measure succeed; L(Q_2) carries g_1 g_2 = 1e600, so
    # only the representation residual at k = 2 overflows a double
    spec = '{"n_cap":1,"g":[[1e300,0],[1e300,0]]}'
    assert run(tmp_path, "finite", "--spec", spec) == (3, None)
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: UnrepresentableValue: representation_residual at k = 2: ")
    assert len(err.splitlines()) == 1


def test_a_finite_family_system_reads_no_recurrence_coefficient(tmp_path):
    # c_2 underflows to -0 and g_2 = 1e400 overflows a double; the family
    # path used to round g_k and refuse g_2 (exit 3), but it solves on the
    # family's own R_0..R_4, which read only the double d_0..d_4
    family = '{"kind": "explicit", "coeffs": [1, 1e-200, 1e200, 1, 1], "radius": 1}'
    code, rep = run(tmp_path, "finite", "--family", family, "--ncap", "1", "--level", "2")
    assert code == 0
    assert rep["moment_residual_max"] <= rep["moment_error_bound"]


EB_UNIT = '{"kind": "exp-binomial", "b": 1.0, "a": [0.5], "family_lambda": [1.0]}'


@pytest.mark.parametrize("family, ncaps", [
    ("exponential", range(2, 17)), (EB_UNIT, range(2, 21)),
], ids=["exponential", "exp-binomial"])
def test_a_family_solve_gives_a_to_the_last_bit(capsys, family, ncaps):
    # the solve on g_k rounded to doubles read a_relative_deviation 3.2e-7
    # at exp-binomial n_cap 16 and 3.4e-3 at n_cap 20
    for ncap in ncaps:
        assert main(["finite", "--family", family, "--ncap", str(ncap)]) == 0, ncap
        assert strict_loads(capsys.readouterr().out)["a_relative_deviation"] <= 1e-15, ncap


def test_an_overflowing_s_k_is_refused_where_it_is_divided(tmp_path, capsys):
    # a valid spec: s_2 = mu_1 / a = -1e300 / -1e-10 overflows a double, and
    # build_atomic_measure used to refuse the inf as bad input (exit 2)
    spec = '{"n_cap":1,"g":[[1e-10,0],[1,0]],"f_rec":[[-1,0],[1e290,0]]}'
    assert run(tmp_path, "finite", "--spec", spec) == (3, None)
    assert capsys.readouterr().err == (
        "error: UnrepresentableValue: s_2 = mu_1 / a overflows a double: "
        "|mu_1| = 1.000e+300, |a| = 1.000e-10\n")


@pytest.mark.parametrize("family", [[], ["--family", "exponential"]], ids=["default", "family"])
@pytest.mark.parametrize("ncap, message", [
    ("-1", "n_cap must be >= 1"),
    ("129", "4 n_cap = 516 exceeds MAX_ORDER = 512"),
], ids=["negative", "cap-plus-1"])
def test_finite_names_the_n_cap_it_refuses(capsys, family, ncap, message):
    # the family path used to realize 4 n_cap coefficients first, and so
    # refused an order of -4 or 516 that no flag named
    assert main(["finite", *family, "--ncap", ncap]) == 2
    assert capsys.readouterr().err == f"error: InvalidParams: {message}\n"


@pytest.mark.parametrize("level", ["0", "5", "-1"])
def test_finite_level_outside_its_range_is_a_config_error(capsys, level):
    # --level 5 at n_cap 2 used to exit 3 with WindowExceeded after the solve
    assert main(["finite", "--family", "exponential", "--ncap", "2", "--level", level]) == 2
    assert f"level must be in [1, 2 n_cap = 4], got {level}" in capsys.readouterr().err


@pytest.mark.parametrize("family, terms, rho", [
    ('{"kind": "exp-binomial", "b": 1.0, "a": [0.1], "family_lambda": [1.0]}', "40", 3.0),
    ('{"kind": "explicit", "coeffs": [1, 0.5, 0.25, 0.125], "radius": 1e300}', "3", 3.0),
    ('{"kind": "exp-binomial", "b": 1.0, "a": [0.5], "family_lambda": [1.0]}', "40", 2.0),
], ids=["radius-10", "radius-1e300", "radius-2"])
def test_genfun_draws_x_within_min_radius_3(capsys, family, terms, rho):
    # x used to scale with any finite radius: |x| up to 5.9 at radius 10,
    # and an overflowing tail estimate at radius 1e300
    assert main(["genfun-check", "--family", family, "--samples", "10", "--terms", terms]) == 0
    rep = strict_loads(capsys.readouterr().out)
    assert all(0.2 * rho - 1e-12 <= abs(complex(*r["x"])) <= 0.6 * rho + 1e-12
               for r in rep["samples"])


def _readme_examples():
    """(line, exit code) of each ``olaurent ...`` line of the sh block under README's ``## CLI``.

    Continuations are joined.  The exit code is the N of an ``exits N`` in
    the comment lines above the command, else 0.
    """
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, re.S | re.M).group(1)
    examples, comment = [], ""
    for line in (line.strip() for line in block.replace("\\\n", " ").splitlines()):
        if line.startswith("#"):
            comment += line
        elif line.startswith("olaurent "):
            code = re.search(r"\bexits (\d)\b", comment)
            examples.append((line, int(code.group(1)) if code else 0))
            comment = ""
    return examples


def test_readme_settings_table_matches_the_settings():
    # one row per flag, with the subcommands that take it
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = re.search(r"^## CLI\n(.*?)^```sh", text, re.S | re.M).group(1)
    rows = dict(re.findall(r"^\| `--([a-z]+)` \|[^|]*\|[^|]*\| ([^|]*) \|$", section, re.M))
    assert rows == {dest: "all" if commands == cli.EVERY else ", ".join(
        f"`{name}`" for name in commands.split()) for dest, *_, commands, _ in cli.SETTINGS}


def test_readme_cli_examples_run_and_report_strict_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = _readme_examples()
    assert {shlex.split(line)[1] for line, _ in examples} == {name for name, *_ in cli.COMMANDS}
    for line, code in examples:
        argv = shlex.split(line)[1:]
        assert main(argv) == code, line
        out, err = capsys.readouterr()
        if code:
            # a refusal README documents: no report, one error line
            assert out == "" and err.startswith("error: "), line
            continue
        if "--out" in argv:
            assert out == "", line
            out = Path(argv[argv.index("--out") + 1]).read_text()
        strict_loads(out)
