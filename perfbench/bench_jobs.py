"""Workloads, job execution and output verification for the benchmark.

A job is one CLI subcommand run in-process through ``olaurent.cli.main``,
or one library extraction of R_0..R_20(x) by ``rn_by_contour``.  Each
workload deals its jobs in decks: a deck holds every configuration of the
workload in the proportions below, shuffled by the seed, so a run of whole
decks has the same job mix for every seed.

Every job's output is verified.  An outcome is one of

* ``ok``      -- exit 0, strict JSON, every check within tolerance;
* ``refused`` -- a documented exit code (2, 3 or 4) with an ``error:`` line;
* ``miss``    -- exit 0, but a quantity the report states about itself
  (route disagreement, residual, minimum weight) misses its tolerance;
* ``wrong``   -- the output contradicts an independent reference (closed
  form Gram diagonal, direct R_n(x), reference coefficients), or it is
  malformed: not strict JSON, missing fields, an undocumented exit code or
  an uncaught exception.

Only ``ok`` jobs count as completed.  A ``wrong`` job also makes the run
incorrect.  The tolerances mirror ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import io
import json
import math
import random
import time
from dataclasses import dataclass

import numpy as np

from olaurent import cli, families, genfun

OFFDIAG_TOL = 1e-10   # Gram off-diagonals
DIAG_TOL = 1e-10      # |G_nn - closed form| <= DIAG_TOL * (1 + |closed form|)
ROUTE_TOL = 1e-9      # contour vs exact functional
RN_TOL = 1e-8         # rn_by_contour vs direct R_n(x)
FINITE_TOL = 1e-10    # measure moment and representation residuals
NORM_TOL = 1e-11      # build: recurrence vs direct route
COEFF_TOL = 1e-11     # build: R_n coefficients vs reference d_k, relative

REFUSAL_CODES = (2, 3, 4)
RN_ORDER = 20
NODES = 512

ACCEPTANCE_EB = {"kind": "exp-binomial", "b": 1.0, "a": [0.5], "family_lambda": [1.0]}
FAMILIES = {
    "geometric": {"kind": "geometric"},
    "exponential": {"kind": "exponential"},
    "exp-binomial": ACCEPTANCE_EB,
}
# the acceptance gate's quadrature radii
CONTOUR_RADIUS = {"geometric": 0.5, "exponential": 0.8, "exp-binomial": 0.7}
FINITE_NCAPS = (2, 3, 4, 6, 8)

WHY = {
    "build": "CLI build at K 20/40/80: building, adding and serializing Laurent "
             "polynomials (recurrence cross-check, reports up to 300 KB) dominates",
    "gram": "CLI ortho without a contour at K 20/40/80: the O(K^4) sparse products "
            "in gram_matrix and apply_L dominate; no quadrature or mpmath runs",
    "contour": "CLI ortho with a contour, genfun-check and rn_by_contour: long-double "
               "Horner on the quadrature nodes dominates; geometric K=20 misses 1e-9",
    "finite": "CLI finite at n_cap 2-8: mpmath DFT loops of the atomic measure "
              "dominate; exponential n_cap>=4 exits 3 (known guard defect)",
}


def config_key(job: dict) -> str:
    return json.dumps(job, sort_keys=True)


# -- decks ---------------------------------------------------------------------

def _eb_sets(rng: random.Random, count: int) -> list[dict]:
    """exp-binomial parameter sets, Latin-hypercube sampled over b, a, lambda.

    Each parameter's range is cut into ``count`` strata and every stratum is
    used once, so each deck covers the ranges evenly and runs with different
    seeds share one job mix.  The range of a includes sets whose n_cap >= 6
    systems trip the same degeneracy guard as the exponential family.
    """
    def strata(lo, hi):
        cells = [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]
        rng.shuffle(cells)
        return cells

    return [{"kind": "exp-binomial", "b": round(b, 4), "a": [round(a, 4)],
             "family_lambda": [round(lam, 4)]}
            for b, a, lam in zip(strata(0.25, 2.0), strata(0.2, 0.8), strata(0.25, 2.0))]


def _random_x(rng: random.Random, family: dict) -> complex:
    """A point at 0.3-0.6 of min(radius, 3), as in acceptance criterion 6."""
    if family["kind"] == "geometric":
        radius = 1.0
    elif family["kind"] == "exp-binomial":
        radius = 1.0 / max(family["a"])
    else:
        radius = math.inf
    rho = min(radius, 3.0)
    return rho * rng.uniform(0.3, 0.6) * cmath.exp(2j * math.pi * rng.uniform(0, 1))


def _deck(workload: str, rng: random.Random) -> list[dict]:
    names = list(FAMILIES)
    if workload == "build":
        jobs = [{"kind": "build", "family": FAMILIES[f], "K": K}
                for f in names for K in (20, 40, 80)]
    elif workload == "gram":
        # 2:3:1 puts p50 inside the K = 40 jobs and p90 inside the long
        # K = 80 jobs, away from the edges where a percentile jumps
        jobs = [{"kind": "gram", "family": FAMILIES[f], "K": K}
                for f in names for K in (20, 20, 40, 40, 40, 80)]
    elif workload == "contour":
        jobs = [{"kind": "contour", "family": FAMILIES[f], "K": K,
                 "radius": CONTOUR_RADIUS[f]} for f in names for K in (8, 12, 20)]
        jobs += [{"kind": "genfun", "family": FAMILIES[f], "seed": rng.randrange(2 ** 31)}
                 for f in names]
        for f in names:
            x = _random_x(rng, FAMILIES[f])
            jobs.append({"kind": "rn", "family": FAMILIES[f], "x": [x.real, x.imag]})
    elif workload == "finite":
        fams = [FAMILIES["exponential"]] + _eb_sets(rng, 6)
        jobs = [{"kind": "finite", "family": fam, "ncap": n}
                for fam in fams for n in FINITE_NCAPS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def decks(workload: str, seed: int):
    """Endless sequence of decks; the same seed gives the same sequence."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield _deck(workload, rng)


def cold_jobs(workload: str) -> list[dict]:
    """One job of each kind in the workload, at its smallest size."""
    geo = FAMILIES["geometric"]
    return {
        "build": [{"kind": "build", "family": geo, "K": 20}],
        "gram": [{"kind": "gram", "family": geo, "K": 20}],
        "contour": [{"kind": "contour", "family": geo, "K": 8, "radius": 0.5},
                    {"kind": "genfun", "family": geo, "seed": 0},
                    {"kind": "rn", "family": geo, "x": [0.3, 0.3]}],
        "finite": [{"kind": "finite", "family": FAMILIES["exponential"], "ncap": 2}],
    }[workload]


# -- execution -----------------------------------------------------------------

@dataclass
class Outcome:
    job: dict
    status: str            # ok | refused | miss | wrong
    ms: float              # time inside the program
    error: float | None    # worst verified error, when one was measured
    report_bytes: int
    detail: str = ""


def cli_argv(job: dict) -> list[str]:
    fam = json.dumps(job["family"])
    kind = job["kind"]
    if kind == "build":
        return ["build", "--family", fam, "--order", str(job["K"])]
    if kind == "gram":
        return ["ortho", "--family", fam, "--order", str(job["K"])]
    if kind == "contour":
        return ["ortho", "--family", fam, "--order", str(job["K"]),
                "--radius", repr(job["radius"]), "--nodes", str(NODES)]
    if kind == "genfun":
        return ["genfun-check", "--family", fam, "--samples", "20", "--terms", "80",
                "--seed", str(job["seed"])]
    if kind == "finite":
        return ["finite", "--family", fam, "--ncap", str(job["ncap"])]
    raise ValueError(f"no CLI form for {kind!r}")


def _reject_constant(token: str):
    raise ValueError(f"non-strict JSON constant {token}")


def strict_loads(text: str):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def execute(job: dict) -> Outcome:
    """Run one job through the program and verify its output."""
    if job["kind"] == "rn":
        return _execute_rn(job)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(cli_argv(job))
    except Exception as exc:  # an uncaught exception is a failed job, not a crash
        return Outcome(job, "wrong", _ms(t0), None, 0, f"uncaught {type(exc).__name__}: {exc}")
    ms = _ms(t0)
    text = out.getvalue()
    nbytes = len(text.encode())
    if code != 0:
        first = err.getvalue().strip().splitlines()[:1]
        if code in REFUSAL_CODES and first and first[0].startswith("error: "):
            return Outcome(job, "refused", ms, None, nbytes, f"exit {code}: {first[0][7:]}")
        return Outcome(job, "wrong", ms, None, nbytes, f"undocumented exit {code}")
    try:
        report = strict_loads(text)
        status, error, detail = VERIFY[job["kind"]](job, report)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(job, "wrong", ms, None, nbytes, f"malformed report: {exc}")
    return Outcome(job, status, ms, error, nbytes, detail)


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


def _execute_rn(job: dict) -> Outcome:
    x = complex(*job["x"])
    t0 = time.perf_counter()
    try:
        spec = families.FamilySpec.from_json(job["family"])
        source = families.realize(spec, 64)
        got = [genfun.rn_by_contour(source, n, x, nodes=NODES) for n in range(RN_ORDER + 1)]
    except Exception as exc:
        return Outcome(job, "wrong", _ms(t0), None, 0, f"uncaught {type(exc).__name__}: {exc}")
    ms = _ms(t0)
    d = reference_coeffs(config_key(job["family"]), RN_ORDER)
    worst = max(abs(v - _direct_rn(d, n, x)) for n, v in enumerate(got))
    if not worst <= RN_TOL:
        return Outcome(job, "wrong", ms, worst, 0, f"R_n(x) off by {worst:.3e}")
    return Outcome(job, "ok", ms, worst, 0)


# -- references ----------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def reference_coeffs(family_key: str, order: int) -> tuple[float, ...]:
    """d_0..d_order from each family's closed form, independent of olaurent.

    exp-binomial is the Cauchy product of exp(b z) with the binomial series
    of each (1 - a_j z)^(-lambda_j); every term is positive, so no cancellation.
    """
    family = json.loads(family_key)
    kind = family["kind"]
    if kind == "geometric":
        return (1.0,) * (order + 1)
    if kind == "exponential":
        return tuple(1.0 / math.factorial(k) for k in range(order + 1))
    if kind != "exp-binomial":
        raise ValueError(f"no reference for {kind!r}")
    d = [family["b"] ** k / math.factorial(k) for k in range(order + 1)]
    for a, lam in zip(family["a"], family["family_lambda"]):
        c = [1.0]
        for m in range(1, order + 1):
            c.append(c[-1] * (lam + m - 1) / m * a)
        d = [sum(d[i] * c[k - i] for i in range(k + 1)) for k in range(order + 1)]
    return tuple(d)


def _direct_rn(d, n: int, x: complex) -> complex:
    """R_n(x) = f_n(x) / x^ceil(n/2) by Horner on the reference coefficients."""
    acc = 0j
    for k in range(n, -1, -1):
        acc = acc * x + d[k]
    return acc / x ** ((n + 1) // 2)


# -- verification per job kind ---------------------------------------------------
#
# Each returns (status, worst error, detail); a missing field raises KeyError,
# which execute() turns into a malformed-report failure.

def _gram_error(job: dict, report: dict) -> tuple[float, str]:
    K = job["K"]
    G = np.asarray(report["gram"], dtype=np.float64)
    if G.shape != (K + 1, K + 1, 2):
        raise ValueError(f"gram shape {G.shape}, want {(K + 1, K + 1, 2)}")
    G = G[..., 0] + 1j * G[..., 1]
    d = reference_coeffs(config_key(job["family"]), K + 1)
    closed = np.array([d[n] if n % 2 == 0 else -d[n + 1] for n in range(K + 1)])
    diag = np.diag(G)
    diag_err = float(np.max(np.abs(diag - closed) / (1 + np.abs(closed))))
    off = float(np.max(np.abs(G - np.diag(diag)))) if K > 0 else 0.0
    if not (diag_err <= DIAG_TOL and off <= OFFDIAG_TOL):
        return max(diag_err, off), f"gram diag error {diag_err:.3e}, off-diagonal {off:.3e}"
    return max(diag_err, off), ""


def verify_gram(job, report):
    err, bad = _gram_error(job, report)
    return ("wrong", err, bad) if bad else ("ok", err, "")


def verify_contour(job, report):
    err, bad = _gram_error(job, report)
    if bad:
        return "wrong", err, bad
    route = float(report["contour"]["max_route_disagreement"])
    if not route <= ROUTE_TOL:
        return "miss", max(err, route), f"route disagreement {route:.3e} > {ROUTE_TOL:g}"
    return "ok", max(err, route), ""


def verify_build(job, report):
    K = job["K"]
    d = reference_coeffs(config_key(job["family"]), K)
    R = report["R"]
    if [entry["n"] for entry in R] != list(range(K + 1)):
        raise ValueError("R entries are not indexed 0..K")
    worst = 0.0
    for entry in R:
        n, shift = entry["n"], (entry["n"] + 1) // 2
        exps = [e for e, _, _ in entry["coeffs"]]
        if exps != list(range(-shift, n - shift + 1)):
            return "wrong", None, f"R_{n} support {exps[:1]}..{exps[-1:]} is wrong"
        for e, re_, im in entry["coeffs"]:
            ref = d[e + shift]
            worst = max(worst, abs(complex(re_, im) - ref) / abs(ref))
    if not worst <= COEFF_TOL:
        return "wrong", worst, f"R coefficients off by {worst:.3e} relative"
    dev = float(report["normalization"]["max_rel_deviation"])
    if not dev <= NORM_TOL:
        return "miss", max(worst, dev), f"normalization deviation {dev:.3e}"
    return "ok", max(worst, dev), ""


def verify_genfun(job, report):
    # residuals are truncation residuals held to their own tail bounds, not
    # errors against a reference, so they report no error for accuracy_digits
    rows = report["samples"]
    if len(rows) != 40:
        raise ValueError(f"{len(rows)} genfun rows, want 40")
    if not all(r["passed"] and r["residual"] <= r["bound"] for r in rows):
        return "wrong", None, "exit 0 with a failed genfun sample"
    if report["all_passed"] is not True:
        return "wrong", None, "exit 0 without all_passed"
    return "ok", None, ""


def verify_finite(job, report):
    weights = [float(w) for _, _, w in report["atoms"]]
    M = len(weights)
    total = abs(math.fsum(weights) - 1.0)
    if not total <= FINITE_TOL:
        return "wrong", total, f"weights sum to 1 + {total:.3e}"
    res = max(float(report["moment_residual_max"]),
              float(report["representation_residual_max"]), total)
    if not res <= FINITE_TOL:
        return "miss", res, f"residual {res:.3e} > {FINITE_TOL:g}"
    if not float(report["min_weight"]) >= 1.0 / (2 * M):
        return "miss", res, f"min weight {report['min_weight']:.3e} < 1/(2M)"
    return "ok", res, ""


VERIFY = {"build": verify_build, "gram": verify_gram, "contour": verify_contour,
          "genfun": verify_genfun, "finite": verify_finite}
