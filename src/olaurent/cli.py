"""Command-line front end emitting machine-readable reports.

Subcommands: ``build`` (R_0..R_K plus recurrence data and the
normalization cross-check), ``ortho`` (Gram matrix, optional contour
route agreement), ``moments`` (exact moment table), ``genfun-check``
(randomized residual checks of both generating-function identities) and
``finite`` (finite-system solve, atomic measure, representation
residuals).

Each setting is named once, in :data:`SETTINGS`: its flag, its type and
its default.

Exit codes: 0 success, 2 configuration error, 3 numeric-validation
failure, 4 representation-condition failure.

Reports are deterministic for a fixed configuration and seed.  A JSON
report is one compact line: sorted keys, no whitespace, complex values
as [re, im] pairs, Gram matrices as row-major nested arrays, and Laurent
polynomials as [exponent, re, im] rows over their nonzero terms;
``python -m json.tool report.json`` pretty-prints it.  Each top-level
key and value is encoded by one ``json.JSONEncoder`` with the settings
of ``json.dumps(sort_keys=True, separators=(",", ":"), allow_nan=False)``,
except ``build``'s ``R`` field: there each d_k is encoded once by that
encoder and its text joined into the rows of every R_n that holds it,
the same bytes as the encoder gives for the rows.  It is strict JSON: a
report holding a NaN or an infinity is not written, and the run exits 3
with UnrepresentableValue.  Every report embeds the command, the package
version and the resolved configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import InvalidParams, OLaurentError, UnrepresentableValue
from .families import MAX_ORDER, FamilySpec, realize
from .finite import (
    SOLVE_GUARD_BITS,
    FiniteSystemSpec,
    FunctionalSolve,
    build_atomic_measure,
    build_Q,
    represent_functional,
    solve_moments,
)
from .functional import ContourSpec, apply_L, contour_moments, exact_moments, gram_matrix
from .genfun import check_laurent_genfun, check_partial_sum_genfun
from .systems import build_system, check_normalization, recurrence_data

__all__ = ["main"]

EVAL_ORDER = 64
GENFUN_FLOOR = 1e-13
EVERY = "*"

# Each setting once: its flag dest (the flag is --dest), its type, its
# default, the subcommands that take the flag and its help.  The family
# flag also takes a stock name or a file.
SETTINGS = (
    ("family", FamilySpec, FamilySpec("geometric"), EVERY,
     "geometric | exponential | inline JSON | JSON file"),
    ("out", str, None, EVERY, "report path (stdout when omitted)"),
    ("order", int, 8, "build ortho", "max index K"),
    ("radius", float, None, "ortho", "contour radius c"),
    ("nodes", int, 512, "ortho", "quadrature nodes"),
    ("window", int, 6, "moments", None),
    ("seed", int, 0, "genfun-check", None),
    ("samples", int, 20, "genfun-check", None),
    ("terms", int, 80, "genfun-check", None),
    ("spec", str, None, "finite", "FiniteSystemSpec as inline JSON or a file"),
    ("ncap", int, 2, "finite", "system size n"),
    ("level", int, None, "finite", "representation level (default: n)"),
)


def _pairs(values) -> list:
    """[re, im] pairs of the complex `values`, nested as they are, by one ``tolist()``."""
    a = np.asarray(values, dtype=np.complex128)
    return np.stack([a.real, a.imag], -1).tolist()


# one encoder for every report value, as json.dumps would build it; a report
# is a tree each command builds fresh, so the check for reference cycles is skipped
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False,
                            check_circular=False)


def _json(value) -> str:
    """`value` as one compact, key-sorted line of strict JSON.

    A NaN or an infinity, which strict JSON cannot write, raises
    UnrepresentableValue.
    """
    try:
        return _ENCODER.encode(value)
    except ValueError as exc:
        raise UnrepresentableValue(
            "the report holds a NaN or an infinity, which strict JSON cannot write") from exc


def _system_text(coeffs) -> str:
    """JSON text of the ``R`` field of R_0..R_K from d_0..d_K: ``[{"coeffs", "n"}, ...]``.

    R_n is d_k x^(k - ceil(n/2)) for k = 0..n, as [exponent, re, im] rows,
    and every d_k of a system is nonzero, so these are exactly its nonzero
    terms.  Each d_k is encoded once, as the ``re,im`` text of its
    [re, im] pair (no float text holds a bracket), and written into the
    K - k + 1 rows that hold it.  R_{2c} is R_{2c-1}, whose exponents
    also start at -c, plus one row, so the two share one join.  The bytes
    are those of :func:`_json` on the row form.
    """
    d = _json(_pairs(coeffs))[2:-2].split("],[")
    out = ['{"coeffs":[[0,' + d[0] + ']],"n":0}']
    for c in range(1, len(d) // 2 + 1):
        rows = ",".join(f"[{k - c},{t}]" for k, t in enumerate(d[:2 * c]))
        out.append(f'{{"coeffs":[{rows}],"n":{2 * c - 1}}}')
        if 2 * c < len(d):
            out.append(f'{{"coeffs":[{rows},[{c},{d[2 * c]}]],"n":{2 * c}}}')
    return "[" + ",".join(out) + "]"


def _moment_rows(table) -> list:
    """[m, re, im] rows of the MomentTable `table`, in ascending m."""
    return [[m, z.real, z.imag] for m in range(-table.window, table.window + 1) for z in (table[m],)]


def _load_json_arg(value: str, what: str) -> dict:
    """Parse `value` as inline JSON when it looks like it, else as a file path."""
    text = value.strip()
    try:
        if text.startswith("{"):
            return json.loads(text)
        with open(value) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidParams(f"cannot read {what}: {exc}") from exc


def _family_flag(value: str) -> FamilySpec:
    """A kind that needs no fields (a stock name), else a family as inline JSON or a file."""
    try:
        return FamilySpec(kind=value.strip())
    except InvalidParams:
        return FamilySpec.from_json(_load_json_arg(value, "family"))


def _resolve(args) -> None:
    """Set each setting on `args` to its flag's value, else to its default; read ``--family``.

    ``args.given`` names the settings given as flags: argparse leaves None for the others.
    """
    args.given = {dest for dest, *_ in SETTINGS if getattr(args, dest, None) is not None}
    for dest, kind, default, _, _ in SETTINGS:
        value = getattr(args, dest, None)
        if value is None:
            value = default
        elif kind is FamilySpec:
            value = _family_flag(value)
        setattr(args, dest, value)


def _emit(args, report: dict) -> None:
    """Write `report` in the envelope every report shares.

    The report is written key by key in sorted order, each value by
    :func:`_json`; a callable value returns the JSON text of its field
    (``build``'s ``R``).
    """
    report.update(command=args.command, version=__version__)
    # JSON is the one format; report format 2 drops this key
    report["config"]["format"] = "json"
    text = "{" + ",".join(f"{_json(key)}:{value() if callable(value) else _json(value)}"
                          for key, value in sorted(report.items())) + "}\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidParams(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)


def _series_order(family: FamilySpec, reads: int) -> int:
    """Order for a route reading d_0..d_reads that evaluates f: EVAL_ORDER where it is given."""
    given = EVAL_ORDER if family.kind != "explicit" else len(family.coeffs) - 1
    return max(reads, min(EVAL_ORDER, given))


def cmd_build(args) -> int:
    order = args.order
    source = realize(args.family, order)
    system = build_system(source, order)
    rd = recurrence_data(source, order)
    norm = check_normalization(system, rd)

    report = {
        "config": {"family": args.family.to_json(), "order": order},
        "R": lambda: _system_text(source.coeffs),
        "recurrence": {
            "c": _pairs(rd.c),
            "recur_lambda": _pairs(rd.recur_lambda),
            "xi": _pairs(rd.xi),
            "g": _pairs(rd.g),
            "f_rec": _pairs(rd.f_rec),
            "index_note": "entry k holds the index-k coefficient; index 0 is unused",
        },
        "normalization": {
            "per_index": list(norm.per_index),
            "max_rel_deviation": norm.max_rel_deviation,
        },
    }
    _emit(args, report)
    return 0


def cmd_ortho(args) -> int:
    order, radius, nodes = args.order, args.radius, args.nodes
    spec = ContourSpec(radius=radius, nodes=nodes) if radius is not None else None
    # the Gram matrix reads d_0..d_window; only the contour evaluates f
    window = 2 * math.ceil(order / 2)
    source = realize(args.family, window if spec is None else _series_order(args.family, window))
    system = build_system(source, order)
    moments = exact_moments(source, window)
    gram = gram_matrix(system, moments)

    report = {
        "config": {"family": args.family.to_json(), "order": order,
                   "contour": ({"radius": radius, "nodes": nodes}
                               if radius is not None else None)},
        "gram": _pairs(gram),
        "diag": _pairs(np.diag(gram)),
        "max_offdiag": float(np.max(abs(gram - np.diag(np.diag(gram))))),
        "min_abs_diag": float(np.min(np.abs(np.diag(gram)))),
    }
    if spec is not None:
        contour = gram_matrix(system, contour_moments(source, spec, window))
        worst = float(np.max(np.abs(contour - gram) / (1 + np.abs(gram))))
        if not math.isfinite(worst):
            raise UnrepresentableValue("route disagreement overflows a double")
        report["contour"] = {"radius": radius, "nodes": nodes,
                             "max_route_disagreement": worst}
    _emit(args, report)
    return 0


def cmd_moments(args) -> int:
    window = args.window
    table = exact_moments(realize(args.family, window), window)
    report = {
        "config": {"family": args.family.to_json(), "window": window},
        "ordering": "ascending m from -window to window",
        "moments": _moment_rows(table),
    }
    _emit(args, report)
    return 0


def _phase(rng: np.random.Generator) -> complex:
    """exp(i u) for one angle u drawn uniformly from [0, 2 pi)."""
    u = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(u), math.sin(u))


def cmd_genfun(args) -> int:
    family, samples, terms, seed = args.family, args.samples, args.terms, args.seed
    if not 1 <= samples <= MAX_ORDER:
        raise InvalidParams(f"samples must be in [1, MAX_ORDER = {MAX_ORDER}], got {samples}")
    if seed < 0:
        raise InvalidParams(f"seed must be >= 0, got {seed}")

    system = build_system(realize(family, _series_order(family, terms)), terms)
    rng = np.random.default_rng(seed)

    rows = []
    for i in range(samples):
        x = min(family.radius, 3.0) * rng.uniform(0.2, 0.6) * _phase(rng)
        s = x ** 0.5
        # z = 0 collapses the Laurent identity to lhs = 2, a fixed point
        # every run should hit; later samples move away from it.
        z = 0j if i == 0 else s * rng.uniform(0.2, 0.6) * _phase(rng)
        t = rng.uniform(0.2, 0.7) * _phase(rng)
        for kind, key, value, check in (("partial_sum", "t", t, check_partial_sum_genfun),
                                        ("laurent", "z", z, check_laurent_genfun)):
            result = check(system, x, value, terms)
            allowed = result.tail_bound + GENFUN_FLOOR * (1 + abs(result.lhs))
            rows.append({"index": i, "kind": kind, "x": [x.real, x.imag],
                         key: [value.real, value.imag],
                         "residual": result.residual, "bound": allowed,
                         "passed": result.residual <= allowed})
    failed = [r for r in rows if not r["passed"]]

    report = {
        "config": {"family": family.to_json(), "samples": samples,
                   "terms": terms, "seed": seed},
        "samples": rows,
        "max_residual": max(r["residual"] for r in rows),
        "all_passed": not failed,
    }
    _emit(args, report)
    if failed:
        worst = max(failed, key=lambda r: r["residual"] / r["bound"])
        print(f"error: genfun-check: {len(failed)} of {len(rows)} samples miss their bound; "
              f"worst: sample {worst['index']} {worst['kind']}, residual "
              f"{worst['residual']:.3e} > bound {worst['bound']:.3e}", file=sys.stderr)
        return 3
    return 0


def cmd_finite(args) -> int:
    source = None
    if args.spec is not None:
        if args.given & {"ncap", "family"}:
            raise InvalidParams("--spec sets n_cap and the coefficients; drop --ncap and --family")
        fspec = FiniteSystemSpec.from_json(_load_json_arg(args.spec, "finite spec"))
    else:
        # the default system checks n_cap before a family realizes 4 n_cap coefficients
        fspec = FiniteSystemSpec(n_cap=args.ncap)
        if "family" in args.given:
            source = realize(args.family, 4 * fspec.n_cap)
            fspec = FiniteSystemSpec.from_partial_sums(source, fspec.n_cap)
    level = fspec.n_cap if args.level is None else args.level
    if not 1 <= level <= 2 * fspec.n_cap:
        raise InvalidParams(f"level must be in [1, 2 n_cap = {2 * fspec.n_cap}], got {level}")

    Q = build_Q(fspec)
    table = solve_moments(fspec, 2 * fspec.n_cap)
    solve = FunctionalSolve.from_moments(table, level)
    exact_dev = a_rel = None
    if source is not None:
        exact = exact_moments(source, table.window)
        exact_dev = max(abs(table[m] - exact[m]) for m in range(-table.window, table.window + 1))
        a_rel = abs(solve.a - exact[-level]) / abs(exact[-level]) if exact[-level] else None
    measure = build_atomic_measure(solve.s)

    moment_res = max(abs(measure.moment(k) - solve.s[k])
                     for k in range(measure.moment_window + 1))

    def rep_residual(k):
        try:
            return abs(represent_functional(solve, measure, Q[k]) - apply_L(Q[k], table))
        except UnrepresentableValue as exc:
            raise UnrepresentableValue(f"representation_residual at k = {k}: {exc}") from exc

    rep_res = max(map(rep_residual, range(2 * level + 1)))

    report = {
        "config": {"finite_spec": fspec.to_json(), "level": level},
        "a": _pairs(solve.a),
        "s": _pairs(solve.s),
        "radius": measure.radius,
        "atoms": [[z.real, z.imag, w] for z, w in measure.atoms],
        "min_weight": min(w for _, w in measure.atoms),
        "moment_residual_max": moment_res,
        "moment_error_bound": measure.error_bound,
        "representation_residual_max": rep_res,
        "solve_amplification_log2": table.denominator.bit_length() - 1 - SOLVE_GUARD_BITS,
        "exact_moment_deviation": exact_dev,
        "a_relative_deviation": a_rel,
        "moments": _moment_rows(table),
    }
    _emit(args, report)
    return 0


COMMANDS = (
    ("build", cmd_build, "construct R_0..R_K and recurrence data"),
    ("ortho", cmd_ortho, "Gram matrix, optional contour cross-check"),
    ("moments", cmd_moments, "exact moment table over [-window, window]"),
    ("genfun-check", cmd_genfun, "residual checks of both identities"),
    ("finite", cmd_finite, "finite-system moments and atomic measure"),
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="olaurent",
        description="Orthogonal Laurent polynomials from power-series partial sums")
    p.add_argument("--version", action="version", version=f"olaurent {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, func, command_help in COMMANDS:
        sp = sub.add_parser(name, help=command_help)
        sp.set_defaults(func=func)
        for dest, kind, _, commands, flag_help in SETTINGS:
            if commands == EVERY or name in commands.split():
                sp.add_argument(f"--{dest}", type=str if kind is FamilySpec else kind,
                                help=flag_help)
    return p


PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # guards and the strict-JSON gate refuse every overflow in one line
        with np.errstate(all="ignore"):
            _resolve(args)
            return args.func(args)
    except OLaurentError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
