"""Command-line front end emitting machine-readable reports.

Subcommands: ``build`` (R_0..R_K plus recurrence data and the
normalization cross-check), ``ortho`` (Gram matrix; with ``--radius``,
the route disagreement max |G(delta)| / (1 + |G|) for the float Gram of
the exact moment difference delta = mu~ - mu, and its rounding bound
``route_disagreement_bound``), ``moments`` (exact moment table), ``genfun-check``
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
except ``build``'s ``R`` and ``ortho``'s ``gram``: each d_k, or each
nonzero Gram entry, is encoded once by that encoder and its text joined
into the field, the same bytes as the encoder gives.  It is strict JSON: a
report holding a NaN or an infinity is not written, and the run exits 3
with UnrepresentableValue.  Every report embeds the command, the package
version and the resolved configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from itertools import groupby

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
    system_order,
)
from .functional import (
    ContourSpec,
    apply_L,
    contour_moments,
    difference_gram,
    exact_moments,
    gram_matrix,
)
from .genfun import check_laurent_genfun, check_partial_sum_genfun
from .systems import build_system, check_normalization, recurrence_data

__all__ = ["main"]

EVAL_ORDER = 64
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
# the size flags, each refused outside [least value, MAX_ORDER] before anything is realized
SIZES = {"order": 0, "window": 0, "terms": 0, "samples": 1}


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
    terms.  Two text tables make every row: one head ``[e,`` per exponent
    e from -ceil(K/2) to floor(K/2), and one tail ``re,im]`` per d_k, cut
    from the one encoding of the [re, im] pairs (no float text holds a
    bracket).  R_{2c-1} is heads -c..c-1 joined to tails 0..2c-1, and
    R_{2c} is R_{2c-1}, whose exponents also start at -c, plus one row,
    so the two share one join.  The bytes are those of :func:`_json` on
    the row form.
    """
    tails = _json(_pairs(coeffs))[2:-1].split(",[")
    m = len(tails) // 2     # ceil(K/2): R_n's exponents start at -ceil(n/2)
    heads = [f"[{e}," for e in range(-m, len(tails) - m)]
    out = ['{"coeffs":[' + heads[m] + tails[0] + '],"n":0}']
    for c in range(1, m + 1):
        rows = ",".join(map(operator.add, heads[m - c:m + c], tails[:2 * c]))
        out.append(f'{{"coeffs":[{rows}],"n":{2 * c - 1}}}')
        if 2 * c < len(tails):
            out.append(f'{{"coeffs":[{rows},{heads[m + c]}{tails[2 * c]}],"n":{2 * c}}}')
    return "[" + ",".join(out) + "]"


def _gram_text(G) -> str:
    """:func:`_json` of ``_pairs(G)`` for a complex128 `G`, encoding only its nonzero entries.

    An entry is zero when both its parts have the bits of +0.0, so a -0.0
    part is encoded; a zero entry is the literal ``[0.0,0.0]``.  Each row
    is written as runs of that literal around its nonzero cells, so no
    text is made per zero cell.
    """
    flat, k = G.ravel(), G.shape[1]
    bits = flat.view(np.uint64)
    nonzero = np.flatnonzero(bits[0::2] | bits[1::2]).tolist()
    zero = "[0.0,0.0],"
    rows = [zero * k] * G.shape[0]
    cells = zip(nonzero, _json(_pairs(flat[nonzero]))[2:-2].split("],["))
    for r, row in groupby(cells, lambda cell: cell[0] // k):
        parts, at = [], r * k   # `at`: the flat index of the next cell to write
        for i, t in row:
            parts += zero * (i - at), f"[{t}],"
            at = i + 1
        rows[r] = "".join(parts) + zero * (r * k + k - at)
    return "[[" + "],[".join(row[:-1] for row in rows) + "]]"


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

    A size flag (:data:`SIZES`) outside its range is refused here, naming the flag and its value.

    ``args.given`` names the settings given as flags: argparse leaves None for the others.
    """
    args.given = {dest for dest, *_ in SETTINGS if getattr(args, dest, None) is not None}
    for dest, kind, default, _, _ in SETTINGS:
        value = getattr(args, dest, None)
        if value is None:
            value = default
        elif kind is FamilySpec:
            value = _family_flag(value)
        elif dest in SIZES and not SIZES[dest] <= value <= MAX_ORDER:
            raise InvalidParams(f"--{dest} must be in [{SIZES[dest]}, MAX_ORDER = {MAX_ORDER}], got {value}")
        setattr(args, dest, value)


def _emit(args, report: dict) -> None:
    """Write `report` in the envelope every report shares.

    The report is written key by key in sorted order, each value by
    :func:`_json`; a callable value returns the JSON text of its field
    (``build``'s ``R`` and ``ortho``'s ``gram``).
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
    if "nodes" in args.given and "radius" not in args.given:
        raise InvalidParams("--nodes counts the contour's nodes: give --radius too, or drop --nodes")
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
        "gram": lambda: _gram_text(gram),
        "diag": _pairs(np.diag(gram)),
        "max_offdiag": float(np.max(abs(gram - np.diag(np.diag(gram))))),
        "min_abs_diag": float(np.min(np.abs(np.diag(gram)))),
    }
    if spec is not None:
        diff, err = difference_gram(system, moments, contour_moments(source, spec, window))
        scale = 1 + np.abs(gram)
        worst = float(np.max(np.abs(diff) / scale))
        if not math.isfinite(worst):
            raise UnrepresentableValue("route disagreement overflows a double")
        # |G(delta)| <= |diff| + err; each rounded |diff| / scale is within 6u
        # of its quotient and err / scale within 5u of its own, which the
        # factors 1 + 2**-48 and 2**-49 = 16u cover; the ulp covers this sum
        bound = math.nextafter(float(np.max(err / scale)) * (1 + 2.0 ** -48)
                               + 2.0 ** -49 * worst, math.inf)
        if not math.isfinite(bound):
            raise UnrepresentableValue("route disagreement bound overflows a double")
        report["contour"] = {"radius": radius, "nodes": nodes,
                             "max_route_disagreement": worst,
                             "route_disagreement_bound": bound}
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
    if seed < 0:
        raise InvalidParams(f"seed must be >= 0, got {seed}")

    system = build_system(realize(family, _series_order(family, terms)), terms)
    rng = np.random.default_rng(seed)

    xs, zs, ts = [], [], []
    for i in range(samples):
        xs.append(min(family.radius, 3.0) * rng.uniform(0.2, 0.6) * _phase(rng))
        # z = 0 collapses the Laurent identity to lhs = 2, a fixed point
        # every run should hit; later samples move away from it.
        zs.append(0j if i == 0 else xs[-1] ** 0.5 * rng.uniform(0.2, 0.6) * _phase(rng))
        ts.append(rng.uniform(0.2, 0.7) * _phase(rng))
    partial = check_partial_sum_genfun(system, xs, ts, terms)
    laurent = check_laurent_genfun(system, xs, zs, terms)
    rows = [{"index": i, "kind": kind, "x": [x.real, x.imag], key: [value.real, value.imag],
             "residual": check.residual, "bound": check.bound, "passed": check.passed}
            for i, x in enumerate(xs)
            for kind, key, value, check in (("partial_sum", "t", ts[i], partial[i]),
                                            ("laurent", "z", zs[i], laurent[i]))]
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
        n_cap, config = fspec.n_cap, {"finite_spec": fspec.to_json()}
    else:
        # a family's own recurrence gives back its partial sums, Q_k = R_k, so
        # its system is R_0..R_{4 n_cap}, realized once n_cap is checked
        n_cap, config = args.ncap, {"family": args.family.to_json(), "n_cap": args.ncap}
        source = realize(args.family, system_order(n_cap))
        system = build_system(source, 4 * n_cap)
    level = n_cap if args.level is None else args.level
    if not 1 <= level <= 2 * n_cap:
        raise InvalidParams(f"level must be in [1, 2 n_cap = {2 * n_cap}], got {level}")

    Q = build_Q(fspec) if source is None else system.R
    table = solve_moments(Q, 2 * n_cap)
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
        "config": {**config, "level": level},
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
