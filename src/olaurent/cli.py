"""Command-line front end emitting machine-readable reports.

Subcommands: ``build`` (R_0..R_K plus recurrence data and the
normalization cross-check), ``ortho`` (Gram matrix, optional contour
route agreement), ``moments`` (exact moment table), ``genfun-check``
(randomized residual checks of both generating-function identities) and
``finite`` (finite-system solve, atomic measure, representation
residuals).

Exit codes: 0 success, 2 configuration error, 3 numeric-validation
failure, 4 representation-condition failure.

Reports are deterministic for a fixed configuration and seed: JSON uses
sorted keys, complex values serialize as [re, im] pairs, Gram matrices
as row-major nested arrays, and CSV cells use the textual "re+imi"
form.  Every report embeds the resolved configuration and the package
version.
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
from .genfun import GenfunSample, check_laurent_genfun, check_partial_sum_genfun
from .series import LaurentPoly
from .systems import build_system, check_normalization, recurrence_data

__all__ = ["main"]

EVAL_ORDER = 64
GENFUN_FLOOR = 1e-13
CONFIG_NUMBERS = ("K", "window", "samples", "terms", "seed", "n_cap", "level")


def _c2j(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _fmt_complex_csv(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


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


def _load_family(value: str | None, config: dict) -> FamilySpec:
    if value is not None:
        text = value.strip()
        if text == "geometric":
            return FamilySpec.geometric()
        if text == "exponential":
            return FamilySpec.exponential()
        return FamilySpec.from_json(_load_json_arg(value, "family"))
    if config.get("family") is not None:
        return FamilySpec.from_json(config["family"])
    return FamilySpec.geometric()


def _pick(flag, config: dict, key: str, default):
    if flag is not None:
        return flag
    if config.get(key) is not None:
        return config[key]
    return default


def _load_config(value: str) -> dict:
    """The ``--config`` object, with its nested objects and numbers checked."""
    config = _load_json_arg(value, "config")
    if not isinstance(config, dict) or not all(
            isinstance(config.get(key) or {}, dict) for key in ("contour", "output")):
        raise InvalidParams("config, its 'contour' and its 'output' must be JSON objects")
    contour, output = config.get("contour") or {}, config.get("output") or {}
    if not isinstance(output.get("path") or "", str):
        raise InvalidParams("config output 'path' must be a string")
    numbers = {key: config.get(key) for key in CONFIG_NUMBERS}
    numbers.update(radius=contour.get("radius"), nodes=contour.get("nodes"))
    for key, value in numbers.items():
        if value is not None and (type(value) not in (int, float) or not abs(value) < math.inf):
            raise InvalidParams(f"config {key!r} must be a finite number, got {value!r}")
    return config


def _options(args) -> tuple[dict, str, str | None]:
    """The run configuration, the report format and the report path."""
    config = _load_config(args.config) if args.config else {}
    output = config.get("output") or {}
    fmt = _pick(args.format, output, "format", "json")
    return config, fmt, _pick(args.out, output, "path", None)


def _emit(report: dict, command: str, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        text = _to_csv(command, report)
    else:
        raise InvalidParams(f"unknown format {fmt!r}")
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidParams(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)


def _to_csv(command: str, report: dict) -> str:
    lines: list[str] = []
    if command == "build":
        lines.append("n,exponent,coeff")
        for entry in report["R"]:
            for e, re_, im in entry["coeffs"]:
                lines.append(f"{entry['n']},{e},{_fmt_complex_csv(complex(re_, im))}")
    elif command == "ortho":
        lines.append("row,col,value")
        for i, row in enumerate(report["gram"]):
            for j, (re_, im) in enumerate(row):
                lines.append(f"{i},{j},{_fmt_complex_csv(complex(re_, im))}")
    elif command == "moments":
        lines.append("m,value")
        for m, re_, im in report["moments"]:
            lines.append(f"{m},{_fmt_complex_csv(complex(re_, im))}")
    elif command == "genfun-check":
        lines.append("index,kind,residual,bound,passed")
        for s in report["samples"]:
            lines.append(f"{s['index']},{s['kind']},{s['residual']:.17g},"
                         f"{s['bound']:.17g},{s['passed']}")
    elif command == "finite":
        lines.append("location,weight")
        for re_, im, w in report["atoms"]:
            lines.append(f"{_fmt_complex_csv(complex(re_, im))},{w:.17g}")
    else:
        raise InvalidParams(f"no CSV projection for {command}")
    return "\n".join(lines) + "\n"


def _poly_coeffs_json(p: LaurentPoly) -> list[list]:
    return [[e, c.real, c.imag] for e, c in p.items()]


def cmd_build(args) -> int:
    config, fmt, out = _options(args)
    family = _load_family(args.family, config)
    order = int(_pick(args.order, config, "K", 8))

    source = realize(family, max(order, 1))
    system = build_system(source, order)
    rd = recurrence_data(source, order)
    norm = check_normalization(system, rd)

    report = {
        "command": "build",
        "version": __version__,
        "config": {"family": family.to_json(), "order": order, "format": fmt},
        "R": [{"n": n, "coeffs": _poly_coeffs_json(system.R[n])}
              for n in range(order + 1)],
        "recurrence": {
            "c": [_c2j(v) for v in rd.c],
            "recur_lambda": [_c2j(v) for v in rd.recur_lambda],
            "xi": [_c2j(v) for v in rd.xi],
            "g": [_c2j(v) for v in rd.g],
            "f_rec": [_c2j(v) for v in rd.f_rec],
            "index_note": "entry k holds the index-k coefficient; index 0 is unused",
        },
        "normalization": {
            "per_index": list(norm.per_index),
            "max_rel_deviation": norm.max_rel_deviation,
        },
    }
    _emit(report, "build", out, fmt)
    return 0


def cmd_ortho(args) -> int:
    config, fmt, out = _options(args)
    family = _load_family(args.family, config)
    order = int(_pick(args.order, config, "K", 8))
    contour_cfg = config.get("contour") or {}
    radius = _pick(args.radius, contour_cfg, "radius", None)
    nodes = int(_pick(args.nodes, contour_cfg, "nodes", 512))

    spec = ContourSpec(radius=float(radius), nodes=nodes) if radius is not None else None
    # the Gram matrix reads d_0..d_window; only the contour needs a long tail
    window = 2 * math.ceil(order / 2)
    source = realize(family, window if spec is None else max(window, EVAL_ORDER))
    system = build_system(source, order)
    moments = exact_moments(source, window)
    gram = gram_matrix(system, moments)

    offdiag = abs(gram - np.diag(np.diag(gram)))
    report = {
        "command": "ortho",
        "version": __version__,
        "config": {"family": family.to_json(), "order": order, "format": fmt,
                   "contour": ({"radius": radius, "nodes": nodes}
                               if radius is not None else None)},
        "gram": [[_c2j(v) for v in row] for row in gram],
        "diag": [_c2j(v) for v in np.diag(gram)],
        "max_offdiag": float(offdiag.max()) if order > 0 else 0.0,
        "min_abs_diag": float(np.min(np.abs(np.diag(gram)))),
    }
    if spec is not None:
        contour = gram_matrix(system, contour_moments(source, spec, window))
        worst = float(np.max(np.abs(contour - gram) / (1 + np.abs(gram))))
        if not math.isfinite(worst):
            raise UnrepresentableValue("route disagreement overflows a double")
        report["contour"] = {"radius": float(radius), "nodes": nodes,
                             "max_route_disagreement": worst}
    _emit(report, "ortho", out, fmt)
    return 0


def cmd_moments(args) -> int:
    config, fmt, out = _options(args)
    family = _load_family(args.family, config)
    window = int(_pick(args.window, config, "window", 6))

    source = realize(family, max(window, 1))
    table = exact_moments(source, window)
    report = {
        "command": "moments",
        "version": __version__,
        "config": {"family": family.to_json(), "window": window, "format": fmt},
        "ordering": "ascending m from -window to window",
        "moments": [[m, table[m].real, table[m].imag]
                    for m in range(-window, window + 1)],
    }
    _emit(report, "moments", out, fmt)
    return 0


def _sample_x(rng: np.random.Generator, radius: float) -> complex:
    base = radius if math.isfinite(radius) else 3.0
    mag = base * rng.uniform(0.2, 0.6)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return mag * complex(math.cos(phase), math.sin(phase))


def cmd_genfun(args) -> int:
    config, fmt, out = _options(args)
    family = _load_family(args.family, config)
    samples = int(_pick(args.samples, config, "samples", 20))
    terms = int(_pick(args.terms, config, "terms", 80))
    seed = int(_pick(args.seed, config, "seed", 0))
    if not 1 <= samples <= MAX_ORDER:
        raise InvalidParams(f"samples must be in [1, MAX_ORDER = {MAX_ORDER}], got {samples}")

    source = realize(family, max(terms, 1))
    system = build_system(source, terms)
    rng = np.random.default_rng(seed)

    rows = []
    all_passed = True
    max_residual = 0.0
    for i in range(samples):
        x = _sample_x(rng, family.radius)
        s = x ** 0.5
        # z = 0 collapses the Laurent identity to lhs = 2, a fixed point
        # every run should hit; later samples move away from it.
        z = 0j if i == 0 else s * rng.uniform(0.2, 0.6) * complex(
            math.cos(rng.uniform(0, 2 * math.pi)),
            math.sin(rng.uniform(0, 2 * math.pi)))
        t = rng.uniform(0.2, 0.7) * complex(
            math.cos(rng.uniform(0, 2 * math.pi)),
            math.sin(rng.uniform(0, 2 * math.pi)))
        for kind, sample in (
            ("partial_sum", GenfunSample(x=x, terms=terms, t=t)),
            ("laurent", GenfunSample(x=x, terms=terms, z=z)),
        ):
            check = (check_partial_sum_genfun if kind == "partial_sum"
                     else check_laurent_genfun)(system, sample)
            allowed = check.tail_bound + GENFUN_FLOOR * (1 + abs(check.lhs))
            passed = check.residual <= allowed
            all_passed = all_passed and passed
            max_residual = max(max_residual, check.residual)
            row = {"index": i, "kind": kind, "x": _c2j(x),
                   "residual": check.residual, "bound": allowed,
                   "passed": passed}
            row["t" if kind == "partial_sum" else "z"] = _c2j(t if kind == "partial_sum" else z)
            rows.append(row)

    report = {
        "command": "genfun-check",
        "version": __version__,
        "config": {"family": family.to_json(), "samples": samples,
                   "terms": terms, "seed": seed, "format": fmt},
        "samples": rows,
        "max_residual": max_residual,
        "all_passed": all_passed,
    }
    _emit(report, "genfun-check", out, fmt)
    return 0 if all_passed else 3


def cmd_finite(args) -> int:
    config, fmt, out = _options(args)
    ncap = int(_pick(args.ncap, config, "n_cap", 2))

    source = None
    if args.spec is not None:
        fspec = FiniteSystemSpec.from_json(_load_json_arg(args.spec, "finite spec"))
    elif args.family is not None or config.get("family") is not None:
        family = _load_family(args.family, config)
        source = realize(family, 4 * ncap)
        fspec = FiniteSystemSpec.from_partial_sums(source, ncap)
    else:
        fspec = FiniteSystemSpec(n_cap=ncap)
    level = int(_pick(args.level, config, "level", fspec.n_cap))

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
    rep_res = max(abs(represent_functional(solve, measure, Q[k]) - apply_L(Q[k], table))
                  for k in range(min(2 * level, len(Q) - 1) + 1))

    report = {
        "command": "finite",
        "version": __version__,
        "config": {"finite_spec": fspec.to_json(), "level": level, "format": fmt},
        "a": _c2j(solve.a),
        "s": [_c2j(v) for v in solve.s],
        "radius": measure.radius,
        "atoms": [[z.real, z.imag, w] for z, w in measure.atoms],
        "min_weight": min(w for _, w in measure.atoms),
        "moment_residual_max": moment_res,
        "representation_residual_max": rep_res,
        "solve_amplification_log2": table.scale - SOLVE_GUARD_BITS,
        "exact_moment_deviation": exact_dev,
        "a_relative_deviation": a_rel,
        "moments": [[m, table[m].real, table[m].imag]
                    for m in range(-table.window, table.window + 1)],
    }
    _emit(report, "finite", out, fmt)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="olaurent",
        description="Orthogonal Laurent polynomials from power-series partial sums")
    p.add_argument("--version", action="version", version=f"olaurent {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--family", help="geometric | exponential | inline JSON | JSON file")
        sp.add_argument("--config", help="JSON file with run options; flags override")
        sp.add_argument("--out", help="report path (stdout when omitted)")
        sp.add_argument("--format", choices=("json", "csv"), default=None)

    b = sub.add_parser("build", help="construct R_0..R_K and recurrence data")
    common(b)
    b.add_argument("--order", type=int, default=None, help="max index K")
    b.set_defaults(func=cmd_build)

    o = sub.add_parser("ortho", help="Gram matrix, optional contour cross-check")
    common(o)
    o.add_argument("--order", type=int, default=None, help="max index K")
    o.add_argument("--radius", type=float, default=None, help="contour radius c")
    o.add_argument("--nodes", type=int, default=None, help="quadrature nodes")
    o.set_defaults(func=cmd_ortho)

    m = sub.add_parser("moments", help="exact moment table over [-window, window]")
    common(m)
    m.add_argument("--window", type=int, default=None)
    m.set_defaults(func=cmd_moments)

    g = sub.add_parser("genfun-check", help="residual checks of both identities")
    common(g)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--samples", type=int, default=None)
    g.add_argument("--terms", type=int, default=None)
    g.set_defaults(func=cmd_genfun)

    f = sub.add_parser("finite", help="finite-system moments and atomic measure")
    common(f)
    f.add_argument("--spec", help="FiniteSystemSpec as inline JSON or a file")
    f.add_argument("--ncap", type=int, default=None, help="system size n")
    f.add_argument("--level", type=int, default=None,
                   help="representation level (default: n)")
    f.set_defaults(func=cmd_finite)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OLaurentError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
