"""Span tracer for the benchmark's traced run.

Wrappers go around the public callables of each ``olaurent`` module, in
every ``olaurent`` module namespace that binds them, and around the
``LaurentPoly`` operators.  No source file is edited: :meth:`Tracer.installed`
swaps the wrappers in and puts the originals back on exit.

A span records name, start, end, parent span and job id.  Spans stay in
memory until :meth:`Tracer.write` stores them.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

# (layer, module, attribute, span label); Class.method labels drop dunders
TARGETS = [
    ("families", "olaurent.families", "realize"),
    ("series", "olaurent.series", "LaurentPoly.__add__"),
    ("series", "olaurent.series", "LaurentPoly.__sub__"),
    ("series", "olaurent.series", "LaurentPoly.__neg__"),
    ("series", "olaurent.series", "LaurentPoly.__mul__"),
    ("series", "olaurent.series", "LaurentPoly.__rmul__"),
    ("series", "olaurent.series", "LaurentPoly.shift"),
    ("series", "olaurent.series", "LaurentPoly.__call__"),
    ("series", "olaurent.series", "TruncatedPowerSeries.__call__"),
    ("series", "olaurent.series", "TruncatedPowerSeries.__mul__"),
    ("series", "olaurent.series", "TruncatedPowerSeries.reciprocal"),
    ("series", "olaurent.series", "TruncatedPowerSeries.tail_bound"),
    ("systems", "olaurent.systems", "build_system"),
    ("systems", "olaurent.systems", "recurrence_data"),
    ("systems", "olaurent.systems", "build_by_recurrence"),
    ("systems", "olaurent.systems", "check_normalization"),
    ("functional", "olaurent.functional", "exact_moments"),
    ("functional", "olaurent.functional", "apply_L"),
    ("functional", "olaurent.functional", "gram_matrix"),
    ("functional", "olaurent.functional", "contour_L"),
    ("genfun", "olaurent.genfun", "check_partial_sum_genfun"),
    ("genfun", "olaurent.genfun", "check_laurent_genfun"),
    ("genfun", "olaurent.genfun", "rn_by_contour"),
    ("finite", "olaurent.finite", "build_Q"),
    ("finite", "olaurent.finite", "solve_moments"),
    ("finite", "olaurent.finite", "FunctionalSolve.from_moments"),
    ("finite", "olaurent.finite", "build_atomic_measure"),
    ("finite", "olaurent.finite", "AtomicMeasure.moment"),
    ("finite", "olaurent.finite", "represent_functional"),
    ("kernels", "olaurent.kernels", "eval_poly"),
    ("kernels", "olaurent.kernels", "eval_poly_extended"),
    ("kernels", "olaurent.kernels", "reciprocal_coeffs"),
    ("kernels", "olaurent.kernels", "cauchy_product"),
    ("cli", "olaurent.cli", "main"),
]
LAYERS = sorted({layer for layer, _, _ in TARGETS})


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.replace('__', '')}"


# -- counters taken at layer boundaries ------------------------------------------
#
# Each hook sees the call's result and arguments after a successful call.
# term_pairs: sum of len(a) * len(b) over polynomial products.  point_steps:
# points times Horner steps.  mp_terms: atoms times polynomial terms per
# mpmath DFT call (one term for a moment).  mp_dps: the largest working
# precision of any measure built.  radius_doublings: sum of log2(radius).

def _mul(t, result, self, other):
    if type(other) is type(self):
        t.counts["series.LaurentPoly.mul.term_pairs"] += len(self) * len(other)


def _contour(t, result, p, source, spec):
    t.keys["functional.contour_L.f_reuse_ratio"].add(
        (source.coeffs.tobytes(), spec.radius, spec.nodes))


def _eval_ext(t, result, coeffs, pts):
    t.counts["kernels.eval_poly_extended.point_steps"] += pts.size * (coeffs.shape[0] - 1)


def _rn(t, result, source, n, x, nodes=512):
    t.keys["genfun.rn_by_contour.lhs_reuse_ratio"].add(
        (source.coeffs.tobytes(), complex(x), nodes))


def _measure_key(measure):
    return (measure.radius, measure.precision, measure.wide_weights)


def _moment(t, result, measure, k):
    t.counts["finite.mp_terms"] += len(measure.atoms)
    t.counts["finite.dft_calls"] += 1
    t.keys["finite.table_reuse_ratio"].add(_measure_key(measure))


def _represent(t, result, solve, measure, p):
    t.counts["finite.mp_terms"] += len(measure.atoms) * len(p)
    t.counts["finite.dft_calls"] += 1
    t.keys["finite.table_reuse_ratio"].add(_measure_key(measure))


def _atomic(t, result, s):
    t.counts["finite.mp_dps"] = max(t.counts["finite.mp_dps"], result.precision)
    t.counts["finite.radius_doublings"] += round(math.log2(result.radius))


HOOKS = {
    "series.LaurentPoly.mul": _mul,
    "functional.contour_L": _contour,
    "kernels.eval_poly_extended": _eval_ext,
    "genfun.rn_by_contour": _rn,
    "finite.AtomicMeasure.moment": _moment,
    "finite.represent_functional": _represent,
    "finite.build_atomic_measure": _atomic,
}
# reuse ratio = distinct keys / calls of the named span
RATIO_CALLS = {
    "functional.contour_L.f_reuse_ratio": "functional.contour_L",
    "genfun.rn_by_contour.lhs_reuse_ratio": "genfun.rn_by_contour",
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        # span: [name, start_ns, end_ns, parent index or -1, job id, child_ns, raised]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0, 0, parent, self.job, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - start
            if hook is not None:
                hook(self, result, *args, **kwargs)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap wrappers into every ``olaurent`` namespace; restore on exit."""
        undo = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "olaurent" or name.startswith("olaurent.")]
        try:
            for layer, modname, attr in TARGETS:
                module = importlib.import_module(modname)
                name = span_name(layer, attr)
                if "." in attr:
                    clsname, meth = attr.split(".")
                    cls = getattr(module, clsname)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    setattr(cls, meth, new)
                    undo.append((cls, meth, raw))
                    continue
                fn = getattr(module, attr)
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    for bound in [k for k, v in vars(mod).items() if v is fn]:
                        setattr(mod, bound, wrapper)
                        undo.append((mod, bound, fn))
            yield self
        finally:
            for obj, attr, raw in reversed(undo):
                setattr(obj, attr, raw)

    def metrics(self) -> dict[str, float]:
        """Per span name and per layer: calls, total/self ms, errors; plus counters."""
        agg = defaultdict(lambda: [0, 0, 0, 0])
        for name, start, end, _parent, _job, child, raised in self.spans:
            row = agg[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
            row[3] += raised
        out: dict[str, float] = {}
        layers = {layer: [0, 0, 0, 0] for layer in LAYERS}
        for name, (calls, total, self_ns, errors) in agg.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_ms"] = total / 1e6
            out[f"{name}.self_ms"] = self_ns / 1e6
            out[f"{name}.errors"] = errors
            layer = layers[name.split(".", 1)[0]]
            layer[0] += calls
            layer[2] += self_ns
            layer[3] += errors
        for layer, (calls, _total, self_ns, errors) in layers.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_ms"] = self_ns / 1e6
            out[f"{layer}.errors"] = errors
        out.update(self.counts)
        for key, span in RATIO_CALLS.items():
            calls = agg[span][0] if span in agg else 0
            out[key] = len(self.keys[key]) / calls if calls else 0.0
        dft = self.counts.get("finite.dft_calls", 0)
        out["finite.table_reuse_ratio"] = (len(self.keys["finite.table_reuse_ratio"]) / dft
                                           if dft else 0.0)
        out["trace.spans"] = len(self.spans)
        out["trace.self_sum_ms"] = sum(end - start - child for _, start, end, _, _, child, _
                                       in self.spans) / 1e6
        return out

    def write(self, path) -> None:
        """Store the spans as JSON: one [name, start_ns, end_ns, parent, job] per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "job"],
                       "spans": [s[:5] for s in self.spans]}, fh, separators=(",", ":"))
