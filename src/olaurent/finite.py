"""Finite recurrence systems and atomic representing measures.

A finite system prescribes nonzero recurrence coefficients g_1..g_{4n}
and f_1..f_{4n}.  Building Q_0..Q_{4n} and imposing L(Q_0) = 1,
L(Q_k) = 0 determines the moments mu_m for |m| <= 2n by a triangular
solve: each Q_k introduces exactly one new extreme exponent, whose
coefficient, the pivot, is exactly 1 (odd k) or g_1 ... g_k (even k).

The moment map amplifies any rounding of the Q_k or g_k past use (the
pivot of the exponential family's Q_16 is 1/16!), so :func:`solve_moments`
solves on the exact Q_k of :func:`~olaurent.systems.two_step`, run once
per spec, in fixed point at a precision scaled to the pivot amplification,
and rounds each moment once; :func:`build_Q` rounds the same Q_k, and a
derived spec's g_k, f_k are each rounded once from the d_k.

With |a| = |mu_{-level}| > 2**-SOLVE_GUARD_BITS, the solve's error, and
s_k = mu_{k-level}/a, a measure with M = 2N+1 equal-angle atoms on a
circle of radius r,

    z_j = r exp(2 pi i j / M),
    w_j = (1/M) (1 + 2 sum_k Re(s_k r^{-k} exp(-2 pi i j k / M))),

has moments M_k = sum_j w_j z_j^k = s_k for k = 0..N by root-of-unity
orthogonality.  Doubling r from 1 until 2 sum_k |s_k| r^{-k} <= 1/2
keeps every weight at or above 1/(2M).  The functional is then

    L(Q) = sum_j w_j Q(z_j) a z_j^level = a sum_e c_e M_{e+level}

for Laurent polynomials Q = sum_e c_e x^e supported in [-level, level]:
one dot product of the coefficients with the measure's moment table.

The moment identity is exact algebra, but a weight held to precision
eps can only pin moment k down to r^k * eps; the doubling search
routinely lands at r = 16 or 32, where no hardware float is wide
enough.  Weights and the moment table M_0..M_N are therefore computed
once, as mpmath values with the working precision scaled to r^N, and
only rounded to doubles at the reporting boundary (the ``atoms``
field).  Construction stays O(N^2) on a handful of atoms, so the cost
is irrelevant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

import mpmath
import numpy as np

from .errors import (
    InvalidParams,
    MissingCoefficients,
    RepresentationCondFailed,
    WindowExceeded,
)
from . import exact
from .families import MAX_ORDER
from .functional import MomentTable
from .series import LaurentPoly, TruncatedPowerSeries
from .systems import recurrence_data, rounded, two_step

__all__ = [
    "FiniteSystemSpec",
    "FunctionalSolve",
    "AtomicMeasure",
    "build_Q",
    "solve_moments",
    "build_atomic_measure",
    "represent_functional",
]

SOLVE_GUARD_BITS = 64

DEFAULT_G = 1.0 + 0j
DEFAULT_F = -1.0 + 0j


@dataclass(frozen=True)
class FiniteSystemSpec:
    """Recurrence coefficients for indices 1..4n; ``g[i]`` holds g_{i+1}.

    Sequences shorter than 4n are padded with the default extension
    g_k = 1, f_k = -1; the padding itself satisfies every constraint.
    """

    n_cap: int
    g: tuple[complex, ...] = ()
    f_rec: tuple[complex, ...] = ()

    def __post_init__(self):
        if self.n_cap < 1:
            raise InvalidParams("n_cap must be >= 1")
        full = 4 * self.n_cap
        if full > MAX_ORDER:
            raise InvalidParams(f"4 n_cap = {full} exceeds MAX_ORDER = {MAX_ORDER}")
        g = tuple(complex(v) for v in self.g)
        f = tuple(complex(v) for v in self.f_rec)
        if len(g) > full or len(f) > full:
            raise InvalidParams(f"coefficient lists longer than 4n = {full}")
        g = g + (DEFAULT_G,) * (full - len(g))
        f = f + (DEFAULT_F,) * (full - len(f))
        if any(v == 0 for v in g + f):
            raise InvalidParams("every g_k and f_k must be nonzero")
        if not all(cmath.isfinite(v) for v in g + f):
            raise InvalidParams("every g_k and f_k must be finite")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f_rec", f)

    @classmethod
    def from_partial_sums(cls, source: TruncatedPowerSeries, n_cap: int) -> "FiniteSystemSpec":
        """Coefficients of the source's own recurrence, out to index 4n."""
        rd = recurrence_data(source, 4 * n_cap)
        return cls(n_cap=n_cap, g=rd.g[1:], f_rec=rd.f_rec[1:])

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteSystemSpec":
        if not isinstance(obj, dict) or "n_cap" not in obj:
            raise InvalidParams("finite spec JSON needs 'n_cap'")

        def parse(values):
            return tuple(exact.as_number(v, "every g_k and f_k must be finite", pair=True)
                         for v in values)

        try:
            spec = cls(n_cap=exact.as_int(obj["n_cap"], "finite spec 'n_cap'"),
                       g=parse(obj.get("g", ())),
                       f_rec=parse(obj.get("f_rec", ())))
        except TypeError as exc:
            raise InvalidParams(f"finite spec JSON: {exc}") from exc
        exact.refuse_unknown_keys(obj, spec.to_json(), "finite spec JSON")
        return spec

    def to_json(self) -> dict:
        return {
            "n_cap": self.n_cap,
            "g": [[v.real, v.imag] for v in self.g],
            "f_rec": [[v.real, v.imag] for v in self.f_rec],
        }

    @cached_property
    def exact_Q(self) -> tuple:
        """The exact Q_1..Q_{4n} of :func:`~olaurent.systems.two_step`, run once."""
        return tuple(two_step(self.g, self.f_rec))


@dataclass(frozen=True)
class FunctionalSolve:
    """Normalized moment data at a given representation level."""

    level: int
    a: complex
    s: tuple[complex, ...]

    @classmethod
    def from_moments(cls, moments: MomentTable, level: int) -> "FunctionalSolve":
        """Normalize by a = mu_{-level}; s_k = mu_{k-level}/a for k <= 2 level.

        Raises :class:`RepresentationCondFailed` when |a| is within
        2**-SOLVE_GUARD_BITS of zero, the absolute error that
        :func:`solve_moments` guarantees: such an a cannot be told from 0.
        """
        if level < 1:
            raise InvalidParams("level must be >= 1")
        if moments.window < level:
            raise WindowExceeded(f"moment window {moments.window} < level {level}")
        a = moments[-level]
        if abs(a) <= 2.0 ** -SOLVE_GUARD_BITS:
            raise RepresentationCondFailed(f"|a| = |mu[-{level}]| = {abs(a):.3e} <= "
                                           f"2**-{SOLVE_GUARD_BITS}; no atomic representation")
        s = tuple(moments[k - level] / a for k in range(2 * level + 1))
        return cls(level=level, a=a, s=s)


@dataclass(frozen=True)
class AtomicMeasure:
    """Atoms (location, weight) whose moments match s_0..s_N.

    ``atoms`` holds display-precision copies; the authoritative weights
    live in ``wide_weights`` together with the decimal precision they
    were built at, and ``wide_moments`` holds their moments M_0..M_N at
    that precision.  ``moment`` and :func:`represent_functional` read
    that table, so residuals stay far below any float tolerance even for
    large radii.
    """

    atoms: tuple[tuple[complex, float], ...]
    moment_window: int
    radius: float
    wide_weights: tuple = field(repr=False, default=())
    precision: int = field(repr=False, default=50)
    wide_moments: tuple = field(repr=False, default=())

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=np.float64)

    def moment(self, k: int) -> complex:
        """M_k = sum_j w_j z_j^k for 0 <= k <= moment_window."""
        if not 0 <= k <= self.moment_window:
            raise WindowExceeded(f"moment {k} outside [0, {self.moment_window}]")
        return complex(self.wide_moments[k])


def build_Q(spec: FiniteSystemSpec) -> tuple[LaurentPoly, ...]:
    """Q_0..Q_{4n} from the finite recurrence, each coefficient rounded once."""
    return (LaurentPoly.one(), *map(rounded, spec.exact_Q))


def _round_div(a, b: int):
    """a / b with each part rounded to the nearest integer (halves up), for an int b > 0."""
    if isinstance(a, int):
        return (2 * a + b) // (2 * b)
    return exact.Gaussian(_round_div(a.real, b), _round_div(a.imag, b))


def solve_moments(spec: FiniteSystemSpec, window: int) -> MomentTable:
    """Triangular solve of L(Q_0) = 1, L(Q_k) = 0 for mu over [-window, window].

    Q_{2m+1} determines mu_{-m-1} (pivot at exponent -m-1); Q_{2m}
    determines mu_m (pivot at exponent m).

    The Q_k are the exact ones of :func:`~olaurent.systems.two_step`,
    integer numerators (``int`` or :class:`~olaurent.exact.Gaussian`)
    over 2**scale.  The solve runs in fixed point over 2**P on Python
    integers: every product and sum is exact, and each division by a
    pivot, as num * conj(pivot) over the integer |pivot|^2, rounds each
    part once to the nearest multiple of 2**-P.  A division
    error spreads to later moments by the factor sum |c_e| / |pivot| of
    each row that uses it; P - SOLVE_GUARD_BITS is the log2 of the
    largest propagated factor, rounded up, so every solved moment lies
    within 2**-SOLVE_GUARD_BITS of the exact solution, and each is then
    rounded to a double once.
    """
    if window < 0:
        raise InvalidParams("window must be >= 0")
    if len(spec.g) < 2 * window:
        raise MissingCoefficients(f"need Q_0..Q_{2 * window}, have {len(spec.g)}")
    # pass 1: exact rows and the log2 error bound of each moment in units
    # of 2**-P (mu_0 = 1 carries none); the common scale of a row cancels
    bound = {0: -math.inf}
    rows = []
    for k, (lo, q, _) in enumerate(spec.exact_Q[:2 * window], start=1):
        # the new extreme exponent: the bottom one at odd k, the top one at even k
        p, others = (0, slice(1, None)) if k % 2 == 1 else (len(q) - 1, slice(0, -1))
        new, exps, pivot, c = lo + p, range(lo, lo + len(q))[others], q[p], q[others]
        norm = (pivot * pivot.conjugate()).real     # |pivot|^2, an int
        lp = math.log2(norm) / 2
        # log2(1 + sum |c_e / pivot| 2**bound_e), summed without overflow
        logs = [0.0] + [math.log2((a * a.conjugate()).real) / 2 - lp + bound[e]
                        for e, a in zip(exps, c) if a]
        peak = max(logs)
        bound[new] = peak + math.log2(sum(2.0 ** (x - peak) for x in logs))
        rows.append((new, exps, pivot, norm, c))
    P = SOLVE_GUARD_BITS + math.ceil(max(0.0, *bound.values()))
    mu = {0: 1 << P}
    for new, exps, pivot, norm, c in rows:
        # mu_new = -sum_e c_e mu_e / pivot, with 1/pivot = conj(pivot) / |pivot|^2
        mu[new] = _round_div(-sum(map(mul, c, [mu[e] for e in exps])) * pivot.conjugate(), norm)
    return MomentTable(window=window, values=tuple(mu[m] for m in range(-window, window + 1)),
                       scale=P)


def build_atomic_measure(s) -> AtomicMeasure:
    """Equal-angle atoms on a circle matching the moments s_0..s_N.

    The radius search doubles from 1 until the positivity bound
    2 sum |s_k| r^{-k} <= 1/2 holds, which caps the weight fluctuation
    and keeps every w_j >= 1/(2M).
    """
    s_arr = np.asarray(s, dtype=np.complex128)
    if s_arr.ndim != 1 or s_arr.shape[0] == 0:
        raise InvalidParams("s must be a non-empty 1-d sequence")
    if abs(s_arr[0] - 1.0) > 1e-12:
        raise InvalidParams(f"s_0 must be 1, got {s_arr[0]}")
    n = s_arr.shape[0] - 1
    m = 2 * n + 1
    mags = np.abs(s_arr[1:])
    r = 1.0
    while n > 0 and 2.0 * float(np.sum(mags * r ** -np.arange(1, n + 1))) > 0.5:
        r *= 2.0
        if r > 2.0 ** 120:
            raise InvalidParams("runaway radius search; moments grow too fast")
    # working precision: enough headroom that r^N cancellation still leaves
    # the moments pinned to ~30 digits
    top = float(np.max(mags)) if n > 0 else 0.0
    dps = 36 + math.ceil(n * math.log10(max(r, 1.0))) + math.ceil(math.log10(top + 2.0))
    with mpmath.workdps(dps):
        roots = mpmath.unitroots(m)
        rmp = mpmath.mpf(r)
        scaled = [mpmath.mpc(complex(s_arr[k])) * rmp ** (-k) for k in range(n + 1)]
        wide = []
        for j in range(m):
            acc = mpmath.mpf(1)
            for k in range(1, n + 1):
                acc += 2 * (scaled[k] * roots[(-j * k) % m]).real
            wide.append(acc / m)
        atoms = tuple((complex(rmp * roots[j]), float(wide[j])) for j in range(m))
        moments = tuple(rmp ** k * mpmath.fdot(wide, [roots[(j * k) % m] for j in range(m)])
                        for k in range(n + 1))
    return AtomicMeasure(atoms=atoms, moment_window=n, radius=r, wide_weights=tuple(wide),
                         precision=dps, wide_moments=moments)


def represent_functional(solve: FunctionalSolve, measure: AtomicMeasure,
                         p: LaurentPoly) -> complex:
    """L(p) = a sum_e c_e M_{e+level} for p supported in [-level, level]."""
    if abs(solve.a) == 0:
        raise RepresentationCondFailed("a = 0; representation undefined")
    level = solve.level
    if not p:
        return 0j
    lo, hi = p.min_exponent, p.max_exponent
    if lo < -level or hi > level:
        raise WindowExceeded(
            f"support [{lo}, {hi}] outside representation span [-{level}, {level}]")
    if measure.moment_window < 2 * level:
        raise InvalidParams(
            f"measure covers moments to {measure.moment_window}, need {2 * level}")
    with mpmath.workdps(measure.precision):
        span = measure.wide_moments[lo + level:hi + level + 1]
        total = mpmath.fdot(map(complex, p.coeffs), span)
        return complex(total * mpmath.mpc(complex(solve.a)))
