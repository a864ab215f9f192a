"""Finite recurrence systems and atomic representing measures.

A finite system prescribes recurrence coefficients g_1..g_{4n} and
f_1..f_{4n} (every f_k nonzero).  Building Q_0..Q_{4n} and imposing
L(Q_0) = 1, L(Q_k) = 0 determines the moments mu_m for |m| <= 2n by a
triangular solve: each Q_k introduces exactly one new extreme exponent,
whose coefficient is the pivot.

Both steps amplify rounding: the pivots are products of the g_j (1/12!
for the exponential family's Q_12) against coefficients of size 1.  So
:func:`build_Q` runs the recurrence exactly on the double g_k and f_k
and rounds each coefficient once, and :func:`solve_moments` takes those
doubles as exact and solves in fixed point at a precision scaled to the
pivot amplification, rounding each moment once.

With a = mu_{-level} nonzero and s_k = mu_{k-level}/a, a measure with
M = 2N+1 equal-angle atoms on a circle of radius r,

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

import mpmath
import numpy as np

from .errors import (
    DegenerateLeadingCoefficient,
    InvalidParams,
    MissingCoefficients,
    PivotVanished,
    RepresentationCondFailed,
    WindowExceeded,
)
from . import exact
from .functional import MomentTable
from .series import LaurentPoly, TruncatedPowerSeries
from .systems import recurrence_data, two_step

__all__ = [
    "FiniteSystemSpec",
    "FunctionalSolve",
    "AtomicMeasure",
    "build_Q",
    "solve_moments",
    "build_atomic_measure",
    "represent_functional",
]

DEGENERACY_TOL = 1e-12
PIVOT_TOL = 1e-12
SOLVE_GUARD_BITS = 64
COND_TOL = 1e-12

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
        g = tuple(complex(v) for v in self.g)
        f = tuple(complex(v) for v in self.f_rec)
        if len(g) > full or len(f) > full:
            raise InvalidParams(f"coefficient lists longer than 4n = {full}")
        g = g + (DEFAULT_G,) * (full - len(g))
        f = f + (DEFAULT_F,) * (full - len(f))
        if any(v == 0 for v in f):
            raise InvalidParams("every f_k must be nonzero")
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
            return tuple(complex(v[0], v[1]) if isinstance(v, list) else complex(v)
                         for v in values)

        try:
            return cls(n_cap=int(obj["n_cap"]), g=parse(obj.get("g", ())),
                       f_rec=parse(obj.get("f_rec", ())))
        except (TypeError, ValueError, IndexError) as exc:
            raise InvalidParams(f"finite spec JSON: {exc}") from exc

    def to_json(self) -> dict:
        return {
            "n_cap": self.n_cap,
            "g": [[v.real, v.imag] for v in self.g],
            "f_rec": [[v.real, v.imag] for v in self.f_rec],
        }


@dataclass(frozen=True)
class FunctionalSolve:
    """Normalized moment data at a given representation level."""

    mu_table: MomentTable
    level: int
    a: complex
    s: tuple[complex, ...]

    @classmethod
    def from_moments(cls, moments: MomentTable, level: int) -> "FunctionalSolve":
        """Normalize by a = mu_{-level}; s_k = mu_{k-level}/a for k <= 2 level.

        Raises :class:`RepresentationCondFailed` when a vanishes (to
        rounding, relative to the largest moment in the window).
        """
        if level < 1:
            raise InvalidParams("level must be >= 1")
        if moments.window < level:
            raise WindowExceeded(f"moment window {moments.window} < level {level}")
        a = moments[-level]
        scale = max(abs(moments.mu[m]) for m in moments.mu)
        if abs(a) <= COND_TOL * scale:
            raise RepresentationCondFailed(
                f"a = mu[-{level}] = {a} vanishes; no atomic representation")
        s = tuple(moments[k - level] / a for k in range(2 * level + 1))
        return cls(mu_table=moments, level=level, a=a, s=s)


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
    """Q_0..Q_{4n} from the finite recurrence.

    The exact, once-rounded loop of :func:`~olaurent.systems.two_step`
    builds each Q_k; this adds the guard.  Each step must keep the new
    extreme coefficient nonzero (top coefficient at even indices, bottom
    at odd ones); a collapse there signals an invalid parameter choice.
    """
    out = [LaurentPoly.one()]
    for k, step in enumerate(two_step(spec.g, spec.f_rec), start=1):
        extreme = -(k + 1) // 2 if k % 2 == 1 else k // 2
        top = float(np.max(np.abs(step.coeffs), initial=0.0))
        if top == 0.0 or abs(step.coeff(extreme)) < DEGENERACY_TOL * top:
            raise DegenerateLeadingCoefficient(
                f"Q_{k} lost its coefficient at exponent {extreme}")
        out.append(step)
    return tuple(out)


def _round_div(a: int, b: int) -> int:
    """a / b rounded to the nearest integer (halves up)."""
    if b < 0:
        a, b = -a, -b
    return (2 * a + b) // (2 * b)


def solve_moments(Q: tuple[LaurentPoly, ...], window: int) -> MomentTable:
    """Triangular solve of L(Q_0) = 1, L(Q_k) = 0 for mu over [-window, window].

    Q_{2m+1} determines mu_{-m-1} (pivot at exponent -m-1); Q_{2m}
    determines mu_m (pivot at exponent m).

    The double coefficients of each Q_k are taken as exact.  The solve
    runs in fixed point over 2**P on Python integers: every product and
    sum is exact, and each division by a pivot rounds once to the
    nearest multiple of 2**-P.  A division error spreads to later moments
    by the factor sum |c_e| / |pivot| of each row that uses it; P is
    chosen from those factors so that every solved moment lies within
    2**-SOLVE_GUARD_BITS of the exact solution, and each is then rounded
    to a double once.
    """
    if window < 0:
        raise InvalidParams("window must be >= 0")
    if len(Q) < 2 * window + 1:
        raise MissingCoefficients(f"need Q_0..Q_{2 * window}, have {len(Q) - 1}")
    # pass 1: guards, exact rows and the log2 error bound of each moment
    # in units of 2**-P (mu_0 = 1 carries none)
    bound = {0: -math.inf}
    rows = []
    for k in range(1, 2 * window + 1):
        new = -(k + 1) // 2 if k % 2 == 1 else k // 2
        poly = Q[k]
        pivot = poly.coeff(new)
        top = float(np.max(np.abs(poly.coeffs), initial=0.0))
        if abs(pivot) < PIVOT_TOL * top:
            raise PivotVanished(f"pivot of Q_{k} at exponent {new} is {pivot}")
        others = [(e, c) for e, c in poly.items() if e != new]
        # log2(1 + sum |c_e / pivot| 2**bound_e), summed without overflow
        logs = [0.0] + [math.log2(abs(c / pivot)) + bound[e] for e, c in others]
        peak = max(logs)
        bound[new] = peak + math.log2(sum(2.0 ** (x - peak) for x in logs))
        re, im, _ = exact.scaled([pivot] + [c for _, c in others])
        rows.append((new, [e for e, _ in others], re, im))
    P = SOLVE_GUARD_BITS + max(0, math.ceil(max(bound.values())))
    mr, mi = {0: 1 << P}, {0: 0}
    for new, exps, re, im in rows:
        ar, ai = exact.cdot(re[1:], None if im is None else im[1:],
                            [mr[e] for e in exps], [mi[e] for e in exps])
        pr, pi = re[0], (0 if im is None else im[0])
        if pi == 0:
            mr[new], mi[new] = _round_div(-ar, pr), _round_div(-ai, pr)
        else:
            den = pr * pr + pi * pi
            mr[new] = _round_div(-(ar * pr + ai * pi), den)
            mi[new] = _round_div(ar * pi - ai * pr, den)
    span = range(-window, window + 1)
    im = tuple(mi[m] for m in span)
    return MomentTable(window=window, re=tuple(mr[m] for m in span),
                       im=im if any(im) else None, scale=P)


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
