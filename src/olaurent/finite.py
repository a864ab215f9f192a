"""Finite recurrence systems and atomic representing measures.

A finite system is the exact Q_0..Q_{4n} of a two-step recurrence: the
one that nonzero g_1..g_{4n}, f_1..f_{4n} prescribe (:func:`build_Q`),
or a source's own, whose Q_k are its R_k (:mod:`olaurent.systems`).
Imposing L(Q_0) = 1, L(Q_k) = 0 determines the moments mu_m for
|m| <= 2n by a triangular solve: each Q_k introduces exactly one new
extreme exponent, whose coefficient, the pivot, is exactly 1 (odd k)
or g_1 ... g_k (even k).

The moment map amplifies any rounding of the Q_k past use (the pivot of
the exponential family's Q_16 is 1/16!), so :func:`solve_moments`
solves on the exact Q_k in fixed point, at a precision scaled to the
pivot amplification, and rounds each moment once.

With |a| = |mu_{-level}| > 2**-SOLVE_GUARD_BITS, the solve's error, and
s_k = mu_{k-level}/a in doubles (one that overflows is refused where it
is divided, as :class:`~olaurent.errors.UnrepresentableValue`), a
measure with M = 2N+1 equal-angle atoms on a circle of radius r,

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
enough.  Every input is exact, though: r = 2**e, and each s_k is a
double, so t_k = s_k r^{-k} is a dyadic rational.  Only the roots of
unity are irrational, and :func:`build_atomic_measure` holds them in
fixed point, each rounded once to F = ceil(dps log2 10) bits (dps, in
decimal digits, grows with r^N), from one integer Newton iteration for
the primitive root.  The weights, the moment table M_0..M_N and every L(Q)
are then exact integer sums over those roots (N+1 rows each: atom M-j
mirrors atom j), each rounded to a double once, at the reporting
boundary.  Rounded roots are the only error; each moment moves by at most

    |M_k - s_k| <= 2**(1-F) r^N (1 + 2 sum_k |t_k|)

including the final rounding to a double (derivation in
:func:`build_atomic_measure`); the report states it as ``moment_error_bound``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .errors import (
    InsufficientOrder,
    InvalidParams,
    RadiusInvalid,
    RepresentationCondFailed,
    UnrepresentableValue,
    WindowExceeded,
)
from . import exact
from .families import MAX_ORDER
from .functional import MomentTable
from .series import LaurentPoly
from .systems import two_step

__all__ = [
    "FiniteSystemSpec",
    "FunctionalSolve",
    "AtomicMeasure",
    "system_order",
    "build_Q",
    "solve_moments",
    "build_atomic_measure",
    "represent_functional",
]

SOLVE_GUARD_BITS = 64

DEFAULT_G = 1.0 + 0j
DEFAULT_F = -1.0 + 0j


def system_order(n_cap: int) -> int:
    """4 n_cap, the last index of a finite system of size n_cap, once n_cap is checked."""
    if n_cap < 1:
        raise InvalidParams("n_cap must be >= 1")
    if 4 * n_cap > MAX_ORDER:
        raise InvalidParams(f"4 n_cap = {4 * n_cap} exceeds MAX_ORDER = {MAX_ORDER}")
    return 4 * n_cap


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
        full = system_order(self.n_cap)
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


@dataclass(frozen=True)
class FunctionalSolve:
    """Normalized moment data at a given representation level >= 1.

    Raises :class:`RepresentationCondFailed` when |a| is within
    2**-SOLVE_GUARD_BITS of zero, the absolute error that
    :func:`solve_moments` guarantees: such an a cannot be told from 0.
    ``s`` may be any iterable; it is read, into a tuple, after both checks.
    """

    level: int
    a: complex
    s: tuple[complex, ...]

    def __post_init__(self):
        if self.level < 1:
            raise InvalidParams("level must be >= 1")
        if abs(self.a) <= 2.0 ** -SOLVE_GUARD_BITS:
            raise RepresentationCondFailed(f"|a| = |mu[-{self.level}]| = {abs(self.a):.3e} <= "
                                           f"2**-{SOLVE_GUARD_BITS}; no atomic representation")
        object.__setattr__(self, "s", tuple(self.s))

    @classmethod
    def from_moments(cls, moments: MomentTable, level: int) -> "FunctionalSolve":
        """Normalize by a = mu_{-level}: s_0 = 1 exactly, s_k = mu_{k-level}/a for 0 < k <= 2 level.

        ``s`` is passed as a generator, so no s_k divides by an a that
        :meth:`__post_init__` refuses.  An s_k whose quotient overflows a
        double is refused as it is divided, as :class:`UnrepresentableValue`.
        """
        if moments.window < level:
            raise WindowExceeded(f"moment window {moments.window} < level {level}")
        a = moments[-level]

        def s(k: int) -> complex:
            mu = moments[k - level]
            if not cmath.isfinite(v := mu / a):
                raise UnrepresentableValue(f"s_{k} = mu_{k - level} / a overflows a double: "
                                           f"|mu_{k - level}| = {abs(mu):.3e}, |a| = {abs(a):.3e}")
            return v

        return cls(level=level, a=a, s=(s(k) if k else 1 + 0j for k in range(2 * level + 1)))


@dataclass(frozen=True)
class AtomicMeasure:
    """Atoms (location, weight) whose moments match s_0..s_N.

    ``atoms`` holds each location and weight correctly rounded to
    doubles.  The exact values behind them are integer numerators over
    the one int ``denominator``, M 2**(S + 2F) for M atoms, F fixed-point
    bits and s_k r^{-k} over 2**S (odd M: not a power of two unless M = 1):
    ``wide_weights`` holds the M weights as ints, and ``wide_moments`` the
    moments M_0..M_N as ints, or :class:`~olaurent.exact.Gaussian`
    numerators when complex.  ``precision`` is the decimal precision dps
    that F = ceil(dps log2 10) comes from, and ``error_bound`` bounds
    |moment(k) - s_k| for every k.  ``moment`` and
    :func:`represent_functional` sum over those numerators exactly and
    round once.
    """

    atoms: tuple[tuple[complex, float], ...]
    moment_window: int
    radius: float
    wide_weights: tuple = field(repr=False)
    precision: int = field(repr=False)
    wide_moments: tuple = field(repr=False)
    denominator: int = field(repr=False)
    error_bound: float = field(repr=False)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=np.float64)

    def moment(self, k: int) -> complex:
        """M_k = sum_j w_j z_j^k for 0 <= k <= moment_window, each part rounded once."""
        if not 0 <= k <= self.moment_window:
            raise WindowExceeded(f"moment {k} outside [0, {self.moment_window}]")
        return exact.to_complex(self.wide_moments[k], self.denominator)


def build_Q(spec: FiniteSystemSpec) -> tuple[LaurentPoly, ...]:
    """The exact Q_0..Q_{4n} of the finite recurrence."""
    return (LaurentPoly({0: 1}), *two_step(spec.g, spec.f_rec))


def _round_div(a, b: int):
    """a / b with each part rounded to the nearest integer (halves up), for an int b > 0."""
    if isinstance(a, int):
        return (2 * a + b) // (2 * b)
    return exact.Gaussian(_round_div(a.real, b), _round_div(a.imag, b))


def _ceil_abs(c) -> int:
    """An int >= 2**64 |c| and at most 2**64 |c| (1 + 2**-48) + 1, for an int or a Gaussian c.

    An int's is exact.  The 2**64 takes a small Gaussian past the
    granularity of the integers.  Both parts are scaled by one power of
    two to at most 2**52, the larger to at least 2**51 unless c = 0, and
    rounded up, so they are exact in doubles;
    ``math.hypot`` of them is within 1 ulp, so times 1 + 2**-50, rounded
    up and scaled back, it bounds 2**64 |c|.
    """
    if type(c) is int:
        return abs(c) << 64
    re, im = abs(c.real), abs(c.imag)
    t = max(re.bit_length(), im.bit_length()) - 52
    a, b = (-(-re >> t), -(-im >> t)) if t > 0 else (re << -t, im << -t)
    return math.ceil(math.hypot(a, b) * (1 + 2.0 ** -50)) << (64 + t)


def solve_moments(Q: tuple[LaurentPoly, ...], window: int) -> MomentTable:
    """Triangular solve of L(Q_0) = 1, L(Q_k) = 0 for mu over [-window, window].

    Q_{2m+1} determines mu_{-m-1} (pivot at exponent -m-1); Q_{2m}
    determines mu_m (pivot at exponent m).  So `Q` holds the exact
    Q_0..Q_{2 window} (more are ignored), Q_0 = 1 and each Q_k supported
    on exactly [-ceil(k/2), floor(k/2)]; any other Q_k is refused.

    The denominator of each Q_k cancels in its row.  The solve runs in
    fixed point over 2**P, the table's ``denominator``, on Python
    integers: every product and sum is exact, and each division by a
    pivot, as num * conj(pivot) over the integer |pivot|^2, rounds each
    part once to the nearest multiple of 2**-P, so by under 2**-P.  A
    moment's error is thus at most 2**-P times its propagated factor

        f_0 = 0,   f_new = 1 + sum_e |c_e| f_e / |pivot|

    over its row.  Pass 1 bounds each f_e in integers: with G = 32,

        B_new = ceil((2**G floor|pivot| + sum_e ceil|c_e| B_e) / floor|pivot|),

    and B_e >= 2**G f_e by induction, since the floor of |pivot| (>= 1)
    and the ceilings of |c_e| only raise each term.  A row takes them of
    2**64 pivot and 2**64 c_e, a scale that cancels in the row, by
    ``isqrt`` and :func:`_ceil_abs`: exactly for an int, and for a small
    Gaussian with nothing lost to integer granularity.
    P - SOLVE_GUARD_BITS = max(0, ceil(log2 max B) - G) is then at least
    log2 of the largest f_e, so every solved moment lies
    within 2**-SOLVE_GUARD_BITS of the exact solution, and each is then
    rounded to a double once.  Each ceiling division adds under 1 to a
    B_e >= 2**G, and a Gaussian row's ratios are within a relative
    2**-47 of exact, so for 2 window <= MAX_ORDER the bound exceeds
    2**G f_e by a relative 2**-30 at most: P - SOLVE_GUARD_BITS is
    ceil(log2 max f_e) unless that factor lies so close under a power of
    two, where it can be one higher.
    """
    if window < 0:
        raise InvalidParams("window must be >= 0")
    if len(Q) <= 2 * window:
        raise InsufficientOrder(f"need Q_0..Q_{2 * window}, given {len(Q)} polynomials")
    if Q[0] != LaurentPoly({0: 1}):
        raise InvalidParams("Q_0 must be 1")
    # pass 1: exact rows, and B_e >= 2**G times the propagated error factor of
    # mu_e in units of 2**-P (mu_0 = 1 carries none); B and mu are indexed e + window
    G = 32
    B = [0] * (2 * window + 1)
    rows = []
    for k in range(1, 2 * window + 1):
        lo, q = Q[k].lo, Q[k].numerators
        if [lo, lo + len(q) - 1] != [-((k + 1) // 2), k // 2]:    # [-ceil(k/2), floor(k/2)]
            raise InvalidParams(f"Q_{k} must span exactly [{-((k + 1) // 2)}, {k // 2}]")
        # the new extreme exponent: the bottom one at odd k, the top one at even k
        p, others = (0, slice(1, None)) if k % 2 == 1 else (len(q) - 1, slice(0, -1))
        new, first, pivot, c = lo + p + window, lo + k % 2 + window, q[p], q[others]
        # norm = |pivot|^2; p_floor and _ceil_abs(c_e) bound 2**64 |pivot|, 2**64 |c_e|
        norm = pivot.real * pivot.real + pivot.imag * pivot.imag
        p_floor = math.isqrt(norm << 128)
        B[new] = -(-((p_floor << G) + sum(map(mul, map(_ceil_abs, c), B[first:first + len(c)])))
                   // p_floor)
        rows.append((new, first, pivot, norm, c))
    P = SOLVE_GUARD_BITS + max(0, (max(B) - 1).bit_length() - G)
    mu = [0] * window + [1 << P] + [0] * window
    for new, first, pivot, norm, c in rows:
        # mu_new = -sum_e c_e mu_e / pivot, with 1/pivot = conj(pivot) / |pivot|^2
        mu[new] = _round_div(-sum(map(mul, c, mu[first:first + len(c)])) * pivot.conjugate(), norm)
    return MomentTable(window=window, values=tuple(mu), denominator=1 << P)


def _primitive_root(m: int, bits: int) -> exact.Gaussian:
    """round(2**bits omega), omega = exp(2 pi i / m), by Newton's iteration on z^m = 1.

    Each step replaces Newton's 1 / (m z^(m-1)) by z / m, its value on the
    unit circle:

        z <- z - z (z^m - 1) / m.

    For z = omega (1 + d) this leaves omega (1 - (m+1)/2 d^2 (1 + O(m d))),
    so the convergence stays quadratic.  A step at precision q holds z as
    Z over 2**q, takes z^m by repeated squaring with each product floored
    to 2**-q, and rounds the correction once.  Each floor is off by under
    sqrt(2) 2**-q, and the later squarings amplify the floors by at most
    2m in all, so after the division by m the power costs under 2.83 2**-q
    and the rounding 0.71 2**-q.  With L = bitlen(m) and |z - omega| <=
    4 2**-p, a step at q <= 2p - L - 5 thus leaves under
    (1/4 + 2.83 + 0.71) 2**-q < 4 2**-q, up to factors 1 + O(m 2**-46).
    The double cos and sin of 2 pi / m, rounded to 2**-48, start within
    2**-47; the last step runs at max(bits + 18, 48), so each part ends
    within 2**-16 of 2**bits omega before it is rounded once.
    """
    L = m.bit_length()
    steps = [max(bits + 18, 48)]
    while steps[-1] > 91 - L:
        steps.append((steps[-1] + L + 6) // 2)
    p, theta = 48, 2 * math.pi / m
    z = exact.Gaussian(round(math.ldexp(math.cos(theta), p)),
                       round(math.ldexp(math.sin(theta), p)))
    for q in reversed(steps):
        z, p = z << (q - p), q
        power = z
        for bit in bin(m)[3:]:
            power = power * power >> p
            if bit == "1":
                power = power * z >> p
        z = z - _round_div(z * (power - (1 << p)), m << p)
    return _round_div(z, 1 << (p - bits))


def _unit_roots(m: int, bits: int) -> list[tuple[int, int]]:
    """round(2**bits exp(2 pi i q / m)) for q = 0..m-1, as (re, im) int pairs.

    :func:`_primitive_root` gives z, the primitive root in fixed point
    over 2**B with B = bits + 2 bitlen(m) + 8, each part within
    1/2 + 2**-16 of exact.  Each power z^q, q <= m/2, is exact in Gaussian
    integers and is rounded once to `bits`: its error, about
    q |z 2**-B - omega| < 2**(bitlen(m) - 1 - B) <= 2**(-bits - 11), leaves
    each part within 1/2 + 2**-10 of 2**bits omega^q, so it is correctly
    rounded unless the exact value lies within 2**-10 of a half-integer,
    and never off by more than one.
    omega^(m-q) = conj(omega^q) makes the upper half the mirror image.
    """
    B = bits + 2 * m.bit_length() + 8
    z = _primitive_root(m, B)
    half = [(1 << bits, 0)]
    power = 1
    for q in range(1, m // 2 + 1):
        power *= z
        shift = q * B - bits
        bias = 1 << (shift - 1)
        half.append(((power.real + bias) >> shift, (power.imag + bias) >> shift))
    return half + [(half[m - q][0], -half[m - q][1]) for q in range(m // 2 + 1, m)]


def build_atomic_measure(s) -> AtomicMeasure:
    """Equal-angle atoms on a circle matching the moments s_0..s_N.

    The radius search doubles r until the positivity bound
    2 sum |s_k| r^{-k} <= 1/2 holds, which caps the weight fluctuation
    and keeps every w_j >= 1/(2M); if that still fails at r = 2**120,
    :class:`RadiusInvalid` carries the sum.

    In fixed point: r = 2**e, t_k = s_k r^{-k} = T_k / 2**S exactly, and
    the roots are R_q = 2**F (omega^q + eps_q) from :func:`_unit_roots`.
    Then the weights and moments

        w_j = (2**(S+F) + 2 sum_k Re(T_k conj R_{jk})) / (M 2**(S+F)),
        M_k = r^k sum_j w_j R_{jk} / 2**F

    are exact integer numerators over M 2**(S+F) and M 2**(S+2F), and
    ``atoms`` rounds each weight and r R_j / 2**F once.  M is odd and
    R_{M-q} = conj R_q bitwise (:func:`_unit_roots`), so with A_j, B_j the
    sums over k of Re T_k Re R_{jk}, Im T_k Im R_{jk} (j = 0..N), w_j and
    w_{M-j} have numerators 2**(S+F) + 2 (A_j +- B_j), and Re M_k, Im M_k sum
    w_j + w_{M-j} (w_0 alone), w_j - w_{M-j} against Re R_{jk}, Im R_{jk}: the
    same integers as the full sums, from N+1 rows each, not 2N+1.

    Error bound.  Each part of eps_q is within (1/2 + 2**-10) 2**-F, so
    |eps_q| <= u = 0.709 2**-F.  With T = sum_k |t_k| <= 1/4, each weight
    moves by at most (2/M) u T from its exact value, and the weights,
    positive, sum to at most 1 + 2uT.  The exact measure has moments s_k,
    and M_k - s_k = r^k (sum_j (w_j - exact w_j) omega^{jk}
    + sum_j w_j eps_{jk}), so |M_k - s_k| <= r^k u (1 + 2T(1 + u)).
    Rounding M_k to the nearest double at most doubles a part's distance
    from the double s_k.  So every |moment(k) - s_k| is at most

        2**(1-F) r^N (1 + 2T),

    the ``error_bound``, evaluated in doubles and rounded up; the exact
    bound is under 0.71 of it, which absorbs the rounding of T.

    The weights are built for s_0 = 1, so any other s_0 is refused;
    :meth:`FunctionalSolve.from_moments` sets s_0 = 1 exactly.
    """
    s_arr = np.asarray(s, dtype=np.complex128)
    if s_arr.ndim != 1 or s_arr.shape[0] == 0:
        raise InvalidParams("s must be a non-empty 1-d sequence")
    for k, v in enumerate(s_arr.tolist()):
        if not cmath.isfinite(v):
            raise InvalidParams(f"s_{k} = {v} is not finite")
    if s_arr[0] != 1:
        raise InvalidParams(f"s_0 must be 1, got {s_arr[0]}")
    n = s_arr.shape[0] - 1
    m = 2 * n + 1
    mags = np.abs(s_arr[1:])
    r = 1.0
    while (fluct := 2.0 * float(np.sum(mags * r ** -np.arange(1, n + 1)))) > 0.5:
        if r == 2.0 ** 120:
            raise RadiusInvalid(
                f"runaway radius search: positivity sum 2 sum |s_k| r^-k = {fluct:.3e} "
                f"> 1/2 at r = 2**120; the moments grow too fast for atoms on a circle")
        r *= 2.0
    # precision in decimal digits, and its F bits: enough headroom that r^N
    # cancellation still leaves the moments pinned to ~30 digits
    top = float(np.max(mags)) if n > 0 else 0.0
    dps = 36 + math.ceil(n * math.log10(r)) + math.ceil(math.log10(top + 2.0))
    F = math.ceil(dps * math.log2(10))
    e = math.frexp(r)[1] - 1
    roots = _unit_roots(m, F)
    cos, sin = [re for re, _ in roots], [im for _, im in roots]
    parts = [exact.split(v) for v in s_arr[1:].tolist()]
    S = max((scale + e * k for k, (_, scale) in enumerate(parts, 1)), default=0)
    t = [0] + [v << (S - scale - e * k) for k, (v, scale) in enumerate(parts, 1)]
    t_re, t_im = [v.real for v in t], [v.imag for v in t]
    one = 1 << (S + F)
    # row j holds R_{jk} for k = 0..N: indices 0, j, .., jN of the roots repeated
    # past N^2; jk = kj, so row k also serves moment k
    def rows(table):
        wide = table * (n * n // m + 1)
        return [wide[:1] * (n + 1)] + [wide[0:j * n + 1:j] for j in range(1, n + 1)]

    cos_rows = rows(cos)
    A = [sum(map(mul, t_re, row)) for row in cos_rows]
    # a real s has every Im t_k = 0, so each B_j and Im M_k is a sum of zeros
    real = not any(t_im)
    sin_rows = [] if real else rows(sin)
    B = [0] * (n + 1) if real else [sum(map(mul, t_im, row)) for row in sin_rows]
    weights = ([one + 2 * (a + b) for a, b in zip(A, B)]
               + [one + 2 * (a - b) for a, b in zip(A[:0:-1], B[:0:-1])])
    sums, diffs = [weights[0]] + [2 * one + 4 * a for a in A[1:]], [4 * b for b in B]
    moments = [sum(map(mul, sums, row)) << e * k for k, row in enumerate(cos_rows)]
    for k, row in enumerate(sin_rows):
        if im := sum(map(mul, diffs, row)) << e * k:
            moments[k] = exact.Gaussian(moments[k], im)
    den = m << (S + F)
    atoms = tuple((exact.to_complex(exact.Gaussian(*root), 1 << (F - e)),
                   exact.to_complex(w, den).real)
                  for root, w in zip(roots, weights))
    bound = math.ldexp(1.0 + fluct, 1 - F + e * n)      # fluct = 2T
    return AtomicMeasure(atoms=atoms, moment_window=n, radius=r,
                         wide_weights=tuple(w << F for w in weights), precision=dps,
                         wide_moments=tuple(moments), denominator=den << F,
                         error_bound=math.nextafter(bound, math.inf))


def represent_functional(solve: FunctionalSolve, measure: AtomicMeasure,
                         p: LaurentPoly) -> complex:
    """L(p) = a sum_e c_e M_{e+level} for p supported in [-level, level].

    The sum runs exactly on the measure's moment numerators, the dyadic
    a and the numerators of p, and each part is rounded once.
    """
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
    a, scale = exact.split(solve.a)
    total = a * sum(map(mul, p.numerators, measure.wide_moments[lo + level:hi + level + 1]))
    return exact.to_complex(total, measure.denominator * p.denominator << scale)
