"""Laurent systems attached to power-series partial sums.

Writing f_n for the n-th partial sum of the source, the system is

    R_{2n}(x)   = f_{2n}(x) / x^n
    R_{2n+1}(x) = f_{2n+1}(x) / x^(n+1),

so R_{2n} has exponents in [-n, n] with top coefficient d_{2n} and
R_{2n+1} has exponents in [-n-1, n] with bottom coefficient d_0 = 1.

The same system satisfies the two-step recurrence of Jones, Njastad and
Thron

    Q_{2n+1} = (x^{-1} + g_{2n+1}) Q_{2n} + f^rec_{2n+1} Q_{2n-1}
    Q_{2n+2} = (1 + g_{2n+2} x) Q_{2n+1} + f^rec_{2n+2} Q_{2n}

with Q_{-1} = 0 and Q_0 = 1, scaled to Q_n = R_n / (xi_n d_n) with
xi_n = (-1)^n c_0 ... c_n, c_0 = 1 and c_n = -d_{n-1}/d_n.  As d_0 = 1,
the product telescopes to xi_n = 1/d_n, so Q_n is R_n itself, and each
step adds the one term d_n x^n to the partial sum exactly when
g_n = -1/c_n = d_n/d_{n-1} and f^rec_n = -recur_lambda_n xi_{n-2}/xi_n
= -g_n, with recur_lambda_n = d_{n-2}/d_{n-1}.  f^rec_1 multiplies
Q_{-1} = 0, so -g_1 is one free choice, and recur_lambda_1 = 1 a
placeholder.  Each value is one operation on the double d_k.

The recurrence needs products and sums only, so :func:`two_step` runs it
exactly on the double g_k and f^rec_k and yields each exact Q_n as a
:class:`~olaurent.series.LaurentPoly`, for :func:`build_by_recurrence`
and the finite systems of :mod:`olaurent.finite` alike.

On a source's own data, f^rec_k = -g_k, a step never changes a
coefficient it was handed: coefficient i of the exact Q_n is g_1 ... g_i
for every n >= i.  For Q_k is x^{-1} Q_{k-1} (odd k) or Q_{k-1} (even k)
plus g_k times the bracket Q_{k-1} - Q_{k-2} or x Q_{k-1} - Q_{k-2},
and the bracket is the one term that step k-1 added.  So
:func:`check_normalization` rounds one new coefficient per step, and
checks on the exact integer numerators that every carried one is
unchanged.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import exact
from .errors import (
    InsufficientOrder,
    InvalidParams,
    UnrepresentableValue,
    ZeroCoefficient,
)
from .series import LaurentPoly, TruncatedPowerSeries

__all__ = [
    "OLPSystem",
    "RecurrenceData",
    "NormalizationReport",
    "build_system",
    "recurrence_data",
    "two_step",
    "build_by_recurrence",
    "check_normalization",
]


@dataclass(frozen=True)
class OLPSystem:
    """Laurent system R_0..R_K of the partial sums of `source`; R is built on first use."""

    source: TruncatedPowerSeries
    K: int

    def __post_init__(self):
        _validate_source(self.source, self.K)

    @cached_property
    def R(self) -> tuple[LaurentPoly, ...]:
        d, scale = exact.scaled(self.source.coeffs[:self.K + 1])
        return tuple(LaurentPoly.from_exact(-math.ceil(n / 2), d[:n + 1], 1 << scale)
                     for n in range(self.K + 1))


@dataclass(frozen=True)
class RecurrenceData:
    """Recurrence coefficients derived from a source series.

    All sequences are indexed directly: ``c[n]`` is c_n and so on.
    ``recur_lambda[0]``, ``g[0]`` and ``f_rec[0]`` are unused slots kept
    as zero; ``recur_lambda[1] = 1`` is the convention described in the
    module docstring.  ``recur_lambda`` is the recurrence quantity, not
    the exp-binomial family parameter ``family_lambda``.
    """

    c: tuple[complex, ...]
    recur_lambda: tuple[complex, ...]
    xi: tuple[complex, ...]
    g: tuple[complex, ...]
    f_rec: tuple[complex, ...]
    K: int


@dataclass(frozen=True)
class NormalizationReport:
    """Per-index relative deviation between the two construction routes."""

    per_index: tuple[float, ...]
    max_rel_deviation: float
    K: int


def _validate_source(source: TruncatedPowerSeries, K: int) -> list[complex]:
    """d_0..d_K, once the source is checked to carry a system of order K.

    The one refusal of a zero among the d_0..d_K that a system reads; a
    coefficient beyond d_K is only evaluated, and may be zero.
    """
    if K < 0:
        raise InvalidParams("K must be >= 0")
    if source.order < K:
        raise InsufficientOrder(f"source order {source.order} < requested K = {K}")
    d = source.coeffs[:K + 1].tolist()
    if d[0] != 1:
        raise InvalidParams(f"source needs d_0 = 1, got {d[0]}")
    if 0 in d:
        raise ZeroCoefficient(f"d_{d.index(0)} = 0; the construction needs nonzero coefficients")
    return d


def build_system(source: TruncatedPowerSeries, K: int) -> OLPSystem:
    """The system R_0..R_K of `source`, built directly from the partial sums."""
    return OLPSystem(source, K)


def recurrence_data(source: TruncatedPowerSeries, K: int) -> RecurrenceData:
    """Recurrence coefficients c, recur_lambda, xi, g, f_rec up to index K.

    Raises :class:`UnrepresentableValue` when one of them overflows or
    underflows to zero in doubles (xi_k = 1/d_k for the exponential family
    at k = 171); the recurrence needs every one finite and nonzero.
    """
    d = _validate_source(source, K)
    c = _checked("c", [1.0 + 0j] + [-d[k - 1] / d[k] for k in range(1, K + 1)])
    lam = _checked("recur_lambda", [0j, 1.0 + 0j][:K + 1] + [a / b for a, b in zip(d, d[1:K])])
    xi = _checked("xi", [1 / v for v in d])
    return RecurrenceData(c, lam, xi, *_own_steps(d), K=K)


def _own_steps(d: list[complex]) -> tuple[tuple, tuple]:
    """g_k = d_k/d_{k-1} and f^rec_k = -g_k of d_0..d_K; index 0 of each is an unused 0."""
    g = _checked("g", [0j] + [d[k] / d[k - 1] for k in range(1, len(d))])
    return g, (0j, *(0 - v for v in g[1:]))   # 0 - g: no -0.0 imaginary parts in reports


def _checked(name: str, values: list) -> tuple:
    """`values` as a tuple, refused at the first index k >= 1 whose value is 0 or not finite."""
    for k in range(1, len(values)):
        if values[k] == 0 or not cmath.isfinite(values[k]):
            raise UnrepresentableValue(f"{name}_{k} = {values[k]} is out of the double range")
    return tuple(values)


def two_step(g, f_rec):
    """Yield the exact Q_1, Q_2, ... of the recurrence; g[k-1], f_rec[k-1] hold g_k, f_k.

    Each Q_k is a :class:`~olaurent.series.LaurentPoly` over a power of two
    that never shrinks from step to step, with ``int`` numerators for real
    inputs; the loop runs on its own integer lists.  A step shifts the
    numerators of Q_{k-1} up to the new denominator and adds
    g_k Q_{k-1} + f_k Q_{k-2}, formed on the unshifted numerators aligned
    at the smaller of their two shifts and then shifted once.  Where the
    numerator of f_k is minus that of g_k, as on a source's own data, the
    sum is formed as g_k times one aligned difference, one product
    instead of two; on a source's own data that difference is 0 at every
    coefficient the step carries.  The add is skipped wherever the sum
    is 0.
    """
    steps = [(exact.split(a), exact.split(b)) for a, b in zip(g, f_rec)]
    q0, s0 = [], 0              # Q_{-1} = 0
    lo1, q1, s1 = 0, [1], 0     # Q_0 = 1
    for k, ((gk, sg), (fk, sf)) in enumerate(steps, start=1):
        scale = max(sg + s1, sf + s0)
        u, v, w = scale - s1, scale - sg - s1, scale - sf - s0
        m = min(v, w)
        v, w = v - m, w - m
        own = fk == -gk     # then the sum is g_k times one difference
        # odd k: (x^{-1} + g) Q_{k-1}; even k: (1 + g x) Q_{k-1}; both put
        # the unit part one slot below the g part, and Q_{k-2} (one entry
        # shorter than Q_{k-1}) level with the g part
        lo = lo1 - 1 if k % 2 == 1 else lo1
        q = [a << u for a in q1]
        for i, (a, b) in enumerate(zip(q1, q0), start=1):
            t = (a << v) - (b << w) if own else ((gk * a) << v) + ((fk * b) << w)
            if t:
                q[i] += (gk * t if own else t) << m
        q.append((gk * q1[-1]) << (v + m))
        yield LaurentPoly.from_exact(lo, q, 1 << scale)
        q0, s0 = q1, s1
        lo1, q1, s1 = lo, q, scale


def build_by_recurrence(rd: RecurrenceData, K: int) -> tuple[LaurentPoly, ...]:
    """The exact Q_0..Q_K of the two-step recurrence, Q_{-1} = 0 and Q_0 = 1.

    Exact on the double g_k and f^rec_k; a coefficient is rounded when it is read.
    """
    if K < 0:
        raise InvalidParams("K must be >= 0")
    if rd.K < K:
        raise InsufficientOrder(f"recurrence data stops at {rd.K}, need {K}")
    return (LaurentPoly({0: 1}), *two_step(rd.g[1:K + 1], rd.f_rec[1:K + 1]))


def check_normalization(system: OLPSystem, rd: RecurrenceData) -> NormalizationReport:
    """Compare the recurrence route Q_n against the direct route R_n.

    Deviation for index n is max over exponents of |Q_n - R_n| divided by
    the largest coefficient magnitude of R_n.

    With f^rec_k = -g_k, coefficient i of the exact Q_n (power i of f_n)
    is g_1 ... g_i for every n >= i, so each step rounds only its new
    coefficient q_n[n].  Proof, by induction on k: the odd step reads
    Q_k = x^{-1} Q_{k-1} + g_k (Q_{k-1} - Q_{k-2}) and the even step
    Q_k = Q_{k-1} + g_k (x Q_{k-1} - Q_{k-2}); in both the first term is
    f_{k-1} / x^ceil(k/2) and the bracket is the one term g_1 ... g_{k-1}
    x^{k-1} / x^(ceil(k/2) - 1).  The invariant is checked, not assumed:
    at every step the carried numerators q_n[0..n-1], as one list, equal
    those of Q_{n-1} times den_n / den_{n-1}.  Both denominators are
    powers of two that never shrink, so that factor is a left shift by
    the growth of the bit length; the first index that differs is looked
    for only when the lists do.  Recurrence data that is not a source's
    own (f^rec_k != -g_k at some k >= 2) fails the check and raises
    :class:`InvalidParams`; f^rec_1 multiplies Q_{-1} = 0 and is free.
    """
    K = min(system.K, rd.K)
    new = np.ones(K + 1, dtype=np.complex128)
    q1, den1 = [1], 1
    for n, Q in enumerate(two_step(rd.g[1:K + 1], rd.f_rec[1:K + 1]), start=1):
        # lo is -ceil(n/2); only a zero g_k trims the top end
        q, den = list(Q.numerators), Q.denominator
        q += [0] * (n + 1 - len(q))
        sh = den.bit_length() - den1.bit_length()
        carried = [a << sh for a in q1]
        if q[:n] != carried:
            i = next(i for i, (a, b) in enumerate(zip(carried, q)) if a != b)
            raise InvalidParams(f"Q_{n} changes coefficient {i} of Q_{n - 1}; "
                                "the recurrence data needs f^rec_k = -g_k for k >= 2")
        new[n] = exact.to_complex(q[n], den)
        q1, den1 = q, den
    d = system.source.coeffs[:K + 1]
    # np.abs, not abs(): the two differ in the last ulp of some complex values
    per = np.maximum.accumulate(np.abs(new - d)) / np.maximum.accumulate(np.abs(d))
    return NormalizationReport(per_index=tuple(per.tolist()),
                               max_rel_deviation=float(per.max()), K=K)
