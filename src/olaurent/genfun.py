"""Generating-function identities and the contour extraction of R_n.

Two identities are checked against truncated sums:

    f(x t) / (1 - t)   = sum_n f_n(x) t^n                  (|t| < 1)
    ((s+1)/(s-z)) f(s z) + ((s-1)/(s+z)) f(-s z)
                       = 2 sum_n R_n(x) z^n                (|z| < |s|)

where s is either square root of x.  Both are one truncated sum,
sum_{n<=terms} f_n(x) w_n with w_n = t^n or 2 z^n / x^ceil(n/2), against a
left side evaluated on the realized d_0..d_T; so every |f_n(x)| is at most
the majorant sum_{k<=T} |d_k| |x|^k, which bounds the dropped terms for any
T >= terms (the CLI realizes T as its contour route does: max(terms, 64)
for a stock family, an explicit one's own coefficients up to 64).

The second left side needs no square root.  With f's even and odd parts
F_e(w) = sum_k d_2k w^k and F_o(w) = sum_k d_2k+1 w^k, f(+-s z) =
F_e(x z^2) +- s z F_o(x z^2), and over the common denominator x - z^2
every odd power of s cancels:

    lhs = 2 ((x + z) F_e + x z (1 + z) F_o) / (x - z^2)
        = 2 (F_e + z (1 + z) (F_e + x F_o) / (x - z^2)),   F_e, F_o at x z^2.

The check evaluates the second form, which is 2 d_0 exactly at z = 0 (in the
first, x / x need not round to 1), and needs no branch: the two 1/s
prefactors, whose cancellation cost eps/|s| at small x, are gone.  With
a = x + z and b = s (1 + z) the lhs is 2 (a F_e + b (s z F_o)) / (x - z^2), so
the tail estimate of f at |s z|, which stands for the even and odd terms'
dropped magnitudes together, bounds the left side's truncation error times
2 max(|a|, |b|) / |x - z^2|.

The second identity's left side does not depend on n, so one FFT of it on
|z| = |s|/2 gives every R_n(x) as a Taylor coefficient.  That FFT keeps s
and needs one kernel, not two.  With g(z) = f(s z) / (s - z) the left side
is (s+1) g(z) + (s-1) g(-z), whose coefficient n is (s+1) g_n +
(-1)^n (s-1) g_n: 2 s g_n for even n and 2 g_n for odd n.  Expanding
1/(s - z) gives g_n = s^(-n-1) f_n(x), so

    R_n(x) = s g_n  (n even),    R_n(x) = g_n  (n odd),

and one Horner pass of f over the nodes serves every n.  The branch-free
left side would serve too, but it rounds the spectrum worse: acceptance
criterion 6's worst geometric R_n error is 4.659e-10 with g, and 1.027e-9
or 1.380e-9 with the first or second form above.

Each check takes equal-length sequences of points, ``check_partial_sum_genfun(system, xs,
ts, terms)`` and ``check_laurent_genfun(system, xs, zs, terms)``, and returns one
:class:`GenfunCheck` per point, in order; a guard names the index of the point it refuses.
A check evaluates f on the truncated source series, at all of its points in one call, so
points must sit inside the convergence disc with a fixed safety margin.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainViolation, InsufficientOrder, InvalidParams, PoleProximity
from .errors import TailNotNegligible
from .functional import ContourSpec
from .series import TruncatedPowerSeries
from .systems import OLPSystem

__all__ = ["GenfunCheck", "check_partial_sum_genfun", "check_laurent_genfun",
           "rn_all_by_contour", "rn_by_contour"]

RADIUS_MARGIN = 0.95
POLE_TOL = 1e-6
GENFUN_FLOOR = 1e-13


@dataclass(frozen=True)
class GenfunCheck:
    """Residual of a truncated identity next to its finite tail estimate.

    A check passes when its residual is at most ``bound``: the tail estimate plus a
    rounding floor of GENFUN_FLOOR (1 + |lhs|).
    """

    residual: float
    tail_bound: float
    lhs: complex

    def __post_init__(self):
        if not math.isfinite(self.tail_bound):
            raise TailNotNegligible(f"tail estimate {self.tail_bound} is not finite")

    @property
    def bound(self) -> float:
        return self.tail_bound + GENFUN_FLOOR * (1 + abs(self.lhs))

    @property
    def passed(self) -> bool:
        return self.residual <= self.bound


def _truncated_check(system: OLPSystem, xs, terms: int, lhs, weights, bounds) -> list[GenfunCheck]:
    """Residual of each lhs[i] against sum_{n<=terms} f_n(x_i) weights(n)[i, n], and its bound.

    bounds[i] = (ratio, scale, lhs_tail): |w_n| <= scale ratio^n, ratio < 1, and
    `lhs_tail` bounds the left side's own truncation.  Each point is summed in its
    own row, as a batch of one sums it.
    """
    if terms < 0:
        raise InvalidParams("terms must be >= 0")
    if terms > system.K:
        raise InsufficientOrder(f"system built to K = {system.K}, need {terms}")
    d = system.source.coeffs
    a = d * np.asarray(xs, np.complex128)[:, None] ** np.arange(d.shape[0])  # d_k x^k, k <= T
    # np.dot sums a strided row in another order, so each row is contiguous
    rows = zip(lhs, np.cumsum(a[:, :terms + 1], axis=1),
               np.ascontiguousarray(weights(np.arange(terms + 1))),
               np.sum(np.abs(a), axis=1).tolist(), bounds)
    return [GenfunCheck(residual=abs(y - complex(np.dot(partial, w))), lhs=y,
                        tail_bound=scale * majorant * ratio ** (terms + 1) / (1 - ratio) + tail)
            for y, partial, w, majorant, (ratio, scale, tail) in rows]


def _points(*columns) -> list[tuple]:
    """One tuple per point of equal-length sequences."""
    if len({len(c) for c in columns}) > 1:
        raise InvalidParams(f"point sequences differ in length: {[len(c) for c in columns]}")
    return list(zip(*columns))


def check_partial_sum_genfun(system: OLPSystem, xs, ts, terms: int) -> list[GenfunCheck]:
    """Residual of f(xt)/(1-t) against sum_{n<=terms} f_n(x) t^n at each point (x, t)."""
    f = system.source
    for i, (x, t) in enumerate(points := _points(xs, ts)):
        if not abs(t) < 1:
            raise DomainViolation(f"point {i}: |t| = {abs(t)} must be < 1")
        if not abs(x) <= RADIUS_MARGIN * f.radius:
            raise DomainViolation(f"point {i}: |x| = {abs(x)} outside margin "
                                  f"{RADIUS_MARGIN} * radius")
    values = kernels.eval_poly(f.coeffs, [complex(x * t) for x, t in points])
    lhs = [v / (1 - t) for v, (_, t) in zip(values, points)]
    tails = f.tail_bound(np.array([abs(x * t) for x, t in zip(xs, ts)])).tolist()
    return _truncated_check(system, xs, terms, lhs,
                            lambda n: np.asarray(ts, np.complex128)[:, None] ** n,
                            [(abs(t), 1.0, tail / abs(1 - t)) for t, tail in zip(ts, tails)])


def check_laurent_genfun(system: OLPSystem, xs, zs, terms: int) -> list[GenfunCheck]:
    """Residual of the two-kernel identity against 2 sum R_n(x) z^n at each point (x, z).

    The left side is formed in x alone, from F_e and F_o at x z^2 (see the module
    docstring).  z with |x - z^2| < POLE_TOL |x| is refused, a guard scaled to the
    denominator it protects.
    """
    f, d = system.source, system.source.coeffs
    points = [(complex(x), complex(z), math.sqrt(abs(x))) for x, z in _points(xs, zs)]
    for i, (x, z, r) in enumerate(points):
        if x == 0 or not abs(x) <= RADIUS_MARGIN * f.radius:
            raise DomainViolation(f"point {i}: need 0 < |x| <= {RADIUS_MARGIN} * radius, "
                                  f"got |x| = {abs(x)}")
        if not abs(z) < r:
            raise DomainViolation(f"point {i}: |z| = {abs(z)} must be < |sqrt x| = {r}")
        if (gap := abs(x - z * z)) < POLE_TOL * abs(x):
            raise PoleProximity(f"point {i}: |x - z^2| = {gap:.3e} < POLE_TOL |x|")
    ws = [x * z * z for x, z, _ in points]
    # F_e and F_o at w = x z^2, one Horner pass each; an order-0 source has no odd part
    even, odd = (kernels.eval_poly(c, ws) if c.size else [0j] * len(ws) for c in (d[::2], d[1::2]))
    lhs = [2 * (e + z * (1 + z) * (e + x * o) / (x - z * z))
           for (x, z, _), e, o in zip(points, even, odd)]
    tails = f.tail_bound(np.array([r * abs(z) for _, z, r in points])).tolist()
    # 2 R_n(x) z^n = f_n(x) w_n with |w_n| <= 2 max(1, 1/r) (|z|/r)^n; the ladder's steps
    # z/x (odd n) and z (even n) never overflow
    steps = np.array([(2.0, z / x, z) for x, z, _ in points], np.complex128).reshape(-1, 3)
    return _truncated_check(system, xs, terms, lhs,
                            lambda n: np.cumprod(steps[:, np.where(n == 0, 0, 2 - n % 2)], axis=1),
                            [(abs(z) / r, 2.0 * max(1.0, 1.0 / r),
                              2 * max(abs(x + z), r * abs(1 + z)) / abs(x - z * z) * tail)
                             for (x, z, r), tail in zip(points, tails)])


@functools.lru_cache(maxsize=8)
def _lhs_spectrum(coeffs: bytes, x: complex, radius: float, nodes: int) -> np.ndarray:
    """Read-only R_n spectrum on |z| = radius: g's spectrum with the even entries times s.

    Unscaled, because r**-k can overflow; entry n < nodes is R_n(x) r^n.  It keeps s:
    the one kernel g rounds the R_n closer than the branch-free left side would.
    """
    d = np.frombuffer(coeffs, dtype=np.complex128)
    s = cmath.sqrt(x)
    z = kernels.circle_nodes_extended(radius, nodes)
    se = kernels.QUAD_DTYPE(s)
    spectrum = kernels.circle_spectrum(kernels.eval_poly_extended(d, se * z) / (se - z))
    spectrum[::2] *= se
    spectrum.setflags(write=False)
    return spectrum


def rn_all_by_contour(source: TruncatedPowerSeries, x: complex, n_max: int,
                      nodes: int = 512) -> np.ndarray:
    """R_0(x)..R_n_max(x) for n_max < nodes and n_max <= source order, from one FFT.

    The Laurent identity's left side does not depend on n: the spectrum of
    g(z) = f(s z) / (s - z) on |z| = |sqrt x|/2 is memoized per (coefficients,
    x, radius, nodes), and R_n(x) is its Taylor coefficient n, times s for
    even n.  The radius |sqrt x|/2 is chosen here; the spectrum takes it as given.
    """
    if not 0 <= n_max < nodes:
        raise InvalidParams(f"need 0 <= n < nodes, got n = {n_max}, nodes = {nodes}")
    if n_max > source.order:
        raise InsufficientOrder(f"source order {source.order} < n = {n_max}")
    if x == 0 or not abs(x) < source.radius:
        raise DomainViolation(f"need 0 < |x| < radius, got |x| = {abs(x)}")
    circle = ContourSpec(radius=abs(cmath.sqrt(x)) / 2, nodes=nodes)
    spectrum = _lhs_spectrum(source.coeffs.tobytes(), complex(x), circle.radius, circle.nodes)
    return kernels.circle_coefficients(spectrum, circle.radius, np.arange(n_max + 1))


def rn_by_contour(source: TruncatedPowerSeries, n: int, x: complex, nodes: int = 512) -> complex:
    """R_n(x), read from the spectrum that :func:`rn_all_by_contour` shares across n."""
    return complex(rn_all_by_contour(source, x, n, nodes)[n])
