"""Generating-function identities and the contour extraction of R_n.

Two identities are checked against truncated sums:

    f(x t) / (1 - t)   = sum_n f_n(x) t^n                  (|t| < 1)
    ((s+1)/(s-z)) f(s z) + ((s-1)/(s+z)) f(-s z)
                       = 2 sum_n R_n(x) z^n                (|z| < |s|)

where s is either square root of x; the left side is invariant under the
choice of branch.  Both are one truncated sum, sum_{n<=terms} f_n(x) w_n
with w_n = t^n or 2 z^n / x^ceil(n/2), against a left side evaluated on
the realized d_0..d_T; so every |f_n(x)| is at most the majorant
sum_{k<=T} |d_k| |x|^k, which bounds the dropped terms for any T >= terms
(the CLI realizes T as its contour route does: max(terms, 64) for a stock
family, an explicit one's own coefficients up to 64).  The second
identity's left side does not depend on n, so one FFT of it on
|z| = |s|/2 gives every R_n(x) as a Taylor coefficient.

That FFT needs one kernel, not two.  With g(z) = f(s z) / (s - z) the
left side is (s+1) g(z) + (s-1) g(-z), whose coefficient n is
(s+1) g_n + (-1)^n (s-1) g_n: 2 s g_n for even n and 2 g_n for odd n.
Expanding 1/(s - z) gives g_n = s^(-n-1) f_n(x), so

    R_n(x) = s g_n  (n even),    R_n(x) = g_n  (n odd),

and one Horner pass of f over the nodes serves every n.

Each check takes equal-length sequences of points, ``check_partial_sum_genfun(system, xs,
ts, terms)`` and ``check_laurent_genfun(system, xs, zs, terms, sqrt_xs=None)``, and returns
one :class:`GenfunCheck` per point, in order; a guard names the index of the point it
refuses.  A check evaluates f on the truncated source series, at all of its points in one
call, so points must sit inside the convergence disc with a fixed safety margin.
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


@dataclass(frozen=True)
class GenfunCheck:
    """Residual of a truncated identity next to its finite tail estimate."""

    residual: float
    tail_bound: float
    lhs: complex

    def __post_init__(self):
        if not math.isfinite(self.tail_bound):
            raise TailNotNegligible(f"tail estimate {self.tail_bound} is not finite")


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


def check_laurent_genfun(system: OLPSystem, xs, zs, terms: int, sqrt_xs=None) -> list[GenfunCheck]:
    """Residual of the two-kernel identity against 2 sum R_n(x) z^n at each point (x, z).

    ``sqrt_xs`` defaults to the principal square roots s of the x; pass other branches to
    exercise branch invariance.  A given root must square to x within 1e-12 |x|.  z within
    POLE_TOL |s| of +-s is refused, a guard scaled to the poles it keeps off.
    """
    f = system.source
    roots = [cmath.sqrt(x) for x in xs] if sqrt_xs is None else sqrt_xs
    points, prefacs = _points(xs, zs, roots), []
    for i, (x, z, s) in enumerate(points):
        if sqrt_xs is not None and (err := abs(s * s - x)) > 1e-12 * abs(x):
            raise InvalidParams(f"point {i}: sqrt_x^2 differs from x by {err:.3e}")
        if x == 0 or not abs(x) <= RADIUS_MARGIN * f.radius:
            raise DomainViolation(f"point {i}: need 0 < |x| <= {RADIUS_MARGIN} * radius, "
                                  f"got |x| = {abs(x)}")
        if not abs(z) < abs(s):
            raise DomainViolation(f"point {i}: |z| = {abs(z)} must be < |sqrt x| = {abs(s)}")
        if min(abs(s - z), abs(s + z)) < POLE_TOL * abs(s):
            raise PoleProximity(f"point {i}: z too close to +-sqrt(x)")
        prefacs.append(abs((s + 1) / (s - z)) + abs((s - 1) / (s + z)))
    sz = [complex(s * z) for _, z, s in points]
    values = kernels.eval_poly(f.coeffs, sz + [complex(-s * z) for _, z, s in points])
    lhs = [((s + 1) / (s - z)) * plus + ((s - 1) / (s + z)) * minus
           for (_, z, s), plus, minus in zip(points, values, values[len(points):])]
    tails = f.tail_bound(np.array([abs(s * z) for z, s in zip(zs, roots)])).tolist()
    # 2 R_n(x) z^n = f_n(x) w_n: the ladder's steps z/x (odd n) and z (even n) never overflow
    steps = np.array([(2.0, z / x, z) for x, z in zip(xs, zs)], np.complex128).reshape(-1, 3)
    return _truncated_check(system, xs, terms, lhs,
                            lambda n: np.cumprod(steps[:, np.where(n == 0, 0, 2 - n % 2)], axis=1),
                            [(abs(z) / abs(s), 2.0 * max(1.0, 1.0 / abs(s)), p * tail)
                             for z, s, p, tail in zip(zs, roots, prefacs, tails)])


@functools.lru_cache(maxsize=8)
def _lhs_spectrum(coeffs: bytes, x: complex, radius: float, nodes: int) -> np.ndarray:
    """Read-only R_n spectrum on |z| = radius: g's spectrum with the even entries times s.

    Unscaled, because r**-k can overflow; entry n < nodes is R_n(x) r^n.
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
