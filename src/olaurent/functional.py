"""The orthogonality functional, by exact moments and by contour quadrature.

The functional acts on Laurent polynomials through its moments
mu_m = L(x^m).  Writing e_m for the Maclaurin coefficients of 1/f,

    mu_0 = 1,   mu_{-m} = e_m,   mu_m = 0 for m >= 1,

where the vanishing of the positive moments is structural, not numeric.
With d_0 = 1 the recursion e_m = -sum_{k=1..m} d_k e_{m-k} has no
division, so on double coefficients d_k every e_m is a Gaussian dyadic
rational: the moment table is computed exactly from the double inputs
(see :mod:`olaurent.exact`) and each moment is rounded to a double once.
An independent route evaluates the defining contour integral

    L(p) = (1/2 pi i) oint_{|y|=c} p(y^2) dy / (y f(y^2))

by the trapezoid rule on equispaced nodes, which converges geometrically
for analytic integrands.  The rule is linear in p, so the contour route is
apply_L on quadrature moments mu~_m, the Cauchy coefficients -2m of
1/f(y^2): it differs from the exact route only in where its moments come
from.  The integrand depends on y only through w = y^2, and squaring maps
the N nodes of |y| = c onto the N' = N / gcd(N, 2) nodes of |w| = c^2
(twice each for even N; for odd N it permutes them).  So the N-node rule
on |y| = c is the N'-node rule on |w| = c^2, and mu~_m is the Cauchy
coefficient -m of 1/f(w) there, read from one FFT of N' values of f.
For a real f those values come in conjugate pairs, so every mu~_m is
real and the table keeps integer numerators.  On the system R_0..R_K
these give L(R_0) = 1 and L(R_n) = 0 for n >= 1, and the Gram matrix
G[n, m] = L(R_n R_m) is diagonal with G[2n, 2n] = d_{2n} and
G[2n+1, 2n+1] = -d_{2n+2}.  The entries are sums of products d_i d_j e_q
that cancel by about 3^K against values as small as 1/K!, so
:func:`gram_matrix` evaluates each L(R_n R_m) exactly from the double
coefficients and the exact moments and rounds it once.  Entry (n, m)
reads the partial moments P_m[u] = sum_{j <= m} d_j mu_{j-u} only on a
window W_n around u = ceil(m/2), and the windows nest (W_n holds
W_{n-1}).  So once a window holds only exact zeros, so do all smaller
ones, and their entries are empty sums: exact zeros that need no work.
On the exact table P_m[u] = (d * e)_u = delta_{u0} for u <= m, as e is
the reciprocal series of d, so only the diagonal is summed and rounded.
The Gram is linear in the moments, so the two routes' Grams differ by
the Gram of delta = mu~ - mu.  :func:`difference_gram` forms each delta_m
exactly, rounds it once, and takes its Gram as two float matrix products
with an entrywise rounding bound: O(K^3) float work, where the exact
Gram of a dense quadrature table is O(K^3) big-int work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress, count
from operator import lshift, mul

import numpy as np

from . import exact, kernels
from .errors import (
    InsufficientOrder,
    InvalidParams,
    NearZeroDenominator,
    RadiusInvalid,
    TailNotNegligible,
    UnsupportedFamily,
    WindowExceeded,
)
from .families import FamilySpec
from .series import LaurentPoly, TruncatedPowerSeries
from .systems import OLPSystem

__all__ = [
    "MomentTable",
    "ContourSpec",
    "exact_moments",
    "contour_moments",
    "apply_L",
    "contour_L",
    "gram_matrix",
    "difference_gram",
    "specialized_L_exp_binomial",
]

MIN_DENOMINATOR = 1e-8
MAX_TAIL = 1e-13
MAX_NODES = 2 ** 20


@dataclass(frozen=True)
class MomentTable:
    """Moments mu_m for |m| <= window.

    ``values`` holds mu_{-window}..mu_{window} in ascending m as integer
    numerators over the one positive int ``denominator``: ``int``, or
    :class:`~olaurent.exact.Gaussian` where complex inputs make them so.
    :func:`exact_moments` fills them with the exact moments of the double
    coefficients; :func:`~olaurent.finite.solve_moments` with its
    fixed-point solution; :func:`contour_moments` with the trapezoid
    rule's moments as doubles, each over a power of two.  ``table[m]``
    rounds mu_m once to a double and refuses a moment that overflows.
    :func:`apply_L` and :func:`gram_matrix` round only their sums.
    """

    window: int
    values: tuple = field(repr=False)
    denominator: int

    def __getitem__(self, m: int) -> complex:
        if abs(m) > self.window:
            raise WindowExceeded(f"moment {m} outside window [-{self.window}, {self.window}]")
        return exact.to_complex(self.values[m + self.window], self.denominator)


@dataclass(frozen=True)
class ContourSpec:
    """Circle |y| = radius sampled at ``nodes`` equispaced points, 16 to ``MAX_NODES``.

    The contour integrands are functions of w = y^2, and the N points on
    |y| are N / gcd(N, 2) distinct points on |w| = radius^2, so an odd
    count is as exact a rule as an even one.
    """

    radius: float
    nodes: int = 512

    def __post_init__(self):
        if not self.radius > 0:
            raise InvalidParams("contour radius must be positive")
        if self.radius * self.radius == 0:
            raise InvalidParams(f"contour radius c = {self.radius} has c^2 = 0 in doubles, "
                                "which collapses every node on |w| = c^2 to 0")
        if not 16 <= self.nodes <= MAX_NODES:
            raise InvalidParams(f"contour needs 16 to {MAX_NODES} nodes, got {self.nodes}")


def exact_moments(source: TruncatedPowerSeries, window: int) -> MomentTable:
    """Moment table over [-window, window] from the reciprocal series.

    The reciprocal coefficients e_m are computed exactly from the double
    coefficients d_k, each its mantissa over its minimal 2**s_k, as the
    source's exact view
    :attr:`~olaurent.series.TruncatedPowerSeries.exact_coeffs` holds them
    (53 bits for a real d_k), and e_m over 2**(m R) for the one exponent
    rate R = max_{k=1..window} ceil(s_k / k).  With ``d[k]`` the mantissa
    of d_k and ``e[m]`` the numerator of e_m, e[m] = -sum_k d[k] e[m-k]
    << (k R - s_k): each term's shift depends on k alone, and
    k R - s_k >= 0 since R >= s_k / k.  The table is over 2**(window R).
    For window >= 1 that denominator has fewer than window + max_k s_k
    bits more than T_window, the least scale of the recursion (T_0 = 0,
    T_m = max_k (s_k + T_{m-k})): with k* attaining R and
    window = q k* + r, r < k*, T_window >= q s_k*, while
    window R < window (s_k* / k* + 1) <= q s_k* + s_k* + window.
    """
    if window < 0:
        raise InvalidParams("window must be >= 0")
    if source.order < window:
        raise InsufficientOrder(f"source order {source.order} < window {window}")
    if source.coeffs[0] != 1:
        raise InvalidParams(f"source needs d_0 = 1, got {source.coeffs[0]}")
    d, s = zip(*source.exact_coeffs[:window + 1])
    R = max((-(-sk // k) for k, sk in enumerate(s) if k), default=0)
    sh = [k * R - sk for k, sk in enumerate(s)]
    e = [1]
    for m in range(1, window + 1):
        e.append(-sum(map(lshift, map(mul, d[1:m + 1], e[m - 1::-1]), sh[1:m + 1])))
    # ascending m: mu_{-window}..mu_{-1} = e_window..e_1, mu_0 = 1, then
    # the structural zeros
    values = tuple(e[k] << (window - k) * R for k in range(window, -1, -1)) + (0,) * window
    return MomentTable(window=window, values=values, denominator=1 << window * R)


def apply_L(p: LaurentPoly, moments: MomentTable) -> complex:
    """L(p) = sum_e c_e mu_e, summed exactly over p's and the table's numerators, rounded once."""
    if not p:
        return 0j
    lo, hi = p.min_exponent, p.max_exponent
    if lo < -moments.window or hi > moments.window:
        raise WindowExceeded(
            f"support [{lo}, {hi}] exceeds moment window [-{moments.window}, {moments.window}]")
    mu = moments.values[lo + moments.window:hi + moments.window + 1]
    return exact.to_complex(sum(map(mul, p.numerators, mu)), moments.denominator * p.denominator)


def contour_moments(source: TruncatedPowerSeries, spec: ContourSpec,
                    window: int) -> MomentTable:
    """Quadrature moments mu~_m, |m| <= window: coefficient -m of 1/f(w) on |w| = c^2.

    This is the N-node rule on |y| = c (see the module docstring).  A real
    source gives an ``int`` table, a complex one a ``Gaussian`` table.
    Requires the contour radius c to satisfy c^2 < radius(f), the
    truncated f to carry a negligible tail on the contour, and |f| to
    stay clear of zero on the nodes.
    """
    c = spec.radius
    if not c * c < source.radius:
        raise RadiusInvalid(
            f"contour radius {c} needs c^2 < series radius {source.radius}")
    tail = source.tail_bound(c * c)
    if not tail <= MAX_TAIL:
        raise TailNotNegligible(
            f"truncation tail estimate {tail:.3e} exceeds {MAX_TAIL:.0e} at |z| = {c * c}")
    f_vals = kernels.eval_poly_extended(source.coeffs, _w_nodes(spec))
    m = float(np.min(np.abs(f_vals)))
    if not m > MIN_DENOMINATOR:   # a NaN on the nodes fails too
        raise NearZeroDenominator(f"min |f| on contour = {m:.3e}")
    return _quadrature_table(kernels.circle_spectrum(1 / f_vals), c * c, window,
                             real=not source.coeffs.imag.any())


def _w_nodes(spec: ContourSpec) -> np.ndarray:
    """The N / gcd(N, 2) distinct values of w = y^2 on the N nodes of ``spec``, on |w| = c^2."""
    return kernels.circle_nodes_extended(spec.radius * spec.radius,
                                         spec.nodes // math.gcd(spec.nodes, 2))


def _quadrature_table(spectrum: np.ndarray, radius: float, window: int,
                      real: bool) -> MomentTable:
    """Coefficients -m, |m| <= window, of a node spectrum on |w| = radius, each rounded once.

    A `real` table keeps the real parts: the imaginary parts of a
    conjugate-symmetric integrand's moments are rounding noise.
    """
    mu = kernels.circle_coefficients(spectrum, radius, range(window, -window - 1, -1))
    values, scale = exact.scaled(mu.real if real else mu)
    return MomentTable(window=window, values=tuple(values), denominator=1 << scale)


def contour_L(p: LaurentPoly, source: TruncatedPowerSeries,
              spec: ContourSpec) -> complex:
    """Trapezoid quadrature of the defining contour integral, by :func:`contour_moments`."""
    window = max(-p.min_exponent, p.max_exponent, 0) if p else 0
    return apply_L(p, contour_moments(source, spec, window))


def gram_matrix(system: OLPSystem, moments: MomentTable) -> np.ndarray:
    """G[n, m] = L(R_n R_m) for n, m <= K; complex symmetric.

    Every R_n is the partial sum f_n shifted down by t_n = ceil(n/2), so

        L(R_n R_m) = sum_{i <= n} d_i P_m[t_n + t_m - i],
        P_m[u] = sum_{j <= m} d_j mu_{j-u},

    and P_m follows from P_{m-1} by one term per u.  An even n has
    t_n = t_{n-1}, so R_n = R_{n-1} + d_n x^{n/2} adds one term to the
    previous entry; only odd n start a new sum.  Both sums run exactly
    over the double coefficients d_k and the table's integer moments;
    each nonzero entry is rounded to a double once.  The P_m update skips
    the table's zero moments and forms d_k mu as (mantissa * mu) << (ds - s_k),
    with d_k = mantissa / 2**s_k (53 bits when real) and ds the largest s_k,
    all read from the source's exact view
    :attr:`~olaurent.series.TruncatedPowerSeries.exact_coeffs`.

    Entry (n, m) reads P_m[u] on the window W_n = [t_m - floor(n/2),
    t_m + ceil(n/2)], and W_n is W_{n-1} plus one end, so the windows
    nest.  Below the first n whose window holds a nonzero P_m[u], every
    entry is an empty exact sum, 0, which the zero-filled G already
    holds bitwise; the loop over n starts there, found from the nearest
    nonzero P_m[u] on each side of t_m by one ``compress`` per side.  A
    dense (quadrature) table starts at n = 0.  On an exact table,
    mu_q = 0 for q > 0 makes P_m[u] = (d * e)_u = delta_{u0} for u <= m,
    so the loop starts at n = m and sums and rounds only the diagonal.
    Each odd-n sum runs over its nonzero P_m[u] only (``compress``), so
    on an exact table it is one product, not n + 1.
    """
    K = system.K
    need = 2 * math.ceil(K / 2)
    if moments.window < need:
        raise WindowExceeded(f"Gram for K = {K} needs moment window >= {need}, "
                             f"have {moments.window}")
    # d_k = parts[k][0] / 2**s_k, and d[k] is its numerator over the common 2**ds
    parts = system.source.exact_coeffs[:K + 1]
    d, ds = exact.common_scale(parts)
    sh = [ds - sk for _, sk in parts]
    w, mu = moments.window, moments.values
    den = moments.denominator << 2 * ds
    # mu[i] = 0 outside bot <= i <= top: P_m[u] changes only at u = m + w - top..m + w - bot
    nonzero = [i for i, v in enumerate(mu) if v]
    bot, top = (nonzero[0], nonzero[-1]) if nonzero else (len(mu), -1)
    # P_m[u] for u = 0..need; n <= m keeps every read at u >= 0
    P = [0] * (need + 1)
    G = np.zeros((K + 1, K + 1), dtype=np.complex128)
    for m in range(K + 1):
        mm, sm = parts[m][0], sh[m]
        for u in range(max(0, m + w - top), min(need, m + w - bot) + 1):
            P[u] += (mm * mu[m - u + w]) << sm
        tm = (m + 1) // 2
        g = 0   # the entry before the first window holding a nonzero: exactly 0
        for n in range(_first_nonzero_window(P, tm, m), m + 1):
            hi = (n + 1) // 2 + tm   # u = t_n + t_m
            if n % 2:
                row = P[hi:hi - n - 1:-1]   # P[hi - i] for i = 0..n; hi - n >= 1
                g = sum(map(mul, compress(d, row), compress(row, row)))
            else:
                g += d[n] * P[hi - n]
            if g:
                G[n, m] = G[m, n] = exact.to_complex(g, den)
    return G


def _first_nonzero_window(P: list, tm: int, m: int) -> int:
    """The least n <= m whose window W_n holds a nonzero P[u], else m + 1.

    W_0 = {tm}, and W_n adds to W_{n-1} the one index tm + (n+1)//2 for
    odd n and tm - n//2 for even n.  So the nearest nonzero above tm, at
    tm + j, first enters at n = 2j - 1, and the nearest at or below, at
    tm - j, at n = 2j; each is found by one compress over its half window.
    """
    above = next(compress(count(1, 2), P[tm + 1:tm + (m + 1) // 2 + 1]), m + 1)
    below = next(compress(count(0, 2), P[tm - m // 2:tm + 1][::-1]), m + 1)
    return min(above, below)


def difference_gram(system: OLPSystem, moments: MomentTable,
                    quadrature: MomentTable) -> tuple[np.ndarray, np.ndarray]:
    """(G, E): the Gram of delta = mu~ - mu in doubles, and |G - exact Gram of delta| <= E.

    The Gram is linear in the moments, so ``gram_matrix(system,
    quadrature) - gram_matrix(system, moments)`` differs from the exact
    Gram of delta only by the rounding of each Gram's entries.  Each delta_q is
    formed exactly over the tables' common denominator and rounded once;
    then, with row n of A holding d_0..d_n at exponents -t_n..n - t_n
    (t_n = ceil(n/2)) and H[e, e'] = delta_{e+e'} the Hankel matrix of
    delta over exponents -ceil(K/2)..floor(K/2), G = A H A^T is two float
    matrix products.  Real d and a real delta take float64, where each
    sum is within the complex bound below.

    Error bound.  Let u = 2**-53, eta = 2**-1074, gamma_k = k u / (1 - k u),
    N = K + 1, |X| the entrywise moduli, g = sqrt(2) gamma_{2N}, and
    rho_n = sum_k |A[n, k]|.  Rounding each part of delta_q gives
    |H^ - H| <= u |H| + eta.  An entry of a product of N-term rows is two
    real sums of 2N products, each within gamma_{2N} of the sum of its
    terms' moduli plus 2N eta from underflow, in any order and with or
    without fused multiply-adds (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, ch. 3), so |fl(XY) - XY| <=
    g |X||Y| + 3N eta.  With B = fl(H^ A^T), G = fl(A B) and
    M = |A| |H^| |A|^T, that gives |G - A H^ A^T| <= (2g + g^2) M +
    3N eta ((1 + g) rho_n + 1), and |A (H^ - H) A^T| <= u/(1 - u) M +
    2 eta rho_n rho_m.  So

        |G - A H A^T| <= (2g + g^2 + u/(1 - u)) M + 2 eta (rho_n + 3N)(rho_m + 3N).

    E evaluates this in doubles.  The computed M is at least
    (1 - 2u)(1 - gamma_N)^2 M, less underflow the eta term absorbs; the
    factor 1 + gamma_{2N+16} covers that and the rounding of E itself,
    and the eta term is taken four times over.  E is rounded up one ulp.
    A delta_q that overflows a double is refused by
    :func:`~olaurent.exact.to_complex`; G and E are inf or NaN where the
    products overflow.
    """
    K = system.K
    c = math.ceil(K / 2)
    for table in (moments, quadrature):
        if table.window < 2 * c:
            raise WindowExceeded(f"Gram for K = {K} needs moment window >= {2 * c}, "
                                 f"have {table.window}")
    den = math.lcm(moments.denominator, quadrature.denominator)
    a, b = den // moments.denominator, den // quadrature.denominator
    # H reads delta_q for q = -2c..2(K - c), each formed exactly and rounded once
    delta = np.array([exact.to_complex(b * quadrature.values[q + quadrature.window]
                                       - a * moments.values[q + moments.window], den)
                      for q in range(-2 * c, 2 * (K - c) + 1)])
    d = system.source.coeffs[:K + 1]
    if not (delta.imag.any() or d.imag.any()):
        delta, d = delta.real, d.real
    n = np.arange(K + 1)
    k = n + (n[:, None] + 1) // 2 - c   # A[n, j] = d_k at exponent j - c
    A = np.where((k >= 0) & (k <= n[:, None]), d[np.clip(k, 0, K)], 0)
    H = delta[n + n[:, None]]
    G = _matmul(A, _matmul(H, A.T))
    u, N = 2.0 ** -53, K + 1
    g = math.sqrt(2) * _gamma(2 * N)
    factor = (2 * g + g * g + u / (1 - u)) * (1 + _gamma(2 * N + 16))
    absA = np.abs(A)
    rho = absA.sum(axis=1) + 3 * N
    E = factor * _matmul(absA, _matmul(np.abs(H), absA.T)) + (rho * 2.0 ** -1071)[:, None] * rho
    return G, np.nextafter(E, np.inf)


def _matmul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y as one real product; a complex entry is two real sums of 2N products.

    Each complex y is the real block [[Re y, Im y], [-Im y, Re y]], so the
    rows of X viewed as interleaved float64 pairs times those blocks give
    the interleaved parts of X @ Y.  The product is numpy's own einsum
    loop, not BLAS: a threaded BLAS product took 10-16 ms at N = 41..81 on
    a 2-core host, against under 1 ms single-threaded.
    """
    if not (np.iscomplexobj(X) or np.iscomplexobj(Y)):
        return np.einsum("ij,jk->ik", X, Y)
    X, Y = np.ascontiguousarray(X, dtype=np.complex128), np.asarray(Y, dtype=np.complex128)
    blocks = np.empty((2 * Y.shape[0], 2 * Y.shape[1]))
    blocks[0::2, 0::2] = blocks[1::2, 1::2] = Y.real
    blocks[0::2, 1::2] = Y.imag
    blocks[1::2, 0::2] = -Y.imag
    return np.einsum("ij,jk->ik", X.view(np.float64), blocks).view(np.complex128)


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) for u = 2**-53."""
    return k * 2.0 ** -53 / (1 - k * 2.0 ** -53)


def specialized_L_exp_binomial(p: LaurentPoly, spec: FamilySpec,
                               nodes: int = 512) -> complex:
    """Unit-circle quadrature using the closed-form reciprocal weight.

    For the exp-binomial family 1/f(y^2) = exp(-b y^2) prod_j
    (1 - a_j y^2)^(family_lambda_j), analytic on |y| = 1 because every
    a_j < 1; the principal branch is single-valued there since
    Re(1 - a_j y^2) > 0.  Like :func:`contour_moments` it evaluates the
    weight once per distinct w = y^2; the weight is real on the real
    axis, so its moments are real.
    """
    if spec.kind != "exp-binomial":
        raise UnsupportedFamily(f"specialized route needs exp-binomial, got {spec.kind!r}")
    w = _w_nodes(ContourSpec(radius=1.0, nodes=nodes)).astype(np.complex128)
    weight = np.exp(-spec.b * w)
    for aj, lj in zip(spec.a, spec.family_lambda):
        weight = weight * np.power(1.0 - aj * w, lj)
    window = max(-p.min_exponent, p.max_exponent, 0) if p else 0
    return apply_L(p, _quadrature_table(kernels.circle_spectrum(weight), 1.0, window, real=True))
