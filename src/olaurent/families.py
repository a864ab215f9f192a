"""Built-in coefficient families and their closed-form reciprocals.

Four kinds are understood:

* ``geometric``      -- d_k = 1, radius 1 (f = 1/(1-z))
* ``exponential``    -- d_k = 1/k!, entire (f = exp(z))
* ``exp-binomial``   -- f = exp(b z) * prod_j (1 - a_j z)^(-family_lambda_j)
  with b >= 0, 0 < a_j < 1, family_lambda_j > 0; coefficients are positive
  and the radius is min_j 1/a_j
* ``explicit``       -- caller-supplied coefficient list plus radius

``family_lambda`` names the exp-binomial exponent parameters; the unrelated
recurrence quantity lambda_n lives in ``RecurrenceData.recur_lambda``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, UnrepresentableValue, UnsupportedFamily
from .exact import as_number, refuse_unknown_keys
from .series import TruncatedPowerSeries

__all__ = ["FamilySpec", "realize", "reciprocal_closed_form", "MAX_ORDER"]

KINDS = ("geometric", "exponential", "exp-binomial", "explicit")

# largest order or index K: the exact recurrence holds ~K^3 bits, so a
# finite system at 4 n_cap = 512 takes ~250 MB and ~13 s (2-core Xeon)
MAX_ORDER = 512


@dataclass(frozen=True)
class FamilySpec:
    """Declarative description of a coefficient family.

    Use the classmethod constructors; they keep the field soup straight.
    """

    kind: str
    b: float = 0.0
    a: tuple[float, ...] = ()
    family_lambda: tuple[float, ...] = ()
    coeffs: tuple[complex, ...] = ()
    radius: float = math.inf

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParams(f"unknown family kind {self.kind!r}")
        if self.kind == "exp-binomial":
            if len(self.a) != len(self.family_lambda) or not self.a:
                raise InvalidParams("exp-binomial needs matching non-empty a and family_lambda")
            if not 0 <= self.b < math.inf:
                raise InvalidParams("exp-binomial needs a finite b >= 0")
            if any(not 0 < aj < 1 for aj in self.a):
                raise InvalidParams("exp-binomial needs 0 < a_j < 1")
            if any(not 0 < lj < math.inf for lj in self.family_lambda):
                raise InvalidParams("exp-binomial needs finite family_lambda_j > 0")
        if self.kind == "explicit":
            if not self.coeffs:
                raise InvalidParams("explicit family needs coefficients")
            if not all(cmath.isfinite(c) for c in self.coeffs):
                raise InvalidParams("explicit family needs finite coefficients")

    @classmethod
    def geometric(cls) -> "FamilySpec":
        return cls(kind="geometric", radius=1.0)

    @classmethod
    def exponential(cls) -> "FamilySpec":
        return cls(kind="exponential")

    @classmethod
    def exp_binomial(cls, b: float, a, family_lambda) -> "FamilySpec":
        a = tuple(float(x) for x in a)
        lam = tuple(float(x) for x in family_lambda)
        return cls(kind="exp-binomial", b=float(b), a=a, family_lambda=lam,
                   radius=min(1.0 / aj for aj in a) if a else math.inf)

    @classmethod
    def explicit(cls, coeffs, radius: float) -> "FamilySpec":
        return cls(kind="explicit", coeffs=tuple(complex(c) for c in coeffs),
                   radius=float(radius))

    # -- JSON round trip for the CLI ------------------------------------------

    @classmethod
    def from_json(cls, obj: dict) -> "FamilySpec":
        """The spec of a family JSON object; a key that ``to_json`` does not write is refused."""
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InvalidParams("family JSON needs a 'kind' field")
        kind = obj["kind"]
        if kind == "geometric":
            spec = cls.geometric()
        elif kind == "exponential":
            spec = cls.exponential()
        elif kind == "exp-binomial":
            try:
                spec = cls.exp_binomial(
                    as_number(obj.get("b", 0.0), "exp-binomial 'b'"),
                    [as_number(v, "exp-binomial 'a'") for v in obj["a"]],
                    [as_number(v, "exp-binomial 'family_lambda'") for v in obj["family_lambda"]])
            except KeyError as exc:
                raise InvalidParams(f"exp-binomial family JSON missing {exc}") from exc
            except TypeError as exc:
                raise InvalidParams(f"exp-binomial family JSON: {exc}") from exc
        elif kind == "explicit":
            try:
                coeffs = [as_number(c, "explicit family needs finite coefficients", pair=True)
                          for c in obj["coeffs"]]
            except KeyError as exc:
                raise InvalidParams("explicit family JSON missing 'coeffs'") from exc
            except TypeError as exc:
                raise InvalidParams(f"explicit family JSON: {exc}") from exc
            radius = obj.get("radius")
            spec = cls.explicit(coeffs, math.inf if radius is None
                                else as_number(radius, "explicit family 'radius'"))
        else:
            raise InvalidParams(f"unknown family kind {kind!r}")
        refuse_unknown_keys(obj, spec.to_json(), f"{kind} family JSON")
        return spec

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "exp-binomial":
            out["b"] = self.b
            out["a"] = list(self.a)
            out["family_lambda"] = list(self.family_lambda)
        if self.kind == "explicit":
            out["coeffs"] = [[c.real, c.imag] for c in self.coeffs]
            out["radius"] = None if math.isinf(self.radius) else self.radius
        return out


def _exp_binomial_coeffs(b: float, a, lam, order: int) -> np.ndarray:
    """Log-derivative recurrence, sign-flippable for the reciprocal.

    With h_i = b*[i=0] + sum_j lam_j a_j^(i+1) the coefficients satisfy
    (n+1) d_{n+1} = sum_{i<=n} h_i d_{n-i}, d_0 = 1.
    """
    a = np.asarray(a, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    i = np.arange(order + 1)
    h = (a[None, :] ** (i[:, None] + 1) * lam[None, :]).sum(axis=1)
    h[0] += b
    d = np.zeros(order + 1, dtype=np.complex128)
    d[0] = 1.0
    for n in range(order):
        d[n + 1] = np.dot(h[:n + 1], d[n::-1]) / (n + 1)
    return d


def realize(spec: FamilySpec, order: int) -> TruncatedPowerSeries:
    """Coefficients d_0..d_order of the family as a source series.

    A stock family's coefficients are all finite and nonzero; one that a
    double cannot hold (d_k = 1/k! underflows at k = 178) raises
    :class:`UnrepresentableValue`.  ``order`` is capped at
    :data:`MAX_ORDER` before anything is allocated.
    """
    if not 0 <= order <= MAX_ORDER:
        raise InvalidParams(f"order must be in [0, MAX_ORDER = {MAX_ORDER}], got {order}")
    if spec.kind == "explicit":
        if len(spec.coeffs) < order + 1:
            raise InvalidParams(f"explicit family provides {len(spec.coeffs)} coefficients, "
                                f"order {order} needs {order + 1}")
        return TruncatedPowerSeries.source(spec.coeffs[:order + 1], spec.radius)
    if spec.kind == "geometric":
        d = np.ones(order + 1)
    elif spec.kind == "exponential":
        d = np.zeros(order + 1, dtype=np.complex128)
        d[0] = 1.0
        for k in range(order):
            d[k + 1] = d[k] / (k + 1)
    else:
        d = _exp_binomial_coeffs(spec.b, spec.a, spec.family_lambda, order)
    bad = np.flatnonzero((d == 0) | ~np.isfinite(d))
    if bad.size:
        raise UnrepresentableValue(f"{spec.kind} coefficient d_{bad[0]} is out of the double range")
    return TruncatedPowerSeries.source(d, spec.radius)


def reciprocal_closed_form(spec: FamilySpec, order: int) -> TruncatedPowerSeries:
    """Coefficients of 1/f from the family's closed form.

    Independent of the triangular-recurrence route, so the two can be
    cross-checked.  Geometric: (1, -1, 0, ...).  Exponential: (-1)^k/k!.
    Exp-binomial: same log-derivative recurrence with b -> -b and
    family_lambda -> -family_lambda.  Explicit lists have no closed form.
    """
    if order < 0:
        raise InvalidParams("order must be >= 0")
    if spec.kind == "geometric":
        e = np.zeros(order + 1, dtype=np.complex128)
        e[0] = 1.0
        if order >= 1:
            e[1] = -1.0
        return TruncatedPowerSeries(e, 1.0)
    if spec.kind == "exponential":
        e = np.zeros(order + 1, dtype=np.complex128)
        e[0] = 1.0
        for k in range(order):
            e[k + 1] = -e[k] / (k + 1)
        return TruncatedPowerSeries(e, math.inf)
    if spec.kind == "exp-binomial":
        # 1/f = exp(-b z) * prod_j (1 - a_j z)^(+family_lambda_j)
        e = _exp_binomial_coeffs(-spec.b, spec.a,
                                 tuple(-l for l in spec.family_lambda), order)
        return TruncatedPowerSeries(e, spec.radius)
    raise UnsupportedFamily("explicit families have no closed-form reciprocal")
