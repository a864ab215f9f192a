"""Built-in coefficient families and their closed-form reciprocals.

Four kinds are understood:

* ``geometric``      -- d_k = 1, radius 1 (f = 1/(1-z))
* ``exponential``    -- d_k = 1/k!, entire (f = exp(z))
* ``exp-binomial``   -- f = exp(b z) * prod_j (1 - a_j z)^(-family_lambda_j)
  with b >= 0, 0 < a_j < 1, family_lambda_j > 0; coefficients are positive
  and the radius is min_j 1/a_j
* ``explicit``       -- caller-supplied coefficient list plus radius

A family is written one way, ``FamilySpec(kind, **fields)``.  Its fields
are stored in one form, so a family written with ints and lists equals,
hashes and prints as its ``from_json`` twin.

``family_lambda`` names the exp-binomial exponent parameters; the unrelated
recurrence quantity lambda_n lives in ``RecurrenceData.recur_lambda``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParams, UnrepresentableValue, UnsupportedFamily
from .exact import as_number, refuse_unknown_keys
from .series import TruncatedPowerSeries

__all__ = ["FamilySpec", "realize", "reciprocal_closed_form", "MAX_ORDER"]

# each kind and its own fields; every other field stays at its default
KINDS = {"geometric": (), "exponential": (), "exp-binomial": ("b", "a", "family_lambda"),
         "explicit": ("coeffs", "radius")}

# largest order or index K.  The exact recurrence holds ~K^3 bits and the solve
# takes the time: at 4 n_cap = 512 a finite spec of generic real double g takes
# ~340 MB and ~20 s (~2 s recurrence, ~18 s solve), a complex one ~660 MB and
# ~120 s, a family's own R_n, which run no recurrence, ~32 MB and ~0.6 s
# (2-core Xeon, level 1)
MAX_ORDER = 512


@dataclass(frozen=True)
class FamilySpec:
    """A coefficient family: its kind and only that kind's own fields (:data:`KINDS`).

    Each field is stored in one form: ``b`` and ``radius`` as float, ``a``
    and ``family_lambda`` as tuples of float, ``coeffs`` as a tuple of
    complex.  A stock kind's radius is derived: 1, infinite or min 1/a_j.
    """

    kind: str
    b: float = 0.0
    a: tuple[float, ...] = ()
    family_lambda: tuple[float, ...] = ()
    coeffs: tuple[complex, ...] = ()
    radius: float = math.inf

    def __post_init__(self):
        for name, value in (("b", float(self.b)), ("radius", float(self.radius)),
                            ("a", tuple(map(float, self.a))),
                            ("family_lambda", tuple(map(float, self.family_lambda))),
                            ("coeffs", tuple(map(complex, self.coeffs)))):
            object.__setattr__(self, name, value)
        own = KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if own is None:
            raise InvalidParams(f"unknown family kind {self.kind!r}")
        foreign = [f.name for f in fields(self)
                   if f.name not in ("kind", *own) and getattr(self, f.name) != f.default]
        if foreign:
            raise InvalidParams(f"a {self.kind} family takes no {', '.join(foreign)}")
        if self.kind == "geometric":
            object.__setattr__(self, "radius", 1.0)
        if self.kind == "exp-binomial":
            if len(self.a) != len(self.family_lambda) or not self.a:
                raise InvalidParams("exp-binomial needs matching non-empty a and family_lambda")
            if not 0 <= self.b < math.inf:
                raise InvalidParams("exp-binomial needs a finite b >= 0")
            if any(not 0 < aj < 1 for aj in self.a):
                raise InvalidParams("exp-binomial needs 0 < a_j < 1")
            if any(not 0 < lj < math.inf for lj in self.family_lambda):
                raise InvalidParams("exp-binomial needs finite family_lambda_j > 0")
            object.__setattr__(self, "radius", min(1.0 / aj for aj in self.a))
        if self.kind == "explicit":
            if not self.coeffs:
                raise InvalidParams("explicit family needs coefficients")
            if not all(cmath.isfinite(c) for c in self.coeffs):
                raise InvalidParams("explicit family needs finite coefficients")

    # -- JSON round trip for the CLI ------------------------------------------

    @classmethod
    def from_json(cls, obj: dict) -> "FamilySpec":
        """The spec of a family JSON object; a key that ``to_json`` does not write is refused."""
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InvalidParams("family JSON needs a 'kind' field")
        kind = obj["kind"]
        try:
            if kind == "exp-binomial":
                spec = cls(kind, b=as_number(obj.get("b", 0.0), "exp-binomial 'b'"),
                           a=[as_number(v, "exp-binomial 'a'") for v in obj["a"]],
                           family_lambda=[as_number(v, "exp-binomial 'family_lambda'")
                                          for v in obj["family_lambda"]])
            elif kind == "explicit":
                radius = obj.get("radius")
                spec = cls(kind, coeffs=[as_number(c, "explicit family needs finite coefficients",
                                                   pair=True) for c in obj["coeffs"]],
                           radius=math.inf if radius is None
                           else as_number(radius, "explicit family 'radius'"))
            else:
                spec = cls(kind)
        except KeyError as exc:
            raise InvalidParams(f"{kind} family JSON missing {exc}") from exc
        except TypeError as exc:
            raise InvalidParams(f"{kind} family JSON: {exc}") from exc
        refuse_unknown_keys(obj, spec.to_json(), f"{kind} family JSON")
        return spec

    def to_json(self) -> dict:
        out = {"kind": self.kind, **{name: getattr(self, name) for name in KINDS[self.kind]}}
        if self.kind == "explicit":
            out.update(coeffs=[[c.real, c.imag] for c in self.coeffs],
                       radius=None if math.isinf(self.radius) else self.radius)
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
    """Coefficients d_0..d_order of the family as a series.

    A stock family's coefficients are all finite and nonzero; one that a
    double cannot hold (d_k = 1/k! underflows at k = 178) raises
    :class:`UnrepresentableValue`.  An explicit family's are taken as
    given (:class:`FamilySpec` checks that they are finite): a zero or a
    d_0 != 1 is refused where a system or the moments read it, not here.
    ``order`` is capped at :data:`MAX_ORDER` before anything is allocated.
    """
    if not 0 <= order <= MAX_ORDER:
        raise InvalidParams(f"order must be in [0, MAX_ORDER = {MAX_ORDER}], got {order}")
    if spec.kind == "explicit":
        if len(spec.coeffs) < order + 1:
            raise InvalidParams(f"explicit family provides {len(spec.coeffs)} coefficients, "
                                f"order {order} needs {order + 1}")
        return TruncatedPowerSeries(spec.coeffs[:order + 1], spec.radius)
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
    return TruncatedPowerSeries(d, spec.radius)


def reciprocal_closed_form(spec: FamilySpec, order: int) -> TruncatedPowerSeries:
    """Coefficients of 1/f from the family's closed form.

    Independent of the triangular-recurrence route, so the two can be
    cross-checked.  Geometric: (1, -1, 0, ...).  Exponential: (-1)^k/k!.
    Exp-binomial: same log-derivative recurrence with b -> -b and
    family_lambda -> -family_lambda.  Explicit lists have no closed form.
    """
    if order < 0:
        raise InvalidParams("order must be >= 0")
    if spec.kind == "explicit":
        raise UnsupportedFamily("explicit families have no closed-form reciprocal")
    if spec.kind == "exp-binomial":
        # 1/f = exp(-b z) * prod_j (1 - a_j z)^(+family_lambda_j)
        e = _exp_binomial_coeffs(-spec.b, spec.a,
                                 tuple(-l for l in spec.family_lambda), order)
    else:
        e = np.zeros(order + 1, dtype=np.complex128)
        e[0] = 1.0
        e[1:2] = -1.0       # e_1 of both; geometric stops there
        if spec.kind == "exponential":
            for k in range(order):
                e[k + 1] = -e[k] / (k + 1)
    return TruncatedPowerSeries(e, spec.radius)
