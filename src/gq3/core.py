"""Value types and pointwise algebra of three-parameter generalized quaternions.

A generalized quaternion ``a0 + a1*e1 + a2*e2 + a3*e3`` lives over a parameter
triple (lambda1, lambda2, lambda3) that fixes the squares of the basis
elements::

    e1*e1 = -lambda1*lambda2
    e2*e2 = -lambda1*lambda3
    e3*e3 = -lambda2*lambda3

Setting the triple to (1, 1, 1) recovers the classical quaternions; other
choices select the split, semi, split-semi and quarter families, all handled
uniformly here.  Every value carries its triple, and binary operations refuse
to mix triples: distinct triples are distinct algebras.

The induced bilinear form on pure quaternions is indefinite in general, so the
norm may be zero or negative and genuine zero divisors exist.  Nothing in this
module assumes positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ParamMismatch, ZeroNorm

__all__ = [
    "ParamTriple",
    "GQuat",
    "GVec3",
    "family",
    "bilinear_f",
    "wedge",
    "wedge_triple_left",
    "wedge_triple_right",
]

# Relative scale for treating an indefinite norm as exactly zero.
_ZERO_NORM_REL = 1e-12


@dataclass(frozen=True)
class ParamTriple:
    """The (lambda1, lambda2, lambda3) triple selecting one algebra family.

    Zero and negative entries are legal; they produce the degenerate and
    split families.  Triples compare by exact float equality: two values are
    operable together only if their triples match exactly.
    """

    lambda1: float
    lambda2: float
    lambda3: float

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))

    # Pairwise products; these are the coefficients that appear in the
    # product expansion, the norm and the metric.
    @property
    def l12(self) -> float:
        return self.lambda1 * self.lambda2

    @property
    def l13(self) -> float:
        return self.lambda1 * self.lambda3

    @property
    def l23(self) -> float:
        return self.lambda2 * self.lambda3

    @property
    def is_positive(self) -> bool:
        """True when all three parameters are strictly positive."""
        return self.lambda1 > 0 and self.lambda2 > 0 and self.lambda3 > 0

    @classmethod
    def two_param(cls, lam: float, mu: float) -> "ParamTriple":
        """Two-parameter generalized quaternions: e1^2 = -lam, e2^2 = -mu."""
        return cls(1.0, lam, mu)

    @classmethod
    def hamilton(cls) -> "ParamTriple":
        return cls(1.0, 1.0, 1.0)

    @classmethod
    def split(cls) -> "ParamTriple":
        return cls(1.0, 1.0, -1.0)

    @classmethod
    def semi(cls) -> "ParamTriple":
        return cls(1.0, 1.0, 0.0)

    @classmethod
    def split_semi(cls) -> "ParamTriple":
        return cls(1.0, -1.0, 0.0)

    @classmethod
    def quarter(cls) -> "ParamTriple":
        return cls(1.0, 0.0, 0.0)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lambda1, self.lambda2, self.lambda3)


_FAMILIES = {
    "hamilton": ParamTriple.hamilton,
    "split": ParamTriple.split,
    "semi": ParamTriple.semi,
    "split-semi": ParamTriple.split_semi,
    "quarter": ParamTriple.quarter,
}


def family(name: str, *args: float) -> ParamTriple:
    """Look up a named parameter family.

    Accepts ``hamilton``, ``split``, ``semi``, ``split-semi``, ``quarter``
    and ``2param`` (the last takes the two extra parameters lam, mu).
    """
    key = name.strip().lower().replace("_", "-")
    if key in ("2param", "two-param"):
        if len(args) != 2:
            raise ValueError("2param family needs exactly two parameters")
        return ParamTriple.two_param(*args)
    try:
        ctor = _FAMILIES[key]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None
    if args:
        raise ValueError(f"family {name!r} takes no parameters")
    return ctor()


def _require_same_params(a: ParamTriple, b: ParamTriple) -> None:
    if a != b:
        raise ParamMismatch(f"parameter triples differ: {a.as_tuple()} vs {b.as_tuple()}")


@dataclass(frozen=True)
class GQuat:
    """A generalized quaternion a0 + a1*e1 + a2*e2 + a3*e3 over a fixed triple.

    Immutable.  Arithmetic operators implement the algebra product; scalar
    multiplication works with plain numbers on either side.
    """

    a0: float
    a1: float
    a2: float
    a3: float
    params: ParamTriple

    def __post_init__(self):
        for name in ("a0", "a1", "a2", "a3"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"component {name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))

    # --- constructors ------------------------------------------------------

    @classmethod
    def from_components(cls, comps: Sequence[float], params: ParamTriple) -> "GQuat":
        a0, a1, a2, a3 = comps
        return cls(a0, a1, a2, a3, params)

    @classmethod
    def scalar(cls, c: float, params: ParamTriple) -> "GQuat":
        return cls(c, 0.0, 0.0, 0.0, params)

    @classmethod
    def one(cls, params: ParamTriple) -> "GQuat":
        return cls(1.0, 0.0, 0.0, 0.0, params)

    @classmethod
    def basis(cls, i: int, params: ParamTriple) -> "GQuat":
        """Basis element e_i for i in 0..3 (e_0 is the unit scalar)."""
        if i not in (0, 1, 2, 3):
            raise ValueError(f"basis index must be 0..3, got {i}")
        comps = [0.0, 0.0, 0.0, 0.0]
        comps[i] = 1.0
        return cls(*comps, params)

    # --- views -------------------------------------------------------------

    @property
    def components(self) -> tuple[float, float, float, float]:
        return (self.a0, self.a1, self.a2, self.a3)

    @property
    def scalar_part(self) -> float:
        return self.a0

    @property
    def vector_part(self) -> "GVec3":
        return GVec3(self.a1, self.a2, self.a3, self.params)

    @property
    def is_pure(self) -> bool:
        return self.a0 == 0.0

    # --- ring structure ----------------------------------------------------

    def __add__(self, other: "GQuat") -> "GQuat":
        if not isinstance(other, GQuat):
            return NotImplemented
        _require_same_params(self.params, other.params)
        return GQuat(self.a0 + other.a0, self.a1 + other.a1,
                     self.a2 + other.a2, self.a3 + other.a3, self.params)

    def __sub__(self, other: "GQuat") -> "GQuat":
        if not isinstance(other, GQuat):
            return NotImplemented
        _require_same_params(self.params, other.params)
        return GQuat(self.a0 - other.a0, self.a1 - other.a1,
                     self.a2 - other.a2, self.a3 - other.a3, self.params)

    def __neg__(self) -> "GQuat":
        return GQuat(-self.a0, -self.a1, -self.a2, -self.a3, self.params)

    def __mul__(self, other):
        if isinstance(other, GQuat):
            _require_same_params(self.params, other.params)
            pr = self.params
            l1, l2, l3 = pr.as_tuple()
            a0, a1, a2, a3 = self.components
            b0, b1, b2, b3 = other.components
            # Scalar term grouped as weight*(ai*bi) so that swapping the
            # operands reproduces bit-identical terms; the scalar part of a
            # commutator of pure elements then cancels exactly.
            return GQuat(
                a0 * b0 - pr.l12 * (a1 * b1) - pr.l13 * (a2 * b2) - pr.l23 * (a3 * b3),
                a0 * b1 + b0 * a1 + l3 * (a2 * b3 - a3 * b2),
                a0 * b2 + b0 * a2 + l2 * (a3 * b1 - a1 * b3),
                a0 * b3 + a3 * b0 + l1 * (a1 * b2 - a2 * b1),
                self.params,
            )
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        # Only scalars reach here; quaternion*quaternion binds via __mul__.
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: float) -> "GQuat":
        return GQuat(c * self.a0, c * self.a1, c * self.a2, c * self.a3, self.params)

    # --- involutions and metric --------------------------------------------

    def conj(self) -> "GQuat":
        """Conjugate: keep the scalar part, negate the vector part."""
        return GQuat(self.a0, -self.a1, -self.a2, -self.a3, self.params)

    def norm(self) -> float:
        """The (possibly negative) norm a0^2 + l12*a1^2 + l13*a2^2 + l23*a3^2.

        Equals the scalar part of ``p * p.conj()``; multiplicative over the
        product.  Not a Euclidean length unless all parameters are positive.
        """
        p = self.params
        return (self.a0 * self.a0 + p.l12 * self.a1 * self.a1
                + p.l13 * self.a2 * self.a2 + p.l23 * self.a3 * self.a3)

    def zero_norm_eps(self) -> float:
        """Scale-aware absolute threshold below which the norm counts as zero.

        The form is indefinite, so cancellation can leave a tiny residue on a
        genuinely null quaternion; the threshold grows with the squared
        component magnitudes and the largest parameter product.
        """
        p = self.params
        mag2 = (self.a0 * self.a0 + self.a1 * self.a1
                + self.a2 * self.a2 + self.a3 * self.a3)
        wmax = max(1.0, abs(p.l12), abs(p.l13), abs(p.l23))
        return _ZERO_NORM_REL * (1.0 + mag2 * wmax)

    def is_null(self) -> bool:
        return abs(self.norm()) <= self.zero_norm_eps()

    def _nonnull_norm(self) -> float:
        """The norm; raises ZeroNorm when it is zero within ``zero_norm_eps``."""
        n = self.norm()
        if abs(n) <= self.zero_norm_eps():
            raise ZeroNorm(f"quaternion {self.components} has norm {n}, not invertible")
        return n

    def inverse(self) -> "GQuat":
        """Multiplicative inverse conj(p)/norm(p); raises ZeroNorm on null input."""
        n = self._nonnull_norm()
        return self.conj().scale(1.0 / n)

    def dot(self, other: "GQuat") -> float:
        """Scalar product a0*b0 + l12*a1*b1 + l13*a2*b2 + l23*a3*b3.

        Coincides with the scalar part of ``p * q.conj()`` and reduces to the
        norm when both arguments agree.
        """
        _require_same_params(self.params, other.params)
        p = self.params
        return (self.a0 * other.a0 + p.l12 * self.a1 * other.a1
                + p.l13 * self.a2 * other.a2 + p.l23 * self.a3 * other.a3)

    def __repr__(self) -> str:
        return (f"GQuat({self.a0:g}, {self.a1:g}, {self.a2:g}, {self.a3:g}; "
                f"params={self.params.as_tuple()})")


@dataclass(frozen=True)
class GVec3:
    """A pure generalized quaternion (zero scalar part), i.e. a tangent vector."""

    a1: float
    a2: float
    a3: float
    params: ParamTriple

    def __post_init__(self):
        for name in ("a1", "a2", "a3"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"component {name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))

    @classmethod
    def from_components(cls, comps: Sequence[float], params: ParamTriple) -> "GVec3":
        a1, a2, a3 = comps
        return cls(a1, a2, a3, params)

    @classmethod
    def basis(cls, i: int, params: ParamTriple) -> "GVec3":
        """Basis vector e_i for i in 1..3."""
        if i not in (1, 2, 3):
            raise ValueError(f"vector basis index must be 1..3, got {i}")
        comps = [0.0, 0.0, 0.0]
        comps[i - 1] = 1.0
        return cls(*comps, params)

    @property
    def components(self) -> tuple[float, float, float]:
        return (self.a1, self.a2, self.a3)

    def as_quat(self) -> GQuat:
        """Embed into the full algebra with zero scalar part (lossless)."""
        return GQuat(0.0, self.a1, self.a2, self.a3, self.params)

    def __add__(self, other: "GVec3") -> "GVec3":
        if not isinstance(other, GVec3):
            return NotImplemented
        _require_same_params(self.params, other.params)
        return GVec3(self.a1 + other.a1, self.a2 + other.a2, self.a3 + other.a3, self.params)

    def __sub__(self, other: "GVec3") -> "GVec3":
        if not isinstance(other, GVec3):
            return NotImplemented
        _require_same_params(self.params, other.params)
        return GVec3(self.a1 - other.a1, self.a2 - other.a2, self.a3 - other.a3, self.params)

    def __neg__(self) -> "GVec3":
        return GVec3(-self.a1, -self.a2, -self.a3, self.params)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c: float) -> "GVec3":
        return GVec3(c * self.a1, c * self.a2, c * self.a3, self.params)

    def __repr__(self) -> str:
        return (f"GVec3({self.a1:g}, {self.a2:g}, {self.a3:g}; "
                f"params={self.params.as_tuple()})")


# --- bilinear machinery on pure quaternions --------------------------------


def bilinear_f(u: GVec3, v: GVec3) -> float:
    """Symmetric bilinear form l12*u1*v1 + l13*u2*v2 + l23*u3*v3.

    This is the metric the algebra induces on pure quaternions; ``f(u, u)``
    is the norm of the pure quaternion ``u`` and may be negative or zero.
    """
    _require_same_params(u.params, v.params)
    p = u.params
    return p.l12 * u.a1 * v.a1 + p.l13 * u.a2 * v.a2 + p.l23 * u.a3 * v.a3


def wedge(u: GVec3, v: GVec3) -> GVec3:
    """Lambda-weighted cross product of two pure quaternions.

    Component weights are (lambda3, lambda2, lambda1); antisymmetric, and
    equal to the antisymmetric part of the algebra product of ``u`` and ``v``.
    """
    _require_same_params(u.params, v.params)
    l1, l2, l3 = u.params.as_tuple()
    return GVec3(
        l3 * (u.a2 * v.a3 - u.a3 * v.a2),
        l2 * (u.a3 * v.a1 - u.a1 * v.a3),
        l1 * (u.a1 * v.a2 - u.a2 * v.a1),
        u.params,
    )


def wedge_triple_left(p: GVec3, q: GVec3, r: GVec3) -> GVec3:
    """Evaluate p ^ (q ^ r), which expands to f(p,r)*q - f(p,q)*r."""
    return wedge(p, wedge(q, r))


def wedge_triple_right(p: GVec3, q: GVec3, r: GVec3) -> GVec3:
    """Evaluate (p ^ q) ^ r, which expands to f(p,r)*q - f(q,r)*p."""
    return wedge(wedge(p, q), r)
