"""Brute-force reference paths used to cross-check every closed form.

Each function here recomputes something the main modules produce from a
formula, but by a deliberately different route: term-by-term table lookup
instead of the expanded product, repeated multiplication instead of the angle
map, literal conjugation of basis vectors instead of polynomial adjoint
entries, and the trace definition of the Killing form instead of its
multiple of the bilinear form.  They are slow and that is fine; their only
job is to catch transcription errors.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import GQuat, GVec3, ParamTriple, _require_same_params
from .lie import ad_matrix
from .matrices import Mat3

__all__ = [
    "BasisExpansion",
    "multiplication_table",
    "mul_by_table",
    "pow_by_repetition",
    "conjugation_columns",
    "killing_by_trace",
]

# Scalar-part residue allowed when conjugation should land back in the pure part.
_PURE_RESIDUE_TOL = 1e-10


def multiplication_table(params: ParamTriple) -> dict[tuple[int, int], tuple[float, int]]:
    """The literal 4x4 basis product table: (i, j) -> (coefficient, k).

    Entry meaning: e_i * e_j = coefficient * e_k, with index 0 standing for
    the unit scalar.  Every product of two basis words reduces to a single
    weighted basis word, so the table is closed.
    """
    l1, l2, l3 = params.as_tuple()
    return {
        (0, 0): (1.0, 0), (0, 1): (1.0, 1), (0, 2): (1.0, 2), (0, 3): (1.0, 3),
        (1, 0): (1.0, 1), (1, 1): (-l1 * l2, 0), (1, 2): (l1, 3), (1, 3): (-l2, 2),
        (2, 0): (1.0, 2), (2, 1): (-l1, 3), (2, 2): (-l1 * l3, 0), (2, 3): (l3, 1),
        (3, 0): (1.0, 3), (3, 1): (l2, 2), (3, 2): (-l3, 1), (3, 3): (-l2 * l3, 0),
    }


@dataclass
class BasisExpansion:
    """A quaternion written as a coefficient map over the basis words 1, e1, e2, e3."""

    params: ParamTriple
    coeffs: dict[int, float] = field(default_factory=lambda: {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0})

    @classmethod
    def from_quat(cls, p: GQuat) -> "BasisExpansion":
        return cls(p.params, {0: p.a0, 1: p.a1, 2: p.a2, 3: p.a3})

    def to_quat(self) -> GQuat:
        return GQuat(self.coeffs[0], self.coeffs[1], self.coeffs[2], self.coeffs[3], self.params)

    def add_term(self, k: int, c: float) -> None:
        self.coeffs[k] += c


def mul_by_table(p: GQuat, q: GQuat) -> GQuat:
    """Product by expanding all 16 basis term pairs through the table.

    Never uses the closed-form component expansion; this is the independent
    route the expansion is checked against.
    """
    _require_same_params(p.params, q.params)
    table = multiplication_table(p.params)
    pe = BasisExpansion.from_quat(p)
    qe = BasisExpansion.from_quat(q)
    out = BasisExpansion(p.params)
    for i, ci in pe.coeffs.items():
        for j, cj in qe.coeffs.items():
            w, k = table[(i, j)]
            out.add_term(k, ci * cj * w)
    return out.to_quat()


def pow_by_repetition(p: GQuat, n: int) -> GQuat:
    """n-fold left-associated product; inverse chain for negative n.

    Raises ZeroNorm for negative exponents of a null quaternion.
    """
    if not isinstance(n, numbers.Integral):
        raise TypeError(f"exponent must be an integer, got {type(n).__name__}")
    base = p if n >= 0 else p.inverse()
    acc = GQuat.one(p.params)
    for _ in range(abs(n)):
        acc = acc * base
    return acc


def conjugation_columns(p: GQuat) -> Mat3:
    """Adjoint matrix built by literally conjugating each basis vector.

    Column j is the vector part of p * e_j * p^(-1); the scalar parts must
    come out (numerically) zero, which is verified here as an internal sanity
    check.  Raises ZeroNorm on null p.
    """
    pinv = p.inverse()
    cols = []
    for j in (1, 2, 3):
        r = p * GQuat.basis(j, p.params) * pinv
        scale = 1.0 + max(abs(r.a1), abs(r.a2), abs(r.a3))
        if abs(r.a0) > _PURE_RESIDUE_TOL * scale:
            raise ArithmeticError(
                f"conjugated basis vector has scalar residue {r.a0}; "
                "conjugation should preserve the pure part")
        cols.append((r.a1, r.a2, r.a3))
    return Mat3(list(zip(*cols)), p.params)


def killing_by_trace(x: GVec3, y: GVec3) -> float:
    """Killing form by its definition, the trace of ad_matrix(x) @ ad_matrix(y)."""
    _require_same_params(x.params, y.params)
    ax = np.asarray(ad_matrix(x), dtype=float)
    ay = np.asarray(ad_matrix(y), dtype=float)
    return float(np.trace(ax @ ay))
