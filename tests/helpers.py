"""Shared test utilities: family lists, random generators, tolerance helpers."""

from __future__ import annotations

import numpy as np

from gq3 import GQuat, GVec3, ParamTriple, family

# The parameter families every suite-wide property is exercised against: the named ones,
# a two-parameter one and (2, 3, 5), whose lambda1 != 1 no named family has.
FAMILIES = [
    family("hamilton"),
    family("split"),
    family("semi"),
    family("split-semi"),
    family("quarter"),
    ParamTriple(2.0, 3.0, 5.0),
    family("2param", 0.7, -1.3),
]

# Operands at the edges of double range, among them unit inputs that pass the unit gates,
# and integer options up to the longest a JSON reader takes (4,300 digits).
EDGE_QUATS = [[0.6, 0.8, 0.0, 0.0], [-0.6, 0.8, 0.0, 0.0], [1e150, 1e-160, 0.0, 0.0],
              [1e200, 0.0, 0.0, 0.0], [1e-7, 0.0, 0.0, 0.0], [5e-324, 0.0, 0.0, 0.0]]
EDGE_VECS = [[1.0, 0.0, 0.0], [1e200, 1e200, 0.0], [5e-324, 0.0, 1e-300]]
EDGE_SCALARS = [0.5, 1e308, 5e-324]
EDGE_INTS = [10**400, -10**400, 10**307, -10**307, 10**308, 10**4300 - 1, 1 - 10**4300]

# Families with a positive-definite form (needed for unit-elliptic sampling).
POSITIVE_FAMILIES = [
    family("hamilton"),
    ParamTriple(2.0, 3.0, 5.0),
    family("2param", 0.8, 2.2),
]


def random_quat(rng: np.random.Generator, params: ParamTriple, scale: float = 1.0) -> GQuat:
    return GQuat.from_components(scale * rng.standard_normal(4), params)


def random_vec(rng: np.random.Generator, params: ParamTriple, scale: float = 1.0) -> GVec3:
    return GVec3(*(scale * rng.standard_normal(3)), params)


def random_unit_elliptic(rng: np.random.Generator, params: ParamTriple) -> GQuat:
    """Unit-norm quaternion with positive axis discriminant.

    Cheap for positive families (normalize anything with a nonzero vector
    part); rejection-samples otherwise.  Degenerate families whose
    discriminant is never positive (quarter, split-semi) would loop forever;
    use :func:`random_unit_norm` for statements that only need norm one.
    """
    while True:
        p = random_quat(rng, params)
        d = (params.l12 * p.a1 ** 2 + params.l13 * p.a2 ** 2 + params.l23 * p.a3 ** 2)
        n = p.a0 ** 2 + d
        if d > 1e-6 and n > 1e-6:
            return p.scale(1.0 / np.sqrt(n))


def random_unit_norm(rng: np.random.Generator, params: ParamTriple) -> GQuat:
    """Norm-one quaternion; works in every family (norm may be indefinite)."""
    while True:
        p = random_quat(rng, params)
        n = p.norm()
        if n > 1e-3:
            return p.scale(1.0 / np.sqrt(n))


def random_unit_vector(rng: np.random.Generator, params: ParamTriple) -> GVec3:
    """Vector with f(v, v) = 1; requires a family where that is reachable."""
    while True:
        v = random_vec(rng, params)
        ff = params.l12 * v.a1 ** 2 + params.l13 * v.a2 ** 2 + params.l23 * v.a3 ** 2
        if ff > 1e-6:
            return v.scale(1.0 / np.sqrt(ff))


def rel_close(a: float, b: float, tol: float) -> bool:
    """|a - b| within tol of the larger of one and the operand magnitudes."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def quat_close(p: GQuat, q: GQuat, tol: float, scale: float | None = None) -> bool:
    if scale is None:
        scale = max(1.0, *(abs(c) for c in p.components), *(abs(c) for c in q.components))
    return all(abs(a - b) <= tol * scale for a, b in zip(p.components, q.components))


def vec_close(u: GVec3, v: GVec3, tol: float, scale: float | None = None) -> bool:
    if scale is None:
        scale = max(1.0, *(abs(c) for c in u.components), *(abs(c) for c in v.components))
    return all(abs(a - b) <= tol * scale for a, b in zip(u.components, v.components))


def mat_close(a, b, tol: float, scale: float | None = None) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if scale is None:
        scale = max(1.0, np.abs(a).max(), np.abs(b).max())
    return bool(np.abs(a - b).max() <= tol * scale)


def as_array(m) -> np.ndarray:
    return np.asarray(m, dtype=float)


def poly_at(coefficients, t: complex) -> complex:
    """The polynomial with ``coefficients``, low to high, at ``t`` by Horner's rule."""
    acc = 0j
    for c in reversed(coefficients):
        acc = acc * t + c
    return acc
