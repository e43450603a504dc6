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

import math
import operator
from collections.abc import Sequence

from .errors import NonFinite, ParamMismatch, ZeroNorm, _show

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

def _check_finite(names: tuple[str, ...], values: tuple, prefix: str) -> None:
    """Raise NonFinite on NaN or +-inf among ``values``, the new values of the fields ``names``."""
    for name, v in zip(names, values):
        try:
            if math.isfinite(v):
                continue
        except OverflowError:  # an int past the float range
            pass
        raise NonFinite(f"{prefix}{name} must be finite, got {_show(v)}")


def _vanishes(value: float, scale: float, what: str) -> bool:
    """The null test: ``value``, a signed sum, against ``scale``, the same sum of |terms|.

    Relative, so scaling the input by a power of two does not change the answer while the
    terms and ``1e-12 * scale`` are normal doubles; NonFinite when ``scale`` overflowed.
    """
    if not math.isfinite(scale):
        raise NonFinite(f"{what} overflows")
    return abs(value) <= 1e-12 * scale


def _finite(x, isfinite=math.isfinite):
    """Return ``x``, a number a public function returns; raise NonFinite if it is inf or NaN.

    A complex ``x`` takes ``isfinite=cmath.isfinite``, which costs twice ``math.isfinite``.
    """
    if not isfinite(x):
        raise NonFinite(f"result {x} is not finite")
    return x


class _Record:
    """An immutable record: equality, hash, repr and match patterns over ``__match_args__``.

    A subclass names its fields, in constructor order, in ``__match_args__``, each an
    attribute of the instance; ``_fields`` is their tuple.  Records are equal when they
    are of the same class and their field tuples are equal; the hash is that of the
    field tuple.  Assignment and deletion raise ``dataclasses.FrozenInstanceError``,
    imported only then: the dataclasses module costs a process more than all of gq3.
    """

    @property
    def _fields(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__match_args__))

    def _init_fields(self, *values) -> None:
        self.__dict__.update(zip(self.__match_args__, values))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__match_args__, self._fields))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


# --- kernels: each closed form once, as plain arithmetic over lam = (l1, l2, l3) and
# component tuples, with no validation or math calls; tests/test_proofs.py runs them on sympy.


def _wedge(lam, u, v):
    l1, l2, l3 = lam
    (u1, u2, u3), (v1, v2, v3) = u, v
    return (l3 * (u2 * v3 - u3 * v2), l2 * (u3 * v1 - u1 * v3), l1 * (u1 * v2 - u2 * v1))


def _product(lam, a, b):
    l1, l2, l3 = lam
    (a0, a1, a2, a3), (b0, b1, b2, b3) = a, b
    w1, w2, w3 = _wedge(lam, a[1:], b[1:])
    # The scalar term is weight*(ai*bi): swapped operands give the same terms bit
    # for bit, so the scalar part of a commutator of pure elements cancels exactly.
    return (a0 * b0 - l1 * l2 * (a1 * b1) - l1 * l3 * (a2 * b2) - l2 * l3 * (a3 * b3),
            a0 * b1 + b0 * a1 + w1, a0 * b2 + b0 * a2 + w2, a0 * b3 + b0 * a3 + w3)


def _dot(lam, a, b):
    l1, l2, l3 = lam
    return a[0] * b[0] + l1 * l2 * a[1] * b[1] + l1 * l3 * a[2] * b[2] + l2 * l3 * a[3] * b[3]


def _bilinear(lam, u, v):
    # -0.0 * 0.0 is -0.0, the identity of +: the sum is the three terms', bit for bit.
    return _dot(lam, (-0.0, *u), (0.0, *v))


def _conj(a):
    return (a[0], -a[1], -a[2], -a[3])


class ParamTriple(_Record):
    """The (lambda1, lambda2, lambda3) triple selecting one algebra family.

    Zero and negative entries are legal; they produce the degenerate and
    split families.  Triples compare by exact float equality: two values are
    operable together only if their triples match exactly.
    """

    __match_args__ = ("lambda1", "lambda2", "lambda3")

    def __init__(self, lambda1: float, lambda2: float, lambda3: float):
        lam = lambda1, lambda2, lambda3
        _check_finite(self.__match_args__, lam, "")
        l1, l2, l3 = lam = tuple(map(float, lam))
        # The kernels take _lam and multiply l1 * l2 inline, and the null test _abs_lam; the
        # pairwise products l12, l13, l23 serve metric_eps, killing_matrix and outside callers.
        self.__dict__.update(lambda1=l1, lambda2=l2, lambda3=l3, _lam=lam,
                             _abs_lam=tuple(map(abs, lam)),
                             l12=l1 * l2, l13=l1 * l3, l23=l2 * l3)


# Each named family's triple, written once; family() builds the ParamTriple.
_FAMILIES = {
    "hamilton": (1.0, 1.0, 1.0),
    "split": (1.0, 1.0, -1.0),
    "semi": (1.0, 1.0, 0.0),
    "split-semi": (1.0, -1.0, 0.0),
    "quarter": (1.0, 0.0, 0.0),
}


def family(name: str, *args: float) -> ParamTriple:
    """Look up a named parameter family.

    Accepts ``hamilton``, ``split``, ``semi``, ``split-semi``, ``quarter``
    and ``2param``, whose two extra parameters lam, mu give (1, lam, mu).
    """
    key = name.strip()
    if key == "2param":
        if len(args) != 2:
            raise ValueError("2param family needs exactly two parameters")
        return ParamTriple(1.0, *args)
    try:
        lam = _FAMILIES[key]
    except KeyError:
        raise ValueError(f"unknown family {_show(name)}") from None
    if args:
        raise ValueError(f"family {_show(name)} takes no parameters")
    return ParamTriple(*lam)


def _require_same_params(a: ParamTriple, b: ParamTriple) -> None:
    # The identity test skips the field-by-field comparison, e.g. for
    # p.dot(p) in norm.
    if a is not b and a != b:
        raise ParamMismatch(f"parameter triples differ: {a._lam} vs {b._lam}")


class _Componentwise(_Record):
    """The vector-space structure GQuat and GVec3 share over one triple.

    A value stores ``params`` and ``components``, the float tuple the kernels read; a subclass
    names its coordinates, read-only views of its entries, in ``_FIELDS`` (a GVec3 is a GQuat
    with a0 = 0: the last three of a0..a3).  Sums, differences, negation and scalar multiples
    act component by component.
    """

    def __init_subclass__(cls, **kwargs):
        cls.__match_args__ = (*cls._FIELDS, "params")
        super().__init_subclass__(**kwargs)
        for i, name in enumerate(cls._FIELDS):
            setattr(cls, name, property(lambda self, i=i: self.components[i]))

    @property
    def _fields(self) -> tuple:
        return (*self.components, self.params)

    def _store(self, *comps) -> None:
        # The public constructors' check and copy; each subclass binds it as __post_init__ in
        # its own namespace, where bench/spans.py counts core.gquat_new by class.
        _check_finite(self._FIELDS, comps, "component ")
        self.__dict__["components"] = tuple(map(float, comps))

    @classmethod
    def _of(cls, comps, params: ParamTriple):
        # Every operation's builder, from floats a kernel or the CLI made: no conversion, no copy
        # of a tuple, one isfinite of their sum, and _check_finite only to name the field.
        comps = tuple(comps)
        if not math.isfinite(sum(comps)):
            _check_finite(cls._FIELDS, comps, "component ")
        v = object.__new__(cls)
        d = v.__dict__
        d["params"], d["components"] = params, comps
        return v

    @classmethod
    def basis(cls, i: int, params: ParamTriple):
        """Basis element e_i for i over the indices of ``_FIELDS`` (e_0 is the unit scalar)."""
        first = 4 - len(cls._FIELDS)
        if i not in range(first, 4):
            kind = "vector basis" if first else "basis"
            raise ValueError(f"{kind} index must be {first}..3, got {_show(i)}")
        return cls(*(float(j == i) for j in range(first, 4)), params)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        _require_same_params(self.params, other.params)
        return self._of(map(operator.add, self.components, other.components), self.params)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        _require_same_params(self.params, other.params)
        return self._of(map(operator.sub, self.components, other.components), self.params)

    def __neg__(self):
        return self._of(map(operator.neg, self.components), self.params)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c: float):
        try:
            return type(self)(*[c * x for x in self.components], self.params)
        except OverflowError:  # c is an int past the float range
            raise NonFinite(f"scale factor {_show(c)} must be finite") from None

    def __repr__(self) -> str:
        values = ", ".join(format(x, "g") for x in self.components)
        return f"{type(self).__name__}({values}; params={self.params._lam})"


class GQuat(_Componentwise):
    """A generalized quaternion a0 + a1*e1 + a2*e2 + a3*e3 over a fixed triple.

    Immutable.  Arithmetic operators implement the algebra product; scalar
    multiplication works with plain numbers on either side.
    """

    _FIELDS = ("a0", "a1", "a2", "a3")

    def __init__(self, a0: float, a1: float, a2: float, a3: float, params: ParamTriple):
        self.__dict__["params"] = params
        self.__post_init__(a0, a1, a2, a3)

    __post_init__ = _Componentwise._store

    @classmethod
    def from_components(cls, comps: Sequence[float], params: ParamTriple) -> "GQuat":
        comps = tuple(comps)
        if len(comps) != 4:
            raise ValueError(f"GQuat takes 4 components, got {len(comps)}")
        return cls(*comps, params)

    @classmethod
    def scalar(cls, c: float, params: ParamTriple) -> "GQuat":
        return cls(c, 0.0, 0.0, 0.0, params)

    @property
    def vector_part(self) -> "GVec3":
        return GVec3(*self.components[1:], self.params)

    @property
    def is_pure(self) -> bool:
        return self.a0 == 0.0

    def __mul__(self, other):
        if not isinstance(other, GQuat):
            return _Componentwise.__mul__(self, other)
        _require_same_params(self.params, other.params)
        return GQuat._of(_product(self.params._lam, self.components, other.components), self.params)

    # --- involutions and metric --------------------------------------------

    def conj(self) -> "GQuat":
        """Conjugate: keep the scalar part, negate the vector part."""
        return GQuat._of(_conj(self.components), self.params)

    def norm(self) -> float:
        """The (possibly negative) norm a0^2 + l12*a1^2 + l13*a2^2 + l23*a3^2.

        Equals the scalar part of ``p * p.conj()``; multiplicative over the
        product.  Not a Euclidean length unless all parameters are positive.
        """
        return self.dot(self)

    def _null_norm(self) -> tuple[float, bool]:
        """The norm, and whether it vanishes beside the sum of its terms' sizes (``_vanishes``)."""
        lam, a = self.params._lam, self.components
        n = _dot(lam, a, a)
        return n, _vanishes(n, _dot(self.params._abs_lam, a, a), "norm")

    def _nonnull_norm(self) -> float:
        """The norm; raises ZeroNorm when it vanishes, NonFinite when its terms overflow."""
        n, null = self._null_norm()
        if null:
            raise ZeroNorm(f"quaternion {self.components} has norm {n}, not invertible")
        return n

    def inverse(self) -> "GQuat":
        """Multiplicative inverse conj(p)/norm(p); raises ZeroNorm on null input."""
        r = 1.0 / self._nonnull_norm()
        a0, a1, a2, a3 = _conj(self.components)
        return GQuat._of((r * a0, r * a1, r * a2, r * a3), self.params)

    def dot(self, other: "GQuat") -> float:
        """Scalar product a0*b0 + l12*a1*b1 + l13*a2*b2 + l23*a3*b3.

        Coincides with the scalar part of ``p * q.conj()`` and reduces to the
        norm when both arguments agree.  A GVec3 argument raises TypeError, overflow NonFinite.
        """
        if not isinstance(other, GQuat):
            raise TypeError(f"dot takes a GQuat, got {type(other).__name__}")
        _require_same_params(self.params, other.params)
        return _finite(_dot(self.params._lam, self.components, other.components))


class GVec3(_Componentwise):
    """A pure generalized quaternion (zero scalar part), i.e. a tangent vector."""

    _FIELDS = ("a1", "a2", "a3")

    def __init__(self, a1: float, a2: float, a3: float, params: ParamTriple):
        self.__dict__["params"] = params
        self.__post_init__(a1, a2, a3)

    __post_init__ = _Componentwise._store

    def as_quat(self) -> GQuat:
        """Embed into the full algebra with zero scalar part (lossless)."""
        return GQuat(0.0, *self.components, self.params)


# --- bilinear machinery on pure quaternions --------------------------------


def bilinear_f(u: GVec3 | GQuat, v: GVec3 | GQuat) -> float:
    """Symmetric bilinear form l12*u1*v1 + l13*u2*v2 + l23*u3*v3.

    This is the metric the algebra induces on pure quaternions; ``f(u, u)``
    is the norm of the pure quaternion ``u`` and may be negative or zero.
    A ``GQuat`` argument stands for its vector part, so ``f(p, p)`` is the
    axis discriminant D of ``p``.
    """
    return _finite(_bilinear_of(u, v))


def _bilinear_of(u, v) -> float:
    # bilinear_f before its finiteness check, for the gates that report an overflow themselves.
    _require_same_params(u.params, v.params)
    return _bilinear(u.params._lam, u.components[-3:], v.components[-3:])


def wedge(u: GVec3, v: GVec3) -> GVec3:
    """Lambda-weighted cross product of two pure quaternions.

    Component weights are (lambda3, lambda2, lambda1); antisymmetric, and
    equal to the antisymmetric part of the algebra product of ``u`` and ``v``.
    A GQuat argument raises TypeError rather than lose its scalar part.
    """
    if not (isinstance(u, GVec3) and isinstance(v, GVec3)):
        raise TypeError(f"wedge takes two GVec3, got {type(u).__name__} and {type(v).__name__}")
    _require_same_params(u.params, v.params)
    return GVec3._of(_wedge(u.params._lam, u.components, v.components), u.params)


def wedge_triple_left(p: GVec3, q: GVec3, r: GVec3) -> GVec3:
    """Evaluate p ^ (q ^ r), which expands to f(p,r)*q - f(p,q)*r."""
    return wedge(p, wedge(q, r))


def wedge_triple_right(p: GVec3, q: GVec3, r: GVec3) -> GVec3:
    """Evaluate (p ^ q) ^ r, which expands to f(p,r)*q - f(q,r)*p."""
    return wedge(wedge(p, q), r)
