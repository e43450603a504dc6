"""Three-parameter generalized quaternions.

One parameter triple (lambda1, lambda2, lambda3) selects an algebra; the
classical quaternions, split quaternions, semi-quaternions and their relatives
are all special cases.  The package covers the pointwise algebra, the 4x4
left/right matrix representations with their spectral data, polar and De
Moivre machinery with matrix powers and roots, and the Lie structure of the
unit-norm group.

Everything is immutable and pure; values from different parameter triples
never mix silently.
"""

from .core import (
    GQuat,
    GVec3,
    ParamTriple,
    bilinear_f,
    family,
    wedge,
    wedge_triple_left,
    wedge_triple_right,
)
from .errors import (
    AlgebraError,
    CongruenceViolation,
    DegenerateAxis,
    NoPeriod,
    NonElliptic,
    NonUnit,
    NotPositiveFamily,
    NotUnitVector,
    ParamMismatch,
    ZeroNorm,
)
from .matrices import (
    CharPoly,
    EigenPair,
    Mat3,
    Mat4,
    base_matrices,
    char_poly,
    det4,
    eigenvalues,
    eigenvectors,
    left_matrix,
    right_matrix,
)
from .polar import (
    PolarForm,
    RootSet,
    demoivre_pow,
    euler_exp,
    euler_exp_matrix,
    matrix_pow,
    matrix_roots,
    polar_matrix,
    power_period,
    scaled_power_relation,
    to_polar,
)
from .lie import (
    ad_matrix,
    adjoint_closed_form,
    adjoint_group,
    adjoint_rodrigues,
    bracket,
    is_compact,
    killing_form,
    killing_matrix,
    metric_eps,
    skew_of_axis,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "CharPoly",
    "CongruenceViolation",
    "DegenerateAxis",
    "EigenPair",
    "GQuat",
    "GVec3",
    "Mat3",
    "Mat4",
    "NoPeriod",
    "NonElliptic",
    "NonUnit",
    "NotPositiveFamily",
    "NotUnitVector",
    "ParamMismatch",
    "ParamTriple",
    "PolarForm",
    "RootSet",
    "ZeroNorm",
    "ad_matrix",
    "adjoint_closed_form",
    "adjoint_group",
    "adjoint_rodrigues",
    "base_matrices",
    "bilinear_f",
    "bracket",
    "char_poly",
    "demoivre_pow",
    "det4",
    "eigenvalues",
    "eigenvectors",
    "euler_exp",
    "euler_exp_matrix",
    "family",
    "is_compact",
    "killing_form",
    "killing_matrix",
    "left_matrix",
    "matrix_pow",
    "matrix_roots",
    "metric_eps",
    "polar_matrix",
    "power_period",
    "right_matrix",
    "scaled_power_relation",
    "skew_of_axis",
    "to_polar",
    "wedge",
    "wedge_triple_left",
    "wedge_triple_right",
]
