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

# Each module's __all__ is its public list; the package exports their union.
from . import core, errors, lie, matrices, polar
from .core import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .matrices import *  # noqa: F401,F403
from .polar import *  # noqa: F401,F403
from .lie import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*core.__all__, *errors.__all__, *matrices.__all__, *polar.__all__, *lie.__all__]
