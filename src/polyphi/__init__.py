"""Mod-2 duality data of planar polygon moduli spaces.

Computes genetic codes of length vectors in exact arithmetic, evaluates the
duality functional on top-degree monomials for monogenic codes, and
certifies the evaluation against the complete relation set with an
independent GF(2) nullspace solve.

The public names are those listed in each module's `__all__`.
"""

from . import combinatorics, duality, errors, lengths, relations
from .combinatorics import *
from .duality import *
from .errors import *
from .lengths import *
from .relations import *

__version__ = "0.1.0"

__all__ = [
    *combinatorics.__all__,
    *duality.__all__,
    *errors.__all__,
    *lengths.__all__,
    *relations.__all__,
    "__version__",
]
