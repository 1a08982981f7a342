"""Mod-2 duality data of planar polygon moduli spaces.

Computes genetic codes of length vectors in exact arithmetic, evaluates the
duality functional on top-degree monomials for monogenic codes, and
certifies the evaluation against the complete relation set with an
independent GF(2) nullspace solve.
"""

from .combinatorics import (
    GeeParams,
    IndexSet,
    Profile,
    binom_parity,
    block_counts,
    compositions,
    is_subgee_profile,
    set_leq,
    subgee_profiles,
)
from .duality import (
    TopMonomial,
    admissible_summands,
    closed_form_k3,
    count_disjoint_subgees,
    pairing,
    pairing_by_profile,
    pairing_set,
)
from .errors import (
    EmptySpaceError,
    InfeasibleProfileError,
    InvalidLengthError,
    InvalidRelationIndexError,
    NoRelationsError,
    NotGenericError,
    NotMonogenicError,
    OutOfRangeError,
    PolyphiError,
    RealizationNotFoundError,
    SizeLimitError,
    TooFewSidesError,
)
from .lengths import (
    GeneticCode,
    LengthVector,
    enumerate_subgees,
    genetic_code,
    is_generic,
    is_short,
    monogenic_gee,
    normalize,
    realize_gee,
)
from .relations import (
    DualityReport,
    RelationMatrix,
    annihilation_failures,
    build_matrix,
    cross_validate,
    nullspace_functional,
    relation_row,
    subgee_count,
)

__version__ = "0.1.0"

__all__ = [
    "GeeParams",
    "IndexSet",
    "Profile",
    "binom_parity",
    "block_counts",
    "compositions",
    "is_subgee_profile",
    "set_leq",
    "subgee_profiles",
    "TopMonomial",
    "admissible_summands",
    "closed_form_k3",
    "count_disjoint_subgees",
    "pairing",
    "pairing_by_profile",
    "pairing_set",
    "GeneticCode",
    "LengthVector",
    "enumerate_subgees",
    "genetic_code",
    "is_generic",
    "is_short",
    "monogenic_gee",
    "normalize",
    "realize_gee",
    "DualityReport",
    "RelationMatrix",
    "annihilation_failures",
    "build_matrix",
    "cross_validate",
    "nullspace_functional",
    "relation_row",
    "subgee_count",
    "PolyphiError",
    "InvalidLengthError",
    "TooFewSidesError",
    "NotGenericError",
    "OutOfRangeError",
    "EmptySpaceError",
    "NotMonogenicError",
    "RealizationNotFoundError",
    "SizeLimitError",
    "InfeasibleProfileError",
    "InvalidRelationIndexError",
    "NoRelationsError",
    "__version__",
]
