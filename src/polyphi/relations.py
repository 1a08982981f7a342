"""The complete relation set over the subgee basis and its GF(2) nullspace.

Top-degree relations are indexed by nonempty subgees I: the sum of all
monomials for subgees disjoint from I vanishes.  Subgees are closed under
subsets, so subgees I and K share 2^|I & K| subsets, odd exactly when they
are disjoint: over GF(2) the disjointness matrix on the N subgees is Z.Z^T,
where Z[I][K] = [K is a subset of I] is unitriangular in (size, lex) order.
So the relations (all rows but the empty set's) have rank N - 1, and their
nullspace, spanned by phi(J) = #{subgees containing J} mod 2, pins down the
duality functional: solving for it certifies the formula independently.
"""

from __future__ import annotations

from functools import reduce
from math import comb
from operator import and_

from .combinatorics import GeeParams, IndexSet, _Value, block_counts
from .duality import pairing_table
from .errors import SizeLimitError
from .lengths import enumerate_subgees

__all__ = [
    "RelationMatrix",
    "DualityReport",
    "subgee_count",
    "build_matrix",
    "nullspace_functional",
    "annihilation_failures",
    "cross_validate",
]

# Keep Gaussian elimination and matrix memory at desk scale by default.
DEFAULT_MAX_BASIS = 20000


class RelationMatrix(_Value):
    """Dense GF(2) relation matrix with one bitmask per row.

    Columns are all subgees in (size, lex) order; rows are the nonempty
    subgees in the same order.  Bit j of bits[i] is 1 iff columns[j] is
    disjoint from rows[i].
    """

    __slots__ = ("columns", "rows", "bits")

    def __init__(
        self, columns: tuple[IndexSet, ...], rows: tuple[IndexSet, ...], bits: tuple[int, ...]
    ) -> None:
        self._set(columns, rows, bits)
        if len(self.bits) != len(self.rows):
            raise ValueError("one bitmask per row required")
        if any(b < 0 or b.bit_length() > len(self.columns) for b in self.bits):
            raise ValueError("row bits exceed the column count")


class DualityReport(_Value):
    """Outcome of cross-validating the formula against the nullspace oracle."""

    __slots__ = ("gee", "basis_size", "rank", "nullspace_dim", "oracle", "formula", "agree")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(
        self, gee: GeeParams, basis_size: int, rank: int, nullspace_dim: int,
        oracle: dict[IndexSet, int] | None, formula: dict[IndexSet, int], agree: bool,
    ) -> None:
        self._set(gee, basis_size, rank, nullspace_dim, oracle, formula, agree)


def subgee_count(gee: GeeParams) -> int:
    """Exact number of subgees, counted without listing them.

    A DP over the blocks, last block first: counts[s] is the number of ways
    to choose s elements from the last j blocks with every suffix of length
    i holding at most i, and a block of a elements adds t of them in
    comb(a, t) ways.  That takes O(k^2) binomials and O(k^3) products,
    where the subgee profiles can be exponentially many.
    """
    counts = [1]
    for j, a in enumerate(reversed(gee.a), start=1):
        ways = [comb(a, t) for t in range(min(a, j) + 1)]
        step = [0] * (j + 1)
        for s, c in enumerate(counts):
            for t, w in enumerate(ways[: j + 1 - s]):  # the suffix holds s + t <= j
                step[s + t] += c * w
        counts = step
    return sum(counts)


def build_matrix(gee: GeeParams, *, max_basis: int = DEFAULT_MAX_BASIS) -> RelationMatrix:
    """Assemble the full relation matrix.

    The empty gee gives one column (the empty set) and no rows.  Raises
    SizeLimitError when the subgee count exceeds max_basis.
    """
    count = subgee_count(gee)
    if count > max_basis:
        raise SizeLimitError(f"basis size {count} exceeds max_basis={max_basis}")
    columns = tuple(enumerate_subgees(gee))
    # avoiding[e - 1]: the columns that do not contain element e.
    full = (1 << len(columns)) - 1
    avoiding = [full] * gee.span
    for j, column in enumerate(columns):
        for e in column:
            avoiding[e - 1] ^= 1 << j
    rows = columns[1:]
    bits = tuple(reduce(and_, (avoiding[e - 1] for e in row), full) for row in rows)
    return RelationMatrix(columns, rows, bits)


def nullspace_functional(
    matrix: RelationMatrix,
) -> tuple[int, dict[IndexSet, int] | None]:
    """Nullspace dimension of the relation system, and its solution if unique.

    Unknowns are the functional's values on the columns; each row demands
    that the XOR of the values at its set bits is 0.  Returns (dimension,
    values) with values present exactly when the dimension is 1, in which
    case it is the unique nonzero solution.
    """
    ncols = len(matrix.columns)
    work = list(matrix.bits)
    pivot_cols: list[int] = []
    rank = 0
    for col in range(ncols):
        sel = None
        for r in range(rank, len(work)):
            if (work[r] >> col) & 1:
                sel = r
                break
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        for r in range(len(work)):
            if r != rank and (work[r] >> col) & 1:
                work[r] ^= work[rank]
        pivot_cols.append(col)
        rank += 1
    dim = ncols - rank
    if dim != 1:
        return dim, None
    pivot_set = set(pivot_cols)
    free_col = next(c for c in range(ncols) if c not in pivot_set)
    values = [0] * ncols
    values[free_col] = 1
    for r, col in enumerate(pivot_cols):
        values[col] = (work[r] >> free_col) & 1
    return 1, {matrix.columns[j]: values[j] for j in range(ncols)}


def _formula(gee: GeeParams, columns: tuple[IndexSet, ...]) -> list[int]:
    """The formula's value at each column, read from one `pairing_table`.

    Every column is a subgee, so its block profile is a key of the table.
    """
    table = pairing_table(gee)
    return [table[block_counts(c, gee)] for c in columns]


def annihilation_failures(
    gee: GeeParams, *, max_basis: int = DEFAULT_MAX_BASIS
) -> list[IndexSet]:
    """Nonempty subgees whose relation the formula fails to annihilate.

    For each nonempty subgee I, XORs the formula's value over all subgees
    disjoint from I; a nonzero XOR lands I in the returned list.  An empty
    list is the full verification that the formula kills every relation.
    """
    matrix = build_matrix(gee, max_basis=max_basis)
    values = sum(v << j for j, v in enumerate(_formula(gee, matrix.columns)))
    return [
        row
        for row, bits in zip(matrix.rows, matrix.bits)
        if (bits & values).bit_count() & 1
    ]


def cross_validate(gee: GeeParams, *, max_basis: int = DEFAULT_MAX_BASIS) -> DualityReport:
    """Solve the relation system and compare the oracle with the formula.

    The report records basis size, rank, nullspace dimension, both value
    maps, and whether they agree pointwise.  A nullspace dimension other
    than 1 would falsify completeness of the relation set and is reported,
    never raised.
    """
    matrix = build_matrix(gee, max_basis=max_basis)
    dim, oracle = nullspace_functional(matrix)
    formula = dict(zip(matrix.columns, _formula(gee, matrix.columns)))
    agree = dim == 1 and oracle == formula
    return DualityReport(
        gee=gee,
        basis_size=len(matrix.columns),
        rank=len(matrix.columns) - dim,
        nullspace_dim=dim,
        oracle=oracle,
        formula=formula,
        agree=agree,
    )
