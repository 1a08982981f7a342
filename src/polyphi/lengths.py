"""Exact classification of length vectors: genericity, short subsets, genetic codes.

All comparisons of subset sums are decided in exact integer arithmetic after
clearing denominators, so near-degenerate chambers are never misclassified.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, combinations
from math import gcd, lcm

from ._lp import least_total_carried, next_side_count
from .combinatorics import GeeParams, IndexSet, _Value, check_ints
from .errors import (
    EmptySpaceError,
    InvalidLengthError,
    NotGenericError,
    NotMonogenicError,
    RealizationNotFoundError,
    SizeLimitError,
    TooFewSidesError,
)

__all__ = [
    "LengthVector",
    "GeneticCode",
    "normalize",
    "is_generic",
    "genetic_code",
    "monogenic_gee",
    "enumerate_subgees",
    "realize_gee",
]

# The number of genes can grow exponentially in n; refuse beyond this many
# sides by default.
DEFAULT_MAX_N = 30

# `realize_gee` tries integer length vectors up to this total by default.
DEFAULT_SEARCH_BOUND = 40

# The gene search reads its last levels from tables of up to 2^_TABLE_DEPTH
# subsets built per call.  Depth 9 reaches the top level at n = 19 and 20, and
# made the search on random vectors with n = 16 to 20 about 10% faster than
# depth 8; depth 10 was slower, and one-gene vectors pay for the deeper tables.
_TABLE_DEPTH = 9


class LengthVector(_Value):
    """Exact positive side lengths, sorted ascending."""

    __slots__ = ("lengths",)

    def __init__(self, lengths: Iterable[Fraction]) -> None:
        self._set(tuple(lengths))
        if len(self.lengths) < 3:
            raise TooFewSidesError(f"need at least 3 sides, got {len(self.lengths)}")
        for x in self.lengths:
            if not isinstance(x, Fraction) or x.numerator <= 0:
                raise InvalidLengthError(f"side lengths must be positive rationals, got {x!r}")
        # a > b, on the numerators and the (positive) denominators
        if any(
            a.numerator * b.denominator > b.numerator * a.denominator
            for a, b in zip(self.lengths, self.lengths[1:])
        ):
            raise InvalidLengthError("lengths must be sorted ascending; use normalize()")

    @property
    def n(self) -> int:
        return len(self.lengths)

    def scaled(self) -> tuple[int, ...]:
        """The lengths as integers, scaled by the common denominator."""
        denom = lcm(*(f.denominator for f in self.lengths))
        return tuple(f.numerator * (denom // f.denominator) for f in self.lengths)


class GeneticCode(_Value):
    """The maximal short subsets containing n, in (size desc, lex) order."""

    __slots__ = ("genes", "n")

    def __init__(self, genes: tuple[IndexSet, ...], n: int) -> None:
        self._set(genes, n)
        for g in genes:
            if n not in g.elements:
                raise ValueError(f"gene {g} does not contain n={n}")

    @property
    def is_monogenic(self) -> bool:
        return len(self.genes) == 1


def normalize(raw: Iterable[Fraction | int]) -> LengthVector:
    """Validate and sort raw side lengths into a LengthVector.

    Accepts whatever `Fraction(x)` reads: ints, Fractions, Decimals and
    strings such as "1/2" or "0.5".  Floats are rejected to preserve the
    exactness contract, and bools are rejected too.  The original ordering
    is discarded: all downstream indices refer to the sorted vector.
    """
    values = []
    for x in raw:
        if isinstance(x, float):
            raise InvalidLengthError(f"floats are not exact; pass Fraction or int, got {x!r}")
        if isinstance(x, bool):
            raise InvalidLengthError(f"booleans are not side lengths, got {x!r}")
        try:
            # int() reads ASCII digits as Fraction would, under the same digit limit.
            f = Fraction(int(x)) if type(x) is str and x.isascii() and x.isdigit() else _fraction(x)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            # OverflowError: infinite Decimals; ZeroDivisionError: "1/0" and "0/0"
            raise InvalidLengthError(f"not a rational side length: {x!r}") from exc
        if f.numerator <= 0:
            raise InvalidLengthError(f"side lengths must be positive, got {x!r}")
        values.append(f)
    # Sorted by the exact integer key f * denom, with no Fraction compared.
    denom = lcm(*(f.denominator for f in values))
    values.sort(key=lambda f: f.numerator * (denom // f.denominator))
    return LengthVector(tuple(values))


def _fraction(x: object) -> Fraction:
    """`Fraction(x)`, refusing a string or Decimal whose exponent exceeds
    Python's int digit limit: Fraction would build ten to that power first."""
    exponent = 0
    if isinstance(x, str):
        _, e, tail = x.lower().rpartition("e")
        exponent = int(tail) if e else 0  # Fraction reads no string with another tail
    elif isinstance(x, Decimal) and x.is_finite():
        exponent = x.as_tuple().exponent
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()  # absent before 3.10.7
    if limit and abs(exponent) > limit:
        raise InvalidLengthError(f"exponent of {x!r} exceeds the {limit}-digit limit")
    return Fraction(x)


def is_generic(lengths: LengthVector) -> bool:
    """True iff no subset of sides sums to exactly half the perimeter.

    Decided exactly over the scaled integer lengths: when their total over
    their gcd is odd, no subset can reach half of it.  Otherwise by meeting
    in the middle: the subset sums of each half of the sides (at most
    2^ceil(n/2) apiece) are listed, and no pair may add up to half the
    total.  The cost does not depend on the size of the lengths.
    """
    ints = lengths.scaled()
    total = sum(ints)
    # A subset sums to half the total exactly when it does after dividing
    # out the gcd, so an odd total of the primitive vector settles it.
    if total // gcd(*ints) % 2:
        return True
    half = total // 2
    mid = len(ints) // 2
    low = _subset_sums(ints[:mid])
    return not any(half - s in low for s in _subset_sums(ints[mid:]))


def _subset_sums(values: Iterable[int]) -> set[int]:
    sums = {0}
    for v in values:
        sums |= {s + v for s in sums}
    return sums


def genetic_code(lengths: LengthVector, *, max_n: int = DEFAULT_MAX_N) -> GeneticCode:
    """All maximal short subsets containing n, ordered by (size desc, lex).

    A short set S (containing n) is maximal iff every one-step enlargement
    in the domination order is long: adding an absent element, or moving a
    member i up to an absent i+1 (n itself never moves).  Shortness is
    downward closed and any strict domination factors through such steps.

    The search is `_genes`.  The CLI's `gene` command calls it directly and
    renders its descending tuples, so that it wraps no gene in an IndexSet;
    `phi --lengths` and `realize_gee` call this function.
    """
    genes = _genes(lengths, max_n=max_n)
    return GeneticCode(tuple(IndexSet._from_ascending(g[::-1]) for g in genes), lengths.n)


def _genes(lengths: LengthVector, *, max_n: int) -> list[tuple[int, ...]]:
    """The genes of `genetic_code` in its order, as descending tuples, with
    its checks, exceptions and messages.  The CLI's `gene` command calls
    this directly; every other caller goes through `genetic_code`.

    The sets are found by a depth-first search that decides the members n-1,
    n-2, ... in turn, on an explicit stack.  An entry carries the count j
    of undecided sides 1..j, the running sum, the members taken so far as a
    descending tuple (taking side j appends it, and side j+1 is a member
    exactly when it comes last), the set's sort key (below) and the cost of
    the cheapest enlargement already fixed by the decided sides: leaving
    out side j fixes adding it, and taking j when j+1 is absent fixes
    moving j up to j+1.  A child is
    cut before it is pushed when taking side j would make the set long, or
    when no completion of it is maximal.  A completion adds a subset of the
    child's undecided sides 1..i with some sum s (i is j-1, or less after
    the jump below), and is a gene only if s < room, the room left below the
    limit, and also s + cheapest >= room, since its cheapest enlargement
    costs no more than the one already fixed.  So a child is kept when
    reach + cheapest >= room, where reach is the largest subset sum of sides
    1..i below room.  For i <= top = (n-1)//2, reach is read exactly by
    bisection in sums[i], the sorted subset sums of the i shortest sides,
    built once per call; no table holds more than 2^top entries (16,384 at
    n = 30), however large the lengths are.  Above top, the sum of all i
    sides stands in for reach.  A fixed enlargement that costs nothing (j
    and j+1 have equal lengths) is short whenever the set is, so a child
    with one is cut as well; otherwise equal sides make the search
    exponential even when there is a single gene.  When side j is too long
    to take, so is every shorter side at or above the room left below the
    limit: those sides, found by bisection, are left out in one step.
    Leaving out a too-long side fixes an enlargement that is long anyway,
    so the cheapest fixed enlargement keeps its value.

    The last d = min(top, 9) levels are read, not walked.  For j <= d, a
    table built once per call lists every subset T of sides 1..j by sum,
    with the sum plus the cheapest enlargement inside 1..j (adding an absent
    side, or moving a member t up to an absent t+1 <= j), and in a second
    column also moving j up to j+1.  Leaving out side j fixes adding it and
    lets j-1 move up to it, taking j stops that move, so each table follows
    from the one before in O(2^j) steps; sums[j] holds its sums.  A child
    at j <= d is read where it is made, and never pushed: its genes add to
    its members each T whose sum lies in [room - cheapest, room), found by
    bisection, and whose column (the second when j+1 is absent) reads at
    least room.  In practice the search grows with the number of genes
    rather than with 2^(n-1): on random vectors with n = 16 to 20 it visits
    about one node per two genes above level d, and reads a table once per
    two genes.  Near-equal sides cost more than their genes, but 27 sides
    from 1000..1050, with one gene, visit a few thousand nodes.

    Nodes and table rows carry their part of the key K(G), the sum over i
    in G of 2^n + 2^(n-i): its upper bits hold the size, and of two sets of
    one size the one holding the smallest element of their difference, the
    first in lex order, has the larger K.  So K descending is the order.
    """
    n = lengths.n
    if n > max_n:
        raise SizeLimitError(f"n={n} exceeds the subset-enumeration guard max_n={max_n}")
    if not is_generic(lengths):
        raise NotGenericError("length vector is not generic")
    ints = lengths.scaled()
    total = sum(ints)
    if 2 * ints[-1] > total:
        raise EmptySpaceError(f"{{{n}}} is long, the moduli space is empty")

    below = [0, *accumulate(ints[:-1])]  # below[i]: the sum of the i shortest sides
    top = (n - 1) // 2
    depth = min(top, _TABLE_DEPTH)
    # weights[i]: what side i adds to a set's sort key.
    weights = [(1 << n) + (1 << (n - i)) for i in range(n + 1)]
    # tables[j]: every subset T of sides 1..j as (sum, sum + the cheapest
    # enlargement inside 1..j without and with moving j up to j+1, T's key,
    # T descending), sorted by sum; rows leave out side j, then `taken` take it.
    # `total` stands for "no enlargement", here and below, as it is never short.
    tables = [[(0, total, total, 0, ())]]
    for j in range(1, depth + 1):
        v, up, w = ints[j - 1], ints[j], weights[j]
        rows, taken = [], []
        for x, a, b, k, t in tables[-1]:
            r = b if b < x + v else x + v
            rows.append((x, r, r, k, t))
            a += v
            taken.append((x + v, a, a if a < x + up else x + up, k + w, (j, *t)))
        rows += taken
        rows.sort()  # by sum first; both halves already are, so timsort merges them
        tables.append(rows)
    # sums[i]: the sorted subset sums of the i shortest sides, repeated at
    # i <= depth and distinct above it.  Above top, sums[i] is [below[i]],
    # which s[bisect_left(s, room) - 1] reads whichever side of room it is on.
    sums = [[row[0] for row in table] for table in tables]
    for v in ints[depth:top]:
        s = sums[-1]
        sums.append(sorted({*s, *(x + v for x in s)}))
    sums += ([b] for b in below[top + 1:])
    limit = (total + 1) // 2  # a sum is short exactly when it is below limit
    genes: dict[int, tuple[int, ...]] = {}  # by sort key

    def read(j: int, room: int, members: tuple[int, ...], cheapest: int, key: int, col: int) -> None:
        # The genes below a child at j <= depth: its members plus a subset of
        # sides 1..j that adds less than room but no enlargement of it does.
        s = sums[j]
        hi = bisect_left(s, room)
        for row in tables[j][bisect_left(s, room - cheapest, 0, hi):hi]:
            if row[col] >= room:
                genes[key + row[3]] = members + row[4]

    # (undecided count j > depth, sum, descending members, cheapest fixed enlargement, key)
    stack = [(n - 1, ints[-1], (n,), total, weights[n])]
    while stack:
        j, cur, members, cheapest, key = stack.pop()
        room = limit - cur  # the set stays short while it adds less than this
        i = j - 1
        side = ints[i]
        if side >= room:
            # Sides t+1..j are all too long to take: leave them out together.
            t = bisect_left(ints, room, 0, i)
            if t <= depth:
                read(t, room, members, cheapest, key, 2)
                continue
            s = sums[t]
            if s[bisect_left(s, room) - 1] + cheapest >= room:
                stack.append((t, cur, members, cheapest, key))
            continue
        # Leaving out side j fixes adding it; taking it without side j+1
        # fixes moving j up to j+1.
        fixed = side if side < cheapest else cheapest
        if members[-1] != j + 1 and ints[j] - side < cheapest:
            cheapest = ints[j] - side
        if i <= depth:
            read(i, room, members, fixed, key, 2)
            if cheapest:
                read(i, room - side, (*members, j), cheapest, key + weights[j], 1)
            continue
        s = sums[i]
        if s[bisect_left(s, room) - 1] + fixed >= room:
            stack.append((i, cur, members, fixed, key))
        room -= side
        if cheapest and s[bisect_left(s, room) - 1] + cheapest >= room:
            stack.append((i, cur + side, (*members, j), cheapest, key + weights[j]))

    return [genes[k] for k in sorted(genes, reverse=True)]


def monogenic_gee(code: GeneticCode) -> GeeParams:
    """The increment parametrization of the unique gene, with n removed.

    Raises NotMonogenicError when the code has more than one gene; a code
    whose single gene is {n} yields the empty parameter tuple (k = 0).
    """
    if len(code.genes) != 1:
        raise NotMonogenicError(f"code has {len(code.genes)} genes, expected exactly 1")
    gee = IndexSet(e for e in code.genes[0] if e != code.n)
    return GeeParams.from_gee(gee)


def enumerate_subgees(gee: GeeParams) -> Iterator[IndexSet]:
    """All subgees of the gee, including the empty set, in (size, lex) order.

    A set s_1 < ... < s_r is a subgee of g_1 < ... < g_k exactly when r <= k
    and s_i <= g_{k-r+i}, so each size is walked in lex order, picking s_i
    above s_{i-1} up to its bound, depth first on an explicit stack.
    Bounds increase, so no branch dies.
    """
    for r in range(gee.k + 1):
        bounds = gee.prefix_sums[gee.k - r:]
        stack = [()]
        while stack:
            head = stack.pop()
            if len(head) == r:
                yield IndexSet._from_ascending(head)
                continue
            stack.extend((*head, s) for s in range(bounds[len(head)], head[-1] if head else 0, -1))


def _least_undominated(gee: GeeParams) -> list[tuple[int, ...]]:
    """The minimal sets of positive integers that the gee does not dominate.

    A set s_1 < ... < s_r escapes g_1 < ... < g_k when r > k, and then it
    dominates {1, ..., k+1}; or when some s_j > g_{k-r+j}, and then it
    dominates the set that runs 1, ..., j-1 and climbs by ones from
    g_{k-r+j}+1.  That set's climbing tail has L = r-j+1 elements and
    starts at g_{k-L+1}+1, which depends on L alone, so when j > 1 it
    dominates the set with the same tail and no head.  So every undominated
    set dominates one of k+1 sets: {1, ..., k+1}, and for each r <= k the r
    integers that climb by ones from g_{k-r+1}+1.  Only those that dominate
    none of the others are kept: a set is long whenever a set it dominates
    is.  A set that dominates another has the larger sum, so one pass in
    order of sum keeps exactly these, each repeated set once.  The list is
    made once per gee; the minimal sets within {1..n-1} are those with top
    <= n-1, as a set's top is at least the top of every set it dominates.
    """
    k, g = gee.k, gee.prefix_sums
    sets = [tuple(range(1, k + 2))]
    sets += (tuple(range(g[k - r] + 1, g[k - r] + r + 1)) for r in range(1, k + 1))
    minimal: list[tuple[int, ...]] = []
    for s in sorted(sets, key=sum):
        if not any(_dominated(t, s) for t in minimal):
            minimal.append(s)
    return minimal


def _dominated(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether the ascending multiset a is dominated by the ascending b:
    |a| <= |b|, and the i-th largest element of a is at most the i-th
    largest of b.  Then p(a) <= p(b) for every sorted p >= 0, matching
    each element of a with one of b that is no shorter."""
    return len(a) <= len(b) and all(map(int.__le__, a, b[len(b) - len(a):]))


def _rows(n: int, gene: Iterable[int], escapes: list[tuple[int, ...]]) -> list[list[int]]:
    """The weights over p_1..p_n of realize's rows at side count n, shared by
    `_lp.least_total_carried` and `_prefix_tables`: the gene row first, -1
    on G, then one row per escape set S (the sets exclude n), 1 on S + {n}."""
    rows = []
    for members, weight in [(gene, -1), *(((*s, n), 1) for s in escapes)]:
        u = [0] * n
        for i in members:
            u[i - 1] = weight
        rows.append(u)
    return rows


def _prefix_tables(rows: list[list[int]]) -> list[tuple]:
    """The rows of `_passing_vectors`, as one entry per row at each position
    q = 1..n-1.

    The rows are `_rows`' weights u_i over the parts, the gene row and then
    each escape row, and then each escape row against the gene, the sum of
    the two, in which p_n cancels.  The entry is (u_q, U_q, best, length),
    where U_j = u_j + ... + u_n and best/length is the largest U_j/(n - j +
    1) over j > q, with length = n - j + 1 for the shortest suffix that
    attains it."""
    n, gene_row = len(rows[0]), rows[0]
    rows = [*rows, *([e + g for e, g in zip(u, gene_row)] for u in rows[1:])]
    tables: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n - 1)]
    for u in rows:
        suffix = best = u[-1]
        length = 1
        for q in range(n - 1, 0, -1):
            suffix += u[q - 1]
            tables[q - 1].append((u[q - 1], suffix, best, length))
            if suffix * length > best * (n - q + 1):
                best, length = suffix, n - q + 1
    return [tuple(entries) for entries in tables]


def _passing_vectors(n: int, total: int, tables: list[tuple]) -> Iterator[tuple[int, ...]]:
    """The sorted positive vectors p_1 <= ... <= p_n summing to `total` on
    which the gene is short and every escape set is long, in lex order.

    Each row of `_prefix_tables` must reach a margin: 1 - (total+1)//2 for
    the gene (it is short), total//2 + 1 for each escape set (it is long),
    and their sum, 2 - total % 2, for each escape set against the gene.  A
    depth-first walk on an explicit stack chooses p_q = w after a prefix
    that leaves `rest` for p_q..p_n and whose row sums minus margins are s.
    The later parts are w plus nondecreasing increments summing to R = rest
    - (n-q+1)*w >= 0.  Those increments form a simplex whose corners put all
    of R evenly on one suffix p_j..p_n, j > q, so the most a row can still
    reach over its margin is s + w*U_q + R*best/length.  Times length, this
    is slope*w + y, with slope = length*U_q - best*(n-q+1) and y = length*s
    + best*rest: a negative slope caps w, a positive one floors it, and a
    zero slope cuts the prefix when y < 0.  The bound holds for every real
    completion, so no cut drops a vector that passes.  At q = n-1 the only
    completion is p_n = rest - w, so the bound is exact and the walk yields
    exactly the vectors that pass.
    """
    e = len(tables[0]) // 2  # rows: the gene, e escape sets, each set against the gene
    sums = ((total + 1) // 2 - 1, *(-(total // 2) - 1,) * e, *(total % 2 - 2,) * e)
    stack = [((), 1, total, sums)]
    while stack:
        parts, lo, rest, sums = stack.pop()
        entries = tables[len(parts)]
        left = n - len(parts)  # parts still to choose, p_q included; n >= 3 keeps it >= 2
        hi = rest // left
        for s, (_, suffix, best, length) in zip(sums, entries):
            slope = length * suffix - best * left
            y = length * s + best * rest  # w passes the row while slope*w + y >= 0
            if slope < 0:
                cap = y // -slope
                if cap < hi:
                    hi = cap
            elif slope:
                floor = -(y // slope)
                if floor > lo:
                    lo = floor
            elif y < 0:
                hi = 0
                break
        if left == 2:
            for w in range(lo, hi + 1):
                yield (*parts, w, rest - w)
            continue
        stack.extend(
            ((*parts, w), w, rest - w, tuple(s + entry[0] * w for s, entry in zip(sums, entries)))
            for w in range(hi, lo - 1, -1)
        )


def realize_gee(gee: GeeParams, search_bound: int = DEFAULT_SEARCH_BOUND) -> LengthVector:
    """Search for an integer length vector whose genetic code is the single gene.

    The winner is the first passing vector in the order of total length,
    then side count n, then lexicographic among sorted positive integer
    vectors, so results are deterministic.  One domination certificate is
    checked first, once per gee: for two minimal escape sets S and T
    (below), S + {n} and T + {n} long and G short give p(S) + p(T) >
    2*p(gee), as p_n cancels.  So when S + T is dominated by gee + gee, as
    multisets, no vector with any n realizes the gee, and the error below
    is raised before any LP.  Otherwise n runs up from max(3, span+1).  For
    each n, `_rows` writes the gene and escape rows once, and
    `least_total_carried` solves an exact LP on them whose least total L_n
    no passing vector with n sides undercuts; only then are the same rows'
    prefix tables built and the totals from L_n up to one below the least
    total found so far (search_bound + 1 before any) walked.  An n whose LP
    is infeasible, or whose bound reaches that total, gets no walk, and the
    LP stops as soon as its bound does.  The LP is infeasible wherever
    {1..n-1} minus the gee is dominated by G, since G cannot be short there.

    The loop ends by proof, with no window.  A vector with n sides sums to
    at least n, so no n at or above the least total found matters.  And
    the LP's dual values, carried to the next n (`_lp`'s module docstring
    derives it), bound every total with n sides from below while the least
    reduced cost is >= 0.  When that bound also reaches the least total
    found and delta <= d, the basis determinant the carry is over, the loop
    stops: each later step adds d - delta >= 0 to the bound and to every
    old reduced cost, and gives the new column d + delta, x_n's reduced
    cost, already >= 0.  So every later n stays ruled out, as the least
    total found only falls.  An n that the carry rules out with delta > d
    gets its LP, which decides it alone.  A later n replaces the best
    vector only with a smaller total, and no bound rules out a (total, n)
    pair that has a passing vector, so neither rule changes the winner.

    A vector has the single gene G = gee + {n} exactly when the short sets
    containing n are the sets G dominates: G is short, and S + {n} is long
    for every S in {1..n-1} the gee does not dominate.  Shortness only falls
    down the domination order, so it is enough that S + {n} is long for the
    minimal such S (`_least_undominated`: the minimal sets are listed once
    per gee, and each n keeps those within {1..n-1}).  Both tests are
    strict, so no set sums to half the total and the vector is generic.
    The vectors that pass both tests are listed in lexicographic order by
    `_passing_vectors`.  Each test, and each escape set against the gene,
    is one linear row in the parts, and one rule cuts a prefix on every
    row: the largest value the row can reach over the prefix's real
    completions falls short of its margin.  The cuts never drop a passing
    vector, so they do not change which vector wins.  A passing vector has
    the requested code; `genetic_code` confirms the winner, raising
    AssertionError on a mismatch, without its `max_n` guard: the code it
    lists has one gene, whatever n is.

    Raises RealizationNotFoundError when no candidate with total length
    <= search_bound realizes the code, with the same message whether the
    bound was exhausted or the certificate or the LPs left no side count.
    """
    check_ints((search_bound,), 1, "search bound must be positive")
    least = _least_undominated(gee)
    twice = tuple(sorted(gee.prefix_sums * 2))
    refused = any(_dominated(sorted(s + t), twice) for s, t in combinations(least, 2))
    best, found = search_bound + 1, None  # the least total found so far, its vector and gene
    n, carry = max(3, gee.span + 1), None
    while n < best and not refused:
        if carry:
            bound, cost, delta, d = carry = next_side_count(carry)
            if cost >= 0 and bound > (best - 1) * d and delta <= d:
                break  # every later n is ruled out too
        gene = (*gee.prefix_sums, n)
        rows = _rows(n, gene, [s for s in least if s[-1] < n])
        start, carry = least_total_carried(rows, best)
        if start is not None and start < best:
            tables = _prefix_tables(rows)
            for total in range(start, best):
                parts = next(_passing_vectors(n, total, tables), None)
                if parts:
                    best, found = total, (parts, gene)
                    break
        n += 1
    if found is None:
        raise RealizationNotFoundError(
            f"no integer length vector with total <= {search_bound} realizes gee {gee.a}"
        )
    parts, gene = found
    candidate = LengthVector(tuple(Fraction(p) for p in parts))
    if [g.elements for g in genetic_code(candidate, max_n=candidate.n).genes] != [gene]:
        raise AssertionError(f"{parts} does not realize gee {gee.a}")
    return candidate
