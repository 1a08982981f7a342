"""The mod-2 duality functional on top-degree monomials of a monogenic code.

The value on a monomial depends only on the block profile of its subscript
set: it is the mod-2 count, over admissible complementary profiles, of a
product of binomial parities in the gee increments.  A closed form for
three blocks and an exact disjoint-subgee counting formula provide
independent check paths.

The count is evaluated by a transfer DP over the blocks, last block first.
Its state is the suffix sum s of B + profile, kept only while s is at most
the suffix length (the suffix condition), and it records which states are
reached by an odd number of weighted choices.  That takes O(k^2) binomial
parities and O(k^3) bit operations, while the admissible complementary
profiles B can be exponentially many: the zero profile has the Catalan
number C_k of them.  Listing them stays for `--explain`, and meets in the
middle: a walk lists the admissible heads (the first k // 2 entries of B)
once, and joins each to the admissible tails for the budget it leaves,
listed once per budget in the call, so a summand costs one tuple join and
one AND.  The same DP on integer counts gives the number of summands
without listing them, which bounds the walk before it starts.
`_pairing_rows` runs the DP once over the suffixes that subgee profiles
share, so a whole table costs O(k) amortized per row instead of O(k^2).
It is the one walk over the subgee profiles: `table` takes its rows from
it and sorts them, and `verify` and `oracle` read their values from
`pairing_table`, the same rows keyed by profile.  Nothing is memoized
between calls: each request runs the DP afresh.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import accumulate
from math import comb, prod

from .combinatorics import (
    GeeParams,
    IndexSet,
    Profile,
    _Value,
    binom_parity,
    block_counts,
    check_ints,
    is_subgee_profile,
)
from .errors import InfeasibleProfileError

__all__ = [
    "TopMonomial",
    "pairing_set",
    "pairing_by_profile",
    "pairing_table",
    "closed_form_k3",
    "count_disjoint_subgees",
    "admissible_summands",
]


class TopMonomial(_Value):
    """A top-degree monomial, recorded by its distinct generator subscripts.

    With n sides the top degree is n-3; a monomial with r subscripts
    carries the degree-one base class to the power n-3-r, so r <= n-3 and
    every subscript is at most n-1.
    """

    __slots__ = ("subscripts", "n")

    def __init__(self, subscripts: IndexSet, n: int) -> None:
        self._set(subscripts, n)
        if n < 3:
            raise ValueError(f"need n >= 3, got n={n}")
        if (r := len(subscripts)) > n - 3:
            raise ValueError(f"{r} subscripts exceed the top degree {n - 3}")
        if subscripts and max(subscripts) > n - 1:
            raise ValueError(f"subscript {max(subscripts)} exceeds n-1={n - 1}")


def _summands(gee: GeeParams, profile: Profile) -> Iterator[tuple[Profile, int]]:
    """The complementary profiles B with |B| = k - |profile| and B + profile
    satisfying the suffix condition, in lexicographic order, each with its
    term: the product of binomial parities binom(a_i + b_i - 2, b_i).

    When the profile fails the suffix condition no B is admissible, so the
    walk is skipped.  Otherwise |B + profile| = k, and the suffix condition
    says that every prefix of length i of B + profile sums to at least i.
    The walk meets in the middle.  It lists each head, the first d = k // 2
    entries of B, once, with the budget `rest` left for the tail and the
    product of the head's parities.  The head's lead over its bound is then
    sum(profile[:d]) + (budget - rest) - d, so the admissible tails and
    their terms depend on `rest` alone: `_suffixes` lists them once per
    `rest` value the call reaches, and each B is a head joined to a tail,
    its term one AND.  The tails are kept for this call only.  No branch
    dies, so every listed tail is part of at least one summand.
    """
    if not is_subgee_profile(profile):
        return
    k = gee.k
    budget = k - sum(profile)
    parities = [tuple(binom_parity(a + b - 2, b) for b in range(budget + 1)) for a in gee.a]
    if not k:
        yield (), 1
        return
    d = k // 2
    tails: dict[int, list[tuple[Profile, int]]] = {}
    for head, rest, lead, term in _runs(parities, profile, 0, d, budget, 0):
        if (suffixes := tails.get(rest)) is None:
            suffixes = tails[rest] = _suffixes(parities, profile, d, rest, lead)
        for tail, tail_term in suffixes:
            yield head + tail, term & tail_term


def _runs(
    parities: list[tuple[int, ...]], profile: Profile, start: int, stop: int, rest: int, lead: int
) -> Iterator[tuple[Profile, int, int, int]]:
    """The admissible runs of entries start..stop-1 of B, in lexicographic
    order, each as (run, budget left, lead, term): `lead` is the prefix's
    lead over its bound, and `term` the product of the run's parities.

    A depth-first walk on an explicit stack picks each entry from the least
    value keeping the lead nonnegative up to the budget left.
    """
    stack = [((), rest, lead, 1)]
    while stack:
        run, rest, lead, term = stack.pop()
        j = start + len(run)
        if j == stop:
            yield run, rest, lead, term
            continue
        par, step = parities[j], lead + profile[j] - 1
        stack.extend(
            ((*run, x), rest - x, step + x, term & par[x]) for x in range(rest, max(0, -step) - 1, -1)
        )


def _suffixes(
    parities: list[tuple[int, ...]], profile: Profile, start: int, rest: int, lead: int
) -> list[tuple[Profile, int]]:
    """The admissible tails of B from entry `start` on, summing to `rest`
    after a prefix with this lead, in lexicographic order, each with the
    product of its parities.  The last entry takes the budget left: the
    total then meets the bound of the full prefix."""
    last = parities[-1]
    return [
        ((*run, left), term & last[left])
        for run, left, _, term in _runs(parities, profile, start, len(profile) - 1, rest, lead)
    ]


def _spread(a: int, m: int, odd: int) -> int:
    """One transfer step of the DP: the XOR of odd << b over the b = 0..m
    whose weight binom(a + b - 2, b) is odd."""
    reached = 0
    for b in range(m + 1):
        if binom_parity(a + b - 2, b):
            reached ^= odd << b
    return reached


def _profile_sum(gee: GeeParams, profile: Profile) -> int:
    """Mod-2 sum of the summand terms for this profile, by a transfer DP.

    Going from the last block back, `odd` has bit s set when the suffix sum
    s of B + profile over the blocks seen so far is reached by an odd number
    of choices of b_i with odd weight binom(a_i + b_i - 2, b_i).  Block i
    moves s to s + profile_i + b_i, and states above the suffix length j are
    dropped.  The value is bit k after all k blocks, which forces
    |B| = k - |profile|; profiles with |profile| > k give 0.  Each block
    costs O(k) parities and XORs of (k+1)-bit masks: O(k^3) bit operations.
    """
    odd = 1
    for j, (a, t) in enumerate(zip(reversed(gee.a), reversed(profile)), start=1):
        odd = (_spread(a, j - t, odd) << t) & ((1 << (j + 1)) - 1)
    return odd >> gee.k & 1


def _summand_count(profile: Profile) -> int:
    """The number of summands `_summands` lists for this profile, with no
    walk: it depends on the profile alone, not on the gee.

    The transfer DP of `_profile_sum` on integer counts, last block first:
    `counts[s]` is the number of fillings of the blocks seen so far whose
    suffix sum of B + profile is s <= j.  Block j moves s to s + t + b for
    every b >= 0, so its new counts are running sums of the old ones,
    shifted by t.  The count is counts[k]: C_k at the zero profile, 0 when
    the profile fails the suffix condition.  O(k^2) big-int additions.
    """
    counts = [1]
    for j, t in enumerate(reversed(profile), start=1):
        sums = list(accumulate(counts))
        counts = ([0] * t + sums + [sums[-1]] * j)[: j + 1]
    return counts[len(profile)]


def _pairing_rows(gee: GeeParams) -> Iterator[tuple[Profile, int]]:
    """Every subgee profile with its duality value, one leaf of the walk at a time.

    Runs the DP of `_profile_sum` once per shared suffix, last block first,
    on an explicit stack.  A suffix of length j - 1 and sum s spreads its
    state once over every b <= j; its child with entry t <= min(a_i, j - s)
    shifts that by t and keeps bits 0..j, dropping the terms with b > j - t.
    The rows come in no useful order, but lazily: a caller may stop early.
    """
    k = gee.k
    stack = [((), 0, 1)]  # (profile suffix, its sum, odd)
    while stack:
        suffix, s, odd = stack.pop()
        j = len(suffix) + 1
        if j > k:
            yield suffix, odd >> k & 1
            continue
        a = gee.a[-j]
        spread, keep = _spread(a, j, odd), (1 << (j + 1)) - 1
        stack.extend(((t, *suffix), s + t, (spread << t) & keep) for t in range(min(a, j - s) + 1))


def pairing_table(gee: GeeParams) -> dict[Profile, int]:
    """Duality value of every subgee profile (fits its blocks, meets the
    suffix condition), keyed by profile."""
    return dict(_pairing_rows(gee))


def pairing_set(gee: GeeParams, subscripts: IndexSet) -> int:
    """Duality value of the top monomial with the given subscript set.

    Subscripts beyond the gee span name zero classes, so the value is 0
    without consulting the block profile.
    """
    if subscripts and max(subscripts) > gee.span:
        return 0
    return _profile_sum(gee, block_counts(subscripts, gee))


def pairing_by_profile(gee: GeeParams, profile: Iterable[int]) -> int:
    """Duality value of any monomial whose subscripts have this block profile.

    Entries must fit in their blocks (profile_i <= a_i); otherwise no such
    monomial exists and InfeasibleProfileError is raised.
    """
    t = _validated_profile(gee, profile)
    return _profile_sum(gee, t)


def admissible_summands(gee: GeeParams, profile: Iterable[int]) -> list[tuple[Profile, int]]:
    """The complementary profiles B contributing to the pairing, with terms.

    Returns (B, term) pairs in lexicographic order of B, where term is the
    mod-2 product for that B; the pairing is the XOR of the terms.
    """
    return list(_summands(gee, _validated_profile(gee, profile)))


def _int_profile(gee: GeeParams, profile: Iterable[int]) -> Profile:
    """The profile as a tuple of k nonnegative ints; entries may exceed their blocks."""
    t = tuple(profile)
    if len(t) != gee.k:
        raise ValueError(f"profile length {len(t)} != k={gee.k}")
    check_ints(t, 0, "profile entries must be nonnegative integers")
    return t


def _validated_profile(gee: GeeParams, profile: Iterable[int]) -> Profile:
    """The profile as a tuple of k nonnegative ints that fit their blocks."""
    t = _int_profile(gee, profile)
    for i, (c, a) in enumerate(zip(t, gee.a), start=1):
        if c > a:
            raise InfeasibleProfileError(f"profile entry {c} exceeds block {i} size {a}")
    return t


def closed_form_k3(gee: GeeParams, profile: Iterable[int]) -> int:
    """Closed-form duality value for a three-block gee.

    Independent of the general sum: evaluates explicit polynomials in the
    increments with exact integer arithmetic, then reduces mod 2.  Entries
    must fit their blocks, as in `pairing_by_profile`; profiles violating
    the suffix condition name zero classes and give 0.
    """
    if gee.k != 3:
        raise ValueError(f"closed form requires k=3, got k={gee.k}")
    t = _validated_profile(gee, profile)
    if not is_subgee_profile(t):
        return 0
    if sum(t) == 3:
        return 1
    a1, a2, a3 = gee.a
    p1, p2, p3 = a1 - 1, a2 - 1, a3 - 1
    table = {
        (0, 2, 0): p1,
        (0, 1, 1): p1,
        (1, 0, 1): p1 + p2,
        (2, 0, 0): p1 + p2 + p3,
        (1, 1, 0): p1 + p2 + p3,
        (0, 0, 1): comb(a1, 2) + p1 * p2,
        (0, 1, 0): comb(a1, 2) + p1 * p2 + p1 * p3,
        (1, 0, 0): comb(a1, 2) + comb(a2, 2) + p1 * p2 + p1 * p3 + p2 * p3,
        (0, 0, 0): comb(a1, 2) * (p1 + p2 + p3) + comb(a2, 2) * p1 + p1 * p2 * p3,
    }
    return table[t] & 1


def count_disjoint_subgees(
    gee: GeeParams, occupied: Iterable[int], profile: Iterable[int]
) -> int:
    """Exact number of subgees with the given profile avoiding a fixed subgee.

    `occupied` is the block profile of the fixed subgee and must fit its
    blocks; each block then has a_i - occupied_i free slots, and the count
    is the product of binomials comb(a_i - occupied_i, profile_i) as an
    exact integer, so a profile that overfills the free slots counts 0.
    """
    m = _validated_profile(gee, occupied)
    c = _int_profile(gee, profile)
    return prod(comb(ai - mi, ci) for ai, mi, ci in zip(gee.a, m, c))
