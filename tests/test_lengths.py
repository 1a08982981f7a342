"""Unit tests for length-vector classification and genetic codes."""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from polyphi import (
    GeeParams,
    GeneticCode,
    IndexSet,
    LengthVector,
    block_counts,
    enumerate_subgees,
    genetic_code,
    is_generic,
    is_subgee_profile,
    monogenic_gee,
    normalize,
    realize_gee,
)
from polyphi.errors import (
    EmptySpaceError,
    InvalidLengthError,
    NotGenericError,
    NotMonogenicError,
    RealizationNotFoundError,
    SizeLimitError,
    TooFewSidesError,
)

from polyphi._lp import (
    _pivot,
    _tableau,
    least_total_carried,
    least_value,
    next_side_count,
)
from polyphi.lengths import (
    _genes,
    _least_undominated,
    _passing_vectors,
    _prefix_tables,
    _rows as weight_rows,
    _subset_sums,
)

from brute import (
    ascending_tuples,
    brute_genetic_code,
    brute_is_generic,
    brute_set_leq,
    brute_subgees,
    dual_bound_by_rows,
    genetic_code_by_gray_walk,
    genetic_code_by_subset_sums,
    greedy_set_leq,
    is_short,
    least_total_by_simplex,
    least_undominated_unreduced,
    pair_certificate_sweep,
    realize_by_genetic_code,
    reduced_costs_by_rows,
    subgees_by_profile,
)


def code_tuples(code: GeneticCode) -> list[tuple[int, ...]]:
    return [g.elements for g in code.genes]


# ----------------------------------------------------------------- normalize

def test_normalize_sorts():
    assert normalize([3, 1, 2]).lengths == (1, 2, 3)
    assert normalize([1, 1, 1, 1, 1]).lengths == (1, 1, 1, 1, 1)


def test_normalize_accepts_fractions():
    lv = normalize([Fraction(1, 2), 2, Fraction(3, 4)])
    assert lv.lengths == (Fraction(1, 2), Fraction(3, 4), 2)
    assert lv.scaled() == (2, 3, 8)


def test_normalize_accepts_what_fraction_reads():
    half = (Fraction(1, 2), Fraction(1), Fraction(1))
    assert normalize(["1/2", 1, 1]).lengths == half
    assert normalize([Decimal("0.5"), 1, 1]).lengths == half


@pytest.mark.parametrize("raw", [[1, 0, 2], [1, -1, 2], [1, 2, Fraction(0)]])
def test_normalize_rejects_nonpositive(raw):
    with pytest.raises(InvalidLengthError):
        normalize(raw)


@pytest.mark.parametrize("x", [Decimal("Infinity"), Decimal("-Infinity")])
def test_normalize_rejects_infinite_decimals(x):
    # Fraction(x) raises OverflowError for these, not ValueError.
    with pytest.raises(InvalidLengthError):
        normalize([x, 1, 1])


@pytest.mark.parametrize("x", ["1/0", "0/0", "-1/0"])
def test_normalize_rejects_zero_denominators(x):
    # Fraction(x) raises ZeroDivisionError for these, not ValueError.
    with pytest.raises(InvalidLengthError, match="not a rational side length"):
        normalize([x, 1, 1])


@pytest.mark.parametrize(
    "x",
    ["1e10000000", "1E-10000000", " 2.5e+4301 ", Decimal("1e10000000"), Decimal("1E-4301")],
)
def test_normalize_refuses_exponents_beyond_the_int_digit_limit(x):
    # Fraction(x) would build 10**|exponent| first: seconds at 10**7.
    start = time.perf_counter()
    with pytest.raises(InvalidLengthError, match="exceeds the 4300-digit limit"):
        normalize([x, 1, 1])
    assert time.perf_counter() - start < 0.5


def test_normalize_accepts_exponents_at_the_int_digit_limit():
    assert normalize(["1e-4300", Decimal("1E4300"), "1"]).lengths[0] == Fraction(1, 10**4300)


@pytest.mark.parametrize(
    "x, side",
    [
        ("007", Fraction(7)),
        ("٣", Fraction(3)),  # a non-ASCII digit, read by Fraction's parser
        ("+5", Fraction(5)),
        (" 5 ", Fraction(5)),
        (7, Fraction(7)),
        (Fraction(7, 3), Fraction(7, 3)),
        (Decimal("2.50"), Fraction(5, 2)),
    ],
)
def test_normalize_reads_tokens_ints_fractions_and_decimals(x, side):
    # ASCII-digit tokens take a faster path through int(); every input
    # keeps the side it had when each was read by Fraction alone.
    lengths = normalize([x, "1", 1]).lengths
    assert lengths == (1, 1, side)
    assert all(type(f) is Fraction for f in lengths)


@pytest.mark.parametrize("x", ["0", "00", 0, Fraction(0), Decimal("0E+3"), "-0", Decimal(-1)])
def test_normalize_names_the_nonpositive_input(x):
    with pytest.raises(InvalidLengthError) as info:
        normalize([1, x, 1])
    assert str(info.value) == f"side lengths must be positive, got {x!r}"


def test_normalize_refuses_a_token_beyond_the_int_digit_limit():
    # 5,000 digits: int() refuses it under the 4,300-digit limit, as
    # Fraction's parser does, and the ValueError becomes the same refusal.
    x = "5" * 5000
    with pytest.raises(InvalidLengthError) as info:
        normalize([x, 1, 1])
    assert str(info.value) == f"not a rational side length: {x!r}"
    assert type(info.value.__cause__) is ValueError


def test_normalize_sorts_mixed_denominators_exactly():
    raw = [Fraction(3, 2), Fraction(1, 3), 2, "5/6", Decimal("0.25"), Fraction(1, 3)]
    assert normalize(raw).lengths == tuple(sorted(Fraction(x) for x in raw))
    # Values that differ by less than any float could tell apart.
    big = 10**30
    raw = [Fraction(big + 1, big), Fraction(big, big - 1), 1, Fraction(big - 1, big)]
    assert normalize(raw).lengths == tuple(sorted(Fraction(x) for x in raw))


def test_normalize_rejects_floats():
    with pytest.raises(InvalidLengthError):
        normalize([1.0, 2, 3])
    with pytest.raises(InvalidLengthError):
        normalize([True, 1, 1])


def test_normalize_rejects_too_few():
    with pytest.raises(TooFewSidesError):
        normalize([1, 2])


def test_length_vector_rejects_unsorted_direct_construction():
    with pytest.raises(InvalidLengthError):
        LengthVector((Fraction(2), Fraction(1), Fraction(3)))


@pytest.mark.parametrize(
    "lengths, message",
    [
        ((Fraction(0), Fraction(1), Fraction(3)), "side lengths must be positive rationals, got Fraction(0, 1)"),
        ((Fraction(1), Fraction(-1, 2), Fraction(3)), "side lengths must be positive rationals, got Fraction(-1, 2)"),
        ((Fraction(1, 2), Fraction(1, 3), Fraction(1)), "lengths must be sorted ascending; use normalize()"),
        ((Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)), "lengths must be sorted ascending; use normalize()"),
    ],
)
def test_length_vector_checks_fractions_by_numerator_and_denominator(lengths, message):
    with pytest.raises(InvalidLengthError) as info:
        LengthVector(lengths)
    assert str(info.value) == message


def test_length_vector_accepts_equal_fractions_in_order():
    lv = LengthVector((Fraction(1, 3), Fraction(2, 6), Fraction(1, 2)))
    assert lv.scaled() == (2, 2, 3)


def test_length_vector_rejects_ints_in_direct_construction():
    # Only normalize() converts: the record itself holds Fractions.
    with pytest.raises(InvalidLengthError, match="positive rationals, got 1"):
        LengthVector((1, 2, 3))


# ---------------------------------------------- is_short, a helper of the tests

def test_is_short_examples():
    lv = normalize([1, 1, 1, 1, 1])
    assert is_short(lv, IndexSet([4, 5])) is True
    assert is_short(lv, IndexSet([3, 4, 5])) is False
    assert is_short(lv, IndexSet()) is True


def test_is_short_ties_raise():
    with pytest.raises(NotGenericError):
        is_short(normalize([1, 1, 2]), IndexSet([3]))


# ---------------------------------------------------------------- is_generic

@pytest.mark.parametrize(
    "raw, expected",
    [
        ([1, 1, 1, 1, 1], True),
        ([1, 1, 2], False),
        ([1, 2, 4, 8], True),
        ([1, 1, 1, 1], False),
        ([Fraction(1, 2), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)], False),
        ([Fraction(1, 999983), Fraction(1, 999979), Fraction(1999962, 999983 * 999979)], False),
    ],
)
def test_is_generic_examples(raw, expected):
    assert is_generic(normalize(raw)) is expected


def test_is_generic_matches_brute_force():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(3, 8)
        raw = [rng.randint(1, 12) for _ in range(n)]
        lv = normalize(raw)
        assert is_generic(lv) == brute_is_generic(lv.lengths), raw


@pytest.mark.parametrize("factor", [2, 3, 6, Fraction(2, 3)])
@pytest.mark.parametrize(
    "base",
    [
        [1, 2, 4],  # odd total: generic
        [1, 2, 3],  # even total, 1 + 2 = 3: not generic
        [1, 1, 2],  # even total: not generic
        [2, 3, 4, 7],  # even total, no subset sums to 8: generic
        [1, 3, 5, 7, 11],  # odd total
        [3, 5, 6, 7, 9, 10],  # even total, 3 + 7 + 10 = 20: not generic
    ],
)
def test_is_generic_divides_out_the_gcd(base, factor):
    # A multiple of a vector splits in half exactly when the vector does,
    # whatever the parity of the multiple's own total.
    lv = normalize([factor * x for x in base])
    assert is_generic(lv) == brute_is_generic(lv.lengths) == brute_is_generic(base)


def test_is_generic_lists_no_subset_sums_for_an_odd_primitive_total(monkeypatch):
    # 2,4,8 is 1,2,4 doubled: its primitive total 7 is odd, so it is
    # generic at once; 2,4,6 is 1,2,3 doubled, total 6, and needs the pass.
    calls = 0

    def counting(values):
        nonlocal calls
        calls += 1
        return _subset_sums(values)

    monkeypatch.setattr("polyphi.lengths._subset_sums", counting)
    for raw in ([2, 4, 8], [Fraction(2, 3), Fraction(4, 3), Fraction(8, 3)], [6, 12, 24, 30, 42]):
        assert is_generic(normalize(raw))
    assert calls == 0
    assert not is_generic(normalize([2, 4, 6]))
    assert calls > 0


def test_large_coprime_denominators_are_classified():
    # Scaled to integers, the half perimeter has 102 bits.
    lv = normalize([Fraction(1, d) for d in (999983, 999979, 999961, 999959, 999953, 999931)])
    assert is_generic(lv) and brute_is_generic(lv.lengths)
    assert code_tuples(genetic_code(lv)) == brute_genetic_code(lv.lengths) == [(1, 2, 6), (5, 6)]


def test_complement_duality():
    rng = random.Random(11)
    trials = 0
    while trials < 25:
        n = rng.randint(3, 8)
        lv = normalize([rng.randint(1, 12) for _ in range(n)])
        if not is_generic(lv):
            continue
        trials += 1
        for _ in range(10):
            subset = IndexSet(i + 1 for i in range(n) if rng.random() < 0.5)
            complement = IndexSet(j for j in range(1, n + 1) if j not in subset)
            assert is_short(lv, subset) != is_short(lv, complement)


def test_scale_invariance_fixed_example():
    base = normalize([1, 2, 2, 4, 4])
    scaled = normalize([Fraction(3, 7) * x for x in base.lengths])
    assert is_generic(base) == is_generic(scaled)
    assert code_tuples(genetic_code(base)) == code_tuples(genetic_code(scaled))


# -------------------------------------------------------------- genetic_code

def test_pentagon_code_matches_brute_force():
    lv = normalize([1, 1, 1, 1, 1])
    assert brute_genetic_code(lv.lengths) == [(4, 5)]
    assert code_tuples(genetic_code(lv)) == [(4, 5)]


def test_equilateral_heptagon_code():
    lv = normalize([1] * 7)
    expected = brute_genetic_code(lv.lengths)
    assert code_tuples(genetic_code(lv)) == expected == [(5, 6, 7)]


def test_regression_fixture_12244():
    lv = normalize([1, 2, 2, 4, 4])
    expected = brute_genetic_code(lv.lengths)
    assert code_tuples(genetic_code(lv)) == expected == [(3, 5)]


def test_genetic_code_not_generic():
    with pytest.raises(NotGenericError):
        genetic_code(normalize([1, 1, 2]))


def test_genetic_code_empty_space():
    with pytest.raises(EmptySpaceError):
        genetic_code(normalize([1, 1, 1, 1, 10]))


def test_genetic_code_size_guard():
    with pytest.raises(SizeLimitError):
        genetic_code(normalize([1] * 5), max_n=4)


def test_genetic_code_agrees_with_brute_force_randomly():
    rng = random.Random(20260808)
    checked = 0
    while checked < 30:
        n = rng.randint(3, 8)
        lv = normalize([rng.randint(1, 9) for _ in range(n)])
        if not is_generic(lv):
            continue
        if 2 * lv.scaled()[-1] > sum(lv.scaled()):
            continue
        checked += 1
        assert code_tuples(genetic_code(lv)) == brute_genetic_code(lv.lengths)


def test_code_soundness_completeness_incomparability():
    rng = random.Random(5)
    vectors = [normalize([rng.randint(1, 9) for _ in range(rng.randint(4, 9))]) for _ in range(40)]
    # pin a few larger instances so the exhaustive completeness scan reaches n = 12
    vectors += [
        normalize([1] * 11),
        normalize([1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]),
        normalize([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]),
    ]
    checked = 0
    for lv in vectors:
        try:
            code = genetic_code(lv)
        except (NotGenericError, EmptySpaceError):
            continue
        checked += 1
        n = lv.n
        genes = code.genes
        # soundness: every gene is short and contains n
        for g in genes:
            assert code.n in g
            assert is_short(lv, g)
        # completeness: every short subset containing n is dominated by a gene
        for mask in range(1 << (n - 1)):
            s = IndexSet([n] + [i + 1 for i in range(n - 1) if (mask >> i) & 1])
            if is_short(lv, s):
                assert any(greedy_set_leq(s, g) for g in genes), s
        # incomparability
        for g1, g2 in combinations(genes, 2):
            assert not greedy_set_leq(g1, g2) and not greedy_set_leq(g2, g1)
    assert checked >= 20


def _outcome(fn, lv):
    """The code `fn` returns, or the type and message of what it raises."""
    try:
        return fn(lv)
    except (NotGenericError, EmptySpaceError) as exc:
        return type(exc), str(exc)


def _odd_total(raw):
    """`raw` with its last entry raised by one if needed to make the total odd.

    No subset of an odd total sums to half of it, so the vector is generic.
    """
    return raw if sum(raw) % 2 else raw[:-1] + [raw[-1] + 1]


def test_pruned_search_matches_gray_walk():
    rng = random.Random(20261018)
    vectors = []
    for n in range(3, 17):
        for _ in range(3):
            plain = _odd_total([rng.randint(1, 10 ** rng.randint(1, 6)) for _ in range(n)])
            vectors.append(plain)
            vectors.append([2 * x for x in plain])
            vectors.append([Fraction(2, 3) * x for x in plain])
            # equal lengths make moves to the next side cost nothing
            vectors.append(_odd_total([rng.choice((1, 2, 3, 5)) for _ in range(n)]))
            vectors.append([rng.randint(1, 12) for _ in range(n)])
        # equal and nearly equal sides: many moves cost nothing or little
        vectors.append([1] * n)
        for _ in range(3):
            vectors.append(_odd_total([1000 + rng.randint(0, 50) for _ in range(n)]))
    vectors.append(_odd_total([rng.randint(1, 10**6) for _ in range(18)]))
    # Several equal huge sides above a few tiny ones: once about half the
    # huge sides are taken, the rest are too long and are left out in one
    # jump, which reaches t = 0 when there is one tiny side.
    for tiny in range(1, 4):
        for huge in range(2, 9):
            vectors.append(_odd_total([rng.randint(1, 9) for _ in range(tiny)]) + [10**6] * huge)
    # The two longest sides sum to exactly the limit, so at the root side
    # n-1 equals the room left below it: too long, by no margin.
    room_exact = 0
    while room_exact < 12:
        rest = [rng.randint(1, 9) for _ in range(rng.randint(2, 12))]
        a = (sum(rest) + 1) // 2
        if a >= max(rest):
            vectors.append([*rest, a, sum(rest) + 1 - a])
            room_exact += 1
    kinds = set()
    for raw in vectors:
        lv = normalize(raw)
        expected = _outcome(genetic_code_by_gray_walk, lv)
        got = _outcome(genetic_code, lv)
        assert got == expected, raw
        if isinstance(got, GeneticCode):
            assert_well_formed(got)
        kinds.add(expected[0] if isinstance(expected, tuple) else GeneticCode)
    assert kinds == {GeneticCode, NotGenericError, EmptySpaceError}


def test_subset_sum_cut_matches_largest_completion_cut():
    # Beyond the Gray walk's reach: random, near-equal and small sides for
    # n = 17 to 23 against the search that cuts by exact subset sums.  These
    # draws were first checked against a search that bounded only the
    # largest completion; it visited a superset of the subset-sum search's
    # nodes and gave the same genes, so the faster search now stands in.
    rng = random.Random(20261019)
    for n in range(17, 24):
        for raw in (
            [rng.randint(1, 10**6) for _ in range(n)],
            [rng.randint(1000, 1050) for _ in range(n)],
            [rng.randint(1, 12) for _ in range(n)],
        ):
            lv = normalize(_odd_total(raw))
            assert _outcome(genetic_code, lv) == _outcome(genetic_code_by_subset_sums, lv), raw


def test_completion_tables_match_subset_sum_search():
    # The last levels read from completion tables against the search that
    # walks every level to the leaves.  The random draws stop at n = 25: at
    # n = 26 the walk alone takes 0.4-0.6 s on a 2-core host for the 43,000
    # to 59,000 genes of a draw.
    rng = random.Random(20261020)
    vectors = []
    # As the classify benchmark draws them: plain, doubled, scaled by 2/q.
    for n in range(17, 26):
        plain = _odd_total([rng.randint(1, 10**6) for _ in range(n)])
        factor = (1, 2, Fraction(2, rng.choice((3, 7))))[n % 3]
        vectors.append([factor * x for x in plain])
    for n in range(17, 28):
        vectors.append(_odd_total([rng.randint(1000, 1050) for _ in range(n)]))
        # equal sides: moves inside a table that cost nothing
        vectors.append(_odd_total([rng.choice((1, 2, 3, 5)) for _ in range(n)]))
        vectors.append([1] * n)
    # Up to n = 20 the tables reach the top level of the subset sums.
    for n in range(3, 21):
        vectors.append(_odd_total([rng.randint(1, 10 ** rng.randint(1, 6)) for _ in range(n)]))
        vectors.append([rng.randint(1, 12) for _ in range(n)])
    # Tiny sides below equal huge ones: the jump over the huge sides that
    # are too long lands inside the tables.
    for tiny in range(1, 9):
        huge = rng.randint(17 - tiny, 26 - tiny)
        vectors.append(_odd_total([rng.randint(1, 9) for _ in range(tiny)]) + [10**6] * huge)
    for raw in vectors:
        lv = normalize(raw)
        assert _outcome(genetic_code, lv) == _outcome(genetic_code_by_subset_sums, lv), raw


def test_genes_descend_from_n_in_brute_order():
    # `_genes` orders its descending tuples by one int key per gene; the
    # result must be the brute search's genes, each reversed, in its order.
    rng = random.Random(20261021)
    vectors = []
    for n in range(16, 21):  # as the classify benchmark draws them
        plain = _odd_total([rng.randint(1, 10**6) for _ in range(n)])
        factor = (1, 2, Fraction(2, rng.choice((3, 7))))[n % 3]
        vectors.append([factor * x for x in plain])
    for n in (17, 19, 21):
        vectors.append(_odd_total([rng.randint(1000, 1050) for _ in range(n)]))
    for n in range(5, 16, 2):
        vectors.append([1] * n)
        vectors.append(_odd_total([rng.choice((1, 2, 3, 5)) for _ in range(n)]))
    for n in range(3, 10):
        for _ in range(4):
            vectors.append(_odd_total([rng.randint(1, 12) for _ in range(n)]))
    distinct_sizes = set()
    for raw in vectors:
        lv = normalize(raw)
        if 2 * lv.lengths[-1] > sum(lv.lengths):
            continue
        genes = _genes(lv, max_n=30)
        for g in genes:
            assert g[0] == lv.n and all(a > b for a, b in zip(g, g[1:])), (raw, g)
        expected = [g.elements[::-1] for g in genetic_code_by_subset_sums(lv).genes]
        assert genes == expected, raw
        distinct_sizes.add(len({*map(len, genes)}))
    assert max(distinct_sizes) >= 3


def test_near_equal_27_gon_codes_within_budget():
    # Near-equal sides make every move cheap, so most branches that could
    # still take enough length never land within a move of the limit; the
    # subset-sum tables cut them.  Without the tables these took seconds.
    codes = []
    start = time.perf_counter()
    for seed in range(5):
        rng = random.Random(seed)
        raw = [0]
        while sum(raw) % 2 == 0:
            raw = [rng.randint(1000, 1050) for _ in range(27)]
        codes.append(genetic_code(normalize(raw)))
    assert time.perf_counter() - start < 1.0
    for code in codes:
        assert_well_formed(code)
        assert code.is_monogenic


def test_equilateral_31_gon_code_within_budget():
    # Equal sides make moving a member up to the next side free, and a set
    # with a free move is never maximal: the search must not walk such sets.
    start = time.perf_counter()
    code = genetic_code(normalize([1] * 31), max_n=31)
    assert time.perf_counter() - start < 1.0
    assert code_tuples(code) == [tuple(range(17, 32))]


def test_equilateral_31_gon_cuts_sets_with_a_free_move(monkeypatch):
    # A work count, not a clock: with the cut of children whose cheapest
    # fixed enlargement costs nothing, the search bisects 220 times; without
    # it, 65,703 times, which a time budget does not tell apart.
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return bisect_left(*args)

    monkeypatch.setattr("polyphi.lengths.bisect_left", counting)
    code = genetic_code(normalize([1] * 31), max_n=31)
    assert code_tuples(code) == [tuple(range(17, 32))]
    assert calls <= 1000


def test_gene_search_work_counts(monkeypatch):
    # Work counts, not clocks, for changes that keep every output.  Tables to
    # depth 9 let the search on an n = 20 vector, doubled as the classify
    # benchmark doubles a third of its vectors, read its leaves at the top
    # table level: 1,559 bisections, 2,461 with tables to depth 8.  The
    # equilateral 31-gon takes 220, 228 at depth 8.  Its walk meets sides
    # equal to the room left: jumping over them (`side >= room`) rather
    # than trying to take them (`side > room`) saves 9 bisections there.
    # Leaving a side out at no added cost (1,571 and 234), or keeping every
    # jump without its reach test (1,553 bisections, more nodes), moves
    # the counts too.
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return bisect_left(*args)

    rng = random.Random(20261036)
    doubled = normalize([2 * x for x in _odd_total([rng.randint(1, 10**6) for _ in range(20)])])
    equilateral = normalize([1] * 31)
    monkeypatch.setattr("polyphi.lengths.bisect_left", counting)
    assert len(genetic_code(doubled).genes) == 1815
    assert calls == 1559
    calls = 0
    assert code_tuples(genetic_code(equilateral, max_n=31)) == [tuple(range(17, 32))]
    assert calls == 220


def assert_well_formed(code):
    """The genes skip IndexSet's validation, so check what it would: each is
    the set the validating constructor builds, of ascending ints (not bools)
    ending in n, and the genes come in (size desc, lex) order."""
    for g in code.genes:
        assert g == IndexSet(g.elements), g
        assert all(type(e) is int for e in g.elements), g
        assert all(a < b for a, b in zip(g.elements, g.elements[1:])), g
        assert g.elements[-1] == code.n, g
    assert list(code.genes) == sorted(code.genes, key=lambda g: (-len(g), g.elements))


@st.composite
def generic_nonempty_vectors(draw):
    raw = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=3, max_size=12))
    lv = normalize(_odd_total(raw))
    ints = lv.scaled()
    assume(2 * ints[-1] < sum(ints))
    return lv


@given(generic_nonempty_vectors())
@settings(max_examples=150, deadline=None)
def test_genes_are_short_maximal_and_incomparable(lv):
    n = lv.n
    code = genetic_code(lv)
    assert_well_formed(code)
    genes = code.genes
    assert genes
    for g in genes:
        assert n in g and is_short(lv, g)
        absent = [j for j in range(1, n) if j not in g]
        enlargements = [IndexSet([*g, j]) for j in absent]
        enlargements += [
            IndexSet([*(e for e in g if e != i), i + 1]) for i in g if i + 1 in absent
        ]
        for bigger in enlargements:
            assert not is_short(lv, bigger), (g, bigger)
    for g1, g2 in combinations(genes, 2):
        assert not greedy_set_leq(g1, g2) and not greedy_set_leq(g2, g1)


# ------------------------------------------------------------- monogenic_gee

def test_monogenic_gee_pentagon():
    code = genetic_code(normalize([1, 1, 1, 1, 1]))
    assert monogenic_gee(code).a == (4,)


def test_monogenic_gee_partial_sum_differences():
    code = GeneticCode((IndexSet([2, 5, 6, 7]),), 7)
    assert monogenic_gee(code).a == (2, 3, 1)


def test_monogenic_gee_k0():
    code = GeneticCode((IndexSet([4]),), 4)
    assert monogenic_gee(code).a == ()


def test_genetic_code_refuses_a_gene_without_n():
    with pytest.raises(ValueError, match=r"gene IndexSet\(\{1, 3\}\) does not contain n=5"):
        GeneticCode((IndexSet([1, 3]),), 5)


def test_monogenic_gee_rejects_two_genes():
    lv = normalize([1, 1, 1, 2, 2, 2])
    code = genetic_code(lv)
    assert code_tuples(code) == brute_genetic_code(lv.lengths)
    assert len(code.genes) == 2
    with pytest.raises(NotMonogenicError):
        monogenic_gee(code)


# --------------------------------------------------------- enumerate_subgees

@pytest.mark.parametrize(
    "a, expected",
    [
        ((1,), [(), (1,)]),
        ((2,), [(), (1,), (2,)]),
        ((1, 1), [(), (1,), (2,), (1, 2)]),
        ((), [()]),
    ],
)
def test_enumerate_subgees_examples(a, expected):
    assert [s.elements for s in enumerate_subgees(GeeParams(a))] == expected


@pytest.mark.parametrize(
    "a",
    [
        (2,), (3,), (1, 1), (2, 1), (1, 2), (2, 2), (2, 3, 1), (1, 1, 1, 1),
        (4, 4), (2, 3, 3), (2, 2, 2, 2), (1, 2, 1, 2, 2), (3, 3, 3), (5, 4), (3, 2, 1, 2, 1),
    ],
)
def test_enumerate_subgees_matches_brute_force(a):
    got = [s.elements for s in enumerate_subgees(GeeParams(a))]
    assert got == brute_subgees(a)


def test_enumerate_subgees_matches_profile_construction():
    gees = [a for k in range(5) for a in product(range(1, 5), repeat=k)]
    gees += [(3, 3, 3, 3, 3), (12, 12, 12), (2,) * 7]
    for a in gees:
        gee = GeeParams(a)
        assert list(enumerate_subgees(gee)) == subgees_by_profile(gee), a


def test_enumerate_subgees_order_is_size_then_lex():
    out = [s.elements for s in enumerate_subgees(GeeParams((2, 2)))]
    assert out == sorted(out, key=lambda s: (len(s), s))
    assert out[0] == ()


# ---------------------------------------------------------------- realize_gee

def test_realize_singleton_gee():
    lv = realize_gee(GeeParams((4,)))
    assert lv.lengths == (1, 1, 1, 1, 1)


def test_realize_empty_gee():
    lv = realize_gee(GeeParams(()))
    assert lv.lengths == (1, 1, 1)
    assert code_tuples(genetic_code(lv)) == [(3,)]


@pytest.mark.parametrize("a", [(1,), (2,), (3,), (1, 1), (2, 1)])
def test_realize_round_trips(a):
    gee = GeeParams(a)
    lv = realize_gee(gee)
    code = genetic_code(lv)
    assert code.is_monogenic
    assert monogenic_gee(code) == gee


def test_realize_confirms_the_winner_beyond_the_size_guard():
    # n = 31 > DEFAULT_MAX_N: the search has proven the code, so the guard is not applied.
    lv = realize_gee(GeeParams((30,)), search_bound=200)
    assert lv.lengths == (1,) * 30 + (27,)
    assert monogenic_gee(genetic_code(lv, max_n=31)) == GeeParams((30,))


def test_realize_not_found_reports_bound():
    with pytest.raises(RealizationNotFoundError, match="8"):
        realize_gee(GeeParams((1, 1)), search_bound=8)


def test_realize_rejects_bad_bound():
    for bound in [0, True, 1.5, "3"]:
        with pytest.raises(ValueError, match="search bound must be positive"):
            realize_gee(GeeParams((1,)), search_bound=bound)


SMALL_GEES = [a for k in range(4) for a in product(range(1, 4), repeat=k)]


def _realized(search, a, bound):
    try:
        return search(GeeParams(a), bound).lengths
    except RealizationNotFoundError as exc:
        return str(exc)


def test_realize_matches_genetic_code_search():
    cases = [(a, 18) for a in SMALL_GEES] + [((2, 2, 2), 16), ((1, 2, 2, 2), 16)]
    # Unrealizable gees at bounds where the prefix cuts drop most tuples.
    cases += [((2, 2, 2), 24), ((1, 2, 2, 2), 22), ((2, 2, 2, 2), 22)]
    for a, bound in cases:
        assert _realized(realize_gee, a, bound) == _realized(realize_by_genetic_code, a, bound), a


def test_realize_matches_genetic_code_search_on_every_small_gee():
    # All 85 gees with k <= 3 and a_i <= 4.
    for a in (a for k in range(4) for a in product(range(1, 5), repeat=k)):
        assert _realized(realize_gee, a, 20) == _realized(realize_by_genetic_code, a, 20), a


def test_least_undominated_sets_are_complete():
    for a in (a for k in range(4) for a in product(range(1, 3), repeat=k)):
        gee = GeeParams(a)
        for n in range(gee.span + 1, gee.span + gee.k + 3):
            least = [s for s in _least_undominated(gee) if s[-1] < n]
            for s in least:
                assert s[-1] <= n - 1 and not brute_set_leq(s, gee.prefix_sums), (a, n, s)
            for r in range(n):
                for s in combinations(range(1, n), r):
                    if not brute_set_leq(s, gee.prefix_sums):
                        assert any(brute_set_leq(t, s) for t in least), (a, n, s)


def _window(gee):
    """The side counts n that these tests try for the gee, n_min = max(3,
    span+1) through n_min + k + 2, before `_certified_window` narrows them.
    `realize_gee` has no window: its loop ends by proof."""
    n_min = max(3, gee.span + 1)
    return range(n_min, n_min + gee.k + 3)


def test_least_undominated_keeps_only_minimal_sets():
    # Up to k = 6, where the O(k^2) list holds the most sets with a head
    # 1, ..., j-1 that the library no longer lists.
    gees = [
        *(a for k in range(6) for a in product(range(1, 4), repeat=k)),
        *product(range(1, 3), repeat=6),
    ]
    for a in gees:
        gee = GeeParams(a)
        for n in _window(gee):
            kept = [s for s in _least_undominated(gee) if s[-1] < n]
            unreduced = least_undominated_unreduced(gee, n)
            assert set(kept) <= set(unreduced), (a, n)
            for s, t in combinations(kept, 2):
                assert not greedy_set_leq(s, t) and not greedy_set_leq(t, s), (a, n, s, t)
            for s in unreduced:
                if s not in kept:
                    assert any(greedy_set_leq(t, s) for t in kept), (a, n, s)


def test_prefix_walk_yields_exactly_the_filtered_tuples():
    # Over the minimal escape sets, the walk yields in lex order exactly the
    # sorted tuples on which the gene is short and every one of the O(k^2)
    # listed escape sets is long: its cuts drop prefixes, never vectors.
    for a in SMALL_GEES:
        gee = GeeParams(a)
        for n in _window(gee):
            gene = IndexSet([*gee.gee(), n])
            least = [s for s in _least_undominated(gee) if s[-1] < n]
            tables = _prefix_tables(weight_rows(n, gene, least))
            escapes = [(*s, n) for s in least_undominated_unreduced(gee, n)]
            for total in range(n, 21):
                passing = [
                    p
                    for p in ascending_tuples(n, total)
                    if 2 * sum(p[j - 1] for j in gene) < total
                    and all(2 * sum(p[j - 1] for j in s) > total for s in escapes)
                ]
                assert list(_passing_vectors(n, total, tables)) == passing, (a, n, total)


def _rows(n, gene, escapes):
    """The weights over p_1..p_n of `_prefix_tables`' rows: the gene, each
    escape set S + {n}, and each S + {n} against the gene, the sum of those
    two rows."""
    gene_row = [-(i in gene) for i in range(1, n + 1)]
    escape_rows = [[int(i in s or i == n) for i in range(1, n + 1)] for s in escapes]
    return [gene_row, *escape_rows, *(list(map(int.__add__, u, gene_row)) for u in escape_rows)]


def _kept_prefixes(n, total, tables, margins):
    """The prefixes of length 1..n-2 on which, at each position, every row's
    bound from `tables` reaches its margin, counted by length, and the
    vectors whose every row reaches it.  The bound is taken in fractions,
    not floored."""
    kept, leaves = Counter(), []
    prefixes = [((), [-m for m in margins])]  # parts, and row sums minus margins
    while prefixes:
        parts, sums = prefixes.pop()
        kept[len(parts)] += 1
        q, rest = len(parts) + 1, total - sum(parts)
        entries = tables[q - 1]
        for w in range(parts[-1] if parts else 1, rest // (n - q + 1) + 1):
            r = rest - (n - q + 1) * w
            bounds = (s + w * U + Fraction(r * b, m) for s, (_, U, b, m) in zip(sums, entries))
            if min(bounds) < 0:
                continue
            if q == n - 1:
                leaves.append((*parts, w, rest - w))
            else:
                prefixes.append(((*parts, w), [s + u * w for s, (u, *_) in zip(sums, entries)]))
    del kept[0]
    return kept, sorted(leaves)


def test_row_bound_is_the_largest_completion():
    # At position q, a row's entry (u_q, U_q, best, length) bounds what
    # p_q..p_n add to it when p_q = w: w*U_q + R*best/length, with R = rest -
    # (n-q+1)*w, is at least the largest value over the sorted integer
    # completions, and equals it at q = n-1 and whenever R is a multiple of
    # lcm(1..n-q), where every corner of the simplex is an integer
    # completion.  The walk visits exactly the prefixes on which every row's
    # bound, in fractions, reaches its margin, and yields their leaves.  The
    # gees with a part 4 give the gene row slopes above 1, where a floor
    # rounded the wrong way admits one value too many.
    class Reads(list):
        def __getitem__(self, q):
            reads[q] += 1
            return list.__getitem__(self, q)

    for a in SMALL_GEES + [a for k in (1, 2) for a in product(range(1, 5), repeat=k) if 4 in a]:
        gee = GeeParams(a)
        least = _least_undominated(gee)
        for n in (n for n in _window(gee) if n <= 7):
            gene = [*gee.gee(), n]
            escapes = [s for s in least if s[-1] < n]
            tables = _prefix_tables(weight_rows(n, IndexSet(gene), escapes))
            rows = _rows(n, gene, escapes)
            assert [[entry[0] for entry in t] for t in tables] == [list(u) for u in zip(*rows)][:-1]
            for q, t in enumerate(tables, start=1):
                for u, (u_q, U, best, length) in zip(rows, t):
                    for rest in range(n - q + 1, 21):
                        for w in range(1, rest // (n - q + 1) + 1):
                            r = rest - (n - q + 1) * w
                            bound = w * U + Fraction(r * best, length)
                            largest = max(
                                u_q * w + sum(map(int.__mul__, u[q:], later))
                                for later in ascending_tuples(n - q, rest - w, w)
                            )
                            assert bound >= largest, (a, n, u, q, rest, w)
                            if q == n - 1 or r % math.lcm(*range(1, n - q + 1)) == 0:
                                assert bound == largest, (a, n, u, q, rest, w)
            for total in range(n, 21):
                e = len(escapes)
                margins = [1 - (total + 1) // 2, *[total // 2 + 1] * e, *[2 - total % 2] * e]
                kept, leaves = _kept_prefixes(n, total, tables, margins)
                reads = Counter()
                assert list(_passing_vectors(n, total, Reads(tables))) == leaves, (a, n, total)
                del reads[0]  # the root, and the walk's read of its row count
                assert reads == kept, (a, n, total)


def _certified_window(gee):
    """The least and largest n of `_window(gee)` that two domination
    certificates leave, decided with `greedy_set_leq`: n_min steps up while
    {1..n-1} minus the gee is dominated by gee + {n}, where the LP is
    infeasible; n_max is the larger top of any two minimal escape sets that
    the gee taken twice dominates, if that is below the end of the window.
    Such a top is at most the span, so then the window is empty: that is
    `realize_gee`'s test on the gee."""
    g = gee.prefix_sums
    n_min = _window(gee).start
    while greedy_set_leq([i for i in range(1, n_min) if i not in g], [*g, n_min]):
        n_min += 1
    tops = [
        max(s[-1], t[-1])
        for s, t in combinations(_least_undominated(gee), 2)
        if greedy_set_leq(s + t, g + g)
    ]
    return n_min, min([_window(gee)[-1], *tops])


def test_ruled_out_side_counts_have_no_passing_vector():
    gees = SMALL_GEES + list(product(range(1, 3), repeat=4))
    dropped = 0
    for a in gees:
        gee = GeeParams(a)
        n_min, n_max = _certified_window(gee)
        assert n_max == _window(gee)[-1] or n_max < n_min, a
        assert isinstance(_realized(realize_gee, a, 160), str) == (n_max < n_min), a
        for n in (n for n in _window(gee) if not n_min <= n <= n_max):
            dropped += 1
            gene = IndexSet([*gee.gee(), n])
            escapes = [(*s, n) for s in least_undominated_unreduced(gee, n)]
            for total in range(n, 21):
                assert not any(
                    2 * sum(p[j - 1] for j in gene) < total
                    and all(2 * sum(p[j - 1] for j in s) > total for s in escapes)
                    for p in ascending_tuples(n, total)
                ), (a, n, total)
            least = [s for s in _least_undominated(gee) if s[-1] < n]
            tables = _prefix_tables(weight_rows(n, gene, least))
            for total in range(n, 41):
                assert next(_passing_vectors(n, total, tables), None) is None, (a, n, total)
    assert dropped == 161


def test_pair_certificate_fires_exactly_when_every_lp_is_infeasible():
    # The pair certificate is the other reader of `_least_undominated`: on
    # the 341 gees with k <= 4 and a_i <= 4 it refuses a gee exactly when
    # the LP of every side count of `_window` is infeasible, and otherwise
    # one of the first three side counts has a feasible LP.  `pair_sweep.py`
    # runs the same check on the larger boxes.
    gees = (a for k in range(5) for a in product(range(1, 5), repeat=k))
    assert pair_certificate_sweep(gees) == 240


def test_kept_side_counts_have_a_passing_vector():
    # On the 39 gees with k = 1..3 and a_i <= 3 the certificates are decisive:
    # every side count they keep is realized at some total <= 160.
    kept = 0
    for a in (a for a in SMALL_GEES if a):
        gee = GeeParams(a)
        least = _least_undominated(gee)
        n_min, n_max = _certified_window(gee)
        for n in range(n_min, n_max + 1):
            kept += 1
            gene = IndexSet([*gee.gee(), n])
            tables = _prefix_tables(weight_rows(n, gene, [s for s in least if s[-1] < n]))
            assert any(
                next(_passing_vectors(n, total, tables), None) for total in range(n, 161)
            ), (a, n)
    assert kept == 115


UNREALIZABLE = [(2,) * k for k in range(3, 9)] + [(1, 2, 2, 2)]


@pytest.mark.parametrize("a", UNREALIZABLE)
def test_unrealizable_gees_are_refused_before_any_walk(a, monkeypatch):
    # The certificate on the gee refuses these before any LP, table or walk.
    def walk(*args):
        raise AssertionError("the certificate leaves no side count to try")

    monkeypatch.setattr("polyphi.lengths.least_total_carried", walk)
    monkeypatch.setattr("polyphi.lengths._prefix_tables", walk)
    monkeypatch.setattr("polyphi.lengths._passing_vectors", walk)
    for bound in range(19, 61):
        message = f"no integer length vector with total <= {bound} realizes gee {a}"
        with pytest.raises(RealizationNotFoundError) as exc:
            realize_gee(GeeParams(a), bound)
        assert str(exc.value) == message


def least_total(n, gene, escapes, cutoff):
    """The LP's ceiling from `least_total_carried` on the rows of the gene
    and the escape sets at side count n, without the carry."""
    return least_total_carried(weight_rows(n, gene, escapes), cutoff)[0]


def test_realize_builds_tables_only_for_kept_side_counts(monkeypatch):
    # Tables are built only for side counts the certificates keep, in
    # increasing order, and exactly for those whose LP bound is below the
    # least passing total of every smaller side count (or the bound, 18).
    built = []

    def counting(rows):
        built.append(len(rows[0]))
        return _prefix_tables(rows)

    monkeypatch.setattr("polyphi.lengths._prefix_tables", counting)
    for a in SMALL_GEES:
        gee = GeeParams(a)
        least = _least_undominated(gee)
        built.clear()
        _realized(realize_gee, a, 18)
        n_min, n_max = _certified_window(gee)
        kept = range(n_min, min(n_max, 18) + 1)
        assert set(built) <= set(kept), a
        best, expected = 19, []
        for n in kept:
            gene = IndexSet([*gee.gee(), n])
            escapes = [s for s in least if s[-1] < n]
            bound = least_total(n, gene, escapes, 10**6)
            if bound is not None and bound < best:
                expected.append(n)
            tables = _prefix_tables(weight_rows(n, gene, escapes))
            best = next((t for t in range(n, best) if next(_passing_vectors(n, t, tables), None)), best)
        assert built == expected, a


def test_least_total_matches_the_fraction_simplex():
    # Every side count of the window, the ones the certificates drop too:
    # the bound is never above the ceiling of the LP minimum and equals it
    # when that is below the cutoff; otherwise it reaches the cutoff or, on
    # an infeasible LP, may come out None.
    for a in SMALL_GEES:
        gee = GeeParams(a)
        least = _least_undominated(gee)
        for n in _window(gee):
            gene = IndexSet([*gee.gee(), n])
            escapes = [s for s in least if s[-1] < n]
            exact = least_total_by_simplex(n, gene, escapes)
            ceiling = 10**6 if exact is None else math.ceil(exact)
            for cutoff in range(n, min(ceiling, 40) + 2):
                bound = least_total(n, gene, escapes, cutoff)
                if ceiling < cutoff:
                    assert bound == ceiling, (a, n, cutoff)
                else:
                    assert bound is None or cutoff <= bound <= ceiling, (a, n, cutoff)
            assert least_total(n, gene, escapes, 10**6) == (None if exact is None else ceiling)


def test_lp_dual_values_bound_by_weak_duality_and_carry_to_later_side_counts():
    # The last tableau of the LP, at several cutoffs, the infeasible LPs
    # too, holds multipliers y >= 0 and the reduced costs under them, and
    # its bound is theirs on the brute rows; at the optimum that bound is
    # the LP minimum.  Carried to each later n of the window, with y = 0 on
    # the escape sets that join, the four integers give the least brute
    # reduced cost and bound, and that bound never exceeds the minimum.  Of
    # the carried multipliers, 270 leave a reduced cost below 0 at a later n.
    # The reduced cost of x_n is d + delta, which realize's stop relies on.
    # A flipped delta, a dropped 1 + delta term or y read from the x columns
    # in `_lp` each fail this test.
    verdicts = Counter()
    for a in SMALL_GEES + list(product(range(1, 4), repeat=4)):
        gee = GeeParams(a)
        least = _least_undominated(gee)
        window = _window(gee)
        rows = {n: ([*gee.gee(), n], [s for s in least if s[-1] < n]) for n in window}
        n_min, n_max = _certified_window(gee)  # the feasible side counts
        exact = {n: least_total_by_simplex(n, *rows[n]) for n in range(n_min, n_max + 1)}
        for n in window:
            gene, escapes = rows[n]
            for cutoff in (n, n + 6, 10**6):
                value, dual, d = least_value(_tableau(weight_rows(n, gene, escapes)), cutoff)
                bound, *costs = [Fraction(v, d) for v in dual[:n + 1]]
                y = [Fraction(v, d) for v in dual[n + 1:]]
                # x_n's column reads t = 1, -1 and 1, so r_n = d + delta.
                assert dual[n] == d + dual[n + 1] - sum(dual[n + 2:]), (a, n, cutoff)
                assert reduced_costs_by_rows(n, gene, escapes, y) == costs, (a, n, cutoff)
                assert dual_bound_by_rows(n, gene, escapes, y) == bound, (a, n, cutoff)
                if value is not None and value < cutoff:
                    assert bound == exact[n], (a, n, cutoff)
                start, carry = least_total_carried(weight_rows(n, gene, escapes), cutoff)
                assert start == value, (a, n, cutoff)
                joined = dict(zip(escapes, y[1:]))
                for later in range(n + 1, window.stop):
                    carried, cost, _, d = carry = next_side_count(carry)
                    after, joining = rows[later]
                    multipliers = [y[0], *(joined.get(s, 0) for s in joining)]
                    least_cost = min(reduced_costs_by_rows(later, after, joining, multipliers))
                    assert Fraction(cost, d) == least_cost, (a, n, cutoff, later)
                    check = dual_bound_by_rows(later, after, joining, multipliers)
                    assert (cost >= 0) == (check is not None), (a, n, cutoff, later)
                    verdicts[check is not None] += 1
                    if check is not None:
                        assert Fraction(carried, d) == check, (a, n, cutoff, later)
                        assert later not in exact or check <= exact[later], (a, n, cutoff, later)
    assert verdicts == {True: 6381, False: 270}


def test_realize_lp_work_counts(monkeypatch):
    # Work counts, not clocks, for a cut that changes no output: over the 40
    # gees with k <= 3 and a_i <= 3 at bound 40, realize solves 79 LPs with
    # 89 pivots in all.  An LP at every side count of the window, stopped at
    # the least total found so far, takes 162 LPs and 276 pivots.
    lps = pivots = 0

    def solving(*args):
        nonlocal lps
        lps += 1
        return least_total_carried(*args)

    def pivoting(*args):
        nonlocal pivots
        pivots += 1
        return _pivot(*args)

    monkeypatch.setattr("polyphi.lengths.least_total_carried", solving)
    monkeypatch.setattr("polyphi._lp._pivot", pivoting)
    for a in SMALL_GEES:
        _realized(realize_gee, a, 40)
    assert (lps, pivots) == (79, 89)


def test_realize_stops_only_where_no_later_side_count_can_win(monkeypatch):
    # Realize's side-count loop ends by proof, not by a window: on the 57
    # gees with k <= 4 and a_i <= 3 that the pair certificate does not
    # refuse, at bound 17 (11 realized), every n from where the loop stopped
    # up to the bound has an LP minimum, by the Fraction simplex, whose
    # ceiling is at least the winner's total (18 for a refusal), or no
    # vector at all.  The loop solves an LP at every n before its stop, so
    # the stop is n_min plus the count of LPs.  The Fraction simplex sets
    # the cost: bound 20 took about 2 s, and bound 40 over 4 s.
    lps = 0

    def solving(*args):
        nonlocal lps
        lps += 1
        return least_total_carried(*args)

    monkeypatch.setattr("polyphi.lengths.least_total_carried", solving)
    kept = realized = 0
    for a in (a for k in range(5) for a in product(range(1, 4), repeat=k)):
        gee = GeeParams(a)
        g, least = gee.prefix_sums, _least_undominated(gee)
        if any(greedy_set_leq(s + t, g + g) for s, t in combinations(least, 2)):
            continue
        kept += 1
        lps = 0
        winner = _realized(realize_gee, a, 17)
        best = sum(winner) if isinstance(winner, tuple) else 18
        realized += best <= 17
        for n in range(max(3, gee.span + 1) + lps, 18):
            exact = least_total_by_simplex(n, [*g, n], [s for s in least if s[-1] < n])
            assert exact is None or math.ceil(exact) >= best, (a, n)
    assert (kept, realized) == (57, 11)


def test_least_total_is_infeasible_exactly_where_the_certificates_drop():
    dropped = kept = 0
    for a in SMALL_GEES + list(product(range(1, 4), repeat=4)):
        gee = GeeParams(a)
        least = _least_undominated(gee)
        n_min, n_max = _certified_window(gee)
        for n in _window(gee):
            gene = IndexSet([*gee.gee(), n])
            bound = least_total(n, gene, [s for s in least if s[-1] < n], 10**6)
            if n_min <= n <= n_max:
                kept += 1
                assert bound is not None, (a, n)
            else:
                dropped += 1
                assert bound is None, (a, n)
    assert (dropped, kept) == (528, 261)


def test_least_total_is_the_least_passing_total():
    # On the 115 side counts the certificates keep for k = 1..3 and a_i <= 3
    # the LP bound is tight: a vector passes at it and none below it.
    kept = 0
    for a in (a for a in SMALL_GEES if a):
        gee = GeeParams(a)
        least = _least_undominated(gee)
        n_min, n_max = _certified_window(gee)
        for n in range(n_min, n_max + 1):
            kept += 1
            gene = IndexSet([*gee.gee(), n])
            escapes = [s for s in least if s[-1] < n]
            bound = least_total(n, gene, escapes, 10**6)
            tables = _prefix_tables(weight_rows(n, gene, escapes))
            assert next(_passing_vectors(n, bound, tables), None), (a, n)
            below = (next(_passing_vectors(n, t, tables), None) for t in range(n, bound))
            assert not any(below), (a, n)
    assert kept == 115


@pytest.mark.parametrize("a", [(2, 2, 2), (1, 2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2), (2,) * 6])
def test_realize_matches_genetic_code_search_on_unrealizable_gees(a):
    # Gees no vector realizes (README.md).  The search that computes every
    # candidate's code finds none up to total 26, so none up to any bound
    # below it either: one search serves every bound from 19 to 26.
    unfound = f"no integer length vector with total <= {{}} realizes gee {a}"
    assert _realized(realize_by_genetic_code, a, 26) == unfound.format(26)
    for bound in range(19, 27):
        assert _realized(realize_gee, a, bound) == unfound.format(bound)


def test_realize_raises_when_the_confirming_code_differs(monkeypatch):
    # The winner's code is recomputed; a mismatch is a bug, not a miss.
    def wrong(lengths, **kwargs):
        return GeneticCode((IndexSet([lengths.n]),), lengths.n)

    monkeypatch.setattr("polyphi.lengths.genetic_code", wrong)
    with pytest.raises(AssertionError, match=r"does not realize gee \(2, 1\)"):
        realize_gee(GeeParams((2, 1)))


def test_realize_computes_one_genetic_code_per_realized_gee(monkeypatch):
    calls = []

    def counting(lengths, **kwargs):
        calls.append(lengths)
        return genetic_code(lengths, **kwargs)

    monkeypatch.setattr("polyphi.lengths.genetic_code", counting)
    realized = sum(isinstance(_realized(realize_gee, a, 18), tuple) for a in SMALL_GEES)
    assert realized and len(calls) == realized


# ------------------------------------------------------- subgee criterion

@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=3),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_subgee_criterion_random(increments, data):
    gee = GeeParams(tuple(increments))
    span = gee.span
    subset = IndexSet(
        data.draw(st.frozensets(st.integers(min_value=1, max_value=max(span, 1)), max_size=span))
        if span
        else ()
    )
    assert is_subgee_profile(block_counts(subset, gee)) == greedy_set_leq(subset, gee.gee())
