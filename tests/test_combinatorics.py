"""Unit tests for the combinatorial kernel."""

from __future__ import annotations

import random
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, strategies as st

from polyphi import (
    GeeParams,
    IndexSet,
    binom_parity,
    block_counts,
    compositions,
    is_subgee_profile,
)
from polyphi.errors import OutOfRangeError

from brute import (
    brute_set_leq,
    exact_binomial,
    fillings_by_filter,
    greedy_set_leq,
    suffix_fillings,
)


# ---------------------------------------------------------------- IndexSet

def test_index_set_sorts_and_stores_tuple():
    s = IndexSet([6, 1, 3])
    assert s.elements == (1, 3, 6)
    assert list(s) == [1, 3, 6]
    assert len(s) == 3
    assert 3 in s and 2 not in s


def test_index_set_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        IndexSet([2, 2])


@pytest.mark.parametrize("bad", [0, -1, True, "3", 1.5])
def test_index_set_rejects_non_positive_ints(bad):
    with pytest.raises(ValueError):
        IndexSet([bad])


def test_index_set_equality_is_set_equality():
    assert IndexSet([3, 1]) == IndexSet([1, 3])
    assert hash(IndexSet([3, 1])) == hash(IndexSet([1, 3]))
    assert IndexSet() != IndexSet([1])
    assert IndexSet([1]).__eq__((1,)) is NotImplemented
    assert IndexSet([1]) != (1,) and not IndexSet([1]) == (1,)


def test_index_set_descending():
    assert IndexSet([2, 5, 6]).descending() == (6, 5, 2)


# ---------------------------------------------------------------- GeeParams

def test_gee_params_basic():
    a = GeeParams((2, 3, 1))
    assert a.k == 3
    assert a.span == 6
    assert a.prefix_sums == (2, 5, 6)
    assert a.gee() == IndexSet([2, 5, 6])


def test_gee_params_empty():
    a = GeeParams(())
    assert a.k == 0 and a.span == 0
    assert a.gee() == IndexSet()


@pytest.mark.parametrize("bad", [(0,), (-1,), (1, 0), (True,)])
def test_gee_params_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        GeeParams(bad)


@given(st.lists(st.integers(min_value=1, max_value=9), max_size=5))
def test_gee_round_trip(increments):
    a = GeeParams(tuple(increments))
    assert GeeParams.from_gee(a.gee()) == a


# ------------------------------------------------------------ binom_parity

@pytest.mark.parametrize(
    "m, r, expected",
    [
        (5, 2, 0),   # binomial(5,2) = 10
        (7, 3, 1),   # binomial(7,3) = 35
        (0, 0, 1),   # empty product
        (-1, 4, 1),  # binomial(-1,r) = (-1)^r
        (3, 5, 0),   # lower index exceeds upper
        (-2, 3, 0),  # binomial(-2,3) = -4
    ],
)
def test_binom_parity_examples(m, r, expected):
    assert binom_parity(m, r) == expected


def test_binom_parity_matches_exact_binomial_on_all_integers():
    for m in range(-20, 21):
        for r in range(13):
            assert binom_parity(m, r) == exact_binomial(m, r) % 2, (m, r)


def test_binom_parity_rejects_negative_lower_index():
    with pytest.raises(ValueError):
        binom_parity(3, -1)


# ------------------------------------- greedy_set_leq, a helper of the tests

@pytest.mark.parametrize(
    "s, t, expected",
    [
        ((1, 2), (2, 3), True),
        ((3,), (2,), False),
        ((), (5, 9), True),
        ((), (), True),
        ((2, 3), (5,), False),
        ((1, 2, 3), (3, 4, 5), True),
    ],
)
def test_set_leq_examples(s, t, expected):
    assert greedy_set_leq(IndexSet(s), IndexSet(t)) is expected


def test_set_leq_agrees_with_exhaustive_matching_up_to_seven():
    universe = range(1, 8)
    subsets = [()]
    for r in range(1, 8):
        subsets.extend(combinations(universe, r))
    for s in subsets:
        for t in subsets:
            assert greedy_set_leq(IndexSet(s), IndexSet(t)) == brute_set_leq(s, t), (s, t)


subset_strategy = st.frozensets(st.integers(min_value=1, max_value=9), max_size=6)


@given(subset_strategy, subset_strategy)
def test_set_leq_agrees_with_exhaustive_matching_random(s, t):
    assert greedy_set_leq(IndexSet(s), IndexSet(t)) == brute_set_leq(s, t)


@given(subset_strategy, subset_strategy, subset_strategy)
def test_set_leq_transitive(s, t, u):
    s, t, u = IndexSet(s), IndexSet(t), IndexSet(u)
    if greedy_set_leq(s, t) and greedy_set_leq(t, u):
        assert greedy_set_leq(s, u)


@given(subset_strategy, subset_strategy)
def test_set_leq_antisymmetric(s, t):
    s, t = IndexSet(s), IndexSet(t)
    if greedy_set_leq(s, t) and greedy_set_leq(t, s):
        assert s == t


# ------------------------------------------------------------ block_counts

@pytest.mark.parametrize(
    "j, a, expected",
    [
        ((1, 3, 6), (2, 3, 1), (1, 1, 1)),
        ((), (2, 3, 1), (0, 0, 0)),
        ((5, 6), (2, 3, 1), (0, 1, 1)),
        ((1,), (1,), (1,)),
        ((), (), ()),
    ],
)
def test_block_counts_examples(j, a, expected):
    assert block_counts(IndexSet(j), GeeParams(a)) == expected


def test_block_counts_out_of_range_names_offender():
    with pytest.raises(OutOfRangeError, match="7"):
        block_counts(IndexSet([1, 7]), GeeParams((2, 3, 1)))


@given(st.frozensets(st.integers(min_value=1, max_value=6), max_size=6))
def test_block_counts_sum_to_subset_size(j):
    a = GeeParams((2, 3, 1))
    assert sum(block_counts(IndexSet(j), a)) == len(j)


def test_block_counts_independent_of_presentation():
    a = GeeParams((2, 3, 1))
    assert block_counts(IndexSet([6, 1, 3]), a) == block_counts(IndexSet([1, 3, 6]), a)


# ------------------------------------------------------- is_subgee_profile

@pytest.mark.parametrize(
    "profile, expected",
    [
        ((2, 1, 0), True),
        ((0, 2, 1), False),  # last two entries sum to 3 > 2
        ((), True),
        ((1, 1, 1), True),
        ((0, 0, 2), False),
        ((3, 0, 0), True),
        ((4, 0, 0), False),
    ],
)
def test_is_subgee_profile(profile, expected):
    assert is_subgee_profile(profile) is expected


# ------------------------------------------------------------ compositions

def test_compositions_exhaustive_small():
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert list(compositions(1, 0)) == []
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(-1, 2)) == []


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=4))
def test_compositions_complete_sorted_unique(total, k):
    out = list(compositions(total, k))
    assert out == sorted(out)
    assert len(set(out)) == len(out)
    assert all(sum(t) == total and len(t) == k and min(t, default=0) >= 0 for t in out)
    expected = comb(total + k - 1, k - 1) if k > 0 else (1 if total == 0 else 0)
    assert len(out) == expected


# ------------------------------------------- suffix_fillings (brute oracle)

@pytest.mark.parametrize(
    "base, caps, budget, expected",
    [
        ((0, 0, 2), (2, 2, 2), 0, []),  # base fails the suffix condition
        ((0, 2), (1, 1), 0, []),
        ((0, 0, 0), (0, 0, 0), 0, [(0, 0, 0)]),  # zero caps
        ((0, 0, 0), (0, 0, 0), 1, []),
        ((0, 0, 0), (0, 0, 2), 2, []),
        ((0, 0), (2, 2), -1, []),  # negative budget
        ((1, 1, 1), (3, 3, 3), 1, []),  # negative slack
        ((0, 0, 1), (1, 1, 1), 3, []),
        ((), (), 0, [()]),  # k = 0
        ((), (), 1, []),
        ((), (), -1, []),
        ((0,), (1,), 1, [(1,)]),
        ((0,), (0,), 1, []),
        ((0, 0, 0), (3, 3, 3), 3, [(1, 1, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0), (3, 0, 0)]),
    ],
)
def test_suffix_fillings_cases(base, caps, budget, expected):
    assert list(suffix_fillings(base, caps, budget)) == expected
    assert fillings_by_filter(base, caps, budget) == expected


def test_suffix_fillings_match_filter():
    # Every base, caps and budget with k <= 3 and entries <= 3, then a seeded
    # sample at k = 4 and 5, where the full sweep would take minutes.
    cases = [
        (base, caps, budget)
        for k in range(4)
        for base in product(range(4), repeat=k)
        for caps in product(range(4), repeat=k)
        for budget in range(-1, k + 2)
    ]
    rng = random.Random(12)
    for _ in range(3000):
        k = rng.randint(4, 5)
        base = tuple(rng.choice((0, 0, 0, 1, 1, 2, 3)) for _ in range(k))
        caps = tuple(rng.randint(0, 3) for _ in range(k))
        cases.append((base, caps, rng.randint(-1, k + 1)))
    for base, caps, budget in cases:
        expected = fillings_by_filter(base, caps, budget)
        assert list(suffix_fillings(base, caps, budget)) == expected, (base, caps, budget)

