"""Unit tests for the duality functional and its independent check paths."""

from __future__ import annotations

import random
from itertools import product
from math import comb

import pytest

from polyphi import (
    GeeParams,
    IndexSet,
    TopMonomial,
    admissible_summands,
    binom_parity,
    block_counts,
    closed_form_k3,
    compositions,
    count_disjoint_subgees,
    enumerate_subgees,
    is_subgee_profile,
    pairing_by_profile,
    pairing_set,
    pairing_table,
)
from polyphi import duality
from polyphi.duality import _summand_count, _suffixes
from polyphi.errors import InfeasibleProfileError

from brute import (
    brute_subgees,
    profile_sum_by_enumeration,
    summands_by_enumeration,
    subgee_profiles_by_filter,
    suffix_fillings,
    theta_of,
)


def all_profiles(k: int, cap: int):
    for r in range(cap + 1):
        yield from compositions(r, k)


# ---------------------------------------------------------------- TopMonomial

def test_top_monomial_validation():
    TopMonomial(IndexSet([1, 4]), 7)
    with pytest.raises(ValueError, match="top degree"):
        TopMonomial(IndexSet([1, 2, 3]), 5)  # r=3 > n-3=2
    with pytest.raises(ValueError, match="n-1"):
        TopMonomial(IndexSet([5]), 5)
    with pytest.raises(ValueError):
        TopMonomial(IndexSet(), 2)


# -------------------------------------------------------------------- pairing

def test_pairing_known_values():
    a222 = GeeParams((2, 2, 2))
    assert pairing_set(a222, IndexSet([3])) == 1       # profile (0,1,0)
    assert pairing_set(GeeParams((1,)), IndexSet()) == 0
    assert pairing_set(GeeParams((2,)), IndexSet()) == 1
    assert pairing_set(GeeParams(()), IndexSet()) == 1  # k=0 convention


def test_pairing_zero_beyond_span():
    assert pairing_set(GeeParams((1,)), IndexSet([2])) == 0
    assert pairing_set(GeeParams((2, 2)), IndexSet([5])) == 0


def test_pairing_zero_when_larger_than_block_count():
    # more subscripts than blocks can never be a subgee
    assert pairing_set(GeeParams((2,)), IndexSet([1, 2])) == 0


def test_admissible_summands_for_second_block_singleton():
    a = GeeParams((2, 2, 2))
    out = admissible_summands(a, (0, 1, 0))
    assert [b for b, _ in out] == [(1, 0, 1), (1, 1, 0), (2, 0, 0)]
    assert all(term == 1 for _, term in out)
    acc = 0
    for _, term in out:
        acc ^= term
    assert acc == pairing_by_profile(a, (0, 1, 0)) == 1


def test_top_class_rule_small():
    for a in [(1,), (3,), (1, 1), (2, 2), (2, 3, 1), (1, 1, 1, 1)]:
        gee = GeeParams(a)
        for j in enumerate_subgees(gee):
            if len(j) == gee.k:
                assert pairing_set(gee, j) == 1, (a, j)


def test_profile_class_invariance():
    rng = random.Random(99)
    for _ in range(200):
        k = rng.randint(1, 4)
        a = GeeParams(tuple(rng.randint(1, 4) for _ in range(k)))
        subgees = list(enumerate_subgees(a))
        j1 = rng.choice(subgees)
        profile = block_counts(j1, a)
        matches = [j for j in subgees if block_counts(j, a) == profile]
        j2 = rng.choice(matches)
        assert pairing_set(a, j1) == pairing_set(a, j2)


def test_non_subgee_vanishing():
    for a in [(2,), (1, 1), (2, 2), (2, 3, 1)]:
        gee = GeeParams(a)
        for mask in range(1 << gee.span):
            subset = IndexSet(i + 1 for i in range(gee.span) if (mask >> i) & 1)
            if not is_subgee_profile(block_counts(subset, gee)):
                assert pairing_set(gee, subset) == 0, (a, subset)


# --------------------------------------------------------- pairing_by_profile

def test_pairing_by_profile_values():
    assert pairing_by_profile(GeeParams((2, 2, 2)), (1, 1, 1)) == 1
    assert pairing_by_profile(GeeParams((2, 2, 2)), (0, 2, 0)) == 1
    assert pairing_by_profile(GeeParams((3, 2, 2)), (0, 0, 0)) == 0


def test_pairing_by_profile_matches_every_realization():
    for a in [(2, 1), (2, 2), (3, 1, 2)]:
        gee = GeeParams(a)
        for j in enumerate_subgees(gee):
            profile = block_counts(j, gee)
            assert pairing_by_profile(gee, profile) == pairing_set(gee, j)


def test_pairing_by_profile_infeasible():
    with pytest.raises(InfeasibleProfileError):
        pairing_by_profile(GeeParams((2, 2, 2)), (3, 0, 0))


def test_pairing_by_profile_bad_length():
    with pytest.raises(ValueError):
        pairing_by_profile(GeeParams((2, 2)), (1, 0, 0))


# ------------------------------------------- transfer DP against enumeration

def block_fitting_cases(max_k: int, max_a: int):
    """Every gee with k <= max_k and a_i <= max_a, with every profile that
    fits its blocks, subgee profile or not (|profile| > k included)."""
    for k in range(max_k + 1):
        for a in product(range(1, max_a + 1), repeat=k):
            gee = GeeParams(a)
            for profile in product(*(range(x + 1) for x in a)):
                yield gee, profile


def test_transfer_dp_and_pruned_summands_match_enumeration():
    # One enumeration per case serves all three checks: it dominates the
    # cost.  A profile missing from the table has no admissible B, so 0.
    tables = {}
    for gee, profile in block_fitting_cases(5, 3):
        expected = summands_by_enumeration(gee, profile)
        assert admissible_summands(gee, profile) == expected, (gee.a, profile)
        value = sum(term for _, term in expected) & 1
        assert pairing_by_profile(gee, profile) == value, (gee.a, profile)
        if gee not in tables:
            tables[gee] = pairing_table(gee)
        assert tables[gee].get(profile, 0) == value, (gee.a, profile)


def test_carried_term_walk_matches_enumeration():
    # The walk that carries each term down, beyond the k <= 5, a_i <= 3
    # sweep above: every gee with k <= 6 and a_i <= 3 at one seeded profile
    # that fits its blocks, and at its zero profile (Catalan-many B) for
    # k <= 5 and one gee in four at k = 6; and every profile with entries up
    # to 3, subgee profile or not, on one seeded gee that fits it.
    rng = random.Random(21)
    cases = []
    for k in range(7):
        for a in product(range(1, 4), repeat=k):
            cases.append((a, tuple(rng.randint(0, x) for x in a)))
            if k < 6 or rng.random() < 0.25:
                cases.append((a, (0,) * k))
        for profile in product(range(4), repeat=k):
            cases.append((tuple(max(c, rng.randint(1, 3)) for c in profile), profile))
    for a, profile in cases:
        gee = GeeParams(a)
        assert admissible_summands(gee, profile) == summands_by_enumeration(gee, profile), (a, profile)


def test_pairing_table_matches_per_profile_dp():
    # The values at k <= 5 and a_i <= 3 are checked against enumeration
    # above.  Here: the key sets there against the filter; against
    # `suffix_fillings`, a seeded sample of the 4,368 gees with k <= 6 and
    # a_i <= 4 outside that sweep and two seeded gees for each k = 7..10;
    # and seeded gees up to k = 12, whose tables reach about 50,000 rows,
    # on 200 sampled rows each.
    for k in range(6):
        for a in product(range(1, 4), repeat=k):
            gee = GeeParams(a)
            assert set(pairing_table(gee)) == set(subgee_profiles_by_filter(gee)), a
    rng = random.Random(22)
    wide = [a for k in range(1, 7) for a in product(range(1, 5), repeat=k) if max(a) == 4]
    gees = rng.sample(wide, 150)
    gees += [tuple(rng.randint(1, 4) for _ in range(k)) for k in range(7, 11) for _ in range(2)]
    for a in gees:
        assert set(pairing_table(GeeParams(a))) == subgee_fillings(a), a
    rng = random.Random(5)
    for k in range(6, 13):
        gee = GeeParams(tuple(rng.randint(1, 2) for _ in range(k)))
        table = pairing_table(gee)
        assert set(table) == subgee_fillings(gee.a), gee.a
        for profile in rng.sample(sorted(table), min(200, len(table))):
            assert table[profile] == pairing_by_profile(gee, profile), (gee.a, profile)


def subgee_fillings(a: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The subgee profiles: the fillings of the zero base under caps a_i."""
    return {x for r in range(len(a) + 1) for x in suffix_fillings((0,) * len(a), a, r)}


def test_pairing_table_at_k0_and_twos():
    assert pairing_table(GeeParams(())) == {(): 1}
    for k in range(1, 9):
        assert pairing_table(GeeParams((2,) * k))[(0,) * k] == catalan_is_odd(k), k


def catalan_is_odd(k: int) -> int:
    return int(((k + 1) & k) == 0)


def test_zero_profile_of_twos_is_catalan_parity():
    # With a = (2,)*k every term binom(b, b) is 1, so the value at the zero
    # profile counts the admissible B: the Catalan number C_k.
    for k in range(12):
        gee, zero = GeeParams((2,) * k), (0,) * k
        assert len(admissible_summands(gee, zero)) == comb(2 * k, k) // (k + 1)
        assert pairing_by_profile(gee, zero) == profile_sum_by_enumeration(gee, zero)
        assert pairing_by_profile(gee, zero) == catalan_is_odd(k), k


@pytest.mark.parametrize("k", [63, 127, 200])
def test_zero_profile_of_twos_at_large_k(k):
    # Enumeration would list C(2k-1, k-1) compositions here.
    assert pairing_by_profile(GeeParams((2,) * k), (0,) * k) == catalan_is_odd(k)


# ----------------------------------------------------- summand count and memo

def test_summand_count_matches_the_listed_summands():
    # The count depends on the profile alone, and every profile with entries
    # up to 2 fits a = (2,)*k, subgee profile or not.
    for k in range(8):
        gee = GeeParams((2,) * k)
        for profile in product(range(3), repeat=k):
            assert _summand_count(profile) == len(admissible_summands(gee, profile)), profile


def test_summand_count_at_the_zero_profile_is_catalan():
    for k in range(31):
        assert _summand_count((0,) * k) == comb(2 * k, k) // (k + 1), k


def test_tails_are_listed_once_per_budget_left(monkeypatch):
    # Each head joins the tails listed for the budget it leaves, at most
    # budget + 1 lists per call; listing them per head instead would make
    # thousands of lists here and change no output.
    budgets = []

    def counting(parities, profile, start, rest, lead):
        budgets.append(rest)
        return _suffixes(parities, profile, start, rest, lead)

    monkeypatch.setattr(duality, "_suffixes", counting)
    k = 12
    assert len(admissible_summands(GeeParams((2,) * k), (0,) * k)) == comb(2 * k, k) // (k + 1)
    assert len(budgets) == len(set(budgets)) <= k + 1, budgets


# -------------------------------------------------------------- closed forms

def test_closed_form_rows_at_222():
    a = GeeParams((2, 2, 2))
    expected = {
        (0, 0, 0): 1,
        (0, 0, 1): 0,
        (0, 1, 0): 1,
        (1, 0, 0): 1,
        (0, 1, 1): 1,
        (0, 2, 0): 1,
        (1, 0, 1): 0,
        (1, 1, 0): 1,
        (2, 0, 0): 1,
        (1, 1, 1): 1,
        (1, 2, 0): 1,
        (2, 0, 1): 1,
        (2, 1, 0): 1,
    }
    for profile, value in expected.items():
        assert closed_form_k3(a, profile) == value, profile


def test_closed_form_examples():
    assert closed_form_k3(GeeParams((2, 2, 2)), (1, 0, 1)) == 0
    assert closed_form_k3(GeeParams((2, 2, 2)), (2, 0, 0)) == 1
    assert closed_form_k3(GeeParams((1, 1, 1)), (0, 0, 0)) == 0


def test_closed_form_zero_outside_suffix_condition():
    assert closed_form_k3(GeeParams((4, 4, 4)), (0, 2, 1)) == 0
    assert closed_form_k3(GeeParams((4, 4, 4)), (0, 0, 2)) == 0


def test_closed_form_requires_three_blocks():
    with pytest.raises(ValueError):
        closed_form_k3(GeeParams((2, 2)), (0, 0))
    with pytest.raises(ValueError):
        closed_form_k3(GeeParams((2, 2, 2)), (True, 0, 0))
    with pytest.raises(InfeasibleProfileError):
        closed_form_k3(GeeParams((1, 1, 1)), (0, 2, 0))


def test_closed_form_agrees_with_general_formula_small():
    for a in product(range(1, 5), repeat=3):
        gee = GeeParams(a)
        for profile in all_profiles(3, 3):
            if not is_subgee_profile(profile):
                continue
            if any(c > ai for c, ai in zip(profile, a)):
                continue
            assert closed_form_k3(gee, profile) == pairing_by_profile(gee, profile), (
                a,
                profile,
            )


# ---------------------------------------------------- count_disjoint_subgees

def test_count_disjoint_examples():
    assert count_disjoint_subgees(GeeParams((2, 2)), (1, 0), (1, 1)) == 2
    assert count_disjoint_subgees(GeeParams((3, 1)), (0, 0), (0, 0)) == 1
    assert count_disjoint_subgees(GeeParams((2, 2)), (2, 0), (1, 0)) == 0


def test_count_disjoint_errors():
    with pytest.raises(InfeasibleProfileError):
        count_disjoint_subgees(GeeParams((2, 2)), (3, 0), (0, 0))
    with pytest.raises(ValueError):
        count_disjoint_subgees(GeeParams((2, 2)), (1, 0, 0), (0, 0))
    with pytest.raises(ValueError):
        count_disjoint_subgees(GeeParams((2, 2)), (True, 0), (0, 1))
    with pytest.raises(ValueError):
        count_disjoint_subgees(GeeParams((2, 2)), (0, 0), (0, True))


def test_count_disjoint_matches_brute_force_small():
    for a in [(2, 2), (2, 1), (3, 2)]:
        subgees = brute_subgees(a)
        k = len(a)
        for i in subgees:
            occupied = theta_of(i, a)
            by_profile: dict[tuple[int, ...], int] = {}
            for j in subgees:
                if set(i) & set(j):
                    continue
                key = theta_of(j, a)
                by_profile[key] = by_profile.get(key, 0) + 1
            for profile in all_profiles(k, k):
                if not is_subgee_profile(profile):
                    continue
                assert (
                    count_disjoint_subgees(GeeParams(a), occupied, profile)
                    == by_profile.get(profile, 0)
                ), (a, i, profile)


# ----------------------------------------------- identities behind the proof

def test_relation_sums_vanish_small():
    for a in [(1,), (2,), (1, 1), (2, 2), (2, 1, 2)]:
        gee = GeeParams(a)
        subgees = list(enumerate_subgees(gee))
        for i in subgees:
            if not i:
                continue
            acc = 0
            for j in subgees:
                if set(j).isdisjoint(i):
                    acc ^= pairing_set(gee, j)
            assert acc == 0, (a, i)


def test_identity_chain_endpoints():
    # Both collapsed forms of a relation's value vanish for every nonempty
    # occupied profile: the direct suffix-condition sum over full-weight
    # profiles, and the disjoint-count weighted sum over the basis profiles.
    for a in [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (2, 2, 2), (3, 2, 2)]:
        gee = GeeParams(a)
        k = gee.k
        for m in all_profiles(k, k):
            if sum(m) == 0 or not is_subgee_profile(m):
                continue
            if any(mi > ai for mi, ai in zip(m, gee.a)):
                continue
            lhs = 0
            for t in compositions(k, k):
                if not is_subgee_profile(t):
                    continue
                term = 1
                for mi, ti in zip(m, t):
                    term &= binom_parity(1 - mi, ti)
                lhs ^= term
            rhs = 0
            for c in all_profiles(k, k):
                # an odd count forces c_i <= a_i - m_i, so the profile is feasible
                if count_disjoint_subgees(gee, m, c) & 1:
                    rhs ^= pairing_by_profile(gee, c)
            assert lhs == 0, (a, m)
            assert rhs == 0, (a, m)
