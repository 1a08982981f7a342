"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every check is exact (bit-for-bit or integer equality); the timed
criteria also assert their stated wall-clock budgets.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from polyphi import (
    GeeParams,
    IndexSet,
    annihilation_failures,
    binom_parity,
    block_counts,
    closed_form_k3,
    compositions,
    count_disjoint_subgees,
    cross_validate,
    genetic_code,
    is_generic,
    is_subgee_profile,
    normalize,
    pairing_by_profile,
    pairing_set,
)
from polyphi.cli import main
from polyphi.errors import EmptySpaceError, NotGenericError

from brute import (
    brute_genetic_code,
    brute_is_generic,
    brute_set_leq,
    greedy_set_leq,
    pascal_parity,
    theta_of,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def sweep_gees() -> list[tuple[int, ...]]:
    """1 <= k <= 4 with increments up to 3, plus k <= 2 with increments up to 6."""
    tuples = set()
    for k in range(1, 5):
        tuples.update(product(range(1, 4), repeat=k))
    for k in range(1, 3):
        tuples.update(product(range(1, 7), repeat=k))
    return sorted(tuples, key=lambda t: (len(t), t))


def schema_profiles(k: int) -> list[tuple[int, ...]]:
    out = []
    for r in range(k + 1):
        out.extend(t for t in compositions(r, k) if is_subgee_profile(t))
    return out


def test_criterion_1_oracle_sweep():
    with criterion(1, "nullspace dimension 1 and formula == oracle on the full sweep"):
        start = time.perf_counter()
        tuples = sweep_gees()
        for a in tuples:
            report = cross_validate(GeeParams(a))
            assert report.nullspace_dim == 1, (a, report.nullspace_dim)
            assert report.agree, a
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"sweep took {elapsed:.1f}s, budget is 60s"


def test_criterion_2_closed_form_reproduction(capsys):
    with criterion(2, "three-block closed forms match the general formula; golden table"):
        start = time.perf_counter()
        profiles = schema_profiles(3)
        assert len(profiles) == 14
        for a in product(range(1, 7), repeat=3):
            gee = GeeParams(a)
            for t in profiles:
                if any(c > ai for c, ai in zip(t, a)):
                    continue
                assert closed_form_k3(gee, t) == pairing_by_profile(gee, t), (a, t)
        exit_code = main(["table", "--a", "2,2,2", "--format", "csv"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert out == (GOLDEN / "table_a222.csv").read_text()
        elapsed = time.perf_counter() - start
        assert elapsed < 5, f"took {elapsed:.1f}s, budget is 5s"


def test_criterion_3_top_class_rule():
    with criterion(3, "500 random full-size subgees all pair to 1"):
        rng = random.Random(20260808)
        for _ in range(500):
            k = rng.randint(1, 5)
            a = tuple(rng.randint(1, 6) for _ in range(k))
            gee = GeeParams(a)
            feasible = [
                t
                for t in compositions(k, k)
                if is_subgee_profile(t) and all(c <= ai for c, ai in zip(t, a))
            ]
            profile = rng.choice(feasible)
            prefix = (0, *gee.prefix_sums)
            members: list[int] = []
            for i, c in enumerate(profile):
                members.extend(
                    rng.sample(range(prefix[i] + 1, prefix[i + 1] + 1), c)
                )
            subgee = IndexSet(members)
            assert len(subgee) == k
            assert pairing_set(gee, subgee) == 1, (a, subgee)


def test_criterion_4_relation_annihilation():
    with criterion(4, "the formula annihilates every relation on the full sweep"):
        for a in sweep_gees():
            assert annihilation_failures(GeeParams(a)) == [], a


def test_criterion_5_counting_formula():
    with criterion(5, "disjoint-subgee counts match brute-force enumeration"):
        start = time.perf_counter()
        for k in range(1, 4):
            for a in product(range(1, 5), repeat=k):
                gee = GeeParams(a)
                span = gee.span
                subgee_masks = [
                    mask
                    for mask in range(1 << span)
                    if is_subgee_profile(theta_of(
                        [i + 1 for i in range(span) if (mask >> i) & 1], a
                    ))
                ]
                profiles = schema_profiles(k)
                for imask in subgee_masks:
                    i_set = [i + 1 for i in range(span) if (imask >> i) & 1]
                    occupied = theta_of(i_set, a)
                    observed: dict[tuple[int, ...], int] = {}
                    for jmask in subgee_masks:
                        if imask & jmask:
                            continue
                        j_set = [i + 1 for i in range(span) if (jmask >> i) & 1]
                        key = theta_of(j_set, a)
                        observed[key] = observed.get(key, 0) + 1
                    for c in profiles:
                        assert (
                            count_disjoint_subgees(gee, occupied, c)
                            == observed.get(c, 0)
                        ), (a, i_set, c)
        elapsed = time.perf_counter() - start
        assert elapsed < 10, f"took {elapsed:.1f}s, budget is 10s"


def test_criterion_6_subgee_criterion():
    with criterion(6, "profile condition equals domination by the gee"):
        for k in range(1, 5):
            for a in product(range(1, 4), repeat=k):
                gee = GeeParams(a)
                target = gee.gee()
                for mask in range(1 << gee.span):
                    subset = IndexSet(i + 1 for i in range(gee.span) if (mask >> i) & 1)
                    assert is_subgee_profile(block_counts(subset, gee)) == greedy_set_leq(
                        subset, target
                    ), (a, subset)


def test_criterion_7_identity_suite():
    with criterion(7, "binomial-parity identity suite"):
        # digit criterion vs Pascal's triangle mod 2, rows 0..64
        rows = pascal_parity(64)
        for m in range(65):
            for r in range(m + 1):
                assert binom_parity(m, r) == rows[m][r], (m, r)
            assert binom_parity(m, m + 1) == 0
        # convolution identity (Vandermonde) mod 2
        for a_top in range(13):
            for b_top in range(13):
                for t in range(13):
                    acc = 0
                    for b in range(t + 1):
                        acc ^= binom_parity(a_top, t - b) & binom_parity(b_top, b)
                    assert acc == binom_parity(a_top + b_top, t), (a_top, b_top, t)
        # reflection substitution used to eliminate the increments
        for a in range(1, 17):
            for b in range(17):
                assert binom_parity(a + b - 2, b) == binom_parity(1 - a, b), (a, b)
        # full-weight sum collapses to a single binomial and vanishes whenever
        # the occupied profile is nonempty but no heavier than the block count
        for k in range(1, 5):
            for m in product(range(4), repeat=k):
                acc = 0
                for t in compositions(k, k):
                    term = 1
                    for mi, ti in zip(m, t):
                        term &= binom_parity(1 - mi, ti)
                    acc ^= term
                assert acc == binom_parity(k - sum(m), k), (k, m)
                if 1 <= sum(m) <= k:
                    assert acc == 0, (k, m)
        # block-restricted sums over deficient prefixes vanish
        for k in range(1, 5):
            for m in product(range(4), repeat=k):
                for j in range(1, k + 1):
                    if sum(m[j:]) > k - j:
                        continue
                    for prefix in product(range(k + 1), repeat=j):
                        if sum(prefix) >= j:
                            continue
                        if any(sum(prefix[:i]) < i for i in range(1, j)):
                            continue
                        acc = 0
                        for tail in compositions(k - sum(prefix), k - j):
                            term = 1
                            for mi, ti in zip(m, prefix + tail):
                                term &= binom_parity(1 - mi, ti)
                            acc ^= term
                        assert acc == 0, (k, m, prefix)


def test_criterion_8_genetic_code_fixtures():
    with criterion(8, "genetic-code fixtures, genericity flag, scale invariance"):
        # equilateral pentagon, certified by the brute-force oracle
        pentagon = normalize([1, 1, 1, 1, 1])
        assert brute_genetic_code(pentagon.lengths) == [(4, 5)]
        assert [g.elements for g in genetic_code(pentagon).genes] == [(4, 5)]
        # genericity detector
        assert not is_generic(normalize([1, 1, 2]))
        assert not brute_is_generic(normalize([1, 1, 2]).lengths)
        with pytest.raises(NotGenericError):
            genetic_code(normalize([1, 1, 2]))
        # scale invariance across 100 random vectors with n <= 10
        rng = random.Random(8)
        checked = 0
        while checked < 100:
            n = rng.randint(3, 10)
            raw = [
                Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(n)
            ]
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            base = normalize(raw)
            scaled = normalize([scale * x for x in raw])
            assert is_generic(base) == is_generic(scaled)
            if not is_generic(base):
                continue
            checked += 1
            try:
                base_code = genetic_code(base)
            except EmptySpaceError:
                with pytest.raises(EmptySpaceError):
                    genetic_code(scaled)
                continue
            scaled_code = genetic_code(scaled)
            assert [g.elements for g in base_code.genes] == [
                g.elements for g in scaled_code.genes
            ]


def test_criterion_6_excludes_nothing_brute_spotcheck():
    # independent spot-check of the domination side with exhaustive matching
    rng = random.Random(123)
    for _ in range(50):
        k = rng.randint(1, 3)
        a = tuple(rng.randint(1, 3) for _ in range(k))
        gee = GeeParams(a)
        span = gee.span
        mask = rng.randrange(1 << span)
        subset = IndexSet(i + 1 for i in range(span) if (mask >> i) & 1)
        assert greedy_set_leq(subset, gee.gee()) == brute_set_leq(
            subset.elements, gee.gee().elements
        )
