"""Unit tests for the relation matrix and the GF(2) nullspace oracle."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, product
from math import comb, prod

import pytest

from polyphi import duality, relations
from polyphi import (
    GeeParams,
    IndexSet,
    RelationMatrix,
    annihilation_failures,
    block_counts,
    build_matrix,
    closed_form_k3,
    compositions,
    count_disjoint_subgees,
    cross_validate,
    enumerate_subgees,
    is_subgee_profile,
    nullspace_functional,
    subgee_count,
)
from polyphi.errors import SizeLimitError

from brute import brute_subgees, subgee_profiles_by_filter


# ------------------------------------------------------------- build_matrix

def test_build_matrix_single_block_of_one():
    m = build_matrix(GeeParams((1,)))
    assert [c.elements for c in m.columns] == [(), (1,)]
    assert [r.elements for r in m.rows] == [(1,)]
    assert m.bits == (0b01,)


def test_build_matrix_single_block_of_two():
    m = build_matrix(GeeParams((2,)))
    assert [c.elements for c in m.columns] == [(), (1,), (2,)]
    assert [[(m.bits[i] >> j) & 1 for j in range(3)] for i in range(2)] == [
        [1, 0, 1],
        [1, 1, 0],
    ]


def test_build_matrix_two_blocks_of_one():
    m = build_matrix(GeeParams((1, 1)))
    assert [c.elements for c in m.columns] == [(), (1,), (2,), (1, 2)]
    assert m.bits == (0b0101, 0b0011, 0b0001)


def test_build_matrix_k0_has_one_column_and_no_rows():
    m = build_matrix(GeeParams(()))
    assert m.columns == (IndexSet(),)
    assert m.rows == () and m.bits == ()
    assert nullspace_functional(m) == (1, {IndexSet(): 1})


def test_build_matrix_size_guard():
    with pytest.raises(SizeLimitError, match="3"):
        build_matrix(GeeParams((2,)), max_basis=2)


def test_relation_matrix_validation():
    cols = (IndexSet(), IndexSet([1]))
    with pytest.raises(ValueError):
        RelationMatrix(cols, (IndexSet([1]),), ())
    with pytest.raises(ValueError):
        RelationMatrix(cols, (IndexSet([1]),), (0b100,))


def test_build_matrix_deterministic():
    a = GeeParams((2, 1, 2))
    assert build_matrix(a) == build_matrix(a)


@pytest.mark.parametrize("a", [(2, 2), (1, 3, 2, 1), (2, 2, 2, 2), (1,), (2,)])
def test_build_matrix_bits_match_pairwise_disjointness(a):
    m = build_matrix(GeeParams(a))
    assert m.columns == tuple(enumerate_subgees(GeeParams(a)))
    assert m.rows == m.columns[1:]
    for i, row in enumerate(m.rows):
        for j, column in enumerate(m.columns):
            assert (m.bits[i] >> j) & 1 == int(set(row).isdisjoint(column)), (row, column)


def test_matrix_disjointness_symmetric():
    m = build_matrix(GeeParams((2, 2)))
    n_rows = len(m.rows)
    # rows[i] == columns[i+1], so symmetry reads bit j+1 of row i == bit i+1 of row j
    for i in range(n_rows):
        assert m.bits[i] & 1  # the empty set is disjoint from everything
        for j in range(n_rows):
            assert (m.bits[i] >> (j + 1)) & 1 == (m.bits[j] >> (i + 1)) & 1


def test_row_weight_matches_counting_formula():
    for a in [(2, 2), (2, 1), (3, 2), (2, 2, 2)]:
        gee = GeeParams(a)
        m = build_matrix(gee)
        for row_set, bits in zip(m.rows, m.bits):
            occupied = block_counts(row_set, gee)
            expected = 0
            for r in range(gee.k + 1):
                for c in compositions(r, gee.k):
                    if is_subgee_profile(c):
                        expected += count_disjoint_subgees(gee, occupied, c)
            assert bin(bits).count("1") == expected, (a, row_set)


# ----------------------------------------------------- nullspace_functional

def test_nullspace_unique_for_single_block_of_two():
    dim, values = nullspace_functional(build_matrix(GeeParams((2,))))
    assert dim == 1
    assert values == {IndexSet(): 1, IndexSet([1]): 1, IndexSet([2]): 1}


def test_nullspace_unique_for_single_block_of_one():
    dim, values = nullspace_functional(build_matrix(GeeParams((1,))))
    assert dim == 1
    assert values == {IndexSet(): 0, IndexSet([1]): 1}


def test_nullspace_is_the_parity_of_the_subgees_above():
    # The oracle for the oracle: phi(J) = #{subgees I containing J} mod 2
    # spans the nullspace, as the relations module docstring shows.
    gees = [a for k in range(4) for a in product(range(1, 4), repeat=k)]
    for a in [*gees, (1, 1, 1, 1), (2, 1, 2, 1), (1, 3, 1, 2), (2, 2, 2, 2)]:
        matrix = build_matrix(GeeParams(a))
        above = Counter(
            j for i in matrix.columns for r in range(len(i) + 1) for j in combinations(i, r)
        )
        expected = {j: above[j.elements] & 1 for j in matrix.columns}
        assert nullspace_functional(matrix) == (1, expected), a


def test_nullspace_degenerate_no_rows():
    matrix = RelationMatrix((IndexSet(), IndexSet([1]), IndexSet([2])), (), ())
    dim, values = nullspace_functional(matrix)
    assert dim == 3
    assert values is None


def test_nullspace_dimension_two_returns_none():
    # single constraint x1 + x2 = 0 over three unknowns
    matrix = RelationMatrix(
        (IndexSet(), IndexSet([1]), IndexSet([2])),
        (IndexSet([1]),),
        (0b110,),
    )
    dim, values = nullspace_functional(matrix)
    assert dim == 2
    assert values is None


# ------------------------------------------------------------ cross_validate

def test_cross_validate_small_gees():
    rep = cross_validate(GeeParams((2,)))
    assert (rep.basis_size, rep.rank, rep.nullspace_dim, rep.agree) == (3, 2, 1, True)
    rep = cross_validate(GeeParams((1, 1)))
    assert (rep.basis_size, rep.rank, rep.nullspace_dim, rep.agree) == (4, 3, 1, True)


def test_cross_validate_empty_gee():
    rep = cross_validate(GeeParams(()))
    assert (rep.basis_size, rep.rank, rep.nullspace_dim, rep.agree) == (1, 0, 1, True)
    assert rep.formula == {IndexSet(): 1}
    assert rep.oracle == {IndexSet(): 1}


def test_cross_validate_matches_closed_form_at_222():
    gee = GeeParams((2, 2, 2))
    rep = cross_validate(gee)
    assert rep.agree and rep.nullspace_dim == 1
    for subgee, value in rep.formula.items():
        assert value == closed_form_k3(gee, block_counts(subgee, gee)), subgee


def test_cross_validate_size_guard():
    with pytest.raises(SizeLimitError):
        cross_validate(GeeParams((3, 3)), max_basis=5)


# --------------------------------------------------------------- bookkeeping

_rng = random.Random(22)
SEEDED_GEES = [tuple(_rng.randint(1, 4) for _ in range(k)) for k in range(1, 9) for _ in range(2)]


@pytest.mark.parametrize("a", [(1,), (2,), (1, 1), (2, 2), (2, 3, 1), *SEEDED_GEES])
def test_subgee_count_matches_enumerations(a):
    gee = GeeParams(a)
    count = subgee_count(gee)
    assert count == len(list(enumerate_subgees(gee)))
    assert count == sum(prod(map(comb, a, p)) for p in subgee_profiles_by_filter(gee))
    if gee.span <= 10:
        assert count == len(brute_subgees(a))


def test_annihilation_failures_empty_on_valid_gees():
    for a in [(1,), (2,), (1, 1), (2, 2, 2)]:
        assert annihilation_failures(GeeParams(a)) == []
    assert annihilation_failures(GeeParams(())) == []


@pytest.mark.parametrize(
    "a, flipped",
    [((2, 2), ()), ((2, 2), (1,)), ((1, 3, 2, 1), (2, 5)), ((2, 2, 2), (1, 3, 5))],
)
def test_annihilation_failures_are_the_rows_disjoint_from_a_flipped_value(
    flip_formula_at, a, flipped
):
    gee = GeeParams(a)
    target = IndexSet(flipped)
    flip_formula_at(flipped)
    expected = [s for s in enumerate_subgees(gee) if s and set(s).isdisjoint(target)]
    assert expected
    assert annihilation_failures(gee) == expected


def test_relations_read_one_pairing_table_per_gee(monkeypatch):
    tables = []
    original = relations.pairing_table

    def counting(gee):
        tables.append(gee)
        return original(gee)

    def per_profile_dp(*args):
        raise AssertionError("the relation layer ran the per-profile DP")

    monkeypatch.setattr(relations, "pairing_table", counting)
    monkeypatch.setattr(duality, "_profile_sum", per_profile_dp)
    gees = [GeeParams(a) for a in [(), (2,), (2, 2, 2), (1, 3, 2, 1)]]
    for gee in gees:
        assert annihilation_failures(gee) == []
        assert cross_validate(gee).agree
    assert tables == [gee for gee in gees for _ in range(2)]
