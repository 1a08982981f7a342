"""Shared fixtures."""

from __future__ import annotations

import pytest

from polyphi import IndexSet, relations


@pytest.fixture
def flip_formula_at(monkeypatch):
    """Make the relation layer see the formula's value at one subgee flipped.

    Only that one column changes; other subgees with the same block profile
    keep their value, so the flip is not a change of the duality table.
    """

    def flip(elements) -> None:
        original = relations._formula
        target = IndexSet(elements)
        monkeypatch.setattr(
            relations,
            "_formula",
            lambda gee, columns: [
                v ^ (c == target) for c, v in zip(columns, original(gee, columns))
            ],
        )

    return flip
