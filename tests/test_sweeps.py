"""Equivalence sweeps, committed as digests.

Each sweep runs a deterministic search over a fixed box of inputs and pins
the SHA-256 of its output lines, so that a refactor which changes any one
answer fails here.  A digest pins today's output, right or wrong; the
oracle tests say whether it is right.  A change that alters an output on
purpose updates the digest and records why in CHANGES.md, as it would for a
golden file.
"""

from __future__ import annotations

import hashlib
import random
from itertools import product

from polyphi import GeeParams, genetic_code, normalize, realize_gee
from polyphi.errors import PolyphiError, RealizationNotFoundError

from brute import genetic_code_by_subset_sums

# Every gee with k <= 5 and a_i <= 4, and k = 6 with a_i <= 3: 2,094 gees.
REALIZE_GEES = [
    *(a for k in range(6) for a in product(range(1, 5), repeat=k)),
    *product(range(1, 4), repeat=6),
]
REALIZE_BOUNDS = (20, 40, 60)
REALIZE_DIGEST = "fe4f358e943186a3631252e7b78841751d34e0aecb246a89398799f53361d4a7"
REALIZE_FOUND = 212
# The winner of every gee realized at bound 60, as `gee:lengths`; a bound
# realizes the gee exactly when it reaches the winner's total, and then with
# the same winner.  Only read to name the first case that differs.
REALIZE_WINNERS = dict(
    entry.split(":")
    for entry in """
    :1,1,1 1:1,2,2,2 2:1,1,2,2,3 3:1,1,1,2,2 4:1,1,1,1,1 1,1:1,1,3,3,3 1,2:1,2,2,4,4,6
    1,3:1,2,2,2,4,4 1,4:1,2,2,2,2,2 2,1:1,1,1,3,3,4 2,2:1,1,2,2,4,4,7 2,3:1,1,2,2,2,4,5
    2,4:1,1,2,2,2,2,3 3,1:1,1,1,1,3,3,5 3,2:2,2,2,3,3,6,7 3,3:2,2,2,3,3,3,4
    3,4:2,2,2,3,3,3,3,7 4,1:1,1,1,1,1,3,3 4,2:2,2,2,2,3,3,3 4,3:2,2,2,2,3,3,3,6
    4,4:2,2,2,2,3,3,3,3,9 1,1,1:1,1,1,4,4,4 1,1,2:1,1,3,3,6,6,9 1,1,3:1,1,3,3,3,6,6
    1,1,4:1,1,3,3,3,3,3 1,2,1:1,2,2,2,6,6,8 1,2,2:1,2,2,4,4,8,8,14
    1,2,3:1,2,2,4,4,4,8,10 1,2,4:1,2,2,4,4,4,4,6 1,3,1:1,2,2,2,2,6,6,10
    1,3,2:1,4,4,4,6,6,12,14 1,3,3:1,4,4,4,6,6,6,8 1,3,4:1,4,4,4,6,6,6,6,14
    1,4,1:1,2,2,2,2,2,6,6 1,4,2:1,4,4,4,4,6,6,6 1,4,3:1,4,4,4,4,6,6,6,12
    1,4,4:1,4,4,4,4,6,6,6,6,18 2,1,1:1,1,1,1,4,4,5 2,1,2:1,1,1,3,3,6,6,10
    2,1,3:1,1,1,3,3,3,6,7 2,1,4:1,1,1,3,3,3,3,4 2,2,1:1,1,2,2,2,6,6,9
    2,3,1:1,1,2,2,2,2,6,6,11 2,4,1:1,1,2,2,2,2,2,6,7 3,1,1:1,1,1,1,1,4,4,6
    3,2,1:2,2,2,3,3,3,9,9,16 3,3,1:2,2,2,3,3,3,3,9,10 3,4,1:2,2,2,3,3,3,3,3,4
    4,1,1:1,1,1,1,1,1,4,4,7 4,2,1:3,3,3,3,4,4,4,12,13 4,3,1:3,3,3,3,4,4,4,4,5
    4,4,1:3,3,3,3,4,4,4,4,4,9 1,1,1,1:1,1,1,1,5,5,5 1,1,1,2:1,1,1,4,4,8,8,12
    1,1,1,3:1,1,1,4,4,4,8,8 1,1,1,4:1,1,1,4,4,4,4,4 1,1,2,1:1,1,3,3,3,9,9,12
    1,1,2,3:1,1,3,3,6,6,6,12,15 1,1,2,4:1,1,3,3,6,6,6,6,9 1,1,3,1:1,1,3,3,3,3,9,9,15
    1,1,3,3:1,1,6,6,6,9,9,9,12 1,1,4,1:1,1,3,3,3,3,3,9,9 1,1,4,2:1,1,6,6,6,6,9,9,9
    1,2,1,1:1,2,2,2,2,8,8,10 1,2,1,3:1,2,2,2,6,6,6,12,14 1,2,1,4:1,2,2,2,6,6,6,6,8
    1,2,2,1:1,2,2,4,4,4,12,12,18 1,2,4,1:1,2,2,4,4,4,4,4,12,14
    1,3,1,1:1,2,2,2,2,2,8,8,12 1,3,4,1:1,4,4,4,6,6,6,6,6,8 1,4,1,1:1,2,2,2,2,2,2,8,8,14
    2,1,1,1:1,1,1,1,1,5,5,6 2,1,1,2:1,1,1,1,4,4,8,8,13 2,1,1,3:1,1,1,1,4,4,4,8,9
    2,1,1,4:1,1,1,1,4,4,4,4,5 2,1,2,1:1,1,1,3,3,3,9,9,13 2,1,3,1:1,1,1,3,3,3,3,9,9,16
    2,1,4,1:1,1,1,3,3,3,3,3,9,10 2,2,1,1:1,1,2,2,2,2,8,8,11 2,3,1,1:1,1,2,2,2,2,2,8,8,13
    2,4,1,1:1,1,2,2,2,2,2,2,8,8,15 3,1,1,1:1,1,1,1,1,1,5,5,7
    3,4,1,1:2,2,2,3,3,3,3,3,3,12,13 4,1,1,1:1,1,1,1,1,1,1,5,5,8
    4,4,1,1:3,3,3,3,4,4,4,4,4,4,5 1,1,1,1,1:1,1,1,1,1,6,6,6
    1,1,1,1,2:1,1,1,1,5,5,10,10,15 1,1,1,1,3:1,1,1,1,5,5,5,10,10
    1,1,1,1,4:1,1,1,1,5,5,5,5,5 1,1,1,2,1:1,1,1,4,4,4,12,12,16
    1,1,1,2,4:1,1,1,4,4,8,8,8,8,12 1,1,1,4,1:1,1,1,4,4,4,4,4,12,12
    1,1,2,1,1:1,1,3,3,3,3,12,12,15 1,1,2,1,4:1,1,3,3,3,9,9,9,9,12
    1,1,3,1,1:1,1,3,3,3,3,3,12,12,18 1,2,1,1,1:1,2,2,2,2,2,10,10,12
    1,2,1,1,4:1,2,2,2,2,8,8,8,8,10 1,3,1,1,1:1,2,2,2,2,2,2,10,10,14
    1,4,1,1,1:1,2,2,2,2,2,2,2,10,10,16 2,1,1,1,1:1,1,1,1,1,1,6,6,7
    2,1,1,1,2:1,1,1,1,1,5,5,10,10,16 2,1,1,1,3:1,1,1,1,1,5,5,5,10,11
    2,1,1,1,4:1,1,1,1,1,5,5,5,5,6 2,1,1,2,1:1,1,1,1,4,4,4,12,12,17
    2,1,1,4,1:1,1,1,1,4,4,4,4,4,12,13 2,1,2,1,1:1,1,1,3,3,3,3,12,12,16
    2,2,1,1,1:1,1,2,2,2,2,2,10,10,13 2,3,1,1,1:1,1,2,2,2,2,2,2,10,10,15
    2,4,1,1,1:1,1,2,2,2,2,2,2,2,10,10,17 3,1,1,1,1:1,1,1,1,1,1,1,6,6,8
    4,1,1,1,1:1,1,1,1,1,1,1,1,6,6,9 1,1,1,1,1,1:1,1,1,1,1,1,7,7,7
    1,1,1,1,1,2:1,1,1,1,1,6,6,12,12,18 1,1,1,1,1,3:1,1,1,1,1,6,6,6,12,12
    1,2,1,1,1,1:1,2,2,2,2,2,2,12,12,14 1,3,1,1,1,1:1,2,2,2,2,2,2,2,12,12,16
    2,1,1,1,1,1:1,1,1,1,1,1,1,7,7,8 2,1,1,1,1,3:1,1,1,1,1,1,6,6,6,12,13
    2,2,1,1,1,1:1,1,2,2,2,2,2,2,12,12,15 2,3,1,1,1,1:1,1,2,2,2,2,2,2,2,12,12,17
    3,1,1,1,1,1:1,1,1,1,1,1,1,1,7,7,9
""".split()
)


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _line(a: tuple[int, ...], bound: int, winner: str) -> str:
    """A `gee|bound|winner` line: the gee as a tuple, the winner's lengths
    comma-joined, or `-` for a refusal."""
    return f"{a}|{bound}|{winner}\n"


def _realize_lines() -> list[str]:
    lines = []
    for a in REALIZE_GEES:
        gee = GeeParams(a)
        for bound in REALIZE_BOUNDS:
            try:
                winner = ",".join(map(str, realize_gee(gee, bound).lengths))
            except RealizationNotFoundError:
                winner = "-"
            lines.append(_line(a, bound, winner))
    return lines


def _pinned_realize_lines() -> list[str]:
    lines = []
    for a in REALIZE_GEES:
        winner = REALIZE_WINNERS.get(",".join(map(str, a)), "-")
        total = sum(map(int, winner.split(","))) if winner != "-" else REALIZE_BOUNDS[-1] + 1
        lines.extend(_line(a, b, winner if total <= b else "-") for b in REALIZE_BOUNDS)
    return lines


def test_realize_sweep_matches_its_digest():
    lines = _realize_lines()
    if _digest(lines) != REALIZE_DIGEST:
        pinned = _pinned_realize_lines()
        assert _digest(pinned) == REALIZE_DIGEST, "REALIZE_WINNERS does not give the pinned digest"
        case, line, old = next((i, x, y) for i, (x, y) in enumerate(zip(lines, pinned)) if x != y)
        raise AssertionError(f"realize sweep changed; first at case {case}: {line!r}, pinned {old!r}")
    assert sum(not line.endswith("|-\n") for line in lines) == REALIZE_FOUND


# 16 seeded vectors for each n from 3 to 21 and each side range: random in
# 1..10^6, small in 1..12 (ties, and many not generic) and near-equal in
# 1000..1050; 912 vectors, 701 with a code (107,994 genes), about 0.9 s.
GENE_DIGEST = "bd70951138c19b8c6a108f6137f0cc107c82ff4663eff280a0b10bbb3fe5f830"


def _gene_vectors() -> list[list[int]]:
    rng = random.Random(20261022)
    return [
        [rng.randint(lo, hi) for _ in range(n)]
        for n in range(3, 22)
        for lo, hi in ((1, 10**6), (1, 12), (1000, 1050))
        for _ in range(16)
    ]


def _gene_line(raw: list[int], search) -> str:
    """A `lengths|code` line: the genes space-joined, each comma-joined, or
    the name of the error the search raised."""
    try:
        code = " ".join(",".join(map(str, g.elements)) for g in search(normalize(raw)).genes)
    except PolyphiError as exc:
        code = type(exc).__name__
    return f"{','.join(map(str, raw))}|{code}\n"


def test_genetic_code_sweep_matches_its_digest():
    # `realize` confirms each winner with `genetic_code`, so this guards it too.
    vectors = _gene_vectors()
    lines = [_gene_line(raw, genetic_code) for raw in vectors]
    if _digest(lines) != GENE_DIGEST:
        # A digest names no case: find the first that the search walking
        # every level to its leaves answers otherwise.
        for i, (raw, line) in enumerate(zip(vectors, lines)):
            oracle = _gene_line(raw, genetic_code_by_subset_sums)
            assert line == oracle, f"gene sweep changed; first at case {i}: {line!r}, not {oracle!r}"
        raise AssertionError("genetic_code agrees with its oracle everywhere; the vectors changed")
    assert sum(not line.endswith("Error\n") for line in lines) == 701
