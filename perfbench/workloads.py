"""Seeded request generators, one per workload.

A workload is an endless sequence of rounds; a round is the workload's fixed
request list (the same slots every round, fresh inputs in each).  No input
repeats within a run, so no cache keyed by input can turn a later request
into a lookup.  Every input is drawn inside the program's guards, and every
length vector is generic by construction (an odd integer total), never by
asking polyphi.  --format cycles through text, json and csv in every slot.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import comb

from checks import subgee_count, table_profiles

FORMATS = ("text", "json", "csv")


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]
    params: dict = field(compare=False)
    expect_rc: int = 0


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _format(round_index: int, slot: int) -> str:
    return FORMATS[(round_index + slot) % len(FORMATS)]


def _draw(rng: random.Random, seen: set, k: int, amax: int, accept) -> tuple[int, ...]:
    """A gee with k entries in 1..amax, not used before in the run, that passes accept."""
    while True:
        a = tuple(rng.randint(1, amax) for _ in range(k))
        if a not in seen and accept(a):
            seen.add(a)
            return a


# --- classify: `gene` on generic length vectors ---------------------------

# One round: each n from 16 to 20 twice, so a round walks ~1.6M Gray steps.
CLASSIFY_N = (16, 17, 18, 19, 20, 16, 17, 18, 19, 20)
CLASSIFY_MAX = 10**6


def _odd_total_vector(rng: random.Random, n: int) -> list[int]:
    """Entries in 1..CLASSIFY_MAX with an odd total within 2% of its mean.

    is_generic's bitset has one bit per unit of half the total, so a fixed
    total keeps its time and memory alike from run to run.
    """
    mean = n * (CLASSIFY_MAX + 1) // 2
    while True:
        x = [rng.randint(1, CLASSIFY_MAX) for _ in range(n)]
        total = sum(x)
        if total % 2 and 2 * max(x) < total and abs(total - mean) * 50 <= mean:
            return x


def classify(rng: random.Random) -> Iterator[list[Request]]:
    """Plain, doubled and rationally scaled vectors in turn.

    An odd integer total can never be split in half, so every vector is
    generic.  Doubling or scaling by 2/q keeps that but makes the scaled
    total even, so polyphi's subset-sum pass in is_generic really runs.
    """
    seen: set[tuple[Fraction, ...]] = set()
    kinds = count()
    for r in count():
        reqs = []
        for slot, n in enumerate(CLASSIFY_N):
            while True:
                base = _odd_total_vector(rng, n)
                kind = next(kinds) % 3
                if kind == 0:
                    lengths = [Fraction(v) for v in base]
                elif kind == 1:
                    lengths = [Fraction(2 * v) for v in base]
                else:
                    factor = Fraction(2, rng.choice((3, 7)))
                    lengths = [v * factor for v in base]
                key = tuple(sorted(lengths))
                if key not in seen:
                    seen.add(key)
                    break
            shown = lengths[:]
            rng.shuffle(shown)
            f = _format(r, slot)
            argv = ("gene", "--lengths", _join(shown), "--format", f)
            reqs.append(Request("gene", argv, {"fmt": f, "lengths": lengths}))
        yield reqs


# --- certify: `oracle` and `verify` on the relation basis ------------------

# Largest entry drawn for each k, wide enough to reach every basis range.
# k stays at most 5 so that the formula values cross_validate needs (one
# composition sum per profile) stay a small share next to the relations.
CERTIFY_AMAX = {2: 40, 3: 12, 4: 8, 5: 5}
ROADMAP_GEE = (3, 3, 3, 3, 3)  # N = 2974, the ROADMAP baseline row
CERTIFY_SLOTS = (
    # (command, --explain, basis range).  Elimination costs about N^2 row
    # operations, so narrow ranges keep every round's cost alike.  Round 0
    # puts the ROADMAP gee in the first slot.
    ("oracle", False, (1450, 1550)),
    ("oracle", True, (700, 800)),
    ("verify", False, (1450, 1550)),
    ("oracle", False, (350, 450)),
    ("verify", False, (700, 800)),
)


def certify(rng: random.Random) -> Iterator[list[Request]]:
    seen: set[tuple[int, ...]] = {ROADMAP_GEE}
    for r in count():
        reqs = []
        for slot, (cmd, explain, (lo, hi)) in enumerate(CERTIFY_SLOTS):
            if r == 0 and slot == 0:
                a = ROADMAP_GEE
            else:
                k = rng.choice(tuple(CERTIFY_AMAX))
                a = _draw(rng, seen, k, CERTIFY_AMAX[k], lambda g: lo <= subgee_count(g) <= hi)
            f = _format(r, slot)
            argv = (cmd, "--a", _join(a), *(("--explain",) if explain else ()), "--format", f)
            reqs.append(Request(cmd, argv, {"fmt": f, "a": a, "explain": explain}))
        yield reqs


# --- tabulate: `table` and `phi --explain` ---------------------------------

TABLE_MAX_ROWS = 20000  # polyphi's default --max-basis guard on prod(a_i + 1)
# Compositions that `table` enumerates (C(2k-r-1, k-1) for a row of size r),
# summed over the rows; kept to the middle of their spread for each k so
# that rounds cost alike.
TABLE_WORK = {6: (7_500, 8_500), 7: (44_000, 50_000), 8: (260_000, 295_000)}
TABLE_KS = (8, 7, 6)
# phi --explain slots as (k, profile of J).  The profile fixes how many
# summands --explain lists; J itself is drawn inside those blocks.
PHI_SLOTS = ((8, (0,) * 8), (9, (1,) + (0,) * 8), (9, (1, 1) + (0,) * 7))
TABULATE_AMAX = 3


def table_work(a: tuple[int, ...]) -> int:
    k = len(a)
    return sum(comb(2 * k - sum(t) - 1, k - 1) for t in table_profiles(a))


def _table_ok(a: tuple[int, ...]) -> bool:
    rows = 1
    for x in a:
        rows *= x + 1
    lo, hi = TABLE_WORK[len(a)]
    return rows <= TABLE_MAX_ROWS and lo <= table_work(a) <= hi


def _subset_with_profile(rng: random.Random, a: tuple[int, ...], theta: tuple[int, ...]) -> tuple[int, ...]:
    J, start = [], 0
    for ai, t in zip(a, theta):
        J.extend(rng.sample(range(start + 1, start + ai + 1), t))
        start += ai
    return tuple(sorted(J))


def tabulate(rng: random.Random) -> Iterator[list[Request]]:
    seen: set[tuple[int, ...]] = set()
    for r in count():
        reqs = []
        for slot, k in enumerate(TABLE_KS):
            a = _draw(rng, seen, k, TABULATE_AMAX, _table_ok)
            f = _format(r, slot)
            argv = ("table", "--a", _join(a), "--format", f)
            reqs.append(Request("table", argv, {"fmt": f, "a": a}))
        for slot, (k, theta) in enumerate(PHI_SLOTS, start=len(TABLE_KS)):
            a = _draw(rng, seen, k, TABULATE_AMAX, lambda g: True)
            J = _subset_with_profile(rng, a, theta)
            f = _format(r, slot)
            argv = ("phi", "--a", _join(a), "--J", _join(J), "--explain", "--format", f)
            reqs.append(Request("phi", argv, {"fmt": f, "a": a, "J": J}))
        yield reqs


# --- realize: candidate search ---------------------------------------------

# Realizable gees with k <= 4; polyphi's minimal-total search finds each
# after 10^2 to 10^4 candidates.  The long and unrealizable pools are listed
# by search time at the time of writing, fastest first, so that pairing the
# i-th fastest unrealizable search with the i-th slowest long one gives
# rounds of about equal cost.  The three pools have the same length; one
# round takes one entry of each.
REALIZE_SHORT = (
    (2, 1), (1, 3), (3, 1), (1, 1, 1), (4, 2), (2, 3), (1, 1, 4), (2, 1, 1),
    (1, 6), (1, 6, 1, 1), (3, 3), (1, 2), (2, 1, 4), (1, 6, 1), (3, 1, 1),
    (1, 1, 1, 1), (2, 2), (5, 2), (2, 6), (4, 1, 1), (2, 1, 1, 1), (2, 6, 1),
)
REALIZE_LONG = (
    (3, 2), (4, 3), (3, 4), (1, 1, 3), (1, 7), (1, 1, 5, 1), (1, 4, 1),
    (1, 1, 5), (6, 2), (3, 1, 1, 1), (1, 1, 1, 4), (1, 2, 1), (3, 4, 1),
    (2, 1, 3), (2, 1, 1, 4), (2, 7), (1, 2, 4), (2, 4, 1), (4, 1, 1, 1),
    (2, 1, 5), (1, 8), (2, 1, 5, 1),
)
# Gees unrealizable for every n (proofs in README.md), so the search always
# exhausts its bound and exits 1.
REALIZE_UNREALIZABLE = (
    ((2, 2, 2), 21), ((1, 2, 2, 2), 19), ((2, 2, 2), 22), ((1, 2, 2, 2), 20),
    ((2, 2, 2, 2), 21), ((2, 2, 2, 2), 22), ((2, 2, 2), 24), ((2, 2, 2, 2, 2, 2), 20),
    ((2, 2, 2, 2, 2, 2), 19), ((2, 2, 2), 23), ((2, 2, 2, 2, 2), 19),
    ((2, 2, 2, 2, 2), 20), ((1, 2, 2, 2), 21), ((1, 2, 2, 2), 22),
    ((2, 2, 2, 2, 2), 22), ((2, 2, 2), 25), ((2, 2, 2, 2), 23),
    ((2, 2, 2, 2, 2), 21), ((2, 2, 2, 2), 24), ((2, 2, 2), 26),
    ((1, 2, 2, 2), 23), ((1, 2, 2, 2), 24),
)
REALIZE_BOUND = 40


def realize(rng: random.Random) -> Iterator[list[Request]]:
    """One unrealizable search, one long and one short realizable search.

    The pools are small, so every run uses every gee once, in fixed rounds:
    the i-th fastest unrealizable search with the i-th slowest long one.
    The seed sets the order of the rounds and so the formats.
    """
    n = len(REALIZE_UNREALIZABLE)
    for r, i in enumerate(rng.sample(range(n), n)):
        a, bound = REALIZE_UNREALIZABLE[i]
        f = _format(r, 0)
        argv = ("realize", "--a", _join(a), "--bound", str(bound), "--format", f)
        reqs = [Request("realize", argv, {"fmt": f, "a": a, "bound": bound}, expect_rc=1)]
        for slot, a in enumerate((REALIZE_LONG[n - 1 - i], REALIZE_SHORT[i]), start=1):
            f = _format(r, slot)
            argv = ("realize", "--a", _join(a), "--bound", str(REALIZE_BOUND), "--format", f)
            reqs.append(Request("realize", argv, {"fmt": f, "a": a, "bound": REALIZE_BOUND}))
        yield reqs


WORKLOADS = {
    "classify": classify,
    "certify": certify,
    "tabulate": tabulate,
    "realize": realize,
}


def rounds(workload: str, seed: int) -> Iterator[list[Request]]:
    """The request rounds of one run; the same (workload, seed) gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
