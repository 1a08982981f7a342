"""Combinatorial primitives: binomial parity, index sets, block profiles.

Everything here is pure and exact.  Index sets are small sets of distinct
positive integers; profiles are tuples of nonnegative block counts; `_Value`
is the `__slots__` base that compares, hashes and prints the record classes.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator
from itertools import accumulate

from .errors import OutOfRangeError

__all__ = [
    "IndexSet",
    "GeeParams",
    "Profile",
    "binom_parity",
    "block_counts",
    "is_subgee_profile",
    "compositions",
]

# A profile is a tuple of nonnegative per-block counts.
Profile = tuple[int, ...]


def check_ints(values: Iterable[object], least: int, what: str) -> None:
    """Raise ValueError(f"{what}, got {x!r}") for the first x that is not an
    int of at least `least`; a bool is not a count."""
    for x in values:
        if isinstance(x, bool) or not isinstance(x, int) or x < least:
            raise ValueError(f"{what}, got {x!r}")


class IndexSet:
    """A finite set of distinct positive integers, stored sorted ascending.

    Equality and hashing are by set content.  Instances are immutable by
    convention: nothing in this package mutates them after construction.
    """

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[int] = ()) -> None:
        elems = tuple(sorted(elements))
        check_ints(elems, 1, "index sets hold positive integers")
        for prev, cur in zip(elems, elems[1:]):
            if prev == cur:
                raise ValueError(f"duplicate element {cur} in index set")
        self.elements = elems

    @classmethod
    def _from_ascending(cls, elements: tuple[int, ...]) -> IndexSet:
        """Wrap a tuple of distinct positive ints, already ascending, unchecked."""
        obj = cls.__new__(cls)
        obj.elements = elements
        return obj

    def descending(self) -> tuple[int, ...]:
        """Elements in decreasing order (the customary way to write gees)."""
        return self.elements[::-1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, item: object) -> bool:
        return item in self.elements

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexSet):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"IndexSet({{{', '.join(map(str, self.elements))}}})"


class _Value:
    """Record base: the `__slots__` fields, set by `_set`, give eq, hash, repr and pickling."""

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self) -> tuple:
        return type(self), self._fields()

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class GeeParams(_Value):
    """Positive increments (a1, ..., ak) whose partial sums form a gee.

    The gee is {a1, a1+a2, ..., a1+...+ak}; k = 0 encodes the empty gee.
    """

    __slots__ = ("a",)

    def __init__(self, a: Iterable[int] = ()) -> None:
        self._set(tuple(a))
        check_ints(self.a, 1, "gee increments must be positive integers")

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def span(self) -> int:
        """Largest element of the gee (sum of all increments)."""
        return sum(self.a)

    @property
    def prefix_sums(self) -> tuple[int, ...]:
        return tuple(accumulate(self.a))

    def gee(self) -> IndexSet:
        return IndexSet(self.prefix_sums)

    @classmethod
    def from_gee(cls, gee: IndexSet) -> GeeParams:
        """Recover the increments from a gee (differences of sorted elements)."""
        return cls(g - prev for prev, g in zip((0, *gee.elements), gee.elements))


def binom_parity(m: int, r: int) -> int:
    """binomial(m, r) mod 2, defined for any integer m and r >= 0.

    For m < 0 the reflection binomial(m, r) = +-binomial(r-m-1, r) applies
    and the sign is irrelevant mod 2.  For m >= 0 this is the classical
    digit criterion: odd iff the binary digits of r are a submask of m's.
    """
    if r < 0:
        raise ValueError(f"lower index must be nonnegative, got {r}")
    if m < 0:
        m = r - m - 1
    if m < r:
        return 0
    return 0 if (m - r) & r else 1


def block_counts(subset: IndexSet, gee: GeeParams) -> Profile:
    """Per-block membership counts of `subset` w.r.t. the gee's partial sums.

    Block i is the half-open interval (p_{i-1}, p_i] between consecutive
    partial sums.  Raises OutOfRangeError if an element exceeds the span.
    """
    prefix = gee.prefix_sums
    counts = [0] * gee.k
    for j in subset:
        if (i := bisect_left(prefix, j)) == gee.k:  # j is beyond the last partial sum
            raise OutOfRangeError(f"element {j} exceeds the gee span {gee.span}")
        counts[i] += 1
    return tuple(counts)


def is_subgee_profile(profile: Iterable[int]) -> bool:
    """True iff every suffix of length i sums to at most i.

    These are exactly the block profiles realized by subgees.
    """
    acc = 0
    for i, t in enumerate(reversed(tuple(profile)), start=1):
        acc += t
        if acc > i:
            return False
    return True


def compositions(total: int, k: int) -> Iterator[Profile]:
    """All k-tuples of nonnegative integers summing to `total`, lexicographic.

    A negative total yields nothing; (total=0, k=0) yields the empty tuple.
    """
    if k == 0:
        if total == 0:
            yield ()
        return
    for first in range(max(total, 0) + 1):
        for rest in compositions(total - first, k - 1):
            yield (first, *rest)
