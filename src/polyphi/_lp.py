"""The linear-programming lower bound on the total of `realize`'s vectors.

`least_total` states the LP for one side count, and `least_value` solves
it exactly.  They live apart from `lengths`, the package's largest module:
with no bytecode cache, importing compiles each module whole, and the
largest one sets the peak memory of the import.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate


def least_total(
    n: int, gene: Iterable[int], escapes: list[tuple[int, ...]], cutoff: int
) -> int | None:
    """The ceiling of the least total T of a rational p_1 <= ... <= p_n with
    p_1 >= 1, 2p(G) <= T - 1 and 2p(S + {n}) >= T + 1 for each escape set S,
    from `least_value`: None when no p fits, and a value from cutoff up to
    the ceiling when the LP's bound reaches cutoff first.  Each passing
    integer vector fits, so none sums to less.

    The variables are the increments d_j = p_j - p_{j-1} >= 0, with d_1 =
    1 + x_1 and d_j = x_j above it.  T - 2p(A) is the sum of d_j times the
    count of sides from j on outside A, less the count inside A.
    """
    tab = []
    for members, sign in [((), 1), (gene, 1), *(((*s, n), -1) for s in escapes)]:
        steps = [sign] * n
        for i in members:
            steps[i - 1] = -sign
        row = [*accumulate(reversed(steps))][::-1]
        tab.append([row[0] - 1, *row])
    tab[0][0] = n  # the first row is T itself, with no margin
    return least_value(tab, cutoff)


def least_value(tab: list[list[int]], cutoff: int) -> int | None:
    """The ceiling of the least z = z_0 + sum(c_j x_j) over rationals x >= 0
    with every s_i = b_i + sum(a_ij x_j) >= 0, where tab holds the rows
    [z_0, c_1, ..., c_m] and then [b_i, a_i1, ..., a_im], all integers, and
    no c_j is negative.  None when no x fits the rows; some value from
    cutoff up to that ceiling when the bound below reaches cutoff first.
    The rows are overwritten.

    A dual simplex under Bland's rule starts from x = 0, at which each s_i
    is basic and every cost is >= 0: of the rows with b_i < 0, the one whose
    basic variable has the least label leaves; of its columns with a_ij > 0,
    the one with the least c_j / a_ij enters, ties going to the least label,
    or, with no such column, the row proves that no x fits.  The entering
    variable's row is the leaving row solved for it.  z_0 is a lower bound
    on z at every step and only grows, so the loop stops once it passes
    cutoff - 1.  Entries are kept as integers over the basis determinant
    D > 0: a pivot on the entry a > 0 turns every other entry into a 2x2
    determinant, divided exactly by the old D (Bareiss), and makes a the
    new D, so no Fraction is made.
    """
    m = len(tab[0]) - 1
    free = list(range(m))  # each column's label: x_1..x_m, then s_1, s_2, ...
    basic = [-1, *range(m, m + len(tab) - 1)]  # basic[i]: row i's label; row 0 is z
    d = 1
    while tab[0][0] <= (cutoff - 1) * d:
        out = [i for i in range(1, len(tab)) if tab[i][0] < 0]
        if not out:
            break
        r = min(out, key=basic.__getitem__)
        pivot = tab[r]
        c = 0
        for j in range(1, m + 1):
            a = pivot[j]
            if a > 0 and (
                not c
                or (cross := tab[0][j] * pivot[c] - tab[0][c] * a) < 0
                or not cross and free[j - 1] < free[c - 1]
            ):
                c = j
        if not c:
            return None
        p = pivot[c]
        for i, row in enumerate(tab):
            if i != r:
                f = row[c]
                tab[i] = [(x * p - f * y) // d for x, y in zip(row, pivot)]
                tab[i][c] = f
        tab[r] = [-y for y in pivot]
        tab[r][c] = d
        d = p
        basic[r], free[c - 1] = free[c - 1], basic[r]
    return -(-tab[0][0] // d)
