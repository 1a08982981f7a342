"""The linear-programming lower bound on the total of `realize`'s vectors.

`least_total_carried` states the LP for one side count, and `least_value`
solves it exactly.  They live apart from `lengths`, the package's largest
module: with no bytecode cache, importing compiles each module whole, and
the largest one sets the peak memory of the import.  `lengths` builds the
rows, as weights over the parts, and this module knows no sets.

The LP's dual carries from one side count to the next.  At side count n
the variables are x_j >= 0, with increments d_1 = 1 + x_1 and d_j = x_j.
A row of weights u_1..u_n sums to sum u_i p_i = sum U_j d_j, where U_j =
u_j + ... + u_n is its suffix sum, and the total T to sum t_j d_j with t_j
= n - j + 1.  The gene row u is -1 on G, and each escape row u is 1 on
S + {n}, so the objective and the rows s_i = b_i + sum a_ij x_j >= 0 are

    z   = T                 = n + sum t_j x_j
    s_G = T - 2p(G) - 1     = a_1 - 1 + sum a_j x_j    a_j = t_j + 2U_j
    s_S = 2p(S+{n}) - T - 1 = a_1 - 1 + sum a_j x_j    a_j = 2U_j - t_j

with one s_S per escape set S.  For multipliers y_i >= 0 on the rows,
z = (z_0 - sum y_i b_i) + sum r_j x_j + sum y_i s_i with reduced costs
r_j = t_j - sum y_i a_ij, so when every r_j >= 0, z_0 - sum y_i b_i bounds
z from below (weak duality).  From n to n + 1 each set keeps its members
below n, the gee's sides lie below n, and the top moves from n to n + 1:
for j <= n each U_j stays and t_j grows by 1, so the gene row's a_j grows
by 1 and each escape row's falls by 1, and the new column has t = 1, U =
-1 on the gene row and U = 1 on each escape row, so a = -1 and a = 1; z_0
and b_G grow by 1 and each b_S falls by 1.  The escape sets with top n
join with y = 0.  With delta = y_G - sum y_S, every old r_j changes by
1 - delta, the new r_(n+1) is 1 + delta, and the bound grows by 1 - delta.
So four integers carry it, all over the basis determinant D: the bound,
the least r_j (0 when some x_j is basic), delta and D (`next_side_count`).
At side count n, column n reads the same t = 1, a = -1 and a = 1, so
r_n = 1 + delta (D + delta over D), and a least r_j >= 0 gives delta >= -D.
"""

from __future__ import annotations

from itertools import accumulate

Carry = tuple[int, int, int, int]  # bound, least reduced cost, delta, determinant


def least_total_carried(rows: list[list[int]], cutoff: int) -> tuple[int | None, Carry]:
    """The ceiling of the least total T of a rational p_1 <= ... <= p_n with
    p_1 >= 1, 2p(G) <= T - 1 and 2p(S + {n}) >= T + 1 for each escape set S,
    from `least_value`: None when no p fits, and a value from cutoff up to
    the ceiling when the LP's bound reaches cutoff first.  Each passing
    integer vector fits, so none sums to less.  The rows are weights over
    p_1..p_n: the gene row first, -1 on G, then one row per escape set S,
    1 on S + {n} (`lengths._rows`).

    With it come the four integers that carry the LP's dual bound to the
    next side count (module docstring): its bound and least reduced cost
    of an x column, delta = y_G - sum y_S and the determinant, read from
    the last tableau, at the optimum, the cutoff stop or the row that
    proves the LP infeasible.
    """
    n = len(rows[0])
    value, dual, d = least_value(_tableau(rows), cutoff)
    y = dual[n + 1:]
    return value, (dual[0], min(dual[1:n + 1]), y[0] - sum(y[1:]), d)


def next_side_count(carry: Carry) -> Carry:
    """The carry moved from side count n to n + 1 (module docstring).  When
    its least reduced cost is >= 0, its bound over the determinant is a
    lower bound on every passing total with n + 1 sides."""
    bound, least, delta, d = carry
    return bound + d - delta, min(least + d - delta, d + delta), delta, d


def _tableau(rows: list[list[int]]) -> list[list[int]]:
    """The rows of `least_total_carried`'s LP, in `least_value`'s form: T,
    then each weight row u, whose coefficient on x_j is the suffix sum from
    j of 2u_i + 1 for the gene row and 2u_i - 1 for an escape row (module
    docstring)."""
    n = len(rows[0])
    tab = [[n, *range(n, 0, -1)]]
    for sign, u in zip([1] + [-1] * len(rows), rows):  # the gene row, then the escapes
        row = [*accumulate([2 * w + sign for w in reversed(u)])][::-1]
        tab.append([row[0] - 1, *row])
    return tab


def least_value(tab: list[list[int]], cutoff: int) -> tuple[int | None, list[int], int]:
    """The ceiling of the least z = z_0 + sum(c_j x_j) over rationals x >= 0
    with every s_i = b_i + sum(a_ij x_j) >= 0, where tab holds the rows
    [z_0, c_1, ..., c_m] and then [b_i, a_i1, ..., a_im], all integers, and
    no c_j is negative.  None when no x fits the rows; some value from
    cutoff up to that ceiling when the bound below reaches cutoff first.
    The rows are overwritten.  Returned with it are the last bound and z's
    coefficients, [bound, r_1, ..., r_m, y_1, y_2, ...] with 0 for each
    basic variable, over the returned basis determinant D: the x_j's reduced
    costs r_j and the rows' multipliers y_i, all >= 0 at every step.

    A dual simplex under Bland's rule starts from x = 0, at which each s_i
    is basic and every cost is >= 0: of the rows with b_i < 0, the one whose
    basic variable has the least label leaves; of its columns with a_ij > 0,
    the one with the least c_j / a_ij enters, ties going to the least label,
    or, with no such column, the row proves that no x fits.  The entering
    variable's row is the leaving row solved for it (`_pivot`).  z_0 is a
    lower bound on z at every step and only grows, so the loop stops once
    it passes cutoff - 1.
    """
    m = len(tab[0]) - 1
    free = list(range(m))  # each column's label: x_1..x_m, then s_1, s_2, ...
    basic = [-1, *range(m, m + len(tab) - 1)]  # basic[i]: row i's label; row 0 is z
    d = 1
    feasible = True
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
            feasible = False
            break
        d = _pivot(tab, r, c, d)
        basic[r], free[c - 1] = free[c - 1], basic[r]
    dual = [tab[0][0]] + [0] * (m + len(tab) - 1)
    for c, label in enumerate(free, start=1):
        dual[label + 1] = tab[0][c]
    return (-(-tab[0][0] // d) if feasible else None), dual, d


def _pivot(tab: list[list[int]], r: int, c: int, d: int) -> int:
    """Exchange row r's basic variable for column c's, on the entry a > 0,
    and return the new determinant.  Entries are kept as integers over the
    basis determinant d > 0: every other entry turns into a 2x2
    determinant, divided exactly by the old d (Bareiss), and a becomes the
    new determinant, so no Fraction is made."""
    pivot = tab[r]
    p = pivot[c]
    for i, row in enumerate(tab):
        if i != r:
            f = row[c]
            tab[i] = [(x * p - f * y) // d for x, y in zip(row, pivot)]
            tab[i][c] = f
    tab[r] = [-y for y in pivot]
    tab[r][c] = d
    return p
