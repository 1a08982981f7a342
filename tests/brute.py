"""Independent reference implementations used as test oracles.

Everything here works on plain tuples and frozensets and avoids the
library's algorithms.  Each layer keeps its definition-level oracle, one
oracle that walks every candidate without a cut, and at most one pruned
predecessor for sizes no other oracle reaches; an oracle that no test
compares against any more is deleted (`test_package.py` checks that every
function here is named in a test).  The map, by library function:

combinatorics
  domination          brute_set_leq, every injection (subsets of 1..7);
                      greedy_set_leq, the i-th largest against the i-th
                      largest, checked against it and used by other tests
  binom_parity        exact_binomial (falling factorials), pascal_parity
  block_counts        theta_of, a direct scan
lengths
  is_generic          brute_is_generic, every subset
  (shortness)         is_short, the scaled lengths summed; the gene tests' helper
  genetic_code        brute_genetic_code, pairwise maximality over all
                      subsets: its cost grows with the square of 2^(n-1),
                      so it reaches n <= 10;
                      genetic_code_by_gray_walk, every subset in Gray-code
                      order with no cut, n <= 18;
                      genetic_code_by_subset_sums, the search that walks
                      every level to the leaves, the only oracle at n 19-27,
                      which also names the first vector of test_sweeps'
                      genetic_code digest that changed
  enumerate_subgees   brute_subgees, every subset (span <= 10);
                      subgees_by_profile, profiles expanded block by block
  realize_gee         realize_by_genetic_code, every ascending tuple
                      (ascending_tuples) at every side count up to its
                      total, with its genetic code computed:
                      every gee with k <= 3 and a_i <= 4 at totals <= 20,
                      and five unrealizable gees, k 3-6, at totals <= 26;
                      least_undominated_unreduced, the O(k^2) escape sets
                      before reduction, behind the brute filter that checks
                      _least_undominated, _passing_vectors and the side
                      counts that the certificates of the test-side
                      _certified_window rule out; ascending_tuples also
                      lists the completions whose largest row value each
                      _prefix_tables bound must reach (n <= 7)
  (_lp.least_value)    least_total_by_simplex, a primal simplex over Fractions
                      on its own rows (d_1 >= 1 a row, not a shift) that
                      minimises (artificials, T) lexicographically; every n
                      of the window, k <= 3 and a_i <= 3
  (_lp dual values,   dual_bound_by_rows, weak duality on the same rows for
   next_side_count)   given multipliers, and reduced_costs_by_rows under
                      them: the LP's own, at several cutoffs, and those
                      carried to every later n of the window, k <= 4 and
                      a_i <= 3; least_total_by_simplex again from
                      realize's stop up to the bound, k <= 4, a_i <= 3
  (pair certificate)  pair_certificate_sweep, not an oracle: the
                      certificate decided with greedy_set_leq against the
                      library's LPs, k <= 4 and a_i <= 4 (tier-1), and k 6-8
                      in pair_sweep.py
duality
  admissible_summands summands_by_enumeration, every composition of
                      k - |profile| filtered by the suffix condition, k <= 6
  pairing_by_profile, profile_sum_by_enumeration, the same terms summed
  pairing_table       (k <= 5 and a_i <= 3, and the zero profile of twos up
                      to k = 11); key sets by subgee_profiles_by_filter
                      (k <= 5) and by suffix_fillings (k 6-12)
  suffix_fillings     the general prefix-bound walk over the suffix
                      condition (any base, caps and budget) that both
                      library walks replaced; its own oracle is
                      fillings_by_filter, every tuple under the caps
  (_summand_count)    the length of admissible_summands (k <= 7, entries
                      <= 2) and the Catalan numbers C_k at the zero
                      profile (k <= 30)
relations
  subgee_count        brute_subgees (span <= 10), subgee_profiles_by_filter
cli
  gene stdout         gene_stdouts, json.dumps and str joins of genetic_code
  phi text            phi_text, rendered from the json payload
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Iterator
from fractions import Fraction
from itertools import accumulate, combinations, permutations, product
from math import factorial, lcm

from polyphi._lp import least_total_carried
from polyphi.combinatorics import (
    GeeParams,
    IndexSet,
    Profile,
    binom_parity,
    compositions,
    is_subgee_profile,
)
from polyphi.errors import (
    EmptySpaceError,
    NotGenericError,
    RealizationNotFoundError,
    SizeLimitError,
)
from polyphi.lengths import (
    DEFAULT_MAX_N,
    GeneticCode,
    LengthVector,
    genetic_code,
    _least_undominated,
    _rows,
    is_generic,
    monogenic_gee,
)


def exact_binomial(m: int, r: int) -> int:
    """binomial(m, r) for any integer m and r >= 0, via the falling factorial."""
    num = 1
    for i in range(r):
        num *= m - i
    return num // factorial(r)


def pascal_parity(limit: int) -> list[list[int]]:
    """Pascal's triangle mod 2 up to row `limit` inclusive."""
    rows = [[1]]
    for m in range(1, limit + 1):
        prev = rows[-1]
        rows.append(
            [1] + [(prev[r - 1] + prev[r]) % 2 for r in range(1, m)] + [1]
        )
    return rows


def brute_set_leq(small, large) -> bool:
    """Domination by exhaustive search over injections."""
    s = sorted(small)
    for chosen in combinations(sorted(large), len(s)):
        for perm in permutations(chosen):
            if all(x <= y for x, y in zip(s, perm)):
                return True
    return False


def greedy_set_leq(small, large) -> bool:
    """Domination by pairing the i-th largest element of `small` with the
    i-th largest of `large`."""
    s, t = sorted(small), sorted(large)
    return len(s) <= len(t) and all(x <= y for x, y in zip(s, t[len(t) - len(s):]))


def is_short(lengths, subset) -> bool:
    """Do the lengths indexed by `subset` sum below the rest?  Raises
    NotGenericError when the two sums are equal."""
    ints = lengths.scaled()
    twice, total = 2 * sum(ints[j - 1] for j in subset), sum(ints)
    if twice == total:
        raise NotGenericError(f"subset {subset} sums to exactly half the perimeter")
    return twice < total


def theta_of(subset, increments) -> tuple[int, ...]:
    """Block counts of `subset` for the given increments, by direct scan."""
    bounds, acc = [], 0
    for x in increments:
        acc += x
        bounds.append(acc)
    counts = [0] * len(increments)
    for j in subset:
        for i, b in enumerate(bounds):
            if j <= b:
                counts[i] += 1
                break
        else:
            raise ValueError(f"{j} beyond the last block bound {acc}")
    return tuple(counts)


def brute_is_generic(lengths) -> bool:
    total = sum(lengths)
    n = len(lengths)
    for mask in range(1 << n):
        s = sum(lengths[i] for i in range(n) if (mask >> i) & 1)
        if 2 * s == total:
            return False
    return True


def brute_genetic_code(lengths) -> list[tuple[int, ...]]:
    """Maximal short subsets containing n, via pairwise domination checks.

    `lengths` must be sorted ascending and generic.  Genes come back as
    ascending tuples sorted by (size desc, lex).
    """
    n = len(lengths)
    total = sum(lengths)
    shorts: list[frozenset[int]] = []
    for mask in range(1 << (n - 1)):
        members = frozenset(
            [n] + [i + 1 for i in range(n - 1) if (mask >> i) & 1]
        )
        s = sum(lengths[i - 1] for i in members)
        if 2 * s == total:
            raise ValueError("not generic")
        if 2 * s < total:
            shorts.append(members)
    maximal = [
        s
        for s in shorts
        if not any(s != t and brute_set_leq(s, t) for t in shorts)
    ]
    genes = [tuple(sorted(s)) for s in maximal]
    genes.sort(key=lambda g: (-len(g), g))
    return genes


def brute_subgees(increments) -> list[tuple[int, ...]]:
    """All subsets of {1..span} dominated by the gee, as ascending tuples."""
    span = sum(increments)
    gee, acc = [], 0
    for x in increments:
        acc += x
        gee.append(acc)
    found = []
    for mask in range(1 << span):
        subset = tuple(i + 1 for i in range(span) if (mask >> i) & 1)
        if brute_set_leq(subset, gee):
            found.append(subset)
    found.sort(key=lambda s: (len(s), s))
    return found


def subgee_profiles_by_filter(gee) -> list[tuple[int, ...]]:
    """The block profiles of the subgees in (size, lex) order, found by
    listing every composition of each size and keeping those that fit
    their blocks and meet the suffix condition."""
    return [
        profile
        for r in range(gee.k + 1)
        for profile in compositions(r, gee.k)
        if is_subgee_profile(profile) and all(c <= a for c, a in zip(profile, gee.a))
    ]


def fillings_by_filter(base, caps, budget) -> list[tuple[int, ...]]:
    """The tuples x with 0 <= x_i <= caps_i summing to `budget` for which
    base + x meets the suffix condition, in lexicographic order, found by
    listing every tuple under the caps and filtering."""
    return [
        x
        for x in product(*(range(c + 1) for c in caps))
        if sum(x) == budget and is_subgee_profile(tuple(p + q for p, q in zip(base, x)))
    ]


def suffix_fillings(base: Profile, caps: Profile, budget: int) -> Iterator[Profile]:
    """The tuples x with 0 <= x_i <= caps_i summing to `budget` for which
    base + x meets the suffix condition, in lexicographic order.

    With k = len(base) and T = |base| + budget, every suffix of length j of
    base + x sums to at most j exactly when T <= k and every prefix of
    length i sums to at least i - (k - T).  A depth-first walk on an
    explicit stack picks x_i from the least value keeping the prefix
    through position i at that bound up to min(caps_i, remaining budget).
    The last entry is forced to the remaining budget, so the last two are
    yielded directly.  No branch dies when base meets the suffix condition,
    T <= k and every cap is positive or the budget is 0, so the walk then
    takes O(k) steps per yielded tuple.
    """
    k = len(base)
    slack = k - sum(base) - budget
    if budget < 0 or slack < 0:
        return
    if k < 2:  # x is () or (budget,)
        if k == 0 or budget <= caps[0]:
            yield (budget,) * k
        return
    stack = [((), budget, slack)]  # (head, budget left, lead of the prefix over its bound)
    while stack:
        head, rest, lead = stack.pop()
        j = len(head)
        lo, hi = max(0, 1 - lead - base[j]), min(caps[j], rest)
        if j == k - 2:
            for x in range(max(lo, rest - caps[-1]), hi + 1):
                yield (*head, x, rest - x)
        else:
            step = lead + base[j] - 1
            stack.extend(((*head, x), rest - x, step + x) for x in range(hi, lo - 1, -1))


def subgees_by_profile(gee) -> list[IndexSet]:
    """All subgees in (size, lex) order: each profile of
    `subgee_profiles_by_filter` expanded by choosing every block's members
    independently, then the whole list sorted."""
    prefix = (0, *gee.prefix_sums)
    found = []
    for profile in subgee_profiles_by_filter(gee):
        block_choices = [
            combinations(range(prefix[i] + 1, prefix[i + 1] + 1), profile[i])
            for i in range(gee.k)
        ]
        for picks in product(*block_choices):
            found.append(IndexSet(j for block in picks for j in block))
    found.sort(key=lambda s: (len(s.elements), s.elements))
    return found


def summands_by_enumeration(gee, profile) -> list[tuple[tuple[int, ...], int]]:
    """The admissible complementary profiles B with their terms, found by
    listing every composition of k - |profile| and filtering."""
    return [
        (b, int(all(binom_parity(ai + bi - 2, bi) for ai, bi in zip(gee.a, b))))
        for b in compositions(gee.k - sum(profile), gee.k)
        if is_subgee_profile(tuple(x + y for x, y in zip(b, profile)))
    ]


def profile_sum_by_enumeration(gee, profile) -> int:
    """Mod-2 sum of the terms of `summands_by_enumeration`."""
    return sum(term for _, term in summands_by_enumeration(gee, profile)) & 1


def genetic_code_by_gray_walk(lengths) -> GeneticCode:
    """All maximal short subsets containing n, ordered by (size desc, lex).

    Walks every subset of {1..n-1} in Gray-code order with an incremental
    sum.  A short set S (containing n) is maximal iff every one-step
    enlargement in the domination order is long; it suffices to test
    adding the smallest absent element and bumping each member up by one,
    because shortness is downward closed and any strict domination factors
    through such a step.  Raises as `genetic_code` does on non-generic
    lengths and empty spaces; it has no size guard.
    """
    n = lengths.n
    if not is_generic(lengths):
        raise NotGenericError("length vector is not generic")
    ints = lengths.scaled()
    total = sum(ints)
    if 2 * ints[-1] > total:
        raise EmptySpaceError(f"{{{n}}} is long, the moduli space is empty")

    m = n - 1
    genes: list[IndexSet] = []
    mask = 0
    cur = ints[-1]
    for step in range(1 << m):
        if step:
            b = (step & -step).bit_length() - 1
            mask ^= 1 << b
            cur += ints[b] if (mask >> b) & 1 else -ints[b]
        if 2 * cur >= total:
            continue
        add = (~mask & (mask + 1)).bit_length() - 1
        if add < m and 2 * (cur + ints[add]) < total:
            continue
        bits = mask
        maximal = True
        while bits:
            low = bits & -bits
            bits ^= low
            idx = low.bit_length() - 1
            if idx + 1 < m and not (mask >> (idx + 1)) & 1:
                if 2 * (cur - ints[idx] + ints[idx + 1]) < total:
                    maximal = False
                    break
        if maximal:
            genes.append(IndexSet([*(i + 1 for i in range(m) if (mask >> i) & 1), n]))

    genes.sort(key=lambda g: (-len(g), g.elements))
    return GeneticCode(tuple(genes), n)


def genetic_code_by_subset_sums(lengths, *, max_n: int = DEFAULT_MAX_N) -> GeneticCode:
    """`genetic_code` as it was before completion tables: the depth-first
    search walks every level down to the leaves, and cuts a child unless a
    subset sum of its undecided sides (read exactly from the sorted sums of
    the (n-1)//2 shortest sides, kept with repeats; the sum of all of them
    above that) lands in the window below the room that the cheapest fixed
    enlargement leaves.  Its surviving leaves are the genes.  Same ordering,
    exceptions, messages and size guard.
    """
    n = lengths.n
    if n > max_n:
        raise SizeLimitError(f"n={n} exceeds the subset-enumeration guard max_n={max_n}")
    if not is_generic(lengths):
        raise NotGenericError("length vector is not generic")
    ints = lengths.scaled()
    total = sum(ints)
    if 2 * ints[-1] > total:
        raise EmptySpaceError(f"{{{n}}} is long, the moduli space is empty")

    below = [0, *accumulate(ints[:-1])]  # below[i]: the sum of the i shortest sides
    # Above top, sums[i] is [below[i]], which s[bisect_left(s, room) - 1]
    # reads whichever side of room it is on.
    top = (n - 1) // 2
    sums = [[0]]
    for v in ints[:top]:
        s = sums[-1]
        sums.append(sorted(s + [x + v for x in s]))  # timsort merges the two runs
    sums += ([b] for b in below[top + 1:])
    limit = (total + 1) // 2  # a sum is short exactly when it is below limit
    genes: list[tuple[int, ...]] = []
    # (undecided count j, sum, ascending members, cheapest fixed enlargement);
    # `total` stands for "no enlargement fixed yet", as it can never be short.
    stack = [(n - 1, ints[-1], (n,), total)]
    while stack:
        j, cur, members, cheapest = stack.pop()
        if not j:
            genes.append(members)
            continue
        i = j - 1
        side = ints[i]
        room = limit - cur  # the set stays short while it adds less than this
        if side >= room:
            # Sides t+1..j are all too long to take: leave them out together.
            t = bisect_left(ints, room, 0, i)
            s = sums[t]
            if s[bisect_left(s, room) - 1] + cheapest >= room:
                stack.append((t, cur, members, cheapest))
            continue
        s = sums[i]
        # Leave out side j, which fixes adding it.
        fixed = side if side < cheapest else cheapest
        if s[bisect_left(s, room) - 1] + fixed >= room:
            stack.append((i, cur, members, fixed))
        # Take side j; without side j+1 that fixes moving j up to it.
        room -= side
        if members[0] != j + 1 and ints[j] - side < cheapest:
            cheapest = ints[j] - side
        if cheapest and s[bisect_left(s, room) - 1] + cheapest >= room:
            stack.append((i, cur + side, (j, *members), cheapest))

    genes.sort()  # lex, then stably by size, largest first
    genes.sort(key=len, reverse=True)
    return GeneticCode(tuple(map(IndexSet._from_ascending, genes)), n)


def gene_stdouts(lengths: LengthVector) -> dict[str, str]:
    """What `polyphi gene` prints in each format for a vector with a
    genetic code: genes from `genetic_code(...).genes` by `descending()`,
    every int written by `str`, and json by `json.dumps`."""
    code = genetic_code(lengths)
    genes = [g.descending() for g in code.genes]
    a = monogenic_gee(code).a if code.is_monogenic else None
    payload = {
        "n": code.n,
        "generic": True,
        "code": [list(g) for g in genes],
        "monogenic": code.is_monogenic,
        "a": list(a) if a is not None else None,
    }
    flag = "true" if code.is_monogenic else "false"
    cells = [
        str(code.n),
        "true",
        flag,
        " ".join(map(str, a)) if a is not None else "",
        ";".join(" ".join(map(str, g)) for g in genes),
    ]
    lines = [
        f"n: {code.n}",
        "generic: true",
        "code: " + "; ".join("{" + ",".join(map(str, g)) + "}" for g in genes),
        f"monogenic: {flag}",
    ]
    if a is not None:
        lines.append("a: (" + ",".join(map(str, a)) + ")")
    return {
        "text": "".join(line + "\n" for line in lines),
        "json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
        "csv": "n,generic,monogenic,a,code\n" + ",".join(cells) + "\n",
    }


def phi_text(payload: dict) -> str:
    """What `polyphi phi` prints as text for its json payload, each
    summand written as `B: {tuple(b)} term={t}`."""
    theta = payload["theta"]
    lines = [
        f"phi: {payload['phi']}",
        f"theta: {tuple(theta) if theta is not None else 'undefined (subscript beyond gee span)'}",
        f"subgee: {'true' if payload['subgee'] else 'false'}",
        *(f"B: {tuple(s['b'])} term={s['term']}" for s in payload.get("explain", [])),
    ]
    return "".join(line + "\n" for line in lines)


def ascending_tuples(parts: int, total: int, lo: int = 1) -> Iterator[tuple[int, ...]]:
    """Nondecreasing tuples of `parts` integers >= lo summing to total, lex order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for v in range(lo, total // parts + 1):
        for rest in ascending_tuples(parts - 1, total - v, v):
            yield (v, *rest)


def realize_by_genetic_code(gee, search_bound: int) -> LengthVector:
    """`realize_gee` without its prefix cuts, undominated-set tests, LP
    bounds or stop: every ascending tuple, at every side count n up to its
    total, on which the gene is short has its genetic code computed and
    compared.  Same scan order, result and error message."""
    if search_bound < 1:
        raise ValueError(f"search bound must be positive, got {search_bound}")
    n_min = max(3, gee.span + 1)
    for total in range(n_min, search_bound + 1):
        for n in range(n_min, total + 1):
            gene = IndexSet([*gee.gee(), n])
            target = GeneticCode((gene,), n)
            for parts in ascending_tuples(n, total):
                # A long (or, on a tie, non-generic) gene rules the candidate out.
                if 2 * sum(parts[j - 1] for j in gene) >= total:
                    continue
                candidate = LengthVector(tuple(Fraction(p) for p in parts))
                try:
                    code = genetic_code(candidate)
                except (NotGenericError, EmptySpaceError):
                    continue
                if code == target:
                    return candidate
    raise RealizationNotFoundError(
        f"no integer length vector with total <= {search_bound} realizes gee {gee.a}"
    )


def least_undominated_unreduced(gee, n: int) -> list[tuple[int, ...]]:
    """The O(k^2) least subsets of {1..n-1} that the gee does not dominate,
    with none dropped for dominating another: {1, ..., k+1}, and for each
    size r <= k and position j <= r the set 1, ..., j-1 that climbs by ones
    from g_{k-r+j}+1.  The library lists {1, ..., k+1} and the k sets with j = 1.
    Those with top above n-1 are left out."""
    k, g = gee.k, gee.prefix_sums
    sets = [tuple(range(1, k + 2))]
    for r in range(1, k + 1):
        for j in range(1, r + 1):
            lo = g[k - r + j - 1] + 1
            sets.append((*range(1, j), *range(lo, lo + r - j + 1)))
    return [s for s in sets if s[-1] <= n - 1]


def reduced_costs_by_rows(n: int, gene, escapes, y) -> list[Fraction]:
    """The reduced costs r_j = t_j - sum(y_i a_ij), j = 1..n, of the total T
    on the rows a.d >= 1 of `least_total_by_simplex`, written here again,
    under multipliers y: one for the gene row, T - 2p(G), and one per escape
    row, 2p(S + {n}) - T, in order.  A set A sums to the sum of the
    increments d_j times |A in [j, n]|."""

    def counts(members):  # |A in [j, n]| for j = 1..n
        inside = set(members)
        return [*accumulate(int(j in inside) for j in range(n, 0, -1))][::-1]

    sides = counts(range(1, n + 1))
    rows = [[t - 2 * g for t, g in zip(sides, counts(gene))]]
    rows += [[2 * e - t for t, e in zip(sides, counts((*s, n)))] for s in escapes]
    den = lcm(*(Fraction(v).denominator for v in y))  # exact int sums over den
    used = [(int(v * den), row) for v, row in zip(y, rows) if v]
    return [Fraction(t * den - sum(v * row[j] for v, row in used), den) for j, t in enumerate(sides)]


def dual_bound_by_rows(n: int, gene, escapes, y) -> Fraction | None:
    """The lower bound on `least_total_by_simplex`'s T that multipliers y
    give, or None when a multiplier or a reduced cost is negative.

    T - sum(y_i a_i.d) is the sum of r_j d_j.  When y >= 0 and every r_j >=
    0, d_1 >= 1 and each a_i.d >= 1 give T >= r_1 + sum(y_i): weak duality,
    with r_1 as the multiplier of the row d_1 >= 1.
    """
    costs = reduced_costs_by_rows(n, gene, escapes, y)
    if min(y) < 0 or min(costs) < 0:
        return None
    return costs[0] + sum(y)


def least_total_by_simplex(n: int, gene, escapes) -> Fraction | None:
    """The least total T of a rational vector p_1 <= ... <= p_n with p_1 >= 1,
    2p(G) <= T - 1 and 2p(S + {n}) >= T + 1 for each escape set S, or None
    when there is no such vector.

    The rows are written in the increments d_j = p_j - p_{j-1} >= 0: a set
    A sums to the sum of d_j times |A in [j, n]|, and p_1 >= 1 is the row
    d_1 >= 1.  Each row a.d >= 1 gets a surplus and an artificial variable,
    and one primal simplex over Fractions, under Bland's rule, minimises the
    pair (sum of artificials, T) lexicographically from the all-artificial
    basis: the first part is zero at the end exactly when a vector fits.
    The last two rows of the tableau hold the two parts' reduced costs and,
    negated, their values.
    """

    def counts(members):
        return [sum(i >= j for i in members) for j in range(1, n + 1)]

    sides = counts(range(1, n + 1))
    rows = [[int(j == 1) for j in range(1, n + 1)]]
    rows.append([t - 2 * g for t, g in zip(sides, counts(gene))])
    rows += [[2 * e - t for t, e in zip(sides, counts((*s, n)))] for s in escapes]
    m = len(rows)
    tab = [
        [Fraction(x) for x in row] + [-int(i == k) for k in range(m)]
        + [int(i == k) for k in range(m)] + [Fraction(1)]
        for i, row in enumerate(rows)
    ]
    # Reduced costs at the all-artificial basis: artificials cost (1, 0), T costs (0, sides).
    tab.append([-sum(col) for col in zip(*tab[:m])])
    tab[-1][n + m:-1] = [0] * m
    tab.append([Fraction(t) for t in sides] + [0] * (2 * m + 1))
    basis = list(range(n + m, n + 2 * m))
    while True:
        enter = next(
            (j for j, r in enumerate(zip(tab[m], tab[m + 1])) if j < n + 2 * m and r < (0, 0)),
            None,
        )
        if enter is None:
            break
        # Every cost is >= 0 on variables >= 0, so some row bounds the step.
        _, _, r = min(
            (row[-1] / row[enter], b, i)
            for i, (b, row) in enumerate(zip(basis, tab))
            if row[enter] > 0
        )
        pivot = tab[r][enter]
        tab[r] = [x / pivot for x in tab[r]]
        for i, row in enumerate(tab):
            if i != r and row[enter]:
                f = row[enter]
                tab[i] = [x - f * y for x, y in zip(row, tab[r])]
        basis[r] = enter
    return None if tab[m][-1] else -tab[m + 1][-1]


def pair_certificate_sweep(gees) -> int:
    """How many of the gees (tuples of increments) the pair certificate
    refuses, asserting on each gee that it fires exactly when the LP of
    every side count from n_min = max(3, span+1) through n_min + k + 2 is
    infeasible, and that otherwise n_min, n_min + 1 or n_min + 2 has a
    feasible LP.  The certificate is decided here with greedy_set_leq over
    the library's minimal escape sets, and the LPs are the library's
    (`lengths._rows`, `_lp.least_total_carried`): this sweep checks one
    library reader of those sets against the other, not against an oracle.
    `test_lengths` runs it on k <= 4 and a_i <= 4, and `pair_sweep.py` on
    the larger boxes."""
    fired = 0
    for a in gees:
        gee = GeeParams(a)
        g, least = gee.prefix_sums, _least_undominated(gee)
        fires = any(greedy_set_leq(s + t, g + g) for s, t in combinations(least, 2))
        n_min = max(3, gee.span + 1)
        feasible = [
            least_total_carried(_rows(n, (*g, n), [s for s in least if s[-1] < n]), 10**9)[0]
            is not None
            for n in range(n_min, n_min + gee.k + 3)
        ]
        assert fires == (not any(feasible)), a
        assert fires or any(feasible[:3]), a
        fired += fires
    return fired
