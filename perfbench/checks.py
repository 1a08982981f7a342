"""Independent output checks for the benchmark.

Nothing here imports polyphi.  Every expected value is recomputed with the
benchmark's own integer arithmetic, by methods that differ from the
program's: a branch-and-bound search for maximal short sets instead of a
Gray-code walk, and a transfer DP over the blocks for the duality value
instead of the composition enumeration.  Each check returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from math import comb, lcm


def scaled_ints(lengths: list[Fraction]) -> list[int]:
    """Sorted lengths as integers over their common denominator."""
    denom = 1
    for x in lengths:
        denom = lcm(denom, x.denominator)
    return sorted(int(x * denom) for x in lengths)


def _set_sum(w: list[int], members: tuple[int, ...]) -> int:
    return sum(w[i - 1] for i in members)


def is_short(w: list[int], members: tuple[int, ...]) -> bool:
    return 2 * _set_sum(w, members) < sum(w)


def enlargements(members: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """One-step enlargements of a set containing n in the domination order.

    Adding any absent index, or moving a member i up to an absent i+1 (n
    itself never moves).
    """
    present = set(members)
    out = [tuple(sorted(present | {j})) for j in range(1, n) if j not in present]
    for i in members:
        if i + 1 < n and i + 1 not in present:
            out.append(tuple(sorted((present - {i}) | {i + 1})))
    return out


def maximal_short_sets(w: list[int]) -> set[tuple[int, ...]]:
    """All maximal short sets containing n, for generic ascending integer lengths.

    A set X of {1..m} (m = n-1, with n added) is maximal short iff its slack
    s = cap - 2*sum(X) is positive, every move of a member i to an absent
    i+1 costs more than s, and so does adding the smallest absent index.
    Positions are decided from m down to 1; a branch is cut when the slack
    can no longer land in (0, bound), where bound is the least such cost
    already fixed.
    """
    n = len(w)
    m = n - 1
    cap = sum(w) - 2 * w[-1]
    pre = [0] * (m + 1)
    for i in range(1, m + 1):
        pre[i] = pre[i - 1] + w[i - 1]
    found: set[tuple[int, ...]] = set()
    chosen: list[int] = []

    def visit(i: int, total: int, bound: int, above_in: bool, lowest_out: int) -> None:
        if 2 * total >= cap:
            return
        if 2 * (total + pre[i]) <= cap - bound:
            return
        if i == 0:
            s = cap - 2 * total
            if lowest_out and 2 * w[lowest_out - 1] <= s:
                return
            found.add((*reversed(chosen), n))
            return
        gap = 2 * (w[i] - w[i - 1]) if i < m and not above_in else bound
        chosen.append(i)
        visit(i - 1, total + w[i - 1], min(bound, gap), True, lowest_out)
        chosen.pop()
        visit(i - 1, total, min(bound, 2 * w[i - 1]), False, i)

    if cap > 0:
        visit(m, 0, cap + 1, False, 0)
    return found


def is_generic(w: list[int]) -> bool:
    total = sum(w)
    if total % 2:
        return True
    sums = {0}
    for x in w:
        sums |= {s + x for s in sums if s + x <= total // 2}
    return total // 2 not in sums


def binom_odd(m: int, r: int) -> int:
    """binomial(m, r) mod 2 for any integer m, via the reflection for m < 0."""
    if m < 0:
        m = r - m - 1
    return comb(m, r) & 1


def phi_values(a: tuple[int, ...], thetas: list[tuple[int, ...]]) -> list[int]:
    """Duality values by a transfer DP over the blocks, last block first.

    The state is the suffix sum S of b + theta, kept at most the suffix
    length; block i moves S up by theta_i + b_i with weight
    binomial(a_i + b_i - 2, b_i) mod 2.  The value is the parity at S = k,
    which forces |b| = k - |theta|.  Vectors are shared between profiles
    with a common suffix.
    """
    k = len(a)
    memo: dict[tuple[int, ...], list[int]] = {(): [1]}

    def vector(suffix: tuple[int, ...]) -> list[int]:
        if suffix not in memo:
            j = len(suffix)
            prev = vector(suffix[1:])
            ai, ti = a[k - j], suffix[0]
            out = [0] * (j + 1)
            for s, par in enumerate(prev):
                if par:
                    for bi in range(j - s - ti + 1):
                        if binom_odd(ai + bi - 2, bi):
                            out[s + ti + bi] ^= 1
            memo[suffix] = out
        return memo[suffix]

    return [vector(t)[k] if sum(t) <= k else 0 for t in thetas]


def table_profiles(a: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Feasible subgee profiles in (size, lex) order."""
    out: list[tuple[int, ...]] = [()]
    for j, ai in enumerate(reversed(a), start=1):
        out = [(c, *p) for p in out for c in range(min(ai, j - sum(p)) + 1)]
    return sorted(out, key=lambda p: (sum(p), p))


def subgee_count(a: tuple[int, ...]) -> int:
    """Number of subgees (the relation basis N), by a DP over suffix sums."""
    states = {0: 1}
    for j, ai in enumerate(reversed(a), start=1):
        nxt: dict[int, int] = {}
        for s, v in states.items():
            for c in range(min(ai, j - s) + 1):
                nxt[s + c] = nxt.get(s + c, 0) + v * comb(ai, c)
        states = nxt
    return sum(states.values())


def profile_of(a: tuple[int, ...], subset: tuple[int, ...]) -> tuple[int, ...]:
    bounds, acc = [], 0
    for ai in a:
        acc += ai
        bounds.append(acc)
    counts = [0] * len(a)
    for j in subset:
        counts[next(i for i, b in enumerate(bounds) if j <= b)] += 1
    return tuple(counts)


# --- output parsers -------------------------------------------------------


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in re.findall(r"\d+", text))


def _csv_record(out: str) -> dict[str, str]:
    rows = list(csv.DictReader(io.StringIO(out)))
    if len(rows) != 1:
        raise ValueError(f"expected one CSV record, got {len(rows)}")
    return rows[0]


def _text_fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields.setdefault(key, value)
    return fields


def parse_gene(fmt: str, out: str) -> tuple[int, list[tuple[int, ...]]]:
    """(n, genes as ascending tuples, in printed order)."""
    if fmt == "json":
        d = json.loads(out)
        return d["n"], [tuple(sorted(g)) for g in d["code"]]
    if fmt == "csv":
        rec = _csv_record(out)
        return int(rec["n"]), [tuple(sorted(_ints(g))) for g in rec["code"].split(";")]
    fields = _text_fields(out)
    genes = [tuple(sorted(_ints(g))) for g in fields["code"].split(";")]
    return int(fields["n"]), genes


def parse_table(fmt: str, out: str) -> list[tuple[tuple[int, ...], int]]:
    if fmt == "json":
        return [(tuple(r["theta"]), r["phi"]) for r in json.loads(out)["rows"]]
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(out)))
        return [(_ints(r["theta"]), int(r["phi"])) for r in rows]
    rows = []
    for line in out.splitlines()[1:]:
        *theta, value = line.split()
        rows.append((tuple(int(t) for t in theta), int(value)))
    return rows


def parse_phi(fmt: str, out: str) -> tuple[int, list[int] | None]:
    """(phi, explain terms or None when the format omits them)."""
    if fmt == "json":
        d = json.loads(out)
        terms = [e["term"] for e in d["explain"]] if "explain" in d else None
        return d["phi"], terms
    if fmt == "csv":
        return int(_csv_record(out)["phi"]), None
    terms = [int(t) for t in re.findall(r"^B: .* term=(\d)$", out, re.M)]
    return int(_text_fields(out)["phi"]), terms


def parse_oracle(fmt: str, out: str) -> tuple[dict, list[tuple[tuple[int, ...], int, int]] | None]:
    """(summary fields, per-subgee (J, formula, oracle) values or None)."""
    if fmt == "json":
        d = json.loads(out)
        values = None
        if "values" in d:
            values = [(tuple(v["J"]), v["formula"], v["oracle"]) for v in d["values"]]
        return d, values
    if fmt == "csv":
        rec = _csv_record(out)
        return {
            "basis": int(rec["basis"]),
            "rank": int(rec["rank"]),
            "nullspace_dim": int(rec["nullspace_dim"]),
            "agree": rec["agree"] == "true",
        }, None
    fields = _text_fields(out)
    summary = {
        "basis": int(fields["basis"]),
        "rank": int(fields["rank"]),
        "nullspace_dim": int(fields["nullspace_dim"]),
        "agree": fields["agree"] == "true",
    }
    values = [
        (_ints(j), int(f), int(o))
        for j, f, o in re.findall(r"^J=\{([\d,]*)\} formula=(\d) oracle=(\d)$", out, re.M)
    ]
    return summary, values or None


def parse_verify(fmt: str, out: str) -> tuple[int | None, bool, int]:
    """(relation count or None, all annihilated, number of failures)."""
    if fmt == "json":
        d = json.loads(out)
        return d["relations"], d["all_annihilated"], len(d["failures"])
    if fmt == "csv":
        rec = _csv_record(out)
        failures = [f for f in rec["failures"].split(";") if f]
        return int(rec["relations"]), rec["all_annihilated"] == "true", len(failures)
    m = re.fullmatch(r"all (\d+) relations annihilated\n", out)
    if m:
        return int(m.group(1)), True, 0
    return None, False, out.count("relation not annihilated")


def parse_realize(fmt: str, out: str) -> tuple[list[Fraction], Fraction]:
    if fmt == "json":
        d = json.loads(out)
        return [Fraction(x) for x in d["lengths"]], Fraction(d["total"])
    if fmt == "csv":
        rec = _csv_record(out)
        return [Fraction(x) for x in rec["lengths"].split()], Fraction(rec["total"])
    fields = _text_fields(out)
    return [Fraction(x) for x in fields["lengths"].split(",")], Fraction(fields["total"])


# --- checks ---------------------------------------------------------------


def check_gene(p: dict, out: str) -> str | None:
    w = scaled_ints(p["lengths"])
    n = len(w)
    got_n, genes = parse_gene(p["fmt"], out)
    if got_n != n:
        return f"n={got_n}, expected {n}"
    for g in genes:
        if n not in g:
            return f"gene {g} lacks n"
        if not is_short(w, g):
            return f"gene {g} is long"
        for e in enlargements(g, n):
            if is_short(w, e):
                return f"gene {g} is not maximal: {e} is short"
    if genes != sorted(genes, key=lambda g: (-len(g), g)) or len(set(genes)) != len(genes):
        return "genes are not in (size desc, lex) order"
    if set(genes) != maximal_short_sets(w):
        return f"{len(genes)} genes, expected {len(maximal_short_sets(w))}"
    return None


def check_table(p: dict, out: str) -> str | None:
    a = p["a"]
    rows = parse_table(p["fmt"], out)
    if [t for t, _ in rows] != table_profiles(a):
        return "table rows are not the feasible profiles in (size, lex) order"
    expected = phi_values(a, [t for t, _ in rows])
    for (theta, value), want in zip(rows, expected):
        if sum(theta) == len(a) and value != 1:
            return f"full-size profile {theta} has phi={value}"
        if value != want:
            return f"phi{theta}={value}, expected {want}"
    return None


def check_phi(p: dict, out: str) -> str | None:
    value, terms = parse_phi(p["fmt"], out)
    expected = phi_values(p["a"], [profile_of(p["a"], p["J"])])[0]
    if value != expected:
        return f"phi={value}, expected {expected}"
    if terms is not None:
        acc = 0
        for t in terms:
            acc ^= t
        if acc != value:
            return f"explain terms XOR to {acc}, phi={value}"
    return None


def check_oracle(p: dict, out: str) -> str | None:
    a = p["a"]
    n_basis = subgee_count(a)
    summary, values = parse_oracle(p["fmt"], out)
    if not summary["agree"] or summary["nullspace_dim"] != 1:
        return f"agree={summary['agree']} nullspace_dim={summary['nullspace_dim']}"
    if summary["basis"] != n_basis or summary["rank"] != n_basis - 1:
        return f"basis={summary['basis']} rank={summary['rank']}, expected N={n_basis}"
    if p["explain"] and p["fmt"] != "csv":
        if values is None or len(values) != n_basis:
            return "explain values missing"
        expected = phi_values(a, [profile_of(a, j) for j, _, _ in values])
        for (j, formula, oracle), want in zip(values, expected):
            if formula != want or oracle != want:
                return f"J={j}: formula={formula} oracle={oracle}, expected {want}"
    return None


def check_verify(p: dict, out: str) -> str | None:
    relations, ok, failures = parse_verify(p["fmt"], out)
    expected = subgee_count(p["a"]) - 1
    if not ok or failures:
        return f"{failures} relations not annihilated"
    if relations != expected:
        return f"relations={relations}, expected {expected}"
    return None


def check_realize(p: dict, out: str) -> str | None:
    lengths, total = parse_realize(p["fmt"], out)
    if lengths != sorted(lengths) or sum(lengths) != total or total > p["bound"]:
        return f"lengths {lengths} with total {total} break sort order or bound {p['bound']}"
    w = scaled_ints(lengths)
    if not is_generic(w):
        return f"lengths {lengths} are not generic"
    n = len(w)
    gene, acc = [], 0
    for ai in p["a"]:
        acc += ai
        gene.append(acc)
    expected = {(*gene, n)}
    got = maximal_short_sets(w)
    if got != expected:
        return f"code of {lengths} is {sorted(got)}, expected {sorted(expected)}"
    return None


CHECKS = {
    "gene": check_gene,
    "table": check_table,
    "phi": check_phi,
    "oracle": check_oracle,
    "verify": check_verify,
    "realize": check_realize,
}
