"""Command-line interface: genetic codes, duality values, tables, verification.

Exit codes: 0 on success and passing checks, 1 when a mathematical check
fails (or a realization search is exhausted), 2 on input or contract errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Iterable, Iterator
from functools import cache
from itertools import chain, islice

from .combinatorics import GeeParams, IndexSet, block_counts, is_subgee_profile
from .duality import TopMonomial, _pairing_rows, _summand_count, _summands, pairing_set
from .errors import PolyphiError, RealizationNotFoundError, SizeLimitError
from .lengths import (
    DEFAULT_MAX_N,
    DEFAULT_SEARCH_BOUND,
    GeneticCode,
    _genes,
    genetic_code,
    monogenic_gee,
    normalize,
    realize_gee,
)
from .relations import (
    DEFAULT_MAX_BASIS,
    annihilation_failures,
    cross_validate,
    subgee_count,
)

__all__ = ["main"]

# json and text `phi --explain` refuse a profile with more summands than
# this: k <= 12 always passes (C_12 = 208,012), and the zero profile at
# k = 13 (C_13 = 742,900) does not.  CSV output does not list them.
MAX_EXPLAIN_SUMMANDS = 250_000


def _tokens(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _parse_gee(text: str) -> GeeParams:
    return GeeParams(tuple(int(t) for t in _tokens(text)))


def _parse_subset(text: str) -> IndexSet:
    return IndexSet(int(t) for t in _tokens(text))


# Each command returns (exit code, payload); the payload is the JSON output.

def _cmd_gene(args: argparse.Namespace) -> tuple[int, dict]:
    # The search's descending tuples, as they are printed: a code can hold
    # tens of thousands of genes, so none is wrapped in an IndexSet.
    lv = normalize(_tokens(args.lengths))
    n = lv.n
    genes = _genes(lv, max_n=args.max_n)
    for g in genes:  # GeneticCode's check: n is the largest index
        if g[0] != n:
            raise ValueError(f"gene {IndexSet(g)} does not contain n={n}")
    monogenic = len(genes) == 1
    gee = monogenic_gee(GeneticCode((IndexSet(genes[0]),), n)) if monogenic else None
    return 0, {
        "n": n,
        "generic": True,
        "code": _Code(genes),
        "monogenic": monogenic,
        "a": list(gee.a) if gee is not None else None,
    }


def _cmd_phi(args: argparse.Namespace) -> tuple[int, dict]:
    # CSV output has no column for the --explain summands, so
    # `phi --format csv` does not walk them at all; json and text count them
    # first, refuse more than MAX_EXPLAIN_SUMMANDS, and walk them once, as
    # they are written.  block_counts fits every entry to its block.
    if args.a is not None:
        gee, n = _parse_gee(args.a), None
    else:
        lv = normalize(_tokens(args.lengths))
        gee, n = monogenic_gee(genetic_code(lv, max_n=args.max_n)), lv.n
    subset = _parse_subset(args.J)
    if n is not None:
        TopMonomial(subset, n)  # the monomial must fit the top degree
    in_span = not subset or max(subset) <= gee.span
    profile = block_counts(subset, gee) if in_span else None
    payload = {
        "a": list(gee.a),
        "J": list(subset.elements),
        "n": n,
        "theta": list(profile) if profile is not None else None,
        "subgee": in_span and is_subgee_profile(profile),
        "phi": pairing_set(gee, subset),
    }
    if args.explain and profile is not None and args.format != "csv":
        if (count := _summand_count(profile)) > MAX_EXPLAIN_SUMMANDS:
            raise SizeLimitError(
                f"--explain would list {count} summands, more than the limit of {MAX_EXPLAIN_SUMMANDS}"
            )
        payload["explain"] = _Summands(_summands(gee, profile))
    return 0, payload


def _cmd_table(args: argparse.Namespace) -> tuple[int, dict]:
    gee = _parse_gee(args.a)
    # The walk stops one row past the limit: the full count can be exponential in k.
    rows = list(islice(_pairing_rows(gee), max(args.max_basis + 1, 0)))
    if len(rows) > args.max_basis:
        raise SizeLimitError(f"table has more than max_basis={args.max_basis} rows")
    rows.sort(key=lambda row: (sum(row[0]), row[0]))  # (size, lex) order
    return 0, {
        "a": list(gee.a),
        "rows": [{"theta": list(t), "phi": phi} for t, phi in rows],
    }


def _cmd_verify(args: argparse.Namespace) -> tuple[int, dict]:
    gee = _parse_gee(args.a)
    failures = annihilation_failures(gee, max_basis=args.max_basis)
    return (1 if failures else 0), {
        "a": list(gee.a),
        "relations": subgee_count(gee) - 1,
        "all_annihilated": not failures,
        "failures": [list(f.descending()) for f in failures],
    }


def _cmd_oracle(args: argparse.Namespace) -> tuple[int, dict]:
    gee = _parse_gee(args.a)
    report = cross_validate(gee, max_basis=args.max_basis)
    payload = {
        "a": list(gee.a),
        "basis": report.basis_size,
        "rank": report.rank,
        "nullspace_dim": report.nullspace_dim,
        "agree": report.agree,
    }
    if args.explain:
        payload["values"] = [
            {
                "J": list(c.elements),
                "formula": report.formula[c],
                "oracle": report.oracle[c] if report.oracle is not None else None,
            }
            for c in report.formula
        ]
    return (0 if report.agree else 1), payload


def _cmd_realize(args: argparse.Namespace) -> tuple[int, dict]:
    gee = _parse_gee(args.a)
    lv = realize_gee(gee, search_bound=args.bound)
    return 0, {
        "a": list(gee.a),
        "n": lv.n,
        "lengths": [str(x) for x in lv.lengths],
        "total": str(sum(lv.lengths)),
    }


# Output: one CSV cell rule, and one small text function per command.

class _Code(list):
    """`gene`'s genes, each a tuple of plain ints that opens with n and
    descends from it, so that `_join_code` writes them all in one join."""

    __slots__ = ()


class _Summands(chain):
    """`phi --explain`'s (B, term) pairs: an iterator over the one walk,
    read as they are written, by `_json` as the rows {"b": B, "term": term}
    from one template and by `_text_phi` one line each."""

    __slots__ = ()


def _join_code(code: _Code, open_: str, sep: str, close: str, gap: str) -> str:
    """The genes written as open_ + their ints joined by sep + close, joined
    by gap.  Each int is written once: n opens every gene, so it alone
    carries close + gap + open_, whose first close + gap is cut."""
    n = code[0][0]
    lead = close + gap
    words = [sep + str(i) for i in range(n)] + [lead + open_ + str(n)]
    return "".join(map(words.__getitem__, chain.from_iterable(code)))[len(lead):] + close


def _cell(value: object) -> str:
    """One CSV cell: lists (or tuples) are space-joined and lists of lists
    `;`-joined, bools are true/false and None is empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if type(value) is _Code:
        return _join_code(value, "", " ", "", ";")
    if isinstance(value, (list, tuple)):
        if value and isinstance(value[0], (list, tuple)):
            return ";".join(" ".join(map(str, v)) for v in value)
        return " ".join(map(str, value))
    return str(value)


_quote = json.encoder.encode_basestring_ascii


def _json(value: object, indent: str = "") -> Iterator[str]:
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte, in pieces.

    One piece per dict key, per list of plain ints (joined in one call), per
    `gene` code (`_Code`, in one `_join_code`) and per `phi --explain`
    summand (`_Summands`, each an {"b", "term"} row from one %-template).
    The pieces are written as they come, so the summands, which can be
    Catalan-many, are never held all at once.  Dicts (with str keys), lists,
    tuples, str and plain ints are written here; bools, None and other
    scalars go to `json.dumps`.
    """
    if type(value) is int:
        yield str(value)
        return
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        head = "{\n" + inner
        for k, v in sorted(value.items()):
            yield head + _quote(k) + ": "
            yield from _json(v, inner)
            head = sep
        yield "\n" + indent + "}" if value else "{}"
    elif type(value) is _Summands:
        first = next(value, None)
        if first is None:
            yield "[]"
            return
        row = _summand_template(len(first[0]), inner)
        yield ("[\n" + inner + row) % (*first[0], first[1])
        row = sep + row
        for b, term in value:
            yield row % (*b, term)
        yield "\n" + indent + "]"
    elif not isinstance(value, (list, tuple)):
        yield _quote(value) if isinstance(value, str) else json.dumps(value)
    elif not value:
        yield "[]"
    elif type(value) is _Code:
        deeper = inner + "  "
        code = _join_code(value, "[\n" + deeper, ",\n" + deeper, "\n" + inner + "]", sep)
        yield "[\n" + inner + code + "\n" + indent + "]"
    elif {*map(type, value)} == {int}:
        yield "[\n" + inner + sep.join(map(str, value)) + "\n" + indent + "]"
    else:
        head = "[\n" + inner
        for v in value:
            yield head
            yield from _json(v, inner)
            head = sep
        yield "\n" + indent + "]"


def _summand_template(k: int, indent: str) -> str:
    """What `_json` writes for {"b": B, "term": term} at this indent, for a
    B of length k, as a %-template taking the pair (B, term) with B's
    entries spread."""
    inner, deeper = indent + "  ", indent + "    "
    b = "[\n" + deeper + (",\n" + deeper).join(["%d"] * k) + "\n" + inner + "]" if k else "[]"
    return "{\n" + inner + '"b": ' + b + ",\n" + inner + '"term": %d\n' + indent + "}"


def _tuple(values: list) -> str:
    return "(" + ",".join(map(str, values)) + ")"


def _braces(values: list) -> str:
    return "{" + ",".join(map(str, values)) + "}"


def _text_gene(p: dict) -> list[str]:
    lines = [
        f"n: {p['n']}",
        "generic: true",
        f"code: {_join_code(p['code'], '{', ',', '}', '; ')}",
        f"monogenic: {_cell(p['monogenic'])}",
    ]
    if p["a"] is not None:
        lines.append(f"a: {_tuple(p['a'])}")
    return lines


def _text_phi(p: dict) -> Iterator[str]:
    theta = p["theta"]
    yield f"phi: {p['phi']}"
    yield f"theta: {tuple(theta) if theta is not None else 'undefined (subscript beyond gee span)'}"
    yield f"subgee: {_cell(p['subgee'])}"
    for b, term in p.get("explain", ()):
        yield f"B: {b} term={term}"


def _text_table(p: dict) -> list[str]:
    width = max(5, 2 * len(p["a"]) - 1)
    return [f"{'theta':<{width}}  phi"] + [
        f"{_cell(row['theta']):<{width}}  {row['phi']}" for row in p["rows"]
    ]


def _text_verify(p: dict) -> list[str]:
    if p["all_annihilated"]:
        return [f"all {p['relations']} relations annihilated"]
    return [f"relation not annihilated: I={_braces(f)}" for f in p["failures"]]


def _text_oracle(p: dict) -> list[str]:
    return [
        f"a: {_tuple(p['a'])}",
        f"basis: {p['basis']}",
        f"rank: {p['rank']}",
        f"nullspace_dim: {p['nullspace_dim']}",
        f"agree: {_cell(p['agree'])}",
        *(
            f"J={_braces(v['J'])} formula={v['formula']} "
            f"oracle={v['oracle'] if v['oracle'] is not None else '-'}"
            for v in p.get("values", [])
        ),
    ]


def _text_realize(p: dict) -> list[str]:
    return [f"n: {p['n']}", f"lengths: {','.join(p['lengths'])}", f"total: {p['total']}"]


# command -> (run, CSV columns, text renderer)
_COMMANDS = {
    "gene": (_cmd_gene, ["n", "generic", "monogenic", "a", "code"], _text_gene),
    "phi": (_cmd_phi, ["a", "J", "theta", "subgee", "phi"], _text_phi),
    "table": (_cmd_table, ["theta", "phi"], _text_table),
    "verify": (_cmd_verify, ["a", "relations", "all_annihilated", "failures"], _text_verify),
    "oracle": (_cmd_oracle, ["a", "basis", "rank", "nullspace_dim", "agree"], _text_oracle),
    "realize": (_cmd_realize, ["a", "n", "total", "lengths"], _text_realize),
}


def _render(
    fmt: str, payload: dict, columns: list[str], text: Callable[[dict], Iterable[str]]
) -> Iterator[str]:
    """The output in pieces: json from `_json`, text a line and CSV a row at a time."""
    if fmt == "json":
        yield from _json(payload)
        yield "\n"
    elif fmt == "csv":
        # As csv.writer wrote it: no cell holds a comma, quote or newline, and rows have 2+ cells.
        yield ",".join(columns) + "\n"
        for r in payload.get("rows", [payload]):
            yield ",".join([_cell(r[c]) for c in columns]) + "\n"
    else:
        for line in text(payload):
            yield line + "\n"


@cache  # built on the first call, then shared: parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyphi",
        description="Genetic codes of length vectors and the mod-2 duality functional "
        "of planar polygon spaces with monogenic codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gene = sub.add_parser("gene", help="compute the genetic code of a length vector")
    p_gene.add_argument("--lengths", required=True, help="comma-separated rationals, e.g. 1,1,1/2,3")
    p_gene.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, dest="max_n")

    p_phi = sub.add_parser("phi", help="evaluate the duality functional on a monomial")
    src = p_phi.add_mutually_exclusive_group(required=True)
    src.add_argument("--a", help="gee increments, e.g. 2,2,2 (empty string for k=0)")
    src.add_argument("--lengths", help="length vector with a monogenic code")
    p_phi.add_argument("--J", required=True, help="subscript set, e.g. 1,3 (empty string for none)")
    p_phi.add_argument("--explain", action="store_true", help="list the contributing summand profiles")
    p_phi.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, dest="max_n")

    p_table = sub.add_parser("table", help="tabulate the functional over all block profiles")
    p_table.add_argument("--a", required=True)
    p_table.add_argument("--max-basis", type=int, default=DEFAULT_MAX_BASIS, dest="max_basis")

    p_verify = sub.add_parser("verify", help="check that the formula annihilates every relation")
    p_verify.add_argument("--a", required=True)
    p_verify.add_argument("--max-basis", type=int, default=DEFAULT_MAX_BASIS, dest="max_basis")

    p_oracle = sub.add_parser("oracle", help="solve the relation nullspace and compare with the formula")
    p_oracle.add_argument("--a", required=True)
    p_oracle.add_argument("--max-basis", type=int, default=DEFAULT_MAX_BASIS, dest="max_basis")
    p_oracle.add_argument("--explain", action="store_true", help="include per-subgee values")

    p_realize = sub.add_parser("realize", help="search for a length vector with the given single gee")
    p_realize.add_argument("--a", required=True)
    p_realize.add_argument(
        "--bound", type=int, default=DEFAULT_SEARCH_BOUND, help="maximum total integer length to try"
    )

    for p in sub.choices.values():
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    run, columns, text = _COMMANDS[args.command]
    try:
        code, payload = run(args)
    except RealizationNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PolyphiError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Every check has passed, so a failing command writes nothing to stdout.
    # The pieces go out 64 at a time: memory stays flat, and an
    # unbuffered stdout (PYTHONUNBUFFERED) is not written once per piece.
    pieces = _render(args.format, payload, columns, text)
    while chunk := "".join(islice(pieces, 64)):
        sys.stdout.write(chunk)
    return code


if __name__ == "__main__":
    sys.exit(main())
