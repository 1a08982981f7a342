"""End-to-end tests of the command-line surface."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from polyphi import GeeParams, IndexSet, admissible_summands, normalize, pairing_by_profile
from polyphi.cli import MAX_EXPLAIN_SUMMANDS, _build_parser, _cell, _json, main
from polyphi.duality import _summand_count

from brute import gene_stdouts, phi_text, subgee_profiles_by_filter

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------- gene

def test_gene_text(capsys):
    code, out, _ = run(capsys, "gene", "--lengths", "1,1,1,1,1")
    assert code == 0
    assert "code: {5,4}" in out
    assert "monogenic: true" in out
    assert "a: (4)" in out


def test_gene_json(capsys):
    code, out, _ = run(capsys, "gene", "--lengths", "1,1,1,1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "a": [4],
        "code": [[5, 4]],
        "generic": True,
        "monogenic": True,
        "n": 5,
    }


def _n20_lengths() -> str:
    """A generic 20-gon with about two thousand genes."""
    rng = random.Random(0)
    x = [rng.randint(1, 1000) for _ in range(20)]
    x[-1] += 1 - sum(x) % 2  # an odd total is never split in half
    return ",".join(map(str, x))


def test_gene_json_round_trip_bytes(capsys, flip_formula_at):
    # The golden files pin only small payloads; these are the other shapes
    # the JSON writer meets, up to a code of thousands of genes.
    # `phi --explain` text is checked against a reference renderer too.
    flip_formula_at((1,))  # so that verify lists failures
    n20 = _n20_lengths()
    rng = random.Random(9)
    a9 = ",".join(str(rng.randint(1, 3)) for _ in range(9))
    payloads = {}
    for argv in [
        ("gene", "--lengths", "1,2,2,4,4"),
        ("gene", "--lengths", n20),
        ("table", "--a", "2,2,2"),
        ("phi", "--a", "2,2,2", "--J", "3", "--explain"),
        ("phi", "--a", "", "--J", "", "--explain"),  # k = 0: B is ()
        ("phi", "--a", "2,2", "--J", "3,4", "--explain"),  # fails the suffix condition
        ("phi", "--a", a9, "--J", "", "--explain"),  # zero profile: C_9 summands
        ("oracle", "--a", "2,2,2", "--explain"),
        ("verify", "--a", "2,2,2"),
        ("realize", "--a", "2"),
    ]:
        _, out, _ = run(capsys, *argv, "--format", "json")
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out, argv
        payloads[argv] = json.loads(out)
        if argv[0] == "phi":
            assert run(capsys, *argv) == (0, phi_text(payloads[argv]), ""), argv
    assert len(payloads["gene", "--lengths", n20]["code"]) > 500
    assert payloads["verify", "--a", "2,2,2"]["failures"]
    assert payloads["phi", "--a", "", "--J", "", "--explain"]["explain"] == [{"b": [], "term": 1}]
    assert payloads["phi", "--a", "2,2", "--J", "3,4", "--explain"]["explain"] == []
    assert len(payloads["phi", "--a", a9, "--J", "", "--explain"]["explain"]) == 4862


def test_gene_stdout_matches_renderings_of_the_public_code(capsys):
    # Vectors as the classify benchmark draws them, n = 16..20: plain,
    # doubled and scaled by 2/q, each with an odd total, so generic; and
    # near-equal sides at odd n, whose code is one gene.  Every format is
    # compared with `genetic_code` rendered by json.dumps and str (about 0.2 s).
    rng = random.Random(20261019)
    vectors = []
    for i in range(15):
        n = 16 + i % 5
        x = [rng.randint(1, 10**6) for _ in range(n)]
        x[-1] += 1 - sum(x) % 2
        factor = (1, 2, Fraction(2, rng.choice((3, 7))))[i % 3]
        vectors.append([factor * v for v in x])
    for n in (17, 19):
        x = [rng.randint(1000, 1050) for _ in range(n)]
        x[-1] += 1 - sum(x) % 2
        vectors.append(x)
    monogenic = 0
    for x in vectors:
        shown = x[:]
        rng.shuffle(shown)
        lengths = ",".join(map(str, shown))
        expected = gene_stdouts(normalize(x))
        for fmt, out in expected.items():
            assert run(capsys, "gene", "--lengths", lengths, "--format", fmt) == (0, out, "")
        monogenic += json.loads(expected["json"])["monogenic"]
    assert monogenic == 2


def test_gene_wraps_at_most_one_gene(capsys, monkeypatch):
    # `gene` renders the search's tuples: only a one-gene code is wrapped,
    # for its gee.
    wrapped = []
    original = IndexSet._from_ascending

    def counting(cls, elements):
        wrapped.append(elements)
        return original(elements)

    monkeypatch.setattr(IndexSet, "_from_ascending", classmethod(counting))
    code, out, _ = run(capsys, "gene", "--lengths", _n20_lengths(), "--format", "json")
    assert code == 0 and len(json.loads(out)["code"]) > 500
    assert len(wrapped) <= 1


def test_gene_without_n_exits_2(capsys, monkeypatch):
    # Every gene of a code contains n; a search that broke that is refused.
    monkeypatch.setattr("polyphi.cli._genes", lambda lv, max_n: ((3, 1),))
    code, out, err = run(capsys, "gene", "--lengths", "1,1,1,1,1")
    assert (code, out, err) == (2, "", "error: gene IndexSet({1, 3}) does not contain n=5\n")


@pytest.mark.parametrize("token", ["1e10000000", "1E-10000000", "1e+4301"])
def test_gene_refuses_exponents_beyond_the_int_digit_limit(capsys, token):
    start = time.perf_counter()
    code, out, err = run(capsys, "gene", "--lengths", f"{token},1,1")
    assert (code, out) == (2, "")
    assert err == f"error: exponent of {token!r} exceeds the 4300-digit limit\n"
    assert time.perf_counter() - start < 0.5


def test_gene_csv(capsys):
    code, out, _ = run(capsys, "gene", "--lengths", "1,1,1,1,1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "generic", "monogenic", "a", "code"]
    assert rows[1] == ["5", "true", "true", "4", "5 4"]


def test_gene_not_generic_exits_2(capsys):
    code, out, err = run(capsys, "gene", "--lengths", "1,1,2")
    assert code == 2
    assert "not generic" in err
    assert out == ""


def test_gene_invalid_length_exits_2(capsys):
    code, out, err = run(capsys, "gene", "--lengths", "1,0,2")
    assert (code, out) == (2, "")
    assert "positive" in err


@pytest.mark.parametrize(
    "lengths, message",
    [
        ("1,1,0", "side lengths must be positive, got '0'"),
        ("1,-2,1", "side lengths must be positive, got '-2'"),
        ("abc,1,1", "not a rational side length: 'abc'"),
        ("1/0,1,1", "not a rational side length: '1/0'"),
        ("", "need at least 3 sides, got 0"),
        (" , ", "need at least 3 sides, got 0"),
    ],
)
@pytest.mark.parametrize("command", [["gene"], ["phi", "--J", ""]], ids=["gene", "phi"])
def test_length_list_errors_name_the_token_as_typed(capsys, command, lengths, message):
    # `normalize` parses the tokens and words the message, for gene and phi alike.
    code, out, err = run(capsys, *command, "--lengths", lengths)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_gene_rational_lengths(capsys):
    code, out, _ = run(capsys, "gene", "--lengths", "1/2,1/2,1/2,1/2,1/2", "--format", "json")
    assert code == 0
    assert json.loads(out)["code"] == [[5, 4]]


def test_gene_large_coprime_denominators(capsys):
    lengths = "1/999983,1/999979,1/999961,1/999959,1/999953,1/999931"
    code, out, _ = run(capsys, "gene", "--lengths", lengths)
    assert code == 0
    assert "code: {6,2,1}; {6,5}" in out


def test_gene_size_guard_exits_2(capsys):
    code, out, err = run(capsys, "gene", "--lengths", "1,1,1,1,1", "--max-n", "4")
    assert (code, out) == (2, "")
    assert "max_n" in err


# ------------------------------------------------------------------------ phi

def test_phi_with_explain(capsys):
    code, out, _ = run(capsys, "phi", "--a", "2,2,2", "--J", "3", "--explain")
    assert code == 0
    assert "phi: 1" in out
    assert "theta: (0, 1, 0)" in out
    assert "B: (1, 0, 1) term=1" in out
    assert "B: (1, 1, 0) term=1" in out
    assert "B: (2, 0, 0) term=1" in out


def test_phi_csv_skips_the_summand_walk(capsys, monkeypatch):
    # CSV has no column for the summands, so --explain must not walk them.
    def refuse(*args):
        raise AssertionError("_summands called for CSV output")

    monkeypatch.setattr("polyphi.cli._summands", refuse)
    argv = ("phi", "--a", "2,2,2", "--J", "3", "--explain", "--format", "csv")
    expected = (GOLDEN / "cli" / "phi_explain.csv").read_text()
    assert run(capsys, *argv) == (0, expected, "")


class _HashingSink(io.TextIOBase):
    """A stdout that counts and hashes the bytes written to it, keeping none."""

    def __init__(self) -> None:
        self.size, self.sha = 0, hashlib.sha256()

    def write(self, text: str) -> int:
        data = text.encode()
        self.size += len(data)
        self.sha.update(data)
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_phi_explain_streams_the_summands(monkeypatch, fmt):
    # The zero profile at k = 9 has C_9 = 4,862 summands.  They go to stdout
    # as the walk yields them, so the traced peak is a small share of the
    # bytes written; a list of the pairs and a rendering of them in memory
    # come to several times those bytes.
    gee, zero = GeeParams((2,) * 9), (0,) * 9
    payload = {
        "J": [],
        "a": list(gee.a),
        "explain": [{"b": list(b), "term": term} for b, term in admissible_summands(gee, zero)],
        "n": None,
        "phi": pairing_by_profile(gee, zero),
        "subgee": True,
        "theta": list(zero),
    }
    assert len(payload["explain"]) == 4862
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n" if fmt == "json" else phi_text(payload)
    expected = (len(text.encode()), hashlib.sha256(text.encode()).hexdigest())
    del payload, text
    argv = ["phi", "--a", ",".join("2" * 9), "--J", "", "--explain", "--format", fmt]
    _build_parser()  # built once per process; not part of the output's cost
    sink = _HashingSink()
    monkeypatch.setattr("sys.stdout", sink)
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sink.size, sink.sha.hexdigest()) == (0, *expected)
    assert peak < sink.size / 4, (peak, sink.size)


def test_phi_csv_explain_at_k13_is_fast(capsys):
    # The zero profile at k = 13 has C_13 = 742,900 summands (an even count,
    # so phi is 0); listing them took seconds and hundreds of MiB.
    argv = ("phi", "--a", ",".join("2" * 13), "--J", "", "--explain", "--format", "csv")
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert code == 0 and out.endswith(",true,0\n")
    assert elapsed < 0.2, elapsed


def test_phi_explain_refuses_more_summands_than_the_limit(capsys, monkeypatch):
    # The zero profile at k = 12 passes (C_12 = 208,012 summands); at k = 13
    # (C_13 = 742,900) json and text are refused before any walk.  CSV lists
    # no summand and still answers (test_phi_csv_explain_at_k13_is_fast).
    assert _summand_count((0,) * 12) <= MAX_EXPLAIN_SUMMANDS < _summand_count((0,) * 13)

    def refuse(*args):
        raise AssertionError("_summands called past the limit")

    monkeypatch.setattr("polyphi.cli._summands", refuse)
    argv = ("phi", "--a", ",".join("2" * 13), "--J", "", "--explain", "--format")
    for fmt in ("json", "text"):
        code, out, err = run(capsys, *argv, fmt)
        assert (code, out) == (2, ""), fmt
        assert err == (
            f"error: --explain would list 742900 summands, more than the limit of {MAX_EXPLAIN_SUMMANDS}\n"
        )


def test_phi_empty_subscripts(capsys):
    code, out, _ = run(capsys, "phi", "--a", "1", "--J", "")
    assert code == 0
    assert "phi: 0" in out


def test_phi_full_size_subgee(capsys):
    code, out, _ = run(capsys, "phi", "--a", "2,2", "--J", "1,3")
    assert code == 0
    assert "phi: 1" in out


def test_phi_k0(capsys):
    code, out, _ = run(capsys, "phi", "--a", "", "--J", "", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["phi"] == 1 and payload["subgee"] is True


def test_phi_json_fields(capsys):
    code, out, _ = run(capsys, "phi", "--a", "2,2,2", "--J", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "J": [3],
        "a": [2, 2, 2],
        "n": None,
        "phi": 1,
        "subgee": True,
        "theta": [0, 1, 0],
    }


def test_phi_beyond_span_is_zero_non_subgee(capsys):
    code, out, _ = run(capsys, "phi", "--a", "2", "--J", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["phi"] == 0
    assert payload["subgee"] is False
    assert payload["theta"] is None


def test_phi_from_lengths(capsys):
    code, out, _ = run(
        capsys, "phi", "--lengths", "1,1,1,1,1", "--J", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == [4] and payload["n"] == 5 and payload["phi"] == 1


def test_phi_lengths_not_monogenic_exits_2(capsys):
    code, out, err = run(capsys, "phi", "--lengths", "1,1,1,2,2,2", "--J", "1")
    assert (code, out) == (2, "")
    assert "genes" in err


def test_phi_malformed_subscripts_exit_2(capsys):
    code, out, err = run(capsys, "phi", "--a", "2,2", "--J", "1,1")
    assert (code, out) == (2, "")
    assert "duplicate" in err


def test_phi_monomial_shape_checked_against_lengths(capsys):
    # n=5 allows at most n-3 = 2 subscripts
    code, out, err = run(capsys, "phi", "--lengths", "1,1,1,1,1", "--J", "1,2,3")
    assert (code, out) == (2, "")
    assert "top degree" in err


def test_phi_requires_exactly_one_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["phi", "--a", "2", "--lengths", "1,1,1", "--J", ""])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------- table

def test_table_golden_file_a222(capsys):
    code, out, _ = run(capsys, "table", "--a", "2,2,2", "--format", "csv")
    assert code == 0
    assert out == (GOLDEN / "table_a222.csv").read_text()


def test_table_single_block(capsys):
    code, out, _ = run(capsys, "table", "--a", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [{"phi": 1, "theta": [0]}, {"phi": 1, "theta": [1]}]


def test_table_empty_gee(capsys):
    code, out, _ = run(capsys, "table", "--a", "", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [{"phi": 1, "theta": []}]


def test_table_size_guard(capsys):
    code, out, err = run(capsys, "table", "--a", "3,3,3", "--max-basis", "10")
    assert (code, out) == (2, "")
    assert "max_basis" in err


def test_table_negative_max_basis_is_refused_by_the_guard(capsys):
    code, out, err = run(capsys, "table", "--a", "2,2", "--max-basis", "-5")
    assert code == 2
    assert out == ""
    assert err == "error: table has more than max_basis=-5 rows\n"


def test_table_guard_counts_rows_not_block_fillings(capsys):
    # prod(a_i + 1) is 132651 here, but only 14 profiles are subgee profiles.
    code, out, _ = run(capsys, "table", "--a", "50,50,50", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 14


def test_table_rows_are_the_subgee_profiles_in_size_lex_order(capsys):
    # Every gee with k <= 5 and a_i <= 3, and four larger ones: the rows
    # list each subgee profile once, in (size, lex) order, with its value.
    gees = [a for k in range(6) for a in product(range(1, 4), repeat=k)]
    gees += [(1, 2, 1, 2, 1, 2, 1), (3,) * 7, (2, 1, 3, 1, 1, 3, 2, 1), (1,) * 8]
    for a in gees:
        gee = GeeParams(a)
        code, out, _ = run(capsys, "table", "--a", ",".join(map(str, a)), "--format", "json")
        assert code == 0, a
        rows = json.loads(out)["rows"]
        assert [tuple(row["theta"]) for row in rows] == subgee_profiles_by_filter(gee), a
        for row in rows:
            assert row["phi"] == pairing_by_profile(gee, row["theta"]), (a, row)


def test_table_guard_stops_the_walk(capsys):
    # 24 blocks of one have 2^24 subgee profiles: the walk must stop one row
    # past the limit, not list them all.
    start = time.perf_counter()
    outcome = run(capsys, "table", "--a", ",".join("1" * 24))
    elapsed = time.perf_counter() - start
    assert outcome == (2, "", "error: table has more than max_basis=20000 rows\n")
    assert elapsed < 0.5, elapsed


# --------------------------------------------------------------------- verify

def test_verify_all_relations(capsys):
    code, out, _ = run(capsys, "verify", "--a", "2,2,2")
    assert code == 0
    assert "all 34 relations annihilated" in out


def test_verify_k0(capsys):
    code, out, _ = run(capsys, "verify", "--a", "")
    assert code == 0
    assert "all 0 relations annihilated" in out


def test_empty_gee_basis_guard_exits_2(capsys):
    # The empty gee's basis is the empty set alone, so max_basis=0 refuses it.
    for command in ["verify", "oracle"]:
        code, out, err = run(capsys, command, "--a", "", "--max-basis", "0")
        assert code == 2 and out == ""
        assert err == "error: basis size 1 exceeds max_basis=0\n"


def test_basis_guard_counts_without_listing(capsys):
    # Every subset of {1..24} is a subgee of 24 blocks of one: 2^24 of them,
    # each with its own profile, so the guard must count, not list.
    for command in ["verify", "oracle"]:
        start = time.perf_counter()
        outcome = run(capsys, command, "--a", ",".join("1" * 24))
        elapsed = time.perf_counter() - start
        assert outcome == (2, "", "error: basis size 16777216 exceeds max_basis=20000\n")
        assert elapsed < 0.5, elapsed


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--a", "1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "a": [1, 1],
        "all_annihilated": True,
        "failures": [],
        "relations": 3,
    }


# --------------------------------------------------------------------- oracle

def test_oracle_small(capsys):
    code, out, _ = run(capsys, "oracle", "--a", "1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "a": [1, 1],
        "agree": True,
        "basis": 4,
        "nullspace_dim": 1,
        "rank": 3,
    }


def test_oracle_explain_values_agree(capsys):
    code, out, _ = run(capsys, "oracle", "--a", "2,2", "--format", "json", "--explain")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert len(payload["values"]) == payload["basis"]
    for entry in payload["values"]:
        assert entry["formula"] == entry["oracle"]


def test_oracle_json_round_trip_bytes(capsys):
    _, out, _ = run(capsys, "oracle", "--a", "2,2,2", "--format", "json")
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


# -------------------------------------------------------------------- realize

def test_realize_round_trip_through_gene(capsys):
    code, out, _ = run(capsys, "realize", "--a", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    lengths = ",".join(payload["lengths"])
    code2, out2, _ = run(capsys, "gene", "--lengths", lengths, "--format", "json")
    assert code2 == 0
    assert json.loads(out2)["a"] == [2]


def test_realize_beyond_the_size_guard(capsys):
    code, out, _ = run(capsys, "realize", "--a", "30", "--bound", "200")
    assert code == 0
    assert out == f"n: 31\nlengths: {'1,' * 30}27\ntotal: 57\n"


def test_realize_not_found_exits_1(capsys):
    code, out, err = run(capsys, "realize", "--a", "1,1", "--bound", "8")
    assert (code, out) == (1, "")
    assert "8" in err


def test_realize_unrealizable_gee_exits_1_at_default_bound(capsys):
    code, out, err = run(capsys, "realize", "--a", "2,2,2")
    assert code == 1
    assert out == ""
    assert "40" in err


def test_realize_refuses_a_certified_unrealizable_gee_at_any_bound(capsys):
    assert run(capsys, "realize", "--a", "2,2,2", "--bound", "60") == (
        1,
        "",
        "error: no integer length vector with total <= 60 realizes gee (2, 2, 2)\n",
    )


def test_realize_deep_search_reports_an_error(capsys):
    # n = 1001 sides: the search must not nest one call per side.
    code, out, err = run(capsys, "realize", "--a", "1000", "--bound", "1001")
    assert code in (1, 2)
    assert out == ""
    assert err.startswith("error:")


def test_lengths_and_gee_paths_agree(capsys):
    _, out, _ = run(capsys, "realize", "--a", "1,1", "--format", "json")
    lengths = ",".join(json.loads(out)["lengths"])
    for subscripts in ["", "1", "2", "1,2"]:
        _, via_lengths, _ = run(
            capsys, "phi", "--lengths", lengths, "--J", subscripts, "--format", "json"
        )
        _, via_gee, _ = run(
            capsys, "phi", "--a", "1,1", "--J", subscripts, "--format", "json"
        )
        assert json.loads(via_lengths)["phi"] == json.loads(via_gee)["phi"]


# ------------------------------------------------------------------ rendering

# Strings the JSON writer must escape as json.dumps does.
_awkward_text = st.text(st.sampled_from('a"\\/\x00\x1f\n\t\x7fé€\u2028😀')) | st.text()
_ints = st.integers(min_value=-(2**80), max_value=2**80)
_payloads = st.recursive(
    st.none() | st.booleans() | _ints | _awkward_text | st.lists(_ints | st.booleans()),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(_awkward_text, inner),
    max_leaves=12,
)


@given(_payloads)
@example([(6, 5), (6, 4, 1)])  # a gene code
@example([[6, 5], []])  # an empty inner list is written as []
@example([[6, 5], [True]])  # a bool is not a plain int
@example([[6, -5, 4], [-5, 6, 6], [4, -5, 2**70]])  # ints repeated across rows
@settings(max_examples=150, deadline=None)
def test_json_writer_matches_json_dumps(value):
    assert "".join(_json(value)) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value, cell",
    [
        ([5, 4], "5 4"),  # gene a, phi J and theta
        ([[6, 5], [6, 4, 1]], "6 5;6 4 1"),  # verify failures
        (["1", "3/2", "2"], "1 3/2 2"),  # realize lengths
        ([], ""),
        (True, "true"),
        (False, "false"),
        (None, ""),
        (7, "7"),
        ([(6, 5), (6, 4, 1)], "6 5;6 4 1"),  # gene code
        ((5, 4), "5 4"),
        ((), ""),
        # Nested rows as `str` writes them: a bool is not its int.
        ([[1, True]], "1 True"),
        ([[True, 1], [1, True]], "True 1;1 True"),
        ([[0, False, 0], [False]], "0 False 0;False"),
        ([[-3, 2**64], [2**64, -3, -3]], "-3 18446744073709551616;18446744073709551616 -3 -3"),
    ],
)
def test_csv_cell_shapes(value, cell):
    assert _cell(value) == cell


# ------------------------------------------------------------------ contract

def _outcome(capsys, argv):
    """Like `run`, but an argparse exit counts as its exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exit_codes_contract(capsys):
    assert run(capsys, "oracle", "--a", "2")[0] == 0          # success
    assert run(capsys, "realize", "--a", "1,1", "--bound", "4")[:2] == (1, "")  # search failed
    assert run(capsys, "gene", "--lengths", "1,1,2")[:2] == (2, "")  # contract error
    assert run(capsys, "table", "--a", "0")[:2] == (2, "")           # bad increments


@pytest.mark.parametrize(
    "argv",
    [
        ["gene", "--lengths", "1,x,1"],
        ["gene", "--lengths", ""],
        ["phi", "--a", "2,0", "--J", "1", "--explain", "--format", "json"],
        ["phi", "--a", "2,2", "--J", "0", "--explain"],
        ["phi", "--a", "2,2", "--J", "x", "--explain"],
        ["phi", "--lengths", "1,1,2", "--J", "", "--explain", "--format", "json"],
        ["table", "--a", "2,-1", "--format", "json"],
        ["verify", "--a", "x"],
        ["oracle", "--a", "0", "--explain", "--format", "json"],
        ["oracle", "--a", "1,1", "--max-basis", "3", "--format", "csv"],
        ["realize", "--a", "0"],
        ["realize", "--a", "1,1", "--bound", "4", "--format", "json"],
    ],
)
def test_failing_commands_write_nothing_to_stdout(capsys, argv):
    # Output leaves in pieces, so every check runs before its first byte.
    code, out, err = _outcome(capsys, argv)
    assert code in (1, 2) and out == "", (code, out)
    assert err.startswith("error: "), err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["tabulate"],
        ["gene"],
        ["gene", "--lengths", "1,1,1", "--max-n", "x"],
        ["phi", "--a", "2", "--J", "", "--format", "xml"],
        ["phi", "--a", "2"],
        ["table", "--a", "2", "--max-basis", "1.5"],
        ["verify"],
        ["oracle", "--a", "2", "--explain", "yes"],
        ["realize", "--a", "2", "--bound", "x"],
    ],
)
def test_argument_errors_write_nothing_to_stdout(capsys, argv):
    code, out, err = _outcome(capsys, argv)
    assert (code, out) == (2, "")
    assert "error: " in err, err


def test_parser_shared_between_calls_leaks_no_option(capsys):
    calls = [
        ["phi", "--a", "2,2,2", "--J", "3", "--explain", "--format", "json"],
        ["phi", "--a", "2,2,2", "--J", "3"],
        ["phi", "--a", "2,2,2", "--J", "3", "--format", "xml"],
        ["phi", "--a", "2,2,2", "--J", "3", "--format", "json"],
    ]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0]
    assert fresh[2][1] == ""
    assert "explain" not in fresh[3][1]
    _build_parser.cache_clear()
    assert [_outcome(capsys, argv) for argv in calls] == fresh
    assert _build_parser.cache_info().misses == 1


# ---------------------------------------------------------------- entry point

def _run_module(*argv: str) -> subprocess.CompletedProcess:
    """`python -m polyphi argv` in a fresh process, with `src` on the path."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    return subprocess.run([sys.executable, "-m", "polyphi", *argv], env=env, capture_output=True)


def test_module_entry_point_writes_the_golden_bytes():
    done = _run_module("gene", "--lengths", "1,1,1,1,1", "--format", "json")
    expected = (GOLDEN / "cli" / "gene_monogenic.json").read_bytes()
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, b"")


def test_module_entry_point_exits_2_on_a_bad_length():
    done = _run_module("gene", "--lengths", "1,1,0")
    expected = b"error: side lengths must be positive, got '0'\n"
    assert (done.returncode, done.stdout, done.stderr) == (2, b"", expected)
