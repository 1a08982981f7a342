"""Tests of the benchmark itself (not part of the polyphi suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, rounds  # noqa: E402

import polyphi  # noqa: E402
import polyphi.cli  # noqa: E402


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert polyphi.cli.main(argv) == 0
    return out.getvalue()


def _argv_lists(workload: str, seed: int, n: int = 2) -> list[list[tuple[str, ...]]]:
    return [[r.argv for r in reqs] for reqs in islice(rounds(workload, seed), n)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_argv(workload):
    assert _argv_lists(workload, 7) == _argv_lists(workload, 7)
    assert _argv_lists(workload, 7) != _argv_lists(workload, 8)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_no_input_repeats_within_a_run(workload):
    seen = set()
    for reqs in islice(rounds(workload, 3), 8):
        for r in reqs:
            p = r.params
            key = tuple(sorted(p["lengths"])) if "lengths" in p else (p["a"], p.get("bound"))
            assert key not in seen
            seen.add(key)


GENE_LENGTHS = "13,2,5,7,11,3,17,1,9,7"  # odd total: generic


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_dropped_gene_fails_the_check(fmt):
    from fractions import Fraction

    params = {"fmt": fmt, "lengths": [Fraction(x) for x in GENE_LENGTHS.split(",")]}
    out = _cli(["gene", "--lengths", GENE_LENGTHS, "--format", fmt])
    assert checks.check_gene(params, out) is None
    _, genes = checks.parse_gene(fmt, out)
    assert len(genes) > 1
    if fmt == "json":
        d = json.loads(out)
        d["code"].pop(1)
        bad = json.dumps(d)
    else:
        second = tuple(reversed(genes[1]))
        shown = "; {" + ",".join(map(str, second)) + "}" if fmt == "text" else ";" + " ".join(map(str, second))
        assert shown in out
        bad = out.replace(shown, "", 1)
    assert checks.check_gene(params, bad) is not None


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_flipped_phi_bit_fails_the_check(fmt):
    a = (2, 1, 3, 1)
    params = {"fmt": fmt, "a": a}
    out = _cli(["table", "--a", ",".join(map(str, a)), "--format", fmt])
    assert checks.check_table(params, out) is None
    rows = checks.parse_table(fmt, out)
    # Flip a row that is not full-size, so only the DP comparison can catch it.
    target = next(i for i, (t, _) in enumerate(rows) if sum(t) < len(a))
    lines = out.splitlines(keepends=True)
    if fmt == "json":
        d = json.loads(out)
        d["rows"][target]["phi"] ^= 1
        bad = json.dumps(d)
    else:
        line = lines[target + 1]
        flipped = "1" if line.rstrip("\n")[-1] == "0" else "0"
        lines[target + 1] = line.rstrip("\n")[:-1] + flipped + "\n"
        bad = "".join(lines)
    assert checks.check_table(params, bad) is not None


def test_checks_agree_with_polyphi_on_small_cases():
    from polyphi import GeeParams, pairing_by_profile, subgee_count

    for a in [(1,), (2, 2), (3, 1, 2), (1, 2, 1, 3), (2, 2, 2, 1, 1)]:
        g = GeeParams(a)
        profiles = checks.table_profiles(a)
        assert checks.subgee_count(a) == subgee_count(g)
        assert checks.phi_values(a, profiles) == [pairing_by_profile(g, t) for t in profiles]


def _bindings() -> dict[tuple[str, str], object]:
    return {(name, attr): value
            for name, m in list(sys.modules.items())
            if name == "polyphi" or name.startswith("polyphi.")
            for attr, value in vars(m).items() if callable(value)}


def test_traced_run_restores_every_wrapped_function():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert polyphi.cli.cross_validate is not before[("polyphi.cli", "cross_validate")]
        assert polyphi.relations.pairing_set is not before[("polyphi.relations", "pairing_set")]
        _cli(["oracle", "--a", "2,1"])
        _cli(["realize", "--a", "1,1"])
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    names = [tracing.TIMED[i] for i in tracer.span_name]
    parent = {names[i]: names[p] for i, p in enumerate(tracer.span_parent) if p >= 0}
    assert parent["relations.build_matrix"] == "relations.cross_validate"
    assert parent["relations.cross_validate"] == "cli.main"
    assert parent["lengths.genetic_code"] == "lengths.realize_gee"
    assert parent["lengths.is_generic"] == "lengths.genetic_code"
    totals = tracer.layer_totals()
    assert totals["lengths.realize_gee.candidates"] == totals["lengths.genetic_code.calls"]
    assert totals["combinatorics.compositions.calls"] > 0
