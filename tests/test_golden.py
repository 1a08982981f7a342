"""Byte-for-byte CLI stdout for every command in every format.

Each case names a command line (without `--format`), its exit code, and
optionally a subgee at which the formula's value is flipped, so that the
failure output of `verify` and `oracle` is pinned too.  The expected
stdout lives in `golden/cli/<case>.<ext>`.
"""

from __future__ import annotations

import csv
from pathlib import Path

import pytest

from polyphi.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"
EXTENSIONS = {"text": "txt", "json": "json", "csv": "csv"}

# name -> (argv without --format, exit code, flipped subgee or None)
CASES = {
    "gene_monogenic": (["gene", "--lengths", "1,1,1,1,1"], 0, None),
    "gene_not_monogenic": (["gene", "--lengths", "1,1,1,2,2,2"], 0, None),
    "gene_k0": (["gene", "--lengths", "1,1,1"], 0, None),
    "gene_rational": (["gene", "--lengths", "1/3,2,5/2,3,7/2,4"], 0, None),
    "phi_a": (["phi", "--a", "2,2,2", "--J", "3"], 0, None),
    "phi_lengths": (["phi", "--lengths", "1,1,1,1,1", "--J", "4"], 0, None),
    "phi_beyond_span": (["phi", "--a", "2", "--J", "5"], 0, None),
    "phi_beyond_span_explain": (["phi", "--a", "2", "--J", "5", "--explain"], 0, None),
    "phi_explain": (["phi", "--a", "2,2,2", "--J", "3", "--explain"], 0, None),
    "phi_not_subgee_explain": (["phi", "--a", "2,2", "--J", "3,4", "--explain"], 0, None),
    "phi_k0": (["phi", "--a", "", "--J", ""], 0, None),
    "phi_explain_k7": (["phi", "--a", "2,1,3,2,1,2,2", "--J", "1,7", "--explain"], 0, None),
    "table_a222": (["table", "--a", "2,2,2"], 0, None),
    "table_a1111": (["table", "--a", "1,1,1,1"], 0, None),
    "table_k0": (["table", "--a", ""], 0, None),
    "table_k6": (["table", "--a", "2,1,3,2,1,2"], 0, None),
    "verify_a222": (["verify", "--a", "2,2,2"], 0, None),
    "verify_k0": (["verify", "--a", ""], 0, None),
    "verify_failures": (["verify", "--a", "2,2"], 1, (1,)),
    "oracle_a22": (["oracle", "--a", "2,2"], 0, None),
    "oracle_a22_explain": (["oracle", "--a", "2,2", "--explain"], 0, None),
    "oracle_k0_explain": (["oracle", "--a", "", "--explain"], 0, None),
    "oracle_disagree_explain": (["oracle", "--a", "1,2", "--explain"], 1, (3,)),
    "realize_a2": (["realize", "--a", "2"], 0, None),
    "realize_a11": (["realize", "--a", "1,1"], 0, None),
}


@pytest.mark.parametrize("fmt", sorted(EXTENSIONS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, fmt, capsys, flip_formula_at):
    argv, exit_code, flipped = CASES[name]
    if flipped is not None:
        flip_formula_at(flipped)
    assert main([*argv, "--format", fmt]) == exit_code
    expected = (GOLDEN / f"{name}.{EXTENSIONS[fmt]}").read_bytes()
    assert capsys.readouterr().out.encode() == expected


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.csv")), ids=lambda p: p.name)
def test_golden_csv_needs_no_quoting(path):
    """Joining cells with commas writes what `csv.writer` would."""
    lines = path.read_text().splitlines(keepends=True)
    rows = list(csv.reader(lines))
    assert len(rows) == len(lines) >= 2
    for line, row in zip(lines, rows):
        assert len(row) == len(rows[0])
        assert ",".join(row) + "\n" == line
