"""Byte-for-byte pins of the ICA random stream.

The files under tests/data were written by the list-of-objects ICA
before it moved to arrays, with the command lines below (stdout
redirected to the file).  Any change to the draw order, the tie rules
or the arithmetic of a phase shows up here as a changed byte.
"""

from pathlib import Path

import pytest

from fuzzfolio.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, name", [
    (["reproduce-paper", "--seeds", "1..5", "--format", "csv"], "reproduce_seeds_1_5.csv"),
    # both seeds collapse to a single empire and stop early (after 151
    # and 62 iterations); the paper defaults never reach that path
    (["solve", "--solver", "ica", "--countries", "12", "--imperialists", "4", "--iters", "500",
      "--seeds", "1..2", "--levels", "0.3", "--format", "csv"], "solve_ica_collapse_seeds_1_2.csv"),
])
def test_output_matches_golden_file(argv, name, tmp_path, capsys):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()
