"""Byte-for-byte pins of the ICA random stream and the report renderers.

The four files with ICA rows were written, with the command lines
below, when the search moved to one random block per seed and
iteration and began to evolve all seeds together; their exact rows and
published cells are those the earlier renderers and greedy fill wrote.
The exact 50-level table was written by the scan-per-level table
renderer and the per-asset greedy loop before they were replaced.  Any
change to the draw order, the tie rules, the arithmetic of a phase, the
greedy fill, the table layout or the CSV and JSON columns shows up here
as a changed byte.
"""

from pathlib import Path

import pytest

from fuzzfolio.cli import main

DATA = Path(__file__).parent / "data"

# 50 coupled levels 0.01, 0.03, ..., 0.99
FIFTY_LEVELS = ",".join(f"{0.01 + 0.02 * i:.2f}" for i in range(50))


@pytest.mark.parametrize("argv, name", [
    (["reproduce-paper", "--seeds", "1..5", "--format", "csv"], "reproduce_seeds_1_5.csv"),
    # both seeds collapse to a single empire and stop early (after 9 and
    # 16 iterations); the paper defaults never reach that path
    (["solve", "--solver", "ica", "--countries", "12", "--imperialists", "4", "--iters", "500",
      "--seeds", "1..2", "--levels", "0.3", "--format", "csv"], "solve_ica_collapse_seeds_1_2.csv"),
    (["solve", "--levels", FIFTY_LEVELS, "--format", "table"], "solve_exact_levels_50.txt"),
    # several ICA rows per level: the table groups and aggregates them
    (["solve", "--levels", "0.1,0.5", "--solver", "ica", "--seeds", "1..3", "--format", "table"],
     "solve_ica_levels_2_seeds_1_3.txt"),
    (["reproduce-paper", "--seeds", "1..2", "--format", "json"], "reproduce_seeds_1_2.json"),
])
def test_output_matches_golden_file(argv, name, tmp_path, capsys):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()
