"""Byte-for-byte pins of the ICA random stream and the report renderers,
in-process and under ``python -O``.

``CASES`` is the one list of pinned command lines, each with the name of
its output.  An output is compared with ``tests/data/<name>`` when that
file exists, and otherwise with its line in one of the ``*.sha256``
files (``sha256sum`` format).  Any change to the draw order, the tie
rules, the arithmetic of a phase, the greedy fill, the table layout or
the CSV and JSON columns shows up here as a changed byte.

The four files with ICA rows were written, with the command lines
below, when the search moved to one random block per seed and
iteration and began to evolve all seeds together; their exact rows and
published cells are those the earlier renderers and greedy fill wrote.
The exact 50-level table was written by the scan-per-level table
renderer and the per-asset greedy loop before they were replaced.

The 1000-level frontier on a 100-asset instance is pinned by sha256
(``frontier_100_levels_1000.sha256``, written by the per-row renderers
before equal rows shared their allocation text).  Its instance,
``frontier_100.json``, is
``instgen.random_instance(np.random.default_rng(100), n_assets=100)``
written with ``io.write_instance``; most of its rows repeat the one before.

Two longer ICA runs are pinned by sha256 too (``ica_runs.sha256``, written
before the phases evaluated only the countries that moved): the default
20-seed ``reproduce-paper`` sweep, and three levels of the 100-asset
instance, the only pinned ICA run whose row sums are pairwise.

The three JSON outputs print every objective by repr.  Their pins
(``reproduce_seeds_1_2.json`` and the ``reproduce_paper.json`` and
``frontier_100_levels_1000.json`` digests) were rewritten when every c . x
became numpy's pairwise row sum instead of a BLAS product, whose summation
order is the CPU kernel's; the -O test also runs under two other OpenBLAS
kernels to keep it so.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fuzzfolio
from fuzzfolio.cli import main

DATA = Path(__file__).parent / "data"

# 50 coupled levels 0.01, 0.03, ..., 0.99
FIFTY_LEVELS = ",".join(f"{0.01 + 0.02 * i:.2f}" for i in range(50))

# 1000 coupled levels 0.0005, 0.0015, ..., 0.9995
THOUSAND_LEVELS = ",".join(str((2 * i + 1) / 2000) for i in range(1000))

# every case runs in tests/data: the JSON output names the instance as given
CASES = [
    # compared with tests/data/<name>
    (["reproduce-paper", "--seeds", "1..5", "--format", "csv"], "reproduce_seeds_1_5.csv"),
    # both seeds collapse to a single empire and stop early (after 9 and
    # 16 iterations); the paper defaults never reach that path
    (["solve", "--solver", "ica", "--countries", "12", "--imperialists", "4", "--iters", "500",
      "--seeds", "1..2", "--levels", "0.3", "--format", "csv"], "solve_ica_collapse_seeds_1_2.csv"),
    (["solve", "--levels", FIFTY_LEVELS, "--format", "table"], "solve_exact_levels_50.txt"),
    # several ICA rows per level: the table groups and aggregates them
    (["solve", "--levels", "0.1,0.5", "--solver", "ica", "--seeds", "1..3", "--format", "table"],
     "solve_ica_levels_2_seeds_1_3.txt"),
    # every threshold and objective by repr, so the normal quantile's bits are pinned too
    (["reproduce-paper", "--seeds", "1..2", "--format", "json"], "reproduce_seeds_1_2.json"),
    # compared with their lines in frontier_100_levels_1000.sha256
    *((["solve", "--instance", "frontier_100.json", "--levels", THOUSAND_LEVELS, "--format", fmt],
       f"frontier_100_levels_1000.{ext}") for fmt, ext in (("table", "txt"), ("csv", "csv"), ("json", "json"))),
    # compared with their lines in ica_runs.sha256
    (["reproduce-paper", "--format", "json"], "reproduce_paper.json"),
    (["solve", "--instance", "frontier_100.json", "--solver", "ica", "--levels", "0.05,0.5,0.95", "--seeds", "1..3",
      "--countries", "60", "--imperialists", "6", "--iters", "40", "--format", "csv"],
     "frontier_100_ica_levels_3_seeds_1_3.csv"),
]

DIGESTS = {name: digest for pins in ("frontier_100_levels_1000.sha256", "ica_runs.sha256")
           for digest, name in map(str.split, (DATA / pins).read_text().splitlines())}


def _assert_pinned(name: str, out: Path) -> None:
    golden = DATA / name
    if golden.exists():
        assert out.read_bytes() == golden.read_bytes()
    else:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]


def _run_in_process(argv, name, tmp_path, monkeypatch):
    monkeypatch.chdir(DATA)
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    _assert_pinned(name, out)


@pytest.mark.parametrize("argv, name", CASES[:5])
def test_output_matches_golden_file(argv, name, tmp_path, monkeypatch):
    _run_in_process(argv, name, tmp_path, monkeypatch)


@pytest.mark.parametrize("argv, name", CASES[5:8], ids=lambda v: v[-1] if isinstance(v, list) else None)
def test_large_frontier_matches_its_digest(argv, name, tmp_path, monkeypatch):
    _run_in_process(argv, name, tmp_path, monkeypatch)


@pytest.mark.parametrize("argv, name", CASES[8:])
def test_ica_run_matches_its_digest(argv, name, tmp_path, monkeypatch):
    _run_in_process(argv, name, tmp_path, monkeypatch)


@pytest.mark.parametrize("coretype", ["", "Haswell", "Prescott"], ids=lambda v: v or "unset")
def test_pinned_outputs_survive_python_O(coretype, blas, tmp_path):
    # -O strips asserts, so the child only writes every case's output, in one
    # process, and this process compares them.  A DYNAMIC_ARCH OpenBLAS sums a
    # product in its kernel's order, which OPENBLAS_CORETYPE picks in the child:
    # no pinned byte may follow it
    if coretype and not ("DYNAMIC_ARCH" in blas.get("openblas configuration", "")
                         and platform.machine().lower() in ("x86_64", "amd64")):
        pytest.skip(f"OPENBLAS_CORETYPE={coretype} picks no kernel: numpy's BLAS is {blas.get('name', 'unknown')}, "
                    f"not a DYNAMIC_ARCH OpenBLAS on x86-64")
    src = Path(fuzzfolio.__file__).resolve().parents[1]
    code = textwrap.dedent("""
        import json, sys
        from fuzzfolio.cli import main
        print(sys.flags.optimize, [main(argv) for argv in json.load(sys.stdin)])
    """)
    outs = [tmp_path / name for _, name in CASES]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    done = subprocess.run([sys.executable, "-O", "-W", "error::RuntimeWarning", "-c", code],
                          input=json.dumps([[*argv, "--out", str(out)] for (argv, _), out in zip(CASES, outs)]),
                          cwd=DATA, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"1 {[0] * len(CASES)}\n"
    for (_, name), out in zip(CASES, outs):
        _assert_pinned(name, out)
