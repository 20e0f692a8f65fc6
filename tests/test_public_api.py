"""The names other code relies on: the benchmark tracer's targets, every
__all__, and the README's Python examples."""

import importlib
import importlib.util
import re
import warnings
from pathlib import Path

import pytest

import fuzzfolio

MODULES = ("cli", "fuzzy", "ica", "io", "model", "oracle", "penalty", "report")


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, name", [(m, f) for m, f, _ in _tracer().TRACED])
def test_traced_functions_exist(module, name):
    assert callable(getattr(importlib.import_module(f"fuzzfolio.{module}"), name, None))


@pytest.mark.parametrize("module", ["", *MODULES])
def test_all_names_exist(module):
    mod = importlib.import_module(f"fuzzfolio.{module}" if module else "fuzzfolio")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []



def test_top_level_names():
    assert sorted(fuzzfolio.__all__) == [
        "BudgetInfeasibleError", "ConfidenceLevels", "IcaConfig", "ValidationError", "bundled_instance",
        "load_instance", "necessity_certificate", "reformulate", "solve_exact", "write_instance"]


def test_readme_python_blocks_print_what_their_comments_say(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 2
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in blocks:  # each block goes on from the names of the one before
            exec(compile(block, "README.md", "exec"), namespace)
    # each print line's comment is what it prints, up to runs of spaces
    expected = [line.rpartition("#")[2].split() for block in blocks
                for line in block.splitlines() if line.startswith("print(")]
    assert len(expected) == 4
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == expected
