"""The names other code relies on: the benchmark tracer's targets and every __all__."""

import importlib
import importlib.util
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
