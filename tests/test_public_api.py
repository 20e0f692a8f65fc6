"""The names other code relies on: the benchmark tracer's targets and its reading of the cost batch, every
__all__, the README's Python examples and ICA signatures, and the library's argument contract;
and the one summation of c . x, which no BLAS product in src/ may bypass."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fuzzfolio
from fuzzfolio import ica
from fuzzfolio.errors import ValidationError
from fuzzfolio.model import PortfolioInstance

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


def test_src_takes_no_blas_product():
    # a BLAS product sums in its CPU kernel's order, so a printed c . x would depend on the host; every
    # sum of products goes through model._row_sums, in numpy's pairwise order.  Each name below, and
    # numpy.linalg's norm of one vector, gives other bytes under another OpenBLAS kernel (numpy 2.4.6), so
    # no linalg name may appear either, nor any of them imported, renamed or not
    blas = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot", "vecdot", "matvec", "vecmat", "correlate",
            "convolve", "cov", "corrcoef", "linalg"}
    spelled = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name", ast.ImportFrom: "module"}
    found = []
    for path in sorted(Path(fuzzfolio.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif type(node) in spelled and blas.intersection(str(getattr(node, spelled[type(node)])).split(".")):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_the_tracer_counts_every_allocation_the_cost_batches_take(monkeypatch):
    # the benchmark reads a cost batch's allocations as its second argument: every country once, then per
    # iteration one batch of the colonies that assimilated and one of those that revolted
    for module in MODULES:  # the tracer wraps each name in every fuzzfolio module loaded when it installs
        importlib.import_module(f"fuzzfolio.{module}")
    moved = []
    for name, flags in (("assimilate", 2), ("revolve", 1)):  # the argument that flags the moved countries
        def recording(*args, original=getattr(ica, name), flags=flags):
            moved.append(int(args[flags].sum()))
            return original(*args)
        monkeypatch.setattr(ica, name, recording)
    levels = [fuzzfolio.ConfidenceLevels(v, v) for v in (0.1, 0.7)]
    lp = fuzzfolio.reformulate(fuzzfolio.bundled_instance("paper_table1"), levels)
    seeds, config = (1, 2, 3), ica.IcaConfig()
    tracer = _tracer().Tracer()
    tracer.begin()
    tracer.install()
    try:
        reports = ica.run(lp, config, seeds)
    finally:
        tracer.uninstall()
    layers = tracer.summary(1.0)
    iterations = max(len(r.history) for r in reports)
    assert len(moved) == 2 * iterations
    assert layers["penalty.penalized_objective_batch.rows"] == 2 * len(seeds) * config.n_countries + sum(moved)
    assert layers["penalty.penalized_objective_batch.calls"] == 1 + 2 * iterations


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


def test_readme_ica_signatures_name_each_parameter_in_order():
    # every `ica.name(a, b, ...)` the README writes out is that function's parameter list
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    written = re.findall(r"`ica\.(\w+)\(([^()`]*)\)`", readme)
    assert {"initialize", "form_empires", "draw", "revolve"} <= {name for name, _ in written}
    for name, params in written:
        assert params.split(", ") == list(inspect.signature(getattr(ica, name)).parameters), name


# --- the library's argument contract (README, "Argument errors") -----------------

LEVEL = st.floats(0.001, 0.999) | st.sampled_from([1e-16, 0.9999999999999999, np.float64(0.5), np.float32(0.25)])
# the good values of each checked argument, numpy scalars among them: small searches, few samples
GOOD = {
    "n_countries": st.sampled_from([4, 7, 12, np.int64(9)]),
    "n_imperialists": st.sampled_from([1, 3, np.int32(2)]),
    "revolution_rate": st.sampled_from([0, 0.0, 0.2, 1.0, np.float64(0.5)]),
    "max_iterations": st.sampled_from([0, 1, 3, np.int64(2)]),
    "epsilon": st.sampled_from([1e-300, 0.05, 0.09999999999999999, np.float32(0.01)]),
    "eq_factor": st.sampled_from([0.01, 0.5, 100.0, 2, np.float64(3.0)]),
    "enforce_threshold": st.sampled_from([False, True, np.False_, np.True_]),
    "lam": LEVEL,
    "eta": LEVEL,
    "total_fund": st.sampled_from([1.0, 100.0, 37, np.float64(5.5), np.int64(60)]),
    # factors of the fund, so that the bounds absorb it
    "upper_bounds": st.lists(st.sampled_from([0.2, 0.3, 1.0, 2.0]), min_size=5, max_size=5),
    "seeds": st.lists(st.sampled_from([0, 1, 7, np.int64(3)]), max_size=3) | st.sampled_from([range(2), (5,)]),
    "n_samples": st.sampled_from([1, 10, 100, np.int64(50)]),
    "x": st.just(lambda x: x),
    "path": st.just("inst.json"),
}
# an integer count past the float range: IcaConfig takes it, and ica.run refuses it
HUGE_COUNT = 10**400
# an int of more digits than Python writes as text: a message must show it some other way
LONG = 10**5000
# a bad value for each: of the wrong type, or out of range
BAD = {
    "n_countries": st.sampled_from([0, 1, -4, 2.5, "5", None, True, np.float64(8.0), HUGE_COUNT]),
    "n_imperialists": st.sampled_from([0, -1, 1.5, "2", None, False]),
    "revolution_rate": st.sampled_from([-0.1, 1.5, math.nan, "0.2", None, True, np.True_]),
    "max_iterations": st.sampled_from([-1, 2.5, "3", None, True]),
    "epsilon": st.sampled_from([0.0, 0.1, math.nan, math.inf, "a", None, False]),
    "eq_factor": st.sampled_from([0.0, -1.0, math.inf, math.nan, "1", None, True, LONG]),
    "enforce_threshold": st.sampled_from(["no", 0, 1, 1.0, None, np.int64(1)]),
    "lam": st.sampled_from([0.0, 1.0, -0.5, 1e-17, math.nan, math.inf, "0.5", None, True]),
    "eta": st.sampled_from([0.0, 1.0, 2.0, math.nan, -math.inf, "0.5", None, False]),
    "total_fund": st.sampled_from([0.0, -1.0, math.nan, math.inf, "1", None, True, LONG]),
    "upper_bounds": st.sampled_from([[1.0] * 4, [1.0] * 6, [1.0, -1.0, 1.0, 1.0, 1.0], [math.nan] * 5,
                                     ["1"] * 5, [None] * 5, [True] * 5, [LONG] * 5]),
    "seeds": st.sampled_from([[-1], [1.5], ["1"], [True], [np.float64(2.0)], 7, None, "12"]),
    # counts whose draws numpy cannot shape (2**63) or the host cannot hold (10**15)
    "n_samples": st.sampled_from([0, -3, 2.5, 1e4, "10", None, True, 2**63, 10**15, HUGE_COUNT]),
    "x": st.sampled_from([np.negative, lambda x: x[:-1], lambda x: x * math.nan, lambda x: np.append(x, 1.0)]),
    "path": st.sampled_from([".", "missing/inst.json"]),
}
CONFIG = [f.name for f in dataclasses.fields(ica.IcaConfig)]
PAPER = fuzzfolio.bundled_instance("paper_table1")


# a good and a bad value of every argument; up to three levels, the first of lam and eta;
# and the container of the bounds
ARGUMENTS = st.fixed_dictionaries({
    "good": st.fixed_dictionaries(GOOD), "bad": st.fixed_dictionaries(BAD),
    "more_levels": st.lists(st.tuples(LEVEL, LEVEL), max_size=2),
    # no level, one ConfidenceLevels, or a list of them
    "shape": st.sampled_from(["none", "one", "list"]), "single": st.booleans(),
    "container": st.sampled_from([list, tuple, np.array]),
})


def _call(bad, takes, fn):
    """fn's result, or None once it has raised the ValidationError that names
    the bad argument, which it must when it takes that argument."""
    if bad not in takes:
        return fn()
    with pytest.raises(ValidationError) as err:
        fn()
    assert err.value.field == bad
    return None


def _run_entry_points(bad, args, tmp_path):
    """Every entry point in turn, with the bad argument's bad value and every
    other argument's good one; each call that does not take it returns."""
    value = {**args["good"], **({bad: args["bad"][bad]} if bad else {})}
    shape = "one" if args["shape"] == "none" and bad in ("lam", "eta") else args["shape"]
    pairs = [(value["lam"], value["eta"]), *args["more_levels"]][:{"none": 0, "one": 1, "list": 3}[shape]]
    # as factors of the good fund, the good bounds absorb it
    bounds = value["upper_bounds"] if bad == "upper_bounds" else args["container"](
        [args["good"]["total_fund"] * b for b in value["upper_bounds"]])
    config = _call(bad, () if value["n_countries"] is HUGE_COUNT else CONFIG,
                   lambda: ica.IcaConfig(**{name: value[name] for name in CONFIG}))
    levels = _call(bad, ("lam", "eta"), lambda: [fuzzfolio.ConfidenceLevels(*pair) for pair in pairs])
    instance = _call(bad, ("total_fund", "upper_bounds"), lambda: PortfolioInstance(
        PAPER.assets, PAPER.target, value["total_fund"], bounds, PAPER.factor))
    if None in (config, levels, instance):
        return
    single = shape == "one" and args["single"]
    levels = levels[0] if single else levels
    lp = fuzzfolio.reformulate(instance, levels)
    assert fuzzfolio.solve_exact(lp).x.shape == lp.coefficients.shape
    reports = _call(bad, ("seeds", "n_countries"), lambda: ica.run(lp, config, value["seeds"]))
    assert reports is None or len(reports) == len(pairs) * len(value["seeds"])
    one = levels if single else levels[0] if levels else fuzzfolio.ConfidenceLevels(0.4, 0.4)
    x = value["x"](fuzzfolio.solve_exact(fuzzfolio.reformulate(instance, one)).x)
    _call(bad, ("n_samples", "x"), lambda: fuzzfolio.necessity_certificate(instance, one, x, value["n_samples"]))
    path = tmp_path / value["path"]
    _call(bad, ("path",), lambda: fuzzfolio.write_instance(instance, path))
    assert _call(bad, ("path",), lambda: fuzzfolio.load_instance(path)) in (None, instance)


# every argument that takes an int bad as an int too long to write as text, whatever the draws reach
@example(args={
    "good": {"n_countries": 12, "n_imperialists": 3, "revolution_rate": 0.2, "max_iterations": 1, "epsilon": 0.05,
             "eq_factor": 0.5, "enforce_threshold": False, "lam": 0.4, "eta": 0.4, "total_fund": 100.0,
             "upper_bounds": [0.3] * 5, "seeds": [1], "n_samples": 10, "x": lambda x: x, "path": "inst.json"},
    "bad": {"n_countries": 0, "n_imperialists": -LONG, "revolution_rate": LONG, "max_iterations": -LONG,
            "epsilon": -LONG, "eq_factor": LONG, "enforce_threshold": LONG, "lam": LONG, "eta": -LONG,
            "total_fund": -LONG, "upper_bounds": [LONG] * 5, "seeds": [-LONG], "n_samples": -LONG, "x": np.negative,
            "path": "."},
    "more_levels": [], "shape": "one", "single": True, "container": list})
@given(args=ARGUMENTS)
@settings(max_examples=50, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_entry_point_returns_or_names_the_bad_argument(args, tmp_path):
    # all good arguments, then each argument bad in turn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (None, *BAD):
            _run_entry_points(bad, args, tmp_path)
