import argparse
import csv
import dataclasses
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fuzzfolio
from fuzzfolio import cli, ica
from fuzzfolio.cli import MAX_SEEDS, _parse_seeds, main
from fuzzfolio.errors import BudgetInfeasibleError, ValidationError
from fuzzfolio.fuzzy import FuzzyRandomReturn, RandomFactor
from fuzzfolio.io import bundled_instance, bundled_names, load_instance, loads_instance, write_instance
from fuzzfolio.model import PortfolioInstance
from fuzzfolio.report import CSV_COLUMNS, Sweep, render_csv, render_json, render_table
from referees import format_allocation, render_csv_rows, render_json_rows, render_table_rows, sweep_rows


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse rejects bad flags with exit code 2
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


# --- instance files -----------------------------------------------------------

def test_an_unknown_bundled_name_is_refused():
    with pytest.raises(ValidationError, match=r"^no bundled instance named 'nope'; available: \['paper_table1'\]$"):
        bundled_instance("nope")


def test_bundled_fixture_matches_published_parameters():
    inst = bundled_instance("paper_table1")
    assert len(inst.assets) == 5
    assert inst.total_fund == 200.0
    assert inst.upper_bounds == (60.0,) * 5
    assert [a.r0 for a in inst.assets] == [1.3, 1.2, 1.35, 1.4, 1.45]
    assert [a.r1 for a in inst.assets] == [1.45, 1.25, 1.4, 1.5, 1.6]
    assert [a.r2 for a in inst.assets] == [0.6, 0.5, 0.5, 0.6, 0.6]
    assert [a.beta for a in inst.assets] == [0.2, 0.15, 0.15, 0.25, 0.25]
    assert [a.gamma for a in inst.assets] == [0.2, 0.15, 0.15, 0.25, 0.25]
    assert (inst.target.r0, inst.target.r2, inst.target.beta) == (250.0, 50.0, 40.0)
    assert (inst.factor.mean, inst.factor.std_dev) == (0.0, 1.0)
    assert "paper_table1" in bundled_names()


def test_round_trip(tmp_path):
    inst = bundled_instance("paper_table1")
    out = tmp_path / "copy.json"
    write_instance(inst, out)
    assert load_instance(out) == inst


@pytest.mark.parametrize("where, reason", [("", "Is a directory"), ("missing/copy.json", "No such file or directory")],
                         ids=["directory", "missing-parent"])
def test_write_names_an_unwritable_path(tmp_path, where, reason):
    path = tmp_path / where
    with pytest.raises(ValidationError) as err:
        write_instance(bundled_instance("paper_table1"), path)
    assert (err.value.field, str(err.value)) == ("path", f"{path}: {reason}")
    # the loader names the same path the same way
    with pytest.raises(ValidationError) as err:
        load_instance(path)
    assert (err.value.field, str(err.value)) == ("path", f"{path}: {reason}")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def fuzzy_returns(draw):
    r0, r1 = sorted((draw(FINITE), draw(FINITE)))
    return FuzzyRandomReturn(r0, r1, draw(NONNEGATIVE), draw(NONNEGATIVE), draw(NONNEGATIVE))


@st.composite
def instances(draw):
    n = draw(st.integers(1, 6))
    bounds = draw(st.lists(POSITIVE, min_size=n, max_size=n))
    fund = draw(st.floats(min_value=0.0, max_value=min(sum(bounds), sys.float_info.max), exclude_min=True))
    return PortfolioInstance(
        assets=tuple(draw(fuzzy_returns()) for _ in range(n)),
        target=draw(fuzzy_returns()),
        total_fund=fund,
        upper_bounds=tuple(bounds),
        factor=RandomFactor(draw(FINITE), draw(POSITIVE)),
    )


def _numbers(value):
    # every number of an instance, in field order, nested records flattened
    if isinstance(value, tuple):
        return [v for item in value for v in _numbers(item)]
    return [value]


@given(instances())
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_instances_round_trip(tmp_path, inst):
    out = tmp_path / "copy.json"
    write_instance(inst, out)
    loaded = load_instance(out)
    assert loaded == inst
    # float.hex tells -0.0 from 0.0, which == does not
    want = [v.hex() for v in _numbers(dataclasses.astuple(inst))]
    assert [v.hex() for v in _numbers(dataclasses.astuple(loaded))] == want


def test_load_rejects_negative_spread(tmp_path):
    bad = tmp_path / "bad.json"
    src = tmp_path / "src.json"
    write_instance(bundled_instance("paper_table1"), src)
    data = json.loads(src.read_text())
    data["assets"][2]["beta"] = -1.0
    bad.write_text(json.dumps(data))
    with pytest.raises(ValidationError) as err:
        load_instance(bad)
    assert "assets[2]" in str(err.value)


def test_load_rejects_budget_infeasible(tmp_path):
    src = tmp_path / "src.json"
    write_instance(bundled_instance("paper_table1"), src)
    data = json.loads(src.read_text())
    data["total_fund"] = 400.0
    data["upper_bounds"] = [60.0] * 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(BudgetInfeasibleError):
        load_instance(bad)


def test_load_reports_parse_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "assets": [,]\n}\n')
    with pytest.raises(ValidationError) as err:
        load_instance(bad)
    assert ":2:" in str(err.value)


def test_load_missing_field(tmp_path):
    src = tmp_path / "src.json"
    write_instance(bundled_instance("paper_table1"), src)
    data = json.loads(src.read_text())
    del data["assets"][0]["gamma"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValidationError) as err:
        load_instance(bad)
    assert "gamma" in str(err.value) and "assets[0]" in str(err.value)


# every number of an instance file, as (path into the JSON, how errors name it)
NUMBER_FIELDS = (
    [(("assets", 1, f), f"assets[1]: field {f!r}") for f in ("r0", "r1", "r2", "beta", "gamma")]
    + [(("target", f), f"target: field {f!r}") for f in ("r0", "r1", "r2", "beta", "gamma")]
    + [(("factor", "mean"), "factor: field 'mean'"), (("factor", "std_dev"), "factor: field 'std_dev'")]
    + [(("total_fund",), "field 'total_fund'"), (("upper_bounds", 3), "upper_bounds[3]")]
)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "1", None, True, [1.0]])
@pytest.mark.parametrize("path, named", NUMBER_FIELDS)
def test_load_rejects_non_finite_numbers(tmp_path, path, named, value):
    paper = bundled_instance("paper_table1")
    src = tmp_path / "src.json"
    write_instance(paper, src)
    data = json.loads(src.read_text())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))  # NaN / Infinity / -Infinity tokens
    with pytest.raises(ValidationError) as err:
        load_instance(bad)
    rule = "be finite" if isinstance(value, float) else "be a number"
    assert str(err.value) == f"{bad}: {named} must {rule}, got {value!r}"
    # the record or instance built directly raises the same message, less the file and the
    # record's place, and names the field: the loader adds the place and nothing else
    with pytest.raises(ValidationError) as direct:
        if path[0] in ("assets", "target", "factor"):
            (RandomFactor if path[0] == "factor" else FuzzyRandomReturn)(**node)
        else:
            PortfolioInstance(paper.assets, paper.target, data["total_fund"], data["upper_bounds"], paper.factor)
    place = named.rpartition(": ")[0]
    assert str(err.value) == f"{bad}: {place + ': ' if place else ''}{direct.value}"
    assert direct.value.field == (path[-1] if isinstance(path[-1], str) else path[0])


PAPER_JSON = resources.files("fuzzfolio.data").joinpath("paper_table1.json").read_text()


@pytest.mark.parametrize("path, named", [(("assets", 1), "assets[1]"), (("target",), "target"),
                                         (("factor",), "factor")])
def test_load_names_a_record_that_is_not_an_object(path, named):
    data = json.loads(PAPER_JSON)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = [1.0]
    with pytest.raises(ValidationError) as err:
        loads_instance(json.dumps(data), source="inst.json")
    assert str(err.value) == f"inst.json: {named}: must be an object"


# instance files rejected with exit 2 and one line: the loader rejects
# those not JSON, not UTF-8, or holding integers past the float range,
# and reformulate those whose coefficients overflow
BAD_INSTANCES = {
    "malformed.json": b"{",
    "not_utf8.json": b"\xff\xfe{",
    "huge_fund.json": PAPER_JSON.replace('"total_fund": 200', '"total_fund": 1' + "0" * 400).encode(),
    "huge_bound.json": PAPER_JSON.replace('"upper_bounds": [60,', '"upper_bounds": [1' + "0" * 400 + ",").encode(),
    # longer than the 4300 digits int() parses
    "long_int.json": PAPER_JSON.replace('"total_fund": 200', '"total_fund": ' + "1" * 4301).encode(),
    # a coefficient r0 + t* r2 - eta beta past the float range: every asset's
    # (the target's integers stay), or only the third asset's
    "huge_returns.json": re.sub(r'"r([012])": [0-9]+[.][0-9]+', r'"r\1": 1.7e308', PAPER_JSON).encode(),
    "huge_r2.json": PAPER_JSON.replace('"r1": 1.4, "r2": 0.5,', '"r1": 1.4, "r2": 1.7e308,').encode(),
    # deeper than the JSON decoder's recursion limit
    "deep.json": b"[" * 100_000 + b"]" * 100_000,
    # JSON of the wrong shape: no object, no asset, bounds that are no array
    "not_object.json": b"[1]",
    "no_assets.json": re.sub(r'"assets": \[.*?\]', '"assets": []', PAPER_JSON, flags=re.S).encode(),
    "bounds_not_array.json": PAPER_JSON.replace('"upper_bounds": [60, 60, 60, 60, 60]', '"upper_bounds": 60').encode(),
}


@pytest.mark.parametrize("name, named", [
    ("huge_fund.json", "field 'total_fund'"),
    ("huge_bound.json", "upper_bounds[0]"),
    ("long_int.json", "field 'total_fund'"),
])
def test_load_names_an_integer_past_the_float_range(tmp_path, name, named):
    bad = tmp_path / name
    bad.write_bytes(BAD_INSTANCES[name])
    with pytest.raises(ValidationError) as err:
        load_instance(bad)
    assert str(err.value) == f"{bad}: {named} must be finite, got inf"


def test_non_finite_instance_exit_code(tmp_path, capsys):
    src = tmp_path / "inst.json"
    write_instance(bundled_instance("paper_table1"), src)
    src.write_text(src.read_text().replace('"beta": 0.2', '"beta": NaN', 1))
    code, _, err = run_cli(["solve", "--instance", str(src)], capsys)
    assert code == 2
    assert err == f"error: {src}: assets[0]: field 'beta' must be finite, got nan\n"


# --- solve command ---------------------------------------------------------------

def test_solve_exact_csv(capsys):
    code, out, _ = run_cli(["solve", "--levels", "0.1", "--format", "csv"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert tuple(row) == CSV_COLUMNS
    assert row["solver"] == "exact"
    assert row["allocation"] == "60;0;20;60;60"
    assert row["threshold_ok"] == "true"
    assert float(row["objective"]) == pytest.approx(422.723, abs=1e-3)


def test_solve_flags_unsatisfiable_threshold(capsys):
    code, out, _ = run_cli(["solve", "--levels", "0.7", "--format", "csv"], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert row["threshold_ok"] == "false"
    assert row["status"] == "threshold_infeasible"


def test_enforce_threshold_exit_code(capsys):
    code, _, err = run_cli(
        ["solve", "--levels", "0.7", "--format", "csv", "--enforce-threshold"], capsys)
    assert code == 4
    assert "unsatisfiable" in err

    code, _, _ = run_cli(
        ["solve", "--levels", "0.1", "--format", "csv", "--enforce-threshold"], capsys)
    assert code == 0


def test_solve_ica_rows_carry_oracle_gap(capsys):
    code, out, _ = run_cli(
        ["solve", "--levels", "0.1", "--solver", "ica", "--seeds", "1..3", "--format", "csv"],
        capsys)
    assert code == 0
    rows = parse_csv(out)
    assert [r["seed"] for r in rows] == ["1", "2", "3"]
    for r in rows:
        oracle = float(r["oracle_objective"])
        assert oracle == pytest.approx(422.723, abs=1e-3)
        assert float(r["objective"]) <= oracle + 1e-9
        assert float(r["rel_gap"]) >= -1e-12
        assert abs(float(r["budget_residual"])) <= 1e-6


def test_solve_decoupled_levels(capsys):
    code, out, _ = run_cli(
        ["solve", "--lambda", "0.2", "--eta", "0.6", "--format", "csv"], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert (row["lambda"], row["eta"]) == ("0.2", "0.6")


def test_level_flag_conflicts(capsys):
    code, _, err = run_cli(["solve", "--lambda", "0.2"], capsys)
    assert code == 2 and "--eta" in err
    code, _, _ = run_cli(["solve", "--levels", "0.1", "--lambda", "0.2", "--eta", "0.3"], capsys)
    assert code == 2


def test_unknown_instance_exit_code(capsys):
    code, _, err = run_cli(["solve", "--instance", "nope.json"], capsys)
    assert code == 2
    assert "nope.json" in err


def test_budget_infeasible_instance_exit_code(tmp_path, capsys):
    src = tmp_path / "inst.json"
    write_instance(bundled_instance("paper_table1"), src)
    data = json.loads(src.read_text())
    data["total_fund"] = 400.0
    src.write_text(json.dumps(data))
    code, _, err = run_cli(["solve", "--instance", str(src)], capsys)
    assert code == 3


# nine bounds whose Python sum, taken as the fund, is one ulp above numpy's pairwise sum
BORDER_BOUNDS = [92.5, 27.7, 72.6, 16.1, 32.3, 96.9, 42.1, 51.6, 29.3]


def borderline_instance():
    data = json.loads(PAPER_JSON)
    data["assets"] = [data["assets"][j % 5] for j in range(len(BORDER_BOUNDS))]
    data["upper_bounds"] = BORDER_BOUNDS
    data["total_fund"] = sum(BORDER_BOUNDS)
    return data


@pytest.mark.parametrize("flags, n_rows", [([], 4), (["--solver", "ica", "--seeds", "1..3"], 12)])
def test_an_instance_that_loads_solves_with_either_solver(flags, n_rows, tmp_path, capsys):
    fund = sum(BORDER_BOUNDS)
    assert fund > float(np.sum(BORDER_BOUNDS))
    src = tmp_path / "inst.json"
    src.write_text(json.dumps(borderline_instance()))
    assert load_instance(src).total_fund == fund
    code, out, err = run_cli(["solve", "--instance", str(src), "--format", "csv", *flags], capsys)
    assert (code, err) == (0, "")
    rows = parse_csv(out)
    assert len(rows) == n_rows
    assert all(abs(float(r["budget_residual"])) <= 1e-6 for r in rows)


def test_ica_rejects_an_instance_whose_penalty_overflows(tmp_path, capsys):
    src = tmp_path / "inst.json"
    write_instance(bundled_instance("paper_table1"), src)
    data = json.loads(src.read_text())
    data["total_fund"] = 1e200
    data["upper_bounds"] = [1e200] * 5
    src.write_text(json.dumps(data))
    code, out, _ = run_cli(["solve", "--instance", str(src), "--format", "csv"], capsys)
    assert code == 0
    assert [float(r["budget_residual"]) for r in parse_csv(out)] == [0.0] * 4
    code, out, err = run_cli(["solve", "--instance", str(src), "--solver", "ica", "--seeds", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: the penalized objective overflows inside the box; rescale the instance for the ICA solver\n"


def test_exact_solver_rejects_an_instance_whose_objective_overflows(tmp_path, capsys):
    src = tmp_path / "inst.json"
    write_instance(bundled_instance("paper_table1"), src)
    data = json.loads(src.read_text())
    data["total_fund"] = 1e308
    data["upper_bounds"] = [1.7e308] * 5  # their sum overflows to inf
    src.write_text(json.dumps(data))
    code, out, err = run_cli(["solve", "--instance", str(src), "--levels", "0.4", "--format", "csv"], capsys)
    assert (code, err) == (0, "")
    [row] = parse_csv(out)
    assert row["allocation"] == "0;0;0;0;1e+308"
    assert float(row["objective"]) < float("inf")
    code, out, err = run_cli(["solve", "--instance", str(src), "--levels", "0.1", "--format", "csv"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: the optimal objective overflows at lambda=0.1, eta=0.1; rescale the instance\n"


# assets[2]'s coefficient overflows at lambda = 0.99, yet lambda = 0.5 fails first:
# its optimal objective overflows, or, at a smaller fund, the ICA penalty bound
@pytest.mark.parametrize("fund, flags, message", [
    (1.7e308, [], "the optimal objective overflows at lambda=0.5, eta=0.5; rescale the instance"),
    (1e200, ["--solver", "ica", "--iters", "3"],
     "the penalized objective overflows inside the box; rescale the instance for the ICA solver"),
])
@pytest.mark.filterwarnings("error")
def test_the_first_failing_level_names_the_error(tmp_path, capsys, fund, flags, message):
    data = json.loads(PAPER_JSON)
    data["assets"][2]["r2"] = 1e308
    data["total_fund"] = fund
    data["upper_bounds"] = [min(fund, 1.7e308)] * 5
    src = tmp_path / "inst.json"
    src.write_text(json.dumps(data))
    code, out, err = run_cli(["solve", "--instance", str(src), "--levels", "0.5,0.99", *flags], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, _, err = run_cli(["solve", "--instance", str(src), "--levels", "0.99", *flags], capsys)
    assert (code, err) == (2, "error: assets[2]: the coefficient overflows at lambda=0.99, eta=0.99; rescale the instance\n")


def test_a_failing_later_level_runs_no_search_on_the_earlier_ones(tmp_path, capsys, monkeypatch):
    # lambda = 0.5 passes every check at this fund, lambda = 0.99 fails in
    # reformulate; finding that out draws no ICA iteration at lambda = 0.5
    data = json.loads(PAPER_JSON)
    data["assets"][2]["r2"] = 1e308
    data["total_fund"] = 1e-4
    data["upper_bounds"] = [1e-4] * 5
    src = tmp_path / "inst.json"
    src.write_text(json.dumps(data))
    code, out, _ = run_cli(["solve", "--instance", str(src), "--levels", "0.5", "--solver", "ica", "--iters", "1",
                            "--format", "csv"], capsys)
    assert code == 0 and len(parse_csv(out)) == 1

    def no_draw(*args):
        raise AssertionError("an ICA iteration ran")

    # every level is checked before any search starts, so no seed is initialized
    initialized = []
    initialize = ica.initialize

    def counted_initialize(config, bounds, generators, stream):
        initialized.append(len(stream))
        return initialize(config, bounds, generators, stream)

    monkeypatch.setattr(ica, "draw", no_draw)
    monkeypatch.setattr(ica, "initialize", counted_initialize)
    code, out, err = run_cli(["solve", "--instance", str(src), "--levels", "0.5,0.99", "--solver", "ica",
                              "--seeds", f"1..{3 * ica.ROW_BLOCK}"], capsys)
    assert (code, out, err) == (2, "", "error: assets[2]: the coefficient overflows at lambda=0.99, eta=0.99; "
                                       "rescale the instance\n")
    assert initialized == []


def test_a_failing_sweep_rechecks_its_levels_by_halves(tmp_path, capsys, monkeypatch):
    # 4000 passing levels and lambda = 0.99, which fails in reformulate: the
    # re-check bisects instead of reformulating each level alone
    data = json.loads(PAPER_JSON)
    data["assets"][2]["r2"] = 1e308
    data["total_fund"] = 1e-4
    data["upper_bounds"] = [1e-4] * 5
    src = tmp_path / "inst.json"
    src.write_text(json.dumps(data))
    code, _, alone = run_cli(["solve", "--instance", str(src), "--levels", "0.99"], capsys)
    assert code == 2
    calls = []
    reformulate = cli.reformulate

    def counted_reformulate(instance, levels):
        calls.append(len(levels))
        return reformulate(instance, levels)

    monkeypatch.setattr(cli, "reformulate", counted_reformulate)
    levels = ",".join(map(repr, [*np.linspace(0.06, 0.94, 4000).tolist(), 0.99]))
    code, out, err = run_cli(["solve", "--instance", str(src), "--levels", levels], capsys)
    assert (code, out, err) == (2, "", alone)
    assert calls[0] == 4001 and len(calls) <= 1 + 2 * math.ceil(math.log2(4001))


# ICA's refusals are checked at every level before any search: at a fund
# of 5 the penalty bound overflows at lambda = 0.99 alone; at 1e-4 the
# draw buffer is refused at lambda = 0.5, before reformulate fails at 0.99
@pytest.mark.parametrize("r2, fund, flags, first, message", [
    (1e305, 5.0, [], "0.99",
     "the penalized objective overflows inside the box; rescale the instance for the ICA solver"),
    (1e308, 1e-4, ["--countries", "1000000000"], "0.5",
     "n_countries: 1000000000 countries of 5 assets need a 10490.4 GiB draw buffer, above the 2 GiB limit"),
])
def test_a_later_level_refused_by_ica_runs_no_search(tmp_path, capsys, monkeypatch, r2, fund, flags, first, message):
    data = json.loads(PAPER_JSON)
    data["assets"][2]["r2"] = r2
    data["total_fund"] = fund
    data["upper_bounds"] = [2 * fund] * 5
    src = tmp_path / "inst.json"
    src.write_text(json.dumps(data))
    solve = ["solve", "--instance", str(src), "--solver", "ica", "--seeds", "1..2000", *flags]
    code, _, err = run_cli([*solve, "--levels", first], capsys)
    assert (code, err) == (2, f"error: {message}\n")

    def no_search(*args):
        raise AssertionError("an ICA search started")

    monkeypatch.setattr(ica, "initialize", no_search)
    monkeypatch.setattr(ica, "draw", no_search)
    code, out, err = run_cli([*solve, "--levels", "0.5,0.99"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_default_levels_and_table_format(capsys):
    code, out, _ = run_cli(["solve"], capsys)
    assert code == 0
    for level in ("0.1", "0.4", "0.7", "0.9"):
        assert f"lambda={level}" in out
    assert "exact" in out


def exact_sweep(levels, allocations, objectives, thresholds, n):
    """The grid of an exact sweep over n assets: one exact row per coupled level, no ICA rows."""
    x = np.array(allocations, dtype=float).reshape(len(levels), n)
    return Sweep(levels, levels, thresholds, objectives, x, [0.0] * len(levels), None, [], [], np.empty((0, n)), [])


def test_table_keeps_the_sign_of_zero():
    def row(level, allocation):
        return level, allocation

    def grid(rows):
        levels, allocations = zip(*rows)
        return exact_sweep(levels, allocations, [1.0] * len(rows), [0.0] * len(rows), len(allocations[0]))

    assert "x = [0, 2, -0, 0]" in render_table(grid([row(0.5, (0.0, 2.0, -0.0, 0.0))]))
    # (0.0, 2.0) == (-0.0, 2.0): allocations that compare equal still print their own zero
    for first, second in (((0.0, 2.0), (-0.0, 2.0)), ((-0.0, 2.0), (0.0, 2.0))):
        rows = [row(0.2, first), row(0.4, second)]
        zeros = ["-0" if math.copysign(1.0, a[0]) < 0 else "0" for a in (first, second)]
        table = [line.split("x = ")[1] for line in render_table(grid(rows)).splitlines() if "x = " in line]
        assert table == [f"[{z}, 2]" for z in zeros]
        assert [r["allocation"] for r in parse_csv(render_csv(grid(rows)))] == [f"{z};2" for z in zeros]
    # a run of rows with equal bits shares one text; the next row differs only in its zero
    shared = (0.0, 2.0)
    rows = [row(0.2, shared), row(0.4, shared), row(0.6, (-0.0, 2.0)), row(0.8, shared)]
    table = [line.split("x = ")[1] for line in render_table(grid(rows)).splitlines() if "x = " in line]
    assert table == ["[0, 2]", "[0, 2]", "[-0, 2]", "[0, 2]"]
    assert [r["allocation"] for r in parse_csv(render_csv(grid(rows)))] == ["0;2", "0;2", "-0;2", "0;2"]


# zeros, subnormals, and each side of where .6g and .12g switch to exponent form
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]
for _base in (1e-5, 1e-4, 1e6, 1e12, 1e16):
    _EDGE_FLOATS += [_base, -_base, math.nextafter(_base, 0.0), math.nextafter(_base, math.inf),
                     _base * (1 - 5e-7), _base * (1 - 5e-13)]
_floats = st.sampled_from(_EDGE_FLOATS) | st.floats()


# one allocation length per sweep, as a grid holds one (L, n) array
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.lists(_floats, min_size=n, max_size=n).map(tuple), _floats, _floats, st.integers(1, 3)),
    max_size=8))))
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
def test_table_and_csv_format_each_entry_as_the_referee(n_runs):
    n, runs = n_runs
    rows, table, cells = [], [], []
    for allocation, objective, threshold, repeat in runs:
        ok = objective >= threshold  # the grid decides it, as for every exact row
        for _ in range(repeat):  # a run of rows with equal bits, as exact sweeps repeat them
            lam = (len(rows) + 1) / 64
            rows.append((lam, allocation, objective, threshold))
            table += [f"lambda={lam:.12g} eta={lam:.12g}",
                      f"  exact   objective {objective:>10.6g}  threshold {threshold:.6g}"
                      f"  satisfied {'true' if ok else 'false'}  x = [{format_allocation(allocation, '.6g', ', ')}]"]
            cells.append(format_allocation(allocation, ".12g", ";"))
    sweep = exact_sweep(*(map(list, zip(*rows)) if rows else ([], [], [], [])), n)
    assert render_table(sweep) == "\n".join(table) + "\n"
    assert [r["allocation"] for r in parse_csv(render_csv(sweep))] == cells


@st.composite
def sweeps(draw):
    """Grids of 1-5 levels and 0-3 seeds, with exact rows and published
    objectives on or off, whose allocations repeat rows of a small pool of
    edge floats: -0.0, subnormals and runs of bit-equal rows."""
    n_levels, n_seeds, n = draw(st.integers(1, 5)), draw(st.integers(0, 3)), draw(st.integers(1, 4))
    exact = draw(st.booleans()) if n_seeds else True  # every sweep has rows
    pool = draw(st.lists(st.lists(st.sampled_from([0.0, -0.0]) | _floats, min_size=n, max_size=n),
                         min_size=1, max_size=3))
    # the first row again with the sign of each zero flipped: equal, but not bit-equal
    pool.append([-v if v == 0.0 else v for v in pool[0]])

    def column(size, values=_floats):
        return draw(st.lists(values, min_size=size, max_size=size))

    def allocations(size):
        return np.array([pool[i] for i in column(size, st.integers(0, len(pool) - 1))], dtype=float).reshape(size, n)

    levels = sorted(draw(st.sets(st.floats(0.001, 0.999), min_size=n_levels, max_size=n_levels)))
    published = draw(st.booleans())
    return Sweep(levels, column(n_levels, st.floats(0.001, 0.999)), column(n_levels), column(n_levels),
                 allocations(n_levels) if exact else None, column(n_levels),
                 column(n_levels, _floats.filter(bool)) if published else None,
                 sorted(column(n_seeds, st.integers(0, 2**32))), column(n_levels * n_seeds),
                 allocations(n_levels * n_seeds), column(n_levels * n_seeds))


@given(sweeps())
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
def test_every_format_writes_the_grid_as_the_row_referee(sweep):
    rows = sweep_rows(sweep)
    meta = {"instance": "bundled:paper_table1", "solver": "exact+ica"}
    assert render_table(sweep) == render_table_rows(rows)
    assert render_csv(sweep) == render_csv_rows(rows)
    assert render_json(sweep, meta) == render_json_rows(rows, meta)


def test_json_format(capsys):
    code, out, _ = run_cli(["solve", "--levels", "0.4", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["instance"] == "bundled:paper_table1"
    assert doc["rows"][0]["allocation"] == [20.0, 0.0, 60.0, 60.0, 60.0]


def test_ica_tuning_flags(capsys):
    code, out, _ = run_cli(
        ["solve", "--levels", "0.4", "--solver", "ica", "--seeds", "1",
         "--iters", "5", "--countries", "30", "--imperialists", "3",
         "--revolution", "0.4", "--epsilon", "0.02", "--eq-factor", "2.0",
         "--format", "csv"], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["objective"]) <= float(row["oracle_objective"]) + 1e-9


def test_every_config_field_has_one_flag_with_the_config_default(capsys):
    fields = [f.name for f in dataclasses.fields(ica.IcaConfig)]
    # a field added without a flag fails here
    assert list(cli._FLAGS) == [f for f in fields if f != "enforce_threshold"]
    assert len(set(cli._FLAGS.values())) == len(cli._FLAGS)
    args = cli.build_parser().parse_args(["solve"])
    assert {f: getattr(args, f) for f in fields} == dataclasses.asdict(ica.IcaConfig())
    assert cli._config(args) == ica.IcaConfig()
    code, out, err = run_cli(["solve", "--help"], capsys)
    assert (code, err) == (0, "")
    assert all(f"{flag} " in out for flag in [*cli._FLAGS.values(), "--enforce-threshold"])
    # the README's knob list is the flags, in _FLAGS order, then --enforce-threshold
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    knobs = re.search(r"^ICA knobs.*?\.\s", readme, re.S | re.M).group()
    assert re.findall(r"`(--[a-z-]+)`", knobs) == [*cli._FLAGS.values(), "--enforce-threshold"]


def test_readme_csv_schema_lists_the_columns():
    # the first cell of each row of the README's CSV schema table names its columns, in order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.search(r"^### CSV schema$.*?^(\|.*?)^$", readme, re.S | re.M).group(1)
    cells = [line.split("|")[1] for line in table.splitlines()]
    assert tuple(re.findall(r"`(\w+)`", "".join(cells))) == CSV_COLUMNS


def test_rows_come_by_level_then_seed(capsys):
    code, out, _ = run_cli(
        ["solve", "--solver", "ica", "--seeds", "5,1,3,1", "--levels", "0.6,0.2", "--format", "csv"], capsys)
    assert code == 0
    assert [(r["lambda"], r["seed"]) for r in parse_csv(out)] == [
        (lam, seed) for lam in ("0.2", "0.6") for seed in ("1", "1", "3", "5")]


def test_seed_range_forms(capsys):
    code, out, _ = run_cli(
        ["solve", "--levels", "0.4", "--solver", "ica", "--seeds", "2,5..7", "--format", "csv"],
        capsys)
    assert code == 0
    assert [r["seed"] for r in parse_csv(out)] == ["2", "5", "6", "7"]
    code, _, _ = run_cli(["solve", "--seeds", "bogus"], capsys)
    assert code == 2


def test_a_level_checked_alone_sizes_the_draw_buffer_for_the_whole_sweep(tmp_path, capsys):
    # 2 levels x 100 seeds fill one 128-row block; lambda = 0.5 alone would need only 100 rows,
    # but the sweep, refused there before reformulate fails at 0.99, names the sweep's buffer
    data = json.loads(PAPER_JSON)
    data["assets"][2]["r2"] = 1e308
    data["total_fund"] = 1e-4
    data["upper_bounds"] = [2e-4] * 5
    src = tmp_path / "inst.json"
    src.write_text(json.dumps(data))
    code, out, err = run_cli(["solve", "--instance", str(src), "--solver", "ica", "--seeds", "1..100",
                              "--countries", "1000000000", "--levels", "0.5,0.99"], capsys)
    assert (code, out, err) == (2, "", "error: n_countries: 1000000000 countries of 5 assets need a "
                                       "10490.4 GiB draw buffer, above the 2 GiB limit\n")


@pytest.mark.parametrize("flags, named", [
    (["--countries", "5", "--imperialists", "10"], "--countries"),
    (["--countries", "1"], "--countries"),
    (["--imperialists", "0"], "--imperialists"),
    (["--epsilon", "0.5"], "--epsilon"),
    (["--epsilon", "nan"], "--epsilon"),
    (["--revolution", "2"], "--revolution"),
    (["--revolution", "-0.1"], "--revolution"),
    (["--iters", "-1"], "--iters"),
    (["--eq-factor", "0"], "--eq-factor"),
    (["--eq-factor", "nan"], "--eq-factor"),
    (["--eq-factor", "inf"], "--eq-factor"),
    # refused before the 328 GiB draw buffer of 4 levels x 1 seed is allocated
    (["--countries", "1000000000"], "n_countries"),
    # the eq_factor rule is checked before every other config rule
    (["--eq-factor", "0", "--countries", "1"], "--eq-factor"),
    # a count past the float range is refused before any float arithmetic on it
    (["--countries", "1" + "0" * 400], "n_countries"),
])
def test_invalid_ica_flag_exits_2_with_one_line(flags, named, capsys):
    assert_one_line_error(*run_cli(["solve", "--solver", "ica", *flags], capsys), named)


@pytest.mark.parametrize("argv, named", [
    (["solve", "--levels", ","], "--levels"),
    (["solve", "--levels", ",", "--format", "json"], "--levels"),
    (["solve", "--levels", "nan"], "--levels"),
    (["solve", "--levels", "inf"], "--levels"),
    (["solve", "--levels=-inf"], "--levels"),
    (["solve", "--levels", "0.5,1"], "--levels"),
    # 1 - lambda rounds to 1, where the normal quantile is undefined
    (["solve", "--levels", "1e-17"], "--levels"),
    (["solve", "--lambda", "1e-17", "--eta", "0.5"], "--lambda"),
    (["solve", "--lambda", "nan", "--eta", "0.5"], "--lambda"),
    (["solve", "--lambda", "inf", "--eta", "0.5"], "--lambda"),
    (["solve", "--lambda", "0.5", "--eta", "nan"], "--eta"),
    (["solve", "--lambda", "0.5", "--eta=-inf"], "--eta"),
    (["solve", "--out", "{tmp}"], "--out"),
    (["solve", "--out", "{tmp}/missing/out.txt"], "--out"),
    (["reproduce-paper", "--seeds", "1", "--out", "{tmp}"], "--out"),
    (["reproduce-paper", "--seeds", "1", "--out", "{tmp}/missing/out.csv"], "--out"),
    # values argparse itself rejects
    (["solve", "--levels", "abc"], "--levels"),
    (["solve", "--seeds", "bogus"], "--seeds"),
    (["solve", "--iters", "x"], "--iters"),
    (["solve", "--lambda", "x", "--eta", "0.5"], "--lambda"),
    (["solve", "--format", "xml"], "--format"),
    (["solve", "--solver", "simplex"], "--solver"),
    (["reproduce-paper", "--seeds", "3..1"], "--seeds"),
    # malformed instance files (BAD_INSTANCES), named by their path
    (["solve", "--instance", "{tmp}"], "{tmp}"),
    (["solve", "--instance", "{tmp}/malformed.json"], "{tmp}/malformed.json:1:2"),
    (["solve", "--instance", "{tmp}/not_utf8.json"], "{tmp}/not_utf8.json"),
    (["solve", "--instance", "{tmp}/huge_fund.json"], "{tmp}/huge_fund.json"),
    (["solve", "--instance", "{tmp}/huge_bound.json"], "{tmp}/huge_bound.json"),
    (["solve", "--instance", "{tmp}/long_int.json"], "{tmp}/long_int.json"),
    # instances that load but whose coefficients overflow, named by asset and level
    (["solve", "--instance", "{tmp}/huge_returns.json"], "assets[0]"),
    (["solve", "--instance", "{tmp}/huge_r2.json"], "assets[2]"),
    # numpy's generators take no negative seed
    (["solve", "--solver", "ica", "--seeds", "-3"], "--seeds"),
    (["reproduce-paper", "--seeds=-2..1"], "--seeds"),
    (["solve", "--instance", "{tmp}/deep.json"], "{tmp}/deep.json"),
    (["solve", "--instance", "{tmp}/not_object.json"], "{tmp}/not_object.json"),
    (["solve", "--instance", "{tmp}/no_assets.json"], "{tmp}/no_assets.json"),
    (["solve", "--instance", "{tmp}/bounds_not_array.json"], "{tmp}/bounds_not_array.json"),
])
# a numpy warning would print lines of its own before the error line
@pytest.mark.filterwarnings("error")
def test_invalid_level_or_out_flag_exits_2_with_one_line(argv, named, tmp_path, capsys):
    for name, content in BAD_INSTANCES.items():
        (tmp_path / name).write_bytes(content)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert_one_line_error(*run_cli(argv, capsys), named.format(tmp=tmp_path))


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_a_report_stdout_cannot_take_exits_2_with_one_line(failing, capsys, monkeypatch, tmp_path):
    class FullStdout:
        def fileno(self):
            return fd

        def write(self, text):
            self.fail("write")
            return len(text)

        def flush(self):
            self.fail("flush")

        def fail(self, call):
            if call == failing:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", FullStdout())
        code, out, err = run_cli(["solve"], capsys)
        # the failing stream's descriptor now leads to the null device
        os.write(fd, b"left buffered")
    finally:
        os.close(fd)
    assert_one_line_error(code, out, err, "stdout")
    assert err == "error: stdout: cannot write the report: No space left on device\n"
    assert (tmp_path / "stdout").read_bytes() == b""


@pytest.mark.parametrize("argv", [["solve"], ["reproduce-paper", "--format", "csv"]])
@pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
def test_a_report_a_real_stdout_cannot_take_exits_2_with_one_line(argv, sink):
    # the interpreter flushes stdout again at exit: a byte a failed write left buffered would fail
    # there too, print "Exception ignored" and exit 120; the table is buffered whole, the CSV is not
    if sink == "closed pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
    else:
        stdout = os.open(sink, os.O_WRONLY)
    try:
        done = run_cli_process(argv, stdout=stdout)
    finally:
        os.close(stdout)
    reason = os.strerror(errno.EPIPE if sink == "closed pipe" else errno.ENOSPC)
    assert (done.returncode, done.stderr) == (2, f"error: stdout: cannot write the report: {reason}\n")


def run_cli_process(argv, **kwargs):
    src = Path(fuzzfolio.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as by default
    return subprocess.run([sys.executable, "-m", "fuzzfolio.cli", *argv], env=env, stderr=subprocess.PIPE,
                          text=True, timeout=60, **kwargs)


def assert_one_line_error(code, out, err, named):
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {named}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_a_non_finite_level_is_named_by_its_token(capsys):
    # a NaN level sorted by its memory address among the others, so the level
    # the error named changed from run to run
    argv = ["solve", "--levels", "2,nan,0.5,-1"]
    line = "error: --levels: level 'nan' is not finite\n"
    for _ in range(12):
        assert run_cli(argv, capsys) == (2, "", line)
    for _ in range(2):
        done = run_cli_process(argv, stdout=subprocess.PIPE)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", line)


def test_seed_list_is_bounded(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(["solve", "--seeds", "1..1000000000000"], capsys)
    assert code == 2
    assert f"longer than {MAX_SEEDS} seeds" in err
    assert time.perf_counter() - start < 5.0
    assert len(_parse_seeds(f"1..{MAX_SEEDS}")) == MAX_SEEDS
    for text in (f"0,1..{MAX_SEEDS}", f"1..{MAX_SEEDS},0", ",".join(["7"] * (MAX_SEEDS + 1))):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_seeds(text)


# --- reproduce-paper ---------------------------------------------------------------

def test_reproduce_rows_and_published_comparison(capsys):
    code, out, _ = run_cli(["reproduce-paper", "--seeds", "3", "--format", "csv"], capsys)
    assert code == 0
    rows = parse_csv(out)
    exact = [r for r in rows if r["solver"] == "exact"]
    heur = [r for r in rows if r["solver"] == "ica"]
    assert len(exact) == 4 and len(heur) == 4
    expected_alloc = {
        "0.1": "60;0;20;60;60",
        "0.4": "20;0;60;60;60",
        "0.7": "20;0;60;60;60",
        "0.9": "0;60;60;20;60",
    }
    expected_flags = {"0.1": "true", "0.4": "true", "0.7": "false", "0.9": "false"}
    for r in exact:
        assert r["allocation"] == expected_alloc[r["lambda"]]
        assert r["threshold_ok"] == expected_flags[r["lambda"]]
        published = float(r["published_objective"])
        assert abs(float(r["objective"]) - published) / published < 0.005
        assert abs(float(r["published_gap"])) < 0.005


def test_reproduce_rows_equal_solve_rows(capsys):
    code, out, _ = run_cli(["reproduce-paper", "--seeds", "1..3", "--format", "csv"], capsys)
    assert code == 0
    rows = parse_csv(out)
    code, out, _ = run_cli(["solve", "--solver", "ica", "--seeds", "1..3", "--format", "csv"], capsys)
    assert code == 0
    assert [r for r in rows if r["solver"] == "ica"] == parse_csv(out)
    code, out, _ = run_cli(["solve", "--format", "csv"], capsys)
    assert code == 0
    exact = [r for r in rows if r["solver"] == "exact"]
    unpublished = [{**r, "published_objective": "", "published_gap": ""} for r in exact]
    assert unpublished == parse_csv(out)
    assert all(r["published_objective"] for r in exact)


def test_reproduce_table_shows_deviation(capsys):
    code, out, _ = run_cli(["reproduce-paper", "--seeds", "1"], capsys)
    assert code == 0
    assert "published" in out
    assert "deviation" in out


def test_output_file_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, out, _ = run_cli(
            ["solve", "--levels", "0.1,0.9", "--solver", "ica", "--seeds", "1..2",
             "--format", "csv", "--out", str(path)], capsys)
        assert code == 0
        assert out == ""
    assert a.read_bytes() == b.read_bytes()


# --- the exit-code contract, fuzzed ---------------------------------------------------

def mostly(valid, garbage):
    """A flag value: a valid or boundary one three times in four, else garbage."""
    valid = valid if isinstance(valid, st.SearchStrategy) else st.sampled_from(valid)
    return st.integers(0, 3).flatmap(lambda k: valid if k else st.sampled_from(garbage))


LEVEL = mostly(st.sampled_from(["0.1", "0.5", "0.9", "0.9999999999999999", "1e-16", "5e-324"])
               | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(repr),
               ["0", "1", "-0.5", "1e-17", "nan", "inf", "-inf", "", "x"])
SEEDS = mostly(st.integers(0, 5).map(str)
               | st.tuples(st.integers(0, 3), st.integers(0, 2)).map(lambda ab: f"{ab[0]}..{ab[0] + ab[1]}")
               | st.sampled_from(["1,3", "2,2", "0"]),
               ["-1", "-2..1", "3..1", "", "..", "1..", "1...3", "1,,2", "x", "1e2"])
# the ICA sizes stay small: tens of countries, a few iterations and seeds
SOLVE_FLAGS = {
    "--instance": mostly(["{tmp}/inst.json", "paper_table1"], ["{tmp}", "{tmp}/missing.json", "nope"]),
    "--levels": st.lists(LEVEL, min_size=1, max_size=3).map(",".join),
    "--lambda": LEVEL,
    "--eta": LEVEL,
    "--solver": mostly(["ica", "ica", "exact"], ["simplex", ""]),
    "--seeds": SEEDS,
    "--iters": mostly(["0", "1", "3"], ["-1", "x", "2.5"]),
    # each valid count exceeds the default 10 imperialists and every valid --imperialists value, so it reaches the search
    "--countries": mostly(["12", "13", "20", "30"], ["0", "-4", "x", "1" + "0" * 400]),
    "--imperialists": mostly(["1", "3", "11"], ["0", "-1", "x"]),
    "--revolution": mostly(["0", "0.2", "1"], ["-0.1", "2", "nan", "x"]),
    "--epsilon": mostly(["0.05", "1e-300", "0.09999999999999999"], ["0", "0.1", "nan", "inf", "x"]),
    "--eq-factor": mostly(["0.5", "5e-324", "1e308"], ["0", "-1", "inf", "nan", "x"]),
    "--enforce-threshold": st.none(),
    "--out": mostly(["{tmp}/out.txt"], ["{tmp}", "{tmp}/missing/out.txt"]),
    "--format": mostly(["csv", "json", "table"], ["xml"]),
}
REPRODUCE_FLAGS = {"--seeds": SEEDS, "--out": SOLVE_FLAGS["--out"], "--format": SOLVE_FLAGS["--format"],
                   "--bogus": st.just("1")}  # the last is no flag at all


def _paths(node, prefix=()):
    # every key or index into a JSON document, parents before children
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PAPER_PATHS = list(_paths(json.loads(PAPER_JSON)))


@st.composite
def instance_texts(draw):
    """paper_table1 with one field dropped, retyped, scaled or set, or a
    nine-asset instance whose fund sits within an ulp of its bounds' sum."""
    data = json.loads(PAPER_JSON)
    kind = draw(st.sampled_from(["keep", "drop", "retype", "scale", "set", "borderline", "borderline"]))
    if kind == "borderline":
        data = borderline_instance()
        data["upper_bounds"] = draw(st.lists(st.integers(1, 999).map(lambda k: k / 10), min_size=9, max_size=9))
        fund = draw(st.sampled_from([sum, math.fsum, lambda u: float(np.sum(u))]))(data["upper_bounds"])
        data["total_fund"] = float(np.nextafter(fund, draw(st.sampled_from([-np.inf, fund, np.inf]))))
    elif kind != "keep":
        *parent, key = draw(st.sampled_from(PAPER_PATHS))
        node = data
        for k in parent:
            node = node[k]
        if kind == "drop":
            del node[key]
        elif kind == "retype":
            node[key] = draw(st.sampled_from(["1", None, True, [], {}, [1.0]]))
        elif isinstance(node[key], (int, float)):
            factor = draw(st.sampled_from([1e308, -1e308, 1e154, 1e-308, 5e-324, -1.0, 0.0]))
            node[key] = node[key] * factor if kind == "scale" else factor
    return json.dumps(data)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["solve", "solve", "solve", "reproduce-paper"]))
    table = SOLVE_FLAGS if command == "solve" else REPRODUCE_FLAGS
    # solve always reads an instance, names its solver (the search one time in two) and sets one knob
    # of the search, so that the values IcaConfig accepts reach the search; reproduce-paper's default
    # 20 seeds are pinned by the golden files
    knob = draw(st.sampled_from(sorted(cli._FLAGS.values())))
    first = ("--instance", "--solver", knob) if command == "solve" else ("--seeds",)
    argv = [command]
    for flag in first:
        argv += [flag, draw(table[flag])]
    for flag in draw(st.lists(st.sampled_from(sorted(set(table) - set(first))), unique=True, max_size=4)):
        value = draw(table[flag])
        if value is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


# one sure case of each failing exit code besides 2
OVER_FUND = json.dumps({**borderline_instance(), "total_fund": float(np.nextafter(sum(BORDER_BOUNDS), np.inf))})


@given(argv=command_lines(), instance=instance_texts())
@example(argv=["solve", "--instance", "{tmp}/inst.json"], instance=OVER_FUND)
@example(argv=["solve", "--instance", "{tmp}/inst.json", "--enforce-threshold"], instance=PAPER_JSON)
# and a count past the float range reaching the ICA search, which the draws above seldom combine
@example(argv=["solve", "--instance", "paper_table1", "--solver", "ica", "--countries", "1" + "0" * 400],
         instance=PAPER_JSON)
@settings(max_examples=250, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_every_command_line_keeps_the_exit_code_contract(argv, instance, tmp_path, capsys):
    (tmp_path / "inst.json").write_text(instance)
    # a numpy warning would print lines of its own; the filter is set here, not by a
    # mark, so that it does not reach hypothesis's own failure report
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli([arg.format(tmp=tmp_path) for arg in argv], capsys)
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    if code in (2, 3):
        assert out == ""
