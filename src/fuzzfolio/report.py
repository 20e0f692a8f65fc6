"""Sweep grids and their CSV / JSON / table renderings.

A sweep over L levels is one grid of columns: per level an optional exact
row, then one ICA row per seed.  Every format writes straight from the
columns: the CSV and JSON one row per (level, solver, seed), in that order;
the table each level's exact row, and its ICA seeds aggregated.  Output is
a pure function of the grid, so identical command lines yield identical bytes.
"""

from __future__ import annotations

import json
import statistics
from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["Sweep", "CSV_COLUMNS", "render_csv", "render_json", "render_table"]


class Sweep(NamedTuple):
    """A sweep over L levels as columns.  Each level has an exact row when
    exact_x is given, then one ICA row per seed in seeds' order; the ICA
    columns hold L * S entries, level by level."""

    lam: Sequence[float]
    eta: Sequence[float]
    threshold: Sequence[float]  # each level's return floor
    oracle: Sequence[float]  # each level's exact optimum, the exact row's objective
    exact_x: np.ndarray | None  # (L, n) exact allocations, or None for no exact rows
    exact_budget: Sequence[float]  # sum(x) - total_fund of each exact allocation
    published: Sequence[float] | None  # each level's published objective, for its exact row
    seeds: Sequence[int]
    ica_objective: Sequence[float]
    ica_x: np.ndarray  # (L * S, n) ICA allocations
    ica_budget: Sequence[float]


# the CSV columns and the JSON keys of a row, in order
CSV_COLUMNS = ("lambda", "eta", "solver", "seed", "status", "objective", "oracle_objective", "rel_gap", "threshold",
               "threshold_ok", "budget_residual", "published_objective", "published_gap", "allocation")


def _fmt(value) -> str:
    if isinstance(value, float):  # most cells; None and a bool are no float
        return format(value, ".12g")
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _gap(oracle: float, objective: float) -> float:
    # exactly 0.0 for the exact row, whose objective is the finite oracle
    return (oracle - objective) / abs(oracle) if oracle != 0.0 else 0.0


def _rows(sweep: Sweep, exact_cells, ica_cells):
    """The grid's rows in row order, as tuples in CSV_COLUMNS order, with each exact and ICA row's
    allocation cell taken in turn from exact_cells and ica_cells: the format's own form.  Each
    row alone decides whether its objective clears its level's return floor."""
    n_seeds = len(sweep.seeds)
    for i, (lam, eta, threshold, oracle) in enumerate(zip(sweep.lam, sweep.eta, sweep.threshold, sweep.oracle)):
        if sweep.exact_x is not None:
            pub = None if sweep.published is None else sweep.published[i]
            ok = oracle >= threshold
            yield (lam, eta, "exact", None, "optimal" if ok else "threshold_infeasible", oracle, oracle,
                   _gap(oracle, oracle), threshold, ok, sweep.exact_budget[i], pub,
                   None if pub is None else (oracle - pub) / pub, exact_cells[i])
        for j, seed in enumerate(sweep.seeds, i * n_seeds):
            objective = sweep.ica_objective[j]
            yield (lam, eta, "ica", seed, "heuristic", objective, oracle, _gap(oracle, objective), threshold,
                   objective >= threshold, sweep.ica_budget[j], None, None, ica_cells[j])


def _allocation_texts(x: np.ndarray, spec: str, sep: str) -> list[str]:
    """Each row of the (R, n) allocations x as text, with one ``%`` operation
    per run of rows with equal bits: so 0.0 and -0.0, which compare equal,
    print 0 and -0."""
    line = sep.join([spec] * x.shape[1])
    new = np.ones(len(x), dtype=bool)
    new[1:] = (x[1:].view("i8") != x[:-1].view("i8")).any(axis=1)
    texts = [line % tuple(row) for row in x[new].tolist()]
    return [texts[k] for k in (np.cumsum(new) - 1).tolist()]


def render_csv(sweep: Sweep) -> str:
    # no cell holds a comma, quote, CR or LF and no line is one empty cell (README, CSV schema): none needs quoting
    exact = None if sweep.exact_x is None else _allocation_texts(sweep.exact_x, "%.12g", ";")
    rows = _rows(sweep, exact, _allocation_texts(sweep.ica_x, "%.12g", ";"))
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join([*map(_fmt, row[:-1]), row[-1]]) for row in rows]
    return "\n".join(lines) + "\n"


def render_json(sweep: Sweep, meta: dict) -> str:
    # json writes each allocation list as an array
    exact = None if sweep.exact_x is None else sweep.exact_x.tolist()
    records = [dict(zip(CSV_COLUMNS, row)) for row in _rows(sweep, exact, sweep.ica_x.tolist())]
    return json.dumps({**meta, "rows": records}, indent=2) + "\n"


_HEADER = "lambda=%.12g eta=%.12g"
_HEADER_EXACT = _HEADER + "\n  exact   objective %10.6g  threshold %.6g  satisfied %s  x = [%s]"


def render_table(sweep: Sweep) -> str:
    """Per level: the header, riding on the exact line (one format for both),
    the published comparison, and the ICA seeds aggregated."""
    if sweep.exact_x is None:
        lines = list(map(_HEADER.__mod__, zip(sweep.lam, sweep.eta)))
    else:
        ok = ["true" if o >= t else "false" for o, t in zip(sweep.oracle, sweep.threshold)]
        lines = list(map(_HEADER_EXACT.__mod__, zip(sweep.lam, sweep.eta, sweep.oracle, sweep.threshold, ok,
                                                     _allocation_texts(sweep.exact_x, "%.6g", ", "))))
        if sweep.published is not None:
            lines = [f"{line}\n          published {p:>10.6g}  deviation {(o - p) / p:.3%}"
                     for line, o, p in zip(lines, sweep.oracle, sweep.published)]
    if sweep.seeds:
        lines = [f"{line}\n{ica}" for line, ica in zip(lines, _ica_lines(sweep))]
    # the closing newline is joined on, not added to a copy of the whole text;
    # a grid with no lines is one empty line
    lines.append("")
    return "\n".join(lines) or "\n"


def _ica_lines(sweep: Sweep) -> list[str]:
    """Each level's ICA seeds as two lines: best / median / worst objective,
    and the allocation of the first best seed."""
    n_seeds = len(sweep.seeds)
    objs = [sweep.ica_objective[i:i + n_seeds] for i in range(0, len(sweep.ica_objective), n_seeds)]
    best = [max(range(n_seeds), key=level.__getitem__) for level in objs]
    texts = _allocation_texts(sweep.ica_x[np.arange(0, len(sweep.ica_x), n_seeds) + best], "%.6g", ", ")
    return [f"  ica     seeds {n_seeds:>3}  best {max(level):.6g}  median {statistics.median(level):.6g}"
            f"  worst {min(level):.6g}  gap(best) {_gap(oracle, level[b]):.3%}\n"
            f"          best x = [{text}] (seed {sweep.seeds[b]})"
            for level, b, oracle, text in zip(objs, best, sweep.oracle, texts)]
