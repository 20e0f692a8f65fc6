"""Sweep rows and their CSV / JSON / table renderings.

One row per (level, solver, seed); the human table is derived from the
same rows, aggregating ICA seeds per level.  Output is a pure function
of the rows, so identical command lines yield identical bytes.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import statistics
from typing import NamedTuple

__all__ = ["SweepRow", "CSV_COLUMNS", "render_csv", "render_json", "render_table"]


class SweepRow(NamedTuple):
    """One report row; its fields, in order, are the CSV columns and the JSON keys."""

    lam: float
    eta: float
    solver: str
    seed: int | None
    status: str
    objective: float
    oracle_objective: float
    rel_gap: float
    threshold: float
    threshold_ok: bool
    budget_residual: float
    published_objective: float | None
    published_gap: float | None
    allocation: tuple[float, ...]


# the fields' names, but lam's column is "lambda", a Python keyword
CSV_COLUMNS = ("lambda", *SweepRow._fields[1:])


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _memo_allocation(spec: str, sep: str):
    """Formats a run of rows sharing one allocation tuple, as the sweep builds
    them, once.  Each distinct tuple is formatted from its own floats, so
    (0.0,) and (-0.0,), which compare equal, print 0 and -0."""
    last = [None, ""]  # the previous allocation and its text

    def text(allocation: tuple[float, ...]) -> str:
        if allocation is not last[0]:
            last[:] = allocation, sep.join(format(v, spec) for v in allocation)
        return last[1]

    return text


def render_csv(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    allocation = _memo_allocation(".12g", ";")
    for row in rows:
        # allocation is the last column
        writer.writerow([*map(_fmt, row[:-1]), allocation(row.allocation)])
    return buf.getvalue()


def render_json(rows: list[SweepRow], meta: dict) -> str:
    # json writes the allocation tuple as an array
    records = [dict(zip(CSV_COLUMNS, row)) for row in rows]
    return json.dumps({**meta, "rows": records}, indent=2) + "\n"


def render_table(rows: list[SweepRow]) -> str:
    """Per-level summary: the exact row as is, ICA seeds aggregated.  The
    rows come in sweep order, so each level's rows are consecutive."""
    allocation = _memo_allocation(".6g", ", ")
    lines = []
    for (lam, eta), group in itertools.groupby(rows, lambda r: (r.lam, r.eta)):
        lines.append(f"lambda={_fmt(lam)} eta={_fmt(eta)}")
        group = list(group)
        exact = [r for r in group if r.solver == "exact"]
        ica = [r for r in group if r.solver == "ica"]
        for r in exact:
            lines.append(
                f"  exact   objective {r.objective:>10.6g}  threshold {r.threshold:.6g}"
                f"  satisfied {_fmt(r.threshold_ok)}  x = [{allocation(r.allocation)}]"
            )
            if r.published_objective is not None:
                lines.append(f"          published {r.published_objective:>10.6g}  deviation {r.published_gap:.3%}")
        if ica:
            objs = [r.objective for r in ica]
            best = max(ica, key=lambda r: r.objective)
            lines.append(
                f"  ica     seeds {len(ica):>3}  best {max(objs):.6g}  median {statistics.median(objs):.6g}"
                f"  worst {min(objs):.6g}  gap(best) {best.rel_gap:.3%}"
            )
            lines.append(f"          best x = [{allocation(best.allocation)}] (seed {best.seed})")
    return "\n".join(lines) + "\n"
