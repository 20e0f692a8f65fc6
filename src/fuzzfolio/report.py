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
import operator
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
    them, once, with one ``%`` operation.  Each distinct tuple is formatted
    from its own floats, so (0.0,) and (-0.0,), which compare equal, print 0 and -0."""
    last = [None, ""]  # the previous allocation and its text

    def text(allocation: tuple[float, ...]) -> str:
        if allocation is not last[0]:
            last[:] = allocation, sep.join([spec] * len(allocation)) % allocation
        return last[1]

    return text


def render_csv(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    allocation = _memo_allocation("%.12g", ";")
    for row in rows:
        # allocation is the last column
        writer.writerow([*map(_fmt, row[:-1]), allocation(row.allocation)])
    return buf.getvalue()


def render_json(rows: list[SweepRow], meta: dict) -> str:
    # json writes the allocation tuple as an array
    records = [dict(zip(CSV_COLUMNS, row)) for row in rows]
    return json.dumps({**meta, "rows": records}, indent=2) + "\n"


_HEADER = "lambda=%.12g eta=%.12g"
_EXACT = "  exact   objective %10.6g  threshold %.6g  satisfied %s  x = [%s]"
_HEADER_EXACT = _HEADER + "\n" + _EXACT
_LEVEL = operator.itemgetter(0, 1)  # (lam, eta)


def render_table(rows: list[SweepRow]) -> str:
    """Per-level summary: the exact row as is, ICA seeds aggregated.  The
    rows come in sweep order, so each level's rows are consecutive.  The
    level's header rides on its first exact line: one format for both."""
    allocation = _memo_allocation("%.6g", ", ")
    lines = []
    for level, group in itertools.groupby(rows, _LEVEL):
        # the header's (lam, eta) until the level's first exact line carries it
        exact, head, ica = _HEADER_EXACT, level, []
        for r in group:
            if r.solver == "ica":
                ica.append(r)
            elif r.solver == "exact":
                ok = "true" if r.threshold_ok else "false"
                lines.append(exact % (*head, r.objective, r.threshold, ok, allocation(r.allocation)))
                exact, head = _EXACT, ()
                if r.published_objective is not None:
                    lines.append(f"          published {r.published_objective:>10.6g}  deviation {r.published_gap:.3%}")
        if head:  # no exact row: the header stands alone
            lines.append(_HEADER % head)
        if ica:
            objs = [r.objective for r in ica]
            best = max(ica, key=lambda r: r.objective)
            lines.append(
                f"  ica     seeds {len(ica):>3}  best {max(objs):.6g}  median {statistics.median(objs):.6g}"
                f"  worst {min(objs):.6g}  gap(best) {best.rel_gap:.3%}"
            )
            lines.append(f"          best x = [{allocation(best.allocation)}] (seed {best.seed})")
    return "\n".join(lines) + "\n"
