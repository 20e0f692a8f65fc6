"""Sweep rows and their CSV / JSON / table renderings.

One row per (level, solver, seed); the human table is derived from the
same rows, aggregating ICA seeds per level.  Output is a pure function
of the rows, so identical command lines yield identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import struct
from typing import NamedTuple

__all__ = ["SweepRow", "CSV_COLUMNS", "render_csv", "render_json", "render_table"]

# (CSV column and JSON key, SweepRow attribute): every column shows the
# attribute of its name but "lambda", a Python keyword, which shows lam
_COLUMNS = (("lambda", "lam"),) + tuple((name, name) for name in (
    "eta",
    "solver",
    "seed",
    "status",
    "objective",
    "oracle_objective",
    "rel_gap",
    "threshold",
    "threshold_ok",
    "budget_residual",
    "published_objective",
    "published_gap",
    "allocation",
))
CSV_COLUMNS = tuple(column for column, _ in _COLUMNS)


class SweepRow(NamedTuple):
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
    allocation: tuple[float, ...]
    published_objective: float | None = None
    published_gap: float | None = None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _memo_allocation(spec: str, sep: str):
    """Formats each distinct allocation once, for the repeated rows of a frontier.
    The key is the allocation's bits: (0.0,) == (-0.0,), yet they print 0 and -0."""
    memo: dict[bytes, str] = {}
    last = [None, ""]  # the previous allocation and its text: a run of equal rows shares one tuple

    def text(allocation: tuple[float, ...]) -> str:
        if allocation is not last[0]:
            key = struct.pack(f"{len(allocation)}d", *allocation)
            if key not in memo:
                memo[key] = sep.join(format(v, spec) for v in allocation)
            last[:] = allocation, memo[key]
        return last[1]

    return text


def render_csv(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    allocation = _memo_allocation(".12g", ";")
    for row in rows:
        # allocation is the last column
        writer.writerow([*(_fmt(getattr(row, attr)) for _, attr in _COLUMNS[:-1]), allocation(row.allocation)])
    return buf.getvalue()


def render_json(rows: list[SweepRow], meta: dict) -> str:
    # json writes the allocation tuple as an array
    records = [{column: getattr(row, attr) for column, attr in _COLUMNS} for row in rows]
    return json.dumps({**meta, "rows": records}, indent=2) + "\n"


def render_table(rows: list[SweepRow]) -> str:
    """Per-level summary: the exact row as is, ICA seeds aggregated."""
    groups: dict[tuple[float, float], list[SweepRow]] = {}
    for r in rows:
        groups.setdefault((r.lam, r.eta), []).append(r)
    allocation = _memo_allocation(".6g", ", ")
    lines = []
    for lam, eta in sorted(groups):
        lines.append(f"lambda={_fmt(lam)} eta={_fmt(eta)}")
        group = groups[lam, eta]
        exact = [r for r in group if r.solver == "exact"]
        ica = [r for r in group if r.solver == "ica"]
        for r in exact:
            lines.append(
                f"  exact   objective {r.objective:>10.6g}  threshold {r.threshold:.6g}"
                f"  satisfied {_fmt(r.threshold_ok)}  x = [{allocation(r.allocation)}]"
            )
            if r.published_objective is not None:
                lines.append(
                    f"          published {r.published_objective:>10.6g}"
                    f"  deviation {r.published_gap:.3%}"
                )
        if ica:
            objs = [r.objective for r in ica]
            best = max(ica, key=lambda r: r.objective)
            lines.append(
                f"  ica     seeds {len(ica):>3}  best {max(objs):.6g}  median {statistics.median(objs):.6g}"
                f"  worst {min(objs):.6g}  gap(best) {best.rel_gap:.3%}"
            )
            lines.append(
                f"          best x = [{allocation(best.allocation)}] (seed {best.seed})"
            )
    return "\n".join(lines) + "\n"
