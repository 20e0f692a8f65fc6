"""Sweep rows and their CSV / JSON / table renderings.

One row per (level, solver, seed); the human table is derived from the
same rows, aggregating ICA seeds per level.  Output is a pure function
of the rows, so identical command lines yield identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SweepRow:
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
    if isinstance(value, tuple):
        return ";".join(map(_fmt, value))
    return str(value)


def render_csv(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(getattr(row, attr)) for _, attr in _COLUMNS])
    return buf.getvalue()


def render_json(rows: list[SweepRow], meta: dict) -> str:
    # json writes the allocation tuple as an array
    records = [{column: getattr(row, attr) for column, attr in _COLUMNS} for row in rows]
    return json.dumps({**meta, "rows": records}, indent=2) + "\n"


def _num(value: float) -> str:
    return format(value, ".6g")


def _pct(value: float) -> str:
    return format(value, ".3%")


def _memo_num():
    """_num with one format call per distinct value, for repeated entries."""
    memo: dict = {}

    def num(value: float) -> str:
        # -0.0 == 0.0 with the same hash, yet it formats as "-0"
        key = value if value else (value, math.copysign(1.0, value))
        text = memo.get(key)
        if text is None:
            text = memo[key] = _num(value)
        return text

    return num


def render_table(rows: list[SweepRow]) -> str:
    """Per-level summary: the exact row as is, ICA seeds aggregated."""
    groups: dict[tuple[float, float], list[SweepRow]] = {}
    for r in rows:
        groups.setdefault((r.lam, r.eta), []).append(r)
    num = _memo_num()
    lines = []
    for lam, eta in sorted(groups):
        lines.append(f"lambda={_fmt(lam)} eta={_fmt(eta)}")
        group = groups[lam, eta]
        exact = [r for r in group if r.solver == "exact"]
        ica = [r for r in group if r.solver == "ica"]
        for r in exact:
            lines.append(
                f"  exact   objective {num(r.objective):>10}  threshold {num(r.threshold)}"
                f"  satisfied {_fmt(r.threshold_ok)}  x = [{', '.join(map(num, r.allocation))}]"
            )
            if r.published_objective is not None:
                lines.append(
                    f"          published {num(r.published_objective):>10}"
                    f"  deviation {_pct(r.published_gap)}"
                )
        if ica:
            objs = [r.objective for r in ica]
            best = max(ica, key=lambda r: r.objective)
            lines.append(
                f"  ica     seeds {len(ica):>3}  best {num(max(objs))}  median {num(statistics.median(objs))}"
                f"  worst {num(min(objs))}  gap(best) {_pct(best.rel_gap)}"
            )
            lines.append(
                f"          best x = [{', '.join(map(num, best.allocation))}] (seed {best.seed})"
            )
    return "\n".join(lines) + "\n"
