"""Per-layer tracing from outside the program.

The tracer wraps public functions of the fuzzfolio modules and installs
each wrapper under every module attribute that names the original, so
that ``from .penalty import penalized_objective_batch`` style bindings
inside ``ica`` are traced as well.  A wrapper records one span per call
(name, start, end, parent span, invocation id), or, for functions called
about a million times per invocation, only an aggregated call count and
time.  Spans stay in memory and are summarised after each invocation.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

# (module, function, aggregated): aggregated functions get a call count and
# total time but no span per call
TRACED = (
    ("cli", "main", False),
    ("io", "load_instance", False),
    ("io", "bundled_instance", False),
    ("model", "reformulate", False),
    ("model", "residuals", False),
    ("model", "necessity_certificate", False),
    ("fuzzy", "normal_quantile", False),
    ("fuzzy", "observe", True),
    ("fuzzy", "weighted_sum", True),
    ("fuzzy", "necessity_geq_scalar", True),
    ("oracle", "solve_exact", False),
    ("penalty", "penalized_objective_batch", False),
    ("penalty", "repair", False),
    ("ica", "run", False),
    ("ica", "initialize", False),
    ("ica", "form_empires", False),
    ("ica", "assimilate", False),
    ("ica", "revolve", False),
    ("ica", "exchange", False),
    ("ica", "compete", False),
    ("report", "render_table", False),
    ("report", "render_csv", False),
)

# counters reported besides .calls/.s/.self_s of every traced function
EXTRA_COUNTERS = (
    "penalty.penalized_objective_batch.rows",
    "ica.improving_batch_ratio",
    "report.render_table.bytes",
    "report.render_csv.bytes",
    "model.necessity_certificate.samples",
)

PACKAGE = "fuzzfolio"

# span record fields
NAME, START, END, PARENT, RUN, CHILD = range(6)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for module, fn, _ in TRACED:
        names += [f"{module}.{fn}.calls", f"{module}.{fn}.s", f"{module}.{fn}.self_s"]
    return names + list(EXTRA_COUNTERS) + [
        "ica.run.self_share",
        "report.render_table.share",
        "trace.unattributed_s",
        "trace.overhead_frac",
    ]


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_frac", "_share", "_ratio", ".share")):
        return "ratio"
    return "count"


class Tracer:
    """Spans and counters for one traced invocation at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.aggregates = defaultdict(lambda: [0, 0.0])
        self.counters = defaultdict(float)
        self.run_id = 0
        self.best_cost = math.inf
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module, fn, aggregated in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], fn)
            wrapper = self._wrap(f"{module}.{fn}", original, aggregated)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, aggregated):
        clock = time.perf_counter
        spans, stack = self.spans, self.stack
        after = _AFTER.get(name)

        if aggregated:
            agg = self.aggregates[name]

            def aggregated_wrapper(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - start
                    agg[0] += 1
                    agg[1] += dt
                    if stack:
                        spans[stack[-1]][CHILD] += dt

            return aggregated_wrapper

        def span_wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.run_id, 0.0]
            stack.append(len(spans))
            spans.append(record)
            if name == "ica.run":
                self.best_cost = math.inf
            record[START] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - start
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return span_wrapper

    # -- per-invocation summary -----------------------------------------

    def begin(self) -> None:
        """Start a new invocation: fresh spans and counters, next run id."""
        self.run_id += 1
        self.spans.clear()
        self.stack.clear()
        for agg in self.aggregates.values():
            agg[0], agg[1] = 0, 0.0
        self.counters.clear()

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the invocation that just ended."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        covered = 0.0
        for name, start, end, parent, _, child in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child
            if parent < 0:
                covered += end - start
        for name, (n, seconds) in self.aggregates.items():
            calls[name] += n
            total[name] += seconds
            self_time[name] += seconds
        out = {}
        for module, fn, _ in TRACED:
            key = f"{module}.{fn}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.s"] = total[key]
            out[f"{key}.self_s"] = self_time[key]
        batches = calls["penalty.penalized_objective_batch"]
        for key in EXTRA_COUNTERS:
            out[key] = self.counters[key]
        out["ica.improving_batch_ratio"] = self.counters["improving_batches"] / batches if batches else 0.0
        out["ica.run.self_share"] = self_time["ica.run"] / total["ica.run"] if total["ica.run"] else 0.0
        out["report.render_table.share"] = total["report.render_table"] / wall_s
        out["trace.unattributed_s"] = max(wall_s - covered, 0.0)
        return out

    def write_spans(self, path) -> None:
        """Write the spans of the current invocation as JSON Lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, run, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def _after_batch(tracer, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    tracer.counters["penalty.penalized_objective_batch.rows"] += 1 if x.ndim == 1 else x.shape[0]
    # ica minimizes cost = -penalized objective; a batch improves the run
    # when its best cost beats every earlier batch of the same run
    best = -float(result.max())
    if best < tracer.best_cost:
        tracer.best_cost = best
        tracer.counters["improving_batches"] += 1


def _after_render(key):
    def after(tracer, args, kwargs, result):
        tracer.counters[key] += len(result.encode())
    return after


def _after_certificate(tracer, args, kwargs, result):
    tracer.counters["model.necessity_certificate.samples"] += result.n_samples


_AFTER = {
    "penalty.penalized_objective_batch": _after_batch,
    "report.render_table": _after_render("report.render_table.bytes"),
    "report.render_csv": _after_render("report.render_csv.bytes"),
    "model.necessity_certificate": _after_certificate,
}
