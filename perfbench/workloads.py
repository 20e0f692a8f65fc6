"""The benchmark's workloads: inputs from a seed, one invocation, output checks.

Each workload builds its inputs from the workload seed, writes generated
instances with ``io.write_instance`` and reads them back with
``io.load_instance``, then calls the program the way a user does: the CLI
entry point ``fuzzfolio.cli.main`` with an argv, or the public
``model.necessity_certificate``.  Functions are looked up on their module
at call time, so a tracer that replaces them is seen.

Checks recompute what they need from the raw generated numbers: the LP
coefficients use the standard library's normal quantile (the program
bisects its own), and the optimum comes from a separate greedy fill.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fuzzfolio import cli, model
from fuzzfolio import io as ffio
from fuzzfolio.fuzzy import FuzzyRandomReturn, RandomFactor

_NORMAL = statistics.NormalDist()

# published allocation and objective per coupled level for the bundled
# five-asset instance; exact rows must match the allocation and come
# within 0.5% of the objective
PUBLISHED = {
    0.1: ((60.0, 0.0, 20.0, 60.0, 60.0), 422.54),
    0.4: ((20.0, 0.0, 60.0, 60.0, 60.0), 289.3),
    0.7: ((20.0, 0.0, 60.0, 60.0, 60.0), 187.48),
    0.9: ((0.0, 60.0, 60.0, 20.0, 60.0), 95.56),
}
PAPER_INSTANCE = Path(__file__).resolve().parent.parent / "src" / "fuzzfolio" / "data" / "paper_table1.json"

BUDGET_TOL = 1e-6


@dataclass
class Outcome:
    """What one invocation produced: exit code and output bytes, or an error."""

    exit_code: int
    output: bytes = b""
    error: str = ""
    reports: list = field(default_factory=list)


@dataclass
class Check:
    """Verdict on one invocation's output."""

    attempted: int
    failed: int = 0
    quality: float = 0.0
    gap: float | None = None
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)


# -- inputs -----------------------------------------------------------------

def random_spec(rng: np.random.Generator, n_assets: int) -> dict:
    """A random instance in the instance-file schema; bounds leave 30% slack."""
    total = float(rng.uniform(100.0, 1000.0))
    bounds = rng.uniform(0.4, 2.0, size=n_assets) * (total / n_assets)
    bounds *= max(1.0, 1.3 * total / bounds.sum())

    def fuzzy_return(scale: float) -> dict:
        r0 = scale * float(rng.uniform(1.0, 2.0))
        return {
            "r0": r0,
            "r1": r0 + scale * float(rng.uniform(0.0, 0.5)),
            "r2": scale * float(rng.uniform(0.05, 0.25)),
            "beta": scale * float(rng.uniform(0.01, 0.2)),
            "gamma": scale * float(rng.uniform(0.01, 0.2)),
        }

    return {
        "assets": [fuzzy_return(1.0) for _ in range(n_assets)],
        "target": fuzzy_return(total),
        "total_fund": total,
        "upper_bounds": [float(b) for b in bounds],
        "factor": {"mean": 0.0, "std_dev": 1.0},
    }


def round_trip(spec: dict, path: Path) -> model.PortfolioInstance:
    """Build the instance, write it with io.write_instance, load it back."""
    built = model.PortfolioInstance(
        assets=tuple(FuzzyRandomReturn(**a) for a in spec["assets"]),
        target=FuzzyRandomReturn(**spec["target"]),
        total_fund=spec["total_fund"],
        upper_bounds=tuple(spec["upper_bounds"]),
        factor=RandomFactor(**spec["factor"]),
    )
    ffio.write_instance(built, path)
    loaded = ffio.load_instance(path)
    if loaded != built:
        raise RuntimeError(f"{path}: instance changed in the write/load round trip")
    return loaded


def coefficients(spec: dict, lam, eta) -> np.ndarray:
    """LP coefficients c_j = r0_j + T*(1 - lam) r2_j - eta beta_j; one row per level.

    With the linear left reference L(t) = 1 - t the pseudo-inverse at
    1 - eta is eta.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    factor = spec["factor"]
    t = np.array([factor["mean"] + factor["std_dev"] * _NORMAL.inv_cdf(1.0 - v) for v in lam])
    assets = spec["assets"]
    r0 = np.array([a["r0"] for a in assets])
    r2 = np.array([a["r2"] for a in assets])
    beta = np.array([a["beta"] for a in assets])
    return r0 + t[:, None] * r2 - eta[:, None] * beta


def threshold(spec: dict, lam: float, eta: float) -> float:
    factor, tgt = spec["factor"], spec["target"]
    t = factor["mean"] + factor["std_dev"] * _NORMAL.inv_cdf(1.0 - lam)
    return tgt["r0"] + t * tgt["r2"] - eta * tgt["beta"]


def greedy_fill(c: np.ndarray, upper: np.ndarray, fund: float) -> np.ndarray:
    """Optimal allocations, one per row of c: fill by descending coefficient."""
    c = np.atleast_2d(c)
    order = np.argsort(-c, axis=1, kind="stable")
    caps = upper[order]
    before = np.cumsum(caps, axis=1) - caps
    filled = np.clip(fund - before, 0.0, caps)
    x = np.empty_like(filled)
    np.put_along_axis(x, order, filled, axis=1)
    return x


def _derive(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**32, salt]))


# -- invocation ---------------------------------------------------------------

def run_cli(argv: list[str], out: Path | None) -> Outcome:
    """Call the CLI entry point in this process; stdout and stderr are captured."""
    if out is not None and out.exists():
        out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception:
        return Outcome(exit_code=-1, error=traceback.format_exc())
    if code != 0:
        return Outcome(exit_code=code, error=stderr.getvalue())
    data = out.read_bytes() if out is not None else stdout.getvalue().encode()
    return Outcome(exit_code=0, output=data)


def _check_ica_rows(check: Check, rows: list[dict], spec: dict) -> None:
    """ICA rows: objective at most the oracle, allocation in the box, budget held."""
    upper = np.array(spec["upper_bounds"])
    fund = spec["total_fund"]
    ratios, gaps = [], []
    for row in rows:
        lam, eta = float(row["lambda"]), float(row["eta"])
        c = coefficients(spec, lam, eta)[0]
        oracle = float(c @ greedy_fill(c, upper, fund)[0])
        x = np.array([float(v) for v in row["allocation"].split(";")])
        obj = float(row["objective"])
        where = f"ica lambda={lam} seed={row['seed']}"
        # the CSV prints 12 significant digits, so a bound can read 5e-12 high
        if x.shape != upper.shape or np.any(x < 0.0) or np.any(x > upper * (1 + 1e-10)):
            check.fail(f"{where}: allocation leaves the box")
        elif obj > oracle + 1e-9:
            check.fail(f"{where}: objective {obj!r} exceeds the oracle {oracle!r}")
        elif abs(obj - float(c @ x)) > 1e-9 * max(1.0, abs(obj)):
            check.fail(f"{where}: objective {obj!r} is not c.x = {float(c @ x)!r}")
        elif abs(float(row["budget_residual"])) > BUDGET_TOL or abs(float(x.sum()) - fund) > BUDGET_TOL:
            check.fail(f"{where}: budget residual {row['budget_residual']}")
        ratios.append(obj / oracle)
        gaps.append((oracle - obj) / abs(oracle))
    if rows:
        check.quality = statistics.fmean(ratios)
        check.gap = statistics.fmean(gaps)


class Workload:
    """Base: subclasses build their inputs in __init__ and define invoke and check_output."""

    name = ""
    unit = ""            # what ops_per_s counts
    ops = 0              # units of work per invocation
    operations = 0       # checked operations per invocation (rows, certificates)

    def __init__(self, seed: int, workdir: Path):
        self.reference: bytes | None = None

    def verify(self, outcome: Outcome) -> Check:
        check = Check(attempted=self.operations)
        if outcome.exit_code != 0:
            check.failed = self.operations
            check.problems.append(f"exit code {outcome.exit_code}: {outcome.error.strip()[-500:]}")
            return check
        if self.reference is None:
            self.reference = outcome.output
        elif outcome.output != self.reference:
            check.failed = self.operations
            check.problems.append("output differs from the first invocation of the same argv")
            return check
        try:
            self.check_output(outcome, check)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            check.failed = self.operations
            check.problems.append(f"malformed output: {exc!r}")
        return check


class PaperSweep(Workload):
    name = "paper_sweep"
    unit = "ica_runs"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        first = 1 + 20 * (seed % 10**6)
        self.seeds = list(range(first, first + 20))
        self.spec = json.loads(PAPER_INSTANCE.read_text())
        instance = ffio.bundled_instance("paper_table1")
        if round_trip(self.spec, workdir / "paper_table1.json") != instance:
            raise RuntimeError("bundled instance differs from its data file")
        self.out = workdir / "sweep.csv"
        self.ops = len(PUBLISHED) * len(self.seeds)
        self.operations = self.ops + len(PUBLISHED)

    def invoke(self) -> Outcome:
        argv = ["reproduce-paper", "--seeds", f"{self.seeds[0]}..{self.seeds[-1]}",
                "--format", "csv", "--out", str(self.out)]
        return run_cli(argv, self.out)

    def check_output(self, outcome: Outcome, check: Check) -> None:
        rows = list(csv.DictReader(io.StringIO(outcome.output.decode())))
        exact = [r for r in rows if r["solver"] == "exact"]
        ica = [r for r in rows if r["solver"] == "ica"]
        expected = {(lv, s) for lv in PUBLISHED for s in self.seeds}
        if {(float(r["lambda"]), int(r["seed"])) for r in ica} != expected or len(ica) != len(expected):
            check.fail(f"ica rows do not cover levels x seeds {self.seeds[0]}..{self.seeds[-1]}")
        if sorted(float(r["lambda"]) for r in exact) != sorted(PUBLISHED):
            check.fail("exact rows do not cover the published levels")
        for row in exact:
            allocation, objective = PUBLISHED[float(row["lambda"])]
            x = tuple(float(v) for v in row["allocation"].split(";"))
            obj = float(row["objective"])
            if x != allocation:
                check.fail(f"exact lambda={row['lambda']}: allocation {x} is not the published {allocation}")
            elif abs(obj - objective) > 0.005 * objective:
                check.fail(f"exact lambda={row['lambda']}: objective {obj} is not within 0.5% of {objective}")
        _check_ica_rows(check, ica, self.spec)


class IcaLong(Workload):
    name = "ica_long"
    unit = "ica_iterations"
    n_assets = 50
    iterations = 600
    operations = 1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = _derive(seed, 2)
        self.spec = random_spec(rng, self.n_assets)
        self.ica_seed = int(rng.integers(1, 10**6))
        self.path = workdir / "ica_long.json"
        round_trip(self.spec, self.path)
        self.out = workdir / "ica_long.csv"
        self.ops = self.iterations

    def invoke(self) -> Outcome:
        argv = ["solve", "--instance", str(self.path), "--solver", "ica",
                "--seeds", str(self.ica_seed), "--lambda", "0.3", "--eta", "0.6",
                "--countries", "400", "--imperialists", "20", "--iters", str(self.iterations),
                "--format", "csv", "--out", str(self.out)]
        return run_cli(argv, self.out)

    def check_output(self, outcome: Outcome, check: Check) -> None:
        rows = list(csv.DictReader(io.StringIO(outcome.output.decode())))
        if len(rows) != 1 or rows[0]["solver"] != "ica" or int(rows[0]["seed"]) != self.ica_seed:
            check.fail(f"expected one ica row for seed {self.ica_seed}, got {len(rows)} rows")
            return
        _check_ica_rows(check, rows, self.spec)


_LEVEL = re.compile(r"lambda=(\S+) eta=(\S+)$")
_EXACT = re.compile(r"  exact   objective +(\S+)  threshold (\S+)  satisfied (true|false)  x = \[(.*)\]$")


class Frontier(Workload):
    name = "frontier"
    unit = "level_rows"
    n_assets = 100
    n_levels = 4000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = _derive(seed, 3)
        self.spec = random_spec(rng, self.n_assets)
        # six-decimal levels, so the table's level labels name them exactly
        self.levels = np.sort(rng.choice(np.arange(10_000, 990_001), self.n_levels, replace=False)) / 1e6
        self.path = workdir / "frontier.json"
        round_trip(self.spec, self.path)
        self.ops = self.operations = self.n_levels

    def invoke(self) -> Outcome:
        argv = ["solve", "--instance", str(self.path), "--solver", "exact",
                "--levels", ",".join(repr(float(v)) for v in self.levels)]
        return run_cli(argv, None)

    def check_output(self, outcome: Outcome, check: Check) -> None:
        """Greedy optimality: no asset with spare capacity beats one holding mass.

        The table prints six significant digits, so at-bound and zero are
        judged to 1e-5 of the bound and the budget to 1e-5 of the fund.
        """
        lines = outcome.output.decode().splitlines()
        parsed = [(_LEVEL.match(a), _EXACT.match(b)) for a, b in zip(lines[::2], lines[1::2])]
        if len(lines) != 2 * self.n_levels or not all(h and r for h, r in parsed):
            check.failed = self.operations
            check.problems.append("table does not hold one header and one exact line per level")
            return
        lam = np.array([float(h[1]) for h, _ in parsed])
        eta = np.array([float(h[2]) for h, _ in parsed])
        if not (np.array_equal(lam, self.levels) and np.array_equal(eta, self.levels)):
            check.failed = self.operations
            check.problems.append("table levels differ from the requested levels")
            return
        x = np.empty((self.n_levels, self.n_assets))
        for i, (_, r) in enumerate(parsed):
            row = r[4].split(", ")
            if len(row) != self.n_assets:
                check.failed = self.operations
                check.problems.append(f"level {lam[i]}: allocation has {len(row)} entries")
                return
            x[i] = np.array(row, dtype=float)
        obj = np.array([float(r[1]) for _, r in parsed])
        satisfied = np.array([r[3] == "true" for _, r in parsed])
        upper = np.array(self.spec["upper_bounds"])
        fund = self.spec["total_fund"]
        c = coefficients(self.spec, lam, eta)
        optimum = np.einsum("ij,ij->i", c, greedy_fill(c, upper, fund))
        holding = x > 1e-5 * upper
        spare = x < upper * (1 - 1e-5)
        best_spare = np.where(spare, c, -np.inf).max(axis=1)
        worst_held = np.where(holding, c, np.inf).min(axis=1)
        thresholds = np.array([threshold(self.spec, a, b) for a, b in zip(lam, eta)])
        bad = (
            (best_spare > worst_held + 1e-9)
            | (np.abs(x.sum(axis=1) - fund) > 1e-5 * fund)
            | np.any(x < 0.0, axis=1)
            | np.any(x > upper * (1 + 1e-5), axis=1)
            | (np.abs(obj - optimum) > 1e-5 * np.abs(optimum))
            | ((np.abs(optimum - thresholds) > 1e-6 * np.abs(thresholds))
               & (satisfied != (optimum >= thresholds)))
        )
        for i in np.flatnonzero(bad):
            check.fail(f"level {lam[i]}: row is not the greedy optimum")
        check.quality = float(np.mean(obj / optimum))


class Certify(Workload):
    name = "certify"
    unit = "samples"
    n_instances = 16
    n_samples = 10_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = _derive(seed, 4)
        self.cases = []
        for i in range(self.n_instances):
            # two to four assets as in the acceptance suite's certificates,
            # with the same total for every seed so the work does not vary
            spec = random_spec(rng, (2, 3, 4, 3)[i % 4])
            lam, eta = float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9))
            upper = np.array(spec["upper_bounds"])
            c = coefficients(spec, lam, eta)[0]
            x = greedy_fill(c, upper, spec["total_fund"])[0]
            slope = sum(a["r2"] * w for a, w in zip(spec["assets"], x))
            margin = float(rng.uniform(-1.0, 1.0)) * slope
            instance = round_trip(spec, workdir / f"certify_{i:02d}.json")
            self.cases.append((spec, instance, lam, eta, x, margin, int(rng.integers(2**32))))
        self.ops = self.n_instances * self.n_samples
        self.operations = self.n_instances

    def invoke(self) -> Outcome:
        try:
            reports = [
                model.necessity_certificate(instance, model.ConfidenceLevels(lam, eta), x,
                                            n_samples=self.n_samples, rng=rng_seed, margin=margin)
                for _, instance, lam, eta, x, margin, rng_seed in self.cases
            ]
        except Exception:
            return Outcome(exit_code=-1, error=traceback.format_exc())
        output = repr([(r.probability, r.meets_level, r.crisp_holds) for r in reports]).encode()
        return Outcome(exit_code=0, output=output, reports=reports)

    def check_output(self, outcome: Outcome, check: Check) -> None:
        """A decisive verdict (outside 3 sigma) must agree with the crisp one.

        The estimate must also lie within 5 sigma of the exact probability
        Pr{t >= t0}, where t0 solves A + t B = f + eta * spread for the
        portfolio's peak A + t B and left spread.
        """
        decisive = agree = 0
        for i, ((spec, _, lam, eta, x, margin, _), cert) in enumerate(zip(self.cases, outcome.reports)):
            c = coefficients(spec, lam, eta)[0]
            crisp = float(c @ x)
            assets = spec["assets"]
            a = sum(p["r0"] * w for p, w in zip(assets, x))
            b = sum(p["r2"] * w for p, w in zip(assets, x))
            spread = sum(p["beta"] * w for p, w in zip(assets, x))
            factor = statistics.NormalDist(spec["factor"]["mean"], spec["factor"]["std_dev"])
            exact = 1.0 - factor.cdf((crisp - margin + eta * spread - a) / b)
            sigma = math.sqrt(max(exact * (1.0 - exact), 1e-12) / self.n_samples)
            if cert.n_samples != self.n_samples or abs(cert.crisp_value - crisp) > 1e-9 * max(1.0, abs(crisp)):
                check.fail(f"certificate {i}: crisp value {cert.crisp_value!r}, expected {crisp!r}")
            elif abs(cert.probability - exact) > 5 * sigma:
                check.fail(f"certificate {i}: estimate {cert.probability} is off the exact {exact:.6f}")
            elif abs(cert.probability - lam) > 3 * max(cert.std_error, 1e-9):
                decisive += 1
                if cert.crisp_holds == cert.meets_level:
                    agree += 1
                else:
                    check.fail(f"certificate {i}: decisive verdict disagrees with the crisp one")
        check.quality = agree / decisive if decisive else 1.0


WORKLOADS = {w.name: w for w in (PaperSweep, IcaLong, Frontier, Certify)}
