"""Referees: slow, plainly correct versions of what the package computes.

The grid necessity measure checks the closed form of the reformulation,
the lattice brute force and the LP duality certificate check the greedy
exact solver (the certificate also bounds every ICA row), the scalar
loops, masks and row-by-row ICA phases check the array paths that replaced them, numpy's
pairwise order one term at a time checks the column-wise row sums, the per-entry
formatter the renderers' one-operation allocation text, and the
row-by-row renderers the column renderers of a sweep's grid.  The
metamorphic relations check ICA and the greedy fill without pinned bytes.
"""

import csv
import dataclasses
import io
import itertools
import json
import math
import operator
import statistics
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from fuzzfolio import ica
from fuzzfolio.fuzzy import LRFuzzyNumber, RandomFactor
from fuzzfolio.model import DeterministicLP
from fuzzfolio.oracle import ExactSolution

_NODE_BUDGET = 100_000_000


def support(a: LRFuzzyNumber) -> tuple[float, float]:
    """The closed interval outside which a's membership is zero."""
    return (a.a0 - a.beta, a.a1 + a.gamma)


def membership(a: LRFuzzyNumber, x):
    """Membership degree of x in a.  Accepts scalars or numpy arrays.

    Zero spreads degenerate the corresponding shoulder to a step that is
    closed at the peak, so the function stays total on the reals.
    """
    arr = np.asarray(x, dtype=float)
    deg = np.where((arr >= a.a0) & (arr <= a.a1), 1.0, 0.0)
    # the clips keep each shoulder's ratio in [0, 1]; np.where discards
    # the values off the shoulder
    if a.beta > 0:
        m = (arr >= a.a0 - a.beta) & (arr < a.a0)
        deg = np.where(m, 1.0 - np.clip((a.a0 - arr) / a.beta, 0.0, 1.0), deg)
    if a.gamma > 0:
        m = (arr > a.a1) & (arr <= a.a1 + a.gamma)
        deg = np.where(m, 1.0 - np.clip((arr - a.a1) / a.gamma, 0.0, 1.0), deg)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(deg)
    return deg


def necessity_geq_fuzzy(a: LRFuzzyNumber, b: LRFuzzyNumber, grid: int = 1000) -> float:
    """Degree to which a is necessarily at least b, by direct grid search.

    Evaluates inf over y of max(1 - mu_a(y), sup_{v <= y} mu_b(v)): the
    certainty that a's value clears everything b can reach from below.
    With b collapsed to a crisp point this reduces to the scalar closed
    form of fuzzy.necessity_geq_scalar.  The result is accurate to one
    grid step of membership variation.
    """
    if grid < 100:
        raise ValueError(f"grid must provide at least 100 points per support, got {grid}")
    a_lo, a_hi = support(a)
    b_lo, b_hi = support(b)
    pts = np.unique(np.concatenate([
        np.linspace(a_lo, a_hi, grid),
        np.linspace(b_lo, b_hi, grid),
        # shoulder breakpoints, so kinks and zero-width supports are hit exactly
        np.array([a_lo, a.a0, a.a1, a_hi, b_lo, b.a0, b.a1, b_hi]),
    ]))
    mu_a = np.atleast_1d(membership(a, pts))
    reach_b = np.maximum.accumulate(np.atleast_1d(membership(b, pts)))
    return float(np.maximum(1.0 - mu_a, reach_b).min())


def brute_force(lp: DeterministicLP, grid_step: float) -> ExactSolution:
    """Scan every lattice allocation with the given step and pick the best.

    Requires grid_step to divide the budget and every upper bound, in
    which case the greedy optimum lies on the lattice (its single
    partially-filled coordinate is a multiple of the step too) and the
    two solvers must agree.  The first n - 1 coordinates run in
    lexicographic order, the budget forces the last, and the first strict
    best wins.  Refuses a scan of more than 1e8 prefixes, and a budget
    that no lattice allocation spends.
    """
    if lp.n > 6:
        raise ValueError(f"brute force is limited to 6 assets, got {lp.n}")
    if grid_step <= 0:
        raise ValueError(f"grid step must be positive, got {grid_step}")
    budget_units = _as_units(lp.total_fund, grid_step, "total_fund")
    cap_units = [_as_units(float(b), grid_step, f"upper bound {j}") for j, b in enumerate(lp.upper_bounds)]
    prefixes = [range(min(cap, budget_units) + 1) for cap in cap_units[:-1]]
    # a-priori explosion guard: the scan visits exactly this many prefixes
    if math.prod(map(len, prefixes)) > _NODE_BUDGET:
        raise RuntimeError(f"enumeration would exceed {_NODE_BUDGET} nodes for step {grid_step}")

    c = lp.coefficients
    best_units, best_obj = None, -np.inf
    for prefix in itertools.product(*prefixes):
        last = budget_units - sum(prefix)
        if 0 <= last <= cap_units[-1]:
            units = (*prefix, last)
            obj = grid_step * float(sum(c[i] * k for i, k in enumerate(units)))
            if obj > best_obj:
                best_units, best_obj = units, obj
    if best_units is None:
        raise ValueError(f"no allocation on the lattice of step {grid_step} spends total_fund = {lp.total_fund}")
    return ExactSolution(grid_step * np.array(best_units, dtype=float), best_obj)


def _as_units(value: float, step: float, what: str) -> int:
    units = round(value / step)
    if abs(units * step - value) > 1e-9 * max(1.0, abs(value)):
        raise ValueError(f"grid step {step} does not divide {what} = {value}")
    return units


def dual_bound(lp: DeterministicLP, mu) -> np.ndarray:
    """U(mu) = mu M + sum_j u_j max(0, c_j - mu) at each level of lp, at one price mu per level
    (or one for all): by weak duality no allocation of the budget slice of the box earns more."""
    c = np.atleast_2d(lp.coefficients)
    mu = np.broadcast_to(np.asarray(mu, dtype=float), len(c))
    return mu * lp.total_fund + np.maximum(0.0, c - mu[:, None]) @ lp.upper_bounds


def dual_check(lp: DeterministicLP, x) -> np.ndarray:
    """Whether each level's allocation x is optimal, by LP duality: O(L n), no enumeration, no sort.

    At the price mu, the largest coefficient among the assets below their cap (the smallest when
    every asset is full), x is optimal iff it is feasible, every asset with c_j > mu is full and
    every one with c_j < mu empty, and c . x equals U(mu) up to rounding.  Ties are invisible to
    it: any split among equal coefficients is optimal."""
    c, x, u, m0 = np.atleast_2d(lp.coefficients), np.atleast_2d(x), lp.upper_bounds, lp.total_fund
    below = x < u
    mu = np.where(below.any(axis=1), np.where(below, c, -np.inf).max(axis=1), c.min(axis=1))
    feasible = (x >= 0.0).all(axis=1) & (x <= u).all(axis=1) & (abs(x.sum(axis=1) - m0) <= 1e-12 * max(1.0, m0))
    slack = ((x == u) | (c <= mu[:, None])).all(axis=1) & ((x == 0.0) | (c >= mu[:, None])).all(axis=1)
    # rounding, against the size of the terms of U(mu)
    tol = 1e-12 * (np.abs(c) @ u + np.abs(mu) * abs(m0))
    return feasible & slack & (abs(dual_bound(lp, mu) - np.einsum("ij,ij->i", c, x)) <= tol)


def scalar_standard_quantile(p: float) -> float:
    """The standard normal quantile at one p, one erfc call per halving:
    bisection from [-40, 40] against the erfc-based CDF down to a width of 1e-13."""
    lo, hi = -40.0, 40.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_normal_quantile(p: float, factor: RandomFactor = RandomFactor()) -> float:
    """The factor's normal quantile at one p: normal_quantile must return
    these bits at every entry."""
    return factor.mean + factor.std_dev * scalar_standard_quantile(p)


def format_allocation(allocation, spec: str, sep: str) -> str:
    """An allocation's text one entry at a time through ``format``: the table
    (".6g", ", ") and the CSV (".12g", ";") must write these characters."""
    return sep.join(format(v, spec) for v in allocation)


def scalar_repair(x, m0: float, upper) -> np.ndarray:
    """One allocation's budget repair, a loop over its own passes: repair
    must return these bits for the allocation alone and as any batch row."""
    upper = np.asarray(upper, dtype=float)
    x = np.clip(np.asarray(x, dtype=float), 0.0, upper)
    tol = 1e-12 * max(1.0, abs(m0))
    for _ in range(100):
        residual = m0 - float(x.sum())
        if abs(residual) <= tol:
            break
        if residual > 0:
            headroom = upper - x
            total_headroom = float(headroom.sum())
            if total_headroom <= 0.0:
                break
            x = x + residual * (headroom / total_headroom)
        else:
            x = x * (m0 / float(x.sum()))
        x = np.clip(x, 0.0, upper)
    return x


def pairwise_sum(values) -> float:
    """numpy's float64 add.reduce of one run of values, one addition at a time: its initial 0.0 plus
    numpy's pairwise sum, which adds below 8 terms in turn, up to 128 in eight running sums combined
    pairwise and then the rest in turn, and splits a longer run at half its length rounded down to a
    multiple of 8.  Every c . x the program computes (model._row_sums) must have these bits."""
    def pairwise(v: list) -> float:
        n = len(v)
        if n < 8:
            total = -0.0
            for term in v:
                total += term
            return total
        if n <= 128:
            acc = v[:8]
            i = 8
            while i + 8 <= n:
                for j in range(8):
                    acc[j] += v[i + j]
                i += 8
            total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
            for term in v[i:]:
                total += term
            return total
        half = n // 2
        half -= half % 8
        return pairwise(v[:half]) + pairwise(v[half:])

    return 0.0 + pairwise([float(term) for term in values])


def scaled(lp: DeterministicLP, relation: str, k: int) -> tuple[DeterministicLP, float]:
    """lp under a metamorphic relation, and the factor the relation puts on eq_factor.

    Both scale by the power of two 2**k, which rounds nothing, so with
    enforce_threshold off (INEQ_FACTOR does not scale) every result moves
    exactly: under "money" (fund and bounds by 2**k, eq_factor by 2**-k)
    allocations, costs and objectives scale by 2**k; under "returns"
    (coefficients and threshold by 2**k, eq_factor by 2**k) allocations
    stay bitwise and costs and objectives scale by 2**k.  Empire counts
    stay under both.  repair's tolerance scales only for a fund of 1 or more.
    """
    two = 2.0**k
    if relation == "money":
        return dataclasses.replace(lp, total_fund=lp.total_fund * two, upper_bounds=lp.upper_bounds * two), 1 / two
    return dataclasses.replace(lp, coefficients=lp.coefficients * two, threshold=lp.threshold * two), two


def mask_exchange(costs: np.ndarray, owner: np.ndarray, imperialist: np.ndarray) -> None:
    """ica.exchange over an (S, K, N) membership mask: each empire's first
    colony of lowest cost takes the seat if strictly better, in place."""
    colony = np.take_along_axis(imperialist, owner, axis=1) != np.arange(owner.shape[1])
    labels = np.arange(imperialist.shape[1])[:, None]
    member = (owner[:, None, :] == labels) & colony[:, None, :]
    colony_costs = np.where(member, costs[:, None, :], np.inf)
    best = colony_costs.argmin(axis=2)
    swap = colony_costs.min(axis=2) < np.take_along_axis(costs, imperialist, axis=1)
    imperialist[swap] = best[swap]


def form_empires_rows(costs: np.ndarray, config, generators, stream: np.ndarray):
    """ica.form_empires one row at a time: each row ranks its countries, seats
    its k best and deals its colonists, in its generator's permutation, out
    in power-proportional counts."""
    k = config.n_imperialists
    owner, imperialist = np.empty(costs.shape, dtype=np.intp), np.empty((len(stream), k), dtype=np.intp)
    permutations = [rng.permutation(costs.shape[1] - k) for rng in generators]
    for s, g in enumerate(stream):
        ranked = np.argsort(costs[s], kind="stable")
        imperialist[s] = ranked[:k]
        owner[s, ranked[:k]] = np.arange(k)
        colonists = ranked[k:]
        counts = ica._largest_remainder(ica._power_shares(costs[s, ranked[:k]]), colonists.size)
        owner[s, colonists[permutations[g]]] = np.repeat(np.arange(k), counts)
    rows = np.arange(len(stream))[:, None]
    return owner + k * rows, imperialist + costs.shape[1] * rows


def compete_rows(costs, owner, imperialist, alive, roulette: np.ndarray, config) -> None:
    """ica.compete over the rows with two or more empires, without the newcomer
    seat: followed by ica.exchange, it leaves what ica.compete leaves."""
    rows = np.flatnonzero(alive.sum(axis=1) > 1)
    colony = ica._colonies(owner, imperialist)
    powers, live = ica._powers(costs, owner, imperialist, colony, config)[rows], alive[rows]
    weakest = np.where(live, powers, -np.inf).argmax(axis=1)
    candidate = live.copy()
    candidate[np.arange(rows.size), weakest] = False
    top = np.where(candidate, powers, -np.inf).max(axis=1, keepdims=True)
    running = np.cumsum(np.where(candidate, top - powers, 0.0), axis=1)
    running = np.where(running[:, -1:] == 0.0, np.cumsum(candidate, axis=1), running)
    winner = (candidate & (running > roulette[rows, None] * running[:, -1:])).argmax(axis=1)

    offset = alive.shape[1] * rows
    lost = (owner[rows] == (offset + weakest)[:, None]) & colony[rows]
    worst = np.where(lost, costs[rows], -np.inf).argmax(axis=1)
    moves = lost.any(axis=1)
    owner[rows[moves], worst[moves]] = (offset + winner)[moves]
    fall = lost.sum(axis=1) <= 1
    np.put(owner, imperialist[rows[fall], weakest[fall]], (offset + winner)[fall])
    alive[rows[fall], weakest[fall]] = False


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


def sweep_row(level, threshold, oracle, solver, seed, allocation, budget_residual, objective, published=None) -> SweepRow:
    """One report row for the allocation tuple at level, whose return floor is
    threshold; oracle is the exact optimum there and published, if given,
    the published objective.  The row alone decides whether it clears the floor."""
    ok = objective >= threshold
    # positional, in SweepRow's field order: its keyword path costs about 2 µs a row
    return SweepRow(level.lam, level.eta, solver, seed,
                    "heuristic" if solver == "ica" else "optimal" if ok else "threshold_infeasible",
                    objective, oracle,
                    # rel_gap: exactly 0.0 for the exact row, whose objective is the finite oracle
                    (oracle - objective) / abs(oracle) if oracle != 0.0 else 0.0,
                    threshold, ok, budget_residual,
                    published, None if published is None else (objective - published) / published,
                    allocation)


def sweep_rows(sweep) -> list[SweepRow]:
    """A report.Sweep grid's rows, one sweep_row each: at every level the
    exact row, if any, then one ICA row per seed.  The CSV, JSON and table
    renderers must write from the grid what the row renderers below write
    from these rows."""
    rows = []
    n_seeds = len(sweep.seeds)
    for i, (lam, eta) in enumerate(zip(sweep.lam, sweep.eta)):
        level = SimpleNamespace(lam=lam, eta=eta)
        if sweep.exact_x is not None:
            pub = None if sweep.published is None else sweep.published[i]
            rows.append(sweep_row(level, sweep.threshold[i], sweep.oracle[i], "exact", None,
                                  tuple(sweep.exact_x[i].tolist()), sweep.exact_budget[i], sweep.oracle[i], pub))
        for j in range(i * n_seeds, (i + 1) * n_seeds):
            rows.append(sweep_row(level, sweep.threshold[i], sweep.oracle[i], "ica", sweep.seeds[j - i * n_seeds],
                                  tuple(sweep.ica_x[j].tolist()), sweep.ica_budget[j], sweep.ica_objective[j]))
    return rows


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


def render_csv_rows(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    allocation = _memo_allocation("%.12g", ";")
    for row in rows:
        # allocation is the last column
        writer.writerow([*map(_fmt, row[:-1]), allocation(row.allocation)])
    return buf.getvalue()


def render_json_rows(rows: list[SweepRow], meta: dict) -> str:
    # json writes the allocation tuple as an array
    records = [dict(zip(CSV_COLUMNS, row)) for row in rows]
    return json.dumps({**meta, "rows": records}, indent=2) + "\n"


_HEADER = "lambda=%.12g eta=%.12g"
_EXACT = "  exact   objective %10.6g  threshold %.6g  satisfied %s  x = [%s]"
_HEADER_EXACT = _HEADER + "\n" + _EXACT
_LEVEL = operator.itemgetter(0, 1)  # (lam, eta)


def render_table_rows(rows: list[SweepRow]) -> str:
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
