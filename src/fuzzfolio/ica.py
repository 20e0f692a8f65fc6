"""Imperialist competitive search over box-bounded allocations.

Countries are candidate allocations; the best ones become imperialists
and the rest are divided among them as colonies in proportion to
normalized power.  Each iteration: colonies drift toward their
imperialist (assimilation), some are randomly redrawn (revolution), a
colony that overtakes its imperialist swaps roles (exchange), and the
weakest empire loses its weakest colony to a roulette-selected rival
(competition), collapsing once it has none left.

The population is held in two arrays, positions (N, n) and costs (N,).
An empire is an index array into them: the imperialist first, then its
colonies in a fixed order.  That order decides which rows of the random
draws a colony receives and how ties break.  Every iteration draws the
random numbers empire by empire, then moves all colonies of all empires
in one assimilation batch and one revolution batch.

Costs are minimized internally (cost = -penalized objective) so that
lower cost means stronger throughout.  A run is a pure function of its
inputs including the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .model import DeterministicLP, ResidualReport, objective, residuals
from .penalty import PenaltyConfig, penalized_objective_batch, penalized_objective_bound, repair

__all__ = [
    "IcaConfig",
    "IterationRecord",
    "RunReport",
    "initialize",
    "form_empires",
    "draw",
    "assimilate",
    "revolve",
    "exchange",
    "compete",
    "run",
]

CostFn = Callable[[np.ndarray], np.ndarray]

# a colony moves by up to twice its distance to the imperialist on each
# axis, so it can overshoot it (Atashpaz-Gargari & Lucas, 2007)
ASSIMILATION_BETA = 2.0


@dataclass(frozen=True)
class IcaConfig:
    n_countries: int = 100
    n_imperialists: int = 10
    revolution_rate: float = 0.2
    max_iterations: int = 25
    epsilon: float = 0.05
    seed: int = 0

    def __post_init__(self):
        rules = (
            ("n_imperialists", self.n_imperialists >= 1, "must be at least 1"),
            ("n_countries", self.n_countries > self.n_imperialists,
             f"must exceed n_imperialists ({self.n_imperialists})"),
            ("revolution_rate", 0.0 <= self.revolution_rate <= 1.0, "must lie in [0, 1]"),
            ("epsilon", 0.0 < self.epsilon < 0.1, "must lie in (0, 0.1)"),
            ("max_iterations", self.max_iterations >= 0, "must be nonnegative"),
        )
        for name, ok, rule in rules:
            if not ok:
                raise ValidationError(f"{name} {rule}, got {getattr(self, name)}", field=name)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    best_cost: float
    n_empires: int


@dataclass(frozen=True)
class RunReport:
    """Outcome of a seeded run.

    ``best_position`` is the budget-repaired best allocation ever
    evaluated and ``best_objective`` its plain (unpenalized) objective;
    ``best_cost`` is the raw internal cost of the unrepaired best.
    """

    best_position: np.ndarray
    best_cost: float
    best_objective: float
    trace: tuple[IterationRecord, ...]
    residuals: ResidualReport
    seed: int


def initialize(
    cost_fn: CostFn, config: IcaConfig, bounds: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the initial positions (N, n) uniformly inside the box, with their costs (N,)."""
    bounds = np.asarray(bounds, dtype=float)
    positions = rng.uniform(0.0, bounds, size=(config.n_countries, bounds.size))
    return positions, np.atleast_1d(cost_fn(positions))


def form_empires(costs: np.ndarray, config: IcaConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """Split the population into empires with power-proportional colony counts."""
    ranked = np.argsort(costs, kind="stable")
    imperialists = ranked[: config.n_imperialists]
    colonists = ranked[config.n_imperialists:]
    counts = _largest_remainder(_power_shares(costs[imperialists]), colonists.size)
    shuffled = colonists[rng.permutation(colonists.size)]
    ends = np.cumsum(counts)
    return [
        np.concatenate(([imp], shuffled[end - k: end]))
        for imp, k, end in zip(imperialists, counts, ends)
    ]


def _power_shares(costs: np.ndarray) -> np.ndarray:
    # normalized cost c_n - max(c); both it and its sum are <= 0, so the
    # shares are nonnegative and sum to 1.  All-equal costs would divide
    # zero by zero; fall back to uniform shares.
    normalized = costs - costs.max()
    total = normalized.sum()
    if total == 0.0:
        return np.full(costs.size, 1.0 / costs.size)
    return normalized / total


def _largest_remainder(shares: np.ndarray, total: int) -> list[int]:
    # floor the quotas, then hand out the leftover by descending
    # fractional part so the counts sum to the colony pool exactly
    quotas = shares * total
    counts = np.floor(quotas).astype(int)
    leftover = total - int(counts.sum())
    order = sorted(range(shares.size), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts.tolist()


def _colonies(empires: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Every colony in empire order, and the imperialist ruling each."""
    colonies = np.concatenate([e[1:] for e in empires])
    rulers = np.repeat([e[0] for e in empires], [e.size - 1 for e in empires])
    return colonies, rulers


def draw(
    empires: list[np.ndarray], config: IcaConfig, bounds: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one iteration's random numbers, empire by empire.

    An empire with k colonies takes k x n assimilation steps, then k
    revolution trials, then m x n fresh positions for the m > 0 trials
    that hit; an empire without colonies draws nothing.  Returns the
    steps (one row per colony) and hit flags (one per colony), both in
    the colony order of ``_colonies``, and the fresh positions (one row
    per hit, in the same order).
    """
    n = bounds.size
    steps, hits, fresh = [], [], [np.empty((0, n))]
    for empire in empires:
        k = empire.size - 1
        if k == 0:
            continue
        # steps and trials are adjacent in the stream: one call draws both
        u = rng.random(k * (n + 1))
        steps.append(u[: k * n].reshape(k, n))
        hit = u[k * n:] < config.revolution_rate
        hits.append(hit)
        m = int(np.count_nonzero(hit))
        if m:
            fresh.append(rng.random((m, n)))
    # bounds * random() has the values and the stream of
    # rng.uniform(0.0, bounds, (m, n)), which computes 0 + bounds * random()
    return np.concatenate(steps), np.concatenate(hits), bounds * np.concatenate(fresh)


def assimilate(
    positions: np.ndarray,
    costs: np.ndarray,
    colonies: np.ndarray,
    rulers: np.ndarray,
    steps: np.ndarray,
    cost_fn: CostFn,
    bounds: np.ndarray,
) -> None:
    """Move each colony toward its ruler by the given per-axis steps, in place."""
    here = positions[colonies]
    moved = here + ASSIMILATION_BETA * steps * (positions[rulers] - here)
    np.clip(moved, 0.0, bounds, out=moved)
    costs[colonies] = cost_fn(moved)
    positions[colonies] = moved


def revolve(positions: np.ndarray, costs: np.ndarray, chosen: np.ndarray, fresh: np.ndarray, cost_fn: CostFn) -> None:
    """Replace the chosen countries by the fresh positions, in place."""
    if chosen.size:
        costs[chosen] = cost_fn(fresh)
        positions[chosen] = fresh


def exchange(costs: np.ndarray, empires: list[np.ndarray]) -> None:
    """Swap each imperialist with its best colony if that colony is strictly better."""
    for empire in empires:
        if empire.size > 1:
            best = 1 + int(costs[empire[1:]].argmin())
            if costs[empire[best]] < costs[empire[0]]:
                empire[0], empire[best] = empire[best], empire[0]


def _powers(costs: np.ndarray, empires: list[np.ndarray], config: IcaConfig) -> np.ndarray:
    """Total cost of each empire; higher means weaker."""
    powers = []
    for empire in empires:
        power = costs[empire[0]]
        if empire.size > 1:
            # a left-to-right sum: np.sum adds pairwise and can round differently
            power = power + config.epsilon * (sum(costs[empire[1:]].tolist()) / (empire.size - 1))
        powers.append(power)
    return np.array(powers)


def compete(
    costs: np.ndarray, empires: list[np.ndarray], config: IcaConfig, rng: np.random.Generator
) -> list[np.ndarray]:
    """Transfer the weakest empire's weakest colony to a roulette winner.

    The collapsing side is excluded from the roulette; an empire left
    with no colonies is dissolved, its imperialist joining the winner as
    a colony.
    """
    if len(empires) < 2:
        return empires
    powers = _powers(costs, empires, config)
    weakest = int(powers.argmax())
    candidates = [i for i in range(len(empires)) if i != weakest]
    shares = _power_shares(powers[candidates])
    pick = int(np.searchsorted(np.cumsum(shares), rng.random(), side="right"))
    winner = candidates[min(pick, len(candidates) - 1)]
    out = list(empires)
    weak = out[weakest]
    if weak.size > 1:
        worst = 1 + int(costs[weak[1:]].argmax())
        out[winner] = np.append(out[winner], weak[worst])
        weak = out[weakest] = np.delete(weak, worst)
    if weak.size == 1:
        out[winner] = np.append(out[winner], weak[0])
        del out[weakest]
    return out


def run(
    lp: DeterministicLP,
    penalty_cfg: PenaltyConfig = PenaltyConfig(),
    ica_cfg: IcaConfig = IcaConfig(),
) -> RunReport:
    """Full optimization loop; deterministic given the config seed.

    The global best is tracked across every cost evaluation, so positions
    visited and then lost to revolution still count.  The returned
    allocation is the repaired best with its residual diagnostics.
    Raises ValidationError when a cost in the box could overflow.
    """
    # power shares and empire powers sum up to n_countries costs or cost
    # differences, each at most twice the largest cost in magnitude
    if not math.isfinite(4.0 * ica_cfg.n_countries * penalized_objective_bound(lp, penalty_cfg)):
        raise ValidationError(
            "the penalized objective overflows inside the box; rescale the instance for the ICA solver"
        )
    rng = np.random.default_rng(ica_cfg.seed)
    bounds = lp.upper_bounds

    best_cost = np.inf
    best_position: np.ndarray | None = None

    def tracked(x: np.ndarray) -> np.ndarray:
        nonlocal best_cost, best_position
        # a module-global lookup per call, so a traced or patched binding is used
        costs = -penalized_objective_batch(lp, x, penalty_cfg)
        flat = np.atleast_1d(costs)
        i = int(np.argmin(flat))
        if flat[i] < best_cost:
            best_cost = float(flat[i])
            best_position = np.atleast_2d(x)[i].copy()
        return costs

    positions, costs = initialize(tracked, ica_cfg, bounds, rng)
    empires = form_empires(costs, ica_cfg, rng)
    trace = []
    for iteration in range(1, ica_cfg.max_iterations + 1):
        colonies, rulers = _colonies(empires)
        steps, hits, fresh = draw(empires, ica_cfg, bounds, rng)
        assimilate(positions, costs, colonies, rulers, steps, tracked, bounds)
        revolve(positions, costs, colonies[hits], fresh, tracked)
        exchange(costs, empires)
        empires = compete(costs, empires, ica_cfg, rng)
        exchange(costs, empires)
        trace.append(IterationRecord(iteration, best_cost, len(empires)))
        _check_invariants(positions, costs, empires, ica_cfg, bounds)
        if len(empires) == 1:
            break

    assert best_position is not None
    repaired = repair(best_position, lp.total_fund, bounds)
    return RunReport(
        best_position=repaired,
        best_cost=best_cost,
        best_objective=objective(lp, repaired),
        trace=tuple(trace),
        residuals=residuals(lp, repaired),
        seed=ica_cfg.seed,
    )


def _check_invariants(
    positions: np.ndarray, costs: np.ndarray, empires: list[np.ndarray], config: IcaConfig, bounds: np.ndarray
) -> None:
    # explicit raises rather than asserts, so the checks also run under python -O
    members = np.sort(np.concatenate(empires))
    if not np.array_equal(members, np.arange(config.n_countries)):
        raise RuntimeError("ICA invariant violated: the empires do not partition the population")
    if not ((positions >= 0.0).all() and (positions <= bounds).all()):
        raise RuntimeError("ICA invariant violated: a country lies outside the box")
    colonies, rulers = _colonies(empires)
    if not (costs[rulers] <= costs[colonies]).all():
        raise RuntimeError("ICA invariant violated: an imperialist is weaker than one of its colonies")
