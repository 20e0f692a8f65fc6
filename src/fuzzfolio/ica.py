"""Imperialist competitive search over box-bounded allocations.

Countries are candidate allocations; the best ones become imperialists
and the rest are divided among them as colonies in proportion to
normalized power.  Each iteration: colonies drift toward their
imperialist (assimilation), some are randomly redrawn (revolution), a
colony that overtakes its imperialist swaps roles (exchange), and the
weakest empire loses its weakest colony to a roulette-selected rival
(competition), collapsing once it has none left.

All seeds of a run evolve together: for S seeds of N countries over n
assets, positions (S, N, n) and costs (S, N), each country's empire
label owner (S, N), each empire's ruling country imperialist (S, K) and
alive flag (S, K), and the running seeds active (S,).  The phases only
move countries or relabel empires; ``run`` alone evaluates costs, one
batch of all seeds after initialization and after each move.  A seed's
results never depend on the seeds it runs with: it has its own generator
(one draw per iteration, see ``draw``), every reduction runs over its
row alone, and costs are computed row by row.  A seed left with one
empire stops.  Costs are minimized (cost = -penalized objective): lower
is stronger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .model import DeterministicLP, objective
from .penalty import PenaltyConfig, penalized_objective_batch, penalized_objective_bound, repair

__all__ = [
    "IcaConfig",
    "RunReport",
    "initialize",
    "form_empires",
    "draw",
    "assimilate",
    "revolve",
    "exchange",
    "compete",
    "refuse",
    "run",
]

# a colony moves by up to twice its distance to the imperialist on each
# axis, so it can overshoot it (Atashpaz-Gargari & Lucas, 2007)
ASSIMILATION_BETA = 2.0

# most seeds evolved together; it bounds memory and cannot change a result
SEED_BLOCK = 64

# largest draw buffer of one seed block, in bytes; refuse rejects a larger one
MAX_DRAW_BYTES = 2 * 2**30


@dataclass(frozen=True)
class IcaConfig:
    n_countries: int = 100
    n_imperialists: int = 10
    revolution_rate: float = 0.2
    max_iterations: int = 25
    epsilon: float = 0.05

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
class RunReport:
    """Outcome of one seed's run.

    ``best_position`` is the budget-repaired best allocation ever
    evaluated and ``best_objective`` its plain (unpenalized) objective;
    ``best_cost`` is the raw internal cost of the unrepaired best.
    ``history`` (T, 2) holds the best cost so far (column 0) and the
    number of empires (column 1) after each of the T iterations.
    """

    best_position: np.ndarray
    best_cost: float
    best_objective: float
    history: np.ndarray
    seed: int


def initialize(config: IcaConfig, bounds: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Draw each seed's positions uniformly inside the box: positions (S, N, n)."""
    return np.stack([rng.uniform(0.0, bounds, size=(config.n_countries, bounds.size)) for rng in rngs])


def form_empires(costs: np.ndarray, config: IcaConfig, rngs: Sequence[np.random.Generator]):
    """Split each seed's population into empires with power-proportional colony
    counts: owner (S, N), and imperialist (S, K) whose k-th is the k-th best country."""
    k = config.n_imperialists
    owner = np.empty(costs.shape, dtype=np.intp)
    imperialist = np.empty((len(rngs), k), dtype=np.intp)
    for s, rng in enumerate(rngs):
        ranked = np.argsort(costs[s], kind="stable")
        imperialist[s] = ranked[:k]
        owner[s, ranked[:k]] = np.arange(k)
        colonists = ranked[k:]
        counts = _largest_remainder(_power_shares(costs[s, ranked[:k]]), colonists.size)
        owner[s, colonists[rng.permutation(colonists.size)]] = np.repeat(np.arange(k), counts)
    return owner, imperialist


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
    order = np.argsort(-(quotas - counts), kind="stable")
    counts[order[: total - int(counts.sum())]] += 1
    return counts.tolist()


def _rulers(owner: np.ndarray, imperialist: np.ndarray) -> np.ndarray:
    """The imperialist ruling each country (S, N); an imperialist rules itself."""
    return np.take_along_axis(imperialist, owner, axis=1)


def _colonies(owner: np.ndarray, imperialist: np.ndarray) -> np.ndarray:
    """Which countries are colonies (S, N)."""
    return _rulers(owner, imperialist) != np.arange(owner.shape[1])


def draw(rngs: Sequence[np.random.Generator], active: np.ndarray, n_countries: int, n: int):
    """Draw one iteration's numbers, one ``random(1 + N(2n + 1))`` per active seed: the
    roulette numbers (S,), then per country the assimilation steps (S, N, n), revolution
    trials (S, N) and fresh positions in the unit box (S, N, n), unused for imperialists.
    An inactive seed draws nothing and gets zeros."""
    u = np.zeros((len(rngs), 1 + n_countries * (2 * n + 1)))
    for s in np.flatnonzero(active):
        rngs[s].random(out=u[s])
    grid = u[:, 1:].reshape(len(rngs), n_countries, 2 * n + 1)
    return u[:, 0], grid[..., :n], grid[..., n], grid[..., n + 1:]


def assimilate(positions: np.ndarray, rulers: np.ndarray, moving: np.ndarray, steps, bounds) -> None:
    """Move each country flagged in ``moving`` (S, N) toward its ruler by the given steps, in place."""
    target = np.take_along_axis(positions, rulers[..., None], axis=1)
    moved = positions + ASSIMILATION_BETA * steps * (target - positions)
    np.clip(moved, 0.0, bounds, out=moved)
    np.copyto(positions, moved, where=moving[..., None])


def revolve(positions: np.ndarray, chosen: np.ndarray, fresh: np.ndarray) -> None:
    """Replace each country flagged in ``chosen`` (S, N) by its fresh position, in place."""
    np.copyto(positions, fresh, where=chosen[..., None])


def exchange(costs: np.ndarray, owner: np.ndarray, imperialist: np.ndarray) -> None:
    """Seat each empire's best colony as its imperialist if that colony is
    strictly better, in place; the lowest index wins a tie among colonies."""
    labels = np.arange(imperialist.shape[1])[:, None]
    member = (owner[:, None, :] == labels) & _colonies(owner, imperialist)[:, None, :]
    colony_costs = np.where(member, costs[:, None, :], np.inf)
    best = colony_costs.argmin(axis=2)
    swap = colony_costs.min(axis=2) < np.take_along_axis(costs, imperialist, axis=1)
    imperialist[swap] = best[swap]


def _powers(costs: np.ndarray, owner: np.ndarray, imperialist: np.ndarray, config: IcaConfig) -> np.ndarray:
    """Total cost of each empire (S, K); higher means weaker."""
    s, k = imperialist.shape
    colony = _colonies(owner, imperialist)
    labels = (owner + k * np.arange(s)[:, None]).ravel()
    # bincount adds each label's weights in index order, so every empire's
    # colony sum runs left to right over that seed's countries alone
    sums = np.bincount(labels, np.where(colony, costs, 0.0).ravel(), s * k).reshape(s, k)
    counts = np.bincount(labels, colony.ravel(), s * k).reshape(s, k)
    ruler = np.take_along_axis(costs, imperialist, axis=1)
    return np.where(counts > 0, ruler + config.epsilon * (sums / np.maximum(counts, 1)), ruler)


def compete(costs, owner, imperialist, alive, roulette: np.ndarray, config: IcaConfig) -> None:
    """In every seed with two or more empires, move the weakest
    empire's weakest colony to a roulette winner, in place.

    The weakest empire is the first of largest power; it loses its first
    colony of highest cost and takes no part in the roulette.  Left with
    no colonies it collapses, its imperialist joining the winner.
    """
    rows = np.flatnonzero(alive.sum(axis=1) > 1)
    powers, live = _powers(costs, owner, imperialist, config)[rows], alive[rows]
    weakest = np.where(live, powers, -np.inf).argmax(axis=1)
    candidate = live.copy()
    candidate[np.arange(rows.size), weakest] = False
    # a candidate's weight is how far its power lies below the weakest
    # candidate's (all 1 when the powers are equal); the first candidate
    # whose running total exceeds roulette x total wins, and one always
    # does, as the total exceeds its product with any number below 1
    top = np.where(candidate, powers, -np.inf).max(axis=1, keepdims=True)
    running = np.cumsum(np.where(candidate, top - powers, 0.0), axis=1)
    running = np.where(running[:, -1:] == 0.0, np.cumsum(candidate, axis=1), running)
    winner = (candidate & (running > roulette[rows, None] * running[:, -1:])).argmax(axis=1)

    lost = (owner[rows] == weakest[:, None]) & _colonies(owner, imperialist)[rows]
    worst = np.where(lost, costs[rows], -np.inf).argmax(axis=1)
    moves = lost.any(axis=1)
    owner[rows[moves], worst[moves]] = winner[moves]
    fall = lost.sum(axis=1) <= 1
    owner[rows[fall], imperialist[rows[fall], weakest[fall]]] = winner[fall]
    alive[rows[fall], weakest[fall]] = False


def refuse(lp: DeterministicLP, penalty_cfg: PenaltyConfig, ica_cfg: IcaConfig, n_seeds: int) -> None:
    """Raise the ValidationError ``run`` would raise for n_seeds seeds at the
    one-level lp, in this order: a seed block whose draw buffer would
    exceed MAX_DRAW_BYTES, and a box in which a cost could overflow."""
    size = 8 * min(n_seeds, SEED_BLOCK) * (1 + ica_cfg.n_countries * (2 * lp.n + 1))
    if size > MAX_DRAW_BYTES:
        raise ValidationError(f"n_countries: {ica_cfg.n_countries} countries of {lp.n} assets need a "
                              f"{size / 2**30:.1f} GiB draw buffer, above the {MAX_DRAW_BYTES / 2**30:.0f} GiB limit")
    # power shares and empire powers sum up to n_countries costs or cost
    # differences, each at most twice the largest cost in magnitude
    if not math.isfinite(4.0 * ica_cfg.n_countries * penalized_objective_bound(lp, penalty_cfg)):
        raise ValidationError("the penalized objective overflows inside the box; rescale the instance for the ICA solver")


def run(lp: DeterministicLP, penalty_cfg: PenaltyConfig = PenaltyConfig(), ica_cfg: IcaConfig = IcaConfig(),
        seeds: Sequence[int] = (0,)) -> list[RunReport]:
    """One search per seed, deterministic given the seed; the reports come
    in the order of ``seeds``, duplicates included.

    Seeds evolve together in blocks of at most SEED_BLOCK.  The global
    best of a seed is tracked across every cost evaluation, so positions
    visited and then lost to revolution still count.  The returned
    allocation is the repaired best.  Before it starts any block, run
    refuses an LP with a level axis (ValueError), then makes the
    refusals of ``refuse``.
    """
    if lp.coefficients.ndim != 1:
        raise ValueError(f"ica.run takes a one-level LP, got coefficients of shape {lp.coefficients.shape} "
                         "with a level axis; pass lp[i]")
    refuse(lp, penalty_cfg, ica_cfg, len(seeds))
    reports = []
    for start in range(0, len(seeds), SEED_BLOCK):
        reports += _run_block(lp, penalty_cfg, ica_cfg, seeds[start:start + SEED_BLOCK])
    return reports


def _run_block(lp: DeterministicLP, penalty_cfg: PenaltyConfig, ica_cfg: IcaConfig, seeds) -> list[RunReport]:
    rngs = [np.random.default_rng(seed) for seed in seeds]
    bounds = lp.upper_bounds
    s, m, n = len(seeds), ica_cfg.n_countries, lp.n
    rows = np.arange(s)
    best_cost = np.full(s, np.inf)
    best_position = np.zeros((s, n))

    def tracked(x: np.ndarray) -> np.ndarray:
        # one 2-D batch of all seeds, a module global so a traced or patched binding is used
        costs = -penalized_objective_batch(lp, x.reshape(s * m, n), penalty_cfg).reshape(s, m)
        i = costs.argmin(axis=1)
        better = costs[rows, i] < best_cost
        best_cost[better] = costs[rows, i][better]
        best_position[better] = x[rows[better], i[better]]
        return costs

    positions = initialize(ica_cfg, bounds, rngs)
    costs = tracked(positions)
    owner, imperialist = form_empires(costs, ica_cfg, rngs)
    alive = np.ones(imperialist.shape, dtype=bool)
    active = np.ones(s, dtype=bool)
    # every seed's best cost and empire count after each iteration, and the iterations it ran
    history, lengths = [], np.zeros(s, dtype=int)
    for iteration in range(1, ica_cfg.max_iterations + 1):
        roulette, steps, trials, fresh = draw(rngs, active, m, n)
        rulers = _rulers(owner, imperialist)
        moving = (rulers != np.arange(m)) & active[:, None]
        assimilate(positions, rulers, moving, steps, bounds)
        costs = tracked(positions)
        revolve(positions, moving & (trials < ica_cfg.revolution_rate), bounds * fresh)
        costs = tracked(positions)
        exchange(costs, owner, imperialist)
        compete(costs, owner, imperialist, alive, roulette, ica_cfg)
        exchange(costs, owner, imperialist)
        n_empires = alive.sum(axis=1)
        history.append(np.stack([best_cost, n_empires], axis=1))
        lengths[active] = iteration
        _check_invariants(positions, costs, owner, imperialist, alive, bounds)
        active &= n_empires > 1
        if not active.any():
            break

    history = np.array(history).reshape(-1, s, 2)
    reports = []
    for i, (seed, t) in enumerate(zip(seeds, lengths)):
        x = repair(best_position[i], lp.total_fund, bounds)
        reports.append(RunReport(x, float(best_cost[i]), objective(lp, x), history[:t, i].copy(), seed))
    return reports


def _check_invariants(positions, costs, owner, imperialist, alive, bounds) -> None:
    # explicit raises rather than asserts, so the checks also run under python -O
    k = alive.shape[1]
    if not (((owner >= 0) & (owner < k)).all() and np.take_along_axis(alive, owner, axis=1).all()):
        raise RuntimeError("ICA invariant violated: a country belongs to no live empire of its seed")
    if not (np.take_along_axis(owner, imperialist, axis=1) == np.arange(k))[alive].all():
        raise RuntimeError("ICA invariant violated: an imperialist does not belong to its own empire")
    if not ((positions >= 0.0).all() and (positions <= bounds).all()):
        raise RuntimeError("ICA invariant violated: a country lies outside the box")
    if not (np.take_along_axis(costs, _rulers(owner, imperialist), axis=1) <= costs).all():
        raise RuntimeError("ICA invariant violated: an imperialist is weaker than one of its colonies")
