"""Imperialist competitive search over box-bounded allocations.

Countries are candidate allocations; the best ones become imperialists
and the rest are divided among them as colonies in proportion to
normalized power.  Each iteration: colonies drift toward their
imperialist (assimilation), some are randomly redrawn (revolution), a
colony that overtakes its imperialist swaps roles (exchange), and the
weakest empire loses its weakest colony to a roulette-selected rival
(competition), collapsing once it has none left; a newcomer that overtakes
the rival's imperialist takes its seat, as a second exchange would.

A row is one (level, seed) pair of a run, and all rows evolve together: for
S rows of N countries over n assets, positions (S, N, n) and costs (S, N),
each country's empire label owner (S, N), each empire's ruling country
imperialist (S, K) and alive flag (S, K), the running rows active (S,), and
each row's stream (S,), its index into the block's generators, one per
distinct seed.  owner and imperialist are block-wide: row s's labels are
s K ... s K + K - 1 and its countries s N ... s N + N - 1, so each names its
row.  The phases only move countries or relabel empires; ``run`` alone
evaluates costs, each from its row's coefficients and floor, in one batch of
all rows each time: every country after initialization, then the countries
each move changed.  A row never depends on the rows it runs with: a random
phase draws once per generator for the rows of its stream (see ``draw``), and
every reduction and cost runs over its row alone.  A row left with one empire
stops.  Costs are minimized (cost = -penalized objective): lower is stronger.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ValidationError, is_finite, is_number, shown
from .model import MAX_DRAW_BYTES, DeterministicLP, _row_sums
from .penalty import penalized_objective_batch, penalized_objective_bound, repair

__all__ = ["IcaConfig", "RunReport", "initialize", "form_empires", "draw", "assimilate", "revolve", "exchange",
           "compete", "refuse", "run"]

# a colony moves by up to twice its distance to the imperialist on each
# axis, so it can overshoot it (Atashpaz-Gargari & Lucas, 2007)
ASSIMILATION_BETA = 2.0

# most (level, seed) rows evolved together; it bounds memory and cannot change a result
ROW_BLOCK = 128

# what an IcaConfig field holds, by the type of its default: numpy scalars pass, and a bool is no number
_KINDS = {int: ("an integer", lambda v: is_number(v, numbers.Integral)), float: ("a real number", is_number),
          bool: ("a bool", lambda v: isinstance(v, (bool, np.bool_)))}


@dataclass(frozen=True)
class IcaConfig:
    n_countries: int = 100
    n_imperialists: int = 10
    revolution_rate: float = 0.2
    max_iterations: int = 25
    epsilon: float = 0.05
    # the budget penalty factor F and whether the return floor is charged too (at
    # penalty.INEQ_FACTOR); both charges are quadratic and deliberately mild: the answer
    # is budget-repaired anyway, and a heavy equality penalty makes cost differences
    # reflect budget noise instead of allocation quality, which measurably stalls the
    # search.  F caps its budget drift near max(c) / (2F), about 1% of the worked example's budget.
    eq_factor: float = 0.5
    enforce_threshold: bool = False

    def __post_init__(self):
        # every field's type, as its default declares it, before a rule compares the field
        for f in fields(self):
            (what, holds), value = _KINDS[type(f.default)], getattr(self, f.name)
            if not holds(value):
                raise ValidationError(f"{f.name} must be {what}, got {shown(value, repr)}", field=f.name)
        rules = (
            ("eq_factor", is_finite(self.eq_factor) and self.eq_factor > 0, "must be finite and positive"),
            ("n_imperialists", self.n_imperialists >= 1, "must be at least 1"),
            ("n_countries", self.n_countries > self.n_imperialists,
             f"must exceed n_imperialists ({shown(self.n_imperialists)})"),
            ("revolution_rate", 0.0 <= self.revolution_rate <= 1.0, "must lie in [0, 1]"),
            ("epsilon", 0.0 < self.epsilon < 0.1, "must lie in (0, 0.1)"),
            ("max_iterations", self.max_iterations >= 0, "must be nonnegative"),
        )
        for name, ok, rule in rules:
            if not ok:
                raise ValidationError(f"{name} {rule}, got {shown(getattr(self, name))}", field=name)


@dataclass(frozen=True)
class RunReport:
    """Outcome of one (level, seed) row's run.

    ``best_position`` is the budget-repaired best of the positions the
    row reached, each evaluated once, when it was reached, and
    ``best_objective`` its plain (unpenalized) objective;
    ``best_cost`` is the raw internal cost of the unrepaired best.
    ``history`` (T, 2) holds the best cost so far (column 0) and the
    number of empires (column 1) after each of the T iterations.
    """

    best_position: np.ndarray
    best_cost: float
    best_objective: float
    history: np.ndarray
    seed: int


def initialize(config: IcaConfig, bounds: np.ndarray, generators: Sequence[np.random.Generator], stream: np.ndarray):
    """Draw positions uniformly inside the box once per generator, each row its stream's: positions (S, N, n)."""
    return np.stack([rng.uniform(0.0, bounds, size=(config.n_countries, bounds.size)) for rng in generators])[stream]


def form_empires(costs: np.ndarray, config: IcaConfig, generators: Sequence[np.random.Generator], stream: np.ndarray):
    """Split each row's population into empires with power-proportional colony counts, one colony permutation
    per generator for the rows of its stream: block-wide owner (S, N) and imperialist (S, K), seat k the k-th best."""
    (s, m), k = costs.shape, config.n_imperialists
    permutations = np.stack([rng.permutation(m - k) for rng in generators])
    ranked = np.argsort(costs, axis=1, kind="stable")
    imperialist, colonists = ranked[:, :k], np.take_along_axis(ranked[:, k:], permutations[stream], axis=1)
    counts = _largest_remainder(_power_shares(np.take_along_axis(costs, imperialist, axis=1)), m - k)
    owner = np.empty((s, m), dtype=np.intp)
    np.put_along_axis(owner, imperialist, np.arange(k), axis=1)
    # each row's colonists, in its permuted order, take label 0 counts[0] times, then label 1, and so on
    np.put_along_axis(owner, colonists, np.repeat(np.tile(np.arange(k), s), counts.ravel()).reshape(s, m - k), axis=1)
    rows = np.arange(s)[:, None]
    return owner + k * rows, imperialist + m * rows


def _power_shares(costs: np.ndarray) -> np.ndarray:
    # along the last axis, normalized cost c_n - max(c); both it and its sum
    # are <= 0, so the shares are nonnegative and sum to 1.  All-equal costs
    # would divide zero by zero; they get uniform shares.
    normalized = costs - costs.max(axis=-1, keepdims=True)
    total = normalized.sum(axis=-1, keepdims=True)
    return np.divide(normalized, total, out=np.full(costs.shape, 1.0 / costs.shape[-1]), where=total != 0.0)


def _largest_remainder(shares: np.ndarray, total: int) -> np.ndarray:
    # along the last axis, floor the quotas, then hand out the leftover by
    # descending fractional part so the counts sum to the colony pool exactly
    quotas = shares * total
    counts = np.floor(quotas).astype(int)
    order = np.argsort(-(quotas - counts), axis=-1, kind="stable")
    leftover = np.arange(order.shape[-1]) < total - counts.sum(axis=-1, keepdims=True)  # by place in the order
    np.put_along_axis(counts, order, np.take_along_axis(counts, order, axis=-1) + leftover, axis=-1)
    return counts


def _rulers(owner: np.ndarray, imperialist: np.ndarray) -> np.ndarray:
    """The block-wide index of the imperialist ruling each country (S, N); an imperialist rules itself."""
    return imperialist.take(owner)


def _colonies(owner: np.ndarray, imperialist: np.ndarray) -> np.ndarray:
    """Which countries are colonies (S, N)."""
    return _rulers(owner, imperialist) != np.arange(owner.size).reshape(owner.shape)


def _draw_size(n_countries: int, n: int) -> int:
    """How many numbers ``draw`` takes from a generator per iteration."""
    return 1 + n_countries * (2 * n + 1)


def draw(generators: Sequence[np.random.Generator], stream: np.ndarray, active: np.ndarray, n_countries: int, n: int):
    """Draw one iteration's numbers, one ``random(1 + N(2n + 1))`` per generator with an active
    row, which the active rows of its stream share: the roulette numbers (S,), then per country the
    assimilation steps (S, N, n), revolution trials (S, N) and fresh positions in the unit box
    (S, N, n), unused for imperialists.  An inactive row gets zeros; a generator with none active
    draws nothing."""
    u = np.zeros((len(generators) + 1, _draw_size(n_countries, n)))  # a row per generator, then the zero row
    for g in set(stream[active].tolist()):  # the generators are independent: any order draws the same
        generators[g].random(out=u[g])
    u = u.take(np.where(active, stream, len(generators)), axis=0)
    grid = u[:, 1:].reshape(len(stream), n_countries, 2 * n + 1)
    return u[:, 0], grid[..., :n], grid[..., n], grid[..., n + 1:]


def assimilate(positions: np.ndarray, rulers: np.ndarray, moving: np.ndarray, steps, bounds) -> None:
    """Move each country flagged in ``moving`` (S, N) toward its ruler by the given steps, in place."""
    s, m, n = positions.shape
    moved = positions.reshape(s * m, n).take(rulers, axis=0)  # the targets, moved in place
    np.subtract(moved, positions, out=moved)
    np.multiply(moved, ASSIMILATION_BETA * steps, out=moved)
    np.add(moved, positions, out=moved)
    np.clip(moved, 0.0, bounds, out=positions, where=np.repeat(moving[..., None], n, axis=2))


def revolve(positions: np.ndarray, chosen: np.ndarray, fresh: np.ndarray, bounds) -> None:
    """Replace each country flagged in ``chosen`` (S, N) by its fresh position in the
    unit box scaled to the bounds, in place."""
    at = np.divmod(np.flatnonzero(chosen), chosen.shape[1])  # rows and columns, cheaper than a 2-D mask
    positions[at] = bounds * fresh[at]


def exchange(costs: np.ndarray, owner: np.ndarray, imperialist: np.ndarray) -> None:
    """Seat each empire's best colony as its imperialist if that colony is
    strictly better, in place; the lowest index wins a tie among colonies."""
    s, k = imperialist.shape
    # each colony carries its empire's label, every imperialist the spare label
    # s * k; on flat operands ufunc.at takes numpy's fast path
    labels = np.where(_colonies(owner, imperialist), owner, s * k).ravel()
    flat_costs = costs.ravel()
    lowest = np.full(s * k + 1, np.inf)
    np.minimum.at(lowest, labels, flat_costs)
    tied = np.flatnonzero(flat_costs == lowest[labels])
    first = np.full(s * k + 1, costs.size)
    np.minimum.at(first, labels[tied], tied)
    lowest, first = lowest[:-1].reshape(s, k), first[:-1].reshape(s, k)
    swap = lowest < costs.take(imperialist)
    imperialist[swap] = first[swap]


def _powers(costs, owner, imperialist, colony: np.ndarray, config: IcaConfig) -> np.ndarray:
    """Total cost of each empire (S, K), given which countries are colonies (S, N); higher means weaker."""
    s, k = imperialist.shape
    labels = owner.ravel()
    # bincount adds each label's weights in index order, so every empire's
    # colony sum runs left to right over that row's countries alone
    sums = np.bincount(labels, np.where(colony, costs, 0.0).ravel(), s * k).reshape(s, k)
    counts = np.bincount(labels, colony.ravel(), s * k).reshape(s, k)
    ruler = costs.take(imperialist)
    return np.where(counts > 0, ruler + config.epsilon * (sums / np.maximum(counts, 1)), ruler)


def compete(costs, owner, imperialist, alive, roulette: np.ndarray, config: IcaConfig) -> None:
    """In every row with two or more empires, move the weakest
    empire's weakest colony to a roulette winner, in place.

    The weakest empire is the first of largest power; it loses its first
    colony of highest cost and takes no part in the roulette.  Left with
    no colonies it collapses, its imperialist joining the winner.  compete
    runs after ``exchange``, so every live imperialist is at least as
    strong as each of its colonies.  Only the winner gains countries, so
    an exchange after it could only seat one of the winner's newcomers:
    compete seats the first of lowest cost if it is strictly better than
    the winner's imperialist.
    """
    rows, k = np.arange(len(alive)), alive.shape[1]
    colony = _colonies(owner, imperialist)
    powers = _powers(costs, owner, imperialist, colony, config)
    weakest = np.where(alive, powers, -np.inf).argmax(axis=1)
    candidate = alive.copy()
    candidate[rows, weakest] = False
    # a candidate's weight is how far its power lies below the weakest
    # candidate's (all 1 when the powers are equal); the first candidate
    # whose running total exceeds roulette x total wins, and one always
    # does, as the total exceeds its product with any number below 1
    top = np.where(candidate, powers, -np.inf).max(axis=1, keepdims=True)
    running = np.cumsum(np.where(candidate, top - powers, 0.0), axis=1)
    running = np.where(running[:, -1:] == 0.0, np.cumsum(candidate, axis=1), running)
    winner = (candidate & (running > roulette[:, None] * running[:, -1:])).argmax(axis=1)

    loser, winner = k * rows + weakest, k * rows + winner  # row r's empire labels start at K r
    lost = (owner == loser[:, None]) & colony
    worst = np.where(lost, costs, -np.inf).argmax(axis=1) + owner.shape[1] * rows  # a block-wide country
    contested, n_lost = alive.sum(axis=1) > 1, lost.sum(axis=1)
    moves, fall = contested & (n_lost > 0), contested & (n_lost <= 1)
    fallen = imperialist.take(loser)
    owner.put(worst[moves], winner[moves])
    owner.put(fallen[fall], winner[fall])
    alive.put(loser[fall], False)
    # the newcomers' costs, inf for one not gained; the lower index wins a tie
    flat = costs.ravel()
    worst_cost, fallen_cost = np.where(moves, flat.take(worst), np.inf), np.where(fall, flat.take(fallen), np.inf)
    newcomer = np.where((fallen_cost < worst_cost) | ((fallen_cost == worst_cost) & (fallen < worst)), fallen, worst)
    seat = np.minimum(worst_cost, fallen_cost) < flat.take(imperialist.take(winner))
    imperialist.put(winner[seat], newcomer[seat])


def refuse(lp: DeterministicLP, config: IcaConfig, n_rows: int) -> None:
    """Raise the ValidationError ``run`` would raise for n_rows (level, seed) rows at lp, one level
    or L, in this order: a draw buffer's size or 4 n_countries past the float range, a row block
    whose draw buffer would exceed MAX_DRAW_BYTES, and a level's box in which a cost could overflow."""
    size = 8 * min(n_rows, ROW_BLOCK) * _draw_size(config.n_countries, lp.n)
    if not is_finite(max(size, 4 * config.n_countries)):  # the checks below take both as floats
        raise ValidationError("n_countries: the count is too large for float arithmetic", field="n_countries")
    if size > MAX_DRAW_BYTES:
        raise ValidationError(f"n_countries: {config.n_countries} countries of {lp.n} assets need a "
                              f"{size / 2**30:.1f} GiB draw buffer, above the {MAX_DRAW_BYTES / 2**30:.0f} GiB limit",
                              field="n_countries")
    # power shares and empire powers sum up to n_countries costs or cost
    # differences, each at most twice the largest cost in magnitude
    if not math.isfinite(4.0 * config.n_countries * penalized_objective_bound(lp, config)):
        raise ValidationError("the penalized objective overflows inside the box; rescale the instance for the ICA solver")


def run(lp: DeterministicLP, config: IcaConfig = IcaConfig(), seeds: Sequence[int] = (0,)) -> list[RunReport]:
    """One search per (level, seed) row of lp, one level or L; the reports
    come level by level, each in the order of ``seeds``, duplicates included.

    Rows evolve together in blocks of at most ROW_BLOCK.  Each phase
    evaluates only the countries it moved, and the global best of a row
    is tracked across every cost evaluation, so positions visited and then
    lost to revolution still count.  The returned allocation is the
    repaired best, one repair call per block.  Before it starts any block,
    run rejects seeds other than a sequence of non-negative integers, then
    makes the refusals of ``refuse``.
    """
    if not (isinstance(seeds, Sequence) and all(is_number(s, numbers.Integral) and s >= 0 for s in seeds)):
        raise ValidationError(f"seeds must be a sequence of non-negative integers, got {shown(seeds, repr):.60}",
                              field="seeds")
    rows = np.arange(np.size(lp.threshold) * len(seeds))  # one threshold per level, a float at one level
    refuse(lp, config, rows.size)
    return [report for start in range(0, rows.size, ROW_BLOCK)
            for report in _run_block(lp, config, seeds, rows[start:start + ROW_BLOCK])]


def _run_block(lp: DeterministicLP, config: IcaConfig, seeds, block) -> list[RunReport]:
    level, seed_index = np.divmod(block, len(seeds))  # run row r: level r // S at seed seeds[r % S]
    block_seeds = [seeds[i] for i in seed_index.tolist()]
    stream_of = {}  # each distinct seed's generator index, in order of first appearance
    stream = np.array([stream_of.setdefault(seed, len(stream_of)) for seed in block_seeds], dtype=np.intp)
    generators = [np.random.default_rng(seed) for seed in stream_of]
    coefficients, thresholds = lp.coefficients.reshape(-1, lp.n)[level], np.reshape(lp.threshold, -1)[level]
    bounds, s, m, n = lp.upper_bounds, len(block), config.n_countries, lp.n
    box = np.tile(bounds, (m, 1))  # (N, n), so the clip and the box check run over whole rows of countries
    rows = np.arange(s)
    countries = np.arange(s * m).reshape(s, m)  # each country's block-wide index
    best_cost, best_position = np.full(s, np.inf), np.zeros((s, n))
    positions = initialize(config, bounds, generators, stream)
    costs = np.empty((s, m))

    def tracked(moved: np.ndarray) -> None:
        # the flagged countries (S, N) of all rows in one 2-D batch at their rows' levels,
        # through the module global so a traced or patched binding is used
        index = np.flatnonzero(moved)
        if index.size == 0:
            return
        x = positions.reshape(s * m, n).take(index, axis=0)
        row = index // m
        costs.put(index, -penalized_objective_batch(coefficients.take(row, axis=0), x, thresholds.take(row),
                                                    lp.total_fund, config))
        i = costs.argmin(axis=1)
        better = costs[rows, i] < best_cost
        best_cost[better] = costs[rows, i][better]
        best_position[better] = positions[rows[better], i[better]]

    tracked(np.ones((s, m), dtype=bool))
    owner, imperialist = form_empires(costs, config, generators, stream)
    alive = np.ones(imperialist.shape, dtype=bool)
    active = np.ones(s, dtype=bool)
    # every row's best cost and empire count after each iteration, and the iterations it ran
    history, lengths = [], np.zeros(s, dtype=int)
    for iteration in range(1, config.max_iterations + 1):
        roulette, steps, trials, fresh = draw(generators, stream, active, m, n)
        rulers = _rulers(owner, imperialist)
        moving = (rulers != countries) & active[:, None]
        assimilate(positions, rulers, moving, steps, box)
        tracked(moving)
        revolting = moving & (trials < config.revolution_rate)
        revolve(positions, revolting, fresh, bounds)
        tracked(revolting)
        exchange(costs, owner, imperialist)
        compete(costs, owner, imperialist, alive, roulette, config)
        n_empires = alive.sum(axis=1)
        history.append(np.stack([best_cost, n_empires], axis=1))
        lengths[active] = iteration
        _check_invariants(positions, costs, owner, imperialist, alive, box)
        active &= n_empires > 1
        if not active.any():
            break

    history = np.array(history).reshape(-1, s, 2)
    repaired = repair(best_position, lp.total_fund, bounds)
    with np.errstate(over="ignore", invalid="ignore"):  # as model.objective
        objectives = _row_sums(coefficients * repaired).tolist()
    return [RunReport(x, float(best_cost[i]), objectives[i], history[:t, i].copy(), seed)
            for i, (x, seed, t) in enumerate(zip(repaired, block_seeds, lengths))]


def _check_invariants(positions, costs, owner, imperialist, alive, bounds) -> None:
    # explicit raises rather than asserts, so the checks also run under python -O; each row check comes first,
    # as a label or seat past the block would not gather, a negative one would wrap, and one of another row is wrong
    rows = np.arange(len(owner))[:, None]
    if not ((owner // alive.shape[1] == rows).all() and alive.take(owner).all()):
        raise RuntimeError("ICA invariant violated: a country belongs to no live empire of its row")
    if not ((imperialist // owner.shape[1] == rows).all()
            and (owner.take(imperialist) == np.arange(alive.size).reshape(alive.shape))[alive].all()):
        raise RuntimeError("ICA invariant violated: an imperialist does not belong to its own empire")
    if not ((positions >= 0.0).all() and (positions <= bounds).all()):
        raise RuntimeError("ICA invariant violated: a country lies outside the box")
    if not (costs.take(_rulers(owner, imperialist)) <= costs).all():
        raise RuntimeError("ICA invariant violated: an imperialist is weaker than one of its colonies")
