import dataclasses
import functools
import operator
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fuzzfolio import ica
from fuzzfolio.errors import ValidationError
from fuzzfolio.io import bundled_instance
from fuzzfolio.io import load_instance
from fuzzfolio.model import ConfidenceLevels, objective, reformulate, residuals
from fuzzfolio.oracle import solve_exact
from fuzzfolio.penalty import penalized_objective_batch
from instgen import random_instance
from referees import compete_rows, dual_bound, form_empires_rows, mask_exchange, scaled

U5 = np.full(5, 60.0)


@pytest.fixture(scope="module")
def lp01():
    return reformulate(bundled_instance("paper_table1"), ConfidenceLevels(0.1, 0.1))


def sum_cost(x):
    # toy cost independent of any LP: favors large total allocation
    x = np.asarray(x, float)
    return -x.sum(axis=-1)


def state(costs, *empires, n=2):
    """One seed with the given costs (positions all zero) and empires given
    as index lists, imperialist first: positions, costs, owner,
    imperialist and alive, each with a leading seed axis of 1."""
    costs = np.array([costs], dtype=float)
    owner = np.empty(costs.shape, dtype=np.intp)
    for k, empire in enumerate(empires):
        owner[0, empire] = k
    imperialist = np.array([[e[0] for e in empires]])
    return np.zeros((*costs.shape, n)), costs, owner, imperialist, np.ones(imperialist.shape, dtype=bool)


# --- config ----------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ica.IcaConfig(n_countries=10, n_imperialists=10)
    with pytest.raises(ValueError):
        ica.IcaConfig(revolution_rate=1.5)
    with pytest.raises(ValueError):
        ica.IcaConfig(epsilon=0.1)
    with pytest.raises(ValueError):
        ica.IcaConfig(epsilon=0.0)


@pytest.mark.parametrize("kwargs, field", [
    ({"n_imperialists": 0}, "n_imperialists"),
    ({"n_countries": 5, "n_imperialists": 10}, "n_countries"),
    ({"revolution_rate": float("nan")}, "revolution_rate"),
    ({"epsilon": float("nan")}, "epsilon"),
    ({"epsilon": 0.1}, "epsilon"),
    ({"max_iterations": -1}, "max_iterations"),
    # counts must be integers, not floats or bools
    ({"max_iterations": 2.5}, "max_iterations"),
    ({"n_countries": 20.0}, "n_countries"),
    ({"n_imperialists": 2.0}, "n_imperialists"),
    ({"max_iterations": True}, "max_iterations"),
    ({"n_countries": np.float64(20.0)}, "n_countries"),
    # every field's type is checked before a rule compares it, even when a rule names it first
    ({"n_countries": "5"}, "n_countries"),
    ({"n_imperialists": None}, "n_imperialists"),
    ({"max_iterations": None}, "max_iterations"),
    ({"epsilon": "a"}, "epsilon"),
    ({"revolution_rate": True}, "revolution_rate"),
    ({"eq_factor": None}, "eq_factor"),
    ({"eq_factor": np.bool_(True)}, "eq_factor"),
    ({"enforce_threshold": "no"}, "enforce_threshold"),
    ({"enforce_threshold": 1}, "enforce_threshold"),
    ({"enforce_threshold": None}, "enforce_threshold"),
    ({"eq_factor": 0.0, "n_countries": 2.5}, "n_countries"),
    # an int past the float range is no finite factor
    ({"eq_factor": 10**400}, "eq_factor"),
])
def test_config_errors_name_the_field(kwargs, field):
    with pytest.raises(ValidationError) as err:
        ica.IcaConfig(**kwargs)
    assert err.value.field == field
    assert field in str(err.value)


def test_config_accepts_numpy_integer_counts():
    cfg = ica.IcaConfig(n_countries=np.int64(20), n_imperialists=np.int32(2), max_iterations=np.int64(3))
    assert cfg.n_countries == 20


def test_config_accepts_numpy_scalars_and_integers_for_reals():
    cfg = ica.IcaConfig(revolution_rate=np.float32(0.5), epsilon=np.float64(0.01), eq_factor=2,
                        enforce_threshold=np.True_)
    assert (cfg.revolution_rate, cfg.epsilon, cfg.eq_factor, cfg.enforce_threshold) == (0.5, 0.01, 2, True)


@pytest.mark.parametrize("kwargs, message", [
    ({"n_countries": "5"}, "n_countries must be an integer, got '5'"),
    ({"epsilon": "a"}, "epsilon must be a real number, got 'a'"),
    ({"enforce_threshold": "no"}, "enforce_threshold must be a bool, got 'no'"),
    # the range rules keep their messages
    ({"n_imperialists": 0}, "n_imperialists must be at least 1, got 0"),
    ({"n_countries": 5, "n_imperialists": 10}, "n_countries must exceed n_imperialists (10), got 5"),
    ({"revolution_rate": 1.5}, "revolution_rate must lie in [0, 1], got 1.5"),
    ({"eq_factor": 0.0}, "eq_factor must be finite and positive, got 0.0"),
    # an int of more digits than Python writes as text is shown by its sign and bit length
    ({"eq_factor": 10**5000}, "eq_factor must be finite and positive, got an int of 16610 bits"),
    ({"max_iterations": -10**5000}, "max_iterations must be nonnegative, got a negative int of 16610 bits"),
    ({"n_imperialists": 10**5000}, "n_countries must exceed n_imperialists (an int of 16610 bits), got 100"),
    ({"enforce_threshold": 10**5000}, "enforce_threshold must be a bool, got an int of 16610 bits"),
])
def test_config_type_and_range_messages(kwargs, message):
    with pytest.raises(ValidationError) as err:
        ica.IcaConfig(**kwargs)
    assert str(err.value) == message


def test_paper_parameter_defaults():
    cfg = ica.IcaConfig()
    assert (cfg.n_countries, cfg.n_imperialists) == (100, 10)
    assert cfg.revolution_rate == 0.2
    assert cfg.max_iterations == 25
    assert 0.0 < cfg.epsilon < 0.1
    # the seed is an argument of run, not a config field
    assert [f.name for f in dataclasses.fields(cfg)] == [
        "n_countries", "n_imperialists", "revolution_rate", "max_iterations", "epsilon",
        "eq_factor", "enforce_threshold"]


# --- initialize --------------------------------------------------------------

def test_initialize_deterministic_and_bounded():
    cfg = ica.IcaConfig(n_countries=20, n_imperialists=3)
    pos_a = ica.initialize(cfg, U5, [np.random.default_rng(5), np.random.default_rng(6)], np.array([0, 1]))
    pos_b = ica.initialize(cfg, U5, [np.random.default_rng(5), np.random.default_rng(6)], np.array([0, 1]))
    assert pos_a.tobytes() == pos_b.tobytes()
    assert pos_a.shape == (2, 20, 5)
    assert np.all(pos_a >= 0) and np.all(pos_a <= U5)
    # each seed's rows come from its own generator
    assert pos_a[1].tobytes() == np.random.default_rng(6).uniform(0.0, U5, size=(20, 5)).tobytes()
    # rows holding one generator share its one draw, each row in its own copy
    rng = np.random.default_rng(5)
    shared = ica.initialize(cfg, U5, [rng], np.array([0, 0]))
    shared[0] += 1.0
    assert shared[1].tobytes() == pos_a[0].tobytes()
    twin = np.random.default_rng(5)
    twin.uniform(0.0, U5, size=(20, 5))
    assert rng.bit_generator.state == twin.bit_generator.state


def test_initialize_degenerate_box():
    cfg = ica.IcaConfig(n_countries=8, n_imperialists=2)
    positions = ica.initialize(cfg, np.zeros(3), [np.random.default_rng(0)], np.array([0]))
    assert np.all(positions == 0.0)


# --- empire formation -----------------------------------------------------------

def test_power_shares_example():
    shares = ica._power_shares(np.array([1.0, 2.0, 3.0]))
    assert shares == pytest.approx([2 / 3, 1 / 3, 0.0])


def test_power_shares_all_equal():
    shares = ica._power_shares(np.array([4.0, 4.0, 4.0, 4.0]))
    assert shares == pytest.approx([0.25] * 4)


def test_power_shares_random_vectors():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        costs = rng.normal(0.0, 10.0, size=int(rng.integers(2, 12)))
        shares = ica._power_shares(costs)
        assert np.all(shares >= 0)
        assert shares.sum() == pytest.approx(1.0)


def test_apportionment_sums_exactly():
    rng = np.random.default_rng(8)
    for _ in range(500):
        k = int(rng.integers(1, 12))
        raw = rng.uniform(0, 1, size=k)
        shares = raw / raw.sum()
        total = int(rng.integers(0, 200))
        counts = ica._largest_remainder(shares, total)
        assert sum(counts) == total
        assert all(c >= 0 for c in counts)
    # a tie in the remainders goes to the first share, also past the 16 entries that numpy's
    # quicksort insertion-sorts: weights 1, 2, 1, ..., 1 leave one colony for eight remainders of 0.44
    weights = np.array([1.0, 2.0] * 8 + [1.0])
    assert ica._largest_remainder(weights / weights.sum(), 18).tolist() == [1, 2] + [1] * 15


def test_form_empires_partition():
    cfg = ica.IcaConfig(n_countries=100, n_imperialists=10)
    costs = sum_cost(ica.initialize(cfg, U5, [np.random.default_rng(1)], np.array([0])))
    owner, imperialist = ica.form_empires(costs, cfg, [np.random.default_rng(2)], np.array([0]))
    assert owner.shape == (1, 100) and imperialist.shape == (1, 10)
    # empire k is ruled by the k-th best country and owns it
    assert imperialist[0].tolist() == np.argsort(costs[0], kind="stable")[:10].tolist()
    assert owner[0, imperialist[0]].tolist() == list(range(10))
    colonies = np.setdiff1d(np.arange(100), imperialist[0])
    counts = np.bincount(owner[0, colonies], minlength=10)
    assert counts.tolist() == ica._largest_remainder(ica._power_shares(costs[0, imperialist[0]]), 90).tolist()
    assert costs[0, imperialist[0]].max() <= costs[0, colonies].min()


def test_form_empires_gives_each_row_its_own_labels_and_seats():
    # rows 0 and 2 share seed 3's generator, as the rows of one seed in a block do
    cfg = ica.IcaConfig(n_countries=20, n_imperialists=4)
    seeds = [3, 4, 3]
    costs = sum_cost(ica.initialize(cfg, U5, [np.random.default_rng(s) for s in (1, 2, 5)], np.arange(3)))
    generators = {seed: np.random.default_rng(seed) for seed in seeds}
    owner, imperialist = ica.form_empires(costs, cfg, list(generators.values()), np.array([0, 1, 0]))
    rows = np.arange(3)[:, None]
    assert (owner // 4 == rows).all() and (imperialist // 20 == rows).all()
    for row, seed in enumerate(seeds):
        alone = ica.form_empires(costs[row:row + 1], cfg, [np.random.default_rng(seed)], np.array([0]))
        assert (owner[row] - 4 * row).tolist() == alone[0][0].tolist()
        assert (imperialist[row] - 20 * row).tolist() == alone[1][0].tolist()


def test_form_empires_is_the_row_referee():
    # integer costs tie often (some at -0.0), some rows are all equal, k runs from 1 to N - 1, and
    # generators repeat seeds; up to 299 seats, so the power shares' sums take numpy's pairwise blocks
    rng = np.random.default_rng(31)
    for trial in range(300):
        m = int(rng.integers(2, 40 if trial % 10 else 300))
        k = int([1, m - 1, rng.integers(1, m)][trial % 3])
        s = int(rng.integers(1, 7))
        costs = rng.integers(-3, 4, size=(s, m)).astype(float) if trial % 2 else rng.normal(0.0, 1e3, size=(s, m))
        costs[(costs == 0.0) & (rng.random((s, m)) < 0.5)] = -0.0
        costs[rng.random(s) < 0.2] = 2.5
        seeds = rng.integers(4, size=int(rng.integers(1, s + 1))).tolist()
        stream = rng.integers(len(seeds), size=s)
        config = ica.IcaConfig(n_countries=m, n_imperialists=k)
        got = [np.random.default_rng(seed) for seed in seeds]
        want = [np.random.default_rng(seed) for seed in seeds]
        owner, imperialist = ica.form_empires(costs, config, got, stream)
        want_owner, want_imperialist = form_empires_rows(costs, config, want, stream)
        assert owner.tobytes() == want_owner.tobytes() and imperialist.tobytes() == want_imperialist.tobytes()
        # each generator drew one permutation of the colonists, as the referee's did
        for a, b, seed in zip(got, want, seeds):
            once = np.random.default_rng(seed)
            once.permutation(m - k)
            assert a.bit_generator.state == b.bit_generator.state == once.bit_generator.state


def test_form_empires_single_imperialist():
    cfg = ica.IcaConfig(n_countries=7, n_imperialists=1)
    costs = np.array([[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]])
    owner, imperialist = ica.form_empires(costs, cfg, [np.random.default_rng(0)], np.array([0]))
    assert imperialist.tolist() == [[1]]  # the first of the two cost-1 countries
    assert owner.tolist() == [[0] * 7]


# --- draws -------------------------------------------------------------------------

def test_draw_follows_the_per_seed_stream():
    # one random(1 + N(2n + 1)) call per active seed: the roulette number,
    # then per country n steps, one revolution trial and n fresh coordinates
    n_countries, n = 6, 3
    active = np.array([True, False, True])
    for seed in range(20):
        rngs = [np.random.default_rng(seed + i) for i in range(3)]
        roulette, steps, trials, fresh = ica.draw(rngs, np.arange(3), active, n_countries, n)
        assert roulette.shape == (3,) and trials.shape == (3, 6)
        assert steps.shape == fresh.shape == (3, 6, 3)
        for i, rng in enumerate(rngs):
            ref = np.random.default_rng(seed + i)
            if active[i]:
                u = ref.random(1 + n_countries * (2 * n + 1))
                rows = u[1:].reshape(n_countries, 2 * n + 1)
                assert roulette[i] == u[0]
                assert steps[i].tolist() == rows[:, :n].tolist()
                assert trials[i].tolist() == rows[:, n].tolist()
                assert fresh[i].tolist() == rows[:, n + 1:].tolist()
            else:
                assert roulette[i] == 0.0 and not (steps[i].any() or trials[i].any() or fresh[i].any())
            # nothing more was drawn, and nothing at all for the inactive seed
            assert rng.random() == ref.random()
    # rows holding one generator share its one draw: an active row gets the seed's
    # numbers, a stopped row zeros, and the stream moves by exactly one draw
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    for active in ([True, False], [False, True], [True, True]):
        roulette, steps, trials, fresh = ica.draw([rng], np.array([0, 0]), np.array(active), n_countries, n)
        u = ref.random(1 + n_countries * (2 * n + 1))
        for i, on in enumerate(active):
            got = np.concatenate([roulette[i:i + 1], np.dstack([steps, trials[..., None], fresh])[i].ravel()])
            assert got.tobytes() == (u if on else np.zeros_like(u)).tobytes()
    ica.draw([rng], np.array([0, 0]), np.array([False, False]), n_countries, n)
    assert rng.random() == ref.random()


# --- assimilation / revolution ----------------------------------------------------

def test_assimilate_mirror_point_then_clamp():
    assert ica.ASSIMILATION_BETA == 2.0
    positions = np.array([[[50.0, 10.0], [10.0, 50.0], [20.0, 20.0]]])
    rulers = np.array([[0, 0, 0]])
    moving = np.array([[False, True, False]])
    # u = 1 everywhere: the colony lands at the mirror 2*imp - colony, clamped
    ica.assimilate(positions, rulers, moving, np.ones((1, 3, 2)), np.array([60.0, 60.0]))
    assert positions[0, 1].tolist() == [60.0, 0.0]  # (90, -30) clamped
    assert positions[0, 0].tolist() == [50.0, 10.0]
    assert positions[0, 2].tolist() == [20.0, 20.0]  # a colony not flagged stays


def test_assimilate_fixed_point_and_bounds():
    rng = np.random.default_rng(3)
    positions = np.array([[[30.0, 30.0], [30.0, 30.0], [0.0, 60.0]]])
    rulers = np.array([[0, 0, 0]])
    moving = np.array([[False, True, True]])
    for _ in range(25):
        ica.assimilate(positions, rulers, moving, rng.random((1, 3, 2)), np.array([60.0, 60.0]))
        assert positions[0, 1].tolist() == [30.0, 30.0]
        assert np.all(positions[0, 2] >= 0.0) and np.all(positions[0, 2] <= 60.0)


def test_revolve_rate_extremes():
    bounds = np.full(4, 10.0)
    colony = np.arange(7) > 0
    for rate, moved in ((0.0, False), (1.0, True)):
        positions = np.full((1, 7, 4), 5.0)
        _, _, trials, fresh = ica.draw([np.random.default_rng(0)], np.array([0]), np.array([True]), 7, 4)
        chosen = colony & (trials < rate)
        assert chosen[0].tolist() == [False] + [moved] * 6
        ica.revolve(positions, chosen, fresh, bounds)
        assert positions[0, 0].tolist() == [5.0] * 4
        assert all((p.tolist() != [5.0] * 4) == moved for p in positions[0, 1:])
        assert np.all(positions <= bounds)


def test_revolve_writes_the_chosen_countries_of_any_layout():
    rng = np.random.default_rng(6)
    chosen, fresh, bounds = rng.random((3, 7)) < 0.5, rng.random((3, 7, 4)), np.full(4, 2.0)
    want = rng.random((3, 7, 4))
    for positions in (want.copy(), np.asfortranarray(want), want.copy()[:, ::-1][:, ::-1]):
        ica.revolve(positions, chosen, fresh, bounds)
        assert positions.tolist() == np.where(chosen[..., None], bounds * fresh, want).tolist()


def test_revolve_deterministic():
    bounds = np.full(3, 10.0)

    def snapshot(seed):
        positions = np.full((1, 9, 3), 2.0)
        _, _, trials, fresh = ica.draw([np.random.default_rng(seed)], np.array([0]), np.array([True]), 9, 3)
        ica.revolve(positions, (np.arange(9) > 0) & (trials < 0.5), fresh, bounds)
        return positions.tobytes()

    assert snapshot(12) == snapshot(12)


# --- exchange / power / competition ------------------------------------------------

def test_exchange_rules():
    _, costs, owner, imperialist, _ = state([7.0, 7.0, 5.0], [0, 1, 2])
    ica.exchange(costs, owner, imperialist)
    assert imperialist.tolist() == [[2]]  # the better colony takes the seat
    assert owner.tolist() == [[0, 0, 0]]  # and the old imperialist stays, as a colony

    _, costs, owner, imperialist, _ = state([3.0, 4.0, 9.0], [0, 1, 2])
    ica.exchange(costs, owner, imperialist)
    assert imperialist.tolist() == [[0]]

    _, costs, owner, imperialist, _ = state([3.0, 3.0], [0, 1])
    ica.exchange(costs, owner, imperialist)
    assert imperialist.tolist() == [[0]]  # strict inequality only

    _, costs, owner, imperialist, _ = state([5.0, 1.0, 1.0], [0, 1, 2])
    ica.exchange(costs, owner, imperialist)
    assert imperialist.tolist() == [[1]]  # first of tied best colonies

    # per empire: a better country of another empire does not count
    _, costs, owner, imperialist, _ = state([4.0, 6.0, 2.0, 3.0, 1.0], [0, 1], [2, 3], [4])
    ica.exchange(costs, owner, imperialist)
    assert imperialist.tolist() == [[0, 2, 4]]


def _random_empires(rng, s, m, k):
    # s seeds of m countries in k empires, some dead and some with no colonies;
    # integer costs tie often, and some zeros are -0.0
    owner = np.empty((s, m), dtype=np.intp)
    imperialist = np.empty((s, k), dtype=np.intp)
    for row in range(s):
        live = np.flatnonzero(rng.random(k) < 0.7)
        if live.size == 0:
            live = np.array([rng.integers(k)])
        seats = rng.permutation(m)
        imperialist[row] = rng.integers(m, size=k)  # a dead empire's seat is any country
        imperialist[row, live] = seats[:live.size]
        owner[row] = live[rng.integers(live.size, size=m)]
        if rng.random() < 0.5:
            owner[row][owner[row] == live[0]] = live[-1]  # may leave live[0] with no colonies
        owner[row, seats[:live.size]] = live
    costs = rng.integers(-3, 4, size=(s, m)).astype(float)
    costs[(costs == 0.0) & (rng.random((s, m)) < 0.5)] = -0.0
    return costs, owner, imperialist


@pytest.mark.parametrize("seed", range(40))
def test_exchange_is_the_mask_referee(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 30))
    k = int(rng.integers(1, min(m, 8) + 1))
    costs, owner, imperialist = _random_empires(rng, int(rng.integers(1, 6)), m, k)
    want = imperialist.copy()
    mask_exchange(costs, owner, want)  # the referee takes row-local labels and seats
    rows = np.arange(len(costs))[:, None]
    seats = imperialist + m * rows
    ica.exchange(costs, owner + k * rows, seats)
    assert (seats - m * rows).tolist() == want.tolist()


def _post_exchange(rng, s, m, k):
    # _random_empires with block-wide labels and seats, its live empires flagged, after one
    # exchange: every live imperialist is at least as strong as each of its colonies.  Costs
    # near +-100 let an empire's colony mean outweigh a one-cost gap between imperialists.
    costs, owner, imperialist = _random_empires(rng, s, m, k)
    offset = rng.choice([0.0, -100.0, 100.0])
    if offset:
        costs += offset
    rows = np.arange(s)[:, None]
    owner, imperialist = owner + k * rows, imperialist + m * rows
    alive = np.zeros((s, k), dtype=bool)
    alive.put(owner, True)
    ica.exchange(costs, owner, imperialist)
    return costs, owner, imperialist, alive


def test_compete_seats_what_an_exchange_after_it_would():
    # on post-exchange states, compete leaves what the row-by-row compete and a full exchange
    # leave; the tally makes sure the states reach each case of the newcomer seat
    rng = np.random.default_rng(17)
    config = ica.IcaConfig()
    seen = dict.fromkeys(["colony seat", "fallen seat", "tied newcomers", "tie with the seat", "collapse",
                          "one empire"], 0)
    for _ in range(1500):
        m = int(rng.integers(2, 16))
        k = int(rng.integers(1, min(m, 6) + 1))
        costs, owner, imperialist, alive = _post_exchange(rng, int(rng.integers(1, 5)), m, k)
        roulette = rng.random(len(costs))
        start = owner.copy(), alive.copy()
        want = owner.copy(), imperialist.copy(), alive.copy()
        compete_rows(costs, *want, roulette, config)
        before = want[1].copy()
        ica.exchange(costs, want[0], want[1])
        ica.compete(costs, owner, imperialist, alive, roulette, config)
        assert owner.tobytes() == want[0].tobytes()
        assert imperialist.tobytes() == want[1].tobytes()
        assert alive.tobytes() == want[2].tobytes()
        # a row's newcomers are adjacent, in country order
        newcomers = np.flatnonzero(start[0] != owner)
        label = owner.ravel()[newcomers]
        cost, seat_cost = costs.ravel()[newcomers], costs.ravel()[before.ravel()[label]]
        seated = newcomers == imperialist.ravel()[label]
        fallen = np.isin(newcomers, before[start[1] & ~alive])
        pair = label[:-1] == label[1:]
        seen["colony seat"] += int((seated & ~fallen).sum())
        seen["fallen seat"] += int((seated & fallen).sum())
        seen["tied newcomers"] += int((pair & (cost[:-1] == cost[1:]) & (cost[:-1] < seat_cost[:-1])).sum())
        seen["tie with the seat"] += int((cost == seat_cost).sum())
        seen["collapse"] += int((start[1] & ~alive).sum())
        seen["one empire"] += int((start[1].sum(axis=1) == 1).sum())
    assert all(seen.values()), seen


def test_empire_power():
    cfg = ica.IcaConfig(epsilon=0.05)
    _, costs, owner, imperialist, _ = state([10.0, 20.0, 30.0, 10.0], [0, 1, 2], [3])
    colony = ica._colonies(owner, imperialist)
    assert ica._powers(costs, owner, imperialist, colony, cfg)[0] == pytest.approx([11.25, 10.0])
    tiny = ica.IcaConfig(epsilon=1e-9)
    assert ica._powers(costs, owner, imperialist, colony, tiny)[0, 0] == pytest.approx(10.0, abs=1e-6)
    # the colony mean adds the colonies left to right in index order
    rng = np.random.default_rng(4)
    costs = rng.normal(0.0, 1e3, size=(3, 40))
    costs[:, 0] = costs.min(axis=1) - 1.0
    owner = np.repeat(np.arange(3)[:, None], 40, axis=1)  # row r's one empire has label r
    imperialist = np.array([[0], [40], [80]])  # and the first country of its row as its seat
    for row, got in zip(costs, ica._powers(costs, owner, imperialist, ica._colonies(owner, imperialist), cfg)[:, 0]):
        total = functools.reduce(operator.add, row[1:].tolist(), 0.0)
        assert got == row[0] + cfg.epsilon * (total / 39)


def test_compete_collapse():
    cfg = ica.IcaConfig(n_countries=10, n_imperialists=2)
    _, costs, owner, imperialist, alive = state([1.0, 2.0, 9.0, 12.0], [0, 1], [2, 3])
    ica.compete(costs, owner, imperialist, alive, np.array([0.5]), cfg)
    # the lost colony and then the demoted imperialist join the winner
    assert owner.tolist() == [[0, 0, 0, 0]]
    assert alive.tolist() == [[True, False]]
    # two candidates of equal power weigh 1 and 1: at roulette 0.5 the first running total
    # equals roulette x total exactly, and only the second one exceeds it
    cfg = ica.IcaConfig(n_countries=10, n_imperialists=3)
    _, costs, owner, imperialist, alive = state([1.0, 2.0, 1.0, 2.0, 9.0, 12.0], [0, 1], [2, 3], [4, 5])
    ica.compete(costs, owner, imperialist, alive, np.array([0.5]), cfg)
    assert owner.tolist() == [[0, 0, 1, 1, 1, 1]]
    assert alive.tolist() == [[True, True, False]]


def test_compete_single_empire_noop():
    cfg = ica.IcaConfig(n_countries=10, n_imperialists=2)
    _, costs, owner, imperialist, alive = state([1.0, 2.0], [0, 1])
    ica.compete(costs, owner, imperialist, alive, np.array([0.5]), cfg)
    assert owner.tolist() == [[0, 0]] and alive.tolist() == [[True]]


def _roulette_wins(costs, trials, seed):
    # every trial is one seed of a single batched compete call
    cfg = ica.IcaConfig(n_countries=10, n_imperialists=4)
    _, costs, owner, imperialist, alive = state(costs, [0, 1], [2, 3], [4, 5], [6, 7, 8])
    rows = np.arange(trials)[:, None]
    owner = np.repeat(owner, trials, axis=0) + 4 * rows  # each row's own labels and seats
    alive = np.repeat(alive, trials, axis=0)
    roulette = np.random.default_rng(seed).random(trials)
    ica.compete(np.repeat(costs, trials, axis=0), owner, np.repeat(imperialist, trials, axis=0) + 9 * rows,
                alive, roulette, cfg)
    owner -= 4 * rows
    assert (owner[:, :8] == [0, 0, 1, 1, 2, 2, 3, 3]).all()  # the weakest colony left
    assert alive.all()
    return np.bincount(owner[:, 8], minlength=3)


def test_compete_strongest_wins_most():
    wins = _roulette_wins([1.0, 1.5, 4.0, 4.5, 6.0, 6.5, 9.0, 9.5, 20.0], 2000, 99)
    assert wins[0] > wins[1] > wins[2]
    assert wins[2] == 0  # weakest candidate draws zero share under the mirror rule


def test_compete_equal_powers_uniform():
    wins = _roulette_wins([2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 9.0, 9.5, 30.0], 3000, 5)
    assert wins.sum() == 3000
    assert np.all(np.abs(wins / 3000 - 1 / 3) < 0.05)


def test_compete_weakest_loses_its_first_highest_cost_colony():
    # empires 1 and 2 tie for the largest power: the first one loses, and
    # of its two colonies tied at the highest cost, the lower index goes
    cfg = ica.IcaConfig(n_countries=10, n_imperialists=3)
    _, costs, owner, imperialist, alive = state([1.0, 2.0, 5.0, 7.0, 7.0, 5.0, 7.0, 7.0],
                                                [0, 1], [2, 4, 3], [5, 7, 6])
    ica.compete(costs, owner, imperialist, alive, np.array([0.0]), cfg)
    assert owner.tolist() == [[0, 0, 1, 0, 1, 2, 2, 2]]


# --- invariant check ------------------------------------------------------------

def _valid_state():
    # two seeds with the same valid state, each with its own labels and seats
    positions = np.full((2, 4, 2), 1.0)
    costs = np.array([[0.0, 1.0, 2.0, 3.0]] * 2)
    owner = np.array([[0, 1, 0, 1], [2, 3, 2, 3]])
    imperialist = np.array([[0, 1], [4, 5]])
    return positions, costs, owner, imperialist, np.ones((2, 2), dtype=bool), np.full(2, 5.0)


def test_check_invariants_catches_each_violation():
    positions, costs, owner, imperialist, alive, bounds = _valid_state()
    ica._check_invariants(positions, costs, owner, imperialist, alive, bounds)
    # each violation is made in the second seed only
    dead = alive.copy()
    dead[1, 1] = False
    with pytest.raises(RuntimeError, match="no live empire"):
        ica._check_invariants(positions, costs, owner, imperialist, dead, bounds)
    for label in (4, 1):  # past the block's labels, and a label of the first seed
        stray = owner.copy()
        stray[1, 3] = label
        with pytest.raises(RuntimeError, match="no live empire"):
            ica._check_invariants(positions, costs, stray, imperialist, alive, bounds)
    seat = imperialist.copy()
    seat[1, 1] = 6  # a country of empire 0
    with pytest.raises(RuntimeError, match="its own empire"):
        ica._check_invariants(positions, costs, owner, seat, alive, bounds)
    seat = imperialist.copy()
    seat[0, 1] = 5  # the first seed's empire 1 seated on the second seed's country 1
    with pytest.raises(RuntimeError, match="its own empire"):
        ica._check_invariants(positions, costs, owner, seat, alive, bounds)
    # a seat past the block would not gather, and a negative one would wrap to the block's last
    # country, which belongs to the second seed's empire 1
    for country in (8, -1):
        seat = imperialist.copy()
        seat[1, 1] = country
        with pytest.raises(RuntimeError, match="its own empire"):
            ica._check_invariants(positions, costs, owner, seat, alive, bounds)
    outside = positions.copy()
    outside[1, 3, 1] = -1e-9
    with pytest.raises(RuntimeError, match="box"):
        ica._check_invariants(outside, costs, owner, imperialist, alive, bounds)
    weak = costs.copy()
    weak[1, 1] = 4.0
    with pytest.raises(RuntimeError, match="weaker"):
        ica._check_invariants(positions, weak, owner, imperialist, alive, bounds)


def test_invariant_check_survives_python_O():
    src = Path(ica.__file__).resolve().parents[1]
    code = textwrap.dedent("""
        import numpy as np
        from fuzzfolio import ica
        print("debug", __debug__)
        bounds = np.full(2, 5.0)
        owner = np.array([[0, 1, 0, 1]])
        imperialist = np.array([[0, 1]])
        alive = np.ones((1, 2), dtype=bool)
        costs = np.array([[0.0, 1.0, 2.0, 3.0]])
        inside = np.full((1, 4, 2), 1.0)
        for positions, costs, owner, imperialist in [
            (inside, costs, np.array([[0, 1, 0, 2]]), imperialist),
            (inside, costs, owner, np.array([[0, 2]])),
            (np.array([[[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 6.0]]]), costs, owner, imperialist),
            (inside, np.array([[0.0, 4.0, 2.0, 3.0]]), owner, imperialist),
            (inside, np.array([[0.0, 3.0, 2.0, 1.0]]), owner, np.array([[0, -1]])),
        ]:
            try:
                ica._check_invariants(positions, costs, owner, imperialist, alive, bounds)
            except RuntimeError as exc:
                print("raised", exc)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "debug False"
    assert "no live empire of its row" in lines[1]
    assert "does not belong to its own empire" in lines[2]
    assert "outside the box" in lines[3]
    assert "weaker than one of its colonies" in lines[4]
    assert "does not belong to its own empire" in lines[5]


# --- full runs -----------------------------------------------------------------

def test_run_refuses_a_huge_draw_buffer_before_allocating(lp01):
    # 100 rows of 4 * 10**6 countries need 100 * (1 + 44 * 10**6) doubles: 32.8 GiB
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"^n_countries: 4000000 countries of 5 assets need a 32\.8 GiB "):
            ica.run(lp01, config=ica.IcaConfig(n_countries=4 * 10**6), seeds=range(100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_draw_and_refuse_share_the_draw_layout(lp01, monkeypatch):
    # draw takes exactly _draw_size numbers from an active row's generator
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    ica.draw([rng], np.array([0]), np.array([True]), 7, 3)
    twin.random(ica._draw_size(7, 3))
    assert rng.bit_generator.state == twin.bit_generator.state
    # and refuse sizes the buffer from it, naming n_countries
    monkeypatch.setattr(ica, "_draw_size", lambda n_countries, n: 2**28 + 1)
    with pytest.raises(ValidationError, match=r"^n_countries: 100 countries of 5 assets need a 2\.0 GiB ") as err:
        ica.refuse(lp01, ica.IcaConfig(), 1)
    assert err.value.field == "n_countries"


@pytest.mark.parametrize("n_countries, seeds", [(10**400, []), (10**400, [1]), (4 * 10**307, [1])],
                         ids=["past-float-range-no-seeds", "past-float-range", "buffer-past-float-range"])
def test_run_names_a_count_too_large_for_floats(lp01, n_countries, seeds):
    # the count, or the draw buffer's size in bytes, is past the float range: neither the
    # buffer's GiB nor the penalized objective's bound can be computed, and no OverflowError escapes
    with pytest.raises(ValidationError) as err:
        ica.run(lp01, ica.IcaConfig(n_countries=n_countries), seeds)
    assert err.value.field == "n_countries"
    assert str(err.value) == "n_countries: the count is too large for float arithmetic"


def test_run_refuses_before_any_block(lp01, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a block started")

    monkeypatch.setattr(ica, "_run_block", unreachable)
    lp = reformulate(bundled_instance("paper_table1"), [ConfidenceLevels(0.1, 0.1), ConfidenceLevels(0.5, 0.5)])
    # the second level's coefficients overflow the penalty bound, the first's do not
    overflowing = dataclasses.replace(lp, coefficients=lp.coefficients * np.array([[1.0], [1e307]]))
    with pytest.raises(ValidationError, match="^the penalized objective overflows inside the box"):
        ica.run(overflowing, seeds=[1])
    huge = dataclasses.replace(lp01, total_fund=1e200, upper_bounds=np.full(5, 1e200))
    with pytest.raises(ValidationError, match="^the penalized objective overflows inside the box"):
        ica.run(huge, seeds=range(100))


@pytest.mark.parametrize("seeds", [7, [-1], [1.5], [True], ["1"], [1, None], (3, -2), "12", np.arange(3), {1, 2},
                                   [-10**5000]],
                         ids=["int", "negative", "float", "bool", "str-seed", "none", "negative-later",
                              "str", "ndarray", "set", "past-text-limit"])
def test_run_rejects_bad_seeds_by_name_before_any_block(lp01, seeds, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a refusal or a block ran")

    monkeypatch.setattr(ica, "refuse", unreachable)
    monkeypatch.setattr(ica, "_run_block", unreachable)
    with pytest.raises(ValidationError, match="^seeds must be a sequence of non-negative integers, got ") as info:
        ica.run(lp01, ica.IcaConfig(max_iterations=1), seeds)
    assert info.value.field == "seeds"


@pytest.mark.parametrize("seeds", [range(2, 4), [np.int64(2), np.uint8(3)], (2, 3)],
                         ids=["range", "numpy-integers", "tuple"])
def test_run_takes_any_sequence_of_integer_seeds(lp01, seeds):
    config = ica.IcaConfig(n_countries=12, n_imperialists=3, max_iterations=2)
    got = ica.run(lp01, config, seeds)
    want = ica.run(lp01, config, [2, 3])
    assert [r.seed for r in got] == [2, 3]
    assert [r.best_position.tobytes() for r in got] == [r.best_position.tobytes() for r in want]
    assert ica.run(lp01, config, []) == []


def test_run_zero_iterations_returns_initial_best(lp01):
    [report] = ica.run(lp01, config=ica.IcaConfig(max_iterations=0), seeds=[42])
    positions = ica.initialize(ica.IcaConfig(), lp01.upper_bounds, [np.random.default_rng(42)], np.array([0]))
    assert report.best_cost == -penalized_objective_batch(lp01, positions[0], ica.IcaConfig()).max()
    assert report.history.shape == (0, 2)


def test_run_deterministic_replay(lp01):
    [a] = ica.run(lp01, seeds=[7])
    [b] = ica.run(lp01, seeds=[7])
    assert a.best_position.tobytes() == b.best_position.tobytes()
    assert a.best_cost == b.best_cost
    assert a.best_objective == b.best_objective
    assert a.history.tobytes() == b.history.tobytes()
    assert a.seed == b.seed == 7


def _record(monkeypatch, name, calls, keep):
    original = getattr(ica, name)

    def recording(*args):
        result = original(*args)
        calls.append(keep(args, result))
        return result

    monkeypatch.setattr(ica, name, recording)


def test_run_evaluates_one_batch_per_phase(lp01, monkeypatch):
    batches, draws, moves, revolts = [], [], [], []
    _record(monkeypatch, "penalized_objective_batch", batches, lambda args, _: args[1].copy())
    _record(monkeypatch, "draw", draws, lambda _, result: result[2].copy())
    _record(monkeypatch, "assimilate", moves, lambda args, _: (args[0].copy(), args[1], args[2].copy()))
    _record(monkeypatch, "revolve", revolts, lambda args, _: (args[0].copy(), args[1].copy()))
    reports = ica.run(lp01, seeds=[4, 5, 6])
    # every country after initialization, then per iteration one batch of the
    # colonies that assimilated and one of those that revolted
    history = np.stack([r.history for r in reports])
    assert history.shape == (3, 25, 2)
    assert len(batches) == 1 + 2 * 25
    assert batches[0].shape == (300, 5)
    empires = np.concatenate([np.full((3, 1), 10.0), history[:, :-1, 1]], axis=1)
    for t, (trials, (after_moves, rulers, moving), (after_revolts, revolting)) in enumerate(zip(draws, moves, revolts)):
        assert (moving == (rulers != np.arange(300).reshape(3, 100))).all()  # every seed is active
        assert (moving.sum(axis=1) == 100 - empires[:, t]).all()
        assert batches[1 + 2 * t].tobytes() == after_moves[moving].tobytes()
        assert (revolting == moving & (trials < 0.2)).all()
        assert batches[2 + 2 * t].tobytes() == after_revolts[revolting].tobytes()


def test_run_evaluates_no_empty_batch(lp01, monkeypatch):
    batches = []
    _record(monkeypatch, "penalized_objective_batch", batches, lambda args, _: args[1].shape)
    reports = ica.run(lp01, config=ica.IcaConfig(revolution_rate=0.0), seeds=[1, 2])
    # no country revolts, so each iteration evaluates the assimilation batch alone
    iterations = max(len(r.history) for r in reports)
    assert len(batches) == 1 + iterations
    assert all(rows > 0 for rows, _ in batches)


def test_run_makes_one_exchange_per_iteration(lp01, monkeypatch):
    # compete seats the winner's newcomers itself, so no second exchange follows it
    calls = []
    _record(monkeypatch, "exchange", calls, lambda args, _: None)
    reports = ica.run(lp01, seeds=[4, 5, 6])
    assert len(calls) == 25 == max(len(r.history) for r in reports)
    calls.clear()
    [report] = ica.run(lp01, COLLAPSING, [2])
    assert len(calls) == len(report.history) < 500


@pytest.mark.parametrize("instance, levels, config, seeds", [
    ("paper_table1", (0.1, 0.4, 0.7, 0.9), ica.IcaConfig(), range(1, 21)),
    ("frontier_100.json", (0.05, 0.5, 0.95), ica.IcaConfig(n_countries=60, n_imperialists=6, max_iterations=40),
     range(1, 4)),
], ids=["paper-levels", "frontier_100"])
def test_every_best_objective_is_the_model_objective(instance, levels, config, seeds):
    # run takes all of a block's objectives in one stacked product; each must keep model.objective's bits
    if instance.endswith(".json"):
        instance = load_instance(Path(__file__).parent / "data" / instance)
    else:
        instance = bundled_instance(instance)
    lp = reformulate(instance, [ConfidenceLevels(v, v) for v in levels])
    for i, report in enumerate(ica.run(lp, config, seeds)):
        assert report.best_objective.hex() == objective(lp[i // len(seeds)], report.best_position).hex()


def test_run_trace_monotone_and_conserving(lp01):
    [report] = ica.run(lp01, seeds=[3])
    costs, n_empires = report.history.T
    assert report.history.shape == (25, 2)
    assert (np.diff(costs) <= 0).all()
    assert costs[-1] == report.best_cost
    assert (n_empires >= 1).all() and (np.diff(n_empires) <= 0).all()


def test_run_collapses_to_one_empire_and_stops(lp01):
    [report] = ica.run(lp01, config=ica.IcaConfig(n_countries=12, n_imperialists=4, max_iterations=500),
                       seeds=[2])
    n_empires = report.history[:, 1]
    assert n_empires[-1] == 1
    assert len(n_empires) < 500
    assert (n_empires[:-1] > 1).all()


def test_run_repaired_solution_feasible_and_bounded(lp01):
    exact = solve_exact(lp01).objective
    for report in ica.run(lp01, seeds=[1, 2, 3]):
        res = residuals(lp01, report.best_position)
        assert res.feasible or res.threshold_residual < 0
        assert abs(res.budget_residual) <= 1e-6
        assert np.all(report.best_position >= 0)
        assert np.all(report.best_position <= lp01.upper_bounds)
        assert report.best_objective <= exact + 1e-9
        assert report.best_objective >= 0.9 * exact  # loose sanity, tight form in acceptance


COLLAPSING = ica.IcaConfig(n_countries=12, n_imperialists=4, max_iterations=500)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("levels, config, seeds", [
    (0.1, ica.IcaConfig(), range(1, 21)),
    (0.4, ica.IcaConfig(), [5, 1, 3, 1]),
    # more seeds than one block holds
    (0.9, ica.IcaConfig(), range(1, 131)),
    (0.7, ica.IcaConfig(enforce_threshold=True), range(1, 11)),
    # seeds collapse to one empire at different iterations
    (0.3, COLLAPSING, range(1, 21)),
    # a level-batched LP: every (level, seed) row runs as if alone
    ((0.1, 0.4, 0.7, 0.9), ica.IcaConfig(), range(1, 21)),
    # 150 rows: the second block starts inside the third level
    ((0.2, 0.5, 0.8), ica.IcaConfig(), range(1, 51)),
    # each row is charged against its own level's threshold
    ((0.3, 0.6, 0.9), ica.IcaConfig(enforce_threshold=True), range(1, 11)),
    # rows of different levels stop at different iterations
    ((0.1, 0.5, 0.9), COLLAPSING, range(1, 11)),
    # 135 rows: the rows of seeds 39-45, which stop at different iterations, fall in two blocks
    ((0.1, 0.5, 0.9), COLLAPSING, range(1, 46)),
], ids=["paper", "order-and-duplicates", "two-blocks", "enforce-threshold", "collapse",
        "paper-levels", "levels-two-blocks", "levels-enforce-threshold", "levels-collapse",
        "levels-collapse-two-blocks"])
def test_each_seed_runs_as_if_alone(levels, config, seeds):
    instance = bundled_instance("paper_table1")
    if isinstance(levels, float):
        lp = reformulate(instance, ConfidenceLevels(levels, levels))
        alone_lps = [lp]
    else:
        lp = reformulate(instance, [ConfidenceLevels(v, v) for v in levels])
        alone_lps = [lp[i] for i in range(len(levels))]
    batch = ica.run(lp, config, seeds)
    # level by level, each level's reports in the order of seeds
    assert [r.seed for r in batch] == list(seeds) * len(alone_lps)
    # no row beats the LP's dual bound U(mu), least at a coefficient, up to repair's 1e-12 of the budget
    c = np.atleast_2d(lp.coefficients)
    bound = np.min([dual_bound(lp, c[:, k]) for k in range(lp.n)], axis=0) + 1e-12 * (np.abs(c) @ lp.upper_bounds)
    for i, got in enumerate(batch):
        assert got.best_objective <= bound[i // len(seeds)]
        [alone] = ica.run(alone_lps[i // len(seeds)], config, [got.seed])
        assert got.best_position.tobytes() == alone.best_position.tobytes()
        assert got.best_cost == alone.best_cost
        assert got.best_objective == alone.best_objective
        assert got.history.tobytes() == alone.history.tobytes()
    if config is COLLAPSING:
        lengths = {len(r.history) for r in batch}
        assert len(lengths) > 1 and max(lengths) < 500
        assert all(r.history[-1, 1] == 1 for r in batch)
    if config is COLLAPSING and len(alone_lps) > 1:
        # some seed's rows, which share its stream, stop at different iterations
        by_seed = np.array([len(r.history) for r in batch]).reshape(len(alone_lps), -1)
        assert (by_seed.min(axis=0) < by_seed.max(axis=0)).any()


def test_a_level_batched_run_evaluates_one_batch_per_phase_in_all(monkeypatch):
    batches = []
    _record(monkeypatch, "penalized_objective_batch", batches, lambda args, _: args[1].shape)
    lp = reformulate(bundled_instance("paper_table1"), [ConfidenceLevels(v, v) for v in (0.1, 0.4, 0.7, 0.9)])
    reports = ica.run(lp, seeds=range(1, 21))
    # 80 rows in one block: one batch for initialization and two per iteration, not per level
    assert len(reports) == 80 and {len(r.history) for r in reports} == {25}
    assert len(batches) == 1 + 2 * 25
    assert batches[0] == (80 * 100, 5)


def test_a_paper_sweep_draws_each_seeds_numbers_once(monkeypatch):
    lp = reformulate(bundled_instance("paper_table1"), [ConfidenceLevels(v, v) for v in (0.1, 0.4, 0.7, 0.9)])
    drawn, initialized = [], []

    class Counting(np.random.Generator):
        def random(self, size=None, dtype=np.float64, out=None):
            result = super().random(size, dtype, out)
            drawn.append(result.size)
            return result

    initialize = ica.initialize

    def counted_initialize(config, bounds, generators, stream):
        initialized.append((len(stream), len(generators), stream.tolist()))
        return initialize(config, bounds, generators, stream)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Counting(np.random.PCG64(seed)))
    monkeypatch.setattr(ica, "initialize", counted_initialize)
    reports = ica.run(lp, seeds=range(1, 21))
    # the 4 rows of a seed share its generator: 20 of them, each drawing 1 + 100 * 11
    # numbers per iteration, where one generator per row would draw 2,202,000
    assert initialized == [(80, 20, list(range(20)) * 4)] and {len(r.history) for r in reports} == {25}
    assert len(drawn) == 20 * 25 and sum(drawn) == 550_500
    # a repeated seed's rows share the generator of its first appearance, at every level
    initialized.clear()
    drawn.clear()
    ica.run(lp, ica.IcaConfig(max_iterations=1), seeds=[5, 1, 3, 1])
    assert initialized == [(16, 3, [0, 1, 2, 1] * 4)] and drawn == [1 + 100 * 11] * 3


# --- metamorphic referee ---------------------------------------------------------------

METAMORPHIC = ica.IcaConfig(n_countries=40, n_imperialists=5, max_iterations=15)


@pytest.mark.parametrize("relation", ["money", "returns"])
def test_scaling_by_a_power_of_two_scales_every_report_exactly(relation):
    # see referees.scaled: every search step rounds the same under the scaling
    rng = np.random.default_rng(24)
    instances = [bundled_instance("paper_table1")] + [random_instance(rng, rng.integers(2, 12)) for _ in range(3)]
    for instance in instances:
        lp = reformulate(instance, [ConfidenceLevels(v, v) for v in (0.1, 0.4, 0.7, 0.9)])
        base = ica.run(lp, METAMORPHIC, (1, 2, 3))
        for k in (-3, 5, 20):
            two = 2.0**k
            moved, factor = scaled(lp, relation, k)
            config = dataclasses.replace(METAMORPHIC, eq_factor=METAMORPHIC.eq_factor * factor)
            x_scale = two if relation == "money" else 1.0
            for want, got in zip(base, ica.run(moved, config, (1, 2, 3)), strict=True):
                assert got.best_position.tobytes() == (want.best_position * x_scale).tobytes()
                assert (got.best_cost, got.best_objective) == (want.best_cost * two, want.best_objective * two)
                assert got.history.tobytes() == (want.history * [two, 1.0]).tobytes()
