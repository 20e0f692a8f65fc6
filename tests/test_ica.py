import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from fuzzfolio import ica
from fuzzfolio.errors import ValidationError
from fuzzfolio.io import bundled_instance
from fuzzfolio.model import ConfidenceLevels, reformulate
from fuzzfolio.oracle import solve_exact
from fuzzfolio.penalty import PenaltyConfig, penalized_objective_batch

U5 = np.full(5, 60.0)


@pytest.fixture(scope="module")
def lp01():
    return reformulate(bundled_instance("paper_table1"), ConfidenceLevels(0.1, 0.1))


def sum_cost(x):
    # toy cost independent of any LP: favors large total allocation
    x = np.asarray(x, float)
    return -x.sum(axis=-1)


def state(costs, *empires, n=2):
    """Population with the given costs (positions all zero) and index empires."""
    costs = np.array(costs, dtype=float)
    return np.zeros((costs.size, n)), costs, [np.array(e) for e in empires]


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
])
def test_config_errors_name_the_field(kwargs, field):
    with pytest.raises(ValidationError) as err:
        ica.IcaConfig(**kwargs)
    assert err.value.field == field
    assert field in str(err.value)


def test_paper_parameter_defaults():
    cfg = ica.IcaConfig()
    assert (cfg.n_countries, cfg.n_imperialists) == (100, 10)
    assert cfg.revolution_rate == 0.2
    assert cfg.max_iterations == 25
    assert 0.0 < cfg.epsilon < 0.1


# --- initialize --------------------------------------------------------------

def test_initialize_deterministic_and_bounded():
    cfg = ica.IcaConfig(n_countries=20, n_imperialists=3, seed=5)
    pos_a, cost_a = ica.initialize(sum_cost, cfg, U5, np.random.default_rng(5))
    pos_b, cost_b = ica.initialize(sum_cost, cfg, U5, np.random.default_rng(5))
    assert pos_a.tobytes() == pos_b.tobytes()
    assert cost_a.tobytes() == cost_b.tobytes()
    assert pos_a.shape == (20, 5) and cost_a.shape == (20,)
    assert np.all(pos_a >= 0) and np.all(pos_a <= U5)
    assert cost_a.tolist() == sum_cost(pos_a).tolist()


def test_initialize_degenerate_box():
    cfg = ica.IcaConfig(n_countries=8, n_imperialists=2)
    positions, _ = ica.initialize(sum_cost, cfg, np.zeros(3), np.random.default_rng(0))
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


def test_form_empires_partition():
    cfg = ica.IcaConfig(n_countries=100, n_imperialists=10, seed=1)
    _, costs = ica.initialize(sum_cost, cfg, U5, np.random.default_rng(1))
    empires = ica.form_empires(costs, cfg, np.random.default_rng(2))
    assert len(empires) == 10
    assert sorted(np.concatenate(empires).tolist()) == list(range(100))
    assert sum(e.size - 1 for e in empires) == 90
    imperialist_costs = [costs[e[0]] for e in empires]
    assert max(imperialist_costs) <= min(costs[c] for e in empires for c in e[1:])


def test_form_empires_single_imperialist():
    cfg = ica.IcaConfig(n_countries=7, n_imperialists=1)
    costs = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0])
    empires = ica.form_empires(costs, cfg, np.random.default_rng(0))
    assert len(empires) == 1
    assert empires[0][0] == 1  # the first of the two cost-1 countries
    assert sorted(empires[0][1:].tolist()) == [0, 2, 3, 4, 5, 6]


# --- draws -------------------------------------------------------------------------

def test_draw_follows_the_per_empire_stream():
    # per empire with colonies: random((k, n)), random(k), and
    # uniform(0, bounds, (m, n)) only when m > 0 trials hit
    cfg = ica.IcaConfig(n_countries=20, n_imperialists=4, revolution_rate=0.4)
    bounds = np.array([10.0, 20.0, 30.0])
    empires = [np.array([0, 4, 5, 6]), np.array([1]), np.array([2, 7, 8]), np.array([3, 9])]
    for seed in range(20):
        got_steps, got_hits, got_fresh = ica.draw(empires, cfg, bounds, np.random.default_rng(seed))
        ref = np.random.default_rng(seed)
        steps, hits, fresh = [], [], []
        for e in empires:
            k = e.size - 1
            if k == 0:
                continue
            steps.append(ref.random((k, 3)))
            hit = ref.random(k) < cfg.revolution_rate
            hits.append(hit)
            if hit.any():
                fresh.append(ref.uniform(0.0, bounds, size=(int(hit.sum()), 3)))
        assert got_steps.tobytes() == np.concatenate(steps).tobytes()
        assert got_hits.tolist() == np.concatenate(hits).tolist()
        assert got_fresh.tobytes() == np.concatenate([np.empty((0, 3)), *fresh]).tobytes()


# --- assimilation / revolution ----------------------------------------------------

def test_assimilate_mirror_point_then_clamp():
    assert ica.ASSIMILATION_BETA == 2.0
    positions = np.array([[50.0, 10.0], [10.0, 50.0]])
    costs = np.zeros(2)
    # u = 1 everywhere: the colony lands at the mirror 2*imp - colony, clamped
    ica.assimilate(positions, costs, np.array([1]), np.array([0]), np.ones((1, 2)),
                   sum_cost, np.array([60.0, 60.0]))
    assert positions[1].tolist() == [60.0, 0.0]  # (90, -30) clamped
    assert positions[0].tolist() == [50.0, 10.0]
    assert costs.tolist() == [0.0, -60.0]


def test_assimilate_fixed_point_and_bounds():
    rng = np.random.default_rng(3)
    positions = np.array([[30.0, 30.0], [30.0, 30.0], [0.0, 60.0]])
    costs = np.zeros(3)
    for _ in range(25):
        ica.assimilate(positions, costs, np.array([1, 2]), np.array([0, 0]), rng.random((2, 2)),
                       sum_cost, np.array([60.0, 60.0]))
        assert positions[1].tolist() == [30.0, 30.0]
        assert np.all(positions[2] >= 0.0) and np.all(positions[2] <= 60.0)


def test_revolve_rate_extremes():
    bounds = np.full(4, 10.0)
    empires = [np.arange(7)]
    colonies = empires[0][1:]
    for rate, moved in ((0.0, False), (1.0, True)):
        cfg = ica.IcaConfig(revolution_rate=rate)
        positions = np.full((7, 4), 5.0)
        costs = np.zeros(7)
        _, hits, fresh = ica.draw(empires, cfg, bounds, np.random.default_rng(0))
        assert hits.tolist() == [moved] * 6
        ica.revolve(positions, costs, colonies[hits], fresh, sum_cost)
        assert positions[0].tolist() == [5.0] * 4
        assert all((p.tolist() != [5.0] * 4) == moved for p in positions[1:])
        assert np.all(positions <= bounds)


def test_revolve_deterministic():
    bounds = np.full(3, 10.0)
    cfg = ica.IcaConfig(revolution_rate=0.5)
    empires = [np.arange(9)]

    def snapshot(seed):
        positions, costs = np.full((9, 3), 2.0), np.zeros(9)
        _, hits, fresh = ica.draw(empires, cfg, bounds, np.random.default_rng(seed))
        ica.revolve(positions, costs, empires[0][1:][hits], fresh, sum_cost)
        return positions.tolist(), costs.tolist()

    assert snapshot(12) == snapshot(12)


# --- exchange / power / competition ------------------------------------------------

def test_exchange_rules():
    _, costs, empires = state([7.0, 7.0, 5.0], [0, 1, 2])
    ica.exchange(costs, empires)
    assert empires[0].tolist() == [2, 1, 0]  # the better colony takes the old seat

    _, costs, empires = state([3.0, 4.0, 9.0], [0, 1, 2])
    ica.exchange(costs, empires)
    assert empires[0].tolist() == [0, 1, 2]

    _, costs, empires = state([3.0, 3.0], [0, 1])
    ica.exchange(costs, empires)
    assert empires[0].tolist() == [0, 1]  # strict inequality only

    _, costs, empires = state([5.0, 1.0, 1.0], [0, 1, 2])
    ica.exchange(costs, empires)
    assert empires[0].tolist() == [1, 0, 2]  # first of tied best colonies


def test_empire_power():
    cfg = ica.IcaConfig(epsilon=0.05)
    _, costs, empires = state([10.0, 20.0, 30.0, 10.0], [0, 1, 2], [3])
    assert ica._powers(costs, empires, cfg) == pytest.approx([11.25, 10.0])
    tiny = ica.IcaConfig(epsilon=1e-9)
    assert ica._powers(costs, empires[:1], tiny) == pytest.approx([10.0], abs=1e-6)


def test_compete_collapse():
    cfg = ica.IcaConfig(n_countries=10, n_imperialists=2)
    _, costs, empires = state([1.0, 2.0, 9.0, 12.0], [0, 1], [2, 3])
    out = ica.compete(costs, empires, cfg, np.random.default_rng(0))
    # the lost colony and then the demoted imperialist join the winner
    assert [e.tolist() for e in out] == [[0, 1, 3, 2]]


def test_compete_single_empire_noop():
    cfg = ica.IcaConfig(n_countries=10, n_imperialists=2)
    _, costs, empires = state([1.0, 2.0], [0, 1])
    rng = np.random.default_rng(0)
    assert ica.compete(costs, empires, cfg, rng) is empires
    assert rng.random() == np.random.default_rng(0).random()  # no draw taken


def _roulette_wins(costs, trials, seed):
    cfg = ica.IcaConfig(n_countries=10, n_imperialists=4)
    rng = np.random.default_rng(seed)
    empires = [np.array([0, 1]), np.array([2, 3]), np.array([4, 5]), np.array([6, 7, 8])]
    wins = np.zeros(3)
    for _ in range(trials):
        out = ica.compete(np.array(costs), [e.copy() for e in empires], cfg, rng)
        for i in range(3):
            if out[i].size > empires[i].size:
                wins[i] += 1
        assert out[3].tolist() == [6, 7]  # the weakest colony left
    return wins


def test_compete_strongest_wins_most():
    wins = _roulette_wins([1.0, 1.5, 4.0, 4.5, 6.0, 6.5, 9.0, 9.5, 20.0], 2000, 99)
    assert wins[0] > wins[1] > wins[2]
    assert wins[2] == 0  # weakest candidate draws zero share under the mirror rule


def test_compete_equal_powers_uniform():
    wins = _roulette_wins([2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 9.0, 9.5, 30.0], 3000, 5)
    assert wins.sum() == 3000
    assert np.all(np.abs(wins / 3000 - 1 / 3) < 0.05)


# --- invariant check ------------------------------------------------------------

def _valid_state():
    cfg = ica.IcaConfig(n_countries=4, n_imperialists=2)
    positions = np.full((4, 2), 1.0)
    costs = np.array([0.0, 1.0, 2.0, 3.0])
    return cfg, positions, costs, [np.array([0, 2]), np.array([1, 3])], np.full(2, 5.0)


def test_check_invariants_catches_each_violation():
    cfg, positions, costs, empires, bounds = _valid_state()
    ica._check_invariants(positions, costs, empires, cfg, bounds)
    with pytest.raises(RuntimeError, match="partition"):
        ica._check_invariants(positions, costs, [np.array([0, 2]), np.array([1, 2])], cfg, bounds)
    with pytest.raises(RuntimeError, match="partition"):
        ica._check_invariants(positions, costs, [np.array([0, 2])], cfg, bounds)
    outside = positions.copy()
    outside[3, 1] = -1e-9
    with pytest.raises(RuntimeError, match="box"):
        ica._check_invariants(outside, costs, empires, cfg, bounds)
    weak = costs.copy()
    weak[1] = 4.0
    with pytest.raises(RuntimeError, match="weaker"):
        ica._check_invariants(positions, weak, empires, cfg, bounds)


def test_invariant_check_survives_python_O():
    src = Path(ica.__file__).resolve().parents[1]
    code = textwrap.dedent("""
        import numpy as np
        from fuzzfolio import ica
        print("debug", __debug__)
        cfg = ica.IcaConfig(n_countries=4, n_imperialists=2)
        bounds = np.full(2, 5.0)
        empires = [np.array([0, 2]), np.array([1, 3])]
        costs = np.array([0.0, 1.0, 2.0, 3.0])
        for positions, costs in [
            (np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 6.0]]), costs),
            (np.full((4, 2), 1.0), np.array([0.0, 4.0, 2.0, 3.0])),
        ]:
            try:
                ica._check_invariants(positions, costs, empires, cfg, bounds)
            except RuntimeError as exc:
                print("raised", exc)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "debug False"
    assert "outside the box" in lines[1]
    assert "weaker than one of its colonies" in lines[2]


# --- full runs -----------------------------------------------------------------

def test_run_zero_iterations_returns_initial_best(lp01):
    cfg = ica.IcaConfig(seed=42, max_iterations=0)
    report = ica.run(lp01, ica_cfg=cfg)
    _, costs = ica.initialize(lambda x: -penalized_objective_batch(lp01, x, PenaltyConfig()), cfg,
                              lp01.upper_bounds, np.random.default_rng(42))
    assert report.best_cost == costs.min()
    assert report.trace == ()


def test_run_deterministic_replay(lp01):
    cfg = ica.IcaConfig(seed=7)
    a = ica.run(lp01, ica_cfg=cfg)
    b = ica.run(lp01, ica_cfg=cfg)
    assert a.best_position.tobytes() == b.best_position.tobytes()
    assert a.best_cost == b.best_cost
    assert a.best_objective == b.best_objective
    assert a.trace == b.trace
    assert a.seed == b.seed == 7


def test_run_evaluates_one_batch_per_phase(lp01, monkeypatch):
    batches = []
    original = ica.penalized_objective_batch

    def counting(lp, x, cfg):
        batches.append(x.shape[0])
        return original(lp, x, cfg)

    monkeypatch.setattr(ica, "penalized_objective_batch", counting)
    report = ica.run(lp01, ica_cfg=ica.IcaConfig(seed=4))
    iterations = len(report.trace)
    assert batches[0] == 100
    assert len(batches) <= 1 + 2 * iterations
    assert all(rows > 0 for rows in batches)


def test_run_trace_monotone_and_conserving(lp01):
    report = ica.run(lp01, ica_cfg=ica.IcaConfig(seed=3))
    costs = [r.best_cost for r in report.trace]
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    assert report.trace[-1].best_cost == report.best_cost
    assert len(report.trace) == 25
    assert all(r.n_empires >= 1 for r in report.trace)
    assert all(
        later.n_empires <= earlier.n_empires
        for earlier, later in zip(report.trace, report.trace[1:])
    )


def test_run_collapses_to_one_empire_and_stops(lp01):
    report = ica.run(lp01, ica_cfg=ica.IcaConfig(
        n_countries=12, n_imperialists=4, max_iterations=500, seed=2))
    assert report.trace[-1].n_empires == 1
    assert len(report.trace) < 500
    assert all(r.n_empires > 1 for r in report.trace[:-1])


def test_run_repaired_solution_feasible_and_bounded(lp01):
    exact = solve_exact(lp01).objective
    for seed in (1, 2, 3):
        report = ica.run(lp01, ica_cfg=ica.IcaConfig(seed=seed))
        assert report.residuals.feasible or report.residuals.threshold_residual < 0
        assert abs(report.residuals.budget_residual) <= 1e-6
        assert np.all(report.best_position >= 0)
        assert np.all(report.best_position <= lp01.upper_bounds)
        assert report.best_objective <= exact + 1e-9
        assert report.best_objective >= 0.9 * exact  # loose sanity, tight form in acceptance
