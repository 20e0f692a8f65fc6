import numpy as np
import pytest

from fuzzfolio.io import bundled_instance
from fuzzfolio.model import ConfidenceLevels, DeterministicLP, objective, reformulate
from fuzzfolio.oracle import solve_exact
from fuzzfolio.penalty import repair
from instgen import random_instance
from referees import brute_force, scaled

LEVELS = ConfidenceLevels(0.5, 0.5)

# allocations, derived objectives, and whether the optimum clears the
# return floor, for the bundled benchmark
BENCHMARK = {
    0.1: ((60, 0, 20, 60, 60), 422.723, True),
    0.4: ((20, 0, 60, 60, 60), 289.682, True),
    0.7: ((20, 0, 60, 60, 60), 188.118, False),
    0.9: ((0, 60, 60, 20, 60), 95.392, False),
}


def make_lp(c, m0, u, threshold=-1e9):
    return DeterministicLP(np.asarray(c, float), m0, np.asarray(u, float), threshold, LEVELS)


@pytest.fixture(scope="module")
def table1():
    return bundled_instance("paper_table1")


@pytest.mark.parametrize("level", sorted(BENCHMARK))
def test_benchmark_solutions(table1, level):
    want_x, want_obj, want_ok = BENCHMARK[level]
    lp = reformulate(table1, ConfidenceLevels(level, level))
    sol = solve_exact(lp)
    assert sol.x.tolist() == list(map(float, want_x))
    assert sol.objective == pytest.approx(want_obj, abs=5e-3)
    assert (sol.objective >= lp.threshold) == want_ok


def test_greedy_tie_breaks_by_index():
    sol = solve_exact(make_lp([1.0, 1.0], 80.0, [60.0, 60.0]))
    assert sol.x.tolist() == [60.0, 20.0]


def greedy_loop(lp):
    """The per-asset greedy fill, the reference for the array form."""
    c, u = lp.coefficients, lp.upper_bounds
    x = np.zeros(lp.n)
    remaining = lp.total_fund
    for j in sorted(range(lp.n), key=lambda j: (-c[j], j)):
        take = min(float(u[j]), remaining)
        x[j] = take
        remaining -= take
        if remaining <= 0.0:
            break
    return x


def test_greedy_fill_matches_the_per_asset_loop():
    rng = np.random.default_rng(41)
    for _ in range(300):
        n, k = int(rng.integers(1, 30)), int(rng.integers(1, 9))
        # few distinct values, so ties and budgets that fill an asset exactly are
        # common; k levels share the box and the budget
        c = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0, float(rng.normal())], size=(k, n))
        u = rng.choice([1.0, 2.5, 10.0, float(rng.uniform(0.1, 20.0))], size=n)
        m0 = min(float(rng.choice([u.sum(), u[:int(rng.integers(1, n + 1))].sum(),
                                   rng.uniform(0.01, 1.0) * u.sum()])), float(u.sum()))
        stacked = solve_exact(DeterministicLP(c, m0, u, np.full(k, -1e9), (LEVELS,) * k))
        want = np.array([greedy_loop(make_lp(row, m0, u)) for row in c])
        objectives = np.array([float(c_i @ x_i) for c_i, x_i in zip(c, want)])
        assert stacked.x.tobytes() == want.tobytes()
        assert stacked.objective.tobytes() == objectives.tobytes()
        for i, row in enumerate(c):
            sol = solve_exact(make_lp(row, m0, u))
            assert sol.x.tobytes() == want[i].tobytes()
            assert np.float64(sol.objective).tobytes() == objectives[i].tobytes()


def test_single_asset_forced():
    sol = brute_force(make_lp([3.0], 200.0, [200.0]), grid_step=20.0)
    assert sol.x.tolist() == [200.0]


def test_brute_force_guards():
    with pytest.raises(ValueError):
        brute_force(make_lp([1.0] * 7, 10.0, [10.0] * 7), grid_step=1.0)
    with pytest.raises(ValueError):
        brute_force(make_lp([1.0, 1.0], 10.0, [7.5, 7.5]), grid_step=2.0)
    with pytest.raises(RuntimeError, match=r"^enumeration would exceed 100000000 nodes for step 0\.25$"):
        brute_force(make_lp([1.0] * 6, 3000.0, [3000.0] * 6), grid_step=0.25)


def test_brute_force_refuses_an_unreachable_budget():
    # the bounds hold 20 of the 30 to spend: no allocation on the lattice exists
    with pytest.raises(ValueError, match=r"^no allocation on the lattice of step 10\.0 spends total_fund = 30\.0$"):
        brute_force(make_lp([1.0, 1.0], 30.0, [10.0, 10.0]), grid_step=10.0)


@pytest.mark.parametrize("level", sorted(BENCHMARK))
def test_brute_force_agrees_on_benchmark(table1, level):
    lp = reformulate(table1, ConfidenceLevels(level, level))
    greedy = solve_exact(lp)
    brute = brute_force(lp, grid_step=20.0)
    assert brute.x.tolist() == greedy.x.tolist()
    assert brute.objective == pytest.approx(greedy.objective, abs=1e-9)
    assert (brute.objective >= lp.threshold) == (greedy.objective >= lp.threshold)


def test_brute_force_agrees_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        caps = rng.integers(1, 7, size=n)  # at most 6^5 lattice points
        step = float(rng.choice([0.5, 1.0, 2.5]))
        u = caps * step
        m0 = float(rng.integers(1, int(caps.sum()) + 1)) * step
        lp = make_lp(rng.normal(1.0, 0.7, size=n), m0, u)
        greedy = solve_exact(lp)
        brute = brute_force(lp, grid_step=step)
        assert brute.objective == pytest.approx(greedy.objective, abs=1e-9)


def test_greedy_beats_random_feasible_points(table1):
    rng = np.random.default_rng(23)
    for level in (0.1, 0.9):
        lp = reformulate(table1, ConfidenceLevels(level, level))
        best = solve_exact(lp).objective
        draws = rng.uniform(0.0, lp.upper_bounds, size=(10_000, lp.n))
        for x in draws[:200]:
            y = repair(x, lp.total_fund, lp.upper_bounds)
            assert objective(lp, y) <= best + 1e-9
        # vectorized spot check over the full sample
        scaled = draws * (lp.total_fund / draws.sum(axis=1, keepdims=True))
        inside = scaled[np.all(scaled <= lp.upper_bounds, axis=1)]
        assert inside.shape[0] > 100
        assert float((inside @ lp.coefficients).max()) <= best + 1e-9


def test_permutation_equivariance():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        c = rng.uniform(0.5, 3.0, size=n)
        if len(np.unique(c)) < n:
            continue
        u = rng.uniform(5.0, 25.0, size=n)
        m0 = float(rng.uniform(0.3, 0.9) * u.sum())
        perm = rng.permutation(n)
        base = solve_exact(make_lp(c, m0, u))
        shuffled = solve_exact(make_lp(c[perm], m0, u[perm]))
        assert shuffled.x == pytest.approx(base.x[perm], abs=1e-12)
        assert shuffled.objective == pytest.approx(base.objective, rel=1e-12)


@pytest.mark.parametrize("relation", ["money", "returns"])
def test_scaling_by_a_power_of_two_scales_the_optimum_exactly(relation):
    # see referees.scaled: the greedy fill rounds the same under the scaling
    rng = np.random.default_rng(25)
    for _ in range(300):
        instance = random_instance(rng, rng.integers(1, 40))
        lp = reformulate(instance, [ConfidenceLevels(v, v) for v in rng.uniform(0.05, 0.95, 8)])
        want = solve_exact(lp)
        for k in (-3, 5, 20):
            two = 2.0**k
            got = solve_exact(scaled(lp, relation, k)[0])
            assert got.x.tobytes() == (want.x * (two if relation == "money" else 1.0)).tobytes()
            assert got.objective.tobytes() == (want.objective * two).tobytes()
