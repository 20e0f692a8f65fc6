import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzfolio.errors import ValidationError
from fuzzfolio.ica import IcaConfig
from fuzzfolio.model import ConfidenceLevels, DeterministicLP, objective
from fuzzfolio.penalty import (
    INEQ_FACTOR,
    penalized_objective_batch,
    penalized_objective_bound,
    repair,
)
from referees import scalar_repair

LEVELS = ConfidenceLevels(0.5, 0.5)


def make_lp(c, m0, u, threshold=0.0):
    return DeterministicLP(np.asarray(c, float), m0, np.asarray(u, float), threshold, LEVELS)


def test_config_validation():
    with pytest.raises(ValueError):
        IcaConfig(eq_factor=0.0)


@pytest.mark.parametrize("field, value", [
    ("eq_factor", float("nan")),
    ("eq_factor", float("inf")),
    ("eq_factor", -1.0),
])
def test_config_errors_name_the_field(field, value):
    with pytest.raises(ValidationError) as err:
        IcaConfig(**{field: value})
    assert err.value.field == field
    assert str(err.value).startswith(f"{field} must be")


def test_feasible_point_pays_nothing():
    lp = make_lp([2.0, 1.0], 10.0, [8.0, 8.0], threshold=5.0)
    cfg = IcaConfig(enforce_threshold=True)
    x = [6.0, 4.0]
    assert penalized_objective_batch(lp, x, cfg) == objective(lp, x)


def test_budget_violation_charge():
    lp = make_lp([2.0, 1.0], 10.0, [8.0, 8.0], threshold=-100.0)
    cfg = IcaConfig(eq_factor=1000.0, enforce_threshold=False)
    x = [7.0, 4.0]  # budget off by exactly 1
    assert penalized_objective_batch(lp, x, cfg) == pytest.approx(objective(lp, x) - 1000.0)


def test_zero_allocation_charge():
    lp = make_lp([2.0] * 5, 200.0, [60.0] * 5)
    cfg = IcaConfig(eq_factor=1000.0, enforce_threshold=False)
    assert penalized_objective_batch(lp, np.zeros(5), cfg) == pytest.approx(-4e7)


def test_threshold_charge_only_when_enforced():
    lp = make_lp([1.0, 1.0], 10.0, [8.0, 8.0], threshold=50.0)
    x = [6.0, 4.0]  # objective 10, shortfall 40
    off = penalized_objective_batch(lp, x, IcaConfig(enforce_threshold=False))
    assert off == pytest.approx(10.0)
    on = penalized_objective_batch(lp, x, IcaConfig(enforce_threshold=True))
    assert on == pytest.approx(10.0 - INEQ_FACTOR * 40.0**2)


def test_batch_matches_scalar():
    lp = make_lp([2.0, 1.0, 0.5], 10.0, [8.0, 8.0, 8.0], threshold=9.0)
    cfg = IcaConfig(eq_factor=3.0, enforce_threshold=True)
    xs = np.random.default_rng(0).uniform(0, 8, size=(20, 3))
    batch = penalized_objective_batch(lp, xs, cfg)
    for row, got in zip(xs, batch):
        assert got == pytest.approx(penalized_objective_batch(lp, row, cfg))


@pytest.mark.parametrize("n", [5, 50])
def test_batch_rows_do_not_depend_on_the_batch(n):
    # a row's value is bitwise the same alone, as the only row of a
    # batch, and in any slice of a larger batch
    rng = np.random.default_rng(n)
    lp = make_lp(rng.normal(1.0, 0.5, size=n), 100.0, np.full(n, 60.0), threshold=40.0 * n)
    cfg = IcaConfig(enforce_threshold=True)
    xs = rng.uniform(0.0, 60.0, size=(300, n))
    batch = penalized_objective_batch(lp, xs, cfg)
    for i, row in enumerate(xs):
        assert penalized_objective_batch(lp, row, cfg).tobytes() == batch[i].tobytes()
        assert penalized_objective_batch(lp, xs[i:i + 1], cfg).tobytes() == batch[i:i + 1].tobytes()
    for _ in range(300):
        a, b = sorted(rng.choice(301, size=2, replace=False))
        assert penalized_objective_batch(lp, xs[a:b], cfg).tobytes() == batch[a:b].tobytes()


def test_bound_covers_the_box_and_overflows_to_inf():
    lp = make_lp([2.0, -1.0, 0.5], 10.0, [8.0, 8.0, 8.0], threshold=-9.0)
    corners = np.array(list(itertools.product((0.0, 8.0), repeat=3)))
    xs = np.vstack([corners, np.random.default_rng(1).uniform(0, 8, size=(200, 3))])
    for enforce in (False, True):
        cfg = IcaConfig(eq_factor=3.0, enforce_threshold=enforce)
        assert np.abs(penalized_objective_batch(lp, xs, cfg)).max() <= penalized_objective_bound(lp, cfg)
    huge = make_lp([1.0, 1.0], 1e200, [1e200, 1e200])
    assert penalized_objective_bound(huge, IcaConfig()) == math.inf


def test_penalty_dominance_via_doubling():
    # a feasible point with no worse raw objective must eventually win;
    # with any positive factor it already does, so the loop exits at once
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        u = rng.uniform(1, 10, size=n)
        m0 = float(rng.uniform(0.3, 0.9) * u.sum())
        lp = make_lp(rng.uniform(0.5, 3, size=n), m0, u)
        y = repair(rng.uniform(0, u), m0, u)
        x = np.clip(y + rng.uniform(-1, 1, size=n), 0, u)  # generally infeasible
        if abs(x.sum() - m0) < 1e-9 or objective(lp, y) < objective(lp, x):
            continue
        factor = 1e-6
        for _ in range(80):
            cfg = IcaConfig(eq_factor=factor)
            if penalized_objective_batch(lp, y, cfg) > penalized_objective_batch(lp, x, cfg):
                break
            factor *= 2
        else:
            pytest.fail("no finite factor made the feasible point dominate")


# --- repair ---------------------------------------------------------------------

def test_repair_examples():
    u = np.full(5, 60.0)
    assert np.allclose(repair(np.full(5, 100.0), 200.0, u), 40.0)
    assert np.allclose(repair(np.zeros(5), 200.0, u), 40.0)
    feasible = np.array([60.0, 0.0, 20.0, 60.0, 60.0])
    assert repair(feasible, 200.0, u).tolist() == feasible.tolist()


@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    fill=st.floats(0.05, 1.0),
)
def test_repair_feasibility_and_idempotence(n, seed, fill):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.5, 20.0, size=n)
    m0 = float(fill * u.sum())
    x = rng.uniform(-5.0, 25.0, size=n)
    fixed = repair(x, m0, u)
    assert np.all(fixed >= 0.0) and np.all(fixed <= u)
    assert abs(fixed.sum() - m0) <= 1e-9 * max(1.0, m0)
    again = repair(fixed, m0, u)
    assert again.tobytes() == fixed.tobytes()


@pytest.mark.parametrize("n", [5, 50])
def test_repair_rows_are_bitwise_the_scalar_referee(n):
    # feasible, deficit, surplus and box-clamped rows, each settled in its
    # own number of passes, alone and mixed in one batch
    rng = np.random.default_rng(n)
    u = rng.uniform(0.5, 20.0, size=n)
    for fill in (0.05, 0.5, 0.97, 1.0, 1.2):  # 1.2: a deficit no headroom can meet
        m0 = float(fill * u.sum())
        inside = rng.uniform(0.0, u, size=(300, n))
        xs = np.vstack([
            np.array([scalar_repair(row, m0, u) for row in inside[:100]]),
            inside[100:200] * rng.uniform(0.0, 0.5, size=(100, 1)),
            inside[200:] * rng.uniform(1.5, 4.0, size=(100, 1)),
            rng.uniform(-5.0, 25.0, size=(300, n)),
            np.zeros((1, n)),
            u[None, :],
        ])
        xs = xs[rng.permutation(len(xs))]
        want = np.array([scalar_repair(row, m0, u) for row in xs])
        assert repair(xs, m0, u).tobytes() == want.tobytes()
        for row, expected in zip(xs[:50], want):
            assert repair(row, m0, u).tobytes() == expected.tobytes()
