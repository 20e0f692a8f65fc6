import dataclasses
import warnings

import numpy as np
import pytest

from fuzzfolio.errors import BudgetInfeasibleError, ValidationError
from fuzzfolio.fuzzy import (
    FuzzyRandomReturn,
    RandomFactor,
    necessity_geq_scalar,
    observe,
    weighted_sum,
)
from fuzzfolio.io import bundled_instance
from fuzzfolio.model import (
    ConfidenceLevels,
    DeterministicLP,
    PortfolioInstance,
    necessity_certificate,
    objective,
    reformulate,
    residuals,
)
from instgen import random_feasible_x, random_instance
from referees import scalar_normal_quantile

# frozen from scipy.stats.norm.ppf
PPF = {0.9: 1.2815515655446004, 0.6: 0.2533471031357997, 0.5: 0.0,
       0.3: -0.5244005127080409, 0.1: -1.2815515655446004}

R0 = np.array([1.3, 1.2, 1.35, 1.4, 1.45])
R2 = np.array([0.6, 0.5, 0.5, 0.6, 0.6])
BETA = np.array([0.2, 0.15, 0.15, 0.25, 0.25])


@pytest.fixture(scope="module")
def table1():
    return bundled_instance("paper_table1")


def expected_lp(level):
    # closed form with independently frozen quantiles: the test-side oracle
    t_star = PPF[round(1 - level, 10)]
    c = R0 + t_star * R2 - level * BETA
    threshold = 250.0 + t_star * 50.0 - 40.0 * level
    return c, threshold


# --- instance validation -----------------------------------------------------

def _asset():
    return FuzzyRandomReturn(1.0, 1.2, 0.5, 0.1, 0.1)


def test_instance_validation():
    with pytest.raises(ValidationError):
        PortfolioInstance((), _asset(), 100.0, (), RandomFactor())
    with pytest.raises(ValidationError):
        PortfolioInstance((_asset(),), _asset(), 100.0, (50.0, 60.0), RandomFactor())
    with pytest.raises(ValidationError):
        PortfolioInstance((_asset(),), _asset(), -5.0, (50.0,), RandomFactor())
    with pytest.raises(ValidationError):
        PortfolioInstance((_asset(),), _asset(), 100.0, (0.0,), RandomFactor())
    with pytest.raises(BudgetInfeasibleError):
        PortfolioInstance((_asset(), _asset()), _asset(), 400.0, (150.0, 150.0), RandomFactor())


def test_levels_validation():
    with pytest.raises(ValidationError):
        ConfidenceLevels(0.0, 0.5)
    with pytest.raises(ValidationError):
        ConfidenceLevels(0.5, 1.0)
    ConfidenceLevels(0.5, 0.5)
    # 1 - lambda must stay below 1 for the normal quantile; eta has no such limit
    with pytest.raises(ValidationError) as err:
        ConfidenceLevels(1e-17, 0.5)
    assert err.value.field == "lam"
    tiny = ConfidenceLevels(2.0 ** -53, 2.0 ** -60)
    assert np.all(np.isfinite(reformulate(bundled_instance("paper_table1"), tiny).coefficients))


@pytest.mark.parametrize("lam, eta, field", [
    ("0.5", 0.5, "lam"), (None, 0.5, "lam"), (True, 0.5, "lam"),
    (0.5, "0.5", "eta"), (0.5, None, "eta"), (0.5, False, "eta"),
])
def test_levels_of_the_wrong_type_name_the_field(lam, eta, field):
    with pytest.raises(ValidationError) as err:
        ConfidenceLevels(lam, eta)
    assert err.value.field == field
    assert str(err.value).startswith(f"{'lambda' if field == 'lam' else 'eta'} must lie strictly in (0, 1), got ")


@pytest.mark.parametrize("fund, bounds, field", [
    ("1", (60.0, 60.0), "total_fund"), (None, (60.0, 60.0), "total_fund"), (True, (60.0, 60.0), "total_fund"),
    (100.0, ("60", 60.0), "upper_bounds"), (100.0, (None, 60.0), "upper_bounds"),
    (100.0, (True, 60.0), "upper_bounds"), (100.0, (60.0,), "upper_bounds"),
])
def test_instance_fields_of_the_wrong_type_name_the_field(fund, bounds, field):
    with pytest.raises(ValidationError) as err:
        PortfolioInstance((_asset(), _asset()), _asset(), fund, bounds, RandomFactor())
    assert err.value.field == field


@pytest.mark.parametrize("fund, bounds, field", [
    (10**400, (60.0, 60.0), "total_fund"), (100.0, (10**400, 60.0), "upper_bounds"),
    (100.0, (60.0, -10**400), "upper_bounds"),
], ids=["fund", "bound", "negative-bound"])
def test_instance_ints_past_the_float_range_name_the_field(fund, bounds, field):
    with pytest.raises(ValidationError) as err:
        PortfolioInstance((_asset(), _asset()), _asset(), fund, bounds, RandomFactor())
    assert err.value.field == field


def test_instance_stores_numpy_and_integer_numbers_as_floats():
    inst = PortfolioInstance((_asset(), _asset()), _asset(), np.int64(100), np.array([60, 60]), RandomFactor())
    assert (inst.total_fund, inst.upper_bounds) == (100.0, (60.0, 60.0))
    assert all(type(v) is float for v in (inst.total_fund, *inst.upper_bounds))


# --- reformulation ------------------------------------------------------------

@pytest.mark.parametrize("level", [0.1, 0.5, 0.9])
def test_reformulate_against_closed_form(table1, level):
    lp = reformulate(table1, ConfidenceLevels(level, level))
    c, threshold = expected_lp(level)
    assert lp.coefficients == pytest.approx(c, abs=1e-9)
    assert lp.threshold == pytest.approx(threshold, abs=1e-9)
    assert lp.total_fund == 200.0
    assert tuple(lp.upper_bounds) == (60.0,) * 5


def test_reformulate_known_vectors(table1):
    lp = reformulate(table1, ConfidenceLevels(0.1, 0.1))
    assert lp.coefficients == pytest.approx(
        [2.0489, 1.8258, 1.9758, 2.1440, 2.1940], abs=5e-4)
    assert lp.threshold == pytest.approx(310.08, abs=5e-3)

    mid = reformulate(table1, ConfidenceLevels(0.5, 0.5))
    assert mid.coefficients == pytest.approx([1.2, 1.125, 1.275, 1.275, 1.325], abs=1e-9)

    hi = reformulate(table1, ConfidenceLevels(0.9, 0.9))
    assert hi.coefficients == pytest.approx(
        [0.3510, 0.4242, 0.5742, 0.4060, 0.4560], abs=5e-4)
    assert hi.threshold == pytest.approx(149.92, abs=5e-3)


def test_reformulate_deterministic(table1):
    lv = ConfidenceLevels(0.37, 0.21)
    a = reformulate(table1, lv)
    b = reformulate(table1, lv)
    assert a.coefficients.tobytes() == b.coefficients.tobytes()
    assert a.threshold == b.threshold


def test_reformulate_matches_the_per_asset_formula():
    rng = np.random.default_rng(5)
    for _ in range(50):
        inst = random_instance(rng, n_assets=int(rng.integers(1, 40)))
        # one to eight levels, each reformulated alone and all stacked in one call
        levels = [ConfidenceLevels(float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 0.99)))
                  for _ in range(int(rng.integers(1, 9)))]
        stacked = reformulate(inst, levels)
        assert stacked.coefficients.shape == (len(levels), len(inst.assets)) and stacked.levels == tuple(levels)
        tgt = inst.target
        for i, lv in enumerate(levels):
            t_star = scalar_normal_quantile(1.0 - lv.lam, inst.factor)
            l_star = 1.0 - (1.0 - lv.eta)
            want = np.array([a.r0 + t_star * a.r2 - l_star * a.beta for a in inst.assets])
            threshold = tgt.r0 + t_star * tgt.r2 - tgt.beta * l_star
            alone = reformulate(inst, lv)
            assert alone.coefficients.tobytes() == want.tobytes()
            assert stacked.coefficients[i].tobytes() == want.tobytes()
            assert np.float64(alone.threshold).tobytes() == stacked.threshold[i].tobytes()
            assert np.float64(threshold).tobytes() == stacked.threshold[i].tobytes()


def test_a_stacked_call_names_its_first_failing_level(table1):
    from fuzzfolio.oracle import solve_exact

    # r2 = 1e308 overflows the coefficient wherever |T*| > 1.8
    huge = dataclasses.replace(table1, assets=table1.assets[:2] + (
        dataclasses.replace(table1.assets[2], r2=1e308),) + table1.assets[3:])
    levels = [ConfidenceLevels(v, v) for v in (0.5, 0.01, 0.99)]
    with pytest.raises(ValidationError, match=r"^assets\[2\]: the coefficient overflows at lambda=0\.01, "):
        reformulate(huge, levels)
    # optima 1e308, 3e308 and 2e308: the second and third overflow
    lp = DeterministicLP(np.array([[1.0, 0.5], [3.0, 0.5], [2.0, 0.5]]), 1e308, np.array([1e308, 1.0]),
                         np.zeros(3), tuple(levels))
    with pytest.raises(ValidationError, match=r"^the optimal objective overflows at lambda=0\.01, "):
        solve_exact(lp)


def test_coefficients_monotone_in_levels(table1):
    rng = np.random.default_rng(3)
    prev = None
    for level in np.linspace(0.05, 0.95, 10):
        lp = reformulate(table1, ConfidenceLevels(float(level), float(level)))
        if prev is not None:
            assert np.all(lp.coefficients <= prev.coefficients + 1e-12)
        prev = lp
    # decoupled monotonicity at fixed lambda
    etas = sorted(rng.uniform(0.05, 0.95, size=5))
    vals = [reformulate(table1, ConfidenceLevels(0.3, float(e))).coefficients for e in etas]
    for lo, hi in zip(vals, vals[1:]):
        assert np.all(hi <= lo + 1e-12)


def test_optimal_value_monotone_in_coupled_levels(table1):
    from fuzzfolio.oracle import solve_exact

    values = [
        solve_exact(reformulate(table1, ConfidenceLevels(lv, lv))).objective
        for lv in (0.1, 0.4, 0.7, 0.9)
    ]
    assert values == sorted(values, reverse=True)


# --- objective and residuals ---------------------------------------------------

def test_objective_examples(table1):
    lp = reformulate(table1, ConfidenceLevels(0.1, 0.1))
    assert objective(lp, np.zeros(5)) == 0.0
    c, _ = expected_lp(0.1)
    x = np.array([60.0, 0.0, 20.0, 60.0, 60.0])
    assert objective(lp, x) == pytest.approx(float(c @ x), rel=1e-9)
    assert objective(lp, x) == pytest.approx(422.7, abs=0.1)

    hi = reformulate(table1, ConfidenceLevels(0.9, 0.9))
    x9 = np.array([0.0, 60.0, 60.0, 20.0, 60.0])
    assert objective(hi, x9) == pytest.approx(95.4, abs=0.1)

    with pytest.raises(ValueError):
        objective(lp, np.zeros(4))
    # a level-batched LP has no single objective
    both = reformulate(table1, [ConfidenceLevels(0.1, 0.1), ConfidenceLevels(0.9, 0.9)])
    for x in (np.stack([x, x9]), x):
        with pytest.raises(ValueError, match=r"^expected a one-level LP"):
            objective(both, x)


def test_residuals_examples(table1):
    lp = reformulate(table1, ConfidenceLevels(0.1, 0.1))
    rep = residuals(lp, [60.0, 0.0, 20.0, 60.0, 60.0])
    assert rep.budget_residual == 0.0
    assert np.all(rep.bound_violations == 0.0)
    assert rep.feasible

    over = residuals(lp, [70.0, 0.0, 20.0, 60.0, 60.0])
    assert over.bound_violations[0] == pytest.approx(10.0)
    assert not over.feasible

    under = residuals(lp, [-3.0, 0.0, 23.0, 60.0, 60.0])
    assert under.bound_violations[0] == pytest.approx(3.0)
    assert not under.feasible

    hi = reformulate(table1, ConfidenceLevels(0.9, 0.9))
    rep9 = residuals(hi, [0.0, 60.0, 60.0, 20.0, 60.0])
    assert rep9.threshold_residual < 0  # the return floor is out of reach here
    assert not rep9.feasible


# --- Monte Carlo certificate ----------------------------------------------------

def test_certificate_boundary_probability(table1):
    # at f = c . x the hit probability is exactly lambda in distribution
    levels = ConfidenceLevels(0.4, 0.4)
    x = [20.0, 0.0, 60.0, 60.0, 60.0]
    cert = necessity_certificate(table1, levels, x, n_samples=10_000, rng=123)
    assert cert.probability == pytest.approx(0.4, abs=0.05)
    assert cert.crisp_holds
    assert cert.n_samples == 10_000


def test_certificate_dominance_cases(table1):
    levels = ConfidenceLevels(0.4, 0.4)
    x = [20.0, 0.0, 60.0, 60.0, 60.0]
    sure = necessity_certificate(table1, levels, x, n_samples=2000, rng=1, margin=1e6)
    assert sure.probability == 1.0 and sure.meets_level
    hopeless = necessity_certificate(table1, levels, x, n_samples=2000, rng=1, margin=-1e6)
    assert hopeless.probability == 0.0 and not hopeless.meets_level


def test_certificate_seeded_reproducibility(table1):
    levels = ConfidenceLevels(0.3, 0.6)
    x = [20.0, 0.0, 60.0, 60.0, 60.0]
    a = necessity_certificate(table1, levels, x, n_samples=3000, rng=9)
    b = necessity_certificate(table1, levels, x, n_samples=3000, rng=9)
    assert a == b


def test_crisp_verdict_agrees_with_certificate_quick():
    # small version of the acceptance property: 20 instances, 2000 samples
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(20):
        inst = random_instance(rng)
        levels = ConfidenceLevels(float(rng.uniform(0.15, 0.85)), float(rng.uniform(0.15, 0.85)))
        x = random_feasible_x(rng, inst)
        # shifting f by +-1 slope unit moves the hit probability across
        # a full z-score, so most draws land decisively away from lambda
        slope = float(sum(a.r2 * w for a, w in zip(inst.assets, x)))
        margin = float(rng.uniform(-1.0, 1.0)) * slope
        cert = necessity_certificate(inst, levels, x, n_samples=2000,
                                     rng=int(rng.integers(2**32)), margin=margin)
        if abs(cert.probability - levels.lam) > 3 * max(cert.std_error, 1e-9):
            assert cert.crisp_holds == cert.meets_level
            checked += 1
    assert checked >= 10  # the draw ranges must keep most cases decisive


def certificate_case(rng):
    """A random instance, levels, allocation and margin.  A quarter of the
    instances have no left spread at all, and in the rest about a third of
    the assets have none; about a third of the weights are zero.  The
    allocation need not meet the budget: the reformulation is exact at
    every nonnegative allocation."""
    inst = random_instance(rng)
    flat = rng.random(len(inst.assets)) < (1.0 if rng.random() < 0.25 else 0.3)
    inst = dataclasses.replace(inst, assets=tuple(
        dataclasses.replace(a, beta=0.0) if z else a for a, z in zip(inst.assets, flat)))
    x = random_feasible_x(rng, inst)
    x[rng.random(x.size) < 0.3] = 0.0
    levels = ConfidenceLevels(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9)))
    slope = float(sum(a.r2 * w for a, w in zip(inst.assets, x)))
    return inst, levels, x, float(rng.uniform(-1.0, 1.0)) * slope


def scalar_hits(instance, levels, x, f, draws):
    """The per-draw definition: observe each asset, sum with the weights,
    and count the draws whose necessity degree reaches eta."""
    weights = [float(w) for w in x]
    return sum(
        necessity_geq_scalar(weighted_sum([observe(a, t) for a in instance.assets], weights), f) >= levels.eta
        for t in draws.tolist()
    )


@pytest.mark.filterwarnings("error")
def test_certificate_matches_the_scalar_referee():
    rng = np.random.default_rng(5)
    flat = empty = 0
    for _ in range(200):
        inst, levels, x, margin = certificate_case(rng)
        seed = int(rng.integers(2**32))
        cert = necessity_certificate(inst, levels, x, n_samples=500, rng=seed, margin=margin)
        draws = np.random.default_rng(seed).normal(inst.factor.mean, inst.factor.std_dev, size=500)
        hits = scalar_hits(inst, levels, x, cert.threshold, draws)
        assert cert.probability == hits / 500
        flat += sum(a.beta * w for a, w in zip(inst.assets, x)) == 0.0
        empty += 0 < hits < 500
    # the draws must reach the zero-spread step and the shoulder in between
    assert flat >= 40 and empty >= 40


def test_crisp_verdict_agrees_with_certificate_on_2000_instances():
    rng = np.random.default_rng(2000)
    decisive = 0
    for _ in range(2000):
        inst, levels, x, margin = certificate_case(rng)
        cert = necessity_certificate(inst, levels, x, n_samples=2000,
                                     rng=int(rng.integers(2**32)), margin=margin)
        if abs(cert.probability - levels.lam) > 3 * max(cert.std_error, 1e-9):
            decisive += 1
            assert cert.crisp_holds == cert.meets_level, (levels, x, margin, cert.probability)
    assert decisive >= 1500


@pytest.mark.parametrize("n_samples", [2.5, 0, -3, True, "10", None, 1e4],
                         ids=["float", "zero", "negative", "bool", "str", "none", "float-integral"])
def test_certificate_checks_n_samples_first(table1, n_samples, monkeypatch):
    def unreachable(*args):
        raise AssertionError("reformulated before checking n_samples")

    monkeypatch.setattr("fuzzfolio.model.reformulate", unreachable)
    with pytest.raises(ValidationError, match="^n_samples must be a positive integer, got ") as info:
        necessity_certificate(table1, ConfidenceLevels(0.4, 0.4), [20.0, 0.0, 60.0, 60.0, 60.0], n_samples=n_samples)
    assert info.value.field == "n_samples"


def test_certificate_rejects_negative_weights_and_non_finite_peaks(table1):
    levels = ConfidenceLevels(0.4, 0.4)
    with pytest.raises(ValueError, match="^weights must be nonnegative$"):
        necessity_certificate(table1, levels, [-20.0, 40.0, 60.0, 60.0, 60.0], n_samples=10)
    # a peak shift t * r2 past the float range for |t| > 1.8
    huge = dataclasses.replace(table1, assets=(FuzzyRandomReturn(1.0, 1.0, 1e308, 0.1, 0.1),) + table1.assets[1:])
    with np.errstate(all="raise"), pytest.raises(ValueError, match="^field 'a0' must be finite, got -?inf$"):
        necessity_certificate(huge, levels, [1.0, 19.0, 60.0, 60.0, 60.0], n_samples=1000)
    # at weight 20 the crisp value c . x itself overflows; it is named, with no
    # numpy warning, before a single draw
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the crisp value c \. x must be finite, got inf$"):
            necessity_certificate(huge, levels, [20.0, 0.0, 60.0, 60.0, 60.0], rng=rng)
    assert rng.bit_generator.state == state
