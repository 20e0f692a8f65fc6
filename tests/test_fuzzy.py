import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzfolio.fuzzy import (
    FuzzyRandomReturn,
    LRFuzzyNumber,
    RandomFactor,
    membership,
    necessity_geq_fuzzy,
    necessity_geq_scalar,
    normal_quantile,
    observe,
    weighted_sum,
)

# independent reference values for the standard normal quantile
# (frozen from scipy.stats.norm.ppf, not computed by this package)
PPF_09 = 1.2815515655446004
PPF_06 = 0.2533471031357997
PPF_03 = -0.5244005127080409

ASSET1 = LRFuzzyNumber(1.3, 1.45, 0.2, 0.2)


# --- construction and validation -------------------------------------------

def test_invalid_lr_numbers_rejected():
    with pytest.raises(ValueError):
        LRFuzzyNumber(2.0, 1.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        LRFuzzyNumber(1.0, 2.0, -0.1, 0.1)
    with pytest.raises(ValueError):
        FuzzyRandomReturn(1.5, 1.2, 0.5, 0.1, 0.1)
    with pytest.raises(ValueError):
        FuzzyRandomReturn(1.0, 1.2, -0.5, 0.1, 0.1)
    with pytest.raises(ValueError):
        RandomFactor(0.0, 0.0)


VALID_FIELDS = {
    LRFuzzyNumber: {"a0": 1.0, "a1": 2.0, "beta": 0.1, "gamma": 0.1},
    FuzzyRandomReturn: {"r0": 1.0, "r1": 1.2, "r2": 0.5, "beta": 0.1, "gamma": 0.1},
    RandomFactor: {"mean": 0.0, "std_dev": 1.0},
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, field", [(cls, f) for cls, fields in VALID_FIELDS.items() for f in fields])
def test_non_finite_fields_rejected(cls, field, value):
    cls(**VALID_FIELDS[cls])
    with pytest.raises(ValueError) as err:
        cls(**{**VALID_FIELDS[cls], field: value})
    assert str(err.value) == f"field {field!r} must be finite, got {value}"


# --- membership --------------------------------------------------------------

def test_membership_examples():
    assert membership(ASSET1, 1.3) == 1.0
    # 1.1 sits on the support edge up to one ulp of 1.3 - 0.2
    assert membership(ASSET1, 1.1) == pytest.approx(0.0, abs=1e-12)
    assert membership(ASSET1, 1.05) == 0.0
    assert membership(ASSET1, 1.2) == pytest.approx(0.5)


def test_membership_peak_interval_is_one():
    for x in np.linspace(1.3, 1.45, 7):
        assert membership(ASSET1, float(x)) == 1.0


def test_membership_zero_spread_is_step():
    crisp = LRFuzzyNumber(2.0, 2.0, 0.0, 0.0)
    assert membership(crisp, 2.0) == 1.0
    assert membership(crisp, 2.0 - 1e-12) == 0.0
    assert membership(crisp, 2.0 + 1e-12) == 0.0
    half = LRFuzzyNumber(1.0, 2.0, 0.0, 1.0)
    assert membership(half, 1.0 - 1e-12) == 0.0
    assert membership(half, 2.5) == pytest.approx(0.5)


def test_membership_accepts_arrays():
    got = membership(ASSET1, np.array([1.0, 1.2, 1.4, 1.55, 2.0]))
    assert np.allclose(got, [0.0, 0.5, 1.0, 0.5, 0.0])


# --- alpha cuts --------------------------------------------------------------

@given(
    a0=st.integers(-400, 400),
    width=st.integers(0, 32),
    beta_pow=st.integers(-2, 3) | st.none(),
    gamma_pow=st.integers(-2, 3) | st.none(),
    alpha_num=st.integers(1, 16),
    x_num=st.integers(-8000, 8000),
)
def test_cut_membership_consistency(a0, width, beta_pow, gamma_pow, alpha_num, x_num):
    # power-of-two spreads and dyadic inputs keep every intermediate exact,
    # so the equivalence can be asserted without tolerance
    beta = 0.0 if beta_pow is None else 2.0 ** beta_pow
    gamma = 0.0 if gamma_pow is None else 2.0 ** gamma_pow
    a = LRFuzzyNumber(a0 / 8, a0 / 8 + width / 8, beta, gamma)
    alpha = alpha_num / 16
    x = x_num / 16
    # the alpha-cut: the peak widened by each spread times 1 - alpha
    lo, hi = a.a0 - a.beta * (1.0 - alpha), a.a1 + a.gamma * (1.0 - alpha)
    assert (membership(a, x) >= alpha) == (lo <= x <= hi)


# --- fuzzy random returns -----------------------------------------------------

def test_observe_examples():
    asset1 = FuzzyRandomReturn(1.3, 1.45, 0.6, 0.2, 0.2)
    assert observe(asset1, 0.0) == LRFuzzyNumber(1.3, 1.45, 0.2, 0.2)
    assert observe(asset1, 1.0) == LRFuzzyNumber(1.9, 2.05, 0.2, 0.2)
    target = FuzzyRandomReturn(250, 250, 50, 40, 40)
    assert observe(target, 0.0) == LRFuzzyNumber(250, 250, 40, 40)


TABLE1 = [
    FuzzyRandomReturn(1.3, 1.45, 0.6, 0.2, 0.2),
    FuzzyRandomReturn(1.2, 1.25, 0.5, 0.15, 0.15),
    FuzzyRandomReturn(1.35, 1.4, 0.5, 0.15, 0.15),
    FuzzyRandomReturn(1.4, 1.5, 0.6, 0.25, 0.25),
    FuzzyRandomReturn(1.45, 1.6, 0.6, 0.25, 0.25),
]


def test_weighted_sum_examples():
    obs = [observe(a, 0.0) for a in TABLE1]
    zero = weighted_sum(obs, [0.0] * 5)
    assert (zero.a0, zero.a1, zero.beta, zero.gamma) == (0, 0, 0, 0)

    single = weighted_sum([obs[0]], [60.0])
    assert (single.a0, single.a1, single.beta, single.gamma) == pytest.approx((78, 87, 12, 12))

    # dot products over the five assets at x = (60, 0, 20, 60, 60)
    z = weighted_sum(obs, [60.0, 0.0, 20.0, 60.0, 60.0])
    assert (z.a0, z.a1, z.beta, z.gamma) == pytest.approx((276.0, 301.0, 45.0, 45.0))


def test_weighted_sum_contract_errors():
    obs = [observe(a, 0.0) for a in TABLE1]
    with pytest.raises(ValueError):
        weighted_sum(obs, [1.0, 2.0])
    with pytest.raises(ValueError):
        weighted_sum(obs, [1.0, -2.0, 0.0, 0.0, 0.0])


@given(
    x=st.lists(st.integers(0, 100), min_size=5, max_size=5),
    y=st.lists(st.integers(0, 100), min_size=5, max_size=5),
    t=st.integers(-40, 40),
)
def test_weighted_sum_linearity(x, y, t):
    obs = [observe(a, t / 10) for a in TABLE1]
    xs = [v / 4 for v in x]
    ys = [v / 4 for v in y]
    combined = weighted_sum(obs, [a + b for a, b in zip(xs, ys)])
    wx = weighted_sum(obs, xs)
    wy = weighted_sum(obs, ys)
    for fieldname in ("a0", "a1", "beta", "gamma"):
        assert getattr(combined, fieldname) == pytest.approx(
            getattr(wx, fieldname) + getattr(wy, fieldname), rel=1e-12, abs=1e-12
        )


# --- normal quantile ----------------------------------------------------------

def test_quantile_examples():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)
    assert normal_quantile(0.9) == pytest.approx(PPF_09, abs=1e-9)
    assert normal_quantile(0.1) == pytest.approx(-PPF_09, abs=1e-9)
    assert normal_quantile(0.6) == pytest.approx(PPF_06, abs=1e-9)
    assert normal_quantile(0.3) == pytest.approx(PPF_03, abs=1e-9)


def test_quantile_domain_and_scaling():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            normal_quantile(bad)
    shifted = RandomFactor(mean=3.0, std_dev=2.0)
    assert normal_quantile(0.9, shifted) == pytest.approx(3.0 + 2.0 * PPF_09, abs=1e-8)


@given(st.floats(1e-6, 1 - 1e-6))
@settings(max_examples=200)
def test_quantile_cdf_round_trip(p):
    t = normal_quantile(p)
    assert abs(statistics.NormalDist().cdf(t) - p) <= 1e-8


@given(st.floats(1e-6, 1 - 1e-6))
def test_quantile_symmetry(p):
    assert abs(normal_quantile(p) + normal_quantile(1 - p)) <= 1e-8


# --- necessity vs scalar ------------------------------------------------------

def test_necessity_scalar_examples():
    a = LRFuzzyNumber(10, 12, 2, 2)
    assert necessity_geq_scalar(a, 8.0) == 1.0
    assert necessity_geq_scalar(a, 9.0) == pytest.approx(0.5)
    assert necessity_geq_scalar(a, 11.0) == 0.0
    # on the shoulder the degree is one minus the membership of f, bit for
    # bit; at a ratio of 1/3 that differs from the ratio itself in the last bit
    b = LRFuzzyNumber(10, 12, 3, 3)
    assert necessity_geq_scalar(b, 9.0) == 1.0 - membership(b, 9.0)


def test_necessity_scalar_zero_spread():
    crisp = LRFuzzyNumber(5, 5, 0, 0)
    assert necessity_geq_scalar(crisp, 5.0) == 1.0
    assert necessity_geq_scalar(crisp, 5.0 + 1e-12) == 0.0


# --- necessity vs fuzzy (grid oracle) -----------------------------------------

def test_necessity_fuzzy_dominance_cases():
    a = LRFuzzyNumber(10, 11, 1, 1)
    b = LRFuzzyNumber(0, 1, 1, 1)
    assert necessity_geq_fuzzy(a, b) == 1.0
    assert necessity_geq_fuzzy(b, a) == 0.0


def test_necessity_fuzzy_identical_triangulars():
    a = LRFuzzyNumber(0, 0, 1, 1)
    # brute-force grid evaluation of the inf/max definition gives 1/2
    assert necessity_geq_fuzzy(a, a, grid=2000) == pytest.approx(0.5, abs=2e-3)


def test_necessity_fuzzy_grid_validation():
    a = LRFuzzyNumber(0, 0, 1, 1)
    with pytest.raises(ValueError):
        necessity_geq_fuzzy(a, a, grid=50)


def _linear_necessity_closed_form(a, b):
    # threshold form of the same measure for linear references:
    # degree >= eta iff a0 - beta_a * eta >= b0 - beta_b * (1 - eta)
    if a.beta + b.beta == 0.0:
        return 1.0 if a.a0 >= b.a0 else 0.0
    return min(1.0, max(0.0, (a.a0 - b.a0 + b.beta) / (a.beta + b.beta)))


def test_necessity_fuzzy_matches_closed_form():
    rng = np.random.default_rng(42)
    for _ in range(200):
        a = _random_lr(rng)
        b = _random_lr(rng)
        got = necessity_geq_fuzzy(a, b, grid=1500)
        want = _linear_necessity_closed_form(a, b)
        step = max(np.ptp(a.support), np.ptp(b.support)) / 1499
        slope = max(1.0 / s for s in (a.beta, b.beta) if s > 0)
        assert got == pytest.approx(want, abs=max(2 * step * slope, 1e-9))


def test_closed_form_vs_grid_on_scalar_thresholds():
    # the grid evaluation with a crisp right side must reproduce the scalar
    # closed form; 1000 random LR numbers, tolerance of 2 grid steps
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = _random_lr(rng)
        lo, hi = a.support
        f = rng.uniform(lo - 0.5, hi + 0.5)
        got = necessity_geq_fuzzy(a, LRFuzzyNumber(f, f, 0.0, 0.0), grid=1000)
        want = necessity_geq_scalar(a, f)
        step = np.ptp(a.support) / 999
        assert got == pytest.approx(want, abs=2 * step / a.beta)


def _random_lr(rng):
    a0 = rng.uniform(-5, 5)
    return LRFuzzyNumber(
        a0,
        a0 + rng.uniform(0, 2),
        rng.uniform(0.1, 3.0),
        rng.uniform(0.1, 3.0),
    )
