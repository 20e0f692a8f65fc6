import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzfolio.errors import ValidationError
from fuzzfolio.fuzzy import (
    FuzzyRandomReturn,
    LRFuzzyNumber,
    RandomFactor,
    necessity_geq_scalar,
    normal_quantile,
    observe,
    weighted_sum,
)
from referees import membership, necessity_geq_fuzzy, scalar_standard_quantile, support

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


@pytest.mark.parametrize("value, rule", [(True, "be a number"), ("1", "be a number"), (None, "be a number"),
                                         (10**400, "be finite"), (10**5000, "be finite")],
                         ids=["bool", "str", "none", "past-float-range", "past-text-limit"])
@pytest.mark.parametrize("cls, field", [(cls, f) for cls, fields in VALID_FIELDS.items() for f in fields])
def test_fields_of_no_finite_number_name_the_field(cls, field, value, rule):
    with pytest.raises(ValidationError) as err:
        cls(**{**VALID_FIELDS[cls], field: value})
    assert err.value.field == field
    assert str(err.value).startswith(f"field {field!r} must {rule}, got ")


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
    for bad in (0.0, 1.0, -0.2, 1.7, math.nan):
        with pytest.raises(ValueError):
            normal_quantile(bad)
    shifted = RandomFactor(mean=3.0, std_dev=2.0)
    assert normal_quantile(0.9, shifted) == pytest.approx(3.0 + 2.0 * PPF_09, abs=1e-8)


def test_quantile_domain_errors_name_the_value():
    with pytest.raises(ValueError) as scalar:
        normal_quantile(0.0)
    assert str(scalar.value) == "probability must lie strictly in (0, 1), got 0.0"
    for bad, named in ((1.0, "got 1.0 at index 2"), (-0.2, "got -0.2 at index 2"), (math.nan, "got nan at index 2")):
        with pytest.raises(ValueError, match=f"^probability must lie strictly in \\(0, 1\\), {named}$"):
            normal_quantile(np.array([0.3, 0.5, bad, 0.0]))
    with pytest.raises(ValueError, match="got nan at index 3$"):
        normal_quantile(np.array([[0.3, 0.5], [0.9, math.nan]]))


def test_quantile_array_is_bitwise_the_scalar_referee():
    rng = np.random.default_rng(14)
    u = rng.random(20_000)
    ps = np.concatenate([
        u,
        1.0 - 10.0 ** -rng.uniform(1, 16, 21_000),
        10.0 ** -rng.uniform(1, 323, 20_000),
        1.0 - u ** 10,
        rng.uniform(0.4, 0.6, 10_000),
        10.0 ** -rng.uniform(295, 305, 10_000),  # both sides of the 1e-300 switch to erfc alone
        [2.0 ** -53, 1.0 - 2.0 ** -53, 5e-324, 1e-300, np.nextafter(1e-300, 1.0), 0.5, np.nextafter(1.0, 0.0)],
    ])
    ps = ps[(ps > 0.0) & (ps < 1.0)]
    assert ps.size >= 100_000
    # the referee's bisection does not depend on the factor: run it once per p
    # and map each factor's quantiles as scalar_normal_quantile does
    t = np.array([scalar_standard_quantile(p) for p in ps.tolist()])
    for factor in (RandomFactor(), RandomFactor(3.0, 2.0)):
        want = factor.mean + factor.std_dev * t
        assert (normal_quantile(ps, factor).view("i8") == want.view("i8")).all()


def test_quantile_of_few_entries_is_bitwise_the_scalar_referee():
    # alone or a few at a time, an entry's loop starts at the finest grid far
    # from its q, which the 100,000 entries above, some near a coarse grid point, never do
    rng = np.random.default_rng(15)
    ps = np.concatenate([
        rng.random(400),
        1.0 - 10.0 ** -rng.uniform(1, 16, 150),
        10.0 ** -rng.uniform(1, 323, 150),
        rng.uniform(0.49, 0.51, 100),
        [0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 0.25, 0.75, 1e-300, 2.0 ** -53, 1.0 - 2.0 ** -53],
    ])
    want = np.array([scalar_standard_quantile(p) for p in ps.tolist()])
    assert (np.array([normal_quantile(p) for p in ps.tolist()]).view("i8") == want.view("i8")).all()
    sizes = rng.integers(2, 8, ps.size)
    for start, size in zip(range(0, ps.size, 8), sizes):
        chunk = ps[start:start + size]
        assert (normal_quantile(chunk).view("i8") == want[start:start + size].view("i8")).all()


def test_quantile_shapes():
    assert type(normal_quantile(0.3)) is float
    assert normal_quantile(np.array(0.3)) == normal_quantile(0.3)
    grid = np.array([[0.1, 0.3, 0.5], [0.7, 0.9, 0.99]])
    out = normal_quantile(grid)
    assert out.shape == (2, 3)
    assert out.ravel().tolist() == [normal_quantile(p) for p in grid.ravel().tolist()]
    assert normal_quantile(np.empty((0, 3))).shape == (0, 3)


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
        step = max(np.ptp(support(a)), np.ptp(support(b))) / 1499
        slope = max(1.0 / s for s in (a.beta, b.beta) if s > 0)
        assert got == pytest.approx(want, abs=max(2 * step * slope, 1e-9))


def test_closed_form_vs_grid_on_scalar_thresholds():
    # the grid evaluation with a crisp right side must reproduce the scalar
    # closed form; 1000 random LR numbers, tolerance of 2 grid steps
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = _random_lr(rng)
        lo, hi = support(a)
        f = rng.uniform(lo - 0.5, hi + 0.5)
        got = necessity_geq_fuzzy(a, LRFuzzyNumber(f, f, 0.0, 0.0), grid=1000)
        want = necessity_geq_scalar(a, f)
        step = np.ptp(support(a)) / 999
        assert got == pytest.approx(want, abs=2 * step / a.beta)


def _random_lr(rng):
    a0 = rng.uniform(-5, 5)
    return LRFuzzyNumber(
        a0,
        a0 + rng.uniform(0, 2),
        rng.uniform(0.1, 3.0),
        rng.uniform(0.1, 3.0),
    )
