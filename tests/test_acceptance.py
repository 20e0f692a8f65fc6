"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines live.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from fuzzfolio import ica
from fuzzfolio.cli import PUBLISHED_RESULTS, main
from fuzzfolio.fuzzy import LRFuzzyNumber, necessity_geq_scalar
from fuzzfolio.io import bundled_instance
from fuzzfolio.model import ConfidenceLevels, DeterministicLP, necessity_certificate, reformulate
from fuzzfolio.oracle import solve_exact
from instgen import random_feasible_x, random_instance
from referees import brute_force, necessity_geq_fuzzy, support

LEVELS = (0.1, 0.4, 0.7, 0.9)
SEEDS = range(1, 21)

EXPECTED_ALLOCATIONS = {
    0.1: [60.0, 0.0, 20.0, 60.0, 60.0],
    0.4: [20.0, 0.0, 60.0, 60.0, 60.0],
    0.7: [20.0, 0.0, 60.0, 60.0, 60.0],
    0.9: [0.0, 60.0, 60.0, 20.0, 60.0],
}


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] FAIL  {title}", flush=True)
        raise
    print(f"\n[criterion {num}] PASS  {title}", flush=True)


@pytest.fixture(scope="module")
def table1():
    return bundled_instance("paper_table1")


@pytest.fixture(scope="module")
def lps(table1):
    return {lv: reformulate(table1, ConfidenceLevels(lv, lv)) for lv in LEVELS}


@pytest.fixture(scope="module")
def ica_sweep(table1):
    """All 4 x 20 seeded runs at the published parameter set in the one
    level-batched call reproduce-paper makes, split per level, with timing."""
    lp = reformulate(table1, [ConfidenceLevels(lv, lv) for lv in LEVELS])
    start = time.perf_counter()
    reports = ica.run(lp, ica.IcaConfig(), SEEDS)
    elapsed = time.perf_counter() - start
    runs = {lv: reports[i * len(SEEDS):(i + 1) * len(SEEDS)] for i, lv in enumerate(LEVELS)}
    return runs, elapsed


def test_criterion_1_exact_allocations(lps):
    with criterion(1, "exact allocations match the published table, < 1 ms each"):
        solve_exact(lps[0.1])  # warm-up outside the timed region
        for lv in LEVELS:
            t0 = time.perf_counter()
            sol = solve_exact(lps[lv])
            dt = time.perf_counter() - t0
            assert sol.x.tolist() == EXPECTED_ALLOCATIONS[lv], f"level {lv}"
            assert dt < 1e-3, f"level {lv} took {dt*1e3:.3f} ms"


def test_criterion_2_exact_objectives(lps):
    with criterion(2, "exact objectives within 0.5% of the published values"):
        for lv in LEVELS:
            published = PUBLISHED_RESULTS[lv]
            got = solve_exact(lps[lv]).objective
            assert abs(got - published) / published <= 0.005, f"level {lv}: {got} vs {published}"


def test_criterion_3_threshold_pattern(lps):
    with criterion(3, "return floor satisfiable at 0.1/0.4, unsatisfiable at 0.7/0.9"):
        flags = [solve_exact(lps[lv]).objective >= lps[lv].threshold for lv in LEVELS]
        assert flags == [True, True, False, False]


def test_criterion_4_ica_quality(lps, ica_sweep):
    with criterion(4, "ICA: median gap <= 1%, best seed <= 0.2%, sweep < 5 s"):
        runs, elapsed = ica_sweep
        for lv in LEVELS:
            exact = solve_exact(lps[lv]).objective
            objs = np.array([r.best_objective for r in runs[lv]])
            assert np.all(objs <= exact + 1e-9)
            median_gap = (exact - float(np.median(objs))) / exact
            best_gap = (exact - float(objs.max())) / exact
            assert median_gap <= 0.01, f"level {lv}: median gap {median_gap:.3%}"
            assert best_gap <= 0.002, f"level {lv}: best gap {best_gap:.3%}"
        assert elapsed < 5.0, f"sweep took {elapsed:.2f} s"


def test_criterion_5_reformulation_vs_direct_necessity():
    with criterion(5, "crisp reformulation agrees with Monte Carlo and grid necessity"):
        # (a) 200 random instances: the crisp verdict at f = c.x + delta matches
        # the 10^4-sample estimate of Pr{N(Z(t) >= f) >= eta} outside 3 sigma
        rng = np.random.default_rng(20240917)
        decisive = 0
        for _ in range(200):
            inst = random_instance(rng)
            levels = ConfidenceLevels(
                float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9)))
            x = random_feasible_x(rng, inst)
            slope = float(sum(a.r2 * w for a, w in zip(inst.assets, x)))
            margin = float(rng.uniform(-1.0, 1.0)) * slope
            cert = necessity_certificate(
                inst, levels, x, n_samples=10_000,
                rng=int(rng.integers(2**32)), margin=margin)
            if abs(cert.probability - levels.lam) > 3 * max(cert.std_error, 1e-9):
                decisive += 1
                assert cert.crisp_holds == cert.meets_level, (
                    f"p={cert.probability} lambda={levels.lam} margin={margin}")
        assert decisive >= 150, f"only {decisive}/200 draws were decisive"

        # (b) closed form vs grid evaluation of the inf/max definition on
        # 1000 random LR numbers, within 2 grid steps of membership variation
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a0 = rng.uniform(-5, 5)
            a = LRFuzzyNumber(a0, a0 + rng.uniform(0, 2),
                              rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
            lo, hi = support(a)
            f = rng.uniform(lo - 0.5, hi + 0.5)
            grid = necessity_geq_fuzzy(a, LRFuzzyNumber(f, f, 0.0, 0.0), grid=1000)
            closed = necessity_geq_scalar(a, f)
            step = (hi - lo) / 999
            assert abs(grid - closed) <= 2 * step / a.beta


def test_criterion_6_ica_mechanics(ica_sweep):
    with criterion(6, "power normalization, apportionment, monotone traces, box bounds"):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            costs = rng.normal(0.0, 10.0, size=int(rng.integers(2, 15)))
            shares = ica._power_shares(costs)
            assert np.all(shares >= 0.0) and shares.sum() == pytest.approx(1.0)
            n_col = int(rng.integers(0, 120))
            assert sum(ica._largest_remainder(shares, n_col)) == n_col
        runs, _ = ica_sweep
        assert __debug__  # in-loop bound/partition assertions were active
        for reports in runs.values():
            for report in reports:
                costs = report.history[:, 0].tolist()
                assert all(b <= a for a, b in zip(costs, costs[1:]))
                assert len(costs) == 25
                assert np.all(report.best_position >= 0.0)
                assert np.all(report.best_position <= 60.0)


def test_criterion_7_oracle_cross_check():
    with criterion(7, "greedy equals brute force on 500 random instances"):
        rng = np.random.default_rng(2024)
        lv = ConfidenceLevels(0.5, 0.5)
        for _ in range(500):
            n = int(rng.integers(1, 6))
            caps = rng.integers(1, 7, size=n)
            step = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
            u = caps.astype(float) * step
            m0 = float(rng.integers(1, int(caps.sum()) + 1)) * step
            lp = DeterministicLP(rng.normal(1.0, 0.8, size=n), m0, u, -1e9, lv)
            exact = solve_exact(lp)
            brute = brute_force(lp, grid_step=step)
            assert abs(exact.objective - brute.objective) <= 1e-9


def test_criterion_8_reproduce_determinism(tmp_path, capsys):
    with criterion(8, "reproduce-paper --seeds 7 twice yields byte-identical CSV"):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code = main(["reproduce-paper", "--seeds", "7", "--format", "csv", "--out", str(p)])
            assert code == 0
        capsys.readouterr()
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert len(first) > 0
