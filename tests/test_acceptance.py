"""Acceptance gate.

Each test below implements one numbered acceptance criterion at its stated
scale and tolerance and prints a single PASS line with the measured numbers.
Run with `pytest tests/test_acceptance.py -v -s`.

Monte Carlo checks use fixed seeds, so each criterion is deterministic; the
per-trial welfare <= optimum assertion is enforced inside the estimator on
every trial of every run here.
"""

import math
import os

import numpy as np
import pytest

from ordmatch import (
    GapReport,
    Instance,
    RandomStream,
    estimate_assignment_probs,
    estimate_distortion,
    run_lb_theorem1,
)
from ordmatch import analytics
from ordmatch.distributions import DistributionSpec, sample_profile
from ordmatch.mechanisms import MechanismSpec
from ordmatch.opt import brute_force_opt, optimal_matching

from conftest import random_instance, random_quotas

E_RATIO = math.e / (math.e - 1)
UNIFORM = DistributionSpec.iid_uniform01()
FAVORITE_01 = DistributionSpec.favorite_bundle_uniform(1.0, 0.0)


def _ok(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_rs_distortion_ceiling():
    """Survivor lottery distortion stays below e/(e-1) on one-to-one markets."""
    worst = 0.0
    for n in (5, 10, 20):
        rep = estimate_distortion(MechanismSpec.rs(), UNIFORM, Instance.one_to_one(n), 100_000, 101)
        ceiling = 1.582 + 3 * rep.stderr_ratio
        assert rep.distortion_estimate <= ceiling, (n, rep.distortion_estimate, ceiling)
        worst = max(worst, rep.distortion_estimate)
    _ok(1, f"max distortion over n in (5, 10, 20) was {worst:.4f} <= 1.582")


def test_criterion_2_rs_exact_marginals():
    """Empirical per-rank frequencies match the product-integral closed form,
    which itself never dips below 1 - 1/e."""
    gen = RandomStream(2_002).generator()
    floor = 1 - 1 / math.e
    worst_dev = 0.0
    for _ in range(20):
        inst = random_instance(gen, n_max=6, m_max=12)
        rep = estimate_assignment_probs(MechanismSpec.rs(), UNIFORM, inst, 200_000, 102, workers=os.cpu_count())
        for i in range(inst.n):
            q = analytics.rs_q_exact(inst, i)
            assert q >= floor - 1e-12
            for t in range(inst.quotas[i]):
                dev = abs(float(rep.q_hat[i][t]) - q)
                assert dev <= float(rep.half_width[i][t]), (inst.quotas, i, t, dev)
                worst_dev = max(worst_dev, dev)
    _ok(2, f"20 instances, all ranks within Wilson 3-sigma (worst dev {worst_dev:.5f}); closed form >= {floor:.6f}")


def test_criterion_3_rsbs_equality():
    """The burn/steal mechanism hits 1 - (1 - x) e^(-1+x) exactly, per rank."""
    worst_dev = 0.0
    for quotas, seed in (((3, 2, 1), 103), ((5, 4, 1), 104)):
        inst = Instance(quotas)
        target = analytics.rsbs_q_exact(inst)
        assert target == pytest.approx(0.6967346701436833, abs=1e-12)  # b_max/m = 1/2 in both
        rep = estimate_assignment_probs(MechanismSpec.rsbs(), FAVORITE_01, inst, 200_000, seed)
        for i in range(inst.n):
            for t in range(inst.quotas[i]):
                dev = abs(float(rep.q_hat[i][t]) - target)
                assert dev <= float(rep.half_width[i][t]), (quotas, i, t, dev)
                worst_dev = max(worst_dev, dev)
    _ok(3, f"all ranks of (3,2,1) and (5,4,1) within 3-sigma of 0.69673 (worst dev {worst_dev:.5f})")


def test_criterion_4_rsbs_well_defined():
    """Burn and steal probabilities are genuine probabilities in [0, 1)."""
    gen = RandomStream(4_004).generator()
    for _ in range(500):
        inst = Instance(random_quotas(gen, n_max=20, m_max=200, n_min=2))
        sigma = analytics.stealing_prob(inst.b_max, inst.m)
        assert 0.0 <= sigma < 1.0, (inst.quotas, sigma)
        i_star = int(np.argmax(inst.quota_array))
        for i in range(inst.n):
            if i == i_star:
                continue
            beta = analytics.burning_prob(inst, i, i_star)
            assert 0.0 <= beta < 1.0, (inst.quotas, i, beta)
    _ok(4, "beta_i and sigma in [0, 1) on 500 random instances with m <= 200 (exact)")


def test_criterion_5_hql_equality_and_distortion():
    """One-pass highest-quota-last: per-rank frequency m/(2m - b_max) and
    distortion at most 2 - b_max/m."""
    gen = RandomStream(5_005).generator()
    worst_dev = 0.0
    for k in range(10):
        inst = random_instance(gen, n_max=6, m_max=12)
        target = analytics.hql_q(inst)
        rep = estimate_assignment_probs(MechanismSpec.hql(), UNIFORM, inst, 200_000, 1105 + k, workers=os.cpu_count())
        for i in range(inst.n):
            for t in range(inst.quotas[i]):
                dev = abs(float(rep.q_hat[i][t]) - target)
                assert dev <= float(rep.half_width[i][t]), (inst.quotas, i, t, dev)
                worst_dev = max(worst_dev, dev)
        dist_rep = estimate_distortion(MechanismSpec.hql(), UNIFORM, inst, 40_000, 205 + k, workers=os.cpu_count())
        bound = analytics.hql_distortion_bound(inst)
        assert dist_rep.distortion_estimate <= bound + 3 * dist_rep.stderr_ratio, inst.quotas
    _ok(5, f"10 instances: ranks within 3-sigma of m/(2m-b_max) (worst dev {worst_dev:.5f}), distortion <= 2 - b_max/m")


def test_criterion_6_distortion_gap_ceilings():
    """Gap-ratio ceilings: 1.0765 for burn/steal, 2 - 2/e for the one-pass
    mechanism, and the analytic curve peaks at 1.07645 at x = 1/2."""
    rsbs_sweep = [(1, 1), (2, 1, 1), (3, 2, 1), (5, 4, 1), (3, 3), (2, 2, 2), (2, 1), (5, 1), (1, 1, 1, 1)]
    assert any(Instance(q).b_max * 2 == Instance(q).m for q in rsbs_sweep)
    worst = 0.0
    for k, quotas in enumerate(rsbs_sweep):
        inst = Instance(quotas)
        rep = GapReport.of(estimate_distortion(MechanismSpec.rsbs(), FAVORITE_01, inst, 40_000, 106 + k), inst)
        tol = 3 * rep.estimate.stderr_ratio / rep.benchmark_lb
        assert rep.gap_ratio <= 1.0765 + tol, (quotas, rep.gap_ratio)
        worst = max(worst, rep.gap_ratio)

    gen = RandomStream(6_006).generator()
    worst_hql = 0.0
    for k in range(100):
        inst = random_instance(gen, n_max=6, m_max=12)
        rep = GapReport.of(estimate_distortion(MechanismSpec.hql(), FAVORITE_01, inst, 10_000, 306 + k), inst)
        tol = 3 * rep.estimate.stderr_ratio / rep.benchmark_lb
        assert rep.gap_ratio <= 2 - 2 / math.e + tol, (inst.quotas, rep.gap_ratio)
        worst_hql = max(worst_hql, rep.gap_ratio)

    grid = 10_000
    peak_bound, peak_x = max((analytics.distortion_gap_curve(k / grid), k / grid) for k in range(1, grid + 1))
    assert peak_x == pytest.approx(0.5, abs=1e-12)
    assert peak_bound == pytest.approx(1.07645, abs=1e-4)
    _ok(
        6,
        f"burn/steal gap <= {worst:.4f} (ceiling 1.0765), one-pass gap <= {worst_hql:.4f} "
        f"(ceiling {2 - 2 / math.e:.5f}), curve max {peak_bound:.6f} at x = {peak_x}",
    )


def test_criterion_7_adversarial_replay():
    """One-to-one n = 50 with 0/1 values at success probability 1/2500: the
    optimum stays near 1 while the survivor lottery (`rs`, the only mechanism
    run here) is pinned near 1 - 1/e."""
    # the report is bitwise the serial one at any worker count
    rep = run_lb_theorem1(50, 1_000_000, 107, workers=os.cpu_count())  # raises if either bound fails
    assert rep.ratio >= 1.43, rep.ratio
    _ok(
        7,
        f"mean OPT {rep.mean_opt:.4f} >= {rep.opt_floor}, mean welfare {rep.mean_sw:.4f} "
        f"<= {rep.sw_ceiling:.4f}, implied ratio {rep.ratio:.3f} >= 1.43",
    )


def test_criterion_8_secretary_marginals_and_threshold():
    """The random-order variant matches the survivor lottery's marginals, and
    the two-agent (m-1, 1) market pins one agent at or below (3m-1)/(4m-2)."""
    gen = RandomStream(8_008).generator()
    worst_dev = 0.0
    for k in range(10):
        inst = random_instance(gen, n_max=6, m_max=12)
        a = estimate_assignment_probs(MechanismSpec.rs(), UNIFORM, inst, 100_000, 108 + k, workers=os.cpu_count())
        b = estimate_assignment_probs(
            MechanismSpec.secretary_rs(), UNIFORM, inst, 100_000, 208 + k, workers=os.cpu_count()
        )
        for i in range(inst.n):
            for t in range(inst.quotas[i]):
                dev = abs(float(a.q_hat[i][t]) - float(b.q_hat[i][t]))
                tol = math.hypot(float(a.half_width[i][t]), float(b.half_width[i][t]))
                assert dev <= tol, (inst.quotas, i, t, dev, tol)
                worst_dev = max(worst_dev, dev)

    # quotas (m-1, 1): agent 0's favorite yield under the profile adversarial
    # to it, agent 1's top-item rate under the one adversarial to it (on the
    # next seed, so the two share no trial streams)
    m, trials = 20, 500_000
    inst = Instance((m - 1, 1))
    big, small = (
        estimate_assignment_probs(
            MechanismSpec.secretary_rs(),
            DistributionSpec.single_agent_adversarial(agent),
            inst,
            trials,
            seed,
            workers=os.cpu_count(),
        )
        for agent, seed in ((0, 308), (1, 309))
    )
    quota, total = m - 1, float(big.hits[0].sum())  # agent 0's favorite items over all trials
    yield_big = total / (trials * quota)
    mean = total / trials
    var = (float(big.count_sumsq[0]) - trials * mean * mean) / (trials - 1)
    stderr_yield = math.sqrt(max(var, 0.0) / trials) / quota
    top_small = float(small.q_hat[1][0])
    stderr_top = math.sqrt(top_small * (1.0 - top_small) / trials)
    threshold = (3.0 * m - 1.0) / (4.0 * m - 2.0)
    min_side, err = min((yield_big, stderr_yield), (top_small, stderr_top), key=lambda side: side[0])
    assert min_side <= threshold + 3 * err, (yield_big, top_small, threshold)
    _ok(
        8,
        f"marginals agree on 10 instances (worst dev {worst_dev:.5f}); threshold check at m=20: "
        f"min({yield_big:.4f}, {top_small:.4f}) <= {threshold:.5f}",
    )


def test_criterion_9_oracle_agreement():
    """Assignment solver equals exhaustive enumeration: never above the exact
    optimum rounded once, and at most 1e-9 below it; welfare <= optimum is
    asserted on every Monte Carlo trial throughout this suite."""
    gen = RandomStream(9_009).generator()
    worst = 0.0
    for _ in range(200):
        inst = random_instance(gen, n_max=7, m_max=7)
        profile = sample_profile(UNIFORM, inst, gen)
        solved = optimal_matching(inst, profile).value
        brute = brute_force_opt(inst, profile)
        worst = max(worst, brute - solved)
        assert solved <= brute, (inst.quotas, solved, brute)  # one feasible welfare, exact bound
        assert brute - solved <= 1e-9, (inst.quotas, solved, brute)
    _ok(
        9,
        f"200 instances, solver <= exact enumeration and within 1e-9 below (worst {worst:.2e}); "
        "per-trial SW <= OPT enforced engine-wide",
    )


def test_criterion_10_formula_inequalities():
    """Benchmark floor below the burn/steal ceiling; the floor-power product
    bound; and the one-pass curve bound (2-y)(1-(1-y)^(1/y)) <= 2 - 2/e."""
    gen = RandomStream(10_010).generator()
    for _ in range(500):
        inst = random_instance(gen, n_max=10, m_max=60)
        assert analytics.benchmark_lower_bound(inst) <= analytics.rsbs_distortion_bound(inst) + 1e-9

    for _ in range(10_000):
        inst = random_instance(gen, n_max=12, m_max=100)
        true_product = math.prod(1 - b / inst.m for b in inst.quotas)
        assert true_product >= analytics.product_floor_bound(inst) - 1e-9

    ceiling = 2 - 2 / math.e
    worst = 0.0
    for k in range(1, 10_001):
        y = k / 10_000
        val = (2 - y) * (1 - (1 - y) ** (1 / y)) if y < 1 else 1.0
        assert val <= ceiling + 1e-9
        worst = max(worst, val)
    _ok(10, f"benchmark <= burn/steal bound (500 cases), product floor (10^4 cases), curve max {worst:.7f} <= {ceiling:.7f}")
