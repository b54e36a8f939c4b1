import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from ordmatch import Instance, RandomStream
from ordmatch import analytics

from conftest import random_instance, random_quotas

E_RATIO = math.e / (math.e - 1)  # 1.58197670...


def quad_product_integral(slopes, tol=1e-13):
    """Independent adaptive-quadrature oracle for the product integral."""
    val, err = quad(lambda y: math.prod(1.0 - a * y for a in slopes), 0.0, 1.0, epsabs=tol, epsrel=tol)
    assert err < 1e-11
    return val


def exact_survivor(b, m):
    return 1 - Fraction(b - 1, 3 * m)


def exact_product_integral(quotas, m, skip):
    """The integral over [0, 1] of prod_{j not in skip} (1 - b_j p_j y / m), in
    exact arithmetic from its own polynomial expansion."""
    poly = [Fraction(1)]  # ascending powers of y
    for j, b in enumerate(quotas):
        if j not in skip:
            a = Fraction(b, m) * exact_survivor(b, m)
            poly = [c - a * prev for c, prev in zip(poly + [0], [0] + poly)]
    return sum(c / (d + 1) for d, c in enumerate(poly))


class TestSurvivorProb:
    def test_unit_quota_always_survives(self):
        for m in (1, 2, 17):
            assert analytics.survivor_prob(1, m) == 1.0

    def test_direct_evaluation(self):
        assert analytics.survivor_prob(4, 10) == pytest.approx(0.9, abs=1e-15)

    def test_full_quota_at_least_two_thirds(self):
        for m in range(1, 60):
            p = analytics.survivor_prob(m, m)
            assert p == pytest.approx(1 - (m - 1) / (3 * m), abs=1e-15)
            assert p >= 2 / 3

    def test_rejects_quota_above_m(self):
        with pytest.raises(ValueError):
            analytics.survivor_prob(5, 4)


class TestPolyProductIntegral:
    def test_empty_product(self):
        assert analytics.poly_product_integral([], 3) == 1.0

    def test_single_linear_factor(self):
        # slope 1/2 -> integral of (1 - y/2) = 3/4
        assert analytics.poly_product_integral([(1, 0.5)], 1) == pytest.approx(0.75, abs=1e-15)

    def test_identical_unit_factors_closed_form(self):
        # three slope-1/4 factors: 1 - (1 - 1/4)^4 = 0.68359375 exactly
        val = analytics.poly_product_integral([(1, 1.0)] * 3, 4)
        assert val == pytest.approx(0.68359375, abs=1e-15)
        assert val == pytest.approx(quad_product_integral([0.25] * 3), abs=1e-12)

    def test_matches_quadrature_on_random_factor_sets(self):
        gen = RandomStream(80).generator()
        for _ in range(20):
            k = int(gen.integers(1, 31))
            m = int(gen.integers(k, 3 * k + 1))
            factors = [(int(gen.integers(1, m + 1)), float(gen.random())) for _ in range(k)]
            factors = [(b, p if b * p / m <= 1 else m / b) for b, p in factors]
            val = analytics.poly_product_integral(factors, m)
            assert val == pytest.approx(quad_product_integral([b * p / m for b, p in factors]), abs=1e-10)

    @pytest.mark.parametrize("k", [19, 64, 65, 199])
    def test_closed_forms_match_exact_integral(self, k):
        # k factors in each integral: rs_q_exact over k + 1 agents, burning_prob over k + 2
        quotas = ((3, 2, 1) * k)[: k + 2]
        inst = Instance(quotas[: k + 1])
        for i in range(3):
            exact = float(exact_survivor(quotas[i], inst.m) * exact_product_integral(inst.quotas, inst.m, {i}))
            assert analytics.rs_q_exact(inst, i) == pytest.approx(exact, rel=1e-13, abs=0)
        inst = Instance(quotas)
        x = Fraction(inst.b_max, inst.m)
        numerator = Fraction(-math.expm1(inst.b_max / inst.m - 1.0))
        for i in (1, 2):
            # compare 1 - beta, the ratio that carries the integral: beta = 1 - ratio loses digits to cancellation
            integral = exact_product_integral(quotas, inst.m, {i, 0})
            kept = float(numerator / ((1 - x) * exact_survivor(quotas[i], inst.m) * integral))
            assert 1.0 - analytics.burning_prob(inst, i, 0) == pytest.approx(kept, rel=1e-13, abs=0)

    def test_rejects_slope_above_one(self):
        with pytest.raises(ValueError):
            analytics.poly_product_integral([(5, 1.0)], 4)


class TestRsQExact:
    def test_single_agent_empty_product(self):
        inst = Instance((4,))
        assert analytics.rs_q_exact(inst, 0) == analytics.survivor_prob(4, 4)

    def test_one_to_one_two_agents(self):
        assert analytics.rs_q_exact(Instance((1, 1)), 0) == pytest.approx(0.75, abs=1e-15)

    def test_sweep_never_below_one_minus_inv_e(self):
        gen = RandomStream(82).generator()
        floor = 1 - 1 / math.e
        for _ in range(200):
            inst = Instance(random_quotas(gen, n_max=8, m_max=40))
            for i in range(inst.n):
                assert analytics.rs_q_exact(inst, i) >= floor - 1e-12


class TestBurningProb:
    def test_two_agent_closed_form(self):
        # m=2, unit quotas: 1 - (1 - e^{-1/2}) / 0.5
        beta = analytics.burning_prob(Instance((1, 1)), i=0, i_star=1)
        assert beta == pytest.approx(0.21306131942526685, abs=1e-9)

    def test_unit_quota_symmetry(self):
        inst = Instance.one_to_one(6)
        betas = {analytics.burning_prob(inst, i, 0) for i in range(1, 6)}
        assert max(betas) - min(betas) < 1e-15

    def test_in_unit_interval_on_random_instances(self):
        gen = RandomStream(83).generator()
        for _ in range(500):
            inst = Instance(random_quotas(gen, n_max=8, m_max=30, n_min=2))
            i_star = int(np.argmax(inst.quota_array))
            i = int(gen.integers(inst.n))
            if i == i_star:
                i = (i + 1) % inst.n
            beta = analytics.burning_prob(inst, i, i_star)
            assert 0.0 <= beta < 1.0

    def test_rejects_bad_arguments(self):
        inst = Instance((2, 1))
        with pytest.raises(ValueError):
            analytics.burning_prob(inst, 0, 0)  # i == i_star
        with pytest.raises(ValueError):
            analytics.burning_prob(inst, 0, 1)  # i_star lacks max quota
        with pytest.raises(ValueError):
            analytics.burning_prob(Instance((3,)), 0, 0)


class TestStealingProb:
    def test_small_ratio_limit(self):
        limit = (1 - 2 / math.e) / (1 - 1 / math.e)  # 0.41802329...
        assert analytics.stealing_prob(1, 10**6) == pytest.approx(limit, abs=1e-4)

    def test_half_ratio(self):
        assert analytics.stealing_prob(1, 2) == pytest.approx(0.22925295873160084, abs=1e-12)

    def test_unit_interval_exhaustive(self):
        for m in range(2, 501):
            for b_max in range(1, m):
                sigma = analytics.stealing_prob(b_max, m)
                assert 0.0 <= sigma < 1.0, (b_max, m, sigma)

    def test_rejects_full_quota(self):
        with pytest.raises(ValueError):
            analytics.stealing_prob(3, 3)


class TestRsbsQExact:
    def test_full_quota_is_one(self):
        assert analytics.rsbs_q_exact(Instance((5,))) == pytest.approx(1.0, abs=1e-15)

    def test_half_ratio(self):
        assert analytics.rsbs_q_exact(Instance((3, 2, 1))) == pytest.approx(0.6967346701436833, abs=1e-12)

    def test_small_ratio_limit(self):
        q = analytics.rsbs_q_exact(Instance.one_to_one(10**4))
        assert q == pytest.approx(1 - 1 / math.e, abs=1e-3)

    def test_nondecreasing_in_ratio(self):
        m = 60
        values = [
            analytics.rsbs_q_exact(Instance((b,) + (1,) * (m - b)))
            for b in range(1, m)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


class TestHql:
    def test_q_two_agents(self):
        assert analytics.hql_q(Instance((1, 1))) == pytest.approx(2 / 3, abs=1e-15)

    def test_q_full_quota(self):
        assert analytics.hql_q(Instance((7,))) == 1.0

    def test_q_staircase(self):
        assert analytics.hql_q(Instance((1, 2, 3))) == pytest.approx(2 / 3, abs=1e-15)

    def test_distortion_bound(self):
        assert analytics.hql_distortion_bound(Instance((4,))) == pytest.approx(1.0, abs=1e-15)
        assert analytics.hql_distortion_bound(Instance((3, 2, 1))) == pytest.approx(1.5, abs=1e-15)
        n = 25
        assert analytics.hql_distortion_bound(Instance.one_to_one(n)) == pytest.approx(2 - 1 / n, abs=1e-15)


class TestRsbsDistortionBound:
    def test_full_quota(self):
        assert analytics.rsbs_distortion_bound(Instance((3,))) == pytest.approx(1.0, abs=1e-15)

    def test_small_ratio_limit(self):
        bound = analytics.rsbs_distortion_bound(Instance.one_to_one(10**4))
        assert bound == pytest.approx(E_RATIO, abs=1e-3)

    def test_half_ratio(self):
        inst = Instance((3, 2, 1))
        bound = analytics.rsbs_distortion_bound(inst)
        assert bound == pytest.approx(1 / analytics.rsbs_q_exact(inst), abs=1e-15)
        assert bound == pytest.approx(1.43527, abs=1e-4)


class TestBenchmarkLowerBound:
    def test_two_agents(self):
        assert analytics.benchmark_lower_bound(Instance((1, 1))) == pytest.approx(4 / 3, abs=1e-14)

    def test_one_to_one_limit(self):
        val = analytics.benchmark_lower_bound(Instance.one_to_one(10**4))
        assert val == pytest.approx(E_RATIO, abs=1e-3)

    def test_single_agent(self):
        assert analytics.benchmark_lower_bound(Instance((6,))) == 1.0

    def test_never_exceeds_rsbs_bound(self):
        gen = RandomStream(84).generator()
        for _ in range(500):
            inst = random_instance(gen, n_max=8, m_max=30)
            assert (
                analytics.benchmark_lower_bound(inst)
                <= analytics.rsbs_distortion_bound(inst) + 1e-9
            )


class TestDistortionGapCurve:
    def test_endpoint_one(self):
        assert analytics.distortion_gap_curve(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_half_point(self):
        assert analytics.distortion_gap_curve(0.5) == pytest.approx(1.076449948795188, abs=1e-12)

    def test_grid_max_at_half(self):
        grid = 10_000
        best_x, best = None, -1.0
        for k in range(1, grid + 1):
            bound = analytics.distortion_gap_curve(k / grid)
            assert bound >= 1.0 - 1e-12
            if bound > best:
                best_x, best = k / grid, bound
        assert best_x == pytest.approx(0.5, abs=1e-12)
        assert best == pytest.approx(1.07645, abs=1e-4)
        assert best <= 1.0765

    def test_small_ratio_limit(self):
        assert analytics.distortion_gap_curve(1e-4) == pytest.approx(1.0, abs=1e-3)

    def test_rejects_out_of_range(self):
        for x in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                analytics.distortion_gap_curve(x)


class TestProductFloorBound:
    @staticmethod
    def true_product(inst):
        return math.prod(1 - b / inst.m for b in inst.quotas)

    def test_unit_quota_equality(self):
        for n in (2, 5, 9):
            inst = Instance.one_to_one(n)
            assert analytics.product_floor_bound(inst) == pytest.approx(self.true_product(inst), abs=1e-12)

    def test_two_agent_equality(self):
        for m in (4, 9, 30):
            inst = Instance((m - 1, 1))
            assert analytics.product_floor_bound(inst) == pytest.approx(self.true_product(inst), abs=1e-12)

    def test_lower_bounds_true_product(self):
        gen = RandomStream(85).generator()
        for _ in range(500):
            inst = random_instance(gen, n_max=10, m_max=40)
            assert self.true_product(inst) >= analytics.product_floor_bound(inst) - 1e-12


def test_one_pass_gap_expression_bounded():
    # (2 - y) * (1 - (1 - y)^(1/y)) stays below 2 - 2/e on (0, 1]
    ceiling = 2 - 2 / math.e
    for k in range(1, 10_001):
        y = k / 10_000
        val = (2 - y) * (1 - (1 - y) ** (1 / y)) if y < 1 else 1.0
        assert val <= ceiling + 1e-9


def test_serial_dictator_q_exact():
    inst = Instance((3, 2, 1))
    assert analytics.serial_dictator_q_exact(inst, (0, 1, 2), 0) == 1.0
    assert analytics.serial_dictator_q_exact(inst, (0, 1, 2), 1) == pytest.approx(1 - 3 / 6, abs=1e-15)
    assert analytics.serial_dictator_q_exact(inst, (0, 1, 2), 2) == pytest.approx((1 - 3 / 6) * (1 - 2 / 6), abs=1e-15)
    with pytest.raises(ValueError):
        analytics.serial_dictator_q_exact(inst, (0, 1), 2)
