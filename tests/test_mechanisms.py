import math

import numpy as np
import pytest

from ordmatch import (
    Instance,
    PreferenceProfile,
    RandomStream,
    derive_preferences,
    estimate_assignment_probs,
)
from ordmatch import analytics
from ordmatch.distributions import DistributionSpec, sample_profile
from ordmatch.mechanisms import (
    MechanismSpec,
    hql_parameters,
    max_quota_agent,
    mechanism_draw_count,
    rsbs_parameters,
    run_mechanism,
    survivor_probs,
)

from conftest import random_instance

ALL_SPECS = [
    MechanismSpec.rs(),
    MechanismSpec.rsbs(),
    MechanismSpec.hql(),
    MechanismSpec.secretary_rs(),
    MechanismSpec.serial_dictator(),
]


def manual_prefs(inst, rankings):
    return PreferenceProfile(inst, np.asarray(rankings))


class TestSurvivorLottery:
    def test_unit_quotas_everyone_survives(self):
        assert np.all(survivor_probs(Instance.one_to_one(7)) == 1.0)

    def test_single_agent_receives_all_with_survival_prob(self):
        # b=(4): the agent takes all four items iff the one survival coin lands
        inst = Instance((4,))
        rep = estimate_assignment_probs(
            MechanismSpec.rs(), DistributionSpec.iid_uniform01(), inst, 40_000, 301
        )
        p1 = 1 - (4 - 1) / (3 * 4)
        for t in range(4):
            assert abs(rep.q_hat[0][t] - p1) <= rep.half_width[0][t]

    def test_one_to_one_top_choice_closed_form(self):
        # 1 - (1 - 1/10)^10 = 0.65132, evaluated by simulation
        inst = Instance.one_to_one(10)
        rep = estimate_assignment_probs(
            MechanismSpec.rs(), DistributionSpec.iid_uniform01(), inst, 150_000, 302
        )
        for i in range(10):
            assert abs(rep.q_hat[i][0] - 0.6513215599) <= 0.005


class TestBurnSteal:
    def test_single_agent_keeps_all_favorites(self):
        inst = Instance((3,))
        rep = estimate_assignment_probs(
            MechanismSpec.rsbs(), DistributionSpec.iid_uniform01(), inst, 2_000, 303
        )
        for t in range(3):
            assert rep.hits[0][t] == rep.trials  # deterministic: no one to survive or burn

    def test_half_ratio_marginal(self):
        inst = Instance((3, 2, 1))
        rep = estimate_assignment_probs(
            MechanismSpec.rsbs(), DistributionSpec.favorite_bundle_uniform(1.0, 0.0), inst, 100_000, 304
        )
        target = analytics.rsbs_q_exact(inst)
        for i in range(3):
            for t in range(inst.quotas[i]):
                assert abs(rep.q_hat[i][t] - target) <= rep.half_width[i][t], (i, t)

    def test_parameter_sanity_guard_trips(self, monkeypatch):
        monkeypatch.setattr(analytics, "burning_prob", lambda inst, i, i_star: 1.5)
        with pytest.raises(AssertionError):
            rsbs_parameters(Instance((2, 1)))

    def test_set_aside_agent_is_lowest_max(self):
        assert max_quota_agent(Instance((2, 3, 3))) == 1
        i_star, p1, betas, sigma = rsbs_parameters(Instance((2, 3, 3)))
        assert i_star == 1
        assert p1[1] == -1.0 and betas[1] == 0.0
        assert 0.0 <= sigma < 1.0


class TestHighestQuotaLast:
    def test_single_agent_takes_everything(self):
        inst = Instance((5,))
        rep = estimate_assignment_probs(
            MechanismSpec.hql(), DistributionSpec.iid_uniform01(), inst, 2_000, 305
        )
        for t in range(5):
            assert rep.hits[0][t] == rep.trials  # activation probability collapses to 1

    def test_staircase_marginal(self):
        inst = Instance((1, 2, 3))
        rep = estimate_assignment_probs(
            MechanismSpec.hql(), DistributionSpec.iid_uniform01(), inst, 100_000, 306
        )
        for i in range(3):
            for t in range(inst.quotas[i]):
                assert abs(rep.q_hat[i][t] - 2 / 3) <= rep.half_width[i][t], (i, t)

    def test_order_swaps_max_quota_agent_last(self):
        order, probs = hql_parameters(Instance((1, 3, 2)))
        assert list(order) == [0, 2, 1]
        assert probs[0] == pytest.approx(6 / (12 - 3), abs=1e-15)

    def test_last_activation_probability_is_one(self):
        gen = RandomStream(307).generator()
        for _ in range(50):
            inst = random_instance(gen, n_max=8, m_max=20)
            order, probs = hql_parameters(inst)
            assert probs[-1] == 1.0
            assert probs[0] == pytest.approx(inst.m / (2 * inst.m - inst.b_max), abs=1e-15)
            assert np.all(probs <= 1.0 + 1e-15)
            assert inst.quotas[order[-1]] == inst.b_max


class TestSecretaryVariant:
    def test_single_agent_matches_survivor_lottery(self):
        inst = Instance((4,))
        a = estimate_assignment_probs(
            MechanismSpec.secretary_rs(), DistributionSpec.iid_uniform01(), inst, 60_000, 308
        )
        b = estimate_assignment_probs(
            MechanismSpec.rs(), DistributionSpec.iid_uniform01(), inst, 60_000, 309
        )
        for t in range(4):
            tol = math.hypot(a.half_width[0][t], b.half_width[0][t])
            assert abs(a.q_hat[0][t] - b.q_hat[0][t]) <= tol

    def test_one_to_one_marginals_match_survivor_lottery(self):
        inst = Instance.one_to_one(5)
        a = estimate_assignment_probs(
            MechanismSpec.secretary_rs(), DistributionSpec.iid_uniform01(), inst, 120_000, 310
        )
        b = estimate_assignment_probs(
            MechanismSpec.rs(), DistributionSpec.iid_uniform01(), inst, 120_000, 311
        )
        for i in range(5):
            tol = math.hypot(a.half_width[i][0], b.half_width[i][0])
            assert abs(a.q_hat[i][0] - b.q_hat[i][0]) <= tol

    def test_contested_item_splits_evenly(self):
        # identical favorites, both always survive: each wins the contested item half the time
        inst = Instance((1, 1))
        prefs = manual_prefs(inst, [[0, 1], [0, 1]])
        gen = RandomStream(312).generator()
        trials = 20_000
        wins = 0
        for _ in range(trials):
            matching = run_mechanism(MechanismSpec.secretary_rs(), inst, prefs, gen)
            assert matching.assignment[0] in (0, 1)
            wins += matching.assignment[0] == 0
        sigma = math.sqrt(trials * 0.25)
        assert abs(wins - trials / 2) <= 3 * sigma


class TestSerialDictator:
    def test_disjoint_favorites_all_served(self):
        inst = Instance((1, 1))
        prefs = manual_prefs(inst, [[0, 1], [1, 0]])
        matching = run_mechanism(MechanismSpec.serial_dictator((0, 1)), inst, prefs, RandomStream(0).generator())
        assert list(matching.assignment) == [0, 1]

    def test_dictatorship_and_symmetry(self):
        inst = Instance((1, 1))
        prefs = manual_prefs(inst, [[0, 1], [0, 1]])
        first = run_mechanism(MechanismSpec.serial_dictator((0, 1)), inst, prefs, RandomStream(0).generator())
        assert first.assignment[0] == 0 and first.assignment[1] == -1
        flipped = run_mechanism(MechanismSpec.serial_dictator((1, 0)), inst, prefs, RandomStream(0).generator())
        assert flipped.assignment[0] == 1 and flipped.assignment[1] == -1

    def test_rejects_invalid_order(self):
        inst = Instance((1, 1))
        prefs = manual_prefs(inst, [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            run_mechanism(MechanismSpec.serial_dictator((0, 0)), inst, prefs, RandomStream(0).generator())


class TestStructuralProperties:
    def test_outputs_valid_and_favorites_only(self):
        gen = RandomStream(313).generator()
        dists = [DistributionSpec.iid_uniform01(), DistributionSpec.iid_bernoulli(0.3)]
        for _ in range(40):
            inst = random_instance(gen, n_max=8, m_max=16)
            profile = sample_profile(dists[int(gen.integers(2))], inst, gen)
            prefs = derive_preferences(profile, gen)
            for spec in ALL_SPECS:
                matching = run_mechanism(spec, inst, prefs, gen)
                matching.validate(inst)
                for g, holder in enumerate(matching.assignment):
                    if holder >= 0:
                        assert g in set(prefs.rankings[holder, : inst.quotas[holder]]), (spec.kind, g, holder)

    def test_completion_post_pass_fills_quotas(self):
        gen = RandomStream(314).generator()
        for _ in range(20):
            inst = random_instance(gen, n_max=6, m_max=12)
            profile = sample_profile(DistributionSpec.iid_uniform01(), inst, gen)
            prefs = derive_preferences(profile, gen)
            for kind in ("rs", "rsbs", "hql", "secretary-rs"):
                spec = MechanismSpec(kind, complete=True)
                matching = run_mechanism(spec, inst, prefs, gen)
                assert np.array_equal(matching.bundle_sizes(inst), inst.quota_array)

    def test_draw_layout_matches_declared_count(self):
        gen0 = RandomStream(315).generator()
        inst = Instance((2, 3, 1))
        profile = sample_profile(DistributionSpec.iid_uniform01(), inst, gen0)
        prefs = derive_preferences(profile, gen0)
        for spec in ALL_SPECS:
            gen_run = RandomStream(99, 5).generator()
            run_mechanism(spec, inst, prefs, gen_run)
            gen_skip = RandomStream(99, 5).generator()
            gen_skip.random(mechanism_draw_count(spec, inst))
            assert gen_run.random() == gen_skip.random(), spec.kind

    def test_prefs_instance_mismatch_rejected(self):
        inst = Instance((1, 1))
        other = Instance((2, 1))
        gen = RandomStream(0).generator()
        profile = sample_profile(DistributionSpec.iid_uniform01(), other, gen)
        prefs = derive_preferences(profile, gen)
        with pytest.raises(ValueError):
            run_mechanism(MechanismSpec.rs(), inst, prefs, RandomStream(1).generator())
