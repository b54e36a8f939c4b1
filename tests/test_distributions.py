import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import chdtrc

from ordmatch import Instance, RandomStream
from ordmatch.distributions import (
    DistributionSpec,
    binary_values,
    sample_draw_count,
    sample_profile,
    values_from_uniforms,
)
from ordmatch.estimator import uf_audit

ALL_VARIANTS = [
    DistributionSpec.iid_uniform01(),
    DistributionSpec.iid_bernoulli(0.35),
    DistributionSpec.lower_bound_bernoulli(),
    DistributionSpec.single_agent_adversarial(0),
    DistributionSpec.single_agent_adversarial(0, with_replacement=False),
    DistributionSpec.favorite_bundle_uniform(2.5, 1.0),
]


def exchangeable_for(inst):
    base = [float(k % 3) for k in range(inst.m)]  # repeated values force ties
    return DistributionSpec.exchangeable_permutation(base)


class TestSpecValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DistributionSpec.iid_bernoulli(1.5)
        with pytest.raises(ValueError):
            DistributionSpec.single_agent_adversarial(-1)
        with pytest.raises(ValueError):
            DistributionSpec.favorite_bundle_uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            DistributionSpec.favorite_bundle_uniform(0.5, -0.1)
        with pytest.raises(ValueError):
            DistributionSpec.exchangeable_permutation([])
        with pytest.raises(ValueError):
            DistributionSpec("no-such-kind")

    @pytest.mark.parametrize(
        "kind, fields, message",
        [
            ("iid-uniform01", {"p": 0.3}, "iid-uniform01 does not take p"),
            ("iid-bernoulli", {"p": 0.3, "hi": 1.0}, "iid-bernoulli does not take hi"),
            ("lower-bound-bernoulli", {"agent": 0}, "lower-bound-bernoulli does not take agent"),
            (
                "favorite-bundle-uniform",
                {"hi": 1.0, "lo": 0.0, "with_replacement": True},
                "favorite-bundle-uniform does not take with_replacement",
            ),
            ("exchangeable-permutation", {"base": (1.0,), "lo": 0.0}, "exchangeable-permutation does not take lo"),
            ("iid-bernoulli", {}, "iid-bernoulli needs p"),
            ("single-agent-adversarial", {"with_replacement": False}, "single-agent-adversarial needs agent"),
            ("favorite-bundle-uniform", {"hi": 1.0}, "favorite-bundle-uniform needs lo"),
        ],
    )
    def test_fields_follow_the_kind(self, kind, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DistributionSpec(kind, **fields)

    def test_optional_field_takes_its_default(self):
        assert DistributionSpec("single-agent-adversarial", agent=0) == DistributionSpec.single_agent_adversarial(0)
        assert DistributionSpec.single_agent_adversarial(0).with_replacement is True
        assert DistributionSpec.iid_uniform01().with_replacement is None

    def test_rejects_mismatched_instance(self):
        inst = Instance((1, 1))
        with pytest.raises(ValueError):
            sample_profile(DistributionSpec.single_agent_adversarial(5), inst, RandomStream(0).generator())
        with pytest.raises(ValueError):
            sample_profile(DistributionSpec.exchangeable_permutation([1.0]), inst, RandomStream(0).generator())


class TestSampling:
    def test_bernoulli_degenerate(self):
        inst = Instance((2, 2))
        ones = sample_profile(DistributionSpec.iid_bernoulli(1.0), inst, RandomStream(1).generator())
        assert np.all(ones.values == 1.0)
        zeros = sample_profile(DistributionSpec.iid_bernoulli(0.0), inst, RandomStream(1).generator())
        assert np.all(zeros.values == 0.0)

    def test_lower_bound_marginal_mean(self):
        # n = 10: success probability 1/100; binomial CI over 1e6 entries
        inst = Instance.one_to_one(10)
        gen = RandomStream(2).generator()
        total = 0.0
        draws = 10_000
        for _ in range(draws):
            total += sample_profile(DistributionSpec.lower_bound_bernoulli(), inst, gen).values.sum()
        mean = total / (draws * 100)
        assert abs(mean - 0.01) <= 0.002
        assert abs(mean / 0.01 - 1.0) < 0.10  # law-of-large-numbers check

    def test_adversarial_single_one(self):
        inst = Instance((1, 1))
        profile = sample_profile(DistributionSpec.single_agent_adversarial(1), inst, RandomStream(3).generator())
        assert np.all(profile.values[0] == 0.0)
        assert profile.values[1].sum() == 1.0

    def test_adversarial_duplicates_collapse(self):
        inst = Instance((3, 1))
        gen = RandomStream(4).generator()
        counts = set()
        for _ in range(300):
            profile = sample_profile(DistributionSpec.single_agent_adversarial(0), inst, gen)
            ones = int(profile.values[0].sum())
            assert 1 <= ones <= 3
            counts.add(ones)
            assert np.all(profile.values[1] == 0.0)
        assert min(counts) < 3  # with-replacement draws do collide on 4 items

    def test_adversarial_without_replacement_exact_count(self):
        inst = Instance((3, 1))
        gen = RandomStream(5).generator()
        spec = DistributionSpec.single_agent_adversarial(0, with_replacement=False)
        for _ in range(100):
            profile = sample_profile(spec, inst, gen)
            assert int(profile.values[0].sum()) == 3

    def test_exchangeable_rows_permute_base(self):
        inst = Instance((2, 2))
        base = [5.0, 1.0, 0.5, 0.0]
        gen = RandomStream(6).generator()
        for _ in range(50):
            profile = sample_profile(DistributionSpec.exchangeable_permutation(base), inst, gen)
            for row in profile.values:
                assert sorted(row) == sorted(base)

    def test_favorite_bundle_counts(self):
        inst = Instance((2, 1, 3))
        gen = RandomStream(7).generator()
        spec = DistributionSpec.favorite_bundle_uniform(2.0, 0.5)
        for _ in range(50):
            profile = sample_profile(spec, inst, gen)
            for i, b in enumerate(inst.quotas):
                assert int((profile.values[i] == 2.0).sum()) == b
                assert int((profile.values[i] == 0.5).sum()) == inst.m - b

    def test_reproducibility_across_variants(self):
        inst = Instance((2, 2, 1))
        for spec in ALL_VARIANTS + [exchangeable_for(inst)]:
            a = sample_profile(spec, inst, RandomStream(99, 3).generator()).values
            b = sample_profile(spec, inst, RandomStream(99, 3).generator()).values
            assert np.array_equal(a, b), spec.kind
        # discrete variants may collide across streams; the continuous one cannot
        a = sample_profile(DistributionSpec.iid_uniform01(), inst, RandomStream(99, 3).generator()).values
        c = sample_profile(DistributionSpec.iid_uniform01(), inst, RandomStream(99, 4).generator()).values
        assert not np.array_equal(a, c)

    def test_mapping_a_block_view_equals_mapping_a_copy(self):
        # the engine maps the sample region of its uniform block in place:
        # strided rows, followed by tag and mechanism draws it must not touch
        inst = Instance((3, 2, 1))
        for spec in ALL_VARIANTS + [exchangeable_for(inst)]:
            d = sample_draw_count(spec, inst)
            block = RandomStream(12).generator().random((40, d + 9))
            untouched = block[:, d:].copy()
            fresh = values_from_uniforms(spec, inst, block[:, :d].copy())
            mapped = values_from_uniforms(spec, inst, block[:, :d])
            assert mapped.shape == fresh.shape == (40, inst.n, inst.m)
            assert mapped.dtype == fresh.dtype == np.float64
            assert np.ascontiguousarray(mapped).tobytes() == fresh.tobytes(), spec.kind
            assert np.array_equal(block[:, d:], untouched), spec.kind
            # every kind that draws one uniform per cell maps inside the block
            assert np.shares_memory(mapped, block) == (d == inst.n * inst.m), spec.kind

    def test_draw_count_matches_consumption(self):
        inst = Instance((2, 2, 1))
        for spec in ALL_VARIANTS + [exchangeable_for(inst)]:
            gen = RandomStream(11).generator()
            sample_profile(spec, inst, gen)
            marker = gen.random()
            skip = RandomStream(11).generator()
            skip.random(sample_draw_count(spec, inst))
            assert marker == skip.random(), spec.kind

    @pytest.mark.parametrize(
        "spec, binary",
        [
            (DistributionSpec.iid_uniform01(), False),
            (DistributionSpec.iid_bernoulli(0.35), True),
            (DistributionSpec.lower_bound_bernoulli(), True),
            (DistributionSpec.single_agent_adversarial(0), True),
            (DistributionSpec.single_agent_adversarial(0, with_replacement=False), True),
            (DistributionSpec.favorite_bundle_uniform(1.0, 0.0), True),
            (DistributionSpec.favorite_bundle_uniform(1.0, 0.25), False),
            (DistributionSpec.exchangeable_permutation([1.0, 0.0, 0.0, 1.0, 0.0]), True),
            (DistributionSpec.exchangeable_permutation([1.0, 0.0, 0.5, 1.0, 0.0]), False),
        ],
    )
    def test_binary_values_by_kind(self, spec, binary):
        # the engine ranks 0/1 profiles with top_binary_items; every value of
        # a 0/1 spec's profiles is 0 or 1, and the others draw some other value
        assert binary_values(spec) is binary
        inst = Instance((2, 2, 1))
        u = RandomStream(3).generator().random((200, sample_draw_count(spec, inst)))
        assert bool(np.isin(values_from_uniforms(spec, inst, u), (0.0, 1.0)).all()) == binary


class TestUFAudit:
    def test_exchangeable_pairs_uniform(self):
        inst = Instance((2, 2))
        report = uf_audit(exchangeable_for(inst), inst, 100_000, 20)
        for audit in report.per_agent:
            assert len(audit.subsets) == 6
            sigma = math.sqrt(report.trials * (1 / 6) * (5 / 6))
            for count in audit.counts:
                assert abs(count - report.trials / 6) <= 3 * sigma
            assert audit.p_value > 0.001

    def test_uniform01_singletons(self):
        inst = Instance((1, 1, 1))
        report = uf_audit(DistributionSpec.iid_uniform01(), inst, 100_000, 21)
        sigma = math.sqrt(report.trials * (1 / 3) * (2 / 3))
        for audit in report.per_agent:
            for count in audit.counts:
                assert abs(count - report.trials / 3) <= 3 * sigma
            assert audit.p_value > 0.001

    def test_favorite_bundle_two_items(self):
        inst = Instance((1, 1))
        spec = DistributionSpec.favorite_bundle_uniform(1.0, 0.0)
        report = uf_audit(spec, inst, 50_000, 22)
        sigma = math.sqrt(report.trials * 0.25)
        for audit in report.per_agent:
            assert len(audit.subsets) == 2
            for count in audit.counts:
                assert abs(count - report.trials / 2) <= 3 * sigma

    def test_every_variant_passes_at_shipping_significance(self):
        instances = [Instance((2, 2)), Instance((1, 2, 3)), Instance((4, 1))]
        seed = 23
        for inst in instances:
            for spec in ALL_VARIANTS + [exchangeable_for(inst)]:
                report = uf_audit(spec, inst, 30_000, seed)
                seed += 1
                assert report.min_p_value() > 0.001, (spec.kind, inst.quotas, report.min_p_value())

    def test_rejects_large_instance(self):
        with pytest.raises(ValueError):
            uf_audit(DistributionSpec.iid_uniform01(), Instance((7, 6)), 10, 0)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            uf_audit(DistributionSpec.iid_uniform01(), Instance((1, 1)), 0, 0)


class TestChiSquareTail:
    def test_import_leaves_scipy_stats_out(self):
        # importing ordmatch and a probability run load no scipy module and no
        # process pool; the first solver trial loads only scipy's compiled
        # assignment module, which is the function scipy.optimize exports
        code = """if True:
            import json, sys
            import numpy as np
            import ordmatch, ordmatch.cli
            from ordmatch import DistributionSpec, Instance, MechanismSpec, ValuationProfile, opt

            def scipy_modules():
                return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

            ordmatch.estimate_assignment_probs(MechanismSpec.rs(), DistributionSpec.iid_uniform01(), Instance((2, 1)), 40, 3)
            before = scipy_modules()
            pool = "concurrent.futures.process" in sys.modules
            inst = Instance.one_to_one(4)
            values = np.random.default_rng(9).random((4, 4))
            value = opt.optimal_value(inst, values)
            after = scipy_modules()
            brute = opt.brute_force_opt(inst, ValuationProfile(inst, values))
            import scipy.optimize
            same = scipy.optimize.linear_sum_assignment is opt._scipy_lsap
            print(json.dumps([before, pool, after, value, brute, same]))
        """
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        before, pool, after, value, brute, same = json.loads(out.stdout)
        assert before == []
        assert not pool
        assert after == []  # not even scipy.optimize
        assert value == pytest.approx(brute, abs=1e-12)
        assert same

    def test_audit_p_values_match_scipy_stats(self):
        from scipy.stats import chi2

        cases = [
            (Instance((3, 2, 1)), DistributionSpec.exchangeable_permutation([0.0, 0.5, 1.0, 0.0, 0.5, 1.0])),
            (Instance((2, 3, 4)), DistributionSpec.favorite_bundle_uniform(1.0, 0.0)),
            (Instance((1, 1)), DistributionSpec.iid_uniform01()),
            (Instance((5, 1)), DistributionSpec.iid_bernoulli(0.3)),
            (Instance((4,)), DistributionSpec.iid_uniform01()),
        ]
        audits = [a for inst, spec in cases for a in uf_audit(spec, inst, 700, 23).per_agent]
        assert any(a.dof == 0 for a in audits)
        for a in audits:
            expected = float(chi2.sf(a.chi2_stat, a.dof)) if a.dof > 0 else 1.0
            assert a.p_value.hex() == expected.hex(), (a.agent, a.chi2_stat, a.dof)
        # the tail itself, bit for bit, over statistics from 0 to far out and every audit dof
        stats = np.concatenate(([0.0], np.geomspace(1e-6, 5e3, 400)))
        for dof in range(1, 925):  # C(12, 6) - 1 is the largest dof an audit can have
            assert np.array_equal(chdtrc(dof, stats), chi2.sf(stats, dof)), dof
