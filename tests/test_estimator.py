import csv
import dataclasses
import json
import math
import os
import tracemalloc
from functools import partial
from itertools import combinations

import numpy as np
import pytest

from ordmatch import (
    Instance,
    RandomStream,
    derive_preferences,
    estimate_assignment_probs,
    estimate_distortion,
    estimate_distortions,
    optimal_value,
    run_lb_theorem1,
    sample_profile,
    social_welfare,
    uf_audit,
)
from ordmatch import analytics, cli, estimator, mechanisms
from ordmatch.distributions import DistributionSpec
from ordmatch.mechanisms import MechanismSpec

from conftest import random_instance

UNIFORM = DistributionSpec.iid_uniform01()

# finite values whose welfare sums, or the squares of those sums, leave float64
OVERFLOWING = [
    (Instance((1, 1, 1)), DistributionSpec.exchangeable_permutation([1e200, 0.0, 0.0]), 100),
    (Instance((2, 1)), DistributionSpec.favorite_bundle_uniform(1e160, 0.0), 100),
    (Instance((2, 1)), DistributionSpec.exchangeable_permutation([1e308, 1e308, 0.0]), 10),
]


class TestDistortionEstimates:
    def test_single_agent_completed_is_exactly_one(self):
        inst = Instance((3,))
        for kind in ("rs", "rsbs", "hql", "secretary-rs", "serial-dictator"):
            rep = estimate_distortion(MechanismSpec(kind, complete=True), UNIFORM, inst, 500, 41)
            assert rep.distortion_estimate == 1.0
            assert rep.mean_opt == rep.mean_sw

    def test_welfare_free_cell_has_zero_stderr(self):
        # SW and OPT are 0 on every trial, so the vacuous ratio 1 is exact
        inst = Instance((2, 1))
        rep = estimate_distortion(MechanismSpec.rs(), DistributionSpec.iid_bernoulli(0.0), inst, 50, 0)
        assert (rep.mean_opt, rep.mean_sw, rep.distortion_estimate, rep.stderr_ratio) == (0.0, 0.0, 1.0, 0.0)
        # with a positive mean optimum, a zero mean welfare leaves the ratio unbounded
        assert estimator._ratio_stderr(1.0, 0.0, 0.0, 0.0, 0.0, 50) == math.inf

    def test_estimate_at_least_one(self):
        gen = RandomStream(42).generator()
        for _ in range(5):
            inst = random_instance(gen, n_max=5, m_max=9)
            rep = estimate_distortion(MechanismSpec.rs(), UNIFORM, inst, 2_000, 43)
            assert rep.distortion_estimate >= 1.0 - 1e-12

    def test_per_trial_dominance_exact(self):
        inst = Instance((2, 2, 1))
        sw, opt_vals = estimator._collect_distortion(
            (MechanismSpec.rsbs(),), DistributionSpec.iid_bernoulli(0.4), inst, 3_000, 44, 1
        )
        assert np.all(sw <= opt_vals)

    def test_seed_determinism(self):
        inst = Instance((3, 2, 1))
        a = estimate_distortion(MechanismSpec.rsbs(), UNIFORM, inst, 5_000, 45)
        b = estimate_distortion(MechanismSpec.rsbs(), UNIFORM, inst, 5_000, 45)
        assert a == b
        c = estimate_distortion(MechanismSpec.rsbs(), UNIFORM, inst, 5_000, 46)
        assert a != c

    def test_worker_count_does_not_change_bits(self):
        inst = Instance((2, 1, 1))
        a = estimate_distortion(MechanismSpec.hql(), UNIFORM, inst, 4_000, 47, workers=1)
        b = estimate_distortion(MechanismSpec.hql(), UNIFORM, inst, 4_000, 47, workers=3)
        assert a == b

    def test_stderr_shrinks_with_trials(self):
        inst = Instance.one_to_one(4)
        small = estimate_distortion(MechanismSpec.rs(), UNIFORM, inst, 40_000, 48)
        large = estimate_distortion(MechanismSpec.rs(), UNIFORM, inst, 80_000, 48)
        for field in ("stderr_opt", "stderr_sw", "stderr_ratio"):
            ratio = getattr(large, field) / getattr(small, field)
            assert abs(ratio - 1 / math.sqrt(2)) < 0.2 * (1 / math.sqrt(2)), field

    def test_hql_adversarial_distortion_equality(self):
        # b = (19, 1) with all value on the big agent: distortion is exactly
        # the reciprocal of the per-item probability, (2m - b_max)/m = 21/20
        inst = Instance((19, 1))
        rep = estimate_distortion(
            MechanismSpec.hql(), DistributionSpec.single_agent_adversarial(0), inst, 100_000, 62
        )
        assert abs(rep.distortion_estimate - 21 / 20) <= 3 * rep.stderr_ratio

    def test_non_integer_thread_count_named(self, monkeypatch):
        # the thread count is the `workers` argument, named when it is not an
        # integer; ORDMATCH_THREADS is read by the CLI alone
        with pytest.raises(ValueError, match="^workers: expected an integer, got 'abc'$"):
            estimate_distortion(MechanismSpec.rs(), UNIFORM, Instance((1, 1)), 10, 1, workers="abc")
        monkeypatch.setenv("ORDMATCH_THREADS", "abc")
        rep = estimate_distortion(MechanismSpec.rs(), UNIFORM, Instance((1, 1)), 10, 1)
        assert rep == estimate_distortion(MechanismSpec.rs(), UNIFORM, Instance((1, 1)), 10, 1, workers=1)

    def test_rejects_bad_arguments(self):
        inst = Instance((1, 1))
        with pytest.raises(ValueError):
            estimate_distortion(MechanismSpec.rs(), UNIFORM, inst, 0, 1)
        with pytest.raises(ValueError):
            estimate_distortion(MechanismSpec.rs(), UNIFORM, inst, 10, 1, workers=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, seed):
        inst = Instance((1, 1))
        # the same check and message as RandomStream's
        with pytest.raises(ValueError, match="^seed must fit in 64 unsigned bits$"):
            RandomStream(seed)
        with pytest.raises(ValueError, match="^seed must fit in 64 unsigned bits$"):
            estimate_distortion(MechanismSpec.rs(), UNIFORM, inst, 10, seed)
        with pytest.raises(ValueError, match="^seed must fit in 64 unsigned bits$"):
            estimate_assignment_probs(MechanismSpec.rs(), UNIFORM, inst, 10, seed)
        with pytest.raises(ValueError, match="^seed must fit in 64 unsigned bits$"):
            uf_audit(UNIFORM, inst, 10, seed)

    @pytest.mark.parametrize("inst, dist, trials", OVERFLOWING)
    def test_overflowing_welfare_is_a_value_error(self, inst, dist, trials):
        with pytest.raises(ValueError, match="^values too large: a welfare sum"):
            estimate_distortion(MechanismSpec.rs(), dist, inst, trials, 0)


# every public engine call, as (trials, seed, workers) -> report
ENGINE_CALLS = {
    "estimate_distortion": lambda t, s, w: estimate_distortion(
        MechanismSpec.rs(), UNIFORM, Instance((1, 1)), t, s, workers=w
    ),
    "estimate_distortions": lambda t, s, w: estimate_distortions(
        [MechanismSpec.rs()], UNIFORM, Instance((1, 1)), t, s, workers=w
    ),
    "estimate_assignment_probs": lambda t, s, w: estimate_assignment_probs(
        MechanismSpec.rs(), UNIFORM, Instance((1, 1)), t, s, workers=w
    ),
    "uf_audit": lambda t, s, w: uf_audit(UNIFORM, Instance((1, 1)), t, s, workers=w),
    "run_lb_theorem1": lambda t, s, w: run_lb_theorem1(4, t, s, workers=w),
}


@pytest.mark.parametrize("call", ENGINE_CALLS)
@pytest.mark.parametrize(
    "args, error, message",
    [
        pytest.param((True, 1, 1), ValueError, "^trials: expected an integer, got True$", id="trials-bool"),
        pytest.param((2.5, 1, 1), ValueError, "^trials: expected an integer, got 2.5$", id="trials-float"),
        pytest.param((10, 1.5, 1), ValueError, "^seed: expected an integer, got 1.5$", id="seed-float"),
        pytest.param((10, True, 1), ValueError, "^seed: expected an integer, got True$", id="seed-bool"),
        pytest.param((10, 1, None), ValueError, "^workers: expected an integer, got None$", id="workers-none"),
    ],
)
def test_engine_arguments_are_checked(call, args, error, message):
    # a report states the trials and seed it ran, so neither may be cast
    with pytest.raises(error, match=message):
        ENGINE_CALLS[call](*args)


def _reference_distortion_arrays(
    mech: MechanismSpec, dist: DistributionSpec, inst: Instance, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    sw = np.empty(trials)
    opt_vals = np.empty(trials)
    for t, (profile, _, matching) in enumerate(estimator._reference_trials(mech, dist, inst, trials, seed)):
        sw[t] = social_welfare(matching, profile)
        opt_vals[t] = optimal_value(inst, profile.values)
    return sw, opt_vals


def _reference_prob_counts(
    mech: MechanismSpec, dist: DistributionSpec, inst: Instance, trials: int, seed: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-agent (rank) hit counts and per-agent sums of squared per-trial
    favorite counts, the two outputs of _collect_probs."""
    hits = [np.zeros(b, dtype=np.int64) for b in inst.quotas]
    count_sq = np.zeros(inst.n, dtype=np.int64)
    for _, prefs, matching in estimator._reference_trials(mech, dist, inst, trials, seed):
        for i, b in enumerate(inst.quotas):
            got = matching.assignment[prefs.rankings[i, :b]] == i
            hits[i] += got
            count_sq[i] += int(got.sum()) ** 2
    return hits, count_sq


class TestFavoriteBundleTargets:
    """Under favorite-bundle-uniform(1, 0) every value is 1 on the agent's
    favorite bundle and 0 elsewhere, so both means have closed forms.  OPT
    hands every favored item to one of its demanders, E[OPT] = m(1 - prod_i
    (1 - b_i/m)); agent i holds b_i q_i favorites in expectation, E[SW] =
    sum_i b_i q_i.  About 20 distinct comparisons are made (`serial-dictator`'s
    SW is OPT, and `rs` and `secretary-rs` score the same survivors here): a
    correct engine fails a 3-sigma band at about 5% of seeds and a 4-sigma
    band at about 0.1%, so the bands are 4 standard errors wide."""

    SEED = 2026
    DIST = DistributionSpec.favorite_bundle_uniform(1.0, 0.0)

    @pytest.mark.parametrize("quotas", [(3, 2, 1), (2, 1, 1), (5, 4, 1), (1, 1, 1, 1), (4, 2, 2, 1)])
    def test_means_match_closed_forms(self, quotas):
        inst = Instance(quotas)
        mechs = [MechanismSpec(kind) for kind in mechanisms.KINDS]
        reports = estimate_distortions(mechs, self.DIST, inst, 40_000, self.SEED, workers=os.cpu_count())
        opt_target = inst.m * (1 - math.prod(1 - b / inst.m for b in quotas))
        assert abs(reports[0].mean_opt - opt_target) <= 4 * reports[0].stderr_opt
        # every favored item is taken by its first demander in pick order; with unit quotas every agent survives
        exact = {"serial-dictator"} | ({"rs", "secretary-rs"} if set(quotas) == {1} else set())
        for mech, rep in zip(mechs, reports):
            sw_target = sum(b * q for b, q in zip(quotas, mechanisms.q_exact_per_agent(mech, inst)))
            assert abs(rep.mean_sw - sw_target) <= 4 * rep.stderr_sw, (mech.kind, rep.mean_sw, sw_target)
            if mech.kind in exact:
                assert rep.distortion_estimate == 1.0, mech.kind


class TestBatchMatchesReference:
    MECHS = [
        MechanismSpec.rs(),
        MechanismSpec.rsbs(),
        MechanismSpec.hql(),
        MechanismSpec.secretary_rs(),
        MechanismSpec.serial_dictator(),
        MechanismSpec.rs(complete=True),
    ]
    DISTS = [
        UNIFORM,
        DistributionSpec.iid_bernoulli(0.5),
        DistributionSpec.lower_bound_bernoulli(),
        DistributionSpec.favorite_bundle_uniform(1.0, 0.0),
        DistributionSpec.single_agent_adversarial(0),
    ]

    @pytest.mark.parametrize("quotas", [(1, 1, 1, 1), (3, 2, 1), (4, 1)])
    def test_distortion_arrays_bitwise_equal(self, quotas):
        inst = Instance(quotas)
        for mech in self.MECHS:
            for dist in self.DISTS:
                (sw,), opt_vals = estimator._collect_distortion((mech,), dist, inst, 200, 49, 1)
                ref = _reference_distortion_arrays(mech, dist, inst, 200, 49)
                assert np.array_equal(sw, ref[0]), (mech.label(), dist.label())
                assert np.array_equal(opt_vals, ref[1]), (mech.label(), dist.label())

    @pytest.mark.parametrize("quotas", [(1, 1, 1, 1), (3, 2, 1)])
    def test_prob_counts_bitwise_equal(self, quotas):
        inst = Instance(quotas)
        for mech in self.MECHS[:5]:
            for dist in self.DISTS:
                batch, batch_sq = estimator._collect_probs(mech, dist, inst, 200, 50, 1)
                ref, ref_sq = _reference_prob_counts(mech, dist, inst, 200, 50)
                assert len(batch) == len(ref) == inst.n
                for a, b in zip(batch, ref):
                    assert np.array_equal(a, b), (mech.label(), dist.label())
                assert np.array_equal(batch_sq, ref_sq), (mech.label(), dist.label())

    def test_chunk_size_does_not_change_bits(self, monkeypatch):
        # one trial per chunk, many chunks with a short last one, one short chunk
        inst = Instance((2, 2, 1))
        mechs = [MechanismSpec(kind) for kind in mechanisms.KINDS]
        base = {m.kind: self.reports(m, inst, 1_111, 51) for m in mechs}
        blocks, returned = self.record_workspaces(monkeypatch)
        for batch in (1, 97, 5_000):
            monkeypatch.setattr(estimator, "_batch_size", lambda inst: batch)
            for mech in mechs:
                del blocks[:]
                dist_rep, probs = self.reports(mech, inst, 1_111, 51)
                assert dist_rep == base[mech.kind][0], (mech.kind, batch)
                assert_same_probs(base[mech.kind][1], probs)
                # each of the two serial calls runs its chunks against one workspace
                workspaces = list({id(b): b for b in blocks}.values())
                assert len(workspaces) == 2, (mech.kind, batch)
                for arr in returned_arrays(returned, probs):
                    assert not any(np.shares_memory(arr, w) for w in workspaces), (mech.kind, batch)
                del returned[:]

    def test_workers_over_many_chunks_do_not_change_bits(self, monkeypatch):
        # two workers, each running one contiguous group of chunks
        inst = Instance((3, 1, 1))
        mechs = [MechanismSpec(kind) for kind in mechanisms.KINDS]
        base = {m.kind: self.reports(m, inst, 300, 54) for m in mechs}
        arrays = {m.kind: estimator._collect_distortion((m,), UNIFORM, inst, 300, 54, 1) for m in mechs}
        for batch in (1, 7, 97, 5_000):
            monkeypatch.setattr(estimator, "_batch_size", lambda inst: batch)
            for mech in mechs:
                dist_rep, probs = self.reports(mech, inst, 300, 54, workers=2)
                assert dist_rep == base[mech.kind][0], (mech.kind, batch)
                assert_same_probs(base[mech.kind][1], probs)
                # per-trial arrays come back in trial order
                sw, opt_vals = estimator._collect_distortion((mech,), UNIFORM, inst, 300, 54, 2)
                assert np.array_equal(sw, arrays[mech.kind][0]) and np.array_equal(opt_vals, arrays[mech.kind][1])

    def test_pool_starts_one_process_per_group(self, monkeypatch):
        # workers=4 over 5 chunks cuts 3 groups of at most 2 chunks, so a
        # fork pool of 4 would start one idle process; the fake pool records
        # its size and maps in this process, forking nothing
        import concurrent.futures

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        inst = Instance((5, 4, 3, 2, 1))
        serial = estimate_assignment_probs(MechanismSpec.rs(), UNIFORM, inst, 50, 55)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(estimator, "_batch_size", lambda inst: 10)
        pooled = estimate_assignment_probs(MechanismSpec.rs(), UNIFORM, inst, 50, 55, workers=4)
        assert sizes == [3]
        assert_same_probs(serial, pooled)

    @staticmethod
    def reports(mech, inst, trials, seed, workers=1):
        return (
            estimate_distortion(mech, UNIFORM, inst, trials, seed, workers=workers),
            estimate_assignment_probs(mech, UNIFORM, inst, trials, seed, workers=workers),
        )

    @staticmethod
    def record_workspaces(monkeypatch):
        """Record the workspace behind every uniform block the engine fills,
        and every chunk result it returns."""
        blocks, returned = [], []
        fill = estimator._fill_trial_blocks

        def recording_fill(seed, t0, out):
            blocks.append(out.base if out.base is not None else out)
            return fill(seed, t0, out)

        monkeypatch.setattr(estimator, "_fill_trial_blocks", recording_fill)
        for name in ("_distortion_chunk", "_probs_chunk"):

            def recording_chunk(*args, chunk=getattr(estimator, name)):
                out = chunk(*args)
                returned.append(out)
                return out

            monkeypatch.setattr(estimator, name, recording_chunk)
        return blocks, returned


def returned_arrays(chunk_results, probs):
    """Every array in the recorded chunk results and in a probabilities report."""
    for result in chunk_results:
        yield from result
    for field in ("q_hat", "half_width", "hits"):
        yield from getattr(probs, field)


def assert_same_probs(a, b):
    assert (a.trials, a.seed, a.count_sumsq) == (b.trials, b.seed, b.count_sumsq)
    for field in ("q_hat", "half_width", "hits"):
        for x, y in zip(getattr(a, field), getattr(b, field)):
            assert np.array_equal(x, y), field


class TestUFAuditDrawContract:
    def test_counts_tally_the_one_shot_trials(self, monkeypatch):
        # audit trial t reads the profile and tie tags of estimator trial t,
        # so neither chunking nor worker count changes a count
        inst = Instance((3, 2, 1))
        dist = DistributionSpec.exchangeable_permutation([0.0, 0.5, 1.0, 0.0, 0.5, 1.0])
        tallies = [dict.fromkeys(combinations(range(inst.m), b), 0) for b in inst.quotas]
        for t in range(3_000):
            g = RandomStream(7, t).generator()
            prefs = derive_preferences(sample_profile(dist, inst, g), g)
            for i, b in enumerate(inst.quotas):
                tallies[i][tuple(sorted(prefs.rankings[i, :b].tolist()))] += 1

        def assert_tallied(workers=1):
            report = uf_audit(dist, inst, 3_000, 7, workers=workers)
            for audit, tally in zip(report.per_agent, tallies, strict=True):
                assert audit.subsets == tuple(tally)
                assert audit.counts.tolist() == list(tally.values()), audit.agent

        assert_tallied()
        for batch in (1, 97):
            monkeypatch.setattr(estimator, "_batch_size", lambda inst: batch)
            assert_tallied()
        assert_tallied(workers=2)  # with 97-trial chunks, two groups of chunks

    def test_builds_no_favorite_pair_table(self, monkeypatch):
        # an audit runs no mechanism, so no chunk needs the pair table
        def refuse(*args):
            raise AssertionError("uf_audit built a favorite pair table")

        monkeypatch.setattr(estimator, "favorite_pairs", refuse)
        report = uf_audit(UNIFORM, Instance((2, 1)), 50, 3)
        assert sum(int(a.counts.sum()) for a in report.per_agent) == 2 * 50


class TestSharedTrials:
    """estimate_distortions runs many mechanisms on one pass over the trials;
    each report must be the bits of that mechanism's own call."""

    MECHS = tuple(MechanismSpec(kind, complete=c) for kind in mechanisms.KINDS for c in (False, True)) + (
        MechanismSpec.serial_dictator([2, 0, 1]),
        MechanismSpec.serial_dictator([2, 0, 1], complete=True),
    )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("batch", [7, 5_000])
    def test_each_report_equals_its_own_call(self, monkeypatch, workers, batch):
        inst = Instance((3, 2, 1))
        monkeypatch.setattr(estimator, "_batch_size", lambda inst: batch)
        for dist in (UNIFORM, DistributionSpec.favorite_bundle_uniform(1.0, 0.0)):
            shared = estimate_distortions(self.MECHS, dist, inst, 150, 63, workers=workers)
            assert len(shared) == len(self.MECHS)
            for mech, rep in zip(self.MECHS, shared):
                alone = estimate_distortion(mech, dist, inst, 150, 63, workers=workers)
                assert report_bits(rep) == report_bits(alone), (mech.label(), dist.label())

    def test_sw_above_opt_names_mechanism_and_trial(self, monkeypatch):
        # an optimum of -1 at trial 37 lies below any welfare
        seen = [0]
        solve = estimator.opt.optimal_values

        def lowered(inst, values):
            out = solve(inst, values)
            t = np.arange(seen[0], seen[0] + len(out))
            seen[0] += len(out)
            return np.where(t == 37, -1.0, out)

        monkeypatch.setattr(estimator.opt, "optimal_values", lowered)
        monkeypatch.setattr(estimator, "_batch_size", lambda inst: 16)
        sd, rs = MechanismSpec.serial_dictator([2, 0, 1]), MechanismSpec.rs()
        cases = (
            ((sd, rs), r"serial-dictator\(2\|0\|1\)"),
            ((rs, sd), "rs"),
            ((MechanismSpec.rs(complete=True), sd), r"rs\(complete\)"),
        )
        for mechs, label in cases:
            seen[0] = 0
            message = rf"^{label} trial 37: mechanism welfare .* exceeds optimum -1\.0$"
            with pytest.raises(AssertionError, match=message):
                estimate_distortions(mechs, UNIFORM, Instance((3, 2, 1)), 60, 64, workers=1)

    def test_rejects_no_mechanism(self):
        with pytest.raises(ValueError, match="at least one mechanism"):
            estimate_distortions((), UNIFORM, Instance((1, 1)), 10, 1)


def report_bits(rep):
    """Every field of a report, floats by their exact bits."""
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(rep)]


class TestChunkBudget:
    INSTANCES = [(1,) * 20, (1,) * 50, (5, 4, 3, 2, 1), (2, 2, 1), (1,), (7, 1), (1,) * 1000, (60,) * 40]

    def test_batches_fit_the_budget(self):
        tracemalloc.start()
        try:
            for quotas in self.INSTANCES:
                inst = Instance(quotas)
                batch = estimator._batch_size(inst)
                assert 1 <= batch
                assert batch == 1 or batch * estimator._trial_bytes(inst) <= estimator.CHUNK_BYTES
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # sizing is arithmetic; no chunk array is built
        assert estimator._batch_size(Instance.one_to_one(1000)) == 1

    def test_budget_covers_every_layout(self):
        # the estimate's uniform block bounds the engine's actual draw count
        inst = Instance((3, 2, 1))
        bound = 2 * inst.n * inst.m + 2 * inst.n + inst.m + 1
        dists = (UNIFORM, DistributionSpec.single_agent_adversarial(0), DistributionSpec.lower_bound_bernoulli())
        for kind in mechanisms.KINDS:
            for dist in dists:
                assert sum(estimator._trial_layout((MechanismSpec(kind),), dist, inst)) <= bound

    @pytest.mark.parametrize("quotas", [(1,) * 20, (1,) * 50, (5, 4, 3, 2, 1), (9, 1)])
    def test_chunk_peak_fits_the_estimate(self, quotas):
        # a chunk's uniform block plus everything it allocates stays within
        # batch * _trial_bytes, for every distribution kind and mechanism;
        # on (9, 1) the per-trial rows outweigh the (n, m) arrays
        inst = Instance(quotas)
        batch = min(estimator._batch_size(inst), 512)  # per-chunk constants weigh more in a smaller chunk
        dists = (
            UNIFORM,
            DistributionSpec.iid_bernoulli(0.3),
            DistributionSpec.lower_bound_bernoulli(),
            DistributionSpec.single_agent_adversarial(0),
            DistributionSpec.single_agent_adversarial(0, with_replacement=False),
            DistributionSpec.exchangeable_permutation([float(g % 4) for g in range(inst.m)]),
            DistributionSpec.favorite_bundle_uniform(1.0, 0.25),
            DistributionSpec.favorite_bundle_uniform(1.0, 0.0),
            DistributionSpec.iid_bernoulli(0.5),
        )
        chunks = [(estimator._distortion_chunk, (MechanismSpec(k, complete=True),)) for k in mechanisms.KINDS]
        chunks += [(estimator._probs_chunk, (MechanismSpec(k),)) for k in mechanisms.KINDS]
        if inst.m <= 15:  # the audit's subset table has 2**m cells per agent
            cells = np.zeros((inst.n, 2**inst.m), dtype=np.int64)
            chunks.append((partial(estimator._audit_chunk, cells), ()))
        estimator.opt.linear_sum_assignment(np.eye(2))  # the solver loads on its first call
        for dist in dists:
            for fn, mechs in chunks:
                task = (mechs, dist, inst, estimator._validated(mechs, dist, inst, batch, 17), 17)
                block = np.empty((batch, sum(estimator._trial_layout(mechs, dist, inst))))
                tracemalloc.start()
                try:
                    fn(task, block, 0, batch)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert block.nbytes + peak <= batch * estimator._trial_bytes(inst), (dist.label(), mechs)

    def test_oversized_trial_refused_before_allocation(self):
        inst = Instance.one_to_one(20_000)  # about 13 GB for a single trial
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"n=20000, m=20000 needs about 12803840008 bytes"):
                estimate_distortion(MechanismSpec.rs(), UNIFORM, inst, 1, 0)
            with pytest.raises(ValueError, match=r"n=20000, m=20000"):
                estimate_assignment_probs(MechanismSpec.rs(), UNIFORM, inst, 1, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestAssignmentProbReports:
    def test_half_widths_cover_closed_form(self):
        inst = Instance((3, 2, 1))
        rep = estimate_assignment_probs(
            MechanismSpec.rsbs(), DistributionSpec.favorite_bundle_uniform(1.0, 0.0), inst, 60_000, 52
        )
        from ordmatch.analytics import rsbs_q_exact

        target = rsbs_q_exact(inst)
        for i in range(inst.n):
            assert np.all(np.abs(rep.q_hat[i] - target) <= rep.half_width[i])

    def test_completing_spec_refused(self):
        # filler items would pollute the frequencies, so the spec is refused, not rewritten
        with pytest.raises(ValueError, match=r"^complete: "):
            estimate_assignment_probs(MechanismSpec.rs(complete=True), UNIFORM, Instance((2, 1)), 3_000, 53)

    def test_min_rank_probability_bounds_distortion(self):
        # distortion estimate never exceeds 1 / (min q_hat - 3 sigma)
        cases = [
            (MechanismSpec.rsbs(), Instance((3, 2, 1))),
            (MechanismSpec.hql(), Instance((1, 2, 3))),
            (MechanismSpec.rs(), Instance.one_to_one(4)),
        ]
        dist = DistributionSpec.favorite_bundle_uniform(1.0, 0.0)
        for mech, inst in cases:
            probs = estimate_assignment_probs(mech, dist, inst, 40_000, 54)
            floor = min(
                float(q[t]) - float(probs.half_width[i][t])
                for i, q in enumerate(probs.q_hat)
                for t in range(len(q))
            )
            assert floor > 0
            rep = estimate_distortion(mech, dist, inst, 40_000, 54)
            assert rep.distortion_estimate <= 1.0 / floor


class TestAdversarialReplays:
    def test_replay_ensemble_small_support(self):
        # with 0/1 values and two agents, the optimum is integer 0, 1 or 2
        sw, opt_vals = estimator._collect_distortion(
            (MechanismSpec.rs(),), DistributionSpec.lower_bound_bernoulli(), Instance.one_to_one(2), 4_000, 56, 1
        )
        assert set(np.unique(opt_vals)).issubset({0.0, 1.0, 2.0})
        assert np.all(sw <= opt_vals)

    def test_replay_bounds_hold_smoke(self):
        rep = run_lb_theorem1(10, 30_000, 57)
        assert rep.mean_opt >= rep.opt_floor - 3 * rep.stderr_opt
        assert rep.mean_sw <= rep.sw_ceiling + 3 * rep.stderr_sw
        assert rep.ratio == rep.mean_opt / rep.mean_sw

    @pytest.mark.parametrize(
        "replay, size, field",
        [(run_lb_theorem1, True, "n"), (run_lb_theorem1, 2.5, "n")],
    )
    def test_replay_size_is_an_integer(self, replay, size, field):
        # a bool n would replay n = 1 and pass
        with pytest.raises(ValueError, match=f"^{field}: expected an integer, got {size!r}$"):
            replay(size, 100, 0)



def run_gap_row(tmp_path, quotas, mechanism, trials, seed):
    """The `ordmatch run` row of one cell, as a header-keyed dict."""
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "instance": {"quotas": list(quotas)},
                "distribution": {"name": "iid-uniform01"},
                "mechanism": mechanism,
                "trials": trials,
                "seed": seed,
                "output": str(tmp_path / "out.csv"),
            }
        ),
        encoding="utf-8",
    )
    assert cli.main(["run", str(cfg)]) == 0
    with open(tmp_path / "out.csv", newline="", encoding="utf-8") as f:
        header, row = [r for r in csv.reader(f) if not r[0].startswith("#")]
    return dict(zip(header, row))


class TestGapReport:
    def test_single_agent_ratio_one(self, tmp_path):
        row = run_gap_row(tmp_path, (2,), {"name": "rs", "complete": True}, 400, 60)
        assert analytics.benchmark_lower_bound(Instance((2,))) == 1.0
        assert (row["benchmark_lb"], row["gap_ratio"]) == ("1", "1")

    def test_ratio_consistent(self, tmp_path):
        inst = Instance((2, 1, 1))
        row = run_gap_row(tmp_path, inst.quotas, {"name": "rsbs"}, 3_000, 61)
        rep = estimate_distortion(MechanismSpec.rsbs(), UNIFORM, inst, 3_000, 61)
        floor = analytics.benchmark_lower_bound(inst)
        assert row["benchmark_lb"] == cli._fmt(floor)
        assert row["gap_ratio"] == cli._fmt(rep.distortion_estimate / floor)
