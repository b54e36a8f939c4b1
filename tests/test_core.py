import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from ordmatch import (
    UNASSIGNED,
    Instance,
    Matching,
    RandomStream,
    ValuationProfile,
    complete_matching,
    derive_preferences,
    social_welfare,
)
from ordmatch.core import fsum_rows, top_items, welfare
from ordmatch.distributions import DistributionSpec, sample_profile
from ordmatch.mechanisms import MechanismSpec
from ordmatch.opt import optimal_matching

from conftest import random_instance


def lexsort_rankings(values: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """Reference ranking: items by decreasing value, exact ties by increasing
    tag, one lexsort over each row's full item axis."""
    m = values.shape[-1]
    idx = np.lexsort((tags.reshape(-1, m), -values.reshape(-1, m)), axis=-1)
    return idx.reshape(values.shape).astype(np.int64)


class TestRandomStream:
    def test_identical_streams_identical_draws(self):
        a = RandomStream(123, 7).generator().random(32)
        b = RandomStream(123, 7).generator().random(32)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomStream(123, 7).generator().random(32)
        b = RandomStream(123, 8).generator().random(32)
        c = RandomStream(124, 7).generator().random(32)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RandomStream(-1)
        with pytest.raises(ValueError):
            RandomStream(2**64)
        with pytest.raises(ValueError, match="^seed: expected an integer, got 1.5$"):
            RandomStream(1.5)


class TestInstance:
    def test_counts(self):
        inst = Instance((3, 2, 1))
        assert inst.n == 3
        assert inst.m == 6
        assert inst.b_max == 3

    def test_rejects_bad_quotas(self):
        with pytest.raises(ValueError):
            Instance(())
        with pytest.raises(ValueError):
            Instance((2, 0))


# Each spec checks its own fields and casts none: a float, bool or string
# where an integer, a bool or a number belongs is a ValueError naming it.
@pytest.mark.parametrize(
    "build, field",
    [
        pytest.param(lambda: Instance((2.7, 1)), r"quotas\[0\]", id="quota-float"),
        pytest.param(lambda: Instance((1, True)), r"quotas\[1\]", id="quota-bool"),
        pytest.param(lambda: Instance(("2", 1)), r"quotas\[0\]", id="quota-string"),
        pytest.param(lambda: Instance(3), "quotas", id="quotas-int"),
        pytest.param(lambda: Instance("12"), "quotas", id="quotas-string"),
        pytest.param(lambda: Instance(np.array([[2, 1]])), "quotas", id="quotas-2d-array"),
        pytest.param(lambda: Instance({2: 1}), "quotas", id="quotas-dict"),
        pytest.param(lambda: Instance.one_to_one(True), "n", id="one-to-one-bool"),
        pytest.param(lambda: MechanismSpec("rs", complete="false"), "complete", id="complete-string"),
        pytest.param(lambda: MechanismSpec.hql(complete=1), "complete", id="complete-int"),
        pytest.param(lambda: MechanismSpec.serial_dictator([1, 0.0]), r"order\[1\]", id="order-float"),
        pytest.param(lambda: MechanismSpec("serial-dictator", order=(True, 0)), r"order\[0\]", id="order-bool"),
        pytest.param(lambda: DistributionSpec("iid-bernoulli", p=True), "p", id="p-bool"),
        pytest.param(lambda: DistributionSpec.iid_bernoulli("0.5"), "p", id="p-string"),
        pytest.param(lambda: DistributionSpec.iid_bernoulli(10**400), "p", id="p-huge-int"),
        pytest.param(lambda: DistributionSpec.single_agent_adversarial(1.5), "agent", id="agent-float"),
        pytest.param(
            lambda: DistributionSpec("single-agent-adversarial", agent=0, with_replacement="false"),
            "with_replacement",
            id="with-replacement-string",
        ),
        pytest.param(
            lambda: DistributionSpec.single_agent_adversarial(0, with_replacement=0),
            "with_replacement",
            id="with-replacement-int",
        ),
        pytest.param(lambda: DistributionSpec.exchangeable_permutation([1.0, "0"]), r"base\[1\]", id="base-string"),
        pytest.param(lambda: DistributionSpec.favorite_bundle_uniform("1", 0.0), "hi", id="hi-string"),
        pytest.param(lambda: DistributionSpec("favorite-bundle-uniform", hi=1.0, lo=False), "lo", id="lo-bool"),
    ],
)
def test_specs_refuse_coercion(build, field):
    with pytest.raises(ValueError, match=f"^{field}: "):
        build()


def test_specs_take_numpy_scalars():
    assert Instance((np.int64(2), 1)).quotas == (2, 1)
    assert MechanismSpec.serial_dictator(np.array([1, 0])).order == (1, 0)
    assert MechanismSpec.rs(complete=np.bool_(True)).complete is True
    assert DistributionSpec.iid_bernoulli(np.float32(0.5)).p == 0.5
    assert DistributionSpec.exchangeable_permutation(np.linspace(0.0, 1.0, 3)).base == (0.0, 0.5, 1.0)


class TestValuationProfile:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ValuationProfile(Instance((1, 1)), np.zeros((2, 3)))

    def test_rejects_negative_and_nonfinite(self):
        inst = Instance((1, 1))
        with pytest.raises(ValueError):
            ValuationProfile(inst, np.array([[0.5, -0.1], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            ValuationProfile(inst, np.array([[0.5, np.nan], [0.0, 0.0]]))

    def test_values_immutable(self):
        profile = ValuationProfile(Instance((1, 1)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            profile.values[0, 0] = 2.0


class TestDerivePreferences:
    def test_strict_values_force_order(self):
        inst = Instance((1, 1, 1))
        values = np.array([[0.9, 0.1, 0.5], [0.2, 0.3, 0.1], [0.1, 0.2, 0.3]])
        profile = ValuationProfile(inst, values)
        for seed in range(5):
            prefs = derive_preferences(profile, RandomStream(seed).generator())
            assert tuple(prefs.rankings[0]) == (0, 2, 1)
            assert set(prefs.rankings[0, :1]) == {0}

    def test_value_monotone(self):
        gen = RandomStream(2024).generator()
        for _ in range(30):
            inst = random_instance(gen)
            values = gen.random((inst.n, inst.m))
            prefs = derive_preferences(ValuationProfile(inst, values), gen)
            for i in range(inst.n):
                ranked = values[i, prefs.rankings[i]]
                assert np.all(np.diff(ranked) <= 0)

    def test_full_tie_row_uniform_orderings(self):
        # one agent with three equal values: all 3! orders equally likely
        inst = Instance((3,))
        profile = ValuationProfile(inst, np.ones((1, 3)))
        gen = RandomStream(51).generator()
        trials = 60_000
        counts = {p: 0 for p in permutations(range(3))}
        for _ in range(trials):
            prefs = derive_preferences(profile, gen)
            counts[tuple(int(g) for g in prefs.rankings[0])] += 1
        expected = trials / 6
        sigma = math.sqrt(trials * (1 / 6) * (5 / 6))
        for p, c in counts.items():
            assert abs(c - expected) <= 3 * sigma, (p, c)
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2.sf(stat, 5) > 0.001

    def test_all_zero_row_uniform_favorite_subsets(self):
        inst = Instance((2, 1))
        profile = ValuationProfile(inst, np.zeros((2, 3)))
        gen = RandomStream(52).generator()
        trials = 30_000
        counts = {frozenset(s): 0 for s in [(0, 1), (0, 2), (1, 2)]}
        for _ in range(trials):
            prefs = derive_preferences(profile, gen)
            counts[frozenset(prefs.rankings[0, :2])] += 1
        sigma = math.sqrt(trials * (1 / 3) * (2 / 3))
        for s, c in counts.items():
            assert abs(c - trials / 3) <= 3 * sigma, (s, c)

    def test_all_tie_permutations_uniform_k5(self):
        # chi-square over all 120 orders of a 5-item all-tie row
        trials = 100_000
        gen = RandomStream(53).generator()
        values = np.zeros((trials, 1, 5))
        tags = gen.random((trials, 1, 5))
        rankings = top_items(values, tags, 5)[:, 0, :]
        keys = np.ravel_multi_index(rankings.T, (5, 5, 5, 5, 5))
        counts = np.bincount(keys, minlength=5**5)
        perm_keys = [np.ravel_multi_index(p, (5,) * 5) for p in permutations(range(5))]
        observed = counts[perm_keys]
        assert observed.sum() == trials
        expected = trials / 120
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert chi2.sf(stat, 119) > 0.001


class TestSocialWelfare:
    def test_empty_matching(self):
        inst = Instance((1, 1))
        profile = ValuationProfile(inst, np.array([[0.7, 0.1], [0.3, 0.2]]))
        assert social_welfare(Matching(np.full(2, UNASSIGNED)), profile) == 0.0

    def test_two_term_sum(self):
        inst = Instance((1, 1))
        profile = ValuationProfile(inst, np.array([[0.7, 0.1], [0.3, 0.2]]))
        matching = Matching(np.array([0, 1]))
        assert social_welfare(matching, profile) == pytest.approx(0.9, abs=1e-15)

    def test_matches_opt_value_on_random_profiles(self):
        gen = RandomStream(60).generator()
        inst = Instance((1, 1, 1))
        for _ in range(20):
            profile = sample_profile(DistributionSpec.iid_uniform01(), inst, gen)
            result = optimal_matching(inst, profile)
            assert social_welfare(result.matching, profile) == result.value

    def test_additive_over_disjoint_partial_matchings(self):
        gen = RandomStream(61).generator()
        for _ in range(20):
            inst = random_instance(gen)
            profile = sample_profile(DistributionSpec.iid_uniform01(), inst, gen)
            full = complete_matching(Matching(np.full(inst.m, UNASSIGNED)), inst)
            split = gen.random(inst.m) < 0.5
            part_a = np.where(split, full.assignment, UNASSIGNED)
            part_b = np.where(split, UNASSIGNED, full.assignment)
            total = social_welfare(full, profile)
            parts = social_welfare(Matching(part_a), profile) + social_welfare(Matching(part_b), profile)
            assert abs(total - parts) <= 1e-12

    def test_rejects_unknown_agent(self):
        inst = Instance((1, 1))
        profile = ValuationProfile(inst, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            social_welfare(Matching(np.array([5, UNASSIGNED])), profile)


# magnitudes whose left-to-right float sum drops the small terms
# (1e16 + 1.0 + 1.0 rounds to 1e16; fsum gives 1e16 + 2)
WELFARE_PALETTE = np.array([0.0, 1.0, 0.1, 0.7, 1e-16, 1e16, 3e16])


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 8),
    lead=st.lists(st.integers(0, 3), max_size=2).map(tuple),
    seed=st.integers(0, 2**32 - 1),
)
def test_welfare_matches_fsum_loop(n, m, lead, seed):
    rng = np.random.default_rng(seed)
    values = rng.choice(WELFARE_PALETTE, (*lead, n, m))
    assignment = rng.integers(UNASSIGNED, n, (*lead, m))
    got = welfare(values, assignment)
    assert got.shape == lead and got.dtype == np.float64
    for idx in np.ndindex(lead):
        v, a = values[idx].tolist(), assignment[idx].tolist()
        expected = math.fsum(v[a[g]][g] for g in range(m) if a[g] >= 0)
        assert np.float64(got[idx]).view(np.int64) == np.float64(expected).view(np.int64)


def test_welfare_is_not_a_plain_sum():
    values = np.array([[1e16, 1.0, 1.0], [5.0, 5.0, 5.0]])
    assert welfare(values, np.array([0, 0, 0])) == 1e16 + 2.0
    assert welfare(values, np.array([UNASSIGNED, 1, UNASSIGNED])) == 5.0


def fsum_each(block: np.ndarray) -> np.ndarray:
    return np.array([math.fsum(row) for row in block.tolist()])


def assert_fsum_rows_matches(block: np.ndarray) -> None:
    """fsum_rows equals math.fsum row by row, bit for bit, and raises
    ValueError where fsum overflows."""
    try:
        expected = fsum_each(block)
    except OverflowError:
        with pytest.raises(ValueError, match="^values too large: a welfare sum leaves float64$"):
            fsum_rows(block)
        return
    got = fsum_rows(block)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (got, expected)


# Base exponents of the generated cells: subnormal, around the normal range's
# bottom, ordinary, and near the top (2**1000 times 600 cells still fits).
FSUM_BASES = [-1074, -1070, -1040, -1022, -1000, -80, -53, -20, 0, 30, 900, 1000]


@st.composite
def fsum_blocks(draw) -> np.ndarray:
    """A (rows, k) float block of one of four kinds: cells from a palette of
    arbitrary finite floats; cells on one power-of-two grid (mantissas of
    random width, mixed signs, so some rows fit the int64 path and some do
    not); exact half-ulp ties; rows mixing exponents far apart."""
    rows, k = draw(st.integers(1, 3)), draw(st.integers(1, 600))
    kind = draw(st.sampled_from(["palette", "grid", "tie", "far"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rows, k)
    if kind == "palette":
        palette = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6))
        return rng.choice(np.array(palette + [0.0, -0.0]), shape)
    base = draw(st.sampled_from(FSUM_BASES))
    if kind == "grid":
        width = draw(st.integers(1, 53))
        mantissas = rng.integers(-(2**width) + 1, 2**width, shape)
        return np.ldexp(mantissas.astype(np.float64), max(base - width, -1074) + rng.integers(0, 4, shape))
    if kind == "tie":
        # a + ulp(a)/2 lies halfway between two floats; the half may come in
        # two quarters, and zeros pad the row
        base = max(base, -960)
        block = np.zeros(shape)
        a = np.ldexp(rng.integers(2**52, 2**53, rows).astype(np.float64), base - 52)
        a *= rng.choice([-1.0, 1.0], rows)
        block[:, 0] = a
        half = np.ldexp(rng.choice([-1.0, 1.0], rows), base - 53)
        if k >= 3 and draw(st.booleans()):
            block[:, 1] = block[:, 2] = half / 2
        elif k >= 2:
            block[:, 1] = half
        return rng.permuted(block, axis=1)
    # far: one big cell and others at least 63 binades below it
    block = np.ldexp(rng.random(shape), rng.integers(-1074, max(base - 63, -1073), shape))
    block[:, 0] = np.ldexp(rng.random(rows) + 1.0, base)
    block *= rng.choice([-1.0, 1.0], shape)
    return block


@settings(max_examples=250, deadline=None)
@given(block=fsum_blocks())
def test_fsum_rows_is_fsum_bit_for_bit(block):
    assert_fsum_rows_matches(block)


def test_fsum_rows_edge_blocks():
    tiny = 2.0**-1074
    blocks = [
        [[1.0, 2.0**-53], [1.0 + 2.0**-52, 2.0**-53], [1.0, -(2.0**-54)]],  # ties to even, and below
        [[2.0**1000, 2.0**-1000]],  # a cell that would underflow when scaled
        [[2.0**1000, -(2.0**1000)], [2.0**-1000, 0.0]],  # the same across rows
        [[tiny, tiny, -tiny]],  # subnormals
        [[3 * tiny, 2.0**-1022, -tiny]],  # a sum crossing into the normal range
        [[-0.0], [-0.0]],  # fsum never returns -0.0
        [[-0.0, 0.0, -0.0]],
        [[1e308, 1e308]],  # overflow raises, as fsum does
        [[1e308, 1e308, -1e308]],  # so does an intermediate one
    ]
    for rows in blocks:
        assert_fsum_rows_matches(np.array(rows))
    assert fsum_rows(np.zeros((2, 0))).tolist() == [0.0, 0.0]
    assert fsum_rows(np.arange(6.0).reshape(1, 2, 3)).shape == (1, 2)


def test_fsum_rows_sums_uniforms_and_0_1_rows_in_int64(monkeypatch):
    gen = RandomStream(5).generator()
    blocks = [
        gen.random((426, 20)),
        gen.random((500, 6)),
        (gen.random((69, 50)) < 0.3).astype(np.float64),
        np.ldexp(gen.integers(-(2**45), 2**45, (50, 8)).astype(np.float64), -1074),  # subnormal sums
    ]
    expected = [fsum_each(b) for b in blocks]

    def refuse(*args):
        raise AssertionError("a row fell back to math.fsum")

    monkeypatch.setattr(math, "fsum", refuse)
    for block, want in zip(blocks, expected):
        assert np.array_equal(fsum_rows(block).view(np.int64), want.view(np.int64))


class TestCompleteMatching:
    def test_fully_assigned_unchanged(self):
        inst = Instance((1, 1))
        matching = Matching(np.array([1, 0]))
        assert np.array_equal(complete_matching(matching, inst).assignment, [1, 0])

    def test_empty_fill_order(self):
        inst = Instance((1, 1))
        filled = complete_matching(Matching(np.full(2, UNASSIGNED)), inst)
        assert np.array_equal(filled.assignment, [0, 1])

    def test_residual_quota_fill(self):
        inst = Instance((2, 1))
        filled = complete_matching(Matching(np.array([UNASSIGNED, UNASSIGNED, 1])), inst)
        assert np.array_equal(filled.assignment, [0, 0, 1])

    def test_fills_every_quota_exactly(self):
        gen = RandomStream(62).generator()
        for _ in range(40):
            inst = random_instance(gen)
            partial = np.full(inst.m, UNASSIGNED, dtype=np.int64)
            residual = list(inst.quotas)
            for g in range(inst.m):
                if gen.random() < 0.5:
                    i = int(gen.integers(inst.n))
                    if residual[i] > 0:
                        partial[g] = i
                        residual[i] -= 1
            filled = complete_matching(Matching(partial), inst)
            filled.validate(inst)
            assert np.array_equal(filled.bundle_sizes(inst), inst.quota_array)
            keep = partial >= 0
            assert np.array_equal(filled.assignment[keep], partial[keep])

    def test_rejects_overfull_matching(self):
        inst = Instance((1, 1))
        with pytest.raises(ValueError):
            complete_matching(Matching(np.array([0, 0])), inst)


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 9),
    lead=st.lists(st.integers(0, 4), max_size=2).map(tuple),
    kinds=st.sets(st.sampled_from(["continuous", "0/1", "all-equal"]), min_size=1),
    seed=st.integers(0, 2**32 - 1),
)
def test_top_items_is_the_ranking_prefix(m, lead, kinds, seed):
    """Every depth of top_items equals the same prefix of the full tag-broken
    ranking, on batches whose rows are continuous, 0/1 or all equal, mixed.
    Values and tags are read-only strided views of one block, as in the
    engine, and the same tags serve every depth."""
    rng = np.random.default_rng(seed)
    rows = {
        "continuous": rng.random((*lead, m)),
        "0/1": (rng.random((*lead, m)) < 0.5).astype(np.float64),
        "all-equal": np.full((*lead, m), 0.25),
    }
    pick = rng.choice(sorted(kinds), size=(*lead, 1))
    values = np.zeros((*lead, m))
    for kind, row in rows.items():
        values = np.where(pick == kind, row, values)
    block = rng.random((*lead, 2 * m + 1))
    block[..., :m] = values
    values, tags = block[..., :m], block[..., m : 2 * m]
    values.setflags(write=False)
    tags.setflags(write=False)
    full = lexsort_rankings(values, tags)
    for depth in range(1, m + 1):
        top = top_items(values, tags, depth)
        assert top.dtype == np.int64
        assert np.array_equal(top, full[..., :depth]), depth

