import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from ordmatch import (
    UNASSIGNED,
    Instance,
    Matching,
    RandomStream,
    ValuationProfile,
    social_welfare,
)
from ordmatch.distributions import DistributionSpec, sample_profile
from ordmatch.mechanisms import MechanismSpec, run_mechanism
from ordmatch.cli import split_quotas
from ordmatch.core import derive_preferences
from ordmatch import opt
from ordmatch.opt import (
    brute_force_opt,
    optimal_matching,
    optimal_value,
    optimal_values,
)

from conftest import random_instance


def assert_below_exact_optimum(value, inst, profile):
    """The engine's value, one matching's welfare rounded once, never exceeds
    the exact optimum rounded once, and falls at most 1e-9 short of it."""
    brute = brute_force_opt(inst, profile)
    assert value <= brute
    assert brute - value <= 1e-9


def test_diagonal_profile_value_n():
    n = 5
    inst = Instance.one_to_one(n)
    profile = ValuationProfile(inst, np.eye(n))
    result = optimal_matching(inst, profile)
    assert result.value == pytest.approx(n, abs=1e-12)
    assert np.array_equal(result.matching.assignment, np.arange(n))


def test_all_zero_profile():
    inst = Instance((2, 1))
    profile = ValuationProfile(inst, np.zeros((2, 3)))
    result = optimal_matching(inst, profile)
    assert result.value == 0.0
    result.matching.validate(inst)
    assert np.all(result.matching.assignment >= 0)  # every item assigned


def test_every_item_assigned_and_feasible():
    gen = RandomStream(70).generator()
    for _ in range(30):
        inst = random_instance(gen)
        profile = sample_profile(DistributionSpec.iid_uniform01(), inst, gen)
        result = optimal_matching(inst, profile)
        result.matching.validate(inst)
        assert np.all(result.matching.assignment >= 0)
        assert social_welfare(result.matching, profile) == result.value


def test_agrees_with_brute_force_on_three_agent_profiles():
    gen = RandomStream(71).generator()
    for _ in range(50):
        n = 3
        m = int(gen.integers(n, 8))
        cuts = np.sort(gen.choice(m - 1, size=n - 1, replace=False)) + 1
        quotas = tuple(int(b) for b in np.diff(np.concatenate(([0], cuts, [m]))))
        inst = Instance(quotas)
        profile = sample_profile(DistributionSpec.iid_uniform01(), inst, gen)
        assert_below_exact_optimum(optimal_matching(inst, profile).value, inst, profile)


def test_agrees_with_brute_force_on_sparse_profiles():
    gen = RandomStream(72).generator()
    for _ in range(50):
        inst = random_instance(gen, n_max=4, m_max=7)
        profile = sample_profile(DistributionSpec.iid_bernoulli(0.3), inst, gen)
        assert_below_exact_optimum(optimal_matching(inst, profile).value, inst, profile)


def test_brute_force_single_item():
    inst = Instance((1,))
    profile = ValuationProfile(inst, np.array([[0.42]]))
    assert brute_force_opt(inst, profile) == pytest.approx(0.42, abs=1e-15)


def test_brute_force_contention():
    inst = Instance((1, 1))
    profile = ValuationProfile(inst, np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert brute_force_opt(inst, profile) == pytest.approx(1.0, abs=1e-15)


def test_brute_force_rejects_large_instances():
    inst = Instance((5, 4))
    profile = ValuationProfile(inst, np.zeros((2, 9)))
    with pytest.raises(ValueError):
        brute_force_opt(inst, profile)


def test_scale_equivariance():
    gen = RandomStream(73).generator()
    for _ in range(10):
        inst = random_instance(gen)
        profile = sample_profile(DistributionSpec.iid_uniform01(), inst, gen)
        base = optimal_matching(inst, profile)
        for c in (0.25, 3.0):
            scaled = ValuationProfile(inst, profile.values * c)
            result = optimal_matching(inst, scaled)
            assert result.value == pytest.approx(c * base.value, rel=1e-12)
            # the unscaled argmax stays optimal under scaling
            assert social_welfare(base.matching, scaled) == pytest.approx(result.value, rel=1e-12)


def test_permutation_equivariance():
    gen = RandomStream(74).generator()
    for _ in range(10):
        inst = random_instance(gen)
        profile = sample_profile(DistributionSpec.iid_uniform01(), inst, gen)
        perm = gen.permutation(inst.m)
        permuted = ValuationProfile(inst, profile.values[:, perm])
        a = optimal_matching(inst, profile).value
        b = optimal_matching(inst, permuted).value
        assert b == pytest.approx(a, rel=1e-12)


def test_dominates_every_mechanism_output():
    gen = RandomStream(75).generator()
    specs = [MechanismSpec.rs(), MechanismSpec.rsbs(), MechanismSpec.hql(), MechanismSpec.secretary_rs()]
    for _ in range(15):
        inst = random_instance(gen)
        profile = sample_profile(DistributionSpec.iid_uniform01(), inst, gen)
        prefs = derive_preferences(profile, gen)
        opt_val = optimal_value(inst, profile.values)
        for spec in specs:
            matching = run_mechanism(spec, inst, prefs, gen)
            assert social_welfare(matching, profile) <= opt_val


def test_overflowing_welfare_is_a_value_error():
    # every item of 1e308 to one agent: the exact sum leaves float64
    inst = Instance((2,))
    profile = ValuationProfile(inst, [[1e308, 1e308]])
    calls = (
        lambda: social_welfare(Matching([0, 0]), profile),
        lambda: optimal_value(inst, profile.values),
        lambda: optimal_matching(inst, profile),
        lambda: brute_force_opt(inst, profile),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^values too large: a welfare sum leaves float64$"):
            call()


def exact_optimum(inst, values):
    """float of the largest exact welfare: one agent per item
    (`itertools.product`), kept when every agent holds exactly its quota,
    each welfare summed in `Fraction`."""
    rows = [[Fraction(x) for x in row] for row in values.tolist()]
    quotas = sorted(i for i, b in enumerate(inst.quotas) for _ in range(b))
    return float(
        max(
            sum(rows[i][g] for g, i in enumerate(owners))
            for owners in product(range(inst.n), repeat=inst.m)
            if sorted(owners) == quotas
        )
    )


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    kind=st.sampled_from(["uniform", "0/1", "k/7"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_brute_force_is_the_exact_optimum_rounded_once(m, n, kind, seed):
    # k/7 sums round, so a float accumulator can land an ulp off either way
    rng = np.random.default_rng(seed)
    inst = Instance(split_quotas(rng, min(n, m), m))
    shape = (inst.n, m)
    if kind == "uniform":
        values = rng.random(shape)
    elif kind == "0/1":
        values = rng.integers(0, 2, shape).astype(np.float64)
    else:
        values = rng.integers(0, 8, shape) / 7
    brute = brute_force_opt(inst, ValuationProfile(inst, values))
    exact = exact_optimum(inst, values)
    assert brute.hex() == exact.hex()  # bit for bit
    assert optimal_value(inst, values) <= brute


def test_rejects_profile_from_other_instance():
    inst = Instance((1, 1))
    other = Instance((2,))
    profile = ValuationProfile(other, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        optimal_matching(inst, profile)
    with pytest.raises(ValueError):
        brute_force_opt(inst, profile)


# --- the engine's batched oracle -------------------------------------------------

PROFILE_KINDS = ("uniform", "bernoulli-0.3", "bernoulli-1/n^2", "bundle-hi-lo", "integer-ties", "zero")


def _solve_assignment(inst: Instance, values: np.ndarray) -> np.ndarray:
    """Return an item -> agent vector of maximum total value (items with no
    positive column are left unassigned here; callers fill them)."""
    n, m = inst.n, inst.m
    assignment = np.full(m, UNASSIGNED, dtype=np.int64)
    rows = np.flatnonzero(values.any(axis=1))
    cols = np.flatnonzero(values.any(axis=0))
    if rows.size == 0:
        return assignment
    # expand agent i into min(b_i, #columns) slots; extra slots can never help
    slot_owner = np.repeat(rows, np.minimum(inst.quota_array[rows], cols.size))
    weights = values[np.ix_(slot_owner, cols)]
    r_idx, c_idx = linear_sum_assignment(weights, maximize=True)
    assignment[cols[c_idx]] = slot_owner[r_idx]
    return assignment


def reference_value(inst, values):
    """Per-trial oracle: zero rows and columns dropped, one assignment solve,
    fsum of the chosen entries."""
    assignment = _solve_assignment(inst, values)
    items = np.flatnonzero(assignment >= 0)
    return math.fsum(values[assignment[items], items].tolist())


def draw_profile(kind, inst, rng):
    n, m = inst.n, inst.m
    if kind == "uniform":
        return rng.random((n, m))
    if kind == "bernoulli-0.3":
        return (rng.random((n, m)) < 0.3).astype(np.float64)
    if kind == "bernoulli-1/n^2":
        return (rng.random((n, m)) < 1.0 / n**2).astype(np.float64)
    if kind == "bundle-hi-lo":
        lo = float(rng.choice([0.0, 0.25]))
        values = np.full((n, m), lo)
        for i, b in enumerate(inst.quotas):
            values[i, rng.permutation(m)[:b]] = 1.0
        return values
    if kind == "integer-ties":
        values = rng.integers(0, 3, (n, m)).astype(np.float64)
        g = int(rng.integers(m))
        values[:, g] = values[:, g].max()  # every agent ties at this column's maximum
        return values
    return np.zeros((n, m))


@settings(max_examples=200, deadline=None)
@given(
    quotas=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    kinds=st.lists(st.sampled_from(PROFILE_KINDS), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_optimal_values_match_per_trial_oracle(quotas, kinds, seed):
    inst = Instance(tuple(quotas))
    rng = np.random.default_rng(seed)
    stack = np.stack([draw_profile(kind, inst, rng) for kind in kinds])
    got = optimal_values(inst, stack)
    assert got.shape == (len(kinds),)
    ref = np.array([reference_value(inst, v) for v in stack])
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))  # bit for bit
    for k, v in enumerate(stack):
        assert optimal_values(inst, stack[k : k + 1])[0] == got[k]
        assert optimal_value(inst, v) == got[k]
        result = optimal_matching(inst, ValuationProfile(inst, v))
        assert result.value == got[k]
        assert np.array_equal(np.bincount(result.matching.assignment, minlength=inst.n), inst.quota_array)
        if inst.m <= 8:
            assert_below_exact_optimum(got[k], inst, ValuationProfile(inst, v))


def refuse(*args, **kwargs):
    raise AssertionError("this path must not be taken")


def test_column_maximum_shortcut_skips_the_solver(monkeypatch):
    # a 0/1 favorite-bundle profile never gives an agent more than b_i
    # column maxima, so no trial of it reaches a solver
    rng = np.random.default_rng(76)
    for quotas in [(3, 2, 1), (1, 1, 1, 1), (5,), (2, 2, 2, 2)]:
        inst = Instance(quotas)
        bundles = np.stack([draw_profile("bundle-hi-lo", inst, rng) for _ in range(50)])
        stack = (bundles == 1.0).astype(np.float64)  # hi = 1, lo = 0
        expected = np.array([reference_value(inst, v) for v in stack])
        with monkeypatch.context() as patch:
            patch.setattr(opt, "linear_sum_assignment", refuse)
            assert np.array_equal(optimal_values(inst, stack), expected)


def needs_solver(inst, v):
    """True when giving each positive column to its first maximum overloads
    an agent, so the column-maximum shortcut cannot settle the trial."""
    cols = np.flatnonzero(v.max(axis=0) > 0)
    loads = np.bincount(v[:, cols].argmax(axis=0), minlength=inst.n)
    return bool((loads > inst.quota_array).any())


def test_solver_trials_skip_the_filtering_solver(monkeypatch):
    # dense and sparse trials the shortcut cannot settle both go straight to
    # the assignment routine on the slot-expanded matrix, one call each, and
    # a stack mixing them with shortcut-settled trials solves only the former
    rng = np.random.default_rng(77)
    for quotas in [(3, 2, 1), (1,) * 6, (4, 4)]:
        inst = Instance(quotas)
        shape = (40, inst.n, inst.m)
        bundles = np.stack([draw_profile("bundle-hi-lo", inst, rng) == 1.0 for _ in range(20)])
        mixed = np.concatenate([bundles.astype(np.float64), rng.random((20, inst.n, inst.m)) + 0.01])
        mixed = mixed[rng.permutation(len(mixed))]
        for stack in [rng.random(shape) + 0.01, (rng.random(shape) < 0.3) * rng.random(shape), mixed]:
            expected = np.array([reference_value(inst, v) for v in stack])
            single = np.array([optimal_value(inst, v) for v in stack])
            solvers = sum(needs_solver(inst, v) for v in stack)
            solves = []

            def counting_lsap(*args, **kwargs):
                solves.append(1)
                return linear_sum_assignment(*args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(opt, "linear_sum_assignment", counting_lsap)
                got = optimal_values(inst, stack)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))
            assert np.array_equal(got.view(np.int64), single.view(np.int64))
            assert 0 < len(solves) == solvers
        assert solvers < len(mixed)  # the mixed stack has shortcut-settled trials too


def test_solver_loads_from_the_compiled_module(monkeypatch, tmp_path):
    # on the installed scipy the solver is read from its extension file, not
    # through the public import; with no such file the public import stands
    # in, and the optimum stays bit for bit the same
    import scipy.optimize

    public = scipy.optimize.linear_sum_assignment
    calls = []

    def marked(*args, **kwargs):
        calls.append(1)
        return public(*args, **kwargs)

    inst = Instance.one_to_one(6)
    stack = np.random.default_rng(78).random((30, 6, 6))
    expected = optimal_values(inst, stack)
    with monkeypatch.context() as patch:
        patch.setattr(scipy.optimize, "linear_sum_assignment", marked)
        patch.setattr(opt, "_scipy_lsap", None)
        light = optimal_values(inst, stack)
        assert opt._scipy_lsap is public
        assert not calls
        patch.setattr(opt, "_scipy_lsap", None)
        patch.setattr(opt, "_scipy_optimize_dir", lambda: str(tmp_path))
        fallback = optimal_values(inst, stack)
        assert opt._scipy_lsap is marked
        assert calls
    for got in (light, fallback):
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_optimal_values_rejects_wrong_shape():
    inst = Instance((2, 1))
    with pytest.raises(ValueError):
        optimal_values(inst, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        optimal_values(inst, np.zeros((4, 3, 2)))
    assert optimal_values(inst, np.zeros((0, 2, 3))).shape == (0,)
