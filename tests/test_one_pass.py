"""Property checks of the one-pass kernel and the completion routine against
plain-Python reference loops over random quotas, orders, activation masks and
batch shapes."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ordmatch import UNASSIGNED, Instance, complete_matching
from ordmatch.core import Matching, complete_assignment, favorite_pairs
from ordmatch.mechanisms import (
    MechanismSpec,
    assign_from_uniforms,
    hql_parameters,
    mechanism_draw_count,
    mechanism_params,
    one_pass_assign,
    survivor_probs,
)

from conftest import pair_mask, random_favorite_pairs

QUOTAS = st.lists(st.integers(1, 4), min_size=1, max_size=6)
LEAD = st.lists(st.integers(1, 3), max_size=2).map(tuple)
SEEDS = st.integers(0, 2**32 - 1)


def reference_one_pass(order, active, fav):
    """For each agent in order, if active, take every favorite still free."""
    out = [UNASSIGNED] * len(fav[0])
    for pos, agent in enumerate(order):
        if active[pos]:
            for g, wanted in enumerate(fav[agent]):
                if wanted and out[g] == UNASSIGNED:
                    out[g] = agent
    return out


def reference_complete(assignment, quotas):
    """Ascending unassigned items to the lowest-indexed agent with residual quota."""
    residual = list(quotas)
    for i in assignment:
        if i != UNASSIGNED:
            residual[i] -= 1
    out = list(assignment)
    for g, i in enumerate(out):
        if i == UNASSIGNED:
            low = next(j for j, r in enumerate(residual) if r > 0)
            out[g] = low
            residual[low] -= 1
    return out


def check_completion(assignment, inst):
    filled = complete_assignment(assignment, inst)
    for idx in np.ndindex(assignment.shape[:-1]):
        partial, full = assignment[idx], filled[idx]
        assert full.tolist() == reference_complete(partial.tolist(), inst.quotas)
        assert np.array_equal(np.bincount(full, minlength=inst.n), inst.quota_array)
        keep = partial != UNASSIGNED
        assert np.array_equal(full[keep], partial[keep])
        if not idx:
            assert np.array_equal(complete_matching(Matching(partial), inst).assignment, full)


@settings(max_examples=300, deadline=None)
@given(
    quotas=QUOTAS,
    lead=LEAD,
    per_trial_order=st.booleans(),
    p_active=st.floats(0.0, 1.0),
    seed=SEEDS,
)
def test_one_pass_matches_reference_loop(quotas, lead, per_trial_order, p_active, seed):
    inst = Instance(tuple(quotas))
    rng = np.random.default_rng(seed)
    fav = random_favorite_pairs(inst, lead, rng)
    if per_trial_order:
        order = np.argsort(rng.random((*lead, inst.n)), axis=-1)
    else:
        order = rng.permutation(inst.n)
    active = rng.random((*lead, inst.n)) < p_active
    out = one_pass_assign(order, active, fav)
    assert out.shape == (*lead, inst.m) and out.dtype == np.int64
    for idx in np.ndindex(lead):
        trial_order = order[idx] if per_trial_order else order
        expected = reference_one_pass(trial_order.tolist(), active[idx].tolist(), pair_mask(fav, idx, inst.n).tolist())
        assert out[idx].tolist() == expected
    check_completion(out, inst)


@settings(max_examples=300, deadline=None)
@given(quotas=QUOTAS, lead=LEAD, seed=SEEDS)
def test_completion_of_random_partial_assignments(quotas, lead, seed):
    inst = Instance(tuple(quotas))
    rng = np.random.default_rng(seed)
    assignment = np.full((*lead, inst.m), UNASSIGNED, dtype=np.int64)
    for idx in np.ndindex(lead):
        residual = list(inst.quotas)
        for g in rng.permutation(inst.m):
            i = int(rng.integers(-1, inst.n))
            if i >= 0 and residual[i] > 0:
                assignment[idx + (g,)] = i
                residual[i] -= 1
    check_completion(assignment, inst)


@settings(max_examples=200, deadline=None)
@given(quotas=QUOTAS, lead=LEAD, seed=SEEDS)
def test_one_pass_mechanisms_read_their_layout(quotas, lead, seed):
    """hql, secretary-rs and serial-dictator through the registry equal the
    reference loop fed with the order and activations their layouts define."""
    inst = Instance(tuple(quotas))
    n = inst.n
    rng = np.random.default_rng(seed)
    fav = random_favorite_pairs(inst, lead, rng)
    hql_order, p_activate = hql_parameters(inst)
    p_survive = survivor_probs(inst)
    pick_order = tuple(rng.permutation(n).tolist())
    specs = (MechanismSpec.hql(), MechanismSpec.secretary_rs(), MechanismSpec.serial_dictator(pick_order))
    for spec in specs:
        u = rng.random((*lead, mechanism_draw_count(spec, inst)))
        out = assign_from_uniforms(spec, mechanism_params(spec, inst), fav, u)
        for idx in np.ndindex(lead):
            row = u[idx].tolist()
            if spec.kind == "hql":
                order = hql_order.tolist()
                active = [row[pos] < p_activate[pos] for pos in range(n)]
            elif spec.kind == "secretary-rs":
                order = sorted(range(n), key=lambda i: row[n + i])
                active = [row[i] < p_survive[i] for i in order]
            else:
                order = list(pick_order)
                active = [True] * n
            expected = reference_one_pass(order, active, pair_mask(fav, idx, n).tolist())
            assert out[idx].tolist() == expected, spec.kind


@settings(max_examples=200, deadline=None)
@given(quotas=QUOTAS, lead=LEAD, truncate=st.booleans(), seed=SEEDS)
def test_favorite_mask_matches_reference_loop(quotas, lead, truncate, seed):
    inst = Instance(tuple(quotas))
    rng = np.random.default_rng(seed)
    rankings = np.argsort(rng.random((*lead, inst.n, inst.m)), axis=-1)
    expected = np.zeros(rankings.shape, dtype=bool)
    for idx in np.ndindex(rankings.shape[:-2]):
        for i, b in enumerate(inst.quotas):
            for g in rankings[idx][i, :b]:
                expected[idx][i, g] = True
    table = rankings[..., : inst.b_max] if truncate else rankings
    fav = favorite_pairs(table, inst.quotas)
    agent, cell, slot, shape = fav
    assert shape == (*lead, inst.m)
    for a in (agent, cell, slot):
        assert a.shape == (math.prod(shape),) and a.dtype == np.int64
    trial = np.repeat(np.arange(math.prod(lead)), inst.m)  # m pairs per trial, trials in order
    assert np.array_equal(cell // inst.m, trial)
    assert np.array_equal(slot, trial * inst.n + agent)
    step, agent_step = np.diff(cell), np.diff(agent)
    assert ((step > 0) | ((step == 0) & (agent_step > 0)))[np.diff(trial) == 0].all()  # by item, then agent
    for idx in np.ndindex(lead):
        assert np.array_equal(pair_mask(fav, idx, inst.n), expected[idx])
