"""Property checks of the survivor-lottery kernels, `rs_assign` and
`rsbs_assign`, against plain-Python reference loops over random quotas,
favorite pair tables, uniform blocks and batch shapes.  The reference loops
read each trial's favorites as a boolean (n, m) mask."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ordmatch import UNASSIGNED, Instance
from ordmatch.mechanisms import (
    MechanismSpec,
    assign_from_uniforms,
    mechanism_draw_count,
    mechanism_params,
    rs_assign,
    rsbs_assign,
)

from conftest import pair_mask, random_favorite_pairs

QUOTAS = st.lists(st.integers(1, 4), min_size=1, max_size=6)
LEAD = st.lists(st.integers(1, 3), max_size=2).map(tuple)
SEEDS = st.integers(0, 2**32 - 1)


def reference_rs(p_survive, fav, u):
    """Agent i survives when u[i] < p_survive[i]; item g goes to the
    floor(u[n + g] * k)-th (0-based, in agent order) of its k surviving
    demanders, or stays unassigned when it has none."""
    n, m = len(fav), len(fav[0])
    out = []
    for g in range(m):
        demanders = [i for i in range(n) if fav[i][g] and u[i] < p_survive[i]]
        out.append(demanders[int(u[n + g] * len(demanders))] if demanders else UNASSIGNED)
    return out


def reference_rsbs(i_star, p_survive_phase1, betas, sigma, fav, u):
    """The lottery above, then the bundle of each holder i burns when
    u[n + m + i] < betas[i], then i_star takes each of its favorites that is
    free, or held by anyone when u[2n + m] < sigma."""
    n, m = len(fav), len(fav[0])
    steal = u[2 * n + m] < sigma
    out = []
    for g, holder in enumerate(reference_rs(p_survive_phase1, fav, u)):
        if holder != UNASSIGNED and u[n + m + holder] < betas[holder]:
            holder = UNASSIGNED
        if fav[i_star][g] and (holder == UNASSIGNED or steal):
            holder = i_star
        out.append(holder)
    return out


def probabilities(rng, size):
    """Random coin probabilities with exact 0 and 1 mixed in."""
    return np.choose(rng.integers(0, 3, size), [rng.random(size), np.zeros(size), np.ones(size)])


@settings(max_examples=300, deadline=None)
@given(quotas=QUOTAS, lead=LEAD, seed=SEEDS)
def test_rs_matches_reference_loop(quotas, lead, seed):
    inst = Instance(tuple(quotas))
    n, m = inst.n, inst.m
    rng = np.random.default_rng(seed)
    fav = random_favorite_pairs(inst, lead, rng)
    p_survive = probabilities(rng, n)
    u = rng.random((*lead, n + m))
    out = rs_assign(p_survive, fav, u)
    assert out.shape == (*lead, m) and out.dtype == np.int64
    for idx in np.ndindex(lead):
        mask = pair_mask(fav, idx, n).tolist()
        assert out[idx].tolist() == reference_rs(p_survive.tolist(), mask, u[idx].tolist())


@settings(max_examples=300, deadline=None)
@given(quotas=QUOTAS, lead=LEAD, seed=SEEDS)
def test_rsbs_matches_reference_loop(quotas, lead, seed):
    inst = Instance(tuple(quotas))
    n, m = inst.n, inst.m
    rng = np.random.default_rng(seed)
    fav = random_favorite_pairs(inst, lead, rng)
    i_star = int(rng.integers(n))
    p1, betas, sigma = probabilities(rng, n), probabilities(rng, n), float(probabilities(rng, 1)[0])
    u = rng.random((*lead, 2 * n + m + 1))
    out = rsbs_assign(i_star, p1, betas, sigma, fav, u)
    assert out.shape == (*lead, m) and out.dtype == np.int64
    for idx in np.ndindex(lead):
        mask = pair_mask(fav, idx, n).tolist()
        expected = reference_rsbs(i_star, p1.tolist(), betas.tolist(), sigma, mask, u[idx].tolist())
        assert out[idx].tolist() == expected


@settings(max_examples=200, deadline=None)
@given(quotas=QUOTAS, lead=LEAD, extra=st.integers(1, 4), seed=SEEDS)
def test_lottery_mechanisms_through_the_registry(quotas, lead, extra, seed):
    """rs and rsbs with their instance parameters: the reference loop's
    output, favorites only, within quotas, and blind to uniforms past the
    layout's draw count."""
    inst = Instance(tuple(quotas))
    rng = np.random.default_rng(seed)
    fav = random_favorite_pairs(inst, lead, rng)
    for spec, reference in ((MechanismSpec.rs(), reference_rs), (MechanismSpec.rsbs(), reference_rsbs)):
        params = mechanism_params(spec, inst)
        u = rng.random((*lead, mechanism_draw_count(spec, inst)))
        out = assign_from_uniforms(spec, params, fav, u)
        wide = np.concatenate([u, rng.random((*lead, extra))], axis=-1)
        assert np.array_equal(assign_from_uniforms(spec, params, fav, wide), out), spec.kind
        for idx in np.ndindex(lead):
            row = out[idx]
            mask = pair_mask(fav, idx, inst.n)
            assert row.tolist() == reference(*params, mask.tolist(), u[idx].tolist()), spec.kind
            held = np.flatnonzero(row != UNASSIGNED)
            assert mask[row[held], held].all(), spec.kind
            assert (np.bincount(row[held], minlength=inst.n) <= inst.quota_array).all(), spec.kind
