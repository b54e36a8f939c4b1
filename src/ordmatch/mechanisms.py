"""The ordinal assignment mechanisms.

Every mechanism observes only the agents' favorite sets (the top-quota slice
of each ranking) plus its own coin flips; rankings are accepted as input so
callers can measure rank-indexed assignment probabilities.

The kernels read the favorite sets as a pair table: per trial, the m
(item, agent) favorite pairs sorted by item and then by agent, decoded once
per chunk by `core.favorite_pairs`.  Item g's demanders are then one
contiguous run of the table, which every kernel reduces with flat
bincount/cumsum/minimum passes over m pairs instead of n * m mask cells.

Each mechanism is defined once, in the private `_MECHANISMS` registry, and
the public lookups below read only that table.  The kernels are pure functions
of a pre-drawn uniform block with arbitrary leading batch dimensions, so the
Monte Carlo engine and the one one-shot path, `run_mechanism` (draw the block,
run the kernel on a batch of one), share a single implementation.  A block is
consumed in a fixed layout, which is part of the reproducibility contract:

    survivor lottery (rs):   u_survive (n), u_pick (m)
    burn/steal (rsbs):       u_survive (n), u_pick (m), u_burn (n), u_steal (1)
    highest-quota-last:      u_activate (n), consumed in processing order
    secretary variant:       u_survive (n), u_order (n)
    serial dictator:         no draws

u_pick holds one uniform per item regardless of demand, and u_survive/u_burn
one per agent regardless of eligibility, so the layout never depends on the
realized preferences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import analytics
from .core import (
    UNASSIGNED,
    Instance,
    Matching,
    PreferenceProfile,
    check_bool,
    check_int,
    complete_matching,
    favorite_pairs,
)

PROB_SANITY_TOL = 1e-9


@dataclass(frozen=True)
class MechanismSpec:
    kind: str
    complete: bool = False
    order: tuple[int, ...] | None = None  # serial-dictator pick order

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        object.__setattr__(self, "complete", check_bool(self.complete, "complete"))
        if self.order is not None:
            object.__setattr__(self, "order", tuple(check_int(i, f"order[{k}]", 0) for k, i in enumerate(self.order)))
            if not _MECHANISMS[self.kind].takes_order:
                raise ValueError(f"{self.kind} does not take an agent order")

    @classmethod
    def rs(cls, complete: bool = False) -> "MechanismSpec":
        return cls("rs", complete=complete)

    @classmethod
    def rsbs(cls, complete: bool = False) -> "MechanismSpec":
        return cls("rsbs", complete=complete)

    @classmethod
    def hql(cls, complete: bool = False) -> "MechanismSpec":
        return cls("hql", complete=complete)

    @classmethod
    def secretary_rs(cls, complete: bool = False) -> "MechanismSpec":
        return cls("secretary-rs", complete=complete)

    @classmethod
    def serial_dictator(cls, order: Sequence[int] | None = None, complete: bool = False) -> "MechanismSpec":
        return cls("serial-dictator", complete=complete, order=order)

    def label(self) -> str:
        """Stable tag naming every field, used in CSV output and error messages."""
        args = [] if self.order is None else ["|".join(str(i) for i in self.order)]
        if self.complete:
            args.append("complete")
        return f"{self.kind}({','.join(args)})" if args else self.kind


def _validate_order(order: Sequence[int] | None, n: int) -> np.ndarray:
    """A pick order as an array; None stands for the identity order."""
    arr = np.arange(n) if order is None else np.asarray(order, dtype=np.int64)
    if arr.shape != (n,) or not np.array_equal(np.sort(arr), np.arange(n)):
        raise ValueError(f"order must be a permutation of the {n} agents")
    return arr


def _checked_probability(value: float, what: str) -> float:
    """Clamp a computed coin probability into [0, 1], failing loudly if it
    sits outside by more than the sanity tolerance (an analytics bug)."""
    if not -PROB_SANITY_TOL <= value < 1.0 + PROB_SANITY_TOL:
        raise AssertionError(f"{what} = {value!r} falls outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def survivor_probs(inst: Instance) -> np.ndarray:
    return np.array([analytics.survivor_prob(b, inst.m) for b in inst.quotas])


def max_quota_agent(inst: Instance) -> int:
    """Lowest-indexed agent with maximum quota (the deterministic tie rule)."""
    return int(np.argmax(inst.quota_array))


def rsbs_parameters(inst: Instance) -> tuple[int, np.ndarray, np.ndarray, float]:
    """(i_star, phase-1 survival probs with i_star excluded, burn probs, steal prob)."""
    i_star = max_quota_agent(inst)
    p1 = survivor_probs(inst)
    p1[i_star] = -1.0  # the set-aside agent never survives phase 1
    betas = np.zeros(inst.n)
    for i in range(inst.n):
        if i == i_star:
            continue
        betas[i] = _checked_probability(
            analytics.burning_prob(inst, i, i_star), f"burn probability for agent {i}"
        )
    if inst.b_max == inst.m:
        sigma = 0.0  # phase 3 has nobody to steal from
    else:
        sigma = _checked_probability(analytics.stealing_prob(inst.b_max, inst.m), "steal probability")
    return i_star, p1, betas, sigma


def hql_parameters(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Processing order (a max-quota agent swapped into the last slot) and the
    per-position activation probabilities m / (2m - b_last - sum of earlier quotas)."""
    n, m = inst.n, inst.m
    order = list(range(n))
    i_star = max_quota_agent(inst)
    order[i_star], order[-1] = order[-1], order[i_star]
    b_seq = [inst.quotas[j] for j in order]
    b_last = b_seq[-1]
    probs = np.empty(n)
    prefix = 0
    for pos in range(n):
        probs[pos] = m / (2 * m - b_last - prefix)
        prefix += b_seq[pos]
    return np.array(order, dtype=np.int64), probs


# --- pure assignment kernels (leading batch dimensions allowed) -------------


def rs_assign(p_survive: np.ndarray, fav: tuple, u: np.ndarray) -> np.ndarray:
    """Survivor lottery: each item with surviving demand goes to a uniformly
    random surviving agent whose favorite it is.

    Item g's surviving demanders are one run, in agent order, of the
    surviving pairs; the winner is entry start[g] + pick - 1 of them."""
    n = p_survive.shape[-1]
    agent, cell, slot, shape = fav
    m = shape[-1]
    alive = (u[..., :n] < p_survive).reshape(-1)[slot]
    count = np.bincount(cell[alive], minlength=cell.size)
    start = np.cumsum(count) - count
    pick = (u[..., n : n + m].reshape(-1) * count).astype(np.int64) + 1  # 1-based rank among demanders
    survivors = np.append(agent[alive], UNASSIGNED)  # the sentinel keeps undemanded items in range
    winner = np.where(count > 0, survivors[start + pick - 1], UNASSIGNED)
    return winner.reshape(shape)


def rsbs_assign(
    i_star: int,
    p_survive_phase1: np.ndarray,
    betas: np.ndarray,
    sigma: float,
    fav: tuple,
    u: np.ndarray,
) -> np.ndarray:
    """Three phases: survivor lottery without i_star, independent whole-bundle
    burns, then i_star takes each of its favorites that is free, or that
    anyone holds when the one sigma steal coin fires."""
    n = betas.shape[-1]
    agent, cell, _, shape = fav
    m = shape[-1]
    phase1 = rs_assign(p_survive_phase1, fav, u)

    burn = u[..., n + m : 2 * n + m] < betas
    assigned = phase1 >= 0
    holder = np.where(assigned, phase1, 0)
    burnt = np.take_along_axis(burn, holder, axis=-1) & assigned
    phase2 = np.where(burnt, UNASSIGNED, phase1)

    fav_star = np.zeros(shape, dtype=bool)
    fav_star.reshape(-1)[cell[agent == i_star]] = True
    steal = np.asarray(u[..., 2 * n + m] < sigma)[..., None]
    return np.where(fav_star & ((phase2 < 0) | steal), i_star, phase2).astype(np.int64)


def one_pass_assign(order: np.ndarray, active: np.ndarray, fav: tuple) -> np.ndarray:
    """Visit the agents in `order`, one fixed (n,) order or one (..., n) order
    per trial; the agent at position pos, when active[..., pos], irrevocably
    takes every still-available favorite.  So each item goes to the active
    demander visited first."""
    n = order.shape[-1]
    _, cell, slot, shape = fav
    lead = shape[:-1]
    order = np.broadcast_to(order, (*lead, n))
    # visit position of each agent; an inactive agent sits at n, after everyone
    position = np.empty((*lead, n), dtype=np.int64)
    np.put_along_axis(position, order, np.where(active, np.arange(n), n), axis=-1)
    first_visit = np.full(shape, n, dtype=np.int64)
    np.minimum.at(first_visit.reshape(-1), cell, position.reshape(-1)[slot])
    winner = np.take_along_axis(order, np.minimum(first_visit, n - 1), axis=-1)
    return np.where(first_visit < n, winner, UNASSIGNED).astype(np.int64)


def _hql_assign(order: np.ndarray, p_activate: np.ndarray, fav: tuple, u: np.ndarray) -> np.ndarray:
    """Highest quota last: one pass over a fixed order, the agent at position
    pos activated by its own coin u_activate[pos]."""
    return one_pass_assign(order, u[..., : order.shape[0]] < p_activate, fav)


def _secretary_assign(p_survive: np.ndarray, fav: tuple, u: np.ndarray) -> np.ndarray:
    """Survivor lottery visited in a uniformly random agent order; a visited
    survivor takes every still-available favorite."""
    n = p_survive.shape[-1]
    survive = u[..., :n] < p_survive
    order = np.argsort(u[..., n : 2 * n], axis=-1)
    return one_pass_assign(order, np.take_along_axis(survive, order, axis=-1), fav)


def _serial_assign(order: np.ndarray, fav: tuple, u: np.ndarray) -> np.ndarray:
    """Deterministic one-pass baseline: each agent in turn takes every
    still-available favorite with certainty."""
    return one_pass_assign(order, np.ones(order.shape, dtype=bool), fav)


# --- the registry -------------------------------------------------------------


@dataclass(frozen=True)
class _Mechanism:
    """One mechanism's whole definition.  The kernel is called as
    `assign(*params(spec, inst), fav, u)`: fav is the decoded favorite pair
    table of core.favorite_pairs, u has shape (..., draw_count(n, m)), and
    it returns (..., m) item holders."""

    draw_count: Callable[[int, int], int]
    params: Callable[[MechanismSpec, Instance], tuple]
    assign: Callable[..., np.ndarray]
    q_exact: Callable[[MechanismSpec, Instance], list[float]]
    takes_order: bool = False


def _survivor_q_exact(spec: MechanismSpec, inst: Instance) -> list[float]:
    return [analytics.rs_q_exact(inst, i) for i in range(inst.n)]


_MECHANISMS: dict[str, _Mechanism] = {
    "rs": _Mechanism(
        draw_count=lambda n, m: n + m,
        params=lambda spec, inst: (survivor_probs(inst),),
        assign=rs_assign,
        q_exact=_survivor_q_exact,
    ),
    "rsbs": _Mechanism(
        draw_count=lambda n, m: n + m + n + 1,
        params=lambda spec, inst: rsbs_parameters(inst),
        assign=rsbs_assign,
        q_exact=lambda spec, inst: [analytics.rsbs_q_exact(inst)] * inst.n,
    ),
    "hql": _Mechanism(
        draw_count=lambda n, m: n,
        params=lambda spec, inst: hql_parameters(inst),
        assign=_hql_assign,
        q_exact=lambda spec, inst: [analytics.hql_q(inst)] * inst.n,
    ),
    "secretary-rs": _Mechanism(
        draw_count=lambda n, m: 2 * n,
        params=lambda spec, inst: (survivor_probs(inst),),
        assign=_secretary_assign,
        q_exact=_survivor_q_exact,  # visiting order does not change the marginals
    ),
    "serial-dictator": _Mechanism(
        draw_count=lambda n, m: 0,
        params=lambda spec, inst: (_validate_order(spec.order, inst.n),),
        assign=_serial_assign,
        q_exact=lambda spec, inst: [
            analytics.serial_dictator_q_exact(inst, _validate_order(spec.order, inst.n), i)
            for i in range(inst.n)
        ],
        takes_order=True,
    ),
}

KINDS = tuple(_MECHANISMS)


def mechanism_draw_count(spec: MechanismSpec, inst: Instance) -> int:
    """Uniforms one run consumes (the fixed layout size)."""
    return _MECHANISMS[spec.kind].draw_count(inst.n, inst.m)


def mechanism_params(spec: MechanismSpec, inst: Instance) -> tuple:
    """Precompute the per-instance constants a mechanism consumes."""
    return _MECHANISMS[spec.kind].params(spec, inst)


def validate_for_instance(spec: MechanismSpec, inst: Instance) -> None:
    """Refuse a spec that cannot run on `inst`, computing no parameters: the
    only such spec is a pick order that is not a permutation of its agents."""
    if spec.order is not None:
        _validate_order(spec.order, inst.n)


def assign_from_uniforms(spec: MechanismSpec, params: tuple, fav: tuple, u: np.ndarray) -> np.ndarray:
    """Run a mechanism from a pre-drawn uniform block (layout above).

    `params` must come from mechanism_params(spec, inst), `fav` is
    core.favorite_pairs of that instance's rankings, and `u` has shape
    (..., mechanism_draw_count) with the same leading shape.
    """
    return _MECHANISMS[spec.kind].assign(*params, fav, u)


def q_exact_per_agent(spec: MechanismSpec, inst: Instance) -> list[float]:
    """Closed-form probability that each agent receives any one favorite item."""
    return _MECHANISMS[spec.kind].q_exact(spec, inst)


def run_mechanism(
    spec: MechanismSpec, inst: Instance, prefs: PreferenceProfile, gen: np.random.Generator
) -> Matching:
    """Run one mechanism once: draw its uniform block from `gen`, run the
    batched kernel on a batch of one, and apply the optional quota-filling
    post-pass.  Bit-identical to the same trial inside the batched engine."""
    if prefs.instance != inst:
        raise ValueError("preference profile was derived for a different instance")
    params = mechanism_params(spec, inst)
    u = gen.random(mechanism_draw_count(spec, inst))
    fav = favorite_pairs(prefs.rankings[None], inst.quotas)
    assignment = assign_from_uniforms(spec, params, fav, u[None])
    matching = Matching(assignment[0])
    if spec.complete:
        matching = complete_matching(matching, inst)
    return matching
