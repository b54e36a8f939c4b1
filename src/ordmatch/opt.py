"""Exact maximum-welfare b-matching.

One solver, `_optimal_assignments`, finds an optimal item -> agent
assignment for every matrix of a (batch, n, m) stack in two steps:

1. Column-maximum shortcut, vectorised over the batch.  Give every item with
   a positive value to the agent that values it most (`argmax`, ties to the
   lowest index) and leave the other items unassigned.  If no agent then
   holds more than its quota, that assignment is optimal: sum_g max_i v[i, g]
   bounds every b-matching from above and this one reaches it.  Every
   favorite-bundle profile with lo = 0 and most sparse 0/1 profiles stop here.
2. The remaining trials, one at a time: the assignment routine on the
   slot-expanded matrix, each agent i repeated b_i times (the matrix itself
   when every quota is 1).  Zero rows and columns are not dropped first;
   they only add zero-value pairs, which leave the welfare unchanged.

The engine calls `optimal_values`, the `core.welfare` of those assignments,
once per chunk.  `optimal_value` runs it on a batch of one and
`optimal_matching` completes the batch-of-one assignment to exact quotas, so
every caller runs the engine's code.  A tiny enumeration oracle, kept for
cross-validation, shares no code with the solver.

scipy's assignment routine is imported on first use, by
`linear_sum_assignment`: importing ordmatch loads no scipy module, and
neither does a run that never reaches step 2 (probability tables, or
favorite-bundle profiles with lo = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import UNASSIGNED, Instance, Matching, ValuationProfile, complete_assignment, welfare

BRUTE_FORCE_MAX_ITEMS = 8

_scipy_lsap = None


def linear_sum_assignment(cost: np.ndarray, maximize: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """scipy.optimize.linear_sum_assignment, imported on the first call."""
    global _scipy_lsap
    if _scipy_lsap is None:
        from scipy.optimize import linear_sum_assignment as _scipy_lsap
    return _scipy_lsap(cost, maximize=maximize)


@dataclass(frozen=True, eq=False)
class OptResult:
    matching: Matching
    value: float


def _optimal_assignments(inst: Instance, values: np.ndarray) -> np.ndarray:
    """Maximum-welfare (batch, m) item -> agent assignments of a (batch, n, m)
    stack; an item no agent values may stay UNASSIGNED."""
    n, m = inst.n, inst.m
    if values.ndim != 3 or values.shape[1:] != (n, m):
        raise ValueError(f"expected a (batch, {n}, {m}) value stack, got shape {values.shape}")
    batch = values.shape[0]
    owner = values.argmax(axis=1)
    valued = values.max(axis=1) > 0
    loads = np.bincount((owner + n * np.arange(batch)[:, None])[valued], minlength=batch * n)
    assignment = np.where(valued, owner, UNASSIGNED)
    slots = np.repeat(np.arange(n), inst.quotas)
    for k in np.flatnonzero((loads.reshape(batch, n) > inst.quota_array).any(axis=1)).tolist():
        v = values[k]
        r_idx, c_idx = linear_sum_assignment(v if m == n else v[slots], maximize=True)
        assignment[k, c_idx] = slots[r_idx]
    return assignment


def optimal_values(inst: Instance, values: np.ndarray) -> np.ndarray:
    """Maximum social welfare of each matrix in a (batch, n, m) stack."""
    values = np.asarray(values, dtype=np.float64)
    return welfare(values, _optimal_assignments(inst, values))


def optimal_value(inst: Instance, values: np.ndarray) -> float:
    """Maximum social welfare of one (n, m) value matrix."""
    return float(optimal_values(inst, np.asarray(values)[None])[0])


def optimal_matching(inst: Instance, profile: ValuationProfile) -> OptResult:
    """Maximum-welfare matching with every item assigned (zero-value fills
    are allowed and never change the value)."""
    if profile.instance != inst:
        raise ValueError("profile belongs to a different instance")
    assignment = _optimal_assignments(inst, profile.values[None])[0]
    matching = Matching(complete_assignment(assignment, inst))
    return OptResult(matching=matching, value=float(welfare(profile.values, matching.assignment)))


def brute_force_opt(inst: Instance, profile: ValuationProfile) -> float:
    """Exhaustive maximum over all complete matchings; m <= 8 only."""
    if profile.instance != inst:
        raise ValueError("profile belongs to a different instance")
    m = inst.m
    if m > BRUTE_FORCE_MAX_ITEMS:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_MAX_ITEMS} items, got {m}")
    values = profile.values
    residual = list(inst.quotas)
    n = inst.n
    best = 0.0

    def recurse(item: int, acc: float) -> None:
        nonlocal best
        if item == m:
            if acc > best:
                best = acc
            return
        for agent in range(n):
            if residual[agent] == 0:
                continue
            residual[agent] -= 1
            recurse(item + 1, acc + values[agent, item])
            residual[agent] += 1

    recurse(0, 0.0)
    return best
