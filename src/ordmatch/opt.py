"""Exact maximum-welfare b-matching.

The engine calls `optimal_values` once per chunk on a (batch, n, m) stack of
value matrices.  It works in three steps:

1. Column-maximum shortcut, vectorised over the batch.  Give every item with
   a positive value to the agent that values it most (`argmax`, ties to the
   lowest index).  If no agent then holds more than its quota, that
   assignment is optimal: sum_g max_i v[i, g] bounds every b-matching from
   above and this one reaches it.  Every favorite-bundle profile with lo = 0
   and most sparse 0/1 profiles stop here.
2. The remaining trials, one at a time: the assignment routine on the
   slot-expanded matrix, each agent i repeated b_i times (the matrix itself
   when every quota is 1).  Zero rows and columns are not dropped first;
   they only add zero-value pairs, which leave the sum unchanged.
3. One `math.fsum` per trial over the item -> value row.  Items that get no
   positive value contribute an exact zero, so each value is bitwise the
   fsum of the positive entries chosen.

`optimal_value` is `optimal_values` on a batch of one, so the one-shot API
and the engine run the same code.  `optimal_matching` also returns the
matching, completed to exact quotas; it solves through `_solve_assignment`,
which drops all-zero rows and columns first and leaves their items to the
completion step.  A tiny enumeration oracle is kept alongside for
cross-validation and never shares code with the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import UNASSIGNED, Instance, Matching, ValuationProfile, complete_matching, social_welfare

BRUTE_FORCE_MAX_ITEMS = 8


@dataclass(frozen=True, eq=False)
class OptResult:
    matching: Matching
    value: float


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


def optimal_values(inst: Instance, values: np.ndarray) -> np.ndarray:
    """Maximum social welfare of each matrix in a (batch, n, m) stack."""
    values = np.asarray(values, dtype=np.float64)
    n, m = inst.n, inst.m
    if values.ndim != 3 or values.shape[1:] != (n, m):
        raise ValueError(f"expected a (batch, {n}, {m}) value stack, got shape {values.shape}")
    batch = values.shape[0]
    picked = values.max(axis=1)  # column maxima, overwritten below where infeasible
    owner = values.argmax(axis=1) + n * np.arange(batch)[:, None]
    loads = np.bincount(owner[picked > 0], minlength=batch * n).reshape(batch, n)
    hard = np.flatnonzero((loads > inst.quota_array).any(axis=1))
    if hard.size:
        slots = np.repeat(np.arange(n), inst.quotas)
        picked[hard] = 0.0
        for k in hard.tolist():
            v = values[k]
            r_idx, c_idx = linear_sum_assignment(v if m == n else v[slots], maximize=True)
            picked[k, c_idx] = v[slots[r_idx], c_idx]
    return np.array([math.fsum(row) for row in picked.tolist()])


def optimal_value(inst: Instance, values: np.ndarray) -> float:
    """Maximum social welfare of one (n, m) value matrix."""
    return float(optimal_values(inst, np.asarray(values)[None])[0])


def optimal_matching(inst: Instance, profile: ValuationProfile) -> OptResult:
    """Maximum-welfare matching with every item assigned (zero-value fills
    are allowed and never change the value)."""
    if profile.instance != inst:
        raise ValueError("profile belongs to a different instance")
    assignment = _solve_assignment(inst, profile.values)
    matching = complete_matching(Matching(assignment), inst)
    return OptResult(matching=matching, value=social_welfare(matching, profile))


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
