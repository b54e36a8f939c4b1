"""Exact maximum-welfare b-matching.

One solver, `_optimal_assignments`, finds an optimal item -> agent
assignment for every matrix of a (batch, n, m) stack in two steps:

1. Column-maximum shortcut, vectorised over the batch.  Give every item with
   a positive value to the agent that values it most (`argmax`, ties to the
   lowest index) and leave the other items unassigned.  If no agent then
   holds more than its quota, that assignment is optimal: sum_g max_i v[i, g]
   bounds every b-matching from above and this one reaches it.  Every
   favorite-bundle profile with lo = 0 and most sparse 0/1 profiles stop here.
2. The remaining trials, one at a time: the assignment routine minimizes
   the reduced cost c[i, g] = colmax[g] - v[i, g] (the column reduction of
   Kuhn's Hungarian method) on the slot-expanded matrix, each agent i
   repeated b_i times (the matrix itself when every quota is 1).  A square
   matching assigns every item once, so its cost is sum_g colmax[g] minus
   its welfare, and in exact arithmetic both objectives pick the same
   matchings.  On c, whose column minima are already 0, a 20x20 solve takes
   about 22% less time than on v with `maximize=True` (2-vCPU Xeon VM).
   c is rounded, so where sums round the two can pick different matchings,
   whose welfare may differ in the last bit.  colmax is free: step 1
   gathered it to find the valued items.  Each solver trial's c is one
   `np.subtract` into the same (n, m) buffer, so a trial that step 1
   settles costs nothing more; the welfare is summed from v.
   Zero rows and columns are not dropped first; they only add zero-value
   pairs, which leave the welfare unchanged.

The engine calls `optimal_values`, the `core.welfare` of those assignments,
once per chunk.  `optimal_value` runs it on a batch of one and
`optimal_matching` completes the batch-of-one assignment to exact quotas, so
every caller runs the engine's code.  The enumeration oracle, the exact
optimum rounded once, shares no code with the solver or `core.fsum_rows`.

The assignment routine is scipy's compiled shortest-augmenting-path solver
(Crouse, "On implementing 2D rectangular assignment algorithms", IEEE TAES
2016).  `linear_sum_assignment` loads it on its first call straight from the
extension module `scipy.optimize._lsap`, without running
`scipy/optimize/__init__.py` and its few hundred submodules: importing
ordmatch loads no scipy module, a run that never reaches step 2 (probability
tables, or favorite-bundle profiles with lo = 0) loads no scipy code at all,
and a solver run leaves `scipy.optimize` out of `sys.modules`.  The function
loaded is the very object `scipy.optimize.linear_sum_assignment` exports.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import UNASSIGNED, Instance, Matching, ValuationProfile, complete_assignment, welfare

BRUTE_FORCE_MAX_ITEMS = 8
OWNER_SLICE_CELLS = 2**15  # 256 KiB of float64 per argmax copy

_scipy_lsap = None


def _scipy_optimize_dir() -> str | None:
    """scipy's `optimize` package directory, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    return os.path.join(spec.submodule_search_locations[0], "optimize")


def _load_lsap():
    """scipy's compiled `linear_sum_assignment`, loaded from the extension
    file `_lsap` with no `sys.modules` entry; the public import when no such
    file exists."""
    directory = _scipy_optimize_dir()
    if directory is not None:
        finder = importlib.machinery.FileFinder(
            directory, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
        )
        spec = finder.find_spec("scipy.optimize._lsap")
        if spec is not None:
            present = spec.name in sys.modules
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            if not present:
                # a single-phase extension registers itself under its full
                # name; without its parent package that entry would be stray
                sys.modules.pop(spec.name, None)
            return module.linear_sum_assignment
    from scipy.optimize import linear_sum_assignment as public

    return public


def linear_sum_assignment(cost: np.ndarray, maximize: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """scipy's linear_sum_assignment, loaded on the first call."""
    global _scipy_lsap
    if _scipy_lsap is None:
        _scipy_lsap = _load_lsap()
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
    # argmax over agents reads each trial through a transposed copy, so it
    # runs on slices of at most OWNER_SLICE_CELLS cells (or one trial)
    owner = np.empty((batch, m), dtype=np.intp)
    step = max(1, OWNER_SLICE_CELLS // (n * m))
    for s in range(0, batch, step):
        values[s : s + step].argmax(axis=1, out=owner[s : s + step])
    colmax = np.take_along_axis(values, owner[:, None], axis=1)
    valued = colmax[:, 0] > 0
    loads = np.bincount((owner + n * np.arange(batch)[:, None])[valued], minlength=batch * n)
    assignment = np.where(valued, owner, UNASSIGNED)
    solve = np.flatnonzero((loads.reshape(batch, n) > inst.quota_array).any(axis=1))
    # the slot-expanded matrix is square (m = sum b_i), so the solver's row
    # indices are 0..m-1 and column cols[row, r] goes to slot r
    slots = np.repeat(np.arange(n), inst.quotas)
    cols = np.empty((solve.size, m), dtype=np.intp)
    cost = np.empty((n, m))
    for row, k in enumerate(solve.tolist()):
        c = np.subtract(colmax[k], values[k], out=cost)
        cols[row] = linear_sum_assignment(c if m == n else c[slots])[1]
    assignment[solve[:, None], cols] = slots
    return assignment


def optimal_values(inst: Instance, values: np.ndarray) -> np.ndarray:
    """Maximum social welfare of each matrix in a (batch, n, m) stack."""
    values = np.asarray(values, dtype=np.float64)
    return welfare(values, _optimal_assignments(inst, values))


def optimal_value(inst: Instance, values: np.ndarray) -> float:
    """Maximum social welfare of one (n, m) value matrix, checked as a
    `ValuationProfile` (shape, finite, nonnegative)."""
    return float(optimal_values(inst, ValuationProfile(inst, values).values[None])[0])


def optimal_matching(inst: Instance, profile: ValuationProfile) -> OptResult:
    """Maximum-welfare matching with every item assigned (zero-value fills
    are allowed and never change the value)."""
    if profile.instance != inst:
        raise ValueError("profile belongs to a different instance")
    assignment = _optimal_assignments(inst, profile.values[None])[0]
    matching = Matching(complete_assignment(assignment, inst))
    return OptResult(matching=matching, value=float(welfare(profile.values, matching.assignment)))


def brute_force_opt(inst: Instance, profile: ValuationProfile) -> float:
    """The exact maximum welfare, rounded once; m <= 8 only.  The distinct
    orderings of the slot vector (agent i repeated b_i times) are the
    complete matchings, `math.fsum` rounds each one's welfare once, and
    rounding is monotone."""
    if profile.instance != inst:
        raise ValueError("profile belongs to a different instance")
    if inst.m > BRUTE_FORCE_MAX_ITEMS:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_MAX_ITEMS} items, got {inst.m}")
    rows = profile.values.tolist()
    slots = [i for i, b in enumerate(inst.quotas) for _ in range(b)]
    try:
        return max(math.fsum(rows[i][g] for g, i in enumerate(owners)) for owners in set(permutations(slots)))
    except OverflowError:  # fsum's running sum left float64
        raise ValueError("values too large: a welfare sum leaves float64") from None
