"""Monte Carlo engine: distortion estimates, per-(agent, rank) assignment
probabilities, and the Theorem 1 replay (the benchmark calls it).  A gap
ratio is one division by `analytics.benchmark_lower_bound`, which callers
such as `ordmatch run` make themselves.

Reproducibility contract: trial t draws every uniform it needs, in one fixed
layout (sample block, tie-tag block, mechanism block), from
RandomStream(seed, t).  Per-trial results are reduced in ascending trial
order with correctly rounded summation (`core.fsum_rows`: an exact int64 sum
where every term lies on one power-of-two grid, math.fsum otherwise), so
reports are bitwise identical no matter how trials are chunked or how many
worker processes run them.

RandomStream is counter-based (Philox), so a longer fill of trial t's stream
begins with exactly the draws of a shorter one.  That prefix property lets
`estimate_distortions` run several mechanisms on the same trials: it fills
one block as wide as the hungriest mechanism's layout, draws the profile,
ranking and exact optimum once, and hands each mechanism its own layout's
prefix of the mechanism block.  Each report is bitwise equal to the one
`estimate_distortion` returns for that mechanism alone.  `ordmatch run` makes
one such call per (instance, distribution) pair, so all of its mechanisms
are scored on the same trials.  `uf_audit` runs on the same chunks with no
mechanism block: audit trial t draws estimator trial t's profile and tags.

Trials are executed in vectorized chunks sized from a fixed byte budget
(CHUNK_BYTES over `_trial_bytes`, a per-trial bound on everything a chunk
holds at its peak), so a chunk of more than one trial stays within that
budget whatever the instance; an instance whose single trial would exceed
MAX_TRIAL_BYTES is refused with a ValueError before anything is allocated.
The chunks of one call run in order against one uniform-block buffer that
each chunk refills (one contiguous group of chunks, and one buffer, per
worker process), so chunks do not refault fresh pages; nothing outlives the
call.  A chunk maps its values inside the block's sample region and ranks,
solves and scores them there, so it builds no other (batch, n, m) copy and
the block is the largest array it holds.
`_reference_trials` recomputes the same trials one at a time through the
public single-run API; the test suite pins the two paths together on it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import combinations, repeat

import numpy as np

from . import distributions, mechanisms, opt
from .core import (
    Instance,
    RandomStream,
    check_int,
    complete_assignment,
    derive_preferences,
    favorite_pairs,
    fsum_rows,
    top_items,
    welfare,
)
from .distributions import DistributionSpec
from .mechanisms import MechanismSpec

WILSON_Z = 3.0

# chunk sizing, see _batch_size.  6.25 MiB over _trial_bytes holds a small
# instance's chunk to about 4 MiB, one L2 cache on the 2-vCPU VM it was tuned
# on, and gives one-to-one n=50 73-trial chunks (46-trial ones ran 8% slower).
CHUNK_BYTES = 25 * 2**18
MAX_TRIAL_BYTES = 2**30

UF_AUDIT_MAX_ITEMS = 12


# --- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class EstimateReport:
    mean_opt: float
    mean_sw: float
    distortion_estimate: float
    stderr_opt: float
    stderr_sw: float
    stderr_ratio: float
    trials: int
    seed: int


@dataclass(frozen=True, eq=False)
class ProbMatrixReport:
    """Empirical assignment frequencies: q_hat[i][t] is the fraction of trials
    in which agent i received their rank-(t+1) item, hits[i][t] the count of
    those trials, and count_sumsq[i] the sum over trials of the square of
    agent i's favorite count (how many of their top b_i items they got)."""

    q_hat: tuple[np.ndarray, ...]
    half_width: tuple[np.ndarray, ...]
    hits: tuple[np.ndarray, ...]
    count_sumsq: tuple[int, ...]
    trials: int
    seed: int


@dataclass(frozen=True)
class OneToOneReplayReport:
    mean_opt: float
    mean_sw: float
    ratio: float
    stderr_opt: float
    stderr_sw: float
    opt_floor: float
    sw_ceiling: float
    trials: int
    seed: int


@dataclass(frozen=True, eq=False)
class AgentAudit:
    agent: int
    subsets: tuple[tuple[int, ...], ...]
    counts: np.ndarray
    expected: float
    chi2_stat: float
    dof: int
    p_value: float


@dataclass(frozen=True)
class UFAuditReport:
    per_agent: tuple[AgentAudit, ...]
    trials: int

    def min_p_value(self) -> float:
        return min(a.p_value for a in self.per_agent)


# --- engine -------------------------------------------------------------------


def _trial_bytes(inst: Instance) -> int:
    """Upper bound, over every distribution kind and mechanism, on the bytes
    one trial holds at the peak of a chunk, from the instance alone; counted
    in 8-byte cells:
    - the uniform block: at most nm sample, nm tag and 2n + m + 1 mechanism
      uniforms under every layout, with the values mapped in place;
    - two (n, m) arrays while ranking or mapping: `top_items`' lexsort key
      and order (its depth-1 pass holds one key and a boolean mask), or an
      argsort kind's order and the values gathered by it; the OPT owner
      pass copies at most one;
    - m more for single-agent-adversarial, whose (n, m) value matrix stands
      for a sample block of at most m draws;
    - 10 (n + m) for the per-trial rows of the ranking table, the favorite
      pairs, the kernels and the chunk's own tallies.
    `estimate_distortions` holds one (m,) assignment per mechanism on top."""
    n, m = inst.n, inst.m
    return 8 * (4 * n * m + 2 * n + 2 * m + 1 + 10 * (n + m))


def _batch_size(inst: Instance) -> int:
    """Trials per chunk: as many as CHUNK_BYTES holds, and at least one.
    Raises ValueError, before anything is allocated, when one trial alone
    would exceed MAX_TRIAL_BYTES."""
    per_trial = _trial_bytes(inst)
    if per_trial > MAX_TRIAL_BYTES:
        raise ValueError(
            f"one trial at n={inst.n}, m={inst.m} needs about {per_trial} bytes, "
            f"over the {MAX_TRIAL_BYTES}-byte limit"
        )
    return max(1, CHUNK_BYTES // per_trial)


def _trial_layout(
    mechs: tuple[MechanismSpec, ...], dist: DistributionSpec, inst: Instance
) -> tuple[int, int, int]:
    """Sample, tag and mechanism draw counts of one trial; the mechanism
    block is as wide as the largest layout among `mechs` (empty for none)."""
    d_sample = distributions.sample_draw_count(dist, inst)
    d_tags = inst.n * inst.m
    d_mech = max((mechanisms.mechanism_draw_count(mech, inst) for mech in mechs), default=0)
    return d_sample, d_tags, d_mech


def _fill_trial_blocks(seed: int, t0: int, out: np.ndarray) -> np.ndarray:
    """Fill the uniform block of trials [t0, t0 + len(out)) into `out` and
    return it: row k holds the out.shape[1] draws of RandomStream(seed, t0+k).
    Implemented by resetting one Philox bit generator to the fresh state of
    key (seed, t) per trial, which is bit-identical to constructing a fresh
    generator per trial but much cheaper.  The state is one dict of plain
    lists, of which only the stream word changes; the setter copies it."""
    bit_gen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bit_gen)
    key = [seed, t0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0] * 4, "key": key},
        "buffer": [0] * 4,
        "buffer_pos": 4,  # no buffered words
        "has_uint32": 0,
        "uinteger": 0,
    }
    random = gen.random
    for t, row in enumerate(out, t0):
        key[1] = t
        bit_gen.state = state
        random(out=row)
    return out


def _chunk_arrays(task: tuple, block: np.ndarray, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Values, top-of-ranking tables and one assignment per mechanism for
    trials [t0, t1) of `task` = (mechs, dist, inst, params, seed), drawn into
    the first t1 - t0 rows of the call's uniform `block`.  Every mechanism
    runs on the same profiles and rankings, reading its own layout's prefix
    of the mechanism block and the one favorite pair table decoded for the
    chunk, which a chunk without mechanisms never builds.  The ranking table
    covers ranks up to the largest quota, all any caller inspects.  The
    values are mapped in place, so except under single-agent-adversarial
    they are a view of `block`, valid until the next chunk refills it; the
    ranking table and the assignments are new arrays, and no chunk result is
    a view of `block`."""
    mechs, dist, inst, params, seed = task
    n, m = inst.n, inst.m
    d_sample, d_tags, _ = _trial_layout(mechs, dist, inst)
    batch = t1 - t0
    block = _fill_trial_blocks(seed, t0, block[:batch])
    values = distributions.values_from_uniforms(dist, inst, block[:, :d_sample])
    tags = block[:, d_sample : d_sample + d_tags].reshape(batch, n, m)
    top = top_items(values, tags, inst.b_max)
    fav = favorite_pairs(top, inst.quotas) if mechs else None
    start = d_sample + d_tags
    assignments = [
        mechanisms.assign_from_uniforms(
            mech, p, fav, block[:, start : start + mechanisms.mechanism_draw_count(mech, inst)]
        )
        for mech, p in zip(mechs, params)
    ]
    return values, top, assignments


def _distortion_chunk(task: tuple, block: np.ndarray, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
    """(M, batch) welfare of each of the task's M mechanisms and the (batch,)
    optimum, which is solved once for all of them."""
    mechs, _, inst, _, _ = task
    values, _, assignments = _chunk_arrays(task, block, t0, t1)
    opt_vals = opt.optimal_values(inst, values)
    sw = np.empty((len(mechs), t1 - t0))
    for k, (mech, assignment) in enumerate(zip(mechs, assignments)):
        if mech.complete:
            assignment = complete_assignment(assignment, inst)
        sw[k] = welfare(values, assignment)
        worst = np.flatnonzero(sw[k] > opt_vals)
        if worst.size:
            j = int(worst[0])
            raise AssertionError(
                f"{mech.label()} trial {t0 + j}: mechanism welfare {float(sw[k, j])!r} "
                f"exceeds optimum {float(opt_vals[j])!r}"
            )
    return sw, opt_vals


def _probs_chunk(task: tuple, block: np.ndarray, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, b_max) counts of trials in which agent i got their rank-(t+1)
    item, zero past rank b_i, and the (n,) sums over trials of each agent's
    squared favorite count."""
    inst = task[2]
    _, top, (assignment,) = _chunk_arrays(task, block, t0, t1)
    favorite = np.arange(inst.b_max) < inst.quota_array[:, None]
    owner = np.take_along_axis(assignment[:, None, :], top, axis=-1)
    got = (owner == np.arange(inst.n)[:, None]) & favorite
    count = got.sum(axis=-1, dtype=np.int64)
    return got.sum(axis=0, dtype=np.int64), (count * count).sum(axis=0)


def _audit_chunk(cells: np.ndarray, task: tuple, block: np.ndarray, t0: int, t1: int) -> np.ndarray:
    """Counts over the flat range of every agent's favorite subsets: each
    trial adds one to cells[i, mask] per agent i, where mask has a bit set
    for each of agent i's top b_i items."""
    inst = task[2]
    _, top, _ = _chunk_arrays(task, block, t0, t1)
    favorite = np.arange(inst.b_max) < inst.quota_array[:, None]
    masks = np.where(favorite, np.left_shift(1, top, dtype=np.int64), 0).sum(axis=-1)
    return np.bincount(cells[np.arange(inst.n), masks].ravel(), minlength=int(cells.max()) + 1)


def _plan(trials: int, batch: int) -> list[tuple[int, int]]:
    return [(t0, min(t0 + batch, trials)) for t0 in range(0, trials, batch)]


def _run_group(fn, task: tuple, ranges: list[tuple[int, int]]) -> list:
    """Run `fn` over a contiguous group of chunks, in order, against one
    workspace: a uniform block with rows for the group's largest chunk, which
    every chunk refills.  Reusing it spares each chunk the page faults of a
    fresh allocation; it is released when the group ends."""
    mechs, dist, inst, _, _ = task
    block = np.empty((max(t1 - t0 for t0, t1 in ranges), sum(_trial_layout(mechs, dist, inst))))
    return [fn(task, block, t0, t1) for t0, t1 in ranges]


def _validated(
    mechs: tuple[MechanismSpec, ...], dist: DistributionSpec, inst: Instance, trials: int, seed: int
) -> tuple:
    """The parameters of each mechanism, after checking the call."""
    check_int(trials, "trials", 1)
    RandomStream(seed)  # the seed's own check
    distributions.validate_for_instance(dist, inst)
    return tuple(mechanisms.mechanism_params(mech, inst) for mech in mechs)


def _map_chunks(
    fn,
    mechs: tuple[MechanismSpec, ...],
    dist: DistributionSpec,
    inst: Instance,
    trials: int,
    seed: int,
    workers: int,
) -> list:
    """`fn` over every chunk of the call's plan, results in chunk order; an
    oversized trial is refused first.  Serially the chunks run as one group;
    with more workers, they are cut into at most `workers` contiguous groups,
    and the pool starts one process per group."""
    check_int(workers, "workers", 1)
    batch = _batch_size(inst)
    task = (mechs, dist, inst, _validated(mechs, dist, inst, trials, seed), seed)
    ranges = _plan(trials, batch)
    groups = min(workers, len(ranges))
    if groups <= 1:
        return _run_group(fn, task, ranges)
    from concurrent.futures import ProcessPoolExecutor  # imported here to keep multiprocessing off serial runs

    size = -(-len(ranges) // groups)
    parts = [ranges[k : k + size] for k in range(0, len(ranges), size)]
    with ProcessPoolExecutor(max_workers=len(parts)) as pool:
        return [r for group in pool.map(_run_group, repeat(fn), repeat(task), parts) for r in group]


def _collect_distortion(
    mechs: tuple[MechanismSpec, ...],
    dist: DistributionSpec,
    inst: Instance,
    trials: int,
    seed: int,
    workers: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(M, trials) welfare of each mechanism and the (trials,) optimum."""
    parts = _map_chunks(_distortion_chunk, mechs, dist, inst, trials, seed, workers)
    sw = np.concatenate([p[0] for p in parts], axis=1)
    opt_vals = np.concatenate([p[1] for p in parts])
    return sw, opt_vals


def _collect_probs(
    mech: MechanismSpec,
    dist: DistributionSpec,
    inst: Instance,
    trials: int,
    seed: int,
    workers: int,
) -> tuple[list[np.ndarray], np.ndarray]:
    parts = _map_chunks(_probs_chunk, (mech,), dist, inst, trials, seed, workers)
    hits = sum(p[0] for p in parts)
    count_sq = sum(p[1] for p in parts)
    return [hits[i, :b] for i, b in enumerate(inst.quotas)], count_sq


# --- statistics ---------------------------------------------------------------


def _mean(x: np.ndarray) -> float:
    return float(fsum_rows(x)) / len(x)


def _variance(x: np.ndarray, mean: float) -> float:
    # The subtraction is the same IEEE operation in numpy; the square must
    # stay libm pow (what Python's ** calls), which v * v and numpy's
    # squaring miss in the last bit on some values.
    if len(x) < 2:
        return 0.0
    return math.fsum(map(pow, (x - mean).tolist(), repeat(2))) / (len(x) - 1)


def _covariance(x: np.ndarray, y: np.ndarray, mx: float, my: float) -> float:
    if len(x) < 2:
        return 0.0
    return float(fsum_rows((x - mx) * (y - my))) / (len(x) - 1)


def wilson_half_width(successes: int, trials: int) -> float:
    p = successes / trials
    z, z2 = WILSON_Z, WILSON_Z * WILSON_Z
    return (z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))) / (1.0 + z2 / trials)


def _ratio_stderr(mo: float, ms: float, vo: float, vs: float, cov: float, trials: int) -> float:
    if ms == 0.0:  # no welfare on any trial: without OPT either, every trial's ratio is exactly 1
        return 0.0 if mo == 0.0 else math.inf
    var = (vo / (ms * ms) - 2.0 * mo * cov / (ms**3) + mo * mo * vs / (ms**4)) / trials
    return math.sqrt(max(var, 0.0))


def _opt_stats(opt_vals: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the optimum, shared by every mechanism of a call."""
    mean_opt = _mean(opt_vals)
    return mean_opt, _variance(opt_vals, mean_opt)


def _build_estimate(
    sw: np.ndarray, opt_vals: np.ndarray, opt_stats: tuple[float, float], trials: int, seed: int
) -> EstimateReport:
    """The report of one mechanism; `opt_stats` is `_opt_stats(opt_vals)`."""
    mean_sw = _mean(sw)
    mean_opt, var_opt = opt_stats
    var_sw = _variance(sw, mean_sw)
    cov = _covariance(opt_vals, sw, mean_opt, mean_sw)
    if mean_sw > 0.0:
        ratio = mean_opt / mean_sw
    else:
        ratio = 1.0 if mean_opt == 0.0 else math.inf  # welfare-free instances are vacuously optimal
    return EstimateReport(
        mean_opt=mean_opt,
        mean_sw=mean_sw,
        distortion_estimate=ratio,
        stderr_opt=math.sqrt(var_opt / trials),
        stderr_sw=math.sqrt(var_sw / trials),
        stderr_ratio=_ratio_stderr(mean_opt, mean_sw, var_opt, var_sw, cov, trials),
        trials=trials,
        seed=seed,
    )


# --- public operations ----------------------------------------------------------


def estimate_distortion(
    mech: MechanismSpec,
    dist: DistributionSpec,
    inst: Instance,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> EstimateReport:
    """Ratio-of-means distortion estimate with delta-method standard error.

    Each trial draws a profile, derives preferences, runs the mechanism, and
    records both its welfare and the exact optimum; welfare never exceeding
    the optimum is asserted trial by trial.
    """
    return estimate_distortions((mech,), dist, inst, trials, seed, workers=workers)[0]


def estimate_distortions(
    mechs: Sequence[MechanismSpec],
    dist: DistributionSpec,
    inst: Instance,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> list[EstimateReport]:
    """One `estimate_distortion` report per mechanism of `mechs`, each bitwise
    equal to that mechanism's own call, from one pass over the trials: every
    mechanism sees the same profiles, and the optimum is solved once.  Values
    whose welfare sums or statistics leave float64 raise ValueError."""
    mechs = tuple(mechs)
    if not mechs:
        raise ValueError("need at least one mechanism")
    try:
        sw, opt_vals = _collect_distortion(mechs, dist, inst, trials, seed, workers)
        stats = _opt_stats(opt_vals)
        return [_build_estimate(row, opt_vals, stats, trials, seed) for row in sw]
    except OverflowError:  # the statistics' float powers raise it past the float64 range
        raise ValueError("values too large: a welfare sum, or a power of one, leaves float64") from None


def estimate_assignment_probs(
    mech: MechanismSpec,
    dist: DistributionSpec,
    inst: Instance,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> ProbMatrixReport:
    """Empirical per-(agent, rank) assignment frequencies with Wilson
    half-widths at z = 3.  A completing spec raises ValueError: filler items
    would pollute the frequencies of the mechanism's own assignment."""
    if mech.complete:
        raise ValueError("complete: assignment probabilities are measured without the quota-filling pass")
    hits, count_sq = _collect_probs(mech, dist, inst, trials, seed, workers)
    q_hat = tuple(h / trials for h in hits)
    half = tuple(
        np.array([wilson_half_width(int(k), trials) for k in h]) for h in hits
    )
    return ProbMatrixReport(
        q_hat=q_hat,
        half_width=half,
        hits=tuple(hits),
        count_sumsq=tuple(int(c) for c in count_sq),
        trials=trials,
        seed=seed,
    )


def run_lb_theorem1(n: int, trials: int, seed: int, *, workers: int = 1) -> OneToOneReplayReport:
    """Replay the one-to-one 0/1 ensemble (success probability 1/n^2): the
    expected optimum must stay above 1 - 2/n while the survivor lottery's
    welfare stays below 1 - 1/e + 2/n, all within three standard errors."""
    inst = Instance.one_to_one(n)  # checks n
    rep = estimate_distortion(
        MechanismSpec.rs(),
        DistributionSpec.lower_bound_bernoulli(),
        inst,
        trials,
        seed,
        workers=workers,
    )
    opt_floor = 1.0 - 2.0 / n
    sw_ceiling = 1.0 - 1.0 / math.e + 2.0 / n
    if rep.mean_opt < opt_floor - 3.0 * rep.stderr_opt:
        raise AssertionError(
            f"mean optimum {rep.mean_opt} fell below the {opt_floor} floor (stderr {rep.stderr_opt})"
        )
    if rep.mean_sw > sw_ceiling + 3.0 * rep.stderr_sw:
        raise AssertionError(
            f"mean welfare {rep.mean_sw} exceeded the {sw_ceiling} ceiling (stderr {rep.stderr_sw})"
        )
    return OneToOneReplayReport(
        mean_opt=rep.mean_opt,
        mean_sw=rep.mean_sw,
        ratio=rep.distortion_estimate,
        stderr_opt=rep.stderr_opt,
        stderr_sw=rep.stderr_sw,
        opt_floor=opt_floor,
        sw_ceiling=sw_ceiling,
        trials=trials,
        seed=seed,
    )


def uf_audit(dist: DistributionSpec, inst: Instance, trials: int, seed: int, *, workers: int = 1) -> UFAuditReport:
    """Tabulate observed favorite-bundle frequencies against the uniform
    distribution over b_i-subsets and report a chi-square statistic per agent.

    Favorite sets are taken after uniform tie resolution, exactly as the
    mechanisms see them: audit trial t draws the profile and tie tags of
    estimator trial t from RandomStream(seed, t), so the counts do not depend
    on chunking or on the number of worker processes, `workers`.  Restricted
    to m <= 12 so the subset tables stay enumerable.
    """
    if inst.m > UF_AUDIT_MAX_ITEMS:
        raise ValueError(f"audit supports at most {UF_AUDIT_MAX_ITEMS} items, got {inst.m}")
    from scipy.special import chdtrc  # imported here to keep scipy off ordmatch's import path

    subsets = [tuple(combinations(range(inst.m), b)) for b in inst.quotas]
    # (agent, favorite bitmask) -> cell in the flat range of every agent's subsets
    cells = np.full((inst.n, 2**inst.m), -1, dtype=np.int64)
    ends = np.cumsum([len(subs) for subs in subsets])
    for i, subs in enumerate(subsets):
        masks = [sum(1 << g for g in s) for s in subs]
        cells[i, masks] = np.arange(ends[i] - len(subs), ends[i])
    parts = _map_chunks(partial(_audit_chunk, cells), (), dist, inst, trials, seed, workers)
    counts = np.split(sum(parts), ends[:-1])

    audits = []
    for i, (subs, count) in enumerate(zip(subsets, counts)):
        expected = trials / len(subs)
        stat = float(np.sum((count - expected) ** 2) / expected)
        dof = len(subs) - 1
        p = float(chdtrc(dof, stat)) if dof > 0 else 1.0  # the chi-square survival function
        audits.append(AgentAudit(i, subs, count, expected, chi2_stat=stat, dof=dof, p_value=p))
    return UFAuditReport(per_agent=tuple(audits), trials=trials)


# --- single-trial reference path (used to pin the batched kernels) -------------


def _reference_trials(mech: MechanismSpec, dist: DistributionSpec, inst: Instance, trials: int, seed: int):
    """Yield (profile, prefs, matching) of trials 0, 1, ..., each drawn from
    RandomStream(seed, t) through the single-run API."""
    _validated((mech,), dist, inst, trials, seed)
    for t in range(trials):
        gen = RandomStream(seed, t).generator()
        profile = distributions.sample_profile(dist, inst, gen)
        prefs = derive_preferences(profile, gen)
        yield profile, prefs, mechanisms.run_mechanism(mech, inst, prefs, gen)
