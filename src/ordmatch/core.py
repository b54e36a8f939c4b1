"""Data model shared by the mechanisms, analytics, and estimator modules.

Everything here is immutable after construction, and every random step flows
through an explicit stream (a (seed, stream-id) pair mapped onto a
counter-based Philox generator), so each operation is reproducible from its
arguments alone.  There is no hidden global RNG state anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

UNASSIGNED = -1


def check_int(value, field: str, minimum: int) -> int:
    """An integer (numpy's too, not a bool) of at least `minimum` as an int, else ValueError("<field>: ...")."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{field}: expected an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{field}: must be >= {minimum}, got {value}")
    return int(value)


def check_bool(value, field: str) -> bool:
    """A bool (numpy's too) as a bool, else ValueError("<field>: ..."); bool("false") is True, so none is cast."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{field}: expected true or false, got {value!r}")
    return bool(value)


@dataclass(frozen=True)
class RandomStream:
    """Reproducible random source: identical (seed, stream_id) pairs yield
    identical draw sequences, and distinct stream ids never overlap."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            v = check_int(getattr(self, name), name, -math.inf)  # any integer: the 64-bit range is checked next
            if not 0 <= v < 2**64:
                raise ValueError(f"{name} must fit in 64 unsigned bits")
            object.__setattr__(self, name, v)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Instance:
    """A quota vector b; the item count is always m = sum(b)."""

    quotas: tuple[int, ...]

    def __post_init__(self) -> None:
        q = self.quotas
        if not (isinstance(q, (list, tuple)) or isinstance(q, np.ndarray) and q.ndim == 1):
            raise ValueError(f"quotas: expected a list of integers, got {q!r}")
        q = tuple(check_int(b, f"quotas[{k}]", 1) for k, b in enumerate(q))
        if not q:
            raise ValueError("an instance needs at least one agent")
        object.__setattr__(self, "quotas", q)

    @cached_property
    def n(self) -> int:
        return len(self.quotas)

    @cached_property
    def m(self) -> int:
        return sum(self.quotas)

    @cached_property
    def b_max(self) -> int:
        return max(self.quotas)

    @cached_property
    def quota_array(self) -> np.ndarray:
        a = np.array(self.quotas, dtype=np.int64)
        a.setflags(write=False)
        return a

    @classmethod
    def one_to_one(cls, n: int) -> "Instance":
        return cls((1,) * check_int(n, "n", 1))


@dataclass(frozen=True, eq=False)
class ValuationProfile:
    """Nonnegative n x m value matrix, row i holding agent i's item values."""

    instance: Instance
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.float64)
        if v.shape != (self.instance.n, self.instance.m):
            raise ValueError(
                f"value matrix shape {v.shape} does not match instance "
                f"({self.instance.n} agents, {self.instance.m} items)"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if v.size and v.min() < 0.0:
            raise ValueError("values must be nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class PreferenceProfile:
    """Per-agent strict item rankings (best first); agent i's favorite set is
    the first b_i entries of rankings[i]."""

    instance: Instance
    rankings: np.ndarray

    def __post_init__(self) -> None:
        r = np.array(self.rankings, dtype=np.int64)
        n, m = self.instance.n, self.instance.m
        if r.shape != (n, m):
            raise ValueError("rankings shape does not match instance")
        base = np.arange(m)
        if not np.array_equal(np.sort(r, axis=1), np.broadcast_to(base, (n, m))):
            raise ValueError("each ranking must be a permutation of the items")
        r.setflags(write=False)
        object.__setattr__(self, "rankings", r)


@dataclass(frozen=True, eq=False)
class Matching:
    """Item-indexed partial assignment: assignment[g] is the agent holding
    item g, or UNASSIGNED.  Item uniqueness is structural."""

    assignment: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.assignment, dtype=np.int64)
        if a.ndim != 1:
            raise ValueError("assignment must be a flat item -> agent vector")
        if a.size and a.min() < UNASSIGNED:
            raise ValueError("assignment entries must be agent indices or UNASSIGNED")
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)

    def bundle_sizes(self, inst: Instance) -> np.ndarray:
        assigned = self.assignment[self.assignment >= 0]
        return np.bincount(assigned, minlength=inst.n).astype(np.int64)

    def validate(self, inst: Instance) -> None:
        if self.assignment.shape[0] != inst.m:
            raise ValueError("matching length does not match item count")
        if self.assignment.size and self.assignment.max() >= inst.n:
            raise ValueError("assignment references an unknown agent")
        sizes = self.bundle_sizes(inst)
        over = np.flatnonzero(sizes > inst.quota_array)
        if over.size:
            i = int(over[0])
            raise ValueError(f"agent {i} holds {int(sizes[i])} items, quota is {inst.quotas[i]}")


def top_items(values: np.ndarray, tags: np.ndarray, depth: int) -> np.ndarray:
    """The first `depth` items of each ranking: items by decreasing value,
    exact value ties broken by increasing tag.  With i.i.d. uniform tags (one
    per agent/item cell) every relative order of equal-valued items is
    equally likely.  Leading batch dimensions are kept; the last axis is the
    item axis, and depth m gives the full ranking.

    Depth 1 is one max/where/argmin pass.  Deeper tables sort each row by
    value alone and keep the first `depth` items; a row whose first
    depth + 1 sorted values hold a tie (its order or its cut would depend on
    the tags) is ranked by a lexsort on (-value, tag) instead.  A batch
    whose first row ties, or a table of full depth m, is taken whole to the
    lexsort: 0/1 and all-equal rows tie nearly everywhere.

    The arguments are read as they come, strided views included, and never
    written.  Besides the returned table, a call holds at most two arrays of
    their shape: a sort key and a sort order, or on the depth-1 pass a key
    and a boolean mask.
    """
    v = np.asarray(values, dtype=np.float64)
    t = np.asarray(tags, dtype=np.float64)
    if v.shape != t.shape:
        raise ValueError("values and tags must have matching shapes")
    m = v.shape[-1]
    if not 1 <= depth <= m:
        raise ValueError(f"depth must lie in [1, {m}], got {depth}")
    if depth == 1:
        row_max = v.max(axis=-1, keepdims=True)
        tagged = np.where(v == row_max, t, np.inf)
        return np.argmin(tagged, axis=-1, keepdims=True).astype(np.int64)

    def ties(descending: np.ndarray) -> np.ndarray:
        return (np.diff(descending[..., : depth + 1], axis=-1) == 0.0).any(axis=-1)

    first_row = v[(slice(1),) * (v.ndim - 1)]  # none in an empty batch
    if depth < m and not ties(np.sort(first_row, axis=-1)[..., ::-1]).any():
        order = np.argsort(v, axis=-1)[..., ::-1]  # by decreasing value, ties in any order
        top = order[..., :depth].copy()
        lex_rows = ties(np.take_along_axis(v, order[..., : depth + 1], axis=-1))
        del order  # freed before the lexsort of the tied rows
        if lex_rows.any():
            key = v[lex_rows]
            top[lex_rows] = np.lexsort((t[lex_rows], np.negative(key, out=key)), axis=-1)[:, :depth]
        return top
    top = np.lexsort((t, -v), axis=-1)
    return top if depth == m else top[..., :depth].copy()


def favorite_pairs(rankings: np.ndarray, quotas: tuple[int, ...]) -> tuple:
    """Favorite pair table: the m (item, agent) favorite pairs of each trial,
    sorted by item and then by agent, as (agent, cell, slot, shape).

    `rankings` has shape (..., n, k) with k >= max(quotas): only the first
    b_i entries of row i are read, so a top_items table will do.  The table
    has shape (..., m); agent, cell and slot are flat int64 arrays with one
    entry per pair: its agent, its (trial, item) cell trial * m + item, which
    ascends along the table, and its (trial, agent) slot trial * n + agent.
    """
    q = np.asarray(quotas, dtype=np.int64)
    n = q.size
    top = np.arange(rankings.shape[-1]) < q[:, None]
    pairs = rankings[..., top] * n + np.repeat(np.arange(n), q)  # item * n + agent
    pairs.sort(axis=-1)
    m = pairs.shape[-1]
    item, agent = np.divmod(pairs.reshape(-1, m), n)
    trial = np.arange(item.shape[0])[:, None]
    return agent.reshape(-1), (item + m * trial).reshape(-1), (agent + n * trial).reshape(-1), pairs.shape


def derive_preferences(profile: ValuationProfile, gen: np.random.Generator) -> PreferenceProfile:
    """Turn a valuation profile into strict rankings.

    Draw layout: one uniform tag per (agent, item) cell, n*m draws total.
    """
    inst = profile.instance
    tags = gen.random(inst.n * inst.m).reshape(inst.n, inst.m)
    return PreferenceProfile(inst, top_items(profile.values, tags, inst.m))


def fsum_rows(x: np.ndarray) -> np.ndarray:
    """math.fsum of each row (the last axis) of `x`, bit for bit: the exact
    sum, rounded once.  Returns the leading shape.

    Every cell is scaled by one power of two, 2**e, chosen so that the block's
    largest magnitude times the row length stays below 2**62.  A row whose
    scaled cells are all integers is summed exactly in int64, and the one cast
    of that sum to float64 is the correct rounding.  Scaling it back by 2**-e
    is exact: a normal result keeps its bits, and a subnormal one was not
    rounded by the cast, since every float is a multiple of 2**-1074, so a sum
    below 2**-1022 has at most 52 significant bits.  Rows off that grid, and
    blocks that are not finite or large enough to overflow (e < -960), get
    math.fsum; where its running sum overflows, fsum_rows raises ValueError.
    Neither path returns -0.0.  Uniforms (multiples of 2**-53) and 0/1 values
    take the int64 path.
    """
    x = np.asarray(x, dtype=np.float64)
    k = x.shape[-1]
    rows = x.reshape(math.prod(x.shape[:-1]), k)
    out = np.zeros(rows.shape[0])
    if rows.size:
        top = float(np.abs(rows).max())
        e = 62 - max(k - 1, 1).bit_length() - math.frexp(top)[1]
        exact = np.zeros(rows.shape[0], dtype=bool)
        if math.isfinite(top) and e >= -960:
            scaled = np.ldexp(rows, e)
            on_grid = scaled == np.trunc(scaled)
            if e < 0:  # a cell may have underflowed to zero
                on_grid &= (scaled != 0.0) | (rows == 0.0)
            exact = on_grid.all(axis=-1)
            out = np.ldexp(scaled.astype(np.int64).sum(axis=-1).astype(np.float64), -e)
        try:
            for r in np.flatnonzero(~exact).tolist():
                out[r] = math.fsum(rows[r].tolist())
        except OverflowError:
            raise ValueError("values too large: a welfare sum leaves float64") from None
    return out.reshape(x.shape[:-1])


def welfare(values: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Total value agents place on the items they hold: one correctly rounded
    sum per trial (`fsum_rows`: exact int64 sums, math.fsum as the fallback),
    so sweeps and Monte Carlo aggregates do not drift.

    `values` has shape (..., n, m) and the item -> agent `assignment` shape
    (..., m); an UNASSIGNED item adds nothing.  Returns the leading shape."""
    held = np.take_along_axis(values, np.maximum(assignment, 0)[..., None, :], axis=-2)[..., 0, :]
    return fsum_rows(np.where(assignment >= 0, held, 0.0))


def social_welfare(matching: Matching, profile: ValuationProfile) -> float:
    """Total value agents place on the items they hold (see `welfare`)."""
    a = matching.assignment
    v = profile.values
    if a.shape[0] != v.shape[1]:
        raise ValueError("matching length does not match the value matrix")
    if a.size and a.max() >= v.shape[0]:
        raise ValueError("matching references an unknown agent")
    return float(welfare(v, a))


def complete_assignment(assignment: np.ndarray, inst: Instance) -> np.ndarray:
    """Deterministically top every agent up to exactly their quota.

    `assignment` is item-indexed with arbitrary leading batch dimensions and
    must respect the quotas.  Unassigned items are visited in ascending item
    order and each goes to the lowest-indexed agent with residual quota;
    existing assignments are kept.  Feasibility is guaranteed because the
    quotas sum to the item count.
    """
    n = inst.n
    batch = math.prod(assignment.shape[:-1])
    flat = assignment.reshape(batch, assignment.shape[-1])
    held = flat >= 0
    # held items per (trial, agent): one bincount over agent + n * trial
    keys = (flat + n * np.arange(batch)[:, None])[held]
    residual = inst.quota_array - np.bincount(keys, minlength=batch * n).reshape(batch, n)
    # the free cells, in row-major order, take each trial's agents in index
    # order, each agent as often as its residual quota; since the quotas sum
    # to m, each trial's residual slots exactly cover its free items
    out = flat.astype(np.result_type(flat.dtype, np.int64))
    out[~held] = np.repeat(np.tile(np.arange(n), batch), residual.ravel())
    return out.reshape(assignment.shape)


def complete_matching(matching: Matching, inst: Instance) -> Matching:
    """Validate a matching, then complete it with complete_assignment."""
    matching.validate(inst)
    return Matching(complete_assignment(matching.assignment, inst))
