"""Random valuation generators satisfying the unbiased-favorites property:
under every variant, each b_i-subset of items is equally likely to be agent
i's favorite bundle (after uniform tie-breaking).

Draw layouts are fixed per variant so that sampled profiles are reproducible
from (spec, instance, seed, stream-id) alone:

  iid-uniform01            n*m uniforms -> the value matrix itself
  iid-bernoulli(p)         n*m uniforms, v = 1.0 where u < p
  lower-bound-bernoulli    as iid-bernoulli with p = 1/n^2
  single-agent-adversarial b_i* uniforms -> item indices floor(u*m), drawn
                           with replacement (duplicates collapse); the
                           without-replacement toggle instead consumes m
                           uniforms and takes the argsort prefix
  exchangeable-permutation n*m uniforms; row i = base permuted by argsort
  favorite-bundle-uniform  n*m uniforms; hi on the argsort prefix, lo elsewhere
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import Instance, ValuationProfile, check_bool, check_int

# The spec fields each kind takes, with the default of an optional field
# (None marks a required one).  A field outside its kind's entry must stay None.
_FIELDS: dict[str, dict[str, object]] = {
    "iid-uniform01": {},
    "iid-bernoulli": {"p": None},
    "lower-bound-bernoulli": {},
    "single-agent-adversarial": {"agent": None, "with_replacement": True},
    "exchangeable-permutation": {"base": None},
    "favorite-bundle-uniform": {"hi": None, "lo": None},
}

KINDS = tuple(_FIELDS)


def _number(value, field: str, top: float = math.inf) -> float:
    """A finite number (not a bool) in [0, top] as a float, else ValueError("<field>: ...")."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{field}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{field}: number out of range") from None
    if not (0.0 <= x <= top and math.isfinite(x)):
        raise ValueError(f"{field}: must be finite and lie in [0, {top:g}], got {x!r}")
    return x


def _base(value, field: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple, np.ndarray)) or not len(value):
        raise ValueError(f"{field}: expected a nonempty list, got {value!r}")
    return tuple(_number(x, f"{field}[{k}]") for k, x in enumerate(value))


# Each field's check: the value as the spec stores it, or ValueError("<field>: ...").
_CHECKS = {
    "p": lambda value, field: _number(value, field, top=1.0),
    "agent": lambda value, field: check_int(value, field, 0),
    "base": _base,
    "hi": _number,
    "lo": _number,
    "with_replacement": check_bool,
}


@dataclass(frozen=True)
class DistributionSpec:
    kind: str
    p: float | None = None
    agent: int | None = None
    base: tuple[float, ...] | None = None
    hi: float | None = None
    lo: float | None = None
    with_replacement: bool | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        takes = _FIELDS[self.kind]
        for f in fields(self)[1:]:
            if getattr(self, f.name) is not None:
                object.__setattr__(self, f.name, _CHECKS[f.name](getattr(self, f.name), f.name))
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name not in takes:
                if value is not None:
                    raise ValueError(f"{self.kind} does not take {f.name}")
            elif value is None:
                if takes[f.name] is None:
                    raise ValueError(f"{self.kind} needs {f.name}")
                object.__setattr__(self, f.name, takes[f.name])
        if self.hi is not None and not self.hi > self.lo:
            raise ValueError(f"favorite-bundle-uniform needs hi > lo, got hi={self.hi!r}, lo={self.lo!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def iid_uniform01(cls) -> "DistributionSpec":
        return cls("iid-uniform01")

    @classmethod
    def iid_bernoulli(cls, p: float) -> "DistributionSpec":
        return cls("iid-bernoulli", p=p)

    @classmethod
    def lower_bound_bernoulli(cls) -> "DistributionSpec":
        """0/1 values with per-entry success probability 1/n^2."""
        return cls("lower-bound-bernoulli")

    @classmethod
    def single_agent_adversarial(cls, agent: int, with_replacement: bool = True) -> "DistributionSpec":
        return cls("single-agent-adversarial", agent=agent, with_replacement=with_replacement)

    @classmethod
    def exchangeable_permutation(cls, base) -> "DistributionSpec":
        return cls("exchangeable-permutation", base=base)

    @classmethod
    def favorite_bundle_uniform(cls, hi: float, lo: float) -> "DistributionSpec":
        return cls("favorite-bundle-uniform", hi=hi, lo=lo)

    def label(self) -> str:
        """Stable human-readable tag used in CSV output."""
        if self.kind == "iid-bernoulli":
            return f"iid-bernoulli(p={self.p:.12g})"
        if self.kind == "single-agent-adversarial":
            mode = "" if self.with_replacement else ",no-replacement"
            return f"single-agent-adversarial(agent={self.agent}{mode})"
        if self.kind == "exchangeable-permutation":
            return "exchangeable-permutation(" + "|".join(f"{x:.12g}" for x in self.base) + ")"
        if self.kind == "favorite-bundle-uniform":
            return f"favorite-bundle-uniform(hi={self.hi:.12g},lo={self.lo:.12g})"
        return self.kind


def validate_for_instance(spec: DistributionSpec, inst: Instance) -> None:
    if spec.kind == "single-agent-adversarial" and spec.agent >= inst.n:
        raise ValueError(f"adversarial agent {spec.agent} out of range for n={inst.n}")
    if spec.kind == "exchangeable-permutation" and len(spec.base) != inst.m:
        raise ValueError(f"base vector has {len(spec.base)} entries, instance has {inst.m} items")


def sample_draw_count(spec: DistributionSpec, inst: Instance) -> int:
    """Number of uniforms one profile draw consumes (the fixed layout size)."""
    if spec.kind == "single-agent-adversarial":
        return inst.quotas[spec.agent] if spec.with_replacement else inst.m
    return inst.n * inst.m


def values_from_uniforms(spec: DistributionSpec, inst: Instance, u: np.ndarray) -> np.ndarray:
    """Map a block of uniforms onto value matrices, inside `u` itself.

    `u` has shape (..., sample_draw_count); the result has shape (..., n, m).
    Every kind that draws n*m uniforms maps them in place and returns a view
    of `u`: iid-uniform01 leaves it as it is, the Bernoulli kinds overwrite it
    with 0.0/1.0, and the argsort kinds write their values over it once the
    order is taken.  single-agent-adversarial draws fewer uniforms than the
    matrix has cells, so it returns a new array and leaves `u` unchanged.
    Shared by the one-shot sampler and the batched estimator kernels so both
    produce bit-identical profiles from the same draws.
    """
    n, m = inst.n, inst.m
    lead = u.shape[:-1]
    if spec.kind == "single-agent-adversarial":
        b_star = inst.quotas[spec.agent]
        vals = np.zeros((*lead, n, m), dtype=np.float64)
        row = vals[..., spec.agent, :]
        if spec.with_replacement:
            idx = (u * m).astype(np.int64)  # u < 1, so idx < m
        else:
            idx = np.argsort(u, axis=-1)[..., :b_star]
        np.put_along_axis(row, idx, 1.0, axis=-1)
        return vals
    vals = u.reshape(*lead, n, m)
    if spec.kind == "iid-uniform01":
        return vals
    if spec.kind in ("iid-bernoulli", "lower-bound-bernoulli"):
        p = spec.p if spec.kind == "iid-bernoulli" else 1.0 / (n * n)
        return np.less(vals, p, out=vals, casting="unsafe")
    order = np.argsort(vals, axis=-1)
    if spec.kind == "exchangeable-permutation":
        vals[...] = np.asarray(spec.base, dtype=np.float64)[order]
        return vals
    if spec.kind == "favorite-bundle-uniform":
        vals[...] = spec.lo
        for i, b in enumerate(inst.quotas):
            np.put_along_axis(vals[..., i, :], order[..., i, :b], spec.hi, axis=-1)
        return vals
    raise AssertionError(f"unhandled kind {spec.kind}")


def sample_profile(spec: DistributionSpec, inst: Instance, gen: np.random.Generator) -> ValuationProfile:
    """Draw one valuation profile."""
    validate_for_instance(spec, inst)
    u = gen.random(sample_draw_count(spec, inst))
    return ValuationProfile(inst, values_from_uniforms(spec, inst, u))
