"""Workloads of the ordmatch benchmark, their operations and correctness checks.

An operation is one estimator call for one cell; on cli-gap-sweep it is one
row of the CSV that `ordmatch run` writes.  A round runs every operation of
its workload once, on the round's seed, serially in this process
(`workers=1`, `ORDMATCH_THREADS` unset).  Every call goes through a module
attribute (`estimator.estimate_distortion`, `cli.main`, ...) so that the
traced run sees it.

Checks, per operation and for any seed:
- the report's own invariants (trial count, seed, welfare never above OPT);
- prefix replay: the batched engine on the first few trials of the cell must
  equal, bit for bit, the same trials replayed one at a time through the
  public one-shot API (RandomStream, sample_profile, derive_preferences,
  run_mechanism, social_welfare, opt.optimal_value);
- on probs-mixed, every (agent, rank) frequency lies within CLOSED_FORM_Z
  binomial standard deviations of its closed form.
At the default seed the reports of round 0 must also match pinned digests.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from itertools import product
from pathlib import Path

import numpy as np

from ordmatch import analytics, cli, distributions, estimator, mechanisms, opt
from ordmatch.core import Instance, RandomStream, derive_preferences, social_welfare
from ordmatch.distributions import DistributionSpec
from ordmatch.mechanisms import MechanismSpec

DEFAULT_SEED = 0

# About 60 (agent, rank) cells are tested per round and some 10^5 over all
# benchmark runs; at 6.5 standard deviations a correct engine fails one of
# them by chance with probability below 1e-5 (the gate's z=3 Wilson band
# would fail about one seed in seven).
CLOSED_FORM_Z = 6.5

# Digests of round 0's reports at DEFAULT_SEED, measured at the commit that
# introduced the benchmark; keys are (workload, quick).
PINS = {
    ("dense-n20", False): ("8f72c2a2a59acbf3",),
    ("dense-n20", True): ("5b25c50fc101b121",),
    ("sparse-n50", False): ("ab71db0e0fc89ced",),
    ("sparse-n50", True): ("5ef6ed6256434245",),
    ("probs-mixed", False): ("c53af370a1b0af42", "023074edbde55ac5", "362fcd34c9f03de8", "aa9006f7510fdea2"),
    ("probs-mixed", True): ("b907f4951bd562aa", "1eb4216e593f9cec", "ccd539a1b0e825bd", "2191fd40f8c562da"),
    ("cli-gap-sweep", False): (
        "15798a5bba46a2cd", "e3b4902dd06d576a", "aa245827ec36cb2c", "c1feeca77f45d511",
        "b633f5db25bf4a98", "b6a118111b7eaeda", "908e5ad136a0d781", "27566c63520813d9",
        "2bda1e717d83e786", "0b7595ad521128d7", "b0bc9db972f582ad", "f309330512f13a4e",
        "b9689f660e1bd7e1", "fd437b33977e01fa", "7f66549193e25953", "6afbe7ca7d407bba",
    ),
    ("cli-gap-sweep", True): (
        "ba87268691a7b8f2", "f4df19f5c3b6c9b8", "8715ee8e62ad5409", "b1d8a4d483f7b769",
        "0257c4349fc8d244", "caa3005ed79fdba5", "e0e610a3499c6314", "f5553e513446a104",
        "dbdb431a1279c577", "bd374a9e3ef3bf52", "7b6e54433ff0a8ec", "aad313ca9bede2d0",
        "b7a98d859133ab42", "4f810e5c34e6d6b0", "9f888d309d6c9acc", "7b47a22f5572958c",
    ),
}


@dataclass(frozen=True)
class Cell:
    kind: str  # "distortion" or "probs"
    mech: MechanismSpec
    dist: DistributionSpec
    inst: Instance

    def label(self) -> str:
        quotas = "|".join(str(b) for b in self.inst.quotas)
        return f"{self.kind} {self.mech.label()} {self.dist.label()} quotas={quotas}"

    def draws_per_trial(self) -> int:
        """Uniforms one trial consumes: sample block, tie tags, mechanism block."""
        return (
            distributions.sample_draw_count(self.dist, self.inst)
            + self.inst.n * self.inst.m
            + mechanisms.mechanism_draw_count(self.mech, self.inst)
        )


@dataclass
class Outcome:
    cell: Cell
    report: object = None  # an estimator report, or a CSV row as a dict
    error: str | None = None


def _attempt(cell: Cell | None, fn, *args, **kwargs) -> Outcome:
    # A raising operation is a failed operation, not a failed benchmark.
    try:
        return Outcome(cell, fn(*args, **kwargs))
    except Exception as e:  # noqa: BLE001
        return Outcome(cell, error=f"{type(e).__name__}: {e}")


def digest(report) -> str:
    """Hash of every field of a report, floats by their exact bits."""
    h = hashlib.sha256()

    def feed(x) -> None:
        if is_dataclass(x):
            h.update(type(x).__name__.encode())
            for f in fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        elif isinstance(x, dict):
            feed(sorted(x.items()))
        elif isinstance(x, float):
            h.update(x.hex().encode())
        else:
            h.update(repr(x).encode())
        h.update(b";")

    feed(report)
    return h.hexdigest()[:16]


# --- one-shot replay -----------------------------------------------------------


def _replay_trials(cell: Cell, k: int, seed: int):
    for t in range(k):
        gen = RandomStream(seed, t).generator()
        profile = distributions.sample_profile(cell.dist, cell.inst, gen)
        prefs = derive_preferences(profile, gen)
        matching = mechanisms.run_mechanism(cell.mech, cell.inst, prefs, gen)
        yield profile, prefs, matching


def check_distortion_prefix(cell: Cell, k: int, seed: int) -> str | None:
    rep = estimator.estimate_distortion(cell.mech, cell.dist, cell.inst, k, seed, workers=1)
    sw, opt_vals = [], []
    for profile, _, matching in _replay_trials(cell, k, seed):
        sw.append(social_welfare(matching, profile))
        opt_vals.append(opt.optimal_value(cell.inst, profile.values))
    mean_sw, mean_opt = math.fsum(sw) / k, math.fsum(opt_vals) / k
    if (rep.mean_sw, rep.mean_opt) != (mean_sw, mean_opt):
        return (
            f"prefix replay of {k} trials differs: batched (sw, opt) = "
            f"({rep.mean_sw!r}, {rep.mean_opt!r}), one-shot ({mean_sw!r}, {mean_opt!r})"
        )
    return None


def check_probs_prefix(cell: Cell, k: int, seed: int) -> str | None:
    rep = estimator.estimate_assignment_probs(cell.mech, cell.dist, cell.inst, k, seed, workers=1)
    hits = [np.zeros(b, dtype=np.int64) for b in cell.inst.quotas]
    for _, prefs, matching in _replay_trials(cell, k, seed):
        for i, b in enumerate(cell.inst.quotas):
            hits[i] += matching.assignment[prefs.rankings[i, :b]] == i
    if any(not np.array_equal(a, b) for a, b in zip(rep.hits, hits)):
        return f"prefix replay of {k} trials differs: batched hits {rep.hits}, one-shot {hits}"
    return None


def q_exact(cell: Cell) -> list[float]:
    """Closed-form probability that an agent receives each favorite item."""
    inst, kind = cell.inst, cell.mech.kind
    if kind in ("rs", "secretary-rs"):
        return [analytics.rs_q_exact(inst, i) for i in range(inst.n)]
    if kind == "rsbs":
        return [analytics.rsbs_q_exact(inst)] * inst.n
    if kind == "hql":
        return [analytics.hql_q(inst)] * inst.n
    raise ValueError(f"no closed form for {kind}")


# --- workloads -----------------------------------------------------------------


class Workload:
    name: str
    cells: list[Cell]
    trials: int  # per cell per round
    prefix: int  # trials replayed one at a time per operation

    def setup(self) -> None:
        """Everything up to the first trial: validation and mechanism parameters."""
        for c in self.cells:
            distributions.validate_for_instance(c.dist, c.inst)
            mechanisms.mechanism_params(c.mech, c.inst)

    def run_round(self, seed: int) -> list[Outcome]:
        raise NotImplementedError

    def check(self, seed: int, out: Outcome) -> str | None:
        raise NotImplementedError

    def round_trials(self) -> int:
        return self.trials * len(self.cells)

    def round_draws(self) -> int:
        return sum(self.trials * c.draws_per_trial() for c in self.cells)

    def _check_estimate(self, seed: int, out: Outcome) -> str | None:
        rep = out.report
        if (rep.trials, rep.seed) != (self.trials, seed):
            return f"report says trials={rep.trials} seed={rep.seed}"
        if not rep.mean_sw <= rep.mean_opt:
            return f"mean welfare {rep.mean_sw!r} exceeds mean optimum {rep.mean_opt!r}"
        return check_distortion_prefix(out.cell, self.prefix, seed)


class DenseN20(Workload):
    """rs on iid-uniform01, one-to-one n=20: every profile is dense, so each
    trial solves a full 20x20 assignment problem."""

    name = "dense-n20"

    def __init__(self, quick: bool, work_dir: Path) -> None:
        self.cells = [Cell("distortion", MechanismSpec.rs(), DistributionSpec.iid_uniform01(), Instance.one_to_one(20))]
        self.trials = 300 if quick else 5000
        self.prefix = 8 if quick else 16

    def run_round(self, seed: int) -> list[Outcome]:
        c = self.cells[0]
        return [_attempt(c, estimator.estimate_distortion, c.mech, c.dist, c.inst, self.trials, seed, workers=1)]

    def check(self, seed: int, out: Outcome) -> str | None:
        return self._check_estimate(seed, out)


class SparseN50(Workload):
    """run_lb_theorem1(50): rs on lower-bound-bernoulli, one-to-one n=50.
    Profiles are nearly all zero and each trial draws 5,100 uniforms."""

    name = "sparse-n50"
    n = 50

    def __init__(self, quick: bool, work_dir: Path) -> None:
        inst = Instance.one_to_one(self.n)
        self.cells = [Cell("distortion", MechanismSpec.rs(), DistributionSpec.lower_bound_bernoulli(), inst)]
        # 8000 trials keep run_lb_theorem1's own 3-sigma floor on mean OPT
        # about 4.9 standard errors away from the true mean.
        self.trials = 500 if quick else 8000
        self.prefix = 8 if quick else 16

    def run_round(self, seed: int) -> list[Outcome]:
        return [_attempt(self.cells[0], estimator.run_lb_theorem1, self.n, self.trials, seed, workers=1)]

    def check(self, seed: int, out: Outcome) -> str | None:
        rep = out.report
        if rep.ratio != rep.mean_opt / rep.mean_sw:
            return f"ratio {rep.ratio!r} is not mean_opt / mean_sw"
        return self._check_estimate(seed, out)


class ProbsMixed(Workload):
    """estimate_assignment_probs for rs, rsbs, hql and secretary-rs on quotas
    (5,4,3,2,1), iid-uniform01.  Never calls OPT."""

    name = "probs-mixed"

    def __init__(self, quick: bool, work_dir: Path) -> None:
        inst = Instance((5, 4, 3, 2, 1))
        dist = DistributionSpec.iid_uniform01()
        self.cells = [Cell("probs", MechanismSpec(k), dist, inst) for k in ("rs", "rsbs", "hql", "secretary-rs")]
        self.trials = 512 if quick else 8192
        self.prefix = 8 if quick else 32

    def run_round(self, seed: int) -> list[Outcome]:
        return [
            _attempt(c, estimator.estimate_assignment_probs, c.mech, c.dist, c.inst, self.trials, seed, workers=1)
            for c in self.cells
        ]

    def check(self, seed: int, out: Outcome) -> str | None:
        rep, cell = out.report, out.cell
        if (rep.trials, rep.seed) != (self.trials, seed):
            return f"report says trials={rep.trials} seed={rep.seed}"
        for i, q in enumerate(q_exact(cell)):
            band = CLOSED_FORM_Z * math.sqrt(q * (1.0 - q) / self.trials)
            for t, hits in enumerate(rep.hits[i]):
                q_hat = int(hits) / self.trials
                if abs(q_hat - q) > band:
                    return f"agent {i} rank {t + 1}: q_hat {q_hat!r} outside {q!r} +- {band!r}"
        return check_probs_prefix(cell, self.prefix, seed)


class CliGapSweep(Workload):
    """`ordmatch run` through cli.main in-process: small quota vectors with
    b_i > 1 (one from a generator) crossed with hql, rsbs, secretary-rs and
    serial-dictator on favorite-bundle-uniform(1, 0), written as CSV."""

    name = "cli-gap-sweep"

    def __init__(self, quick: bool, work_dir: Path) -> None:
        self.trials = 32 if quick else 500
        self.prefix = 4 if quick else 8
        self.config_path = work_dir / f"{self.name}.json"
        self.csv_path = work_dir / f"{self.name}.csv"
        self.config = {
            "instances": [
                {"quotas": [3, 2, 1]},
                {"quotas": [2, 2, 2]},
                {"quotas": [4, 1]},
                {"n": 4, "m": 9, "generator": "geometric-quotas(0.5)"},
            ],
            "mechanisms": [{"name": k} for k in ("hql", "rsbs", "secretary-rs", "serial-dictator")],
            "distribution": {"name": "favorite-bundle-uniform", "hi": 1.0, "lo": 0.0},
            "trials": self.trials,
            "seed": DEFAULT_SEED,
            "output": str(self.csv_path),
        }
        self.cells = []

    def setup(self) -> None:
        self.config_path.parent.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")
        cfg = cli.load_config(str(self.config_path), argparse.Namespace())
        self.cells = [
            Cell("distortion", mech, dist, inst)
            for inst, mech, dist in product(cfg["instances"], cfg["mechanisms"], cfg["distributions"])
        ]
        super().setup()

    def run_round(self, seed: int) -> list[Outcome]:
        self.csv_path.unlink(missing_ok=True)
        ran = _attempt(None, cli.main, ["run", str(self.config_path), "--seed", str(seed)])
        if ran.error is not None or ran.report != 0:
            error = ran.error or f"ordmatch run exited with {ran.report}"
            return [Outcome(c, error=error) for c in self.cells]
        with open(self.csv_path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != len(self.cells):
            return [Outcome(c, error=f"CSV has {len(rows)} rows for {len(self.cells)} cells") for c in self.cells]
        return [Outcome(c, row) for c, row in zip(self.cells, rows)]

    def check(self, seed: int, out: Outcome) -> str | None:
        row, cell = out.report, out.cell
        if (row["mechanism"], int(row["trials"]), int(row["seed"])) != (cell.mech.label(), self.trials, seed):
            return f"row does not describe its cell: {row}"
        mean_opt, mean_sw = float(row["mean_opt"]), float(row["mean_sw"])
        if not mean_sw <= mean_opt:
            return f"mean welfare {mean_sw!r} exceeds mean optimum {mean_opt!r}"
        bench = analytics.benchmark_lower_bound(cell.inst)
        if row["benchmark_lb"] != f"{bench:.12g}":
            return f"benchmark_lb {row['benchmark_lb']} is not {bench:.12g}"
        gap, ratio = float(row["gap_ratio"]), float(row["distortion"]) / float(row["benchmark_lb"])
        if abs(gap - ratio) > 1e-9 * ratio:
            return f"gap_ratio {gap!r} is not distortion / benchmark_lb = {ratio!r}"
        return check_distortion_prefix(cell, self.prefix, seed)


WORKLOADS = {w.name: w for w in (DenseN20, SparseN50, ProbsMixed, CliGapSweep)}


def make(name: str, quick: bool, work_dir: Path) -> Workload:
    return WORKLOADS[name](quick, work_dir)
