"""Command-line front end.

Subcommands: run, probs, curve, optcheck, ufaudit.  Experiment cells come
from a JSON config file.  Its top level takes `instance` or `instances`,
`mechanism` or `mechanisms` (not for ufaudit, which runs no mechanism),
`distribution` or `distributions` (one spelling of each section, not both),
`trials`, `seed` and `output`; an instance takes either `quotas` alone or
`n`, `m` and `generator`; a mechanism `name`, `complete` and `order`; a
distribution `name`, `p`, `hi`, `lo`, `agent`, `with_replacement` and `base`.
Any other key, or a mix of the two instance forms, is a config error.  Each
spec checks its own fields, and its error is reported at the field's config
path; this module checks the rest.  Before any trial runs, each mechanism and
distribution is checked against every instance by its module's
`validate_for_instance`, which builds no mechanism parameters, and an output
path that is a directory or lies in a missing one is refused.  The estimator
refuses a `complete` mechanism for probs.  --trials, --seed and --out
override the config; a mechanism's own `complete` is the only way to ask for
the quota-filling pass, and a `run` row names the full spec (`rs(complete)`).
A section item equal to an earlier one is a config error.  All output CSVs are
deterministic given --seed (LF line endings, 12 significant digits).
ORDMATCH_THREADS, which only this module reads, sets the `workers=` of run,
probs and ufaudit (0 = one per CPU, unset = serial).

Exit codes: 0 success, 2 usage or config error, 3 assertion or oracle failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import fields
from itertools import product
from pathlib import Path

import numpy as np

from . import analytics, distributions, estimator, mechanisms
from .core import Instance, RandomStream, check_int
from .distributions import DistributionSpec, sample_profile
from .mechanisms import MechanismSpec, q_exact_per_agent
from .opt import BRUTE_FORCE_MAX_ITEMS, brute_force_opt, optimal_value

OPTCHECK_TOL = 1e-9


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _quota_label(inst: Instance) -> str:
    return "|".join(str(b) for b in inst.quotas)


# --- config parsing -----------------------------------------------------------


def _check_keys(cfg, where: str, keys) -> None:
    """Raise unless `cfg` is a JSON object whose keys all lie in `keys`;
    `where` is its path in the config, empty at the top level."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where or 'top level'}: expected a JSON object")
    unknown = sorted(cfg.keys() - set(keys))
    if unknown:
        field = f"{where}.{unknown[0]}" if where else unknown[0]
        raise ConfigError(f"{field}: unknown field")


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return cfg[key]


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return value


def _owned(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), the ValueError of the spec that checks its own
    fields raised as a ConfigError at the config path `where`: a message that
    names a field ("p: ...", "base[1]: ...") hangs below it, any other beside it."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        sep = "." if re.match(r"\w+(\[\d+\])?: ", str(e)) else ": "
        raise ConfigError(f"{where}{sep}{e}") from None


def _geometric_quotas(n: int, m: int, ratio: float) -> tuple[int, ...]:
    """Largest-remainder rounding of weights ratio**i to a positive integer
    vector summing to m.  Raises OverflowError when the shares, or with
    spare items the weight sum, leave the float range."""
    weights = np.array([ratio**i for i in range(n)], dtype=np.float64)
    spare = m - n
    with np.errstate(over="ignore", invalid="ignore"):
        total = weights.sum()
        shares = spare * weights / total
    # an infinite weight sum turns every share into 0 and hands the spare items out by index
    if not np.isfinite(shares).all() or (spare > 0 and not np.isfinite(total)):
        raise OverflowError("geometric shares are not finite")
    base = np.floor(shares).astype(np.int64)
    leftover = spare - int(base.sum())
    order = np.argsort(-(shares - base), kind="stable")
    for k in range(leftover):
        base[order[k]] += 1
    return tuple(int(1 + b) for b in base)


def split_quotas(gen: np.random.Generator, n: int, m: int) -> tuple[int, ...]:
    """n positive quotas summing to m, cut at n - 1 distinct random places
    among the m - 1 gaps between items; draws nothing when n == 1."""
    if n == 1:
        return (m,)
    cuts = np.sort(gen.choice(m - 1, size=n - 1, replace=False)) + 1
    return tuple(int(b) for b in np.diff(cuts, prepend=0, append=m))


def _parse_instance(cfg, where: str) -> Instance:
    _check_keys(cfg, where, ("quotas", "n", "m", "generator"))
    if "quotas" in cfg:
        mixed = sorted(cfg.keys() - {"quotas"})
        if mixed:
            raise ConfigError(f"{where}.{mixed[0]}: not allowed beside 'quotas'")
        return _owned(where, Instance, tuple(_list(cfg["quotas"], f"{where}.quotas")))
    gen = _require(cfg, "generator", where)
    n = _owned(where, check_int, _require(cfg, "n", where), "n", 1)
    m = _owned(where, check_int, _require(cfg, "m", where), "m", 1)
    if m < n:
        raise ConfigError(f"{where}: m must be at least n")
    if gen == "uniform-quotas":
        if m % n != 0:
            raise ConfigError(f"{where}: uniform-quotas needs n to divide m")
        return Instance((m // n,) * n)
    if isinstance(gen, str) and gen.startswith("geometric-quotas(") and gen.endswith(")"):
        try:
            ratio = float(gen[len("geometric-quotas(") : -1])
        except ValueError:
            raise ConfigError(f"{where}.generator: bad ratio in {gen!r}") from None
        if not (ratio > 0 and np.isfinite(ratio)):
            raise ConfigError(f"{where}.generator: ratio must be positive and finite")
        try:
            return Instance(_geometric_quotas(n, m, ratio))
        except OverflowError:
            raise ConfigError(f"{where}.generator: ratio {ratio!r} overflows at n={n}") from None
    raise ConfigError(f"{where}.generator: unknown generator {gen!r}")


def _parse_distribution(cfg, where: str) -> DistributionSpec:
    _check_keys(cfg, where, [f.name for f in fields(DistributionSpec)][1:] + ["name"])
    null = next((key for key, value in cfg.items() if value is None), None)
    if null is not None:  # the spec reads None as a field not given
        raise ConfigError(f"{where}.{null}: expected a value, got null")
    given = {k: v for k, v in cfg.items() if k != "name"}
    return _owned(where, DistributionSpec, _require(cfg, "name", where), **given)


def _parse_mechanism(cfg, where: str) -> MechanismSpec:
    _check_keys(cfg, where, ("name", "complete", "order"))
    order = None if cfg.get("order") is None else _list(cfg["order"], f"{where}.order")
    return _owned(where, MechanismSpec, _require(cfg, "name", where), complete=cfg.get("complete", False), order=order)


def _parse_many(cfg: dict, singular: str, plural: str, parse) -> list:
    if singular in cfg and plural in cfg:
        raise ConfigError(f"{plural}: not allowed beside {singular!r}")
    if plural in cfg:
        items = cfg[plural]
        if not isinstance(items, list) or not items:
            raise ConfigError(f"{plural}: expected a nonempty list")
        parsed = [parse(item, f"{plural}[{k}]") for k, item in enumerate(items)]
        for k, item in enumerate(parsed):
            if (first := parsed.index(item)) < k:  # the two would write identical rows
                label = f" ({item.label()})" if hasattr(item, "label") else ""
                raise ConfigError(f"{plural}[{k}]: same as {plural}[{first}]{label}")
        return parsed
    if singular in cfg:
        return [parse(cfg[singular], singular)]
    raise ConfigError(f"missing {singular!r} (or {plural!r}) section")


def load_config(path: str, args, need_mechanism: bool = True) -> dict:
    """Read the JSON config, apply the command-line overrides in `args`, and
    build the experiment cells.  Raises ConfigError with a field-precise
    message on any problem."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON at byte {e.pos}: {e.msg}") from None
    sections = ("instance", "instances", "distribution", "distributions")
    if need_mechanism:
        sections += ("mechanism", "mechanisms")
    _check_keys(cfg, "", (*sections, "trials", "seed", "output"))

    instances = _parse_many(cfg, "instance", "instances", _parse_instance)
    dists = _parse_many(cfg, "distribution", "distributions", _parse_distribution)
    mechs = []
    if need_mechanism:
        mechs = _parse_many(cfg, "mechanism", "mechanisms", _parse_mechanism)
    # each spec's owner checks it against every instance, and the engine
    # refuses an oversized trial, before any trial runs
    checks = [(mechanisms.validate_for_instance, mech) for mech in mechs]
    checks += [(distributions.validate_for_instance, dist) for dist in dists]
    for k, inst in enumerate(instances):
        for check, spec in checks:
            try:
                check(spec, inst)
            except ValueError as e:
                where = f"instances[{k}]" if "instances" in cfg else "instance"
                raise ConfigError(f"{where}: {spec.label()}: {e}") from None
        estimator._batch_size(inst)

    trials = check_int(cfg.get("trials", 10000), "trials", 1)
    if getattr(args, "trials", None) is not None:
        trials = check_int(args.trials, "--trials", 1)
    seed = check_int(cfg.get("seed", 0), "seed", 0)
    if getattr(args, "seed", None) is not None:
        seed = check_int(args.seed, "--seed", 0)
    output = cfg.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output: expected a string, got {output!r}")
    if getattr(args, "out", None) is not None:
        output = args.out
    if output is None:
        raise ConfigError("missing output path (config 'output' or --out)")
    # refuse a path in a missing directory, or a directory, before any trial runs
    if not Path(output).parent.is_dir():
        raise ConfigError(f"cannot write {output!r}: no such directory")
    if Path(output).is_dir():
        raise ConfigError(f"cannot write {output!r}: is a directory")

    return {
        "instances": instances,
        "distributions": dists,
        "mechanisms": mechs,
        "trials": trials,
        "seed": seed,
        "output": output,
        "workers": _workers(),
    }


def _workers() -> int:
    """Worker processes from ORDMATCH_THREADS: unset is 1, 0 one per CPU."""
    env = os.environ.get("ORDMATCH_THREADS", "1")
    try:
        workers = int(env)
    except ValueError:
        raise ValueError(f"ORDMATCH_THREADS must be an integer, got {env!r}") from None
    if workers < 0:
        raise ValueError("ORDMATCH_THREADS must be >= 0")
    return workers or os.cpu_count() or 1


# --- commands --------------------------------------------------------------------


def _write_csv(path: str, rows: list[dict], footer: str = "") -> None:
    """Write dict rows under a header of the first row's keys, each value
    through _fmt, then `footer` verbatim."""
    try:
        f = open(path, "w", newline="", encoding="utf-8")
    except OSError as e:
        raise ValueError(f"cannot write {path!r}: {e.strerror}") from None
    with f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(rows[0].keys())
        w.writerows([_fmt(v) for v in row.values()] for row in rows)
        f.write(footer)


def cmd_run(args) -> int:
    cfg = load_config(args.config, args)
    # every mechanism of an (instance, distribution) pair runs on the same trials
    mechs, trials, seed, workers = cfg["mechanisms"], cfg["trials"], cfg["seed"], cfg["workers"]
    reports = {
        (inst, dist): dict(zip(mechs, estimator.estimate_distortions(mechs, dist, inst, trials, seed, workers=workers)))
        for inst, dist in product(cfg["instances"], cfg["distributions"])
    }
    rows = []
    for inst, mech, dist in product(cfg["instances"], mechs, cfg["distributions"]):
        rep = reports[inst, dist][mech]
        benchmark_lb = analytics.benchmark_lower_bound(inst)
        rows.append(
            {
                "n": inst.n,
                "m": inst.m,
                "quotas": _quota_label(inst),
                "mechanism": mech.label(),
                "distribution": dist.label(),
                "trials": trials,
                "seed": seed,
                "mean_opt": rep.mean_opt,
                "mean_sw": rep.mean_sw,
                "distortion": rep.distortion_estimate,
                "stderr": rep.stderr_ratio,
                "benchmark_lb": benchmark_lb,
                "gap_ratio": rep.distortion_estimate / benchmark_lb,
            }
        )
    _write_csv(cfg["output"], rows)
    return 0


def cmd_probs(args) -> int:
    cfg = load_config(args.config, args)
    cells = len(cfg["instances"]) * len(cfg["mechanisms"]) * len(cfg["distributions"])
    if cells != 1:
        raise ConfigError("probs needs exactly one (instance, mechanism, distribution) cell")
    inst, mech, dist = cfg["instances"][0], cfg["mechanisms"][0], cfg["distributions"][0]
    rep = estimator.estimate_assignment_probs(mech, dist, inst, cfg["trials"], cfg["seed"], workers=cfg["workers"])
    q_exact = q_exact_per_agent(mech, inst)
    rows = [
        {
            "agent": i,
            "rank": t + 1,
            "q_hat": float(rep.q_hat[i][t]),
            "ci_half_width": float(rep.half_width[i][t]),
            "q_exact": q_exact[i],
        }
        for i in range(inst.n)
        for t in range(inst.quotas[i])
    ]
    _write_csv(cfg["output"], rows)
    return 0


def cmd_curve(args) -> int:
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    best_x, best_bound = 1.0, 1.0
    rows = []
    for k in range(1, args.points + 1):
        x = k / args.points
        bound = analytics.distortion_gap_curve(x)
        if bound > best_bound:
            best_x, best_bound = x, bound
        rows.append({"x": x, "bound": bound})
    _write_csv(args.out, rows, footer=f"# max,{_fmt(best_bound)},x,{_fmt(best_x)}\n")
    return 0


def cmd_optcheck(args) -> int:
    if args.max_m > BRUTE_FORCE_MAX_ITEMS:
        raise ValueError(f"--max-m is capped at {BRUTE_FORCE_MAX_ITEMS} (enumeration bound)")
    if args.max_m < 1:
        raise ValueError("--max-m must be positive")
    if args.cases < 0:
        raise ValueError("--cases must be nonnegative")
    gen = RandomStream(args.seed).generator()
    spec = DistributionSpec.iid_uniform01()
    for case in range(args.cases):
        m = int(gen.integers(1, args.max_m + 1))
        n = int(gen.integers(1, m + 1))
        inst = Instance(split_quotas(gen, n, m))
        profile = sample_profile(spec, inst, gen)
        brute = brute_force_opt(inst, profile)  # the exact optimum rounded once
        engine = optimal_value(inst, profile.values)  # the engine's batched oracle on a batch of one
        if engine > brute or brute - engine > OPTCHECK_TOL:
            side = "above the exact optimum" if engine > brute else f"more than {OPTCHECK_TOL:g} below it"
            print(
                f"oracle mismatch on case {case}: engine {side}: quotas={_quota_label(inst)} "
                f"seed={args.seed} engine={engine!r} brute={brute!r}",
                file=sys.stderr,
            )
            return 3
    print(f"optcheck: {args.cases} cases never above the exact optimum and within {OPTCHECK_TOL:g} below it")
    return 0


def cmd_ufaudit(args) -> int:
    cfg = load_config(args.config, args, need_mechanism=False)
    if len(cfg["instances"]) != 1 or len(cfg["distributions"]) != 1:
        raise ConfigError("ufaudit needs exactly one instance and one distribution")
    inst, dist = cfg["instances"][0], cfg["distributions"][0]
    report = estimator.uf_audit(dist, inst, cfg["trials"], cfg["seed"], workers=cfg["workers"])
    rows = [
        {
            "agent": audit.agent,
            "subset": "|".join(str(g) for g in subset),
            "observed": int(count),
            "expected": audit.expected,
            "frequency": int(count) / report.trials,
            "chi2": audit.chi2_stat,
            "dof": audit.dof,
            "p_value": audit.p_value,
        }
        for audit in report.per_agent
        for subset, count in zip(audit.subsets, audit.counts)
    ]
    _write_csv(cfg["output"], rows)
    print(f"ufaudit: min p-value {report.min_p_value():.6g} over {inst.n} agents")
    return 0


# --- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordmatch",
        description="Ordinal b-matching mechanism experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_command(name: str, func, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="JSON experiment config")
        p.add_argument("--trials", type=int, default=None, help="override config trials")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override config output path")
        p.set_defaults(func=func)

    add_config_command("run", cmd_run, "estimate distortion for each config cell, write CSV")
    add_config_command("probs", cmd_probs, "estimate per-(agent, rank) assignment probabilities")
    add_config_command("ufaudit", cmd_ufaudit, "audit a distribution's unbiased-favorites property")

    p_curve = sub.add_parser("curve", help="write the distortion-gap ceiling curve")
    p_curve.add_argument("--points", type=int, default=10000, help="grid points on (0, 1]")
    p_curve.add_argument("--out", required=True, help="output CSV path")
    p_curve.set_defaults(func=cmd_curve)

    p_opt = sub.add_parser("optcheck", help="check the engine's OPT never exceeds the exact enumerated optimum")
    p_opt.add_argument("--max-m", type=int, default=7, help=f"largest item count (at most {BRUTE_FORCE_MAX_ITEMS})")
    p_opt.add_argument("--cases", type=int, default=200, help="number of random cases")
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.set_defaults(func=cmd_optcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"assertion failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
