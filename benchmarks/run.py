"""ordmatch benchmark: one workload per invocation, run serially in this process.

    python3 benchmarks/run.py --workload dense-n20 --seed 0 --seconds 20 --trace 0

The package is imported from `src/` of the checkout this file sits in.  The
measured phase runs rounds (see workloads.py) back to back until `--seconds`
have passed; every operation is checked after the measured phase.  Times
inside this process are calibrated seconds (see Clock).

--trace 0 reports the end-to-end metrics:
  trials_per_s  median over rounds of (trials in the round / calibrated round time)
  setup_s       median over SETUP_PROBES fresh interpreters of the time from
                process start to the first trial (imports, specs, validation,
                mechanism parameters), scaled by reference interpreters (see
                measure_setup)
  peak_rss_mb   peak resident memory of this process
failed_frac (failed operations / operations attempted) is printed as well; the
result line carries it as `failed` and `attempted`.

--trace 1 runs every round twice, untraced and traced (alternating which goes
first), requires bitwise identical reports from both, and reports per-layer
metrics from the traced copies: medians over rounds of per-round busy or self
seconds, per-round counts, and per-call OPT latency percentiles over every
traced call.

The last line of stdout is the JSON result.  The run manifest and per-round
timings go to .bench_results/<workload>.trace<0|1>.json in the checkout, and
traced spans to .bench_results/<workload>.spans.csv.gz.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("dense-n20", "sparse-n50", "probs-mixed", "cli-gap-sweep")
SETUP_PROBES = 3
SETUP_REFERENCE = "import time, numpy, scipy.optimize; print(time.monotonic())"
SETUP_REF_SECONDS = 0.75
CAL_REPS = 300
CAL_SECONDS = 0.01
CAL_MATRIX = np.random.default_rng(0).random((64, 64))
MAX_SEED = 2**40

END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "opt.busy_s": "s",
    "opt.calls": "count",
    "opt.call_samples": "count",
    "opt.call_us_p50": "us",
    "opt.call_us_p999": "us",
    "opt.lsap_s": "s",
    "opt.glue_s": "s",
    "opt.lsap_share": "ratio",
    "mechanisms.busy_s": "s",
    "core.rankings_s": "s",
    "distributions.busy_s": "s",
    "estimator.self_s": "s",
    "estimator.draws": "count",
    "estimator.fill_bytes": "B",
    "estimator.chunks": "count",
    "analytics.busy_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny trial counts, one setup probe (smoke test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 0 <= args.seed < MAX_SEED:
        p.error(f"--seed must be in [0, {MAX_SEED})")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def calibrate() -> float:
    """Seconds for a fixed mix of small numpy calls and interpreted Python
    that does not involve ordmatch."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(CAL_REPS):
        acc += float(np.sort(CAL_MATRIX, axis=1)[k % 64].sum())
        acc += sum(i * 0.5 for i in range(200))
    return time.perf_counter() - t0


class Clock:
    """Times blocks of work in calibrated seconds.

    On a shared machine the CPU speed can switch between states every few
    seconds, moving raw wall times by a third or more.  The calibration kernel
    runs between blocks, and a block's calibrated time is its wall time times
    CAL_SECONDS over the mean calibration time measured right before and right
    after it: the time the block would take on a machine that runs the kernel
    in CAL_SECONDS.
    """

    def __init__(self) -> None:
        self.last = calibrate()

    def time(self, fn, *args):
        """Run fn(*args); return its result, wall seconds and the scale that
        turns wall seconds into calibrated seconds."""
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        cal = calibrate()
        scale = CAL_SECONDS / ((self.last + cal) / 2.0)
        self.last = cal
        return result, wall, scale


def child_seconds(cmd: list[str]) -> float:
    """Seconds from starting `cmd` to the monotonic clock reading it prints
    last; that clock is system-wide, so it is comparable with ours."""
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


def measure_setup(args, probes: int) -> list[tuple[float, float]]:
    """(wall seconds, scale) of `probes` fresh interpreters, each timed from
    process start to the point where the workload's first trial would run.

    Start-up cost on the machine this was tuned on drifts by a third within
    minutes and the in-process calibration kernel does not track it.  So
    every probe sits between two reference interpreters that only import
    numpy and scipy.optimize (third-party code no change here can touch), and
    its scale is SETUP_REF_SECONDS over the mean of those two reference times.
    """
    probe = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--setup-probe"]
    if args.quick:
        probe.append("--quick")
    reference = [sys.executable, "-c", SETUP_REFERENCE]
    refs = [child_seconds(reference)]
    out = []
    for _ in range(probes):
        wall = child_seconds(probe)
        refs.append(child_seconds(reference))
        out.append((wall, SETUP_REF_SECONDS / ((refs[-2] + refs[-1]) / 2.0)))
    return out


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def round_seed(seed: int, r: int) -> int:
    return seed * 2**20 + r


def measure(args, wl, clock, recorder, install) -> list[dict]:
    """The measured phase: rounds back to back until args.seconds have passed.
    With tracing, every round runs untraced and traced, alternating which
    goes first.  Each run is stored as (outcomes, wall_s, scale)."""
    rounds = []
    deadline = time.monotonic() + args.seconds
    while not rounds or time.monotonic() < deadline:
        r = len(rounds)
        rec = {"round": r, "seed": round_seed(args.seed, r)}
        modes = ("plain",)
        if args.trace:
            modes = ("plain", "traced") if r % 2 == 0 else ("traced", "plain")
        for mode in modes:
            if mode == "traced":
                with recorder.installed(r, install):
                    rec[mode] = clock.time(wl.run_round, rec["seed"])
            else:
                rec[mode] = clock.time(wl.run_round, rec["seed"])
        rounds.append(rec)
    return rounds


def check_rounds(args, wl, workloads, rounds) -> list[str]:
    """Check every operation of the measured phase; returns one message per
    failed operation and stores each round's report digests."""
    pins = workloads.PINS.get((args.workload, args.quick)) if args.seed == workloads.DEFAULT_SEED else None
    errors = []
    for rec in rounds:
        outs = rec["plain"][0]
        traced = rec["traced"][0] if "traced" in rec else None
        rec["digests"] = []
        for k, out in enumerate(outs):
            err = out.error
            if err is None:
                try:
                    err = wl.check(rec["seed"], out)
                except Exception as e:  # noqa: BLE001 - a check that raises fails its operation
                    err = f"check raised {type(e).__name__}: {e}"
            d = workloads.digest(out.report) if err is None else None
            if err is None and traced is not None:
                if traced[k].error is not None or workloads.digest(traced[k].report) != d:
                    err = f"traced report differs from the untraced one ({traced[k].error})"
            if err is None and rec["round"] == 0 and pins is not None and pins[k] != d:
                err = f"report digest {d} differs from the pinned {pins[k]}"
            rec["digests"].append(d)
            if err is not None:
                errors.append(f"round {rec['round']} seed {rec['seed']} {out.cell.label()}: {err}")
    return errors


def layer_metrics(recorder, rounds, wl, spans_mod) -> dict:
    """Per-layer metrics from the traced runs, in calibrated seconds."""
    stats = spans_mod.layer_stats(recorder.spans)
    scale = {rec["round"]: rec["traced"][2] for rec in rounds}
    empty = spans_mod.LayerStats()

    def per_round(layer: str, attr: str = "busy") -> list:
        values = [getattr(stats.get(r, {}).get(layer, empty), attr) for r in scale]
        return values if attr == "calls" else [v * k for v, k in zip(values, scale.values())]

    opt_us = sorted(d * scale[r] * 1e6 for r, d in spans_mod.durations(recorder.spans, "opt"))
    n_opt, n_lsap = sum(per_round("opt", "calls")), sum(per_round("opt.lsap", "calls"))
    glue = [a - b for a, b in zip(per_round("opt"), per_round("opt.lsap"))]
    overhead = [(rec["traced"][1] * rec["traced"][2]) / (rec["plain"][1] * rec["plain"][2]) for rec in rounds]
    return {
        "opt.busy_s": statistics.median(per_round("opt")),
        "opt.calls": statistics.median_low(per_round("opt", "calls")),
        "opt.call_samples": len(opt_us),
        "opt.call_us_p50": statistics.median(opt_us) if opt_us else 0.0,
        "opt.call_us_p999": opt_us[min(len(opt_us) - 1, int(0.999 * len(opt_us)))] if opt_us else 0.0,
        "opt.lsap_s": statistics.median(per_round("opt.lsap")),
        "opt.glue_s": statistics.median(glue),
        "opt.lsap_share": n_lsap / n_opt if n_opt else 0.0,
        "mechanisms.busy_s": statistics.median(per_round("mechanisms")),
        "core.rankings_s": statistics.median(per_round("core.rankings")),
        "distributions.busy_s": statistics.median(per_round("distributions")),
        "estimator.self_s": statistics.median(per_round("estimator", "self_time")),
        "estimator.draws": wl.round_draws(),
        "estimator.fill_bytes": 8 * wl.round_draws(),
        "estimator.chunks": statistics.median_low(per_round("distributions", "calls")),
        "analytics.busy_s": statistics.median(per_round("analytics")),
        "cli.self_s": statistics.median(per_round("cli", "self_time")),
        "trace.overhead_frac": statistics.median(overhead) - 1.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ordmatch" / "__init__.py").is_file():
        print(f"error: no ordmatch package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.pop("ORDMATCH_THREADS", None)
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.make(args.workload, args.quick, WORK)
    wl.setup()
    if args.setup_probe:
        print(time.monotonic())
        return 0

    import ordmatch
    import scipy

    import spans as spans_mod
    from ordmatch import analytics, cli, distributions, estimator, mechanisms, opt

    if Path(ordmatch.__file__).resolve().parent != SRC / "ordmatch":
        print(f"error: imported ordmatch from {ordmatch.__file__}, not {SRC}", file=sys.stderr)
        return 2

    def install(rec) -> None:
        # Wrap the names callers look up: estimator imports rankings_from_tags
        # by name, opt imports linear_sum_assignment by name.
        rec.wrap(cli, "main", "cli")
        for attr in ("estimate_distortion", "estimate_assignment_probs", "run_lb_theorem1"):
            rec.wrap(estimator, attr, "estimator")
        rec.wrap_public_functions(analytics, "analytics")
        rec.wrap(opt, "optimal_value", "opt")
        rec.wrap(opt, "linear_sum_assignment", "opt.lsap")
        rec.wrap(mechanisms, "assign_from_uniforms", "mechanisms")
        rec.wrap(estimator, "rankings_from_tags", "core.rankings")
        rec.wrap(distributions, "values_from_uniforms", "distributions")

    clock = Clock()
    setup = [] if args.trace else measure_setup(args, 1 if args.quick else SETUP_PROBES)
    recorder = spans_mod.Recorder()
    children_before = children_cpu_s()
    rounds = measure(args, wl, clock, recorder, install)
    if os.environ.get("ORDMATCH_THREADS") is not None or children_cpu_s() != children_before:
        print("error: the measured phase was not serial", file=sys.stderr)
        return 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = check_rounds(args, wl, workloads, rounds)
    attempted = sum(len(rec["plain"][0]) for rec in rounds)
    failed_frac = len(errors) / attempted

    def rate(run) -> float:
        return wl.round_trials() / (run[1] * run[2])

    def round_timing(rec) -> dict:
        out = {"round": rec["round"], "seed": rec["seed"]}
        for mode in ("plain", "traced"):
            if mode in rec:
                _, wall, scale = rec[mode]
                out.update({f"{mode}_wall_s": wall, f"{mode}_scale": scale, f"{mode}_trials_per_s": rate(rec[mode])})
        return out

    if args.trace:
        metrics = layer_metrics(recorder, rounds, wl, spans_mod)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "trials_per_s": statistics.median(rate(rec["plain"]) for rec in rounds),
            "setup_s": statistics.median(wall * scale for wall, scale in setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

    batch_size = getattr(estimator, "_batch_size", None)
    manifest = {
        "deterministic": {
            "workload": args.workload,
            "seed": args.seed,
            "quick": args.quick,
            "trace": args.trace,
            "git_commit": git_commit(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "ordmatch": ordmatch.__version__,
            "nproc": os.cpu_count(),
            "serial": {"workers": 1, "ORDMATCH_THREADS": None, "child_cpu_s_during_rounds": 0.0},
            "trials_per_cell_per_round": wl.trials,
            "prefix_replay_trials": wl.prefix,
            "cells": [
                {
                    "cell": c.label(),
                    "draws_per_trial": c.draws_per_trial(),
                    "batch": batch_size(c.inst) if batch_size else "absent",
                }
                for c in wl.cells
            ],
            "round_seeds": "seed * 2**20 + round",
            "round0_digests": rounds[0]["digests"],
            "absent_entry_points": sorted(recorder.absent),
        },
        "timing": {
            "cal_seconds": CAL_SECONDS,
            "setup_ref_seconds": SETUP_REF_SECONDS,
            "setup": [{"wall_s": wall, "scale": scale} for wall, scale in setup],
            "peak_rss_mb": peak_rss_mb,
            "rounds": [round_timing(rec) for rec in rounds],
        },
    }
    RESULTS.mkdir(exist_ok=True)
    summary = {"manifest": manifest, "metrics": metrics, "failed_frac": failed_frac, "errors": errors}
    with open(RESULTS / f"{args.workload}.trace{args.trace}.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1)
    if args.trace:
        recorder.write(RESULTS / f"{args.workload}.spans.csv.gz")

    for err in errors[:20]:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, {attempted} operations")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed_frac:.6g} ratio")
    for name in sorted(recorder.absent):
        print(f"absent: {name}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
