"""Fixed matrix of `ordmatch run` / `probs` / `ufaudit` CSVs and its digest.

    python3 tests/csv_matrix.py SRC_DIR OUT_DIR [--write-pins]

Imports `ordmatch` from SRC_DIR (the `src/` directory of a checkout), writes
64 CSVs into OUT_DIR and prints two lines, each a file count and the sha256
of the sorted per-file sha256 hex digests, one per line: first over the 60
`run` / `probs` files of the original matrix, then over all 64.  Two
checkouts whose reports are byte-identical print the same digests.

With --write-pins it also rewrites `tests/report_pins.json`: the sha256 of
each CSV by file name, the numpy and scipy versions that made them, and
`report_fields()`, the bits of every field of a few report objects (CSVs
print 12 significant digits, so a last-bit change passes every file hash).
`tests/test_report_digests.py` compares a fresh matrix with that file, file
by file and field by field.  A change that moves reports on purpose rewrites
the pins and names the files and fields that moved in CHANGES.md.

The matrix (each of the first two groups' `run` configs is followed by
`probs` on its first (instance, mechanism, distribution) cell at the same
trials and seed, written to `<stem>.csv.probs.csv`):
- `run`, 600 trials, seed 11: one config per mechanism with `complete`
  false and true, over one-to-one n=20, (3,2,1), (5,4,1) and
  `geometric-quotas(0.5)` n=4 m=9, times `iid-uniform01`,
  `favorite-bundle-uniform(1,0)` and `iid-bernoulli(0.3)`; plus
  `serial-dictator` with order [2, 0, 1] on the two 3-agent instances.
- `run`, 600 trials, seed 11: one config per instance, every mechanism
  with `complete` false and true, times the other three distribution
  kinds: `lower-bound-bernoulli`,
  `single-agent-adversarial` for agent 0 with and without replacement, and
  `exchangeable-permutation` over a base of m entries in {0, 0.5, 1} (ties).
- `probs`, 3000 trials, seed 5: each mechanism x instance x the first two
  distributions.
- `ufaudit`, 5000 trials, seed 7: (3,2,1) under
  `exchangeable-permutation` with ties, and the n=4 m=9 instance under
  `favorite-bundle-uniform(1,0)`.
- `run`, 600 trials, seed 11: `rsbs` on (3,2,1) under `iid-uniform01`,
  and `curve --points 10000` written to `run-curve.csv.curve.csv`.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

INSTANCES = [
    {"quotas": [1] * 20},
    {"quotas": [3, 2, 1]},
    {"quotas": [5, 4, 1]},
    {"n": 4, "m": 9, "generator": "geometric-quotas(0.5)"},
]
DISTRIBUTIONS = [
    {"name": "iid-uniform01"},
    {"name": "favorite-bundle-uniform", "hi": 1.0, "lo": 0.0},
    {"name": "iid-bernoulli", "p": 0.3},
]
MECHANISMS = ["rs", "rsbs", "hql", "secretary-rs", "serial-dictator"]
ITEM_COUNTS = [20, 6, 10, 9]  # m of each instance


def other_distributions(m):
    """The three kinds DISTRIBUTIONS leaves out, four configs on m items."""
    return [
        {"name": "lower-bound-bernoulli"},
        {"name": "single-agent-adversarial", "agent": 0},
        {"name": "single-agent-adversarial", "agent": 0, "with_replacement": False},
        {"name": "exchangeable-permutation", "base": [(g % 3) / 2 for g in range(m)]},
    ]


def run_and_probs(stem, cfg):
    """Yield the `run` of `cfg`, then `probs` on its first (instance,
    mechanism, distribution) cell at the same trials and seed."""
    yield "run", stem, cfg
    kinds = ("instance", "mechanism", "distribution")
    cell = {key: cfg[key] if key in cfg else cfg[key + "s"][0] for key in kinds}
    yield "probs", f"{stem}.csv.probs", dict(cell, trials=cfg["trials"], seed=cfg["seed"])


def configs():
    """Yield (command, file stem, config) for every cell of the matrix."""
    run = {"distributions": DISTRIBUTIONS, "trials": 600, "seed": 11}
    for mech in MECHANISMS:
        mechs = [{"name": mech, "complete": c} for c in (False, True)]
        yield from run_and_probs(f"run-{mech}", dict(run, instances=INSTANCES, mechanisms=mechs))
    ordered = [{"name": "serial-dictator", "order": [2, 0, 1], "complete": c} for c in (False, True)]
    yield from run_and_probs("run-serial-order", dict(run, instances=INSTANCES[1:3], mechanisms=ordered))
    every = [{"name": mech, "complete": c} for mech in MECHANISMS for c in (False, True)]
    for k, (inst, m) in enumerate(zip(INSTANCES, ITEM_COUNTS)):
        cfg = dict(run, instance=inst, mechanisms=every, distributions=other_distributions(m))
        yield from run_and_probs(f"run-other-kinds-{k}", cfg)
    for mech in MECHANISMS:
        for k, inst in enumerate(INSTANCES):
            for j, dist in enumerate(DISTRIBUTIONS[:2]):
                cfg = {"instance": inst, "distribution": dist, "mechanism": {"name": mech}, "trials": 3000, "seed": 5}
                yield "probs", f"probs-{mech}-{k}-{j}", cfg


def extra_configs():
    """Yield (command, file stem, config) for the cells added after the
    first 60 files: the `ufaudit` command, a last `run` and the curve CSV
    (`curve` takes no config)."""
    audits = [(INSTANCES[1], other_distributions(6)[3]), (INSTANCES[3], DISTRIBUTIONS[1])]
    for k, (inst, dist) in enumerate(audits):
        yield "ufaudit", f"ufaudit-{k}", {"instance": inst, "distribution": dist, "trials": 5000, "seed": 7}
    cfg = {
        "instance": INSTANCES[1],
        "distribution": DISTRIBUTIONS[0],
        "mechanism": {"name": "rsbs"},
        "trials": 600,
        "seed": 11,
    }
    yield "run", "run-curve", cfg
    yield "curve", "run-curve.csv.curve", None


PINS = Path(__file__).with_name("report_pins.json")


def _leaves(value, index=""):
    """(index, Python scalar) pairs of a report field: a scalar, or a tuple
    of scalars or numpy arrays (`ProbMatrixReport` holds one per agent)."""
    value = value.tolist() if hasattr(value, "tolist") else value
    if isinstance(value, (tuple, list)):
        for k, item in enumerate(value):
            yield from _leaves(item, f"{index}[{k}]")
    else:
        yield index, value


def report_fields() -> dict[str, str]:
    """The `float.hex` of every float (the decimal of every integer) in the
    fields of the pinned reports, keyed `<report>.<field>[index]`: the 5
    `EstimateReport`s of one `estimate_distortions` call over every mechanism
    on (3,2,1) under `iid-uniform01` (600 trials, seed 11), and the
    `ProbMatrixReport` of `rsbs` on (3,2,1) under `iid-uniform01` (3000
    trials, seed 5).  Reads the `ordmatch` on `sys.path`."""
    from dataclasses import fields

    from ordmatch import DistributionSpec, Instance, MechanismSpec, estimator

    inst, dist = Instance((3, 2, 1)), DistributionSpec.iid_uniform01()
    mechs = [MechanismSpec(name) for name in MECHANISMS]
    estimates = estimator.estimate_distortions(mechs, dist, inst, 600, 11)
    reports = {f"estimate-{mech.label()}": rep for mech, rep in zip(mechs, estimates)}
    reports["probs-rsbs"] = estimator.estimate_assignment_probs(MechanismSpec("rsbs"), dist, inst, 3000, 5)
    return {
        f"{name}.{f.name}{index}": x.hex() if isinstance(x, float) else str(x)
        for name, rep in reports.items()
        for f in fields(rep)
        for index, x in _leaves(getattr(rep, f.name))
    }


def file_hashes(files) -> dict[str, str]:
    """The sha256 hex digest of each file, keyed by file name."""
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def digest(hashes) -> str:
    return hashlib.sha256("\n".join(sorted(hashes)).encode() + b"\n").hexdigest()


def main(src: str, out: Path, write_pins: bool = False) -> None:
    sys.path.insert(0, src)
    from ordmatch.cli import main as ordmatch_main

    out.mkdir(parents=True, exist_ok=True)
    files = []
    for command, stem, cfg in [*configs(), *extra_configs()]:
        csv_path = out / f"{stem}.csv"
        if cfg is None:
            argv = [command, "--points", "10000", "--out", str(csv_path)]
        else:
            path = out / f"{stem}.json"
            path.write_text(json.dumps(dict(cfg, output=str(csv_path))))
            argv = [command, str(path)]
        with contextlib.redirect_stdout(io.StringIO()):  # ufaudit prints a summary line
            status = ordmatch_main(argv)
        if status != 0:
            raise SystemExit(f"ordmatch {' '.join(argv)} failed")
        files.append(csv_path)
    hashes = file_hashes(files)
    print(60, "files", digest(list(hashes.values())[:60]))
    print(len(files), "files", digest(hashes.values()))
    if write_pins:
        import numpy
        import scipy

        pins = {"numpy": numpy.__version__, "scipy": scipy.__version__, "files": hashes, "fields": report_fields()}
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if a != "--write-pins"]
    if len(args) != 2:
        raise SystemExit(__doc__)
    main(args[0], Path(args[1]), write_pins="--write-pins" in sys.argv)
