"""Smoke test of the benchmark at tiny trial counts (`--quick`, one second).

    python3 -m pytest benchmarks/test_smoke.py -q

Every workload runs untraced and traced; every metric named in BENCHMARK.json
is printed with its unit and appears in the result line; no operation fails;
and round 0 of the two runs has the same report digests.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload]
    cmd += ["--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_reports(workload):
    digests = {}
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = run(workload, trace)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"], done.stderr
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), name
        assert "failed_frac = 0 ratio" in lines
        saved = json.loads((ROOT / ".bench_results" / f"{workload}.trace{trace}.json").read_text(encoding="utf-8"))
        digests[trace] = saved["manifest"]["deterministic"]["round0_digests"]
    assert digests[0] == digests[1]


def test_fails_without_the_package():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run("dense-n20", 0, root=bare)
        assert done.returncode != 0
        assert done.stdout == ""
    finally:
        shutil.rmtree(bare)
