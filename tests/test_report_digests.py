"""The report matrix of `tests/csv_matrix.py` pinned file by file, and a few
report objects field by field, against `tests/report_pins.json`, so a change
that moves any report byte, or the last bit of a pinned field, fails Tier-1
and names the files and fields it moved.  A change that alters reports on
purpose rewrites the pins with `csv_matrix.py --write-pins` and says why in
CHANGES.md."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

import csv_matrix

ROOT = Path(__file__).resolve().parents[1]


def test_csv_matrix_digests_hold(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "csv_matrix.py"), str(ROOT / "src"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    pins = json.loads(csv_matrix.PINS.read_text(encoding="utf-8"))
    want, got = pins["files"], csv_matrix.file_hashes(tmp_path.glob("*.csv"))
    changed = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not (changed or missing or extra), (
        f"reports moved: changed {changed}, missing {missing}, extra {extra} "
        f"(made under numpy {np.__version__}, scipy {scipy.__version__}; "
        f"pinned with numpy {pins['numpy']}, scipy {pins['scipy']})"
    )


def test_report_fields_hold():
    pins = json.loads(csv_matrix.PINS.read_text(encoding="utf-8"))
    want, got = pins["fields"], csv_matrix.report_fields()
    changed = {name: f"{want[name]} -> {got[name]}" for name in sorted(want.keys() & got.keys()) if want[name] != got[name]}
    missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not (changed or missing or extra), (
        f"report fields moved: changed {changed}, missing {missing}, extra {extra} "
        f"(made under numpy {np.__version__}, scipy {scipy.__version__}; "
        f"pinned with numpy {pins['numpy']}, scipy {pins['scipy']})"
    )
