"""The report matrix of `tests/csv_matrix.py` pinned by its two digests, so a
change that moves any report byte fails Tier-1.  A change that alters reports
on purpose updates the pins below and says why in CHANGES.md."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]

PINNED = [
    "60 files 0d13f43aba08f52b95d007c27697faed254a25d8806584fc67566f924b931d4f",
    "64 files 643c45f8cbc56cd1bc18b8b0c63ae0cb513f1dc2d67cd23553f6bda3dedf6092",
]
PINNED_WITH = "numpy 2.4.6, scipy 1.17.1"


def test_csv_matrix_digests_hold(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "csv_matrix.py"), str(ROOT / "src"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == PINNED, (
        f"report digests changed under numpy {np.__version__}, scipy {scipy.__version__} "
        f"(pinned with {PINNED_WITH})"
    )
