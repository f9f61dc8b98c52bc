"""Tests of the benchmark itself; run with `python3 -m pytest so3bench` from the root.

They are kept out of the package's suite (pyproject's testpaths is tests/).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_runs_one_round_of_every_workload_with_its_checks():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(rows) == 8
    assert all(row["correct"] and row["failed"] == 0 and row["attempted"] >= 1 for row in rows)


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "so3bench"
    bench.mkdir()
    for name in ("run.py", "child.py", "workloads.py", "reference.py", "tracing.py"):
        shutil.copy(HERE / name, bench / name)
    cmd = [sys.executable, "so3bench/run.py", "--workload", "mc-fixed-small", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
