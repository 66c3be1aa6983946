"""The benchmark harness end to end at tiny sizes.

perfbench/run.py --smoke runs every workload, checks each task's output
against the stored references (exact fields to 1e-10 relative, simulated
fields bit for bit) and checks the metric names of BENCHMARK.json, so a
change that moves a recorded benchmark output fails here.  It runs on a
copy of the checkout, which keeps the harness's work directory out of it.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes(tmp_path):
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
