"""Keeps the benchmark runnable: one tiny sourceop-ladder cycle must pass its checks."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sourceop_ladder_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sourceop-ladder", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
