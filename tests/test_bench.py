"""The benchmark harness's smoke-size self-check keeps passing.

It generates small inputs, runs the CLI on them, checks the outputs and
repeats a traced run; it has no timing gate. It must run from the
repository root and writes only under ``.bench_work/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selfcheck_passes():
    done = subprocess.run(
        [sys.executable, "bench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
