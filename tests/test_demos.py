"""Every narrative demo runs to completion in a fresh interpreter.

Demos with a file under ``tests/demo_stdout/`` must print exactly its
contents. A demo leaves nothing in its temporary directory. Demo 05
builds change matrices, so it also runs with every scoring task in the
demo's own process and with one forked worker.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cpu_masks

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name
)
def test_demo_exits_0(demo, tmp_path):
    done = subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # a demo's scratch files are gone once it exits
    assert list(tmp_path.iterdir()) == []
    if demo.name == "01_parse_and_validate.py":
        # re-sorted by score, ranked by position
        assert done.stdout.endswith(
            "\nrun 'demo' after canonicalization:\n"
            "  topic 1: rank 1 d1 (score 9.9)\n"
            "  topic 1: rank 2 d2 (score 3.5)\n"
            "  topic 2: rank 1 d3 (score 1.2)\n"
        )
    pinned = ROOT / "tests" / "demo_stdout" / (demo.stem + ".txt")
    if pinned.exists():
        # the whole output, byte for byte, as first recorded
        assert done.stdout == pinned.read_text(encoding="utf-8")


# runs the demo at sys.argv[2] with the CPU list sys.argv[1] as the
# allowed CPUs of irdrift's worker helper
MASKED = """
import json, runpy, sys
from irdrift import _workers
cpus = json.loads(sys.argv[1])
_workers._cpus = lambda: cpus
runpy.run_path(sys.argv[2], run_name="__main__")
"""


@pytest.mark.parametrize("processes", [1, 2])
def test_demo_05_prints_its_pin_in_one_and_in_two_processes(tmp_path, processes):
    demo = ROOT / "demos" / "05_append_only_pipeline.py"
    done = subprocess.run(
        [sys.executable, "-c", MASKED, json.dumps(cpu_masks()[processes - 1]), str(demo)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    pinned = ROOT / "tests" / "demo_stdout" / "05_append_only_pipeline.txt"
    assert done.stdout == pinned.read_text(encoding="utf-8")
