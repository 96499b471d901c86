"""Import cost guard: numpy and scipy load only when a measure needs them.

Every CLI call imports ``irdrift.cli``, and importing scipy costs more
than the rest of a small call. Only ``significance.paired_t_test`` and
``change.rmse`` use numpy or scipy, so a top-level import of either
would make every call pay for it again. The checks run in a fresh interpreter, because
this test process has loaded scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import irdrift

SCRIPT = """
import json, sys

def heavy():
    return sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})

import irdrift
after_package = heavy()
import irdrift.cli
after_cli = heavy()

from irdrift.change import rmse
from irdrift.model import MeasureSpec, PerTopicScores
from irdrift.significance import compare

m = MeasureSpec.parse("ndcg@10")
a = PerTopicScores(m, "a", "t0", {f"q{i}": ((i * 7) % 11) / 11 for i in range(12)})
b = PerTopicScores(m, "b", "t0", {f"q{i}": ((i * 5) % 13) / 13 for i in range(12)})
result = compare(a, b, alpha=0.05, family_size=3)
print(json.dumps({
    "after_package": after_package,
    "after_cli": after_cli,
    "after_calls": heavy(),
    "t": repr(result.t_statistic),
    "p": repr(result.p_value),
    "significant": result.significant,
    "n": result.n,
    "rmse": repr(rmse(a, b)),
}))
"""


@pytest.fixture(scope="module")
def fresh() -> dict:
    src = str(Path(irdrift.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_importing_the_package_and_cli_loads_neither_numpy_nor_scipy(fresh):
    assert fresh["after_package"] == []
    assert fresh["after_cli"] == []


def test_measures_load_numpy_and_scipy_on_demand_with_unchanged_values(fresh):
    assert fresh["after_calls"] == ["numpy", "scipy"]
    # the values these calls gave while numpy and scipy were imported at
    # module level, bit for bit
    assert (fresh["t"], fresh["p"], fresh["significant"], fresh["n"]) == (
        "-0.2546269008751662",
        "0.8037087497779815",
        False,
        12,
    )
    assert fresh["rmse"] == "0.4187102476320798"
