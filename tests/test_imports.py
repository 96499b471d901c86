"""Import guards: no CLI call imports numpy or scipy, no subcommand
imports ``dataclasses`` or ``inspect``, ``diff`` and ``simulate`` import
only the irdrift modules they use, ``change`` and ``evaluate`` never
import ``diff``, only ``change`` imports the worker helper, and the
package's export map names each public object where it is defined.

Every CLI call imports ``irdrift.cli``, and importing numpy and scipy
costs more than the rest of a small call. ``change.rmse`` and
``significance.paired_t_test`` compute their means, standard deviations
and t tails with the standard library (``math.fsum`` and
``irdrift._numeric``), so the package needs nothing else at run time.
The checks run in a fresh interpreter, because this test process has
loaded numpy and scipy already; one of them blocks both imports
outright. Every record type is a checked named tuple, so no module needs
``dataclasses``, whose import pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``, which every CLI process would pay for at startup.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import irdrift

from conftest import (
    DATED_MANIFEST,
    DATED_QRELS,
    change_argv,
    pivot_argv,
    write_churn_fixture,
    write_cli_fixture,
)

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
a = PerTopicScores(m, {f"q{i}": ((i * 7) % 11) / 11 for i in range(12)})
b = PerTopicScores(m, {f"q{i}": ((i * 5) % 13) / 13 for i in range(12)})
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

# runs cli.main on the argv in sys.argv[1]; with "block" in sys.argv[2],
# importing numpy or scipy fails as if neither were installed
CLI_SCRIPT = """
import json, sys

class Block:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("numpy", "scipy"):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

if sys.argv[2] == "block":
    sys.meta_path.insert(0, Block())

from irdrift.cli import main

code = main(json.loads(sys.argv[1]))
heavy = sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})
try:
    import numpy
    numpy_importable = True
except ImportError:
    numpy_importable = False
print(json.dumps({"code": code, "heavy": heavy, "numpy_importable": numpy_importable}),
      file=sys.stderr)
"""


# the irdrift modules loaded after `import irdrift`, after `import
# irdrift.cli` and after cli.main ran the argv in sys.argv[1]
MODULES_SCRIPT = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "irdrift")

import irdrift
after_package = loaded()
import irdrift.cli
after_cli = loaded()
code = irdrift.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"after_package": after_package, "after_cli": after_cli,
                  "code": code, "after_run": loaded()}), file=sys.stderr)
"""

# what diff and simulate need besides the package, the CLI and ingest
LEAN = {"irdrift", "irdrift.cli", "irdrift.ingest", "irdrift.model"}
SCORING = {"irdrift.change", "irdrift.effectiveness", "irdrift.significance", "irdrift._numeric"}


def _env() -> dict:
    src = str(Path(irdrift.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=src)


@pytest.fixture(scope="module")
def fresh() -> dict:
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=_env(), capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def _run_cli(argv: list[str], mode: str) -> tuple[bytes, dict]:
    done = subprocess.run(
        [sys.executable, "-c", CLI_SCRIPT, json.dumps(argv), mode],
        env=_env(),
        capture_output=True,
        check=True,
    )
    return done.stdout, json.loads(done.stderr.decode().splitlines()[-1])


def test_importing_the_package_and_cli_loads_neither_numpy_nor_scipy(fresh):
    assert fresh["after_package"] == []
    assert fresh["after_cli"] == []


def test_measures_load_neither_numpy_nor_scipy_and_keep_their_values(fresh):
    assert fresh["after_calls"] == []
    # t and rmse are the correctly rounded -0.25462690087516612... and
    # 0.41871024763207984... of these scores (50-digit mpmath); p is the
    # correctly rounded 0.80370874977798147... of that t
    assert (fresh["t"], fresh["p"], fresh["significant"], fresh["n"]) == (
        "-0.2546269008751661",
        "0.8037087497779815",
        False,
        12,
    )
    assert fresh["rmse"] == "0.4187102476320798"


def test_change_with_pivot_runs_without_numpy_or_scipy(tmp_path):
    config, runs = write_cli_fixture(tmp_path, systems=("alpha", "beta", "zpivot"))
    argv = pivot_argv(config, runs) + ["--format", "json"]

    out, state = _run_cli(argv, "free")
    assert state == {"code": 0, "heavy": [], "numpy_importable": True}
    # the paired t-tests ran: some significance cells are filled
    rows = json.loads(out)["rows"]
    assert any(v is not None for row in rows for v in row["significant"].values())

    blocked_out, blocked_state = _run_cli(argv, "block")
    assert blocked_state == {"code": 0, "heavy": [], "numpy_importable": False}
    assert blocked_out == out


def test_every_exported_name_resolves_and_the_list_is_sorted():
    assert [name for name in irdrift.__all__ if not hasattr(irdrift, name)] == []
    assert irdrift.__all__ == sorted(set(irdrift.__all__))


def test_the_export_map_names_each_object_where_it_is_defined():
    assert sorted(irdrift._EXPORTS) == irdrift.__all__
    aliases = set()
    for name, module_name in irdrift._EXPORTS.items():
        module = import_module(f"irdrift.{module_name}")
        value = getattr(irdrift, name)
        assert value is getattr(module, name), name
        if getattr(value, "__module__", "").split(".")[0] == "irdrift":
            assert value.__module__ == module.__name__, name
        else:
            aliases.add(name)
    # type aliases of builtins carry no irdrift module
    assert aliases == {"Corpus", "DocId", "TopicId"}
    assert set(irdrift.__all__) <= set(dir(irdrift))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        irdrift.no_such_name


def _loaded_modules(argv: list[str]) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", MODULES_SCRIPT, json.dumps(argv)],
        env=_env(),
        capture_output=True,
        check=True,
    )
    return json.loads(done.stderr.decode().splitlines()[-1])


def _diff_argv(tmp_path) -> list[str]:
    config = write_churn_fixture(tmp_path)
    return ["diff", "--config", str(config), "--from", "t0", "--to", "t1", "--format", "json"]


def _simulate_argv(tmp_path) -> list[str]:
    (tmp_path / "m.jsonl").write_text(DATED_MANIFEST, encoding="utf-8")
    (tmp_path / "q.txt").write_text(DATED_QRELS, encoding="utf-8")
    return ["simulate", "--manifest", str(tmp_path / "m.jsonl"), "--qrels",
            str(tmp_path / "q.txt"), "--slices", "3", "--out-dir", str(tmp_path / "out")]


@pytest.mark.parametrize("make_argv, used", [
    (_diff_argv, {"irdrift.diff", "irdrift.report"}),
    (_simulate_argv, {"irdrift.simulate"}),
])
def test_diff_and_simulate_import_only_the_modules_they_use(tmp_path, make_argv, used):
    state = _loaded_modules(make_argv(tmp_path))
    assert state["code"] == 0
    assert state["after_package"] == ["irdrift"]
    assert state["after_cli"] == sorted(LEAN)
    assert set(state["after_run"]) == LEAN | used
    assert not SCORING & set(state["after_run"])


# the irdrift modules each subcommand imports when it runs
SUBCOMMAND_MODULES = {
    "diff": ["diff", "report"],
    "evaluate": ["effectiveness", "report", "simulate"],
    "change": ["change", "report", "significance"],
    "simulate": ["simulate"],
    "report": ["report"],
}

# imports irdrift.cli, then each subcommand's modules in turn, and lists
# the slow standard-library modules loaded after each step
STDLIB_SCRIPT = """
import json, sys
from importlib import import_module

def slow():
    return sorted({"dataclasses", "inspect"} & set(sys.modules))

import irdrift.cli
loaded = {"cli": slow()}
for name, modules in json.loads(sys.argv[1]).items():
    for module in modules:
        import_module(f"irdrift.{module}")
    loaded[name] = slow()
print(json.dumps(loaded))
"""


def test_no_subcommand_imports_dataclasses_or_inspect():
    done = subprocess.run(
        [sys.executable, "-c", STDLIB_SCRIPT, json.dumps(SUBCOMMAND_MODULES)],
        env=_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(done.stdout) == dict.fromkeys(["cli", *SUBCOMMAND_MODULES], [])


PICKLE_SCRIPT = """
import json, sys
import irdrift.cli
print(json.dumps(sorted({"pickle", "irdrift._workers"} & set(sys.modules))))
"""


def test_importing_the_cli_loads_neither_pickle_nor_the_worker_helper():
    done = subprocess.run(
        [sys.executable, "-c", PICKLE_SCRIPT],
        env=_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(done.stdout) == []


# diff and simulate load an exact module set, checked above
def test_evaluate_does_not_import_the_worker_helper(tmp_path):
    config, runs = write_cli_fixture(tmp_path)
    state = _loaded_modules(["evaluate", "--config", str(config), "--ee", "t1", "--topics",
                             "common", "--run", runs[("alpha", "t1")]])
    assert state["code"] == 0
    assert "irdrift.effectiveness" in state["after_run"]
    assert "irdrift._workers" not in state["after_run"]


# report names diff's ChangeSummary in an annotation only
@pytest.mark.parametrize("subcommand", ["change", "evaluate"])
def test_change_and_evaluate_do_not_import_diff(tmp_path, subcommand):
    config, runs = write_cli_fixture(tmp_path)
    if subcommand == "change":
        argv = change_argv(config, runs, "dtq")
    else:
        argv = ["evaluate", "--config", str(config), "--ee", "t1", "--run", runs[("alpha", "t1")]]
    state = _loaded_modules(argv)
    assert state["code"] == 0
    assert "irdrift.report" in state["after_run"]
    assert "irdrift.diff" not in state["after_run"]
