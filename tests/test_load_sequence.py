"""The sequence loader forks nothing, and its environments, warnings and
errors follow the order of loading the environments one by one.

``ingest._load_sequence(configs, corpus=False)`` loads the environments
one after another in the calling process. Each test loads hostile inputs
once, with :mod:`irdrift._workers` told that two CPUs are allowed, so a
loader that handed work to a worker process would fork. The load must
not fork, and each test pins its outcome: the environments, or the error
type and text, and the warnings by category, message, file and line, in
order: an environment's manifest error, then its qrels warnings, then
its qrels or topics error, then its validation findings.
"""

import os
import warnings
from pathlib import Path

import pytest

from irdrift import _workers, ingest
from irdrift.ingest import EEConfig, IngestWarning, ParseError, _load_sequence

from conftest import count_forks, cpu_masks

HERE = __file__
INGEST = ingest.__file__
GOOD_MANIFEST = ['{"doc_id": "d1", "length": 1}\n', '{"doc_id": "d2", "length": 2}\n']
BAD_MANIFEST = ['{"doc_id": "d1", "length": 1}\n', '{"doc_id": "d1", "length": 2}\n']
GOOD_QRELS = ["q1 0 d1 1\n", "q1 0 d2 0\n"]


def write_envs(directory: Path, envs: list[dict]) -> list[EEConfig]:
    """One environment per dict of file lines ("manifest", "qrels",
    "topics"); a missing "manifest" or "qrels" gets the good default, and
    a "topics" of None names a file that is not written."""
    configs = []
    for i, env in enumerate(envs):
        paths = {}
        for kind, default in (("manifest", GOOD_MANIFEST), ("qrels", GOOD_QRELS), ("topics", [])):
            paths[kind] = directory / f"t{i}.{kind}"
            lines = env.get(kind, default)
            if lines is not None:
                paths[kind].write_text("".join(lines), encoding="utf-8")
        topics = paths["topics"] if "topics" in env else None
        configs.append(EEConfig(f"t{i}", paths["manifest"], paths["qrels"], topics))
    return configs


def _load(configs):
    return _load_sequence(configs, corpus=False)


def load(monkeypatch, configs, action="always"):
    """The outcome of loading `configs` without a corpus while two CPUs are
    allowed: (environments, or (error type, error text)), and the warnings
    as (category, message, file, line). The load may not fork."""
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(_workers, "_cpus", lambda: cpu_masks()[1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        try:
            result = _load(configs)
        except Exception as exc:
            result = (type(exc), str(exc))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert forks == []
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def _line_of(path: str, text: str) -> int:
    return Path(path).read_text(encoding="utf-8").splitlines().index(text) + 1


# parse_qrels warns at the line of ingest._parse_file that called it, and
# the loader reports a finding at the line that called its caller, _load
PARSE_LINE = _line_of(INGEST, "            return parser(handle)")
LOAD_LINE = _line_of(HERE, "            result = _load(configs)")


def qrels_warning(text: str) -> tuple:
    return IngestWarning, text, INGEST, PARSE_LINE


def finding(label: str, text: str) -> tuple:
    return IngestWarning, f"environment {label}: {text}", HERE, LOAD_LINE


def test_a_qrels_error_before_a_bad_manifest_wins(tmp_path, monkeypatch):
    configs = write_envs(
        tmp_path,
        [{"qrels": ["q1 0 d1 -1\n", "q1 0 d2\n"]}, {"manifest": BAD_MANIFEST}],
    )
    result, shown = load(monkeypatch, configs)
    assert result == (ParseError, f"{configs[0].qrels_path}: line 2: expected 4 columns "
                                  f"(topic iteration doc grade), got 3")
    assert shown == [qrels_warning("line 1: negative grade -1 for (q1, d1) clamped to 0")]


def test_a_bad_manifest_wins_over_bad_qrels_of_its_own_environment(tmp_path, monkeypatch):
    configs = write_envs(
        tmp_path, [{"manifest": BAD_MANIFEST, "qrels": ["q1 0 d1 -1\n", "q1 0 d2\n"]}]
    )
    result, shown = load(monkeypatch, configs)
    assert result == (ParseError, f"{configs[0].manifest_path}: line 2: duplicate doc_id d1")
    assert shown == []


def test_a_bad_manifest_wins_over_a_later_missing_topics_file(tmp_path, monkeypatch):
    configs = write_envs(
        tmp_path,
        [{"qrels": ["q1 0 d9 1\n"]}, {"manifest": BAD_MANIFEST}, {"topics": None}],
    )
    result, shown = load(monkeypatch, configs)
    assert result == (ParseError, f"{configs[1].manifest_path}: line 2: duplicate doc_id d1")
    assert shown == [finding("t0", "judged document d9 is absent from the corpus snapshot")]


def test_a_missing_topics_file_is_named_after_the_earlier_findings(tmp_path, monkeypatch):
    configs = write_envs(tmp_path, [{"qrels": ["q1 0 d9 1\n"]}, {}, {"topics": None}])
    result, shown = load(monkeypatch, configs)
    assert result == (
        OSError,
        f"cannot read {configs[2].topics_path}: No such file or directory",
    )
    assert shown == [finding("t0", "judged document d9 is absent from the corpus snapshot")]


@pytest.mark.parametrize("action", ["always", "default"])
def test_qrels_warnings_and_findings_interleave_by_environment(tmp_path, monkeypatch, action):
    # t0 and t2 warn the same texts at the same line, which the default
    # filter shows once
    qrels = ["q1 0 d1 -2\n", "q1 0 d9 1\n", "q1 0 d9 1\n", "q2 0 d8 0\n"]
    configs = write_envs(
        tmp_path,
        [{"qrels": qrels, "topics": ['{"topic_id": "q1"}\n']}, {}, {"qrels": qrels}],
    )
    result, shown = load(monkeypatch, configs, action)
    assert [ee.label for ee in result] == ["t0", "t1", "t2"]
    assert [ee.corpus for ee in result] == [None] * 3
    assert result[0].topics == {"q1": None} and result[2].topics == {"q1": None, "q2": None}
    assert result[0].qrels.by_topic == {"q1": {"d1": 0, "d9": 1}, "q2": {"d8": 0}}
    parse_warnings = [
        qrels_warning("line 1: negative grade -2 for (q1, d1) clamped to 0"),
        qrels_warning("line 3: duplicate judgment for (q1, d9) with equal grade; deduplicated"),
    ]
    absent = [
        finding(label, f"judged document {doc} is absent from the corpus snapshot")
        for label in ("t0", "t2")
        for doc in ("d8", "d9")
    ]
    t0 = [
        *parse_warnings,
        finding("t0", "qrels topic q2 does not appear in the topic set"),
        *absent[:2],
    ]
    t2 = [*parse_warnings, *absent[2:]] if action == "always" else absent[2:]
    assert shown == t0 + t2


def test_an_empty_manifest_leaves_every_judged_document_absent(tmp_path, monkeypatch):
    configs = write_envs(tmp_path, [{}, {"manifest": []}])
    result, shown = load(monkeypatch, configs)
    assert [ee.label for ee in result] == ["t0", "t1"]
    assert shown == [
        finding("t1", f"judged document {doc} is absent from the corpus snapshot")
        for doc in ("d1", "d2")
    ]


def test_an_unreadable_manifest_path_is_named(tmp_path, monkeypatch):
    configs = write_envs(tmp_path, [{}, {"manifest": None}])
    configs[1].manifest_path.mkdir()
    result, shown = load(monkeypatch, configs)
    assert result == (OSError, f"cannot read {configs[1].manifest_path}: Is a directory")
    assert shown == []
