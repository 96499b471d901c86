"""Shared builders for tests.

Synthetic data is derived from SHA-256 so fixtures are bit-identical
across runs, platforms, and Python versions (the builtin hash() is
salted per process and must not be used here).
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import date, datetime, timedelta, timezone

from hypothesis import Phase, settings
from hypothesis import strategies as st

from irdrift.ingest import format_manifest, format_qrels, format_run
from irdrift.model import (
    Corpus,
    DocId,
    DocMeta,
    EvaluationEnvironment,
    PerTopicScores,
    Qrels,
    Ranking,
    RunFile,
    TopicId,
)


def unit_hash(*parts: str) -> float:
    """Deterministic pseudo-uniform value in [0, 1) keyed by the parts."""
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def make_ranking(docs: list[str], scores: list[float] | None = None) -> Ranking:
    """Ranking with the given docs in order; scores default to n, n-1, ..."""
    if scores is None:
        scores = [float(len(docs) - i) for i in range(len(docs))]
    return Ranking(tuple(docs), tuple(scores))


def make_qrels(pairs: dict[tuple[str, str], int]) -> Qrels:
    """Qrels from flat ``{(topic, doc): grade}`` pairs."""
    by_topic: dict[TopicId, dict[DocId, int]] = {}
    for (topic, doc), grade in pairs.items():
        by_topic.setdefault(topic, {})[doc] = grade
    return Qrels(by_topic)


def make_run(tag: str, rankings: dict[str, list[str]]) -> RunFile:
    return RunFile(
        system_tag=tag,
        rankings={TopicId(t): make_ranking(docs) for t, docs in rankings.items()},
    )


def synth_corpus(n_docs: int, start: date = date(2019, 1, 1)) -> Corpus:
    """Dated corpus of n docs, one per consecutive day."""
    docs: Corpus = {}
    for i in range(n_docs):
        doc_id = f"d{i:05d}"
        docs[doc_id] = DocMeta(
            length=50 + int(unit_hash("len", doc_id) * 1000),
            timestamp=datetime.combine(
                start + timedelta(days=i), datetime.min.time(), tzinfo=timezone.utc
            ),
        )
    return docs


def synth_qrels(doc_ids: list[str], topics: list[str]) -> Qrels:
    """Pseudo-random judgments: ~5%% of docs relevant per topic (grade 1 or
    2), the next ~5%% judged non-relevant (grade 0)."""
    by_topic: dict[TopicId, dict[DocId, int]] = {}
    for topic in topics:
        grades: dict[DocId, int] = {}
        for doc in doc_ids:
            u = unit_hash("qrel", topic, doc)
            if u < 0.015:
                grades[doc] = 2
            elif u < 0.05:
                grades[doc] = 1
            elif u < 0.10:
                grades[doc] = 0
        if grades:
            by_topic[topic] = grades
    return Qrels(by_topic)


def synth_run(tag: str, doc_ids: list[str], topics: list[str], depth: int = 100) -> RunFile:
    """A synthetic retrieval system: per topic, docs ranked by a
    deterministic pseudo-score keyed by (system, topic, doc)."""
    rankings: dict[TopicId, Ranking] = {}
    for topic in topics:
        scored = sorted(
            ((unit_hash("score", tag, topic, doc), doc) for doc in doc_ids),
            key=lambda pair: (-pair[0], pair[1]),
        )[:depth]
        rankings[topic] = Ranking(
            tuple(doc for _, doc in scored), tuple(score for score, _ in scored)
        )
    return RunFile(system_tag=tag, rankings=rankings)


def make_environment(
    label: str,
    corpus: Corpus,
    qrels: Qrels,
    topic_ids: list[str] | None = None,
) -> EvaluationEnvironment:
    topics = dict.fromkeys(sorted(qrels.topics()) if topic_ids is None else topic_ids)
    return EvaluationEnvironment(label=label, corpus=corpus, topics=topics, qrels=qrels)


class NoDocMeta:
    """Stand-in for ``ingest.DocMeta`` on paths that keep only doc ids."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("DocMeta built on a path that keeps only doc ids")


class UnderflowingScores:
    """Stand-in for ``effectiveness._score_judged``, which scores each run
    of a change matrix: every run scores 0.5 on q1 and 0 on q2 under
    every measure, except that the pivot zpivot scores 1.27e-225 on q2.
    The paired differences to the pivot, 0 and -1.27e-225, vary, but each
    squared deviation from their mean underflows to 0 unless they are
    scaled first. ``calls`` counts the calls it served in this process."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, runs, facts, measures, filtered):
        self.calls += 1
        results = []
        for run in runs:
            scores = {TopicId("q1"): 0.5, TopicId("q2"): 0.0}
            if run.system_tag == "zpivot":
                scores[TopicId("q2")] = 1.27e-225
            results.append(
                {m: PerTopicScores(m, scores) for m in measures}
            )
        return results


def cpu_masks() -> list[list[int]]:
    """Two answers for ``irdrift._workers._cpus``, the CPUs a change
    matrix's tasks may use: one CPU, so that every task runs in the
    calling process, and two, so that one worker process is forked. The
    CPUs are allowed ones; where only one is allowed, it is named twice."""
    allowed = sorted(os.sched_getaffinity(0))
    return [allowed[:1], (allowed * 2)[:2]]


CLI_TOPICS = [f"q{i}" for i in range(1, 9)]


def write_cli_fixture(tmp_path, n_docs=60, systems=("alpha", "beta"), labels=("t0", "t1")):
    """Two cumulative environments (half / full corpus) with runs per system."""
    corpus = synth_corpus(n_docs)
    all_ids = sorted(corpus)
    slices = {labels[0]: all_ids[: n_docs // 2], labels[1]: all_ids}
    qrels = synth_qrels(all_ids, CLI_TOPICS)
    config = []
    run_paths = {}
    for label, ids in slices.items():
        (tmp_path / f"{label}.manifest.jsonl").write_text(
            format_manifest({d: corpus[d] for d in ids})
        )
        restricted = qrels.restricted_to_docs(set(ids))
        (tmp_path / f"{label}.qrels.txt").write_text(format_qrels(restricted))
        config.append(
            {
                "label": label,
                "manifest": f"{label}.manifest.jsonl",
                "qrels": f"{label}.qrels.txt",
            }
        )
        for tag in systems:
            run = synth_run(tag, ids, CLI_TOPICS, depth=20)
            path = tmp_path / f"{tag}.{label}.run.txt"
            path.write_text(format_run(run))
            run_paths[(tag, label)] = str(path)
    config_path = tmp_path / "ees.json"
    config_path.write_text(json.dumps(config, indent=2))
    return config_path, run_paths


# Three environments written as literal files, so the diff and simulate
# pins do not depend on how the library builds or writes its types.
# t0 -> t1: d1 changes hash at equal length (updated), d2 changes length
# at equal hash (not updated: the hashes decide), d3 has no hash and
# changes length (updated), d4 loses its hash and changes length
# (updated), d6 is deleted, d7 and d8 are created. q2 is reworded, q3
# removed, q4 gains text (not updated: one side has none), q5 added;
# (q1, d1) and (q4, d5) are regraded, (q3, d4) removed, two pairs added.
# t2 adds d9 and has no topic file, so its topics come from its qrels.
CHURN_FILES = {
    "t0.manifest.jsonl": (
        '{"doc_id": "d1", "length": 100, "timestamp": "2020-01-01", "hash": "aa"}\n'
        '{"doc_id": "d2", "length": 200, "timestamp": "2020-01-02", "hash": "bb"}\n'
        '{"doc_id": "d3", "length": 300, "timestamp": "2020-01-03"}\n'
        '{"doc_id": "d4", "length": 400, "timestamp": "2020-01-04", "hash": "dd"}\n'
        '{"doc_id": "d5", "length": 500}\n'
        '{"doc_id": "d6", "length": 600, "hash": "ff"}\n'
    ),
    "t1.manifest.jsonl": (
        '{"doc_id": "d1", "length": 100, "timestamp": "2020-01-01", "hash": "a2"}\n'
        '{"doc_id": "d2", "length": 210, "timestamp": "2020-01-02", "hash": "bb"}\n'
        '{"doc_id": "d3", "length": 310, "timestamp": "2020-01-03"}\n'
        '{"doc_id": "d4", "length": 410, "timestamp": "2020-01-04"}\n'
        '{"doc_id": "d5", "length": 500}\n'
        '{"doc_id": "d7", "length": 700, "hash": "77"}\n'
        '{"doc_id": "d8", "length": 800}\n'
    ),
    "t0.topics.jsonl": (
        '{"topic_id": "q1", "text": "rain"}\n'
        '{"topic_id": "q2", "text": "snow"}\n'
        '{"topic_id": "q3", "text": "wind"}\n'
        '{"topic_id": "q4"}\n'
    ),
    "t1.topics.jsonl": (
        '{"topic_id": "q1", "text": "rain"}\n'
        '{"topic_id": "q2", "text": "snowfall"}\n'
        '{"topic_id": "q4", "text": "fog"}\n'
        '{"topic_id": "q5", "text": "hail"}\n'
    ),
    "t0.qrels.txt": "q1 0 d1 1\nq1 0 d2 0\nq2 0 d3 2\nq3 0 d4 1\nq4 0 d5 0\n",
    "t1.qrels.txt": "q1 0 d1 2\nq1 0 d2 0\nq2 0 d3 2\nq2 0 d7 1\nq4 0 d5 1\nq5 0 d8 1\n",
}
CHURN_FILES["t2.manifest.jsonl"] = (
    CHURN_FILES["t1.manifest.jsonl"] + '{"doc_id": "d9", "length": 900}\n'
)
CHURN_CONFIG = [
    {"label": "t0", "manifest": "t0.manifest.jsonl", "qrels": "t0.qrels.txt",
     "topics": "t0.topics.jsonl"},
    {"label": "t1", "manifest": "t1.manifest.jsonl", "qrels": "t1.qrels.txt",
     "topics": "t1.topics.jsonl"},
    {"label": "t2", "manifest": "t2.manifest.jsonl", "qrels": "t1.qrels.txt"},
]

# A dated corpus for `simulate`: shared and offset timestamps, hashes on
# some documents and a non-ASCII id, which the manifest writer escapes.
DATED_MANIFEST = (
    '{"doc_id": "a1", "length": 10, "timestamp": "2021-03-01", "hash": "h1"}\n'
    '{"doc_id": "b2", "length": 20, "timestamp": "2021-03-01"}\n'
    '{"doc_id": "c3", "length": 30, "timestamp": "2021-03-02T23:30:00-02:00"}\n'
    '{"doc_id": "d\\u00e94", "length": 40, "timestamp": "2021-03-03T08:00:00Z", "hash": "h4"}\n'
    '{"doc_id": "e5", "length": 0, "timestamp": "2021-03-04"}\n'
    '{"doc_id": "f6", "length": 60, "timestamp": "2021-03-05T12:00:00+05:30", "hash": "h6"}\n'
    '{"doc_id": "g7", "length": 70, "timestamp": "2021-03-06"}\n'
)
DATED_QRELS = (
    "q1 0 a1 1\nq1 0 c3 0\nq1 0 g7 2\nq2 0 dé4 1\nq2 0 f6 0\nq3 0 g7 1\n"
)


def write_churn_fixture(tmp_path):
    for name, text in CHURN_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    config = tmp_path / "ees.json"
    config.write_text(json.dumps(CHURN_CONFIG))
    return config


def change_argv(config, runs, scenario, labels=("t0", "t1"), systems=("alpha", "beta")):
    args = ["change", "--config", str(config), "--scenario", scenario]
    for tag in systems:
        for label in labels:
            args += ["--run", f"{tag}:{label}:{runs[(tag, label)]}"]
    return args


def pivot_argv(config, runs):
    """dtq-prime over alpha and beta with zpivot as the pivot."""
    args = change_argv(config, runs, "dtq-prime")
    for label in ("t0", "t1"):
        args += ["--pivot-run", f"{label}={runs[('zpivot', label)]}"]
    return args


# lengths at and around the blocking of NumPy's pairwise summation: fewer
# than 8 values, 8 accumulators up to 128, and the split above 128
PAIRWISE_LENGTHS = [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 256, 257, 400]

# no shrink phase: a failing list of a few hundred floats reads no better
# shrunk, and shrinking one takes minutes
NO_SHRINK = settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))


def score_list_pairs(min_size: int):
    """Two equally long lists of scores in [0, 1], of a PAIRWISE_LENGTHS length."""
    score = st.floats(0.0, 1.0)
    return st.sampled_from([n for n in PAIRWISE_LENGTHS if n >= min_size]).flatmap(
        lambda n: st.tuples(
            st.lists(score, min_size=n, max_size=n), st.lists(score, min_size=n, max_size=n)
        )
    )
