"""Domain type invariants and the environment validator."""

import pytest

from irdrift.model import (
    CorpusSnapshot,
    DocId,
    DocMeta,
    EvaluationEnvironment,
    MeasureKind,
    MeasureSpec,
    PerTopicScores,
    Qrels,
    RankedDoc,
    Ranking,
    RunFile,
    TopicDef,
    TopicId,
    validate_environment,
)

from conftest import make_qrels, make_ranking


def test_doc_id_rejects_empty_and_whitespace():
    with pytest.raises(ValueError, match="non-empty"):
        DocId("")
    with pytest.raises(ValueError, match="whitespace"):
        DocId("a b")
    with pytest.raises(ValueError, match="whitespace"):
        TopicId("1\t2")
    assert DocId("d-1") == "d-1"


def test_ranking_rejects_duplicate_docs():
    with pytest.raises(ValueError, match="duplicate doc id"):
        make_ranking("1", ["a", "b", "a"])


def test_ranking_rejects_bad_ranks():
    with pytest.raises(ValueError, match="ranks must be 1..n"):
        Ranking(
            topic=TopicId("1"),
            entries=(RankedDoc(DocId("a"), 2, 1.0),),
        )


def test_ranking_rejects_increasing_scores():
    with pytest.raises(ValueError, match="non-increasing"):
        make_ranking("1", ["a", "b"], scores=[1.0, 2.0])


def test_ranking_allows_score_ties():
    r = make_ranking("1", ["a", "b"], scores=[1.0, 1.0])
    assert r.docs() == ["a", "b"]


def test_empty_ranking_is_valid():
    assert len(make_ranking("1", [])) == 0


def test_run_file_invariants():
    with pytest.raises(ValueError, match="system_tag"):
        RunFile(system_tag="", ee_label="t0", rankings={})
    with pytest.raises(ValueError, match="keyed"):
        RunFile(
            system_tag="s",
            ee_label="t0",
            rankings={TopicId("2"): make_ranking("1", ["a"])},
        )


def test_qrels_rejects_negative_grade():
    with pytest.raises(ValueError, match=">= 0"):
        make_qrels({("1", "d7"): -1})


def test_qrels_topic_helpers():
    q = make_qrels({("1", "a"): 2, ("1", "b"): 0, ("2", "c"): 1})
    assert q.topics() == {"1", "2"}
    assert q.for_topic(TopicId("1")) == {"a": 2, "b": 0}
    assert q.relevant_docs(TopicId("1")) == {"a"}
    assert q.nonrelevant_docs(TopicId("1")) == {"b"}
    assert q.restricted_to_docs({DocId("a")}).judgments == {
        (TopicId("1"), DocId("a")): 2
    }


def test_doc_meta_rejects_negative_length():
    with pytest.raises(ValueError, match="length"):
        DocMeta(doc_id=DocId("d1"), length=-1)


@pytest.mark.parametrize("length", [True, False, 3.5, 3.0, "3", None])
def test_doc_meta_rejects_non_integer_length(length):
    # the manifest writer would render these as lines its parser rejects
    with pytest.raises(ValueError, match="^DocMeta length must be an integer, got "):
        DocMeta(doc_id=DocId("d1"), length=length)


@pytest.mark.parametrize("content_hash", [5, b"ff", ["ff"]])
def test_doc_meta_rejects_non_string_hash(content_hash):
    with pytest.raises(ValueError, match="^DocMeta content_hash must be a string, got "):
        DocMeta(doc_id=DocId("d1"), length=1, content_hash=content_hash)


def test_corpus_snapshot_key_mismatch():
    with pytest.raises(ValueError, match="keyed"):
        CorpusSnapshot({DocId("d1"): DocMeta(doc_id=DocId("d2"), length=0)})


@pytest.mark.parametrize(
    "text,kind,cutoff",
    [
        ("p@10", MeasureKind.PRECISION, 10),
        ("P@5", MeasureKind.PRECISION, 5),
        ("ndcg", MeasureKind.NDCG, None),
        ("ndcg@20", MeasureKind.NDCG, 20),
        ("bpref", MeasureKind.BPREF, None),
    ],
)
def test_measure_parse_and_name(text, kind, cutoff):
    m = MeasureSpec.parse(text)
    assert m.kind is kind and m.cutoff == cutoff
    assert MeasureSpec.parse(m.name) == m


def test_measure_spec_validation():
    with pytest.raises(ValueError):
        MeasureSpec(MeasureKind.PRECISION)  # needs a cutoff
    with pytest.raises(ValueError):
        MeasureSpec(MeasureKind.BPREF, cutoff=10)
    with pytest.raises(ValueError):
        MeasureSpec.parse("map")
    with pytest.raises(ValueError):
        MeasureSpec.parse("p")


def test_per_topic_scores_range():
    m = MeasureSpec.parse("bpref")
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        PerTopicScores(m, "s", "t0", {TopicId("1"): 1.5})


def _tiny_env(topics_order: list[str]) -> EvaluationEnvironment:
    corpus = CorpusSnapshot({DocId("d1"): DocMeta(doc_id=DocId("d1"), length=3)})
    topics = {TopicId(t): TopicDef(topic_id=TopicId(t)) for t in topics_order}
    qrels = make_qrels({("1", "d1"): 1})
    return EvaluationEnvironment(label="t0", corpus=corpus, topics=topics, qrels=qrels)


def test_environment_equality_ignores_map_order():
    assert _tiny_env(["1", "2"]) == _tiny_env(["2", "1"])


def test_validate_empty_environment_is_clean():
    ee = EvaluationEnvironment(
        label="t0", corpus=CorpusSnapshot({}), topics={}, qrels=Qrels({})
    )
    assert validate_environment(ee) == []


def test_validate_reports_qrels_topic_missing_from_topic_set():
    corpus = CorpusSnapshot({DocId("d1"): DocMeta(doc_id=DocId("d1"), length=3)})
    ee = EvaluationEnvironment(
        label="t0", corpus=corpus, topics={}, qrels=make_qrels({("9", "d1"): 1})
    )
    findings = [f for f in validate_environment(ee) if "topic" in f.location]
    assert len(findings) == 1
    assert findings[0].severity == "warning"
    assert "9" in findings[0].message


def test_validate_reports_judged_doc_missing_from_corpus():
    ee = EvaluationEnvironment(
        label="t0",
        corpus=CorpusSnapshot({}),
        topics={TopicId("1"): TopicDef(topic_id=TopicId("1"))},
        qrels=make_qrels({("1", "ghost"): 1}),
    )
    findings = [f for f in validate_environment(ee) if "doc" in f.location]
    assert len(findings) == 1
    assert findings[0].severity == "warning"
