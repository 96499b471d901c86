"""Domain type invariants and the environment validator."""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irdrift.ingest import parse_manifest
from irdrift.model import (
    DocId,
    DocMeta,
    EvaluationEnvironment,
    MeasureKind,
    MeasureSpec,
    PerTopicScores,
    Qrels,
    Ranking,
    RunFile,
    TopicId,
    _check_id,
    validate_environment,
)

from conftest import make_qrels, make_ranking


def test_doc_id_rejects_empty_and_whitespace():
    with pytest.raises(ValueError, match="non-empty"):
        _check_id("", "DocId")
    with pytest.raises(ValueError, match="whitespace"):
        _check_id("a b", "DocId")
    with pytest.raises(ValueError, match="whitespace"):
        _check_id("1\t2", "TopicId")
    assert _check_id("d-1", "DocId") == "d-1"
    with pytest.raises(ValueError) as exc:
        _check_id("1\t2", "TopicId")
    assert str(exc.value) == "TopicId must not contain whitespace: '1\\t2'"
    with pytest.raises(ValueError) as exc:
        _check_id("", "DocId")
    assert str(exc.value) == "DocId must be non-empty"


def test_ranking_rejects_duplicate_docs():
    with pytest.raises(ValueError, match="duplicate doc id"):
        make_ranking(["a", "b", "a"])


def test_ranking_rejects_increasing_scores():
    with pytest.raises(ValueError, match="non-increasing"):
        make_ranking(["a", "b"], scores=[1.0, 2.0])


def test_ranking_allows_score_ties():
    r = make_ranking(["a", "b"], scores=[1.0, 1.0])
    assert r.docs == ("a", "b")


def test_ranking_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="^Ranking: 2 docs but 1 scores$"):
        Ranking(("a", "b"), (1.0,))


# a small alphabet makes duplicate ids common; a few shared values make
# score ties common, 0.0 against -0.0 included, and NaN and the
# infinities common enough to hide between finite scores
ranking_doc = st.sampled_from("abcde")
ranking_score = st.one_of(
    st.sampled_from([2.0, 1.0, 0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]),
    st.floats(),
)


@settings(deadline=None)
@given(st.lists(st.tuples(ranking_doc, ranking_score), max_size=6), st.sampled_from([0, 0, 1, -1]))
def test_ranking_accepts_exactly_unique_docs_with_non_increasing_scores(entries, extra_scores):
    docs = tuple(doc for doc, _ in entries)
    scores = tuple(score for _, score in entries)
    # one score too many or too few now and then
    scores = scores + (0.0,) if extra_scores > 0 else scores[: len(scores) + extra_scores]
    if len(docs) != len(scores):
        with pytest.raises(ValueError, match=" docs but "):
            Ranking(docs, scores)
        return
    # the first position holding a repeated doc, a non-finite score or a
    # score above its predecessor; a repeated doc is reported before its
    # score, and a non-finite score before the order
    faults = [
        i
        for i in range(len(docs))
        if docs[i] in docs[:i]
        or not math.isfinite(scores[i])
        or (i > 0 and scores[i] > scores[i - 1])
    ]
    if not faults:
        ranking = Ranking(docs, scores)
        assert (ranking.docs, ranking.scores, len(ranking)) == (docs, scores, len(docs))
        return
    i = faults[0]
    if docs[i] in docs[:i]:
        expected = f"Ranking: duplicate doc id {docs[i]}"
    elif not math.isfinite(scores[i]):
        expected = f"Ranking: non-finite score {scores[i]} for doc {docs[i]}"
    else:
        expected = (
            f"Ranking: scores must be non-increasing, got {scores[i]} after {scores[i - 1]}"
        )
    with pytest.raises(ValueError) as exc:
        Ranking(docs, scores)
    assert str(exc.value) == expected


def test_empty_ranking_is_valid():
    assert len(make_ranking([])) == 0


def test_run_file_invariants():
    with pytest.raises(ValueError, match="system_tag"):
        RunFile(system_tag="", rankings={})


def test_qrels_rejects_negative_grade():
    with pytest.raises(ValueError, match=">= 0"):
        make_qrels({("1", "d7"): -1})


def test_qrels_topic_helpers():
    q = make_qrels({("1", "a"): 2, ("1", "b"): 0, ("2", "c"): 1})
    assert q.topics() == {"1", "2"}
    assert len(q) == 3
    assert q.by_topic["1"] == {"a": 2, "b": 0}
    # topic 2 keeps no judged doc, so it is dropped
    assert q.restricted_to_docs({DocId("a")}).by_topic == {"1": {"a": 2}}


def test_doc_meta_rejects_negative_length():
    with pytest.raises(ValueError, match="length"):
        DocMeta(length=-1)


@pytest.mark.parametrize("length", [True, False, 3.5, 3.0, "3", None])
def test_doc_meta_rejects_non_integer_length(length):
    # the manifest writer would render these as lines its parser rejects
    with pytest.raises(ValueError, match="^DocMeta length must be an integer, got "):
        DocMeta(length=length)


@pytest.mark.parametrize("content_hash", [5, b"ff", ["ff"]])
def test_doc_meta_rejects_non_string_hash(content_hash):
    with pytest.raises(ValueError, match="^DocMeta content_hash must be a string, got "):
        DocMeta(length=1, content_hash=content_hash)


BAD_DOC_META = [
    ({"length": True}, "^DocMeta length must be an integer, got True$"),
    ({"length": 3.0}, "^DocMeta length must be an integer, got 3.0$"),
    ({"length": -1}, "^DocMeta length must be >= 0, got -1$"),
    ({"content_hash": b"ff"}, "^DocMeta content_hash must be a string, got b'ff'$"),
]
DOC_META_PATHS = {
    "call": lambda fields: DocMeta(**fields),
    "make": lambda fields: DocMeta._make(fields.values()),
    "replace": lambda fields: DocMeta(7, None, "ab")._replace(**fields),
}


@pytest.mark.parametrize("path", DOC_META_PATHS)
@pytest.mark.parametrize("bad, message", BAD_DOC_META)
def test_doc_meta_checks_hold_on_every_constructor_path(path, bad, message):
    fields = {"length": 1, "timestamp": None, "content_hash": None, **bad}
    with pytest.raises(ValueError, match=message):
        DOC_META_PATHS[path](fields)
    fine = {"length": 2, "timestamp": None, "content_hash": "ff"}
    assert DOC_META_PATHS[path](fine) == DocMeta(2, None, "ff")


def test_doc_meta_is_an_immutable_tuple_equal_to_the_parsed_value():
    meta = DocMeta(length=3)
    for field in ("length", "timestamp", "content_hash", "extra"):
        with pytest.raises(AttributeError):
            setattr(meta, field, 4)
    assert meta == (3, None, None) == parse_manifest(['{"doc_id": "d1", "length": 3}'])["d1"]
    assert pickle.loads(pickle.dumps(meta)) == meta


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
        PerTopicScores(m, {TopicId("1"): 1.5})


def _tiny_env(topics_order: list[str]) -> EvaluationEnvironment:
    corpus = {"d1": DocMeta(length=3)}
    topics = dict.fromkeys(topics_order)
    qrels = make_qrels({("1", "d1"): 1})
    return EvaluationEnvironment(label="t0", corpus=corpus, topics=topics, qrels=qrels)


def test_environment_equality_ignores_map_order():
    assert _tiny_env(["1", "2"]) == _tiny_env(["2", "1"])


def test_validate_empty_environment_is_clean():
    ee = EvaluationEnvironment(
        label="t0", corpus={}, topics={}, qrels=Qrels({})
    )
    assert validate_environment(ee) == []


def test_validate_reports_qrels_topic_missing_from_topic_set():
    corpus = {"d1": DocMeta(length=3)}
    ee = EvaluationEnvironment(
        label="t0", corpus=corpus, topics={}, qrels=make_qrels({("9", "d1"): 1})
    )
    assert validate_environment(ee) == ["qrels topic 9 does not appear in the topic set"]


def test_validate_reports_judged_doc_missing_from_corpus():
    ee = EvaluationEnvironment(
        label="t0",
        corpus={},
        topics={"1": None},
        qrels=make_qrels({("1", "ghost"): 1}),
    )
    assert validate_environment(ee) == [
        "judged document ghost is absent from the corpus snapshot"
    ]


def test_validate_reads_the_given_doc_ids_in_place_of_the_corpus():
    qrels = make_qrels({("1", "d1"): 1, ("1", "ghost"): 0})
    topics = {"1": None}
    corpus = {"d1": DocMeta(length=3)}
    full = EvaluationEnvironment(label="t0", corpus=corpus, topics=topics, qrels=qrels)
    lean = EvaluationEnvironment(label="t0", corpus=None, topics=topics, qrels=qrels)
    assert validate_environment(lean, {"d1"}) == validate_environment(full)
    assert validate_environment(full) == [
        "judged document ghost is absent from the corpus snapshot"
    ]
    # the ids stand in for the snapshot's
    assert validate_environment(full, {"d1", "ghost"}) == []
    with pytest.raises(ValueError, match="carries no corpus"):
        validate_environment(lean)
