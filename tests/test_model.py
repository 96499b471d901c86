"""Domain type invariants and the environment validator."""

import math
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irdrift.change import ChangeScores, RboConfig
from irdrift.diff import ChangeSummary, ComponentDiff
from irdrift.ingest import EEConfig, parse_manifest
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
    Scenario,
    TopicId,
    _check_id,
    validate_environment,
)
from irdrift.report import ChangeReport, LongitudinalMatrix
from irdrift.significance import TestResult
from irdrift.simulate import SimulationPlan

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


_DIFF = ComponentDiff(frozenset({"a"}), frozenset(), frozenset({"b"}), 3)
_REPORT = ChangeReport("alpha", "t0", Scenario.DTQ_PRIME)

# every record type: a valid value's fields, an invalid replacement of
# some of them (None for a type without checks) and the message that
# rejects it
RECORDS = [
    (DocMeta, {"length": 3, "timestamp": None, "content_hash": None}, {"length": -1},
     "DocMeta length must be >= 0, got -1"),
    (Ranking, {"docs": ("a", "b"), "scores": (2.0, 1.0)}, {"scores": (1.0, 2.0)},
     "Ranking: scores must be non-increasing, got 2.0 after 1.0"),
    (RunFile, {"system_tag": "alpha", "rankings": {"1": Ranking(("a",), (1.0,))}}, {"system_tag": ""},
     "RunFile system_tag must be non-empty"),
    (Qrels, {"by_topic": {"1": {"a": 1}}}, {"by_topic": {"1": {}}},
     "Qrels topic 1 has no judged docs"),
    (EvaluationEnvironment,
     {"label": "t0", "corpus": None, "topics": {"1": None}, "qrels": Qrels({"1": {"a": 1}})},
     {"label": ""}, "EvaluationEnvironment label must be non-empty"),
    (MeasureSpec, {"kind": MeasureKind.PRECISION, "cutoff": 10}, {"cutoff": None},
     "precision measure requires cutoff >= 1"),
    (PerTopicScores, {"measure": MeasureSpec.parse("p@10"), "scores": {"1": 0.5}},
     {"scores": {"1": 1.5}},
     "per-topic score must lie in [0, 1], got 1.5 for 1"),
    (EEConfig,
     {"label": "t0", "manifest_path": Path("m"), "qrels_path": Path("q"), "topics_path": None},
     {"label": ""}, "EEConfig label must be non-empty"),
    (RboConfig, {"phi": 0.9, "depth": 100, "normalize": True}, {"phi": 1.0},
     "phi must lie strictly between 0 and 1, got 1.0"),
    (ChangeScores, {"per_topic": {"1": 0.5}}, {"per_topic": {}},
     "ChangeScores needs at least one topic"),
    (ComponentDiff,
     {"created": frozenset({"a"}), "updated": frozenset(), "deleted": frozenset({"b"}),
      "total_from": 3},
     {"deleted": frozenset({"a"})}, "created and deleted sets must be disjoint"),
    (ChangeSummary,
     {"from_label": "t0", "to_label": "t1", "documents": _DIFF, "topics": _DIFF,
      "qrels": _DIFF},
     None, None),
    (ChangeReport, _REPORT._asdict(), {"rbo_mean": 0.5},
     "rank overlap and RMSE belong to document-only rows; qrels-change rows compare "
     "against a moving recall base"),
    (LongitudinalMatrix,
     {"collection_label": "c", "rows": (_REPORT, _REPORT._replace(system_tag="beta"))},
     {"rows": (_REPORT._replace(system_tag="beta"), _REPORT)},
     "system blocks must be ordered by ascending tag"),
    (TestResult, {"t_statistic": 1.0, "p_value": 0.5, "adjusted_alpha": 0.05, "n": 10},
     {"p_value": 2.0}, "p_value must lie in [0, 1], got 2.0"),
    (SimulationPlan, {"num_slices": 2, "boundaries": None}, {"num_slices": 1},
     "num_slices must be >= 2, got 1"),
]


@pytest.mark.parametrize(
    "record, fields, bad, message", RECORDS, ids=[case[0].__name__ for case in RECORDS]
)
def test_every_record_is_a_checked_immutable_tuple(record, fields, bad, message):
    value = record(**fields)
    assert value == tuple(fields.values())
    assert record._fields == tuple(fields)
    assert record._make(fields.values()) == value == value._replace()
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    assert all(pickle.loads(pickle.dumps(value, p)) == value for p in protocols)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    if bad is None:
        return
    invalid = {**fields, **bad}
    unchecked = tuple.__new__(record, invalid.values())
    paths = [
        lambda: record(**invalid),
        lambda: record._make(invalid.values()),
        lambda: value._replace(**bad),
        # a tuple built without the checks, pickled and read back
        *(lambda p=p: pickle.loads(pickle.dumps(unchecked, p)) for p in protocols),
    ]
    for build in paths:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_record_lengths_count_their_contents_and_reports_own_their_maps():
    assert len(Ranking(("a", "b", "c"), (3.0, 2.0, 1.0))) == 3
    assert len(Qrels({"1": {"a": 1, "b": 0}, "2": {"c": 2}})) == 3
    first = ChangeReport("alpha", "t0", Scenario.DTQ)
    second = ChangeReport("alpha", "t1", Scenario.DTQ)
    for name in ("rmse", "arp", "re_delta", "delta_ri", "significant"):
        assert getattr(first, name) == {}
        assert getattr(first, name) is not getattr(second, name)


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("p@x", "bad measure cutoff in 'p@x'"),
        ("p", "precision measure requires cutoff >= 1"),
        ("ndcg@0", "ndcg cutoff must be >= 1 when given"),
        ("bpref@5", "bpref takes no cutoff"),
        ("map", "unknown measure 'map' (expected p@K, ndcg[@K], bpref)"),
    ],
)
def test_measure_parse_leaves_the_cutoff_rules_to_the_record(text, message):
    with pytest.raises(ValueError) as exc:
        MeasureSpec.parse(text)
    assert str(exc.value) == message


# the spellings int() took as a cutoff, which name never gives back
NON_CANONICAL_CUTOFFS = ["p@1_0", "p@+5", "p@ 5", "p@\uff10\uff15", "ndcg@", "p@05"]


@pytest.mark.parametrize("text", NON_CANONICAL_CUTOFFS)
def test_measure_parse_takes_a_cutoff_only_as_ascii_digits_without_a_leading_zero(text):
    with pytest.raises(ValueError) as exc:
        MeasureSpec.parse(text)
    assert str(exc.value) == f"bad measure cutoff in {text!r}"


MEASURE_TEXT = st.builds(
    "".join,
    st.lists(
        st.sampled_from(["p", "P", "ndcg", "NDCG", "bpref", "@", "0", "1", "5", "9", " ", "+",
                         "-", "_", "\uff15", "\u0665", "\u00b2", "\t"]),
        max_size=6,
    ),
)


@given(MEASURE_TEXT)
@example("p@1_0")
@example("p@+5")
@example("p@ 5")
@example("p@\uff10\uff15")
@example("ndcg@")
@example("p@05")
def test_every_accepted_measure_name_is_its_canonical_name(text):
    try:
        spec = MeasureSpec.parse(text)
    except ValueError:
        return
    assert text.strip().lower() == spec.name


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
