"""Append-only environment simulation and topic intersection."""

from datetime import datetime, timezone

import pytest

from irdrift.diff import diff_documents, summarize
from irdrift.model import DocMeta, EvaluationEnvironment, Qrels
from irdrift.simulate import (
    SimulationPlan,
    SimulationWarning,
    common_topics,
    split_append_only,
)

from conftest import make_environment, make_qrels, synth_corpus, synth_qrels


def _utc(year, month, day):
    return datetime(year, month, day, tzinfo=timezone.utc)


def _base_env(n_docs=9) -> EvaluationEnvironment:
    corpus = synth_corpus(n_docs)
    qrels = synth_qrels(sorted(corpus), ["1", "2"])
    return make_environment("base", corpus, qrels, topic_ids=["1", "2"])


def test_equal_count_split_sizes():
    slices = split_append_only(_base_env(9), SimulationPlan(num_slices=3))
    assert [len(ee.corpus) for ee in slices] == [3, 6, 9]
    assert [ee.label for ee in slices] == ["t0", "t1", "t2"]


def test_append_only_diffs_have_no_deletes_or_updates():
    slices = split_append_only(_base_env(10), SimulationPlan(num_slices=3))
    for earlier, later in zip(slices, slices[1:]):
        d = diff_documents(earlier.corpus, later.corpus)
        assert d.deleted == frozenset()
        assert d.updated == frozenset()
    # created docs across consecutive diffs add up to final minus first
    created = set()
    for earlier, later in zip(slices, slices[1:]):
        created |= diff_documents(earlier.corpus, later.corpus).created
    assert created == slices[-1].corpus.keys() - slices[0].corpus.keys()


def test_topics_are_copied_unchanged():
    base = _base_env(6)
    for ee in split_append_only(base, SimulationPlan(num_slices=2)):
        assert ee.topics == base.topics


def test_qrels_restricted_to_present_docs():
    docs = {f"d{i}": DocMeta(length=1, timestamp=_utc(2019, 1, i + 1)) for i in range(9)}
    base = EvaluationEnvironment(
        label="base",
        corpus=docs,
        topics={"1": None},
        # d8 is dated in the last third: its pair may only appear in t2
        qrels=make_qrels({("1", "d0"): 1, ("1", "d8"): 1}),
    )
    t0, t1, t2 = split_append_only(base, SimulationPlan(num_slices=3))
    assert "d8" not in t0.qrels.by_topic["1"]
    assert "d8" not in t1.qrels.by_topic["1"]
    assert "d8" in t2.qrels.by_topic["1"]

    def pairs(ee):
        return {(t, d) for t, grades in ee.qrels.by_topic.items() for d in grades}

    # restriction is monotone
    assert pairs(t0) <= pairs(t1) <= pairs(t2)


def test_missing_timestamp_names_document():
    docs = {
        "dated": DocMeta(length=1, timestamp=_utc(2019, 1, 1)),
        "undated": DocMeta(length=1),
    }
    base = EvaluationEnvironment(
        label="base", corpus=docs, topics={}, qrels=Qrels({})
    )
    with pytest.raises(ValueError, match="undated"):
        split_append_only(base, SimulationPlan(num_slices=2))


def test_more_slices_than_distinct_timestamps_is_error():
    stamp = _utc(2020, 5, 5)
    docs = {f"d{i}": DocMeta(length=1, timestamp=stamp) for i in range(6)}
    base = EvaluationEnvironment(
        label="base", corpus=docs, topics={}, qrels=Qrels({})
    )
    with pytest.raises(ValueError, match="distinct"):
        split_append_only(base, SimulationPlan(num_slices=2))


def test_timestamp_ties_break_by_doc_id_and_sizes_stay_balanced():
    # two distinct dates, four docs sharing the earlier one
    docs = {}
    for i, day in enumerate([1, 1, 1, 1, 2]):
        docs[f"d{i}"] = DocMeta(length=1, timestamp=_utc(2019, 1, day))
    base = EvaluationEnvironment(
        label="base", corpus=docs, topics={}, qrels=Qrels({})
    )
    t0, t1 = split_append_only(base, SimulationPlan(num_slices=2))
    assert sorted(t0.corpus) == ["d0", "d1", "d2"]  # earliest ids first
    assert len(t1.corpus) - len(t0.corpus) <= len(t0.corpus)
    assert abs((len(t1.corpus) - len(t0.corpus)) - len(t0.corpus)) <= 1


def test_explicit_boundaries():
    docs = {}
    for i in range(1, 7):
        docs[f"d{i}"] = DocMeta(length=1, timestamp=_utc(2019, i, 1))
    base = EvaluationEnvironment(
        label="base", corpus=docs, topics={}, qrels=Qrels({})
    )
    plan = SimulationPlan(
        num_slices=2, boundaries=(_utc(2019, 3, 15), _utc(2019, 12, 31))
    )
    t0, t1 = split_append_only(base, plan)
    assert sorted(t0.corpus) == ["d1", "d2", "d3"]
    assert len(t1.corpus) == 6


def test_explicit_boundary_before_all_docs_is_error():
    docs = {"d1": DocMeta(length=1, timestamp=_utc(2019, 6, 1))}
    base = EvaluationEnvironment(
        label="base", corpus=docs, topics={}, qrels=Qrels({})
    )
    plan = SimulationPlan(num_slices=2, boundaries=(_utc(2018, 1, 1), _utc(2020, 1, 1)))
    with pytest.raises(ValueError, match="empty"):
        split_append_only(base, plan)


def test_simulation_plan_validation():
    with pytest.raises(ValueError, match="num_slices"):
        SimulationPlan(num_slices=1)
    with pytest.raises(ValueError, match="increasing"):
        SimulationPlan(num_slices=2, boundaries=(_utc(2020, 1, 1), _utc(2019, 1, 1)))
    with pytest.raises(ValueError, match="boundaries"):
        SimulationPlan(num_slices=3, boundaries=(_utc(2019, 1, 1), _utc(2020, 1, 1)))


def test_simulation_plan_rejects_naive_boundaries():
    naive = (datetime(2020, 6, 1), datetime(2021, 6, 1))
    message = "^boundaries must be timezone-aware, got 2020-06-01 00:00:00$"
    with pytest.raises(ValueError, match=message):
        split_append_only(_base_env(4), SimulationPlan(2, boundaries=naive))
    with pytest.raises(ValueError, match="timezone-aware, got 2021-06-01 00:00:00$"):
        SimulationPlan(2, boundaries=(_utc(2020, 6, 1), naive[1]))


def test_append_only_summary_shape():
    slices = split_append_only(_base_env(12), SimulationPlan(num_slices=3))
    s = summarize(slices[0], slices[1])
    assert s.documents.deleted == frozenset()
    assert len(s.documents.created) == s.documents.total_to - s.documents.total_from


def test_common_topics_examples():
    def env(topic_ids):
        return make_environment(
            "e" + "".join(topic_ids), {}, Qrels({}), topic_ids=topic_ids
        )

    assert common_topics([env(["1", "2", "3"])]) == {"1", "2", "3"}
    assert common_topics(
        [env(["1", "2", "3"]), env(["2", "3", "4"]), env(["3"])]
    ) == {"3"}
    with pytest.warns(SimulationWarning, match="common"):
        assert common_topics([env(["1"]), env(["2"])]) == set()
    with pytest.raises(ValueError):
        common_topics([])
