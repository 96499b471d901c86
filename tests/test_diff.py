"""CRUD diffing of documents, topics, and qrels."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irdrift.diff import (
    ComponentDiff,
    diff_documents,
    diff_qrels,
    diff_topics,
    summarize,
)
from irdrift.model import Corpus, DocMeta, Qrels

from conftest import make_environment, make_qrels, synth_corpus, synth_qrels


def corpus(entries: dict[str, int], hashes: dict[str, str] | None = None) -> Corpus:
    hashes = hashes or {}
    return {d: DocMeta(length=n, content_hash=hashes.get(d)) for d, n in entries.items()}


def test_diff_documents_identity():
    a = corpus({"d1": 10, "d2": 20})
    d = diff_documents(a, a)
    assert (d.created, d.updated, d.deleted) == (frozenset(), frozenset(), frozenset())
    assert d.relative_delta == 0.0


def test_diff_documents_create_update():
    a = corpus({"d1": 10})
    b = corpus({"d1": 12, "d2": 5})
    d = diff_documents(a, b)
    assert d.created == {"d2"}
    assert d.updated == {"d1"}
    assert d.deleted == frozenset()
    assert d.total_to == 2


def test_diff_documents_hash_takes_precedence_over_length():
    same_length_new_hash = diff_documents(
        corpus({"d1": 10}, {"d1": "aa"}), corpus({"d1": 10}, {"d1": "bb"})
    )
    assert same_length_new_hash.updated == {"d1"}
    new_length_same_hash = diff_documents(
        corpus({"d1": 10}, {"d1": "aa"}), corpus({"d1": 99}, {"d1": "aa"})
    )
    assert new_length_same_hash.updated == frozenset()
    # hash on one side only: fall back to lengths
    one_sided = diff_documents(
        corpus({"d1": 10}, {"d1": "aa"}), corpus({"d1": 10})
    )
    assert one_sided.updated == frozenset()


def test_diff_topics_pure_addition():
    a = dict.fromkeys(map(str, range(30)))
    b = dict.fromkeys(map(str, range(35)))
    d = diff_topics(a, b)
    assert len(d.created) == 5 and not d.updated and not d.deleted
    assert d.relative_delta == pytest.approx(5 / 30)


def test_diff_topics_identity_and_text_update():
    a = {"1": "rain"}
    assert diff_topics(a, a).updated == frozenset()
    d = diff_topics(a, {"1": "acid rain"})
    assert d.updated == {"1"}
    # missing text on either side never counts as an update
    assert diff_topics(a, {"1": None}).updated == frozenset()


def test_diff_qrels_update_keeps_totals():
    a = make_qrels({("1", "d1"): 1, ("1", "d2"): 0})
    b = make_qrels({("1", "d1"): 0, ("1", "d2"): 0})
    d = diff_qrels(a, b)
    assert d.updated == {("1", "d1")}
    assert d.total_from == d.total_to == 2
    assert d.relative_delta == 0.0


def test_diff_qrels_full_deletion():
    a = make_qrels({("1", "d1"): 1, ("2", "d2"): 1})
    d = diff_qrels(a, make_qrels({}))
    assert len(d.deleted) == 2
    assert d.relative_delta == -1.0


def test_diff_qrels_pure_addition_delta():
    a = make_qrels({("1", f"d{i}"): 1 for i in range(10)})
    b = make_qrels({("1", f"d{i}"): 1 for i in range(26)})
    assert diff_qrels(a, b).relative_delta == pytest.approx(1.6)


def flat_pair_diff(a: Qrels, b: Qrels) -> tuple:
    """(created, updated, deleted, total_from, total_to) as the qrels diff
    was first written: both sides flattened into (topic, doc) -> grade maps."""
    pairs_a, pairs_b = (
        {(t, d): g for t, grades in q.by_topic.items() for d, g in grades.items()}
        for q in (a, b)
    )
    common = pairs_a.keys() & pairs_b.keys()
    updated = {pair for pair in common if pairs_a[pair] != pairs_b[pair]}
    return (
        pairs_b.keys() - pairs_a.keys(), updated, pairs_a.keys() - pairs_b.keys(),
        len(pairs_a), len(pairs_b),
    )


grade_maps = st.dictionaries(st.sampled_from("abcde"), st.integers(0, 3), min_size=1, max_size=5)
qrels_maps = st.dictionaries(st.sampled_from("1234"), grade_maps, max_size=4)


@st.composite
def qrels_pairs(draw):
    """Two qrels whose topics are kept equal, dropped, re-judged or added."""
    a = draw(qrels_maps)
    b = {}
    for topic, grades in a.items():
        fate = draw(st.sampled_from(["equal", "deleted", "rejudged"]))
        if fate == "equal":
            b[topic] = dict(grades)
        elif fate == "rejudged":
            # shares docs with `grades` often, so some grades change
            b[topic] = draw(grade_maps)
    for topic, grades in draw(qrels_maps).items():
        b.setdefault(topic, grades)  # a created topic unless it was in `a`
    return Qrels(a), Qrels(b)


@settings(deadline=None, max_examples=300)
@given(qrels_pairs())
@example((Qrels({}), Qrels({})))
@example((Qrels({}), Qrels({"1": {"a": 1}})))
@example((Qrels({"1": {"a": 1}, "2": {"b": 0}}), Qrels({})))
@example((Qrels({"1": {"a": 1, "b": 2}}), Qrels({"1": {"a": 1, "b": 0, "c": 2}})))
@example((Qrels({"1": {"a": 1}}), Qrels({"1": {"a": 1}, "2": {"a": 3}})))
def test_diff_qrels_matches_the_flat_pair_oracle(pair):
    a, b = pair
    d = diff_qrels(a, b)
    assert (d.created, d.updated, d.deleted, d.total_from, d.total_to) == flat_pair_diff(a, b)


def test_summarize_identity():
    docs = synth_corpus(10)
    qrels = synth_qrels(list(docs), ["1"])
    ee = make_environment("t0", docs, qrels)
    other = make_environment("t0b", docs, qrels)
    s = summarize(ee, other)
    for diff in (s.documents, s.topics, s.qrels):
        assert not diff.created and not diff.updated and not diff.deleted
    assert (s.from_label, s.to_label) == ("t0", "t0b")


def test_summarize_rejects_an_environment_without_corpus():
    docs = synth_corpus(10)
    qrels = synth_qrels(list(docs), ["1"])
    ee = make_environment("t0", docs, qrels)
    lean = ee._replace(label="t1", corpus=None)
    for pair in ((ee, lean), (lean, ee)):
        with pytest.raises(ValueError, match="environment t1 carries no corpus snapshot"):
            summarize(*pair)


def test_summarize_append_only_has_no_deletions():
    big = synth_corpus(20)
    small = dict(sorted(big.items())[:10])
    qrels = synth_qrels(list(big), ["1"])
    a = make_environment("t0", small, qrels.restricted_to_docs(set(small)))
    b = make_environment("t1", big, qrels)
    s = summarize(a, b)
    assert s.documents.deleted == frozenset()
    assert len(s.documents.created) == 10


def test_summarize_shrinking_corpus_negative_delta():
    big = synth_corpus(20)
    small = dict(sorted(big.items())[:10])
    qrels = make_qrels({})
    s = summarize(
        make_environment("t0", big, qrels, topic_ids=["1"]),
        make_environment("t2", small, qrels, topic_ids=["1"]),
    )
    assert s.documents.relative_delta < 0


def test_diff_swap_symmetry():
    a = corpus({"d1": 1, "d2": 2, "d3": 3})
    b = corpus({"d2": 9, "d3": 3, "d4": 4})
    forward = diff_documents(a, b)
    backward = diff_documents(b, a)
    assert forward.created == backward.deleted
    assert forward.deleted == backward.created
    assert forward.updated == backward.updated


def test_diff_totals_telescope_across_chain():
    a = corpus({"d1": 1, "d2": 2})
    b = corpus({"d2": 2, "d3": 3, "d4": 4})
    c = corpus({"d4": 4})
    ab = diff_documents(a, b)
    bc = diff_documents(b, c)
    ac = diff_documents(a, c)
    net_ab = len(ab.created) - len(ab.deleted)
    net_bc = len(bc.created) - len(bc.deleted)
    assert ac.total_to == len(c)
    assert ab.total_from + net_ab + net_bc == ac.total_to


def test_component_diff_invariant_enforcement():
    with pytest.raises(ValueError, match="disjoint"):
        ComponentDiff(
            created=frozenset({"x"}),
            updated=frozenset(),
            deleted=frozenset({"x"}),
            total_from=1,
        )
    # more deletions than the first snapshot held
    with pytest.raises(ValueError, match="totals must be >= 0"):
        ComponentDiff(frozenset(), frozenset(), frozenset({"x", "y"}), total_from=1)


def test_component_diff_empty_from_delta():
    none = frozenset()
    assert ComponentDiff(none, none, none, 0).relative_delta == 0.0
    grown = ComponentDiff(frozenset({"x"}), none, none, 0)
    assert (grown.total_to, grown.relative_delta) == (1, math.inf)
    shrunk = ComponentDiff(none, frozenset({"y"}), frozenset({"x"}), 3)
    assert (shrunk.total_to, shrunk.relative_delta) == (2, (2 - 3) / 3)
