"""The one-pass scoring engine against per-call reference measures.

``score_runs`` computes each topic's judgment facts once and looks each
ranking up in the grades once for every measure. The reference below
scores one (ranking, measure) at a time from the grade map, as the
measures are defined; every per-topic score must carry the same bits.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from irdrift.effectiveness import bpref, evaluate_run, ndcg, precision_at_k, score_runs
from irdrift.model import MeasureKind, MeasureSpec, PerTopicScores, Qrels, Ranking, RunFile

# --- reference: one measure per call, nothing shared between calls ---


def ref_precision_at_k(ranking, grades, k):
    hits = sum(1 for doc in ranking.docs[:k] if grades.get(doc, 0) >= 1)
    return hits / k


def ref_ndcg(ranking, grades, k=None):
    depth = k if k is not None else len(ranking)
    # math.fsum is correctly rounded, so these bits hold on every version
    dcg = math.fsum(
        grades.get(doc, 0) / math.log2(i + 1)
        for i, doc in enumerate(ranking.docs[:depth], start=1)
    )
    ideal = sorted(grades.values(), reverse=True)[:depth]
    idcg = math.fsum(g / math.log2(i + 1) for i, g in enumerate(ideal, start=1))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def ref_bpref(ranking, grades):
    big_r = sum(1 for grade in grades.values() if grade >= 1)
    big_n = len(grades) - big_r
    if big_r == 0:
        return 0.0
    total = 0.0
    nonrel_above = 0
    for doc in ranking.docs:
        grade = grades.get(doc)
        if grade is None:
            continue
        if grade < 1:
            nonrel_above += 1
        elif big_n == 0:
            total += 1.0
        else:
            total += 1.0 - min(nonrel_above, big_r) / min(big_r, big_n)
    return total / big_r


def ref_score(ranking, grades, measure):
    if measure.kind is MeasureKind.PRECISION:
        return ref_precision_at_k(ranking, grades, measure.cutoff)
    if measure.kind is MeasureKind.NDCG:
        return ref_ndcg(ranking, grades, measure.cutoff)
    return ref_bpref(ranking, grades)


def ref_evaluate_run(run, qrels, measure, topic_filter=None):
    eligible = {
        topic for topic, grades in qrels.by_topic.items() if max(grades.values()) >= 1
    }
    topics = (set(run.rankings) if topic_filter is None else topic_filter) & eligible
    scores = {}
    for topic in sorted(topics):
        ranking = run.rankings.get(topic)
        scores[topic] = (
            0.0 if ranking is None else ref_score(ranking, qrels.by_topic[topic], measure)
        )
    return PerTopicScores(measure, scores)


# --- inputs: grades 0-3, unjudged docs, R = 0 and N = 0 topics, ties ---

DOCS = [f"d{i}" for i in range(12)]
TOPICS = ["q0", "q1", "q2", "q3", "q4"]


@st.composite
def qrels_maps(draw):
    by_topic = {}
    for topic in TOPICS:
        kind = draw(st.sampled_from(["mixed", "no relevant", "no non-relevant", "unjudged"]))
        if kind == "unjudged":
            continue
        grade = {
            "mixed": st.integers(0, 3),
            "no relevant": st.just(0),
            "no non-relevant": st.integers(1, 3),
        }[kind]
        by_topic[topic] = draw(st.dictionaries(st.sampled_from(DOCS), grade, min_size=1))
    return Qrels(by_topic)


@st.composite
def runs(draw, tag):
    rankings = {}
    for topic in draw(st.lists(st.sampled_from(TOPICS), unique=True)):
        docs = draw(st.lists(st.sampled_from(DOCS), unique=True))
        # few distinct values, so neighbouring scores often tie
        values = st.sampled_from([0.5, 1.0, 2.0])
        scores = draw(st.lists(values, min_size=len(docs), max_size=len(docs)))
        scores.sort(reverse=True)
        rankings[topic] = Ranking(tuple(docs), tuple(scores))
    return RunFile(tag, rankings)


# cutoffs run past the 12-doc rankings
MEASURES = st.lists(
    st.one_of(
        st.builds(MeasureSpec, st.just(MeasureKind.PRECISION), st.integers(1, 15)),
        st.builds(MeasureSpec, st.just(MeasureKind.NDCG), st.none() | st.integers(1, 15)),
        st.just(MeasureSpec(MeasureKind.BPREF)),
    ),
    min_size=1,
    max_size=4,
)

# filtered topics may be unjudged or missing from every run
FILTERS = st.none() | st.sets(st.sampled_from(TOPICS + ["q9"]))


def bits(scores: PerTopicScores) -> dict[str, str]:
    return {topic: score.hex() for topic, score in scores.scores.items()}


@settings(max_examples=200, deadline=None)
@given(
    qrels=qrels_maps(),
    run_list=st.integers(1, 3).flatmap(lambda n: st.tuples(*(runs(f"s{i}") for i in range(n)))),
    measures=MEASURES,
    topic_filter=FILTERS,
)
def test_score_runs_has_the_bits_of_the_reference(qrels, run_list, measures, topic_filter):
    scored = score_runs(run_list, qrels, measures, topic_filter)
    assert len(scored) == len(run_list)
    for run, by_measure in zip(run_list, scored):
        assert list(by_measure) == list(dict.fromkeys(measures))
        for measure in measures:
            expected = ref_evaluate_run(run, qrels, measure, topic_filter)
            assert by_measure[measure] == expected
            assert bits(by_measure[measure]) == bits(expected)
            assert bits(evaluate_run(run, qrels, measure, topic_filter)) == bits(expected)


@settings(max_examples=200, deadline=None)
@given(qrels=qrels_maps(), run=runs("s"), k=st.integers(1, 15))
def test_each_measure_has_the_bits_of_the_reference(qrels, run, k):
    for topic, r in run.rankings.items():
        grades = qrels.by_topic.get(topic, {})
        assert precision_at_k(r, grades, k).hex() == ref_precision_at_k(r, grades, k).hex()
        assert ndcg(r, grades, k).hex() == ref_ndcg(r, grades, k).hex()
        assert ndcg(r, grades).hex() == ref_ndcg(r, grades).hex()
        assert bpref(r, grades).hex() == ref_bpref(r, grades).hex()
