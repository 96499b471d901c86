"""Effectiveness metrics against hand-computed values, brute-force
oracles, and the invariants the measures must satisfy."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from irdrift.change import ChangeScores
from irdrift.effectiveness import arp, bpref, evaluate_run, ndcg, precision_at_k, score_runs
from irdrift.model import MeasureKind, MeasureSpec, PerTopicScores, TopicId

from conftest import make_qrels, make_ranking, make_run


# --- independent brute-force transcriptions of the measure definitions ---


def p_at_k_brute(docs: list[str], grades: dict[str, int], k: int) -> float:
    hits = 0
    for doc in docs[:k]:
        if grades.get(doc, 0) >= 1:
            hits += 1
    return hits / k


def ndcg_brute(docs: list[str], grades: dict[str, int], k: int | None = None) -> float:
    depth = k if k is not None else len(docs)
    gain = 0.0
    for position, doc in enumerate(docs[:depth], start=1):
        gain += grades.get(doc, 0) / math.log2(position + 1)
    ideal = sorted(grades.values(), reverse=True)[:depth]
    ideal_gain = 0.0
    for position, grade in enumerate(ideal, start=1):
        ideal_gain += grade / math.log2(position + 1)
    if ideal_gain == 0.0:
        return 0.0
    return gain / ideal_gain


def bpref_brute(docs: list[str], grades: dict[str, int]) -> float:
    relevant = {d for d, g in grades.items() if g >= 1}
    nonrelevant = {d for d, g in grades.items() if g == 0}
    big_r = len(relevant)
    big_n = len(nonrelevant)
    if big_r == 0:
        return 0.0
    total = 0.0
    for position, doc in enumerate(docs):
        if doc in relevant:
            nonrel_above = len([d for d in docs[:position] if d in nonrelevant])
            if big_n == 0:
                total += 1.0
            else:
                total += 1.0 - min(nonrel_above, big_r) / min(big_r, big_n)
    return total / big_r


# --- spec examples ---


def test_p_at_10_counting():
    docs = [f"d{i}" for i in range(10)]
    grades = {d: 1 for d in docs[:3]}
    assert precision_at_k(make_ranking(docs), grades, 10) == pytest.approx(0.3)


def test_p_at_k_empty_ranking():
    assert precision_at_k(make_ranking([]), {"d1": 1}, 10) == 0.0


def test_p_at_k_denominator_stays_k():
    docs = [f"d{i}" for i in range(5)]
    grades = {d: 1 for d in docs}
    assert precision_at_k(make_ranking(docs), grades, 10) == pytest.approx(0.5)


def test_ndcg_ideal_ordering_is_one():
    grades = {"a": 3, "b": 2, "c": 1}
    assert ndcg(make_ranking(["a", "b", "c"]), grades) == 1.0


def test_ndcg_no_relevant_is_zero():
    assert ndcg(make_ranking(["a", "b"]), {"a": 0}) == 0.0


def test_ndcg_hand_computed():
    # grades at ranks 1..3 are (0, 2, 1); judged grades are {2, 1}
    grades = {"b": 2, "c": 1}
    value = ndcg(make_ranking(["a", "b", "c"]), grades)
    assert value == pytest.approx(0.6697, abs=5e-5)
    assert value == pytest.approx(ndcg_brute(["a", "b", "c"], grades), abs=1e-12)


def test_bpref_all_relevant_above_nonrelevant():
    grades = {"r1": 1, "r2": 1, "n1": 0}
    assert bpref(make_ranking(["r1", "r2", "n1"]), grades) == 1.0


def test_bpref_no_relevant_retrieved():
    assert bpref(make_ranking(["x", "y"]), {"r1": 1}) == 0.0


def test_bpref_hand_computed():
    # R=2, N=2; ranking [nonrel, rel1, rel2]; second nonrel not retrieved
    grades = {"n1": 0, "n2": 0, "r1": 1, "r2": 1}
    assert bpref(make_ranking(["n1", "r1", "r2"]), grades) == pytest.approx(0.5)


def test_evaluate_run_covers_run_and_qrels_topics():
    run = make_run("s", {"1": ["a"], "2": ["b"]})
    q = make_qrels({("1", "a"): 1, ("2", "b"): 1})
    scores = evaluate_run(run, q, MeasureSpec.parse("p@10"))
    assert set(scores.scores) == {"1", "2"}


def test_evaluate_run_respects_filter():
    run = make_run("s", {"1": ["a"], "2": ["b"]})
    q = make_qrels({("1", "a"): 1, ("2", "b"): 1})
    scores = evaluate_run(run, q, MeasureSpec.parse("p@10"), {TopicId("1")})
    assert set(scores.scores) == {"1"}


def test_evaluate_run_scores_missing_filtered_topic_zero():
    run = make_run("s", {"1": ["a"]})
    q = make_qrels({("1", "a"): 1, ("3", "c"): 1})
    scores = evaluate_run(
        run, q, MeasureSpec.parse("p@10"), {TopicId("1"), TopicId("3")}
    )
    assert scores.scores[TopicId("3")] == 0.0


def test_evaluate_run_excludes_topics_without_relevant():
    run = make_run("s", {"1": ["a"], "2": ["b"]})
    q = make_qrels({("1", "a"): 1, ("2", "b"): 0})
    scores = evaluate_run(run, q, MeasureSpec.parse("p@10"))
    assert set(scores.scores) == {"1"}


def test_arp_examples():
    m = MeasureSpec.parse("p@10")
    scores = PerTopicScores(m, {TopicId("1"): 0.2, TopicId("2"): 0.4})
    assert arp(scores) == pytest.approx(0.3)
    single = PerTopicScores(m, {TopicId("1"): 0.7})
    assert arp(single) == pytest.approx(0.7)
    zeros = PerTopicScores(m, {TopicId(str(i)): 0.0 for i in range(1175)})
    assert arp(zeros) == 0.0
    with pytest.raises(ValueError, match="no evaluated topics"):
        arp(PerTopicScores(m, {}))


def test_means_are_the_exact_sum_on_every_python_version():
    # left to right, ten 0.1s sum to 0.9999999999999999; the exact sum
    # rounds to 1.0
    tenths = {TopicId(f"q{i}"): 0.1 for i in range(10)}
    assert arp(PerTopicScores(MeasureSpec.parse("p@10"), tenths)) == 0.1
    assert ChangeScores(tenths).mean == 0.1


# judged docs d0-d59 with grades 0-4, and unjudged docs u0-u19
GRADE_MAPS = st.dictionaries(
    st.sampled_from([f"d{i}" for i in range(60)]), st.integers(0, 4), min_size=1
).filter(lambda grades: max(grades.values()) >= 1)


@given(GRADE_MAPS, st.none() | st.integers(1, 70), st.randoms(use_true_random=False))
def test_the_ideal_order_scores_exactly_one_and_no_ranking_more(grades, k, rng):
    # dcg and idcg must be summed alike, or the ideal order can miss 1.0
    ideal = sorted(grades, key=grades.__getitem__, reverse=True)
    other = rng.sample(ideal + [f"u{i}" for i in range(20)], rng.randint(0, len(ideal) + 20))
    measure = MeasureSpec(MeasureKind.NDCG, k)
    run = make_run("s", {"ideal": ideal, "other": other})
    qrels = make_qrels({(topic, doc): g for topic in ("ideal", "other") for doc, g in grades.items()})
    [scores] = score_runs([run], qrels, [measure])
    assert ndcg(make_ranking(ideal), grades, k) == 1.0
    assert scores[measure].scores[TopicId("ideal")] == 1.0
    assert ndcg(make_ranking(other), grades, k) <= 1.0
    assert scores[measure].scores[TopicId("other")] <= 1.0


# --- invariants ---


def _random_instance(rng: random.Random, max_docs: int = 50, max_judged: int = 10):
    n_docs = rng.randint(0, max_docs)
    universe = [f"d{i}" for i in range(max_docs + max_judged)]
    docs = rng.sample(universe, n_docs)
    judged = rng.sample(universe, rng.randint(0, max_judged))
    grades = {d: rng.randint(0, 2) for d in judged}
    return docs, grades


def test_measures_invariant_under_doc_relabeling():
    rng = random.Random(11)
    for _ in range(50):
        docs, grades = _random_instance(rng)
        rename = {d: f"x{d}" for d in set(docs) | set(grades)}
        r1 = make_ranking(docs)
        r2 = make_ranking([rename[d] for d in docs])
        renamed_grades = {rename[d]: g for d, g in grades.items()}
        assert precision_at_k(r1, grades, 10) == pytest.approx(
            precision_at_k(r2, renamed_grades, 10)
        )
        assert ndcg(r1, grades) == pytest.approx(ndcg(r2, renamed_grades))
        assert bpref(r1, grades) == pytest.approx(bpref(r2, renamed_grades))


def test_p_and_ndcg_depend_only_on_top_k():
    rng = random.Random(12)
    for _ in range(50):
        docs, grades = _random_instance(rng, max_docs=30)
        if len(docs) <= 5:
            continue
        k = 5
        altered = docs[:k] + list(reversed(docs[k:]))
        r1 = make_ranking(docs)
        r2 = make_ranking(altered)
        assert precision_at_k(r1, grades, k) == precision_at_k(r2, grades, k)
        assert ndcg(r1, grades, k) == ndcg(r2, grades, k)


def test_bpref_ignores_unjudged_documents():
    rng = random.Random(13)
    for _ in range(50):
        docs, grades = _random_instance(rng, max_docs=20)
        base = bpref(make_ranking(docs), grades)
        padded = list(docs)
        for j in range(rng.randint(1, 5)):
            padded.insert(rng.randint(0, len(padded)), f"pad{j}")
        assert bpref(make_ranking(padded), grades) == pytest.approx(base, abs=1e-12)


def test_perfect_separation_scores_one_for_ndcg_and_bpref():
    grades = {"r1": 1, "r2": 1, "n1": 0, "n2": 0}
    r = make_ranking(["r1", "r2", "n1", "n2"])
    assert ndcg(r, grades) == 1.0
    assert bpref(r, grades) == 1.0


def test_brute_force_oracle_equivalence():
    rng = random.Random(14)
    for _ in range(200):
        docs, grades = _random_instance(rng)
        ranking = make_ranking(docs)
        k = rng.randint(1, 20)
        assert precision_at_k(ranking, grades, k) == pytest.approx(
            p_at_k_brute(docs, grades, k), abs=1e-9
        )
        assert ndcg(ranking, grades) == pytest.approx(
            ndcg_brute(docs, grades), abs=1e-9
        )
        assert ndcg(ranking, grades, k) == pytest.approx(
            ndcg_brute(docs, grades, k), abs=1e-9
        )
        assert bpref(ranking, grades) == pytest.approx(
            bpref_brute(docs, grades), abs=1e-9
        )
