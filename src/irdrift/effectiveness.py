"""Per-topic effectiveness measures and their average (ARP).

Three measures are provided: precision at k, nDCG with linear gain, and
bpref. This is the one module that binarizes qrels grades: a grade >= 1
is relevant and a grade of 0 judged non-relevant. P@k, bpref and topic
eligibility use that rule; nDCG consumes the raw grades. Each measure
reads its topic's grade map from ``Qrels.by_topic`` directly. Topics
without any judged-relevant document are excluded from evaluation
rather than scored zero, matching standard TREC evaluation behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    MeasureKind,
    MeasureSpec,
    PerTopicScores,
    Qrels,
    Ranking,
    RunFile,
    TopicId,
)


@dataclass(frozen=True)
class ArpResult:
    """Average retrieval performance: the mean per-topic score."""

    measure: MeasureSpec
    system_tag: str
    ee_label: str
    mean: float
    evaluated_topic_count: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError(f"ARP mean must lie in [0, 1], got {self.mean}")
        if self.evaluated_topic_count < 0:
            raise ValueError("evaluated_topic_count must be >= 0")


def precision_at_k(ranking: Ranking, qrels: Qrels, k: int) -> float:
    """Fraction of the top-k entries that are judged relevant.

    Unjudged and grade-0 documents count as non-relevant; retrieving fewer
    than k documents keeps the denominator at k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    grades = qrels.by_topic.get(ranking.topic, {})
    hits = sum(1 for doc in ranking.docs[:k] if grades.get(doc, 0) >= 1)
    return hits / k


def ndcg(ranking: Ranking, qrels: Qrels, k: int | None = None) -> float:
    """Normalized discounted cumulative gain with linear gain grade/log2(i+1).

    Evaluated at depth k when given, else at the ranking's length. The
    ideal ranking is the topic's judged grades sorted descending; returns
    0 when its gain is 0 (no relevant documents).
    """
    grades = qrels.by_topic.get(ranking.topic, {})
    depth = k if k is not None else len(ranking)
    dcg = 0.0
    for i, doc in enumerate(ranking.docs[:depth], start=1):
        dcg += grades.get(doc, 0) / math.log2(i + 1)
    ideal = sorted(grades.values(), reverse=True)[:depth]
    idcg = sum(g / math.log2(i + 1) for i, g in enumerate(ideal, start=1))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def bpref(ranking: Ranking, qrels: Qrels) -> float:
    """Binary preference: how often relevant documents precede judged
    non-relevant ones, ignoring unjudged documents entirely.

    With R judged-relevant and N judged non-relevant documents, each
    retrieved relevant document r contributes
    1 - min(nonrel_above(r), R) / min(R, N); the result is the mean over
    all R relevant documents. When N is 0 each retrieved relevant
    document contributes 1. Returns 0 when the topic has no judged
    relevant documents.
    """
    grades = qrels.by_topic.get(ranking.topic, {})
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


def _score_one(ranking: Ranking, qrels: Qrels, measure: MeasureSpec) -> float:
    if measure.kind is MeasureKind.PRECISION:
        return precision_at_k(ranking, qrels, measure.cutoff)
    if measure.kind is MeasureKind.NDCG:
        return ndcg(ranking, qrels, measure.cutoff)
    return bpref(ranking, qrels)


def evaluate_run(
    run: RunFile,
    qrels: Qrels,
    measure: MeasureSpec,
    topic_filter: set[TopicId] | None = None,
) -> PerTopicScores:
    """Score a run topic by topic.

    Topics are evaluated when they have at least one judged-relevant
    document and, if a filter is given, appear in it. A filtered topic the
    run did not answer scores 0. Without a filter, only topics present in
    the run are evaluated.
    """
    eligible = {
        topic for topic, grades in qrels.by_topic.items() if max(grades.values()) >= 1
    }
    if topic_filter is None:
        topics = run.topics() & eligible
    else:
        topics = topic_filter & eligible
    scores: dict[TopicId, float] = {}
    for topic in sorted(topics):
        ranking = run.rankings.get(topic)
        if ranking is None:
            scores[topic] = 0.0
        else:
            scores[topic] = _score_one(ranking, qrels, measure)
    return PerTopicScores(
        measure=measure,
        system_tag=run.system_tag,
        ee_label=run.ee_label,
        scores=scores,
    )


def arp(scores: PerTopicScores) -> ArpResult:
    """Arithmetic mean over all evaluated topics.

    Summation runs in sorted topic-id order so the result is bit-stable
    regardless of how the score map was built.
    """
    if not scores.scores:
        raise ValueError("no evaluated topics")
    ordered = [scores.scores[t] for t in sorted(scores.scores)]
    return ArpResult(
        measure=scores.measure,
        system_tag=scores.system_tag,
        ee_label=scores.ee_label,
        mean=sum(ordered) / len(ordered),
        evaluated_topic_count=len(ordered),
    )
