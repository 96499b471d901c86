"""Per-topic effectiveness measures and their average (ARP).

Three measures are provided: precision at k, nDCG with linear gain, and
bpref. This is the one module that binarizes qrels grades: a grade >= 1
is relevant and a grade of 0 judged non-relevant. P@k, bpref and topic
eligibility use that rule; nDCG consumes the raw grades. Each measure
reads its topic's grade map, ``qrels.by_topic.get(topic, {})``, which
the public measures take as their second argument. Topics without any
judged-relevant document are excluded from evaluation rather than scored
zero, matching standard TREC evaluation behavior.

Scoring takes one path. :func:`_judge` settles once per qrels and topic
filter which topics are eligible and each one's judgment facts (the
grades sorted into the ideal ranking, R, N and the ideal DCG of each
depth). :func:`_score_judged` then scores one run against those facts,
looking each ranking's docs up in the grades once for all measures.
Each measure's arithmetic lives in one private kernel that reads that
list of gains. :func:`score_runs` and :func:`evaluate_run` judge once and
score each run; the ``evaluate`` command and a change matrix's system
tasks call the two steps themselves, and :func:`precision_at_k`,
:func:`ndcg` and :func:`bpref` call the kernels, so every path gives the
same bits. Nothing is cached between calls or stored on ``Qrels``.

An ARP (:func:`arp`) is a plain float. Neither it nor a
:class:`PerTopicScores` names its system or environment:
:func:`score_runs` returns scores in the order of its runs, and the
caller keys them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import repeat
from typing import NamedTuple

from .model import (
    DocId,
    MeasureKind,
    MeasureSpec,
    PerTopicScores,
    Qrels,
    Ranking,
    RunFile,
    TopicId,
)


def precision_at_k(ranking: Ranking, grades: dict[DocId, int], k: int) -> float:
    """Fraction of the top-k entries that ``grades`` judges relevant.

    Unjudged and grade-0 documents count as non-relevant; retrieving fewer
    than k documents keeps the denominator at k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _precision(_gains(ranking.docs[:k], grades), k)


def ndcg(ranking: Ranking, grades: dict[DocId, int], k: int | None = None) -> float:
    """Normalized discounted cumulative gain with linear gain grade/log2(i+1).

    Evaluated at depth k when given, else at the ranking's length. The
    ideal ranking is the values of ``grades`` sorted descending; returns
    0 when its gain is 0 (no relevant documents).
    """
    facts = _TopicFacts(grades)
    depth = k if k is not None else len(ranking)
    discounts = _discounts(max(len(ranking), len(facts.ideal)))
    return _ndcg(_gains(ranking.docs, grades), depth, facts, discounts)


def bpref(ranking: Ranking, grades: dict[DocId, int]) -> float:
    """Binary preference: how often relevant documents precede judged
    non-relevant ones, ignoring unjudged documents entirely.

    With R judged-relevant and N judged non-relevant documents in
    ``grades``, each retrieved relevant document r contributes
    1 - min(nonrel_above(r), R) / min(R, N); the result is the mean over
    all R relevant documents. When N is 0 each retrieved relevant
    document contributes 1. Returns 0 when the topic has no judged
    relevant documents.
    """
    facts = _TopicFacts(grades)
    return _bpref(_gains(ranking.docs, grades), facts.big_r, facts.big_n)


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
    return _score_judged(run, _judge(qrels, topic_filter), [measure])[measure]


def score_runs(
    runs: Sequence[RunFile],
    qrels: Qrels,
    measures: Iterable[MeasureSpec],
    topic_filter: set[TopicId] | None = None,
) -> list[dict[MeasureSpec, PerTopicScores]]:
    """Score several runs under several measures against one qrels.

    Returns, for each run in order, its scores under each measure, each
    equal bit for bit to ``evaluate_run(run, qrels, measure,
    topic_filter)``. Eligibility is decided once, each topic's judgment
    facts are computed once, and each ranking's docs are looked up in the
    grades once for every measure.
    """
    judged = _judge(qrels, topic_filter)
    measures = list(measures)
    return [_score_judged(run, judged, measures) for run in runs]


class _Judged(NamedTuple):
    """What :func:`_judge` settles about one qrels: the judgment facts of
    each eligible topic, in topic id order, and whether those topics came
    from a topic filter, in which case a run that does not answer one
    scores 0 on it."""

    facts: dict[TopicId, _TopicFacts]
    filtered: bool


def _judge(qrels: Qrels, topic_filter: Iterable[TopicId] | None) -> _Judged:
    """The judgment facts of each eligible topic of ``topic_filter``, or of
    every judged topic without one: a topic is eligible when ``qrels``
    judges at least one of its documents relevant (grade >= 1)."""
    by_topic = qrels.by_topic
    candidates = by_topic if topic_filter is None else by_topic.keys() & topic_filter
    facts = {topic: _TopicFacts(by_topic[topic]) for topic in sorted(candidates)}
    return _Judged({t: fact for t, fact in facts.items() if fact.big_r}, topic_filter is not None)


def _score_judged(
    run: RunFile, judged: _Judged, measures: Sequence[MeasureSpec]
) -> dict[MeasureSpec, PerTopicScores]:
    """One run's scores under each measure, against the judgment facts
    that :func:`_judge` made, which several calls may share."""
    facts = judged.facts
    rankings = run.rankings
    # bpref and nDCG without a cutoff read the whole ranking
    full = any(m.cutoff is None for m in measures)
    depth = None if full else max((m.cutoff for m in measures), default=0)
    longest = max(
        [len(ranking) for ranking in rankings.values()]
        + [len(fact.ideal) for fact in facts.values()],
        default=0,
    )
    discounts = _discounts(longest)
    topics = facts if judged.filtered else [t for t in facts if t in rankings]
    per_measure: dict[MeasureSpec, dict[TopicId, float]] = {m: {} for m in measures}
    for topic in topics:
        ranking = rankings.get(topic)
        if ranking is None:
            for scores in per_measure.values():
                scores[topic] = 0.0
            continue
        fact = facts[topic]
        gains = _gains(ranking.docs[:depth], fact.grades)
        for measure, scores in per_measure.items():
            scores[topic] = _score(measure, gains, fact, discounts)
    return {measure: PerTopicScores(measure, scores) for measure, scores in per_measure.items()}


def arp(scores: PerTopicScores) -> float:
    """Average retrieval performance: the arithmetic mean over all
    evaluated topics.

    The sum is ``math.fsum``, correctly rounded, so the result has the
    same bits however the score map was built and whichever Python
    version runs it.
    """
    if not scores.scores:
        raise ValueError("no evaluated topics")
    return math.fsum(scores.scores.values()) / len(scores.scores)


# --- one copy of each measure's arithmetic --------------------------------

# the gain of a retrieved doc the topic does not judge; real grades are >= 0
_UNJUDGED = -1


class _TopicFacts:
    """One topic's judgment facts: its grade map, its grades sorted
    descending (the ideal ranking), R (grades >= 1), N (the other judged
    docs) and the ideal DCG of each depth asked for so far."""

    __slots__ = ("grades", "ideal", "big_r", "big_n", "_idcg")

    def __init__(self, grades: dict[DocId, int]) -> None:
        self.grades = grades
        self.ideal = sorted(grades.values(), reverse=True)
        self.big_r = sum(1 for grade in self.ideal if grade >= 1)
        self.big_n = len(self.ideal) - self.big_r
        self._idcg: dict[int, float] = {}

    def idcg(self, depth: int, discounts: list[float]) -> float:
        # past the ideal list's length every depth cuts the same prefix
        depth = min(depth, len(self.ideal))
        value = self._idcg.get(depth)
        if value is None:
            value = self._idcg[depth] = math.fsum(
                g / discounts[i] for i, g in enumerate(self.ideal[:depth])
            )
        return value


def _discounts(n: int) -> list[float]:
    """log2(i + 1) for the ranks i = 1..n, indexed from 0."""
    return [math.log2(rank + 1) for rank in range(1, n + 1)]


def _gains(docs: Sequence[DocId], grades: dict[DocId, int]) -> list[int]:
    """Each doc's grade, or _UNJUDGED."""
    return list(map(grades.get, docs, repeat(_UNJUDGED)))


def _precision(gains: list[int], k: int) -> float:
    return sum(1 for g in gains[:k] if g >= 1) / k


def _ndcg(gains: list[int], depth: int, facts: _TopicFacts, discounts: list[float]) -> float:
    idcg = facts.idcg(depth, discounts)
    if idcg == 0.0:
        return 0.0
    # summed as idcg is, so the ideal order scores exactly 1.0; a zero or
    # unjudged gain would add exactly 0.0
    dcg = math.fsum(g / discounts[i] for i, g in enumerate(gains[:depth]) if g > 0)
    return dcg / idcg


def _bpref(gains: list[int], big_r: int, big_n: int) -> float:
    if big_r == 0:
        return 0.0
    total = 0.0
    nonrel_above = 0
    denominator = min(big_r, big_n)
    for g in gains:
        if g >= 1:
            if big_n == 0:
                total += 1.0
            else:
                total += 1.0 - min(nonrel_above, big_r) / denominator
        elif g != _UNJUDGED:
            nonrel_above += 1
    return total / big_r


def _score(
    measure: MeasureSpec, gains: list[int], facts: _TopicFacts, discounts: list[float]
) -> float:
    if measure.kind is MeasureKind.PRECISION:
        return _precision(gains, measure.cutoff)
    if measure.kind is MeasureKind.NDCG:
        depth = len(gains) if measure.cutoff is None else measure.cutoff
        return _ndcg(gains, depth, facts, discounts)
    return _bpref(gains, facts.big_r, facts.big_n)
