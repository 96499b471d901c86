"""Create/update/delete statistics between two evaluation environments.

Each of the three components diffs by identifier: documents by doc id,
topics by topic id, qrels by (topic, doc) pair. Each component is an
id-keyed map, read directly; qrels are compared one topic's grade map
at a time, so an unchanged topic costs one map comparison. An
identifier present in both snapshots counts as updated when its payload
changed — document length (or content hash when both sides carry one),
topic text, or grade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable

from .model import Corpus, DocId, EvaluationEnvironment, Qrels, TopicId


@dataclass(frozen=True)
class ComponentDiff:
    """Identifier-level change sets between two snapshots of one component:
    the paper's create, update and delete operations, and the size of the
    first snapshot. The size of the second follows from them.
    """

    created: frozenset
    updated: frozenset
    deleted: frozenset
    total_from: int

    def __post_init__(self) -> None:
        if self.created & self.deleted:
            raise ValueError("created and deleted sets must be disjoint")
        if self.total_from < 0 or self.total_to < 0:
            raise ValueError("totals must be >= 0")

    @property
    def total_to(self) -> int:
        """The size of the second snapshot."""
        return self.total_from + len(self.created) - len(self.deleted)

    @property
    def relative_delta(self) -> float:
        """The signed total growth (to - from) / from; +inf when the first
        snapshot was empty and the second is not, and 0 when both are
        empty."""
        total_from, total_to = self.total_from, self.total_to
        if total_from > 0:
            return (total_to - total_from) / total_from
        return math.inf if total_to > 0 else 0.0


@dataclass(frozen=True)
class ChangeSummary:
    """Component diffs for one ordered pair of environments."""

    from_label: str
    to_label: str
    documents: ComponentDiff
    topics: ComponentDiff
    qrels: ComponentDiff


def _diff_ids(a: dict, b: dict, changed: Callable[[Hashable], bool]) -> ComponentDiff:
    ids_a = frozenset(a)
    ids_b = frozenset(b)
    updated = frozenset([key for key in ids_a & ids_b if changed(key)])
    return ComponentDiff(ids_b - ids_a, updated, ids_a - ids_b, len(ids_a))


def diff_documents(a: Corpus, b: Corpus) -> ComponentDiff:
    """Diff two corpora by doc id.

    Updates are detected by comparing string lengths for documents sharing
    an id; when both sides carry a content hash, the hash comparison takes
    precedence (length collisions can hide updates). A document whose two
    sides are the same :class:`DocMeta` object is unchanged, and its fields
    are not read: a sequence load shares that object between snapshots
    whose manifests hold the identical line
    (:func:`~irdrift.ingest.load_environments`).
    """

    def changed(doc_id) -> bool:
        meta_a = a[doc_id]
        meta_b = b[doc_id]
        if meta_a is meta_b:
            return False
        if meta_a.content_hash is not None and meta_b.content_hash is not None:
            return meta_a.content_hash != meta_b.content_hash
        return meta_a.length != meta_b.length

    return _diff_ids(a, b, changed)


def diff_topics(
    a: dict[TopicId, str | None], b: dict[TopicId, str | None]
) -> ComponentDiff:
    """Diff two topic id -> text maps; an update is a text change, detected
    only when both sides carry text."""

    def changed(topic_id) -> bool:
        text_a = a[topic_id]
        text_b = b[topic_id]
        return text_a is not None and text_b is not None and text_a != text_b

    return _diff_ids(a, b, changed)


def diff_qrels(a: Qrels, b: Qrels) -> ComponentDiff:
    """Diff two qrels sets by (topic, doc) pair; an update is a changed grade.

    Walks one topic at a time: a topic whose grade maps are equal adds
    nothing, and the others compare their doc-id key views.
    """
    by_a, by_b = a.by_topic, b.by_topic
    created: set[tuple[TopicId, DocId]] = set()
    updated: set[tuple[TopicId, DocId]] = set()
    deleted: set[tuple[TopicId, DocId]] = set()
    empty: dict[DocId, int] = {}
    for topic in by_a.keys() | by_b.keys():
        grades_a = by_a.get(topic, empty)
        grades_b = by_b.get(topic, empty)
        if grades_a == grades_b:
            continue
        created.update([(topic, doc) for doc in grades_b.keys() - grades_a.keys()])
        deleted.update([(topic, doc) for doc in grades_a.keys() - grades_b.keys()])
        common = grades_a.keys() & grades_b.keys()
        updated.update([(topic, doc) for doc in common if grades_a[doc] != grades_b[doc]])
    return ComponentDiff(frozenset(created), frozenset(updated), frozenset(deleted), len(a))


def summarize(
    a: EvaluationEnvironment, b: EvaluationEnvironment
) -> ChangeSummary:
    """Bundle the three component diffs for an ordered environment pair.

    Both environments need their corpus: one loaded with
    ``corpus=False`` is rejected with a ``ValueError``.
    """
    for ee in (a, b):
        if ee.corpus is None:
            raise ValueError(f"environment {ee.label} carries no corpus snapshot to diff")
    return ChangeSummary(
        from_label=a.label,
        to_label=b.label,
        documents=diff_documents(a.corpus, b.corpus),
        topics=diff_topics(a.topics, b.topics),
        qrels=diff_qrels(a.qrels, b.qrels),
    )
