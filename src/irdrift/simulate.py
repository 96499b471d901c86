"""Build an evolving environment sequence from one static dated corpus.

The simulation models an append-only collection (archives, digital
libraries): documents are sorted by timestamp and released in cumulative
slices, so every environment contains all documents of the previous one
plus the next batch. Topics are carried over unchanged; qrels are
restricted to the documents already present, which keeps every judged
document scorable.
"""

from __future__ import annotations

from bisect import bisect_right
from datetime import datetime
from typing import NamedTuple

from .model import DocId, EvaluationEnvironment, TopicId, _Checked


class _SimulationPlanFields(NamedTuple):
    num_slices: int
    boundaries: tuple[datetime, ...] | None = None


class SimulationPlan(_Checked, _SimulationPlanFields):
    """How to cut the corpus: into ``num_slices`` equally sized slices by
    document count (the default), or at explicit timestamp boundaries
    (one per slice, timezone-aware, strictly increasing; slice i keeps
    documents dated at or before boundary i)."""

    __slots__ = ()

    def _check(self) -> None:
        if self.num_slices < 2:
            raise ValueError(f"num_slices must be >= 2, got {self.num_slices}")
        if self.boundaries is not None:
            if len(self.boundaries) != self.num_slices:
                raise ValueError(
                    f"expected {self.num_slices} boundaries, got {len(self.boundaries)}"
                )
            for boundary in self.boundaries:
                # manifest timestamps are aware, and a naive datetime
                # cannot be compared with them
                if boundary.utcoffset() is None:
                    raise ValueError(f"boundaries must be timezone-aware, got {boundary}")
            for earlier, later in zip(self.boundaries, self.boundaries[1:]):
                if earlier >= later:
                    raise ValueError("boundaries must be strictly increasing")


def split_append_only(
    base: EvaluationEnvironment, plan: SimulationPlan
) -> list[EvaluationEnvironment]:
    """Cut a dated corpus into a cumulative environment sequence t0..tn.

    Every document needs a timestamp. Documents are ordered by
    (timestamp, doc id); equal-count slicing cuts that order into parts
    whose sizes differ by at most one, ties on identical timestamps
    falling into the earlier slice by ascending doc id. Each slice's
    qrels are the base qrels restricted to the documents present.

    Every slice is built in full, as its own corpus and qrels. The CLI
    writes the same slices without building them: it takes the order and
    slice sizes from the same cut, and formats each document and judgment
    line once (see ``irdrift.cli.cmd_simulate``).
    """
    order, counts = _cut(base, plan)
    corpus = base.corpus
    environments: list[EvaluationEnvironment] = []
    for i, count in enumerate(counts):
        docs = {doc_id: corpus[doc_id] for doc_id in order[:count]}
        environments.append(
            EvaluationEnvironment(
                label=f"t{i}",
                corpus=docs,
                topics=dict(base.topics),
                qrels=base.qrels.restricted_to_docs(set(docs)),
            )
        )
    return environments


def _cut(base: EvaluationEnvironment, plan: SimulationPlan) -> tuple[list[DocId], list[int]]:
    """The doc ids of the corpus in (timestamp, doc id) order, and the
    cumulative size of each slice: slice i holds ``order[:counts[i]]``.

    Every check of a cut is made here: each document needs a timestamp,
    equal-count slicing needs a distinct timestamp per slice, and no
    slice may be empty or add no documents. With explicit boundaries,
    slice i holds the documents dated at or before boundary i.
    """
    # the documents of each instant; equal instants at different UTC
    # offsets are equal keys, so their documents share one list
    by_stamp: dict[datetime | None, list[DocId]] = {}
    for doc_id, meta in base.corpus.items():
        by_stamp.setdefault(meta.timestamp, []).append(doc_id)
    if None in by_stamp:
        raise ValueError(f"document {min(by_stamp[None])} has no timestamp")
    stamps = sorted(by_stamp)
    order: list[DocId] = []
    dated_by = [0]  # dated_by[j]: how many documents the first j instants date
    for stamp in stamps:
        order += sorted(by_stamp[stamp])
        dated_by.append(len(order))
    if plan.boundaries is None:
        if plan.num_slices > len(stamps):
            raise ValueError(
                f"cannot cut {plan.num_slices} slices from {len(stamps)} distinct "
                f"timestamps"
            )
        counts = _equal_counts(len(order), plan.num_slices)
    else:
        # the instants at or before a boundary are a prefix of `stamps`
        counts = [dated_by[bisect_right(stamps, boundary)] for boundary in plan.boundaries]
    previous = 0
    for i, count in enumerate(counts):
        if count == 0 or (i > 0 and count <= previous):
            raise ValueError(f"slice t{i} would be empty or add no documents")
        previous = count
    return order, counts


def _equal_counts(total: int, slices: int) -> list[int]:
    # cumulative cut positions; slice sizes differ by at most one, with the
    # remainder spread over the earliest slices
    size, remainder = divmod(total, slices)
    counts = []
    running = 0
    for i in range(slices):
        running += size + (1 if i < remainder else 0)
        counts.append(running)
    return counts


def common_topics(ees: list[EvaluationEnvironment]) -> set[TopicId]:
    """Topic ids present in every environment of the list; a ``ValueError``
    when there are none, since no score can be taken over them."""
    if not ees:
        raise ValueError("common_topics requires at least one environment")
    common = set(ees[0].topics)
    for ee in ees[1:]:
        common &= set(ee.topics)
    if not common:
        raise ValueError("no topic is common to every environment")
    return common
