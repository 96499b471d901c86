"""Build an evolving environment sequence from one static dated corpus.

The simulation models an append-only collection (archives, digital
libraries): documents are sorted by timestamp and released in cumulative
slices, so every environment contains all documents of the previous one
plus the next batch. Topics are carried over unchanged; qrels are
restricted to the documents already present, which keeps every judged
document scorable.
"""

from __future__ import annotations

import warnings
from datetime import datetime
from typing import NamedTuple

from .model import EvaluationEnvironment, TopicId, _Checked


class SimulationWarning(UserWarning):
    pass


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
    """
    undated = sorted(
        doc_id for doc_id, meta in base.corpus.items() if meta.timestamp is None
    )
    if undated:
        raise ValueError(f"document {undated[0]} has no timestamp")
    ordered = sorted(base.corpus.items(), key=lambda item: (item[1].timestamp, item[0]))
    if plan.boundaries is None:
        distinct = len({meta.timestamp for _, meta in ordered})
        if plan.num_slices > distinct:
            raise ValueError(
                f"cannot cut {plan.num_slices} slices from {distinct} distinct "
                f"timestamps"
            )
        cut_counts = _equal_counts(len(ordered), plan.num_slices)
    else:
        cut_counts = []
        for boundary in plan.boundaries:
            count = sum(1 for _, meta in ordered if meta.timestamp <= boundary)
            cut_counts.append(count)
    environments: list[EvaluationEnvironment] = []
    previous = 0
    for i, count in enumerate(cut_counts):
        if count == 0 or (i > 0 and count <= previous):
            raise ValueError(f"slice t{i} would be empty or add no documents")
        previous = count
        docs = dict(ordered[:count])
        qrels = base.qrels.restricted_to_docs(set(docs))
        environments.append(
            EvaluationEnvironment(
                label=f"t{i}",
                corpus=docs,
                topics=dict(base.topics),
                qrels=qrels,
            )
        )
    return environments


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
    """Topic ids present in every environment of the list."""
    if not ees:
        raise ValueError("common_topics requires at least one environment")
    common = set(ees[0].topics)
    for ee in ees[1:]:
        common &= set(ee.topics)
    if not common:
        warnings.warn(
            "no topic is common to all environments", SimulationWarning, stacklevel=2
        )
    return common
