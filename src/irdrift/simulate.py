"""Build an evolving environment sequence from one static dated corpus.

The simulation models an append-only collection (archives, digital
libraries): documents are sorted by timestamp and released in cumulative
slices, so every environment contains all documents of the previous one
plus the next batch. Topics are carried over unchanged; qrels are
restricted to the documents already present, which keeps every judged
document scorable.

:func:`split_append_only` builds each slice as an environment;
``_slice_files`` gives the files of the same slices, which the
``simulate`` command writes, without building any slice. Both take
slice membership from one cut, ``_cut``, and label slice i ``t{i}``.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Iterator
from datetime import datetime
from itertools import compress
from typing import NamedTuple

from .ingest import _manifest_line, _qrels_line, format_topics
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

    Every slice is built in full, as its own corpus and qrels;
    ``_slice_files`` gives the files of the same slices without building
    them.
    """
    first_slice = _cut(base, plan)
    corpus = base.corpus
    environments: list[EvaluationEnvironment] = []
    for i in range(plan.num_slices):
        docs = {doc_id: corpus[doc_id] for doc_id, k in first_slice.items() if k <= i}
        environments.append(
            EvaluationEnvironment(
                label=f"t{i}",
                corpus=docs,
                topics=dict(base.topics),
                qrels=base.qrels.restricted_to_docs(set(docs)),
            )
        )
    return environments


def _slice_files(
    base: EvaluationEnvironment, plan: SimulationPlan
) -> Iterator[tuple[str, bytes]]:
    """Each file of the slices of ``split_append_only(base, plan)``, as its
    name and bytes, in write order: ``topics.jsonl``, each slice's manifest
    and qrels, then the ``ees.json`` config that lists them.

    The cut is made, and any of its checks raises, when this is called;
    a slice's files are joined only when the iterator reaches them, so the
    bytes of one slice are held at a time. No slice is built: each
    manifest and judgment line is formatted once, by the line helpers of
    ``format_manifest`` and ``format_qrels``, and slice i is the lines,
    in id order, whose document's first slice is at most i; a judgment on
    a document in no slice is in none. So the work grows with documents
    + judgments, not with slices x documents.
    """
    first_slice = _cut(base, plan)
    # each line is kept encoded, so a slice's file is one join of bytes
    corpus = base.corpus
    stamps: dict[int, str] = {}  # every timestamp stays alive in `corpus`
    doc_ids = sorted(first_slice)
    doc_lines = [_manifest_line(doc_id, corpus[doc_id], stamps).encode() for doc_id in doc_ids]
    doc_slices = [first_slice[doc_id] for doc_id in doc_ids]
    judgment_lines: list[bytes] = []
    judgment_slices: list[int] = []
    for topic, grades in sorted(base.qrels.by_topic.items()):
        for doc in sorted(grades):
            i = first_slice.get(doc)
            if i is not None:
                judgment_lines.append(_qrels_line(topic, doc, grades[doc]).encode())
                judgment_slices.append(i)

    def files() -> Iterator[tuple[str, bytes]]:
        yield "topics.jsonl", format_topics(base.topics).encode()
        config = []
        for i in range(plan.num_slices):
            label = f"t{i}"
            manifest, qrels = f"{label}.manifest.jsonl", f"{label}.qrels.txt"
            # i.__ge__(k) is k <= i: the lines of this slice and the ones before
            yield manifest, b"".join(compress(doc_lines, map(i.__ge__, doc_slices)))
            yield qrels, b"".join(compress(judgment_lines, map(i.__ge__, judgment_slices)))
            config.append(
                {"label": label, "manifest": manifest, "qrels": qrels, "topics": "topics.jsonl"}
            )
        yield "ees.json", (json.dumps(config, indent=2) + "\n").encode()

    return files()


def _cut(base: EvaluationEnvironment, plan: SimulationPlan) -> dict[DocId, int]:
    """The index of the first slice that holds each document, in
    (timestamp, doc id) order; a document in no slice is left out. Slice
    i holds the documents whose index is at most i, a prefix of that
    order, and there are ``plan.num_slices`` slices.

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
    first_slice: dict[DocId, int] = {}
    start = 0  # the size of the slice before, 0 before t0
    for i, count in enumerate(counts):
        if count <= start:
            raise ValueError(f"slice t{i} would be empty or add no documents")
        first_slice.update(dict.fromkeys(order[start:count], i))
        start = count
    return first_slice


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
