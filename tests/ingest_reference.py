"""Reference run and qrels parsers: ``parse_run``, ``_canonical_ranking``
and ``parse_qrels`` as they stood before their per-line kernels were
tuned, copied verbatim. ``test_ingest_properties`` checks that
:mod:`irdrift.ingest` gives the same results, warnings and errors."""

from __future__ import annotations

import warnings
from math import isfinite
from operator import neg
from typing import Iterable

from irdrift.ingest import IngestWarning, ParseError
from irdrift.model import Qrels, Ranking, RunFile



def parse_run(lines: Iterable[str]) -> RunFile:
    """Parse a TREC-format run, canonicalizing each topic's ranking.

    The system tag is taken from column 6 of the first line; later lines
    with a different tag warn and keep the first. Duplicate (topic, doc)
    pairs and non-finite scores are errors.
    """
    system_tag: str | None = None
    # topic -> doc -> score; the inner dict also detects duplicate pairs
    by_topic: dict[str, dict[str, float]] = {}
    # a run lists a topic's lines together, so its dict is looked up only
    # when the topic changes
    prev_topic: str | None = None
    docs: dict[str, float] = {}
    for lineno, raw in enumerate(lines, start=1):
        cols = raw.split()
        if not cols:
            continue
        if len(cols) != 6:
            raise ParseError(
                f"line {lineno}: expected 6 columns (topic Q0 doc rank score tag), "
                f"got {len(cols)}"
            )
        topic, q0, doc, rank_s, score_s, tag = cols
        if q0 != "Q0" and q0.lower() != "q0":
            raise ParseError(f"line {lineno}: column 2 must be the literal Q0, got {q0!r}")
        try:
            int(rank_s)  # the rank column is validated but not trusted
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric rank {rank_s!r}") from None
        try:
            score = float(score_s)
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric score {score_s!r}") from None
        if not isfinite(score):
            # NaN is unordered, so the canonical sort would follow line order
            raise ParseError(f"line {lineno}: non-finite score {score_s!r}")
        if topic != prev_topic:
            prev_topic = topic
            docs = by_topic.get(topic)
            if docs is None:
                docs = by_topic[topic] = {}
        if doc in docs:
            raise ParseError(f"line {lineno}: duplicate entry for topic {topic}, doc {doc}")
        docs[doc] = score
        if tag != system_tag:
            if system_tag is None:
                system_tag = tag
            else:
                warnings.warn(
                    f"line {lineno}: mixed run tags ({tag!r} after {system_tag!r}); "
                    f"keeping the first",
                    IngestWarning,
                    stacklevel=2,
                )
    if system_tag is None:
        raise ParseError("empty run: no lines to take a system tag from")
    rankings = {topic: _canonical_ranking(docs) for topic, docs in by_topic.items()}
    return RunFile(system_tag=system_tag, rankings=rankings)


def _canonical_ranking(docs: dict[str, float]) -> Ranking:
    # (-score, doc) pairs sort as the key (score descending, doc ascending);
    # the scores are read back from `docs`, so each keeps its own bits
    _, doc_ids = zip(*sorted(zip(map(neg, docs.values()), docs)))
    return Ranking(doc_ids, tuple(map(docs.__getitem__, doc_ids)))


def parse_qrels(lines: Iterable[str]) -> Qrels:
    """Parse TREC-format qrels; the iteration column is ignored.

    Negative grades are clamped to 0 (non-relevant) with a warning, which
    is how standard TREC tooling treats them. Duplicate pairs error when
    their grades conflict and dedup with a warning when they agree.
    """
    # topic -> doc -> grade; the inner dict also detects duplicate pairs
    by_topic: dict[str, dict[str, int]] = {}
    prev_topic: str | None = None  # as in parse_run
    grades: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        cols = raw.split()
        if not cols:
            continue
        if len(cols) != 4:
            raise ParseError(
                f"line {lineno}: expected 4 columns (topic iteration doc grade), "
                f"got {len(cols)}"
            )
        topic, _iteration, doc, grade_s = cols
        try:
            grade = int(grade_s)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer grade {grade_s!r}") from None
        if grade < 0:
            warnings.warn(
                f"line {lineno}: negative grade {grade} for ({topic}, {doc}) "
                f"clamped to 0",
                IngestWarning,
                stacklevel=2,
            )
            grade = 0
        if topic != prev_topic:
            prev_topic = topic
            grades = by_topic.get(topic)
            if grades is None:
                grades = by_topic[topic] = {}
        if doc in grades:
            if grades[doc] != grade:
                raise ParseError(
                    f"line {lineno}: conflicting grades for topic {topic}, doc {doc}: "
                    f"{grades[doc]} vs {grade}"
                )
            warnings.warn(
                f"line {lineno}: duplicate judgment for ({topic}, {doc}) with equal "
                f"grade; deduplicated",
                IngestWarning,
                stacklevel=2,
            )
            continue
        grades[doc] = grade
    return Qrels(by_topic)
