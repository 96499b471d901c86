"""Shared domain types for evolving test-collection evaluation.

An evaluation environment bundles one timestamped state of the three
test-collection components: the document corpus, the topic set, and the
graded relevance assessments (qrels). Runs hold a system's ranked
results against one such environment. All types are immutable after
construction.

Identifiers are plain ``str``; :data:`DocId` and :data:`TopicId` name
their role. An id is checked once, by :func:`_check_id`, where it enters
the program from JSON or a command-line flag (manifests, topic files,
``--topics``). Tokens that ``str.split()`` cut from a run or qrels line
already satisfy the check. Each id is stored once, as a key: the corpus
is a :data:`Corpus` map (doc id -> :class:`DocMeta`), the topic set a map
of topic id -> text (None when a topic has no text) and a run's rankings
a map of topic id -> :class:`Ranking`, which stores its documents and
scores as two parallel tuples; a document's rank is its position. A
:class:`RunFile` does not store its environment, and
:class:`PerTopicScores` neither its system nor its environment: the
caller's key (system tag, environment label) names them.
:class:`Qrels` is one topic -> doc -> grade map holding the raw grades;
:mod:`irdrift.effectiveness` alone decides which grades count as
relevant. The container types check their structural invariants at
construction, so downstream code can rely on them without re-checking. An
:class:`EvaluationEnvironment` loaded for scoring carries no corpus;
:func:`validate_environment` then takes the corpus's doc ids.

This module owns the checks of a manifest's document fields:
:func:`_check_doc_meta` is the one check of a ``length`` and a content
hash, made by :class:`DocMeta` and by the manifest reader that keeps only
doc ids, so both report a bad field with the same message.

Every record type of the package is a checked named tuple: a
``NamedTuple`` of its fields, subclassed with :class:`_Checked` and a
``_check`` method that holds its invariants, so every way to build one
(``T(...)``, ``_make``, ``_replace``, unpickling) runs the check. One
path inside the package skips it: the run parser
(``ingest._canonical_ranking``) builds each :class:`Ranking` with
``tuple.__new__``, because it has just made the ranking from checked
lines, with unique doc ids (dict keys) and finite scores (checked per
line) in non-increasing order (sorted); a second check would only
validate the same value twice. A record is immutable, compares equal
to the plain tuple of its fields and is copied with ``_replace``. No
module imports :mod:`dataclasses`, whose import pulls in :mod:`inspect`,
:mod:`ast`, :mod:`dis` and :mod:`tokenize`, which every CLI process
would pay for at startup.
:class:`DocMeta`, built once per manifest line, spells out its
``__new__`` and checks its fields before it builds the tuple.
:class:`Scenario` lives here, beside the measures, so that the CLI can
list its values without importing the report writers.
"""

from __future__ import annotations

import math
import operator
from datetime import datetime
from enum import Enum
from typing import Collection, NamedTuple

DocId = str
TopicId = str
# the document component: doc id -> metadata
Corpus = dict[DocId, "DocMeta"]


def _check_id(value: str, kind: str) -> str:
    """Return ``value`` if it is a non-empty token without whitespace.

    ``kind`` names the id in the message, e.g. ``"DocId"``.
    """
    # split() drops exactly the characters isspace() flags, so this one
    # C-level test rejects empty values and embedded whitespace
    if value.split() != [value]:
        if not value:
            raise ValueError(f"{kind} must be non-empty")
        raise ValueError(f"{kind} must not contain whitespace: {value!r}")
    return value


class _Checked:
    """The base of every checked record type: a subclass pairs it with a
    ``NamedTuple`` of its fields (``class T(_Checked, _TFields)``) and
    defines :meth:`_check`, which raises ``ValueError`` for an invalid
    value. Every way to build a record (``T(...)``, :meth:`_make`,
    :meth:`_replace`, unpickling) runs that check; only the run parser
    builds its :class:`Ranking` values without it, as the module
    docstring says."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it cannot skip the checks either
        return cls(*iterable)

    def __reduce__(self):
        # unpickling calls the class, so it checks under every protocol;
        # protocols 0 and 1 would otherwise call tuple.__new__ directly
        return type(self), tuple(self)


class _RankingFields(NamedTuple):
    docs: tuple[DocId, ...]
    scores: tuple[float, ...]


class Ranking(_Checked, _RankingFields):
    """A ranked document list, best first; its topic is the key it is
    stored under in :attr:`RunFile.rankings`.

    ``docs`` and ``scores`` are parallel tuples; the rank of ``docs[i]``
    is ``i + 1``. Doc ids are unique and scores finite and non-increasing;
    parsers canonicalize raw input into this form before construction.
    ``len()`` counts the documents.
    """

    __slots__ = ()

    def _check(self) -> None:
        docs, scores = self.docs, self.scores
        if len(docs) != len(scores):
            raise ValueError(f"Ranking: {len(docs)} docs but {len(scores)} scores")
        ordered = not any(map(operator.lt, scores, scores[1:]))
        if ordered and len(set(docs)) == len(docs) and all(map(math.isfinite, scores)):
            return
        # a fault exists; walk in order to report the first one
        seen: set[DocId] = set()
        prev_score: float | None = None
        for doc, score in zip(docs, scores):
            if doc in seen:
                raise ValueError(f"Ranking: duplicate doc id {doc}")
            seen.add(doc)
            if not math.isfinite(score):
                raise ValueError(f"Ranking: non-finite score {score} for doc {doc}")
            if prev_score is not None and score > prev_score:
                raise ValueError(
                    f"Ranking: scores must be non-increasing, got {score} after {prev_score}"
                )
            prev_score = score

    def __len__(self) -> int:
        return len(self.docs)


class _RunFileFields(NamedTuple):
    system_tag: str
    rankings: dict[TopicId, Ranking]


class RunFile(_Checked, _RunFileFields):
    """A system's rankings, keyed by the topic each answers. The
    environment the run answers is the key the caller stores it under."""

    __slots__ = ()

    def _check(self) -> None:
        if not self.system_tag:
            raise ValueError("RunFile system_tag must be non-empty")


class _QrelsFields(NamedTuple):
    by_topic: dict[TopicId, dict[DocId, int]]


class Qrels(_Checked, _QrelsFields):
    """Graded relevance assessments: topic -> doc -> grade, grades >= 0.

    Every topic maps at least one judged doc, so :meth:`topics` is the set
    of judged topics. Grades stay raw integers here; only
    :mod:`irdrift.effectiveness` decides which grades count as relevant.
    ``len()`` counts the judgments.
    """

    __slots__ = ()

    def _check(self) -> None:
        for topic, grades in self.by_topic.items():
            if not grades:
                raise ValueError(f"Qrels topic {topic} has no judged docs")
            if min(grades.values()) < 0:
                doc, grade = next((d, g) for d, g in grades.items() if g < 0)
                raise ValueError(
                    f"Qrels grade must be >= 0, got {grade} for ({topic}, {doc})"
                )

    def __len__(self) -> int:
        return sum(map(len, self.by_topic.values()))

    def topics(self) -> set[TopicId]:
        return set(self.by_topic)

    def restricted_to_docs(self, docs: set[DocId]) -> "Qrels":
        """The grades of docs in `docs`; topics left with none are dropped."""
        by_topic: dict[TopicId, dict[DocId, int]] = {}
        for topic, grades in self.by_topic.items():
            kept = {doc: grade for doc, grade in grades.items() if doc in docs}
            if kept:
                by_topic[topic] = kept
        return Qrels(by_topic)


def _check_doc_meta(length: int, content_hash: str | None) -> None:
    """Raise ``ValueError`` unless ``length`` is an ``int`` (not a
    ``bool``) >= 0 and ``content_hash`` is None or a string."""
    # the manifest writer renders the length as an integer literal and
    # the hash as a string; anything else would not parse back
    if not isinstance(length, int) or isinstance(length, bool):
        raise ValueError(f"DocMeta length must be an integer, got {length!r}")
    if length < 0:
        raise ValueError(f"DocMeta length must be >= 0, got {length}")
    if content_hash is not None and not isinstance(content_hash, str):
        raise ValueError(f"DocMeta content_hash must be a string, got {content_hash!r}")


class _DocMetaFields(NamedTuple):
    length: int
    timestamp: datetime | None = None
    content_hash: str | None = None


class DocMeta(_Checked, _DocMetaFields):
    """Per-document facts a corpus manifest carries: length in characters
    (an ``int``, not a ``bool``, >= 0), optional timestamp, optional
    content hash string (used for update detection when both sides of a
    diff have one). The doc id is the key it is stored under.

    An immutable named tuple, so it compares equal to the plain tuple
    ``(length, timestamp, content_hash)``. Every way to build one
    (``DocMeta(...)``, :meth:`_make`, :meth:`_replace`, unpickling) makes
    the checks of :func:`_check_doc_meta`, which its own ``__new__``
    calls before it builds the tuple.
    """

    __slots__ = ()

    def __new__(
        cls,
        length: int,
        timestamp: datetime | None = None,
        content_hash: str | None = None,
    ) -> "DocMeta":
        _check_doc_meta(length, content_hash)
        return tuple.__new__(cls, (length, timestamp, content_hash))


class _EvaluationEnvironmentFields(NamedTuple):
    label: str
    corpus: Corpus | None
    topics: dict[TopicId, str | None]
    qrels: Qrels


class EvaluationEnvironment(_Checked, _EvaluationEnvironmentFields):
    """One labelled snapshot of (documents, topics, qrels).

    ``corpus`` maps each doc id to its :class:`DocMeta`, and ``topics``
    each topic id to its text (None when the topic has none). Labels are
    opaque; their temporal order comes from the sequence the caller
    supplies, never from parsing the label text. Qrels topics missing
    from the topic map are tolerated at construction and surfaced by
    :func:`validate_environment` as warnings. ``corpus`` is None when the
    environment was loaded for scoring only, which reads no document
    metadata; the CRUD diff and the simulator need it.
    """

    __slots__ = ()

    def _check(self) -> None:
        if not self.label:
            raise ValueError("EvaluationEnvironment label must be non-empty")


class Scenario(Enum):
    """Which components changed between the compared environments: only the
    documents (rank- and score-drift measures apply, one shared recall
    base), or documents and qrels together (ARP-level measures apply)."""

    DTQ = "dtq"
    DTQ_PRIME = "dtq-prime"


class MeasureKind(Enum):
    PRECISION = "p"
    NDCG = "ndcg"
    BPREF = "bpref"


class _MeasureSpecFields(NamedTuple):
    kind: MeasureKind
    cutoff: int | None = None


class MeasureSpec(_Checked, _MeasureSpecFields):
    """An effectiveness measure instantiation, e.g. P@10, nDCG@20, bpref.

    Precision requires a cutoff; nDCG takes an optional one (none means
    full ranking depth); bpref takes none.
    """

    __slots__ = ()

    def _check(self) -> None:
        if self.kind is MeasureKind.PRECISION:
            if self.cutoff is None or self.cutoff < 1:
                raise ValueError("precision measure requires cutoff >= 1")
        elif self.kind is MeasureKind.BPREF:
            if self.cutoff is not None:
                raise ValueError("bpref takes no cutoff")
        elif self.cutoff is not None and self.cutoff < 1:
            raise ValueError("ndcg cutoff must be >= 1 when given")

    @property
    def name(self) -> str:
        """Canonical spelling: p@K, ndcg, ndcg@K, bpref."""
        if self.kind is MeasureKind.BPREF:
            return "bpref"
        if self.cutoff is None:
            return self.kind.value
        return f"{self.kind.value}@{self.cutoff}"

    @classmethod
    def parse(cls, text: str) -> "MeasureSpec":
        """Parse a canonical measure name (case-insensitive); the cutoff
        rules are :meth:`_check`'s."""
        base, _, cut = text.strip().lower().partition("@")
        cutoff: int | None = None
        if cut:
            try:
                cutoff = int(cut)
            except ValueError:
                raise ValueError(f"bad measure cutoff in {text!r}") from None
        try:
            kind = MeasureKind(base)  # each kind's value is its name
        except ValueError:
            raise ValueError(
                f"unknown measure {text!r} (expected p@K, ndcg[@K], bpref)"
            ) from None
        return cls(kind, cutoff)

    def __str__(self) -> str:
        return self.name


class _PerTopicScoresFields(NamedTuple):
    measure: MeasureSpec
    scores: dict[TopicId, float]


class PerTopicScores(_Checked, _PerTopicScoresFields):
    """Per-topic effectiveness under one measure; the system and the
    environment scored are the key the caller stores it under."""

    __slots__ = ()

    def _check(self) -> None:
        for topic, score in self.scores.items():
            if not 0.0 <= score <= 1.0:
                raise ValueError(
                    f"per-topic score must lie in [0, 1], got {score} for {topic}"
                )

    def topics(self) -> set[TopicId]:
        return set(self.scores)


def validate_environment(
    ee: EvaluationEnvironment, doc_ids: Collection[DocId] | None = None
) -> list[str]:
    """Cross-component consistency checks over an assembled environment.

    Type-level invariants are already guaranteed at construction; this
    reports the soft issues that are tolerated but worth surfacing: qrels
    topics missing from the topic set and judged documents absent from the
    corpus, one message each, topics first, each group in id order. The
    corpus is ``doc_ids`` when given, else the environment's own. Returns
    an empty list iff nothing was found.
    """
    if doc_ids is None:
        if ee.corpus is None:
            raise ValueError(
                f"environment {ee.label} carries no corpus; pass its doc ids"
            )
        doc_ids = ee.corpus
    findings = [
        f"qrels topic {topic} does not appear in the topic set"
        for topic in sorted(ee.qrels.topics().difference(ee.topics))
    ]
    judged = set().union(*ee.qrels.by_topic.values())
    findings.extend(
        f"judged document {doc} is absent from the corpus snapshot"
        for doc in sorted(judged.difference(doc_ids))
    )
    return findings
