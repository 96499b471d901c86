"""Parsers and writers for the on-disk formats.

Supported formats:

* run files: 6 whitespace-separated columns ``topic Q0 doc rank score tag``
  (the ``Q0`` literal is accepted case-insensitively),
* qrels: 4 columns ``topic iteration doc grade``,
* corpus manifests: JSON lines with ``doc_id``, ``length``, optional
  ``timestamp`` (ISO-8601 date or instant) and optional ``hash``,
* topic files: JSON lines with ``topic_id`` and optional ``text``,
* environment configs: one JSON array of entries ``{label, manifest,
  qrels, topics?}``; array order defines the temporal sequence t0..tn.

Parsing is strict: every input line either contributes data or raises
:class:`ParseError` naming its line number, and a file that is not
valid UTF-8 raises :class:`ParseError` naming the file. Recoverable oddities (mixed
run tags, duplicate identical qrels, negative grades) emit
:class:`IngestWarning` instead. Run rankings are canonicalized on ingest:
entries are re-sorted by (score descending, doc id ascending), trusting
scores over the file's rank column, which is validated but dropped; a
ranking's rank is the position, and :func:`format_run` writes it back.

Run and qrels files are read lazily, one line at a time, and each line
is split once and checked once, in a fixed order with fixed messages;
:func:`parse_run` and :func:`parse_qrels` list what a line costs. A
ranking's canonical order takes two steps: a stable sort of the doc ids
by score, descending, which is linear on a file already in score order,
then a doc-id sort of each run of equal scores; together they give the
order of sorting ``(-score, doc)`` pairs, ties between ``-0.0`` and
``0.0`` included. :func:`parse_run` builds each :class:`Ranking` with
``tuple.__new__``, without its ``_check``: the parser has just
established every invariant that check tests, so nothing is checked
twice.

Identifiers are checked once, where they enter. Run and qrels lines are
split on whitespace, so every token is already a non-empty,
whitespace-free id and needs no further check. Ids read from JSON
(manifests, topic files) go through :func:`~irdrift.model._check_id`.
Each id is kept once, as a map key: :func:`parse_manifest` gives the
corpus (doc id -> :class:`DocMeta`) and :func:`parse_topics` a topic id
-> text map.

JSON-lines records are decoded by one helper that accepts exactly what
``json.loads`` accepts, with its error messages. Every text that
``json.loads`` rejects, a JSON-lines record or a config, is reported by
one helper, ``_json``, as ``invalid JSON (<reason>)`` after its line
number or file path. A config is read through the same file opener as
every other input, so its read and UTF-8 errors are theirs.

A manifest parses each distinct timestamp text once and shares the
resulting (immutable) datetime between its documents. Manifests have
one line loop (``_read_manifest``) with two outputs:
:func:`parse_manifest` keeps each document's :class:`DocMeta`,
:func:`parse_manifest_ids` only its id.
Both make the same checks in the same order with the same messages, so
they accept the same files. The ``length`` and ``hash`` checks belong to
:mod:`irdrift.model` (:func:`~irdrift.model._check_doc_meta`, which
:class:`DocMeta` makes); this module only prefixes their message with
the line number. ``load_environment(config, corpus=False)`` reads
manifests the second way, for callers that score runs and need no
document metadata.

A sequence of environments (:func:`load_environments` and the CLI) is
loaded by one private loader, ``_load_sequence``, one environment after
another: its manifest, then its qrels and topics, then its validation
findings, so every result, message and warning, and their order, is the
one of loading each environment alone. The loader keeps a memo of the
previous manifest's lines: a raw line, newline included, that the
manifest loaded just before also held reuses that line's checked doc id
and :class:`DocMeta` (None in ids-only mode) and skips its decode and
checks. A line's checks depend on its text alone, and only lines that
passed them are kept; the duplicate id check still runs on every line.
Unchanged documents thus share one :class:`DocMeta` across snapshots. A
reused line leaves the previous memo as it enters the next, so loading
holds about one manifest's lines, for one call.

The JSON writers emit exactly the bytes ``json.dumps`` gives for each
record, with its default separators and ASCII escaping. Each manifest
and qrels line has one format, owned by a line helper
(``_manifest_line``, ``_qrels_line``): :func:`format_manifest` and
:func:`format_qrels` join its lines, and the ``simulate`` command
formats each line of its slices with it once.
"""

from __future__ import annotations

import json
import sys
import warnings
from datetime import date, datetime, timezone
from itertools import compress
from json.encoder import encode_basestring_ascii as _json_str
from operator import eq
from pathlib import Path
from typing import Iterable, NamedTuple

from .model import (
    Corpus,
    DocId,
    DocMeta,
    EvaluationEnvironment,
    Qrels,
    Ranking,
    RunFile,
    TopicId,
    _Checked,
    _check_doc_meta,
    _check_id,
    validate_environment,
)


class ParseError(ValueError):
    """Malformed input; the message carries file/line context."""


class IngestWarning(UserWarning):
    """Recoverable input oddity that was repaired or ignored."""


class _EEConfigFields(NamedTuple):
    label: str
    manifest_path: Path
    qrels_path: Path
    topics_path: Path | None = None


class EEConfig(_Checked, _EEConfigFields):
    """One environment's file locations, as listed in a config document."""

    __slots__ = ()

    def _check(self) -> None:
        if not self.label:
            raise ValueError("EEConfig label must be non-empty")


# the fewest digits sys.set_int_max_str_digits may limit int() to
_SAFE_DIGITS = sys.int_info.str_digits_check_threshold


def parse_run(lines: Iterable[str]) -> RunFile:
    """Parse a TREC-format run, canonicalizing each topic's ranking.

    The system tag is taken from column 6 of the first line; later lines
    with a different tag warn and keep the first. Duplicate (topic, doc)
    pairs and non-finite scores are errors.

    Lines are read one at a time, and each is split once and checked
    once, in the order and with the messages below. A well-formed line
    costs a split, a column count, the ``Q0`` compare, an ``isdecimal``
    and a length test of the rank, one ``float``, one subtraction and
    one ``setdefault``; ``int()`` runs only on a rank that is not all
    decimal digits or is very long. Each topic's ranking is then put in
    canonical order by two sorts and built without a second check
    (``_canonical_ranking``).
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
        if len(cols) != 6:
            if not cols:
                continue
            raise ParseError(
                f"line {lineno}: expected 6 columns (topic Q0 doc rank score tag), "
                f"got {len(cols)}"
            )
        topic, q0, doc, rank_s, score_s, tag = cols
        if q0 != "Q0" and q0.lower() != "q0":
            raise ParseError(f"line {lineno}: column 2 must be the literal Q0, got {q0!r}")
        # the rank column is validated but not trusted. int() accepts
        # every all-decimal token of at most _SAFE_DIGITS digits, under
        # any sys.set_int_max_str_digits limit; it decides every other one
        if not rank_s.isdecimal() or len(rank_s) > _SAFE_DIGITS:
            try:
                int(rank_s)
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric rank {rank_s!r}") from None
        try:
            score = float(score_s)
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric score {score_s!r}") from None
        if score - score:
            # x - x is 0.0 for a finite x and NaN for inf and NaN; NaN is
            # unordered, so the canonical sort would follow line order
            raise ParseError(f"line {lineno}: non-finite score {score_s!r}")
        if topic != prev_topic:
            prev_topic = topic
            docs = by_topic.get(topic)
            if docs is None:
                docs = by_topic[topic] = {}
        # float() made `score` just now (CPython shares no float between
        # calls), so only a doc already stored returns another object
        if docs.setdefault(doc, score) is not score:
            raise ParseError(f"line {lineno}: duplicate entry for topic {topic}, doc {doc}")
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
    """The ranking of a topic's doc -> score map, in the order of the key
    (score descending, doc id ascending).

    A stable sort by score alone, descending, leaves each run of equal
    scores in line order, and is linear on a file already in score
    order; sorting each such run by doc id then gives the order of
    sorting ``(-score, doc)`` pairs, as ``-0.0 == 0.0`` ties there too.
    Each doc keeps its own score, bits included.

    The ranking is built with ``tuple.__new__``, without
    :meth:`Ranking._check`: the doc ids are dict keys, so unique, and
    :func:`parse_run` let only finite scores in, which are now in
    non-increasing order.
    """
    doc_ids = sorted(docs, key=docs.__getitem__, reverse=True)
    # the same stable sort of the same keys, so scores[k] is docs[doc_ids[k]]
    scores = sorted(docs.values(), reverse=True)
    n, end = len(scores), 0
    # each i whose score ties the one before it; the run of ties that
    # holds i - 1 and i is doc_ids[i - 1 : end]
    for i in compress(range(1, n), map(eq, scores, scores[1:])):
        if i > end:
            score, end = scores[i], i + 1
            while end < n and scores[end] == score:
                end += 1
            doc_ids[i - 1 : end] = sorted(doc_ids[i - 1 : end])
            if not score:
                # the one run whose equal scores can differ in bits, 0.0
                # and -0.0: each doc takes its own back (equal values, so
                # the scan still finds the same ties)
                scores[i - 1 : end] = map(docs.__getitem__, doc_ids[i - 1 : end])
    return tuple.__new__(Ranking, (tuple(doc_ids), tuple(scores)))


# the grades of nearly every qrels line, without an int() call
_GRADES = {str(grade): grade for grade in range(10)}


def parse_qrels(lines: Iterable[str]) -> Qrels:
    """Parse TREC-format qrels; the iteration column is ignored.

    Negative grades are clamped to 0 (non-relevant) with a warning, which
    is how standard TREC tooling treats them. Duplicate pairs error when
    their grades conflict and dedup with a warning when they agree.

    Lines are read one at a time. A grade ``"0"`` to ``"9"`` is looked up
    in a table; ``int()`` parses any other, and only those can be negative.
    """
    # topic -> doc -> grade; the inner dict also detects duplicate pairs
    by_topic: dict[str, dict[str, int]] = {}
    prev_topic: str | None = None  # as in parse_run
    grades: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        cols = raw.split()
        if len(cols) != 4:
            if not cols:
                continue
            raise ParseError(
                f"line {lineno}: expected 4 columns (topic iteration doc grade), "
                f"got {len(cols)}"
            )
        topic, _iteration, doc, grade_s = cols
        grade = _GRADES.get(grade_s)
        if grade is None:
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


def _parse_timestamp(value: str, lineno: int) -> datetime:
    # Accept bare dates and full instants; everything is normalized to an
    # aware UTC datetime so timestamps sort consistently.
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        if len(text) == 10:
            parsed = datetime.combine(date.fromisoformat(text), datetime.min.time())
        else:
            parsed = datetime.fromisoformat(text)
    except ValueError:
        raise ParseError(f"line {lineno}: unparsable timestamp {value!r}") from None
    if parsed.tzinfo is None:
        return parsed.replace(tzinfo=timezone.utc)
    return parsed.astimezone(timezone.utc)


_scan_json = json.JSONDecoder().scan_once

# what _json_line returns for a blank line; JSON ``null`` decodes to None
_BLANK = object()


def _json_line(raw: str, lineno: int) -> object:
    """Decode one JSON-lines record as ``json.loads(raw)`` does, or return
    ``_BLANK`` for a line of whitespace only.

    The C scanner decodes the common line, one value from its first byte
    up to an optional final newline, without the regex passes of
    ``json.loads``; every other line (surrounding whitespace, a BOM,
    extra data, malformed JSON) goes to ``json.loads`` itself, so what is
    accepted and the message of what is not stay its own. A blank line
    never scans, so it is recognised there too.
    """
    try:
        value, end = _scan_json(raw, 0)
    except (StopIteration, json.JSONDecodeError, RecursionError):
        pass
    else:
        if end == len(raw) or (end == len(raw) - 1 and raw[end] == "\n"):
            return value
    if not raw.strip():
        return _BLANK
    return _json(raw, f"line {lineno}: ")


def _json(text: str, where: str) -> object:
    """``json.loads(text)``; a text it rejects raises :class:`ParseError`
    ``{where}invalid JSON ({reason})``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason = exc.msg  # without the position its str() appends
    except RecursionError as exc:  # nested deeper than the decoder goes
        reason = str(exc)
    raise ParseError(f"{where}invalid JSON ({reason})")


def _read_manifest(
    lines: Iterable[str],
    keep_meta: bool,
    previous: dict[str, tuple[DocId, DocMeta | None]] | None = None,
    checked: dict[str, tuple[DocId, DocMeta | None]] | None = None,
) -> dict[DocId, DocMeta | None]:
    """The one manifest line loop: each doc id maps to its :class:`DocMeta`
    if `keep_meta`, else to None.

    `previous` and `checked` map raw lines, as `lines` yields them, to the
    (doc id, meta) entry they gave. A line found in `previous` is taken
    out of it and reuses its entry; every other line is checked in full.
    Each line that passes is added to `checked`. A line's checks depend
    on its text alone, so only the duplicate id check, which depends on
    the file, runs on every line.
    """
    if previous is None:
        previous = {}
    docs: dict[DocId, DocMeta | None] = {}
    # timestamp text -> parsed instant; manifests repeat few distinct dates
    stamps: dict[str, datetime] = {}
    meta = None
    for lineno, raw in enumerate(lines, start=1):
        entry = previous.pop(raw, None)
        if entry is None:
            obj = _json_line(raw, lineno)
            if obj is _BLANK:
                continue
            if not isinstance(obj, dict):
                raise ParseError(f"line {lineno}: manifest line must be a JSON object")
            try:
                doc_text = obj["doc_id"]
                length = obj["length"]
            except KeyError as exc:
                raise ParseError(
                    f"line {lineno}: missing required field {exc.args[0]!r}"
                ) from None
            if not isinstance(doc_text, str):
                raise ParseError(f"line {lineno}: doc_id must be a string")
            try:
                doc_id = _check_id(doc_text, "DocId")
                stamp_text = obj.get("timestamp")
                timestamp = None
                if stamp_text is not None:
                    if not isinstance(stamp_text, str):
                        raise ParseError(f"line {lineno}: timestamp must be a string")
                    timestamp = stamps.get(stamp_text)
                    if timestamp is None:
                        timestamp = stamps[stamp_text] = _parse_timestamp(stamp_text, lineno)
                content_hash = obj.get("hash")
                if keep_meta:
                    meta = DocMeta(length, timestamp, content_hash)
                else:
                    _check_doc_meta(length, content_hash)
            except ParseError:
                raise
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        else:
            doc_id, meta = entry
        if doc_id in docs:
            raise ParseError(f"line {lineno}: duplicate doc_id {doc_id}")
        docs[doc_id] = meta
        if checked is not None:
            checked[raw] = (doc_id, meta) if entry is None else entry
    return docs


def parse_manifest(lines: Iterable[str]) -> Corpus:
    """Parse a JSON-lines corpus manifest into a doc id -> DocMeta map."""
    return _read_manifest(lines, keep_meta=True)


def parse_manifest_ids(lines: Iterable[str]) -> set[DocId]:
    """The doc ids of a JSON-lines corpus manifest.

    Every line gets the checks of :func:`parse_manifest`, in the same
    order and with the same messages, so both accept the same manifests;
    only the ids are kept.
    """
    return set(_read_manifest(lines, keep_meta=False))


def parse_topics(lines: Iterable[str]) -> dict[TopicId, str | None]:
    """Parse a JSON-lines topic file, ``{"topic_id": ..., "text": ...}``,
    into a topic id -> text map (None where a line has no text)."""
    topics: dict[TopicId, str | None] = {}
    for lineno, raw in enumerate(lines, start=1):
        obj = _json_line(raw, lineno)
        if obj is _BLANK:
            continue
        if not isinstance(obj, dict) or "topic_id" not in obj:
            raise ParseError(f"line {lineno}: topic line must carry topic_id")
        if not isinstance(obj["topic_id"], str):
            raise ParseError(f"line {lineno}: topic_id must be a string")
        try:
            topic_id = _check_id(obj["topic_id"], "TopicId")
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        text = obj.get("text")
        if text is not None and not isinstance(text, str):
            raise ParseError(f"line {lineno}: text must be a string")
        if topic_id in topics:
            raise ParseError(f"line {lineno}: duplicate topic_id {topic_id}")
        topics[topic_id] = text
    return topics


def load_config(path: Path | str) -> list[EEConfig]:
    """Load an environment config: a JSON array ordered t0..tn.

    Relative file paths are resolved against the config file's directory.
    ``label``, ``manifest`` and ``qrels`` must be strings, and ``topics``
    a string or absent (or null); a path string must be non-empty.
    """
    path = Path(path)
    doc = _parse_file(lambda handle: _json(handle.read(), ""), path)
    if not isinstance(doc, list):
        raise ParseError(f"{path}: config must be a JSON array of environments")
    base = path.parent
    configs: list[EEConfig] = []
    labels: set[str] = set()
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: entry {i} must be a JSON object")
        for field_name in ("label", "manifest", "qrels"):
            if field_name not in entry:
                raise ParseError(f"{path}: entry {i} missing {field_name!r}")
        for field_name in ("label", "manifest", "qrels", "topics"):
            value = entry.get(field_name)
            if not (isinstance(value, str) or (field_name == "topics" and value is None)):
                raise ParseError(
                    f"{path}: entry {i}: {field_name!r} must be a string, "
                    f"got {type(value).__name__}"
                )
            if value == "" and field_name != "label":
                # Path("") is ".", the config's own directory
                raise ParseError(f"{path}: entry {i}: {field_name!r} must be a non-empty path")
        label = entry["label"]
        if label in labels:
            raise ParseError(f"{path}: duplicate environment label {label!r}")
        labels.add(label)
        topics = entry.get("topics")
        try:
            configs.append(
                EEConfig(
                    label=label,
                    manifest_path=base / entry["manifest"],
                    qrels_path=base / entry["qrels"],
                    topics_path=base / topics if topics is not None else None,
                )
            )
        except ValueError as exc:
            raise ParseError(f"{path}: entry {i}: {exc}") from None
    return configs


def load_environment(config: EEConfig, *, corpus: bool = True) -> EvaluationEnvironment:
    """Assemble an environment from its files.

    Without a topics file the topic set is inferred from the qrels' topic
    ids with empty text. Validation findings are emitted as warnings; they
    never block assembly. With ``corpus=False`` the manifest is checked
    line by line as :func:`parse_manifest` checks it, but only its doc ids
    are kept, for the findings; the environment's ``corpus`` is None.
    """
    return _load_sequence([config], corpus=corpus)[0]


def load_environments(config_path: Path | str) -> list[EvaluationEnvironment]:
    """Load every environment listed in a config, in sequence order."""
    return _load_sequence(load_config(config_path), corpus=True)


def _load_sequence(configs: list[EEConfig], *, corpus: bool) -> list[EvaluationEnvironment]:
    """Load environments in the given order, each as :func:`load_environment`
    loads it: its manifest, read with the memo the module docstring
    describes against the checked lines of the one before it, then its
    qrels and topics, then its validation findings. The last manifest's
    lines are not kept, as nothing reads them.
    """
    envs: list[EvaluationEnvironment] = []
    previous: dict[str, tuple[DocId, DocMeta | None]] | None = None
    for i, config in enumerate(configs):
        checked = {} if i + 1 < len(configs) else None
        docs = _parse_file(
            lambda lines: _read_manifest(lines, corpus, previous, checked),
            config.manifest_path,
        )
        previous = checked
        qrels = _parse_file(parse_qrels, config.qrels_path)
        if config.topics_path is not None:
            topics = _parse_file(parse_topics, config.topics_path)
        else:
            topics = dict.fromkeys(sorted(qrels.topics()))
        ee = EvaluationEnvironment(
            label=config.label, corpus=docs if corpus else None, topics=topics, qrels=qrels
        )
        for finding in validate_environment(ee, None if corpus else docs):
            # reported at the line that called this loader's caller, as
            # load_environment(...) in user code
            warnings.warn(
                f"environment {config.label}: {finding}",
                IngestWarning,
                stacklevel=3,
            )
        envs.append(ee)
    return envs


def _parse_file(parser, path: Path):
    try:
        with open(path, encoding="utf-8") as handle:
            return parser(handle)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror}") from None
    except (ParseError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_run(path: Path | str) -> RunFile:
    """Parse a run file from disk."""
    return _parse_file(parse_run, Path(path))


def load_qrels(path: Path | str) -> Qrels:
    """Parse a qrels file from disk."""
    return _parse_file(parse_qrels, Path(path))


def load_manifest(path: Path | str) -> Corpus:
    """Parse a corpus manifest from disk."""
    return _parse_file(parse_manifest, Path(path))


def _format_score(score: float) -> str:
    # repr gives the shortest exact round-trip form, keeping
    # serialize(parse(x)) byte-stable for files this module wrote
    return repr(score)


def format_run(run: RunFile) -> str:
    """Canonical run serialization: one line per entry, sorted by topic, rank."""
    out: list[str] = []
    for topic in sorted(run.rankings):
        ranking = run.rankings[topic]
        for rank, (doc, score) in enumerate(zip(ranking.docs, ranking.scores), start=1):
            out.append(f"{topic} Q0 {doc} {rank} {_format_score(score)} {run.system_tag}")
    return "\n".join(out) + ("\n" if out else "")


def format_qrels(qrels: Qrels) -> str:
    """Canonical qrels serialization, sorted by (topic, doc); each line is
    :func:`_qrels_line`."""
    return "".join(
        _qrels_line(topic, doc, grades[doc])
        for topic, grades in sorted(qrels.by_topic.items())
        for doc in sorted(grades)
    )


def _qrels_line(topic: TopicId, doc: DocId, grade: int) -> str:
    """One canonical qrels line, newline included."""
    return f"{topic} 0 {doc} {grade}\n"


def format_manifest(corpus: Corpus) -> str:
    """Canonical manifest serialization, sorted by doc id; each line is
    :func:`_manifest_line`."""
    # every timestamp stays alive in `corpus` for the whole call
    stamps: dict[int, str] = {}
    return "".join(
        _manifest_line(doc_id, corpus[doc_id], stamps) for doc_id in sorted(corpus)
    )


def _manifest_line(doc_id: DocId, meta: DocMeta, stamps: dict[int, str]) -> str:
    """One canonical manifest line, newline included: the ``json.dumps`` of
    ``{"doc_id", "length", "timestamp"?, "hash"?}``, built directly, with
    strings quoted by the same ASCII encoder and the length rendered by
    ``int.__repr__`` as ``json.dumps`` renders an int.

    `stamps` maps id(timestamp) to its rendered ``"timestamp"`` member,
    for the caller to share between lines. It is keyed by identity, not
    equality: equal instants at different UTC offsets render differently.
    The caller keeps every timestamp it has passed alive while it uses
    `stamps`, so no id is reused.
    """
    length, timestamp, content_hash = meta
    stamp = ""
    if timestamp is not None:
        stamp = stamps.get(id(timestamp))
        if stamp is None:
            stamp = stamps[id(timestamp)] = f', "timestamp": {_json_str(timestamp.isoformat())}'
    tail = "}\n" if content_hash is None else f', "hash": {_json_str(content_hash)}}}\n'
    return f'{{"doc_id": {_json_str(doc_id)}, "length": {int.__repr__(length)}{stamp}{tail}'


def format_topics(topics: dict[TopicId, str | None]) -> str:
    """Canonical topic-file serialization, sorted by topic id."""
    out: list[str] = []
    for topic_id in sorted(topics):
        obj: dict[str, object] = {"topic_id": topic_id}
        text = topics[topic_id]
        if text is not None:
            obj["text"] = text
        out.append(json.dumps(obj))
    return "\n".join(out) + ("\n" if out else "")
