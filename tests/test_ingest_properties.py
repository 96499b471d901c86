"""Properties of the parsers and writers over generated inputs: the run
and qrels result does not depend on line order, canonical output
re-parses to the same value, a repeated (topic, doc) pair is reported at
its line, the nested qrels map agrees with the flat (topic, doc) pairs it
was built from, the manifest writer emits the bytes of ``json.dumps``,
the ids-only manifest check accepts and rejects what the full parse
does, and a sequence of environments loads each one as it loads
alone."""

import json
import re
import warnings
from datetime import timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irdrift import ingest
from irdrift.ingest import (
    EEConfig,
    ParseError,
    _load_sequence,
    _read_manifest,
    format_manifest,
    format_qrels,
    format_run,
    load_environment,
    parse_manifest,
    parse_manifest_ids,
    parse_qrels,
    parse_run,
)
from irdrift.model import DocMeta, Qrels

from conftest import NoDocMeta

# tokens as str.split() yields them: non-empty, no whitespace
token = st.text(min_size=1, max_size=4).filter(lambda s: s.split() == [s])
# a few shared values make score ties common, including 0.0 against -0.0
score = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)
pairs = st.lists(st.tuples(token, token), min_size=1, max_size=30, unique=True)

SETTINGS = settings(deadline=None)


@st.composite
def run_lines(draw):
    """Valid run lines, one per distinct (topic, doc) pair, and their order."""
    keys = draw(pairs)
    tag = draw(token)
    lines = [
        f"{topic} Q0 {doc} {draw(st.integers(-5, 5))} {draw(score)!r} {tag}"
        for topic, doc in keys
    ]
    return lines, draw(st.permutations(lines))


@st.composite
def qrels_lines(draw):
    """Valid qrels lines, equal-grade duplicates included, and their order."""
    keys = draw(pairs)
    lines = [f"{topic} 0 {doc} {draw(st.integers(-2, 3))}" for topic, doc in keys]
    lines += draw(st.lists(st.sampled_from(lines), max_size=3))
    return lines, draw(st.permutations(lines))


@SETTINGS
@given(run_lines())
def test_parse_run_ignores_line_order(case):
    lines, shuffled = case
    assert parse_run(shuffled, "t0") == parse_run(lines, "t0")


@SETTINGS
@given(qrels_lines())
def test_parse_qrels_ignores_line_order(case):
    lines, shuffled = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clamped grades, deduplicated pairs
        assert parse_qrels(shuffled) == parse_qrels(lines)


@SETTINGS
@given(run_lines())
def test_format_run_reparses_to_the_same_run(case):
    run = parse_run(case[0], "t0")
    assert parse_run(format_run(run).splitlines(), "t0") == run


@SETTINGS
@given(run_lines(), st.data())
def test_repeated_run_pair_is_reported_at_its_line(case, data):
    lines = case[0]
    first = data.draw(st.integers(0, len(lines) - 1))
    at = data.draw(st.integers(first + 1, len(lines)))
    topic, _, doc, *_ = lines[first].split()
    lines = [*lines[:at], f"{topic} Q0 {doc} 1 {data.draw(score)!r} x", *lines[at:]]
    with pytest.raises(ParseError, match=f"^line {at + 1}: duplicate entry"):
        parse_run(lines, "t0")


@SETTINGS
@given(qrels_lines(), st.data())
def test_conflicting_qrels_pair_is_reported_at_its_line(case, data):
    lines = sorted(set(case[0]), key=case[0].index)
    first = data.draw(st.integers(0, len(lines) - 1))
    at = data.draw(st.integers(first + 1, len(lines)))
    topic, _, doc, grade = lines[first].split()
    lines = [*lines[:at], f"{topic} 0 {doc} {max(int(grade), 0) + 1}", *lines[at:]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ParseError, match=f"^line {at + 1}: conflicting grades"):
            parse_qrels(lines)


def nest(pairs):
    """``{(topic, doc): grade}`` -> ``{topic: {doc: grade}}``."""
    by_topic = {}
    for (topic, doc), grade in pairs.items():
        by_topic.setdefault(topic, {})[doc] = grade
    return by_topic


# grades 0..3: topics judged only 0, and grades above 1, are common
flat_pairs = st.dictionaries(st.tuples(token, token), st.integers(0, 3), max_size=30)


@SETTINGS
@given(flat_pairs, st.data())
@example({("a", "x"): 0, ("a", "y"): 0, ("b", "x"): 2, ("b", "z"): 3}, None)
def test_nested_qrels_agree_with_their_flat_pairs(pairs, data):
    qrels = Qrels(nest(pairs))
    assert qrels.topics() == {topic for topic, _ in pairs}
    assert len(qrels) == len(pairs)
    # the writer's bytes are those of the flat pairs in (topic, doc) order
    text = format_qrels(qrels)
    assert text == "".join(f"{t} 0 {d} {g}\n" for (t, d), g in sorted(pairs.items()))
    assert parse_qrels(text.splitlines()) == qrels

    docs = sorted({doc for _, doc in pairs})
    kept = {"x"} if data is None else data.draw(st.sets(st.sampled_from(docs or ["x"])))
    restricted = qrels.restricted_to_docs(kept)
    assert restricted == Qrels(nest({k: g for k, g in pairs.items() if k[1] in kept}))
    emptied = {t for t, grades in qrels.by_topic.items() if not grades.keys() & kept}
    assert restricted.topics() == qrels.topics() - emptied


@SETTINGS
@given(flat_pairs.filter(bool), st.integers(max_value=-1), st.data())
def test_qrels_reject_negative_grades_and_empty_topics(pairs, negative, data):
    topic, doc = data.draw(st.sampled_from(sorted(pairs)))
    by_topic = nest(pairs)
    by_topic[topic][doc] = negative
    message = f"Qrels grade must be >= 0, got {negative} for ({topic}, {doc})"
    with pytest.raises(ValueError, match=re.escape(message)):
        Qrels(by_topic)
    by_topic = nest(pairs)
    empty = data.draw(token.filter(lambda t: t not in by_topic))
    by_topic[empty] = {}
    with pytest.raises(ValueError, match="no judged docs"):
        Qrels(by_topic)


def reference_format_manifest(corpus):
    """The manifest writer as one ``json.dumps`` per line: the oracle."""
    out = []
    for doc_id in sorted(corpus):
        meta = corpus[doc_id]
        obj = {"doc_id": doc_id, "length": meta.length}
        if meta.timestamp is not None:
            obj["timestamp"] = meta.timestamp.isoformat()
        if meta.content_hash is not None:
            obj["hash"] = meta.content_hash
        out.append(json.dumps(obj))
    return "\n".join(out) + ("\n" if out else "")


# characters json.dumps escapes or ASCII-encodes, and ones str.splitlines
# would cut a line at if they were written raw; \x00 and \x1f are not
# whitespace, so a DocId may hold them
json_text = st.text(
    alphabet=st.sampled_from('ab"\\/\x00\x1f\x7f\x85\u2028é€😀 \t'), max_size=6
)
doc_id = json_text.filter(lambda s: s.split() == [s])
UTC_OFFSETS = [timedelta(0), timedelta(hours=5, minutes=30), timedelta(hours=-8)]


@st.composite
def corpora(draw, utc_only=False):
    """Corpora whose docs share a few timestamp objects, as parsed ones do."""
    zones = st.sampled_from(
        [timezone.utc] if utc_only else [None, *map(timezone, UTC_OFFSETS)]
    )
    stamp = st.datetimes(timezones=zones)
    whole_second = stamp.map(lambda t: t.replace(microsecond=0))
    stamps = draw(st.lists(st.one_of(stamp, whole_second), max_size=3))
    if stamps and not utc_only and stamps[0].tzinfo is not None:
        # an equal instant at another offset renders differently
        stamps.append(stamps[0].astimezone(timezone(timedelta(hours=1))))
    ids = draw(st.lists(doc_id, max_size=8, unique=True))
    return {
        i: DocMeta(
            length=draw(st.integers(0, 2**70)),
            timestamp=draw(st.sampled_from([None, *stamps])),
            content_hash=draw(st.none() | json_text),
        )
        for i in ids
    }


@SETTINGS
@given(corpora())
def test_format_manifest_writes_the_bytes_of_json_dumps(corpus):
    assert format_manifest(corpus) == reference_format_manifest(corpus)


@SETTINGS
@given(corpora(utc_only=True))
def test_format_manifest_reparses_to_the_same_text(corpus):
    text = format_manifest(corpus)
    assert format_manifest(parse_manifest(text.splitlines())) == text


# a few ids, so that duplicates are common; "" and "a b" fail the id check
manifest_id = st.sampled_from(["d1", "d2", "d3", "é", "", "a b", "x\x00"])
manifest_value = st.one_of(
    st.integers(-3, 3), st.booleans(), st.floats(-2, 2), st.none(), st.text(max_size=3)
)
manifest_stamp = st.sampled_from(
    ["2022-06-01", "2022-06-01T10:00:00Z", "2022-06-01T10:00:00+05:30",
     "2022-13-01", "yesterday", ""]
)


def mostly(valid, other):
    """`valid` four times in five, else `other`."""
    return st.integers(0, 4).flatmap(lambda i: valid if i else other)


@st.composite
def manifest_record(draw):
    """A JSON object close to a manifest record: any field may be missing
    or of the wrong type."""
    obj = {}
    if draw(st.integers(0, 9)):
        obj["doc_id"] = draw(mostly(manifest_id, manifest_value))
    if draw(st.integers(0, 9)):
        obj["length"] = draw(mostly(st.integers(-1, 5), manifest_value))
    if draw(st.booleans()):
        obj["timestamp"] = draw(mostly(manifest_stamp, manifest_value))
    if draw(st.booleans()):
        obj["hash"] = draw(mostly(st.text(max_size=3), manifest_value))
    return obj


@st.composite
def manifest_line(draw):
    text = draw(
        mostly(
            manifest_record().map(json.dumps),
            st.sampled_from(
                ["null", "[1]", "3", '"d1"', "{", '{"doc_id": "d1"} 5', "", " ", "\t", "\u00a0"]
            ),
        )
    )
    # padding and a BOM go to json.loads; a CRLF ending is whitespace to it
    if not draw(st.integers(0, 9)):
        text = draw(st.sampled_from([" ", "\ufeff"])) + text + draw(st.sampled_from(["", " "]))
    return text + draw(st.sampled_from(["", "\n", "\r\n"]))


def manifest_outcome(parse, lines):
    try:
        return "ok", parse(lines)
    except ParseError as exc:
        return "error", str(exc)


@settings(deadline=None, max_examples=300)
@given(st.lists(manifest_line(), max_size=8))
@example(['{"doc_id": "d1", "length": -1}'])
@example(['{"doc_id": "d1", "length": 1}', "", '{"doc_id": "d1", "length": 2}\n'])
def test_manifest_ids_check_every_line_as_the_full_parse_does(lines):
    full = manifest_outcome(lambda ls: set(parse_manifest(ls)), lines)
    ids = manifest_outcome(parse_manifest_ids, lines)
    assert ids == full
    if ids[0] == "ok":
        assert type(ids[1]) is set


# --- environment sequences --------------------------------------------------

# the ids valid lines draw, among them every valid id manifest_id draws:
# each environment's qrels judge all of them, so its "absent from the
# corpus" warnings show which of them its manifest lists
JUDGED_IDS = ["é", "x\x00", *(f"d{i}" for i in range(1, 21))]


@st.composite
def valid_manifest_line(draw):
    obj = {"doc_id": draw(st.sampled_from(JUDGED_IDS)), "length": draw(st.integers(0, 2))}
    if draw(st.booleans()):
        obj["timestamp"] = draw(st.sampled_from(["2022-06-01", "2022-06-01T10:00:00Z"]))
    if draw(st.booleans()):
        obj["hash"] = draw(st.sampled_from(["h1", "h2"]))
    return json.dumps(obj) + draw(st.sampled_from(["", "\n", "\r\n"]))


@st.composite
def manifest_sequences(draw):
    """Manifests m0, m1, ...: each after the first repeats lines of the
    one before it, in any order, among new lines."""
    line = mostly(valid_manifest_line(), manifest_line())
    manifests = [draw(st.lists(line, max_size=5))]
    for _ in range(draw(st.integers(1, 2))):
        previous = manifests[-1]
        kept = []
        if previous:
            # now and then a line twice
            unique = draw(st.integers(0, 4)) > 0
            kept = draw(st.lists(st.sampled_from(previous), max_size=5, unique=unique))
        manifests.append(draw(st.permutations(kept + draw(st.lists(line, max_size=2)))))
    return manifests


def write_sequence(directory, manifests):
    """One config entry per manifest, each with qrels judging JUDGED_IDS.
    A line without a newline gets one unless it is its file's last."""
    configs = []
    for i, lines in enumerate(manifests):
        manifest = directory / f"m{i}.jsonl"
        text = "".join(line if line.endswith("\n") else line + "\n" for line in lines[:-1])
        manifest.write_bytes((text + (lines[-1] if lines else "")).encode("utf-8"))
        qrels = directory / f"q{i}.txt"
        qrels.write_text("".join(f"q1 0 {doc} 1\n" for doc in JUDGED_IDS), encoding="utf-8")
        configs.append(EEConfig(f"t{i}", manifest, qrels))
    return configs


def load_outcome(load):
    """(environments or ParseError text, warning texts in order)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load()
        except ParseError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


def load_each_alone(configs, corpus):
    """What loading the environments one by one gives, up to the first error."""
    envs, caught = [], []
    for config in configs:
        result, warned = load_outcome(lambda: load_environment(config, corpus=corpus))
        caught += warned
        if isinstance(result, str):
            return result, caught
        envs.append(result)
    return envs, caught


D1 = '{"doc_id": "d1", "length": 1}'
D2 = '{"doc_id": "d2", "length": 2}'


@settings(deadline=None, max_examples=200)
@given(manifest_sequences(), st.booleans())
# a line of m0 listed twice in m1: the duplicate is m1's line 3
@example([[D1 + "\n"], [D1 + "\n", D2 + "\n", D1 + "\n"]], True)
@example([[D1 + "\n"], [D1 + "\n", D2 + "\n", D1 + "\n"]], False)
# m0's last line has no newline; m1 repeats it with one
@example([[D1 + "\n", D2], [D2 + "\n", '{"doc_id": "d3", "length": 3}']], True)
# blank and CRLF lines
@example([[D1 + "\r\n", "\n", " \r\n", D2 + "\n"], ["\n", D1 + "\r\n", " \r\n", D2 + "\r\n"]], True)
# a line invalid in m0, repeated in m1
@example([['{"doc_id": "d1", "length": -1}\n'], ['{"doc_id": "d1", "length": -1}\n']], False)
def test_a_sequence_loads_each_environment_as_it_loads_alone(tmp_path_factory, manifests, corpus):
    configs = write_sequence(tmp_path_factory.mktemp("ees"), manifests)
    expected, expected_warnings = load_each_alone(configs, corpus)
    result, caught = load_outcome(lambda: _load_sequence(configs, corpus=corpus))
    assert caught == expected_warnings
    assert result == expected
    if not isinstance(result, str):
        for ee, alone in zip(result, expected):
            if corpus:
                assert list(ee.corpus.items()) == list(alone.corpus.items())
            else:
                assert ee.corpus is None


def test_a_line_that_fails_its_checks_is_never_reused():
    bad = '{"doc_id": "d2", "length": -1}\n'
    checked = {}
    with pytest.raises(ParseError) as first:
        _read_manifest([D1 + "\n", bad], True, None, checked)
    assert str(first.value).startswith("line 2: ")
    assert list(checked) == [D1 + "\n"]
    with pytest.raises(ParseError) as again:
        _read_manifest([bad], True, checked, {})
    assert str(again.value) == str(first.value).replace("line 2: ", "line 1: ")


def test_a_repeated_line_listed_twice_is_a_duplicate_at_its_own_line(tmp_path):
    configs = write_sequence(tmp_path, [[D1 + "\n"], [D2 + "\n", D1 + "\n", D1 + "\n"]])
    result, _ = load_outcome(lambda: _load_sequence(configs, corpus=True))
    assert result == f"{configs[1].manifest_path}: line 3: duplicate doc_id d1"


def test_unchanged_lines_share_one_doc_meta_across_the_sequence(tmp_path):
    d3 = '{"doc_id": "d3", "length": 3, "timestamp": "2022-06-01", "hash": "h"}\n'
    manifests = [
        [D1 + "\n", D2 + "\n", d3],
        [d3, '{"doc_id": "d2", "length": 5}\n', D1 + "\n"],
        [D1 + "\n", d3],
    ]
    with pytest.warns(UserWarning, match="absent from the corpus"):
        t0, t1, t2 = _load_sequence(write_sequence(tmp_path, manifests), corpus=True)
    assert t0.corpus["d1"] is t1.corpus["d1"] is t2.corpus["d1"]
    assert t0.corpus["d3"] is t1.corpus["d3"] is t2.corpus["d3"]
    assert t1.corpus["d2"] == DocMeta(5) and t0.corpus["d2"] == DocMeta(2)


def test_an_ids_only_sequence_never_builds_doc_meta(tmp_path, monkeypatch):
    configs = write_sequence(tmp_path, [[D1 + "\n", D2 + "\n"], [D2 + "\n", D1 + "\n"]])
    monkeypatch.setattr(ingest, "DocMeta", NoDocMeta)
    result, caught = load_outcome(lambda: _load_sequence(configs, corpus=False))
    assert [ee.corpus for ee in result] == [None, None]
    assert caught == [
        f"environment {label}: judged document {doc} is absent from the corpus snapshot"
        for label in ("t0", "t1")
        for doc in sorted(set(JUDGED_IDS) - {"d1", "d2"})
    ]
