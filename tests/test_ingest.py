"""Parser, writer, and environment-loading behavior."""

import json
from datetime import datetime, timedelta, timezone

import pytest

from irdrift import ingest
from irdrift.ingest import (
    EEConfig,
    IngestWarning,
    ParseError,
    format_manifest,
    format_qrels,
    format_run,
    format_topics,
    load_config,
    load_environment,
    parse_manifest,
    parse_manifest_ids,
    parse_qrels,
    parse_run,
    parse_topics,
)
from irdrift.model import DocMeta, TopicId


def test_parse_run_minimal_line():
    run = parse_run(["1 Q0 d7 1 12.5 bm25"])
    assert run.system_tag == "bm25"
    assert len(run.rankings) == 1
    ranking = run.rankings[TopicId("1")]
    assert (ranking.docs, ranking.scores) == (("d7",), (12.5,))


def test_parse_run_canonicalizes_by_score():
    # file order says d7 first, but d8's higher score must win rank 1
    run = parse_run(["1 Q0 d7 1 12.5 bm25", "1 Q0 d8 2 13.0 bm25"])
    assert run.rankings[TopicId("1")].docs == ("d8", "d7")
    # the ranks written back are the positions, not the file's rank column
    assert format_run(run) == "1 Q0 d8 1 13.0 bm25\n1 Q0 d7 2 12.5 bm25\n"


def test_parse_run_breaks_score_ties_by_doc_id():
    run = parse_run(["1 Q0 zz 1 5.0 s", "1 Q0 aa 2 5.0 s"])
    assert run.rankings[TopicId("1")].docs == ("aa", "zz")


def test_parse_run_non_numeric_rank_names_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_run(["1 Q0 d7 one 12.5 bm25"])


def test_parse_run_wrong_column_count():
    with pytest.raises(ParseError, match="6 columns"):
        parse_run(["1 Q0 d7 1 12.5"])


def test_parse_run_rejects_bad_q0():
    with pytest.raises(ParseError, match="Q0"):
        parse_run(["1 X0 d7 1 12.5 bm25"])
    # but accepts any case
    assert parse_run(["1 q0 d7 1 12.5 bm25"]).system_tag == "bm25"


def test_parse_run_duplicate_pair_is_error():
    with pytest.raises(ParseError, match="duplicate"):
        parse_run(["1 Q0 d7 1 2.0 s", "1 Q0 d7 2 1.0 s"])


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_parse_run_rejects_non_finite_scores(bad):
    # NaN once ranked [a, d, b, c] in file order and [d, b, c, a] reversed
    lines = [f"1 Q0 a 1 {bad} t", "1 Q0 b 2 2.0 t", "1 Q0 c 3 1.0 t", "1 Q0 d 4 3.0 t"]
    with pytest.raises(ParseError, match=f"line 1: non-finite score '{bad}'"):
        parse_run(lines)
    with pytest.raises(ParseError, match=f"line 4: non-finite score '{bad}'"):
        parse_run(lines[::-1])


def test_parse_run_mixed_tags_warn_first_wins():
    with pytest.warns(IngestWarning, match="mixed"):
        run = parse_run(["1 Q0 d7 1 2.0 first", "1 Q0 d8 2 1.0 second"])
    assert run.system_tag == "first"


def test_parse_run_empty_is_error():
    with pytest.raises(ParseError, match="empty run"):
        parse_run([])


def test_parse_qrels_minimal():
    q = parse_qrels(["1 0 d7 2"])
    assert q.by_topic == {"1": {"d7": 2}}


def test_parse_qrels_conflicting_duplicate_is_error():
    with pytest.raises(ParseError, match="d7"):
        parse_qrels(["1 0 d7 1", "1 0 d7 0"])


def test_parse_qrels_equal_duplicate_warns_and_dedups():
    with pytest.warns(IngestWarning, match="duplicate"):
        q = parse_qrels(["1 0 d7 1", "1 0 d7 1"])
    assert len(q) == 1


def test_parse_qrels_clamps_negative_grade():
    with pytest.warns(IngestWarning, match="clamped"):
        q = parse_qrels(["1 0 d7 -1"])
    assert q.by_topic["1"]["d7"] == 0


def test_parse_qrels_malformed_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_qrels(["1 0 d7 1", "1 0 d8"])


def test_parse_manifest_minimal():
    corpus = parse_manifest(['{"doc_id":"d1","length":120}'])
    assert corpus == {"d1": DocMeta(length=120)}


def test_parse_manifest_dates():
    lines = [
        '{"doc_id":"d1","length":1,"timestamp":"2019-01-01"}',
        '{"doc_id":"d2","length":2,"timestamp":"2020-01-01"}',
        '{"doc_id":"d3","length":3,"timestamp":"2021-01-01T12:30:00Z"}',
    ]
    corpus = parse_manifest(lines)
    stamps = [corpus[f"d{i}"].timestamp for i in (1, 2, 3)]
    assert all(s is not None for s in stamps)
    assert stamps == sorted(stamps)


@pytest.mark.parametrize(
    "text, expected",
    [
        # ISO week date, basic date and basic instant: accepted by the
        # Python 3.11 parsers that pyproject.toml's floor guarantees
        ("2023-W01-1", datetime(2023, 1, 2, tzinfo=timezone.utc)),
        ("20230101", datetime(2023, 1, 1, tzinfo=timezone.utc)),
        ("20230101T000000Z", datetime(2023, 1, 1, tzinfo=timezone.utc)),
    ],
)
def test_parse_manifest_accepts_the_python_3_11_iso_forms(text, expected):
    line = json.dumps({"doc_id": "d1", "length": 1, "timestamp": text})
    for parse in (parse_manifest, parse_manifest_ids):
        assert parse([line])
    timestamp = parse_manifest([line])["d1"].timestamp
    assert timestamp == expected and timestamp.utcoffset() == timedelta(0)


def test_parse_manifest_duplicate_doc_id_names_it():
    lines = ['{"doc_id":"d1","length":1}', '{"doc_id":"d1","length":2}']
    with pytest.raises(ParseError, match="d1"):
        parse_manifest(lines)


def test_parse_manifest_missing_field_names_line():
    with pytest.raises(ParseError, match="line 1.*length"):
        parse_manifest(['{"doc_id":"d1"}'])


def test_parse_manifest_bad_timestamp():
    with pytest.raises(ParseError, match="timestamp"):
        parse_manifest(['{"doc_id":"d1","length":1,"timestamp":"not-a-date"}'])


def test_parse_manifest_hash_field():
    corpus = parse_manifest(['{"doc_id":"d1","length":1,"hash":"abc"}'])
    assert corpus["d1"].content_hash == "abc"


def test_parse_manifest_parses_each_timestamp_text_once(monkeypatch):
    calls = []
    real = ingest._parse_timestamp

    def counting(value, lineno):
        calls.append(value)
        return real(value, lineno)

    monkeypatch.setattr(ingest, "_parse_timestamp", counting)
    dates = ["2019-01-01", "2019-02-01T10:00:00Z", "2019-03-01T00:00:00+02:00"]
    lines = [
        json.dumps({"doc_id": f"d{i}", "length": i, "timestamp": dates[i % 3]})
        for i in range(1000)
    ]
    corpus = parse_manifest(lines)
    assert sorted(calls) == sorted(dates)
    for i in (0, 1, 2, 998, 999):
        assert corpus[f"d{i}"].timestamp == real(dates[i % 3], 0)


def test_parse_manifest_bad_timestamp_after_good_ones_names_its_line():
    lines = [
        json.dumps({"doc_id": f"d{i}", "length": 1, "timestamp": "2019-01-01"})
        for i in range(6)
    ]
    lines.append('{"doc_id": "d6", "length": 1, "timestamp": "2019-13-01"}')
    with pytest.raises(ParseError, match=r"^line 7: unparsable timestamp '2019-13-01'$"):
        parse_manifest(lines)


@pytest.mark.parametrize("value", ['["x"]', "5", '{"a": 1}'])
def test_parse_manifest_rejects_non_string_timestamp(value):
    lines = [
        '{"doc_id": "d0", "length": 1, "timestamp": "2019-01-01"}',
        f'{{"doc_id": "d1", "length": 1, "timestamp": {value}}}',
    ]
    with pytest.raises(ParseError, match="^line 2: timestamp must be a string$"):
        parse_manifest(lines)


@pytest.mark.parametrize(
    "fields", [{"length": True}, {"length": 1.5}, {"length": -1}, {"length": 1, "hash": 7}]
)
def test_manifest_field_errors_are_doc_meta_messages(fields):
    with pytest.raises(ValueError) as meta:
        DocMeta(fields["length"], None, fields.get("hash"))
    line = json.dumps({"doc_id": "d1", **fields})
    for parse in (parse_manifest, parse_manifest_ids):
        with pytest.raises(ParseError) as exc:
            parse([line])
        assert str(exc.value) == f"line 1: {meta.value}"


def test_manifest_reports_a_bad_doc_id_or_timestamp_before_a_bad_length():
    for line, message in [
        ('{"doc_id": "a b", "length": 1.5}', "line 1: DocId must not contain whitespace"),
        ('{"doc_id": "d1", "length": -1, "timestamp": 5}', "line 1: timestamp must be a string"),
    ]:
        for parse in (parse_manifest, parse_manifest_ids):
            with pytest.raises(ParseError, match=f"^{message}"):
                parse([line])


# per parser: a valid record, and the same record with a NaN value
RECORDS = {
    parse_manifest: ('{"doc_id": "d1", "length": 3}', '{"doc_id": "d1", "length": NaN}'),
    parse_topics: ('{"topic_id": "q1", "text": "x"}', '{"topic_id": "q1", "text": NaN}'),
}
# each line variant holds one record; json.loads decides what it means
JSON_LINE_VARIANTS = {
    "leading spaces": "  {rec}",
    "leading tab": "\t{rec}\n",
    "trailing spaces": "{rec}   ",
    "crlf": "{rec}\r\n",
    "trailing nbsp": "{rec}\u00a0",
    "bom": "\ufeff{rec}",
    "two objects": "{rec} {rec}",
    "two objects, no space": "{rec}{rec}\n",
    "truncated": '{{"doc_id": "d1", "length": 3',
    "missing value": '{{"doc_id": "d1", "length": }}',
    "NaN value": "{nan}",
    "bare list": "[]",
}
JSON_LINE_CASES = [
    pytest.param(parse, variant.format(rec=rec, nan=nan), id=f"{parse.__name__}: {name}")
    for parse, (rec, nan) in RECORDS.items()
    for name, variant in JSON_LINE_VARIANTS.items()
]


def _outcome(parse, lines):
    try:
        return parse(lines)
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("parse,raw", JSON_LINE_CASES)
def test_json_lines_decode_as_json_loads_does(parse, raw):
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        expected = f"line 1: invalid JSON ({exc.msg})"
    else:
        expected = _outcome(parse, [json.dumps(value)])
    assert _outcome(parse, [raw]) == expected


@pytest.mark.parametrize(
    "parse,record", [(parse, rec) for parse, (rec, _) in RECORDS.items()]
)
def test_json_lines_skip_whitespace_only_lines(parse, record):
    assert parse([" \t\n", record, "\n"]) == parse([record])
    with pytest.raises(ParseError, match="^line 3: invalid JSON"):
        parse([" \t\n", record, "{"])


def test_parse_topics():
    topics = parse_topics(['{"topic_id":"1","text":"rain"}', '{"topic_id":"2"}'])
    assert topics == {"1": "rain", "2": None}


@pytest.mark.parametrize("value", ["0", "7", '["a"]', "null"])
def test_parse_topics_rejects_non_string_topic_id(value):
    with pytest.raises(ParseError, match="line 1: topic_id must be a string"):
        parse_topics([f'{{"topic_id": {value}}}'])


def _write_env(tmp_path, with_topics=False, topic_ids=("1",)):
    (tmp_path / "corpus.jsonl").write_text(
        '{"doc_id": "d1", "length": 10, "timestamp": "2019-01-01T00:00:00+00:00"}\n'
    )
    (tmp_path / "qrels.txt").write_text("1 0 d1 1\n")
    entry = {"label": "t0", "manifest": "corpus.jsonl", "qrels": "qrels.txt"}
    if with_topics:
        (tmp_path / "topics.jsonl").write_text(
            "".join(json.dumps({"topic_id": t}) + "\n" for t in topic_ids)
        )
        entry["topics"] = "topics.jsonl"
    (tmp_path / "ees.json").write_text(json.dumps([entry]))
    return tmp_path / "ees.json"


def test_load_environment_infers_topics_from_qrels(tmp_path):
    config = load_config(_write_env(tmp_path))[0]
    ee = load_environment(config)
    assert ee.topics == {"1": None}


def test_load_environment_warns_on_disjoint_topics(tmp_path):
    config = load_config(_write_env(tmp_path, with_topics=True, topic_ids=("7",)))[0]
    with pytest.warns(IngestWarning, match="topic 1"):
        ee = load_environment(config)
    assert ee.topics == {"7": None}


def test_load_environment_without_corpus_keeps_only_the_findings(tmp_path):
    config_path = _write_env(tmp_path, with_topics=True, topic_ids=("7",))
    (tmp_path / "qrels.txt").write_text("1 0 d1 1\n1 0 ghost 0\n")
    config = load_config(config_path)[0]
    with pytest.warns(IngestWarning) as full:
        full_ee = load_environment(config)
    with pytest.warns(IngestWarning) as lean:
        lean_ee = load_environment(config, corpus=False)
    assert [str(w.message) for w in lean] == [str(w.message) for w in full]
    assert [str(w.message) for w in lean] == [
        "environment t0: qrels topic 1 does not appear in the topic set",
        "environment t0: judged document ghost is absent from the corpus snapshot",
    ]
    assert lean_ee.corpus is None and full_ee.corpus is not None
    assert (lean_ee.topics, lean_ee.qrels) == (full_ee.topics, full_ee.qrels)


def test_load_environment_without_corpus_still_checks_every_manifest_line(tmp_path):
    config_path = _write_env(tmp_path)
    (tmp_path / "corpus.jsonl").write_text(
        '{"doc_id": "d1", "length": 10}\n{"doc_id": "d2", "length": -1}\n'
    )
    config = load_config(config_path)[0]
    message = f"{tmp_path / 'corpus.jsonl'}: line 2: DocMeta length must be >= 0, got -1"
    for corpus in (True, False):
        with pytest.raises(ParseError) as exc:
            load_environment(config, corpus=corpus)
        assert str(exc.value) == message


def test_load_environment_missing_manifest_names_path(tmp_path):
    config = EEConfig(
        label="t0",
        manifest_path=tmp_path / "absent.jsonl",
        qrels_path=tmp_path / "qrels.txt",
    )
    with pytest.raises(OSError, match="absent.jsonl"):
        load_environment(config)


def test_load_config_rejects_non_array(tmp_path):
    path = tmp_path / "ees.json"
    path.write_text('{"label": "t0"}')
    with pytest.raises(ParseError, match="array"):
        load_config(path)


def test_load_config_rejects_duplicate_labels(tmp_path):
    path = tmp_path / "ees.json"
    entry = {"label": "t0", "manifest": "m", "qrels": "q"}
    path.write_text(json.dumps([entry, entry]))
    with pytest.raises(ParseError, match="duplicate"):
        load_config(path)


@pytest.mark.parametrize(
    "field_name, value",
    [("label", ["t0"]), ("manifest", 7), ("qrels", None), ("topics", {"a": 1})],
)
def test_load_config_rejects_non_string_entries(tmp_path, field_name, value):
    path = tmp_path / "ees.json"
    good = {"label": "t0", "manifest": "m", "qrels": "q"}
    bad = dict(good, label="t1")
    bad[field_name] = value
    path.write_text(json.dumps([good, bad]))
    with pytest.raises(ParseError, match=f"entry 1: '{field_name}' must be a string"):
        load_config(path)


@pytest.mark.parametrize("field_name", ["manifest", "qrels", "topics"])
def test_load_config_rejects_empty_paths(tmp_path, field_name):
    # an empty path would resolve to the config's own directory
    path = tmp_path / "ees.json"
    good = {"label": "t0", "manifest": "m", "qrels": "q", "topics": "t"}
    bad = dict(good, label="t1")
    bad[field_name] = ""
    path.write_text(json.dumps([good, bad]))
    with pytest.raises(ParseError, match=f"entry 1: '{field_name}' must be a non-empty path"):
        load_config(path)


def test_load_config_reads_null_topics_as_absent(tmp_path):
    path = tmp_path / "ees.json"
    path.write_text(json.dumps([{"label": "t0", "manifest": "m", "qrels": "q", "topics": None}]))
    assert load_config(path)[0].topics_path is None


def test_round_trip_run_is_byte_identical():
    lines = ["1 Q0 d7 1 13.0 bm25", "1 Q0 d8 2 12.5 bm25", "2 Q0 d1 1 1.0 bm25"]
    run = parse_run(lines)
    text = format_run(run)
    assert format_run(parse_run(text.splitlines())) == text


def test_round_trip_qrels_is_byte_identical():
    q = parse_qrels(["1 0 d1 2", "1 0 d2 0", "2 0 d1 1"])
    text = format_qrels(q)
    assert format_qrels(parse_qrels(text.splitlines())) == text


def test_round_trip_manifest_is_byte_identical():
    lines = [
        '{"doc_id":"d1","length":1,"timestamp":"2019-01-01"}',
        '{"doc_id":"d2","length":2,"hash":"ff"}',
    ]
    text = format_manifest(parse_manifest(lines))
    assert format_manifest(parse_manifest(text.splitlines())) == text


def test_round_trip_topics_is_byte_identical():
    topics = parse_topics(['{"topic_id":"1","text":"x"}'])
    text = format_topics(topics)
    assert format_topics(parse_topics(text.splitlines())) == text


def test_canonicalization_is_idempotent():
    lines = ["1 Q0 d7 4 1.5 s", "1 Q0 d8 9 3.0 s", "1 Q0 d9 1 2.0 s"]
    once = format_run(parse_run(lines))
    twice = format_run(parse_run(once.splitlines()))
    assert once == twice
    assert parse_run(once.splitlines()).rankings[TopicId("1")].docs == (
        "d8",
        "d9",
        "d7",
    )


def test_parse_run_skips_blank_lines_only():
    run = parse_run(["", "1 Q0 d7 1 1.0 s", "   "])
    assert len(run.rankings) == 1
