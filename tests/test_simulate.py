"""Append-only environment simulation and topic intersection, and the
files of the ``simulate`` command against the slices of
:func:`split_append_only`."""

import contextlib
import io
import json
import tempfile
import warnings
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irdrift import cli, ingest
from irdrift.cli import main
from irdrift.diff import diff_documents, summarize
from irdrift.ingest import (
    IngestWarning,
    format_manifest,
    format_qrels,
    format_topics,
    load_manifest,
    load_qrels,
)
from irdrift.model import DocMeta, EvaluationEnvironment, Qrels, validate_environment
from irdrift.simulate import SimulationPlan, _slice_files, common_topics, split_append_only

from conftest import make_environment, make_qrels, synth_corpus, synth_qrels


def _utc(year, month, day):
    return datetime(year, month, day, tzinfo=timezone.utc)


def _base_env(n_docs=9) -> EvaluationEnvironment:
    corpus = synth_corpus(n_docs)
    qrels = synth_qrels(sorted(corpus), ["1", "2"])
    return make_environment("base", corpus, qrels, topic_ids=["1", "2"])


def test_equal_count_split_sizes():
    slices = split_append_only(_base_env(9), SimulationPlan(num_slices=3))
    assert [len(ee.corpus) for ee in slices] == [3, 6, 9]
    assert [ee.label for ee in slices] == ["t0", "t1", "t2"]


def test_append_only_diffs_have_no_deletes_or_updates():
    slices = split_append_only(_base_env(10), SimulationPlan(num_slices=3))
    for earlier, later in zip(slices, slices[1:]):
        d = diff_documents(earlier.corpus, later.corpus)
        assert d.deleted == frozenset()
        assert d.updated == frozenset()
    # created docs across consecutive diffs add up to final minus first
    created = set()
    for earlier, later in zip(slices, slices[1:]):
        created |= diff_documents(earlier.corpus, later.corpus).created
    assert created == slices[-1].corpus.keys() - slices[0].corpus.keys()


def test_topics_are_copied_unchanged():
    base = _base_env(6)
    for ee in split_append_only(base, SimulationPlan(num_slices=2)):
        assert ee.topics == base.topics


def test_qrels_restricted_to_present_docs():
    docs = {f"d{i}": DocMeta(length=1, timestamp=_utc(2019, 1, i + 1)) for i in range(9)}
    base = EvaluationEnvironment(
        label="base",
        corpus=docs,
        topics={"1": None},
        # d8 is dated in the last third: its pair may only appear in t2
        qrels=make_qrels({("1", "d0"): 1, ("1", "d8"): 1}),
    )
    t0, t1, t2 = split_append_only(base, SimulationPlan(num_slices=3))
    assert "d8" not in t0.qrels.by_topic["1"]
    assert "d8" not in t1.qrels.by_topic["1"]
    assert "d8" in t2.qrels.by_topic["1"]

    def pairs(ee):
        return {(t, d) for t, grades in ee.qrels.by_topic.items() for d in grades}

    # restriction is monotone
    assert pairs(t0) <= pairs(t1) <= pairs(t2)


def test_missing_timestamp_names_document():
    docs = {
        "dated": DocMeta(length=1, timestamp=_utc(2019, 1, 1)),
        "undated": DocMeta(length=1),
    }
    base = EvaluationEnvironment(
        label="base", corpus=docs, topics={}, qrels=Qrels({})
    )
    with pytest.raises(ValueError, match="undated"):
        split_append_only(base, SimulationPlan(num_slices=2))


def test_more_slices_than_distinct_timestamps_is_error():
    stamp = _utc(2020, 5, 5)
    docs = {f"d{i}": DocMeta(length=1, timestamp=stamp) for i in range(6)}
    base = EvaluationEnvironment(
        label="base", corpus=docs, topics={}, qrels=Qrels({})
    )
    with pytest.raises(ValueError, match="distinct"):
        split_append_only(base, SimulationPlan(num_slices=2))


def test_timestamp_ties_break_by_doc_id_and_sizes_stay_balanced():
    # two distinct dates, four docs sharing the earlier one
    docs = {}
    for i, day in enumerate([1, 1, 1, 1, 2]):
        docs[f"d{i}"] = DocMeta(length=1, timestamp=_utc(2019, 1, day))
    base = EvaluationEnvironment(
        label="base", corpus=docs, topics={}, qrels=Qrels({})
    )
    t0, t1 = split_append_only(base, SimulationPlan(num_slices=2))
    assert sorted(t0.corpus) == ["d0", "d1", "d2"]  # earliest ids first
    assert len(t1.corpus) - len(t0.corpus) <= len(t0.corpus)
    assert abs((len(t1.corpus) - len(t0.corpus)) - len(t0.corpus)) <= 1


def test_equal_instants_at_different_offsets_tie_and_break_by_doc_id():
    instant = _utc(2019, 1, 2)
    docs = {
        "c": DocMeta(length=1, timestamp=instant),
        "a": DocMeta(length=1, timestamp=instant.astimezone(timezone(timedelta(hours=5)))),
        "b": DocMeta(length=1, timestamp=instant.astimezone(timezone(timedelta(hours=-3)))),
        "z": DocMeta(length=1, timestamp=_utc(2019, 1, 1)),
    }
    base = EvaluationEnvironment(label="base", corpus=docs, topics={}, qrels=Qrels({}))
    t0, t1 = split_append_only(base, SimulationPlan(num_slices=2))
    assert list(t0.corpus) == ["z", "a"]
    assert list(t1.corpus) == ["z", "a", "b", "c"]
    # the three spellings are one instant, so there are two to cut at
    with pytest.raises(ValueError, match="cannot cut 3 slices from 2 distinct timestamps"):
        split_append_only(base, SimulationPlan(num_slices=3))


BOUNDARY_CASES = [
    ((_utc(2019, 3, 15), _utc(2019, 12, 31)), [3, 6]),
    # a document dated at a boundary is in that boundary's slice
    ((_utc(2019, 3, 1), _utc(2019, 5, 1)), [3, 5]),
    # one after the last document keeps every document
    ((_utc(2019, 2, 1), _utc(2030, 1, 1)), [2, 6]),
    ((_utc(2019, 1, 1), _utc(2019, 4, 1), _utc(2019, 6, 1)), [1, 4, 6]),
]


@pytest.mark.parametrize("boundaries, sizes", BOUNDARY_CASES)
def test_explicit_boundaries(boundaries, sizes):
    # d1..d6 are dated on the first of months 1..6
    docs = {}
    for i in range(1, 7):
        docs[f"d{i}"] = DocMeta(length=1, timestamp=_utc(2019, i, 1))
    base = EvaluationEnvironment(
        label="base", corpus=docs, topics={}, qrels=Qrels({})
    )
    plan = SimulationPlan(num_slices=len(boundaries), boundaries=boundaries)
    slices = split_append_only(base, plan)
    assert [sorted(ee.corpus) for ee in slices] == [
        [f"d{i}" for i in range(1, size + 1)] for size in sizes
    ]


def test_explicit_boundary_before_all_docs_is_error():
    docs = {"d1": DocMeta(length=1, timestamp=_utc(2019, 6, 1))}
    base = EvaluationEnvironment(
        label="base", corpus=docs, topics={}, qrels=Qrels({})
    )
    plan = SimulationPlan(num_slices=2, boundaries=(_utc(2018, 1, 1), _utc(2020, 1, 1)))
    with pytest.raises(ValueError, match="empty"):
        split_append_only(base, plan)


@pytest.mark.parametrize("boundaries, sizes", BOUNDARY_CASES)
def test_slice_files_at_explicit_boundaries_are_the_files_of_split_append_only(
    boundaries, sizes
):
    # the simulate command cuts only into equal counts, so this cut is
    # checked here: d1..d6 are dated on the first of months 1..6, some
    # hashed, and judgments fall on documents late, absent or in no slice
    docs = {
        f"d{i}": DocMeta(length=i, timestamp=_utc(2019, i, 1), content_hash=f"h{i}" if i % 2 else None)
        for i in range(1, 7)
    }
    qrels = make_qrels({("1", "d1"): 1, ("1", "d6"): 2, ("2", "d4"): 0, ("2", "gone"): 1,
                        ("3", "d5"): 1})
    base = EvaluationEnvironment(
        label="base", corpus=docs, topics={"1": "rain", "2": None, "3": "fog"}, qrels=qrels
    )
    plan = SimulationPlan(num_slices=len(boundaries), boundaries=boundaries)
    files = {"topics.jsonl": format_topics(base.topics)}
    config = []
    for ee in split_append_only(base, plan):
        files[f"{ee.label}.manifest.jsonl"] = format_manifest(ee.corpus)
        files[f"{ee.label}.qrels.txt"] = format_qrels(ee.qrels)
        config.append({"label": ee.label, "manifest": f"{ee.label}.manifest.jsonl",
                       "qrels": f"{ee.label}.qrels.txt", "topics": "topics.jsonl"})
    files["ees.json"] = json.dumps(config, indent=2) + "\n"
    assert list(_slice_files(base, plan)) == [
        (name, text.encode("utf-8")) for name, text in files.items()
    ]


def test_simulation_plan_validation():
    with pytest.raises(ValueError, match="num_slices"):
        SimulationPlan(num_slices=1)
    with pytest.raises(ValueError, match="increasing"):
        SimulationPlan(num_slices=2, boundaries=(_utc(2020, 1, 1), _utc(2019, 1, 1)))
    with pytest.raises(ValueError, match="boundaries"):
        SimulationPlan(num_slices=3, boundaries=(_utc(2019, 1, 1), _utc(2020, 1, 1)))


def test_simulation_plan_rejects_naive_boundaries():
    naive = (datetime(2020, 6, 1), datetime(2021, 6, 1))
    message = "^boundaries must be timezone-aware, got 2020-06-01 00:00:00$"
    with pytest.raises(ValueError, match=message):
        split_append_only(_base_env(4), SimulationPlan(2, boundaries=naive))
    with pytest.raises(ValueError, match="timezone-aware, got 2021-06-01 00:00:00$"):
        SimulationPlan(2, boundaries=(_utc(2020, 6, 1), naive[1]))


def test_append_only_summary_shape():
    slices = split_append_only(_base_env(12), SimulationPlan(num_slices=3))
    s = summarize(slices[0], slices[1])
    assert s.documents.deleted == frozenset()
    assert len(s.documents.created) == s.documents.total_to - s.documents.total_from


def test_common_topics_examples():
    def env(topic_ids):
        return make_environment(
            "e" + "".join(topic_ids), {}, Qrels({}), topic_ids=topic_ids
        )

    assert common_topics([env(["1", "2", "3"])]) == {"1", "2", "3"}
    assert common_topics(
        [env(["1", "2", "3"]), env(["2", "3", "4"]), env(["3"])]
    ) == {"3"}
    with pytest.raises(ValueError, match="^no topic is common to every environment$"):
        common_topics([env(["1"]), env(["2"])])
    with pytest.raises(ValueError):
        common_topics([])


# --- the simulate command ------------------------------------------------

# ids as a manifest's JSON and a qrels line can both carry them: no
# whitespace, some non-ASCII, some that JSON must escape
DOC_IDS = ["d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "dé", "文書", "😀", 'q"t', "b\\s", "n\x00"]
# the instants of a corpus, each written in several forms: a date, Z and
# UTC offsets, so equal instants are spelled apart
INSTANTS = [datetime(2021, 3, day, tzinfo=timezone.utc) for day in range(1, 7)] + [
    datetime(2021, 3, 2, 12, 30, tzinfo=timezone.utc),
    datetime(2021, 3, 4, 23, 59, 59, tzinfo=timezone.utc),
]


def _spellings(instant):
    forms = [instant.strftime("%Y-%m-%dT%H:%M:%SZ")]
    for hours in (5, -3):
        forms.append(instant.astimezone(timezone(timedelta(hours=hours))).isoformat())
    if instant.hour == instant.minute == 0:
        forms.append(instant.date().isoformat())
    return forms


@st.composite
def simulate_inputs(draw):
    """A manifest and qrels text, as files hold them, and a slice count."""
    slices = draw(st.integers(2, 6))
    # a cut needs an instant per slice; one case in five may have fewer
    fewest = 1 if draw(st.integers(0, 4)) == 0 else slices
    ids = draw(st.lists(st.sampled_from(DOC_IDS), min_size=fewest, max_size=12, unique=True))
    instants = draw(
        st.lists(st.sampled_from(INSTANTS), min_size=fewest, max_size=len(ids), unique=True)
    )
    # each instant dates a document, and the rest share them
    dates = instants + [draw(st.sampled_from(instants)) for _ in ids[len(instants):]]
    docs = dict(zip(ids, draw(st.permutations(dates))))
    lines = []
    for doc_id, instant in docs.items():
        record = {
            "doc_id": doc_id,
            "length": draw(st.integers(0, 99)),
            "timestamp": draw(st.sampled_from(_spellings(instant))),
        }
        if draw(st.booleans()):
            record["hash"] = draw(st.sampled_from(["h1", "h2", "hé"]))
        lines.append(json.dumps(record, ensure_ascii=draw(st.booleans())) + "\n")
    # manifest lines out of id order, so that a tie broken by line order shows
    manifest = "".join(draw(st.permutations(lines)))
    absent = [doc_id for doc_id in DOC_IDS if doc_id not in docs] + ["gone"]
    judged = st.sampled_from(ids + absent)
    judgments = {
        (draw(st.sampled_from(["q1", "q2", "q3"])), draw(judged)): draw(st.integers(0, 3))
        for _ in range(draw(st.integers(0, 12)))
    }
    if draw(st.booleans()):
        # a topic judging only the latest documents, which arrive last
        latest = max(docs.values())
        judgments.update({("late", d): 1 for d, when in docs.items() if when == latest})
    qrels = "".join(f"{t} 0 {d} {g}\n" for (t, d), g in judgments.items())
    return manifest, qrels, slices


def _expected(manifest_path, qrels_path, slices, out_dir):
    """(exit code, stdout, stderr, files) as the slices of split_append_only
    and the writers of ingest give them: the oracle."""
    corpus = load_manifest(manifest_path)
    qrels = load_qrels(qrels_path)
    topics = dict.fromkeys(sorted(qrels.topics()))
    base = EvaluationEnvironment(label="base", corpus=corpus, topics=topics, qrels=qrels)
    try:
        envs = split_append_only(base, SimulationPlan(num_slices=slices))
    except ValueError as exc:
        return 2, "", f"error: {exc}\n", {}
    # slice i holds the first documents in (instant, doc id) order
    order = sorted(corpus, key=lambda d: (corpus[d].timestamp, d))
    for ee in envs:
        assert set(ee.corpus) == set(order[: len(ee.corpus)])
    sizes = [len(ee.corpus) for ee in envs]
    steps = [b - a for a, b in zip([0] + sizes, sizes)]
    assert sizes[-1] == len(corpus) and max(steps) - min(steps) <= 1
    files = {"topics.jsonl": format_topics(topics)}
    config = []
    for ee in envs:
        files[f"{ee.label}.manifest.jsonl"] = format_manifest(ee.corpus)
        files[f"{ee.label}.qrels.txt"] = format_qrels(ee.qrels)
        config.append({"label": ee.label, "manifest": f"{ee.label}.manifest.jsonl",
                       "qrels": f"{ee.label}.qrels.txt", "topics": "topics.jsonl"})
    files["ees.json"] = json.dumps(config, indent=2) + "\n"
    stdout = "".join(f"wrote {out_dir / name}\n" for name in files)
    files = {name: text.encode("utf-8") for name, text in files.items()}
    return 0, stdout, "", files


@settings(deadline=None, max_examples=200)
@given(simulate_inputs())
def test_simulate_writes_the_slices_of_split_append_only(inputs):
    manifest, qrels, slices = inputs
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        manifest_path, qrels_path, out_dir = root / "m.jsonl", root / "q.txt", root / "out"
        manifest_path.write_text(manifest, encoding="utf-8")
        qrels_path.write_text(qrels, encoding="utf-8")
        argv = ["simulate", "--manifest", str(manifest_path), "--qrels", str(qrels_path),
                "--slices", str(slices), "--out-dir", str(out_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        written = {p.name: p.read_bytes() for p in out_dir.iterdir()} if out_dir.exists() else {}
        assert (code, stdout.getvalue(), stderr.getvalue(), written) == _expected(
            manifest_path, qrels_path, slices, out_dir
        )
        base = EvaluationEnvironment("base", load_manifest(manifest_path), {},
                                     load_qrels(qrels_path))
        absent = [f for f in validate_environment(base) if f.startswith("judged")]
        assert [str(w.message) for w in caught] == [f"environment base: {f}" for f in absent]


def _line_of(path: str, text: str) -> int:
    return Path(path).read_text(encoding="utf-8").splitlines().index(text) + 1


# parse_qrels warns at the line of ingest._parse_file that called it, and
# a finding is reported at the line of cli.main that called the subcommand
QRELS_WARNING_AT = (ingest.__file__, _line_of(ingest.__file__, "            return parser(handle)"))
FINDING_AT = (cli.__file__, _line_of(cli.__file__, "        return args.func(args)"))


def test_simulate_warns_of_judged_documents_absent_from_the_manifest(tmp_path, capsysbinary):
    (tmp_path / "m.jsonl").write_text(format_manifest(synth_corpus(4)), encoding="utf-8")
    judged = "q1 0 d00000 1\nq1 0 d00003 2\n"
    absent = "judged document {} is absent from the corpus snapshot"
    # each input's extra judgments, and the warnings they give, in order
    cases = {
        "clean": ("", []),
        "dangling": (
            "q1 0 zz 1\nq1 0 d99 0\n",
            [(f"environment base: {absent.format(doc)}", FINDING_AT) for doc in ("d99", "zz")],
        ),
        # the qrels' own warning comes first, then the finding
        "negative": (
            "q1 0 d00001 -1\nq1 0 zz 1\n",
            [
                ("line 3: negative grade -1 for (q1, d00001) clamped to 0", QRELS_WARNING_AT),
                (f"environment base: {absent.format('zz')}", FINDING_AT),
            ],
        ),
    }
    runs = {}
    for name, (extra, expected) in cases.items():
        qrels_path = tmp_path / f"{name}.txt"
        qrels_path.write_text(judged + extra, encoding="utf-8")
        out_dir = tmp_path / name
        argv = ["simulate", "--manifest", str(tmp_path / "m.jsonl"), "--qrels",
                str(qrels_path), "--slices", "2", "--out-dir", str(out_dir)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        stdout = capsysbinary.readouterr().out.replace(str(out_dir).encode(), b"OUT")
        runs[name] = stdout, {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert [(w.category, str(w.message), (w.filename, w.lineno)) for w in caught] == [
            (IngestWarning, message, at) for message, at in expected
        ]
    # the judgments on absent documents are in no slice, as before
    assert runs["dangling"] == runs["clean"]


def test_simulate_reports_a_bad_manifest_before_a_missing_qrels_file(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"doc_id": "d1", "length": 1}\n{"doc_id": "d1", "length": 2}\n')
    argv = ["simulate", "--manifest", str(manifest), "--qrels", str(tmp_path / "absent.txt"),
            "--slices", "2", "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {manifest}: line 2: duplicate doc_id d1\n"
    assert not (tmp_path / "out").exists()
