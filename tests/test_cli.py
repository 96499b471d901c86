"""End-to-end CLI behavior: exit codes, output shape, determinism."""

import json
import warnings
from pathlib import Path

import pytest

from irdrift import _numeric, _workers, cli, effectiveness, ingest
from irdrift.cli import main
from irdrift.ingest import (
    IngestWarning,
    ParseError,
    format_manifest,
    format_qrels,
    format_topics,
    load_config,
    load_environment,
    load_manifest,
    load_qrels,
)

from conftest import (
    CLI_TOPICS,
    DATED_MANIFEST,
    DATED_QRELS,
    NoDocMeta,
    UnderflowingScores,
    change_argv,
    cpu_masks,
    pivot_argv,
    synth_corpus,
    synth_qrels,
    write_churn_fixture,
    write_cli_fixture,
)


def test_diff_reports_create_only_growth(tmp_path, capsys):
    config, _ = write_cli_fixture(tmp_path)
    assert main(["diff", "--config", str(config), "--from", "t0", "--to", "t1"]) == 0
    out = capsys.readouterr().out
    doc_row = [l for l in out.splitlines() if l.startswith("documents,")][0]
    cells = doc_row.split(",")
    assert cells[1:3] == ["30", "60"]
    assert cells[4] == "30"  # created
    assert cells[5] == cells[6] == "0"  # updated, deleted


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def test_diff_json_writes_null_for_growth_from_empty(tmp_path, capsysbinary):
    # t0 is empty; t1 holds one document, one topic and one judgment
    (tmp_path / "t0.manifest.jsonl").write_text("")
    (tmp_path / "t0.qrels.txt").write_text("")
    (tmp_path / "t1.manifest.jsonl").write_text('{"doc_id": "d1", "length": 5}\n')
    (tmp_path / "t1.qrels.txt").write_text("q1 0 d1 1\n")
    config = tmp_path / "ees.json"
    config.write_text(json.dumps([
        {"label": t, "manifest": f"{t}.manifest.jsonl", "qrels": f"{t}.qrels.txt"}
        for t in ("t0", "t1")
    ]))
    argv = ["diff", "--config", str(config), "--from", "t0", "--to", "t1", "--format"]
    assert main(argv + ["json"]) == 0
    doc = json.loads(capsysbinary.readouterr().out, parse_constant=_reject_constant)
    grown = {"total_from": 0, "total_to": 1, "relative_delta": None,
             "created": 1, "updated": 0, "deleted": 0}
    assert [doc[c] for c in ("documents", "topics", "qrels")] == [grown] * 3
    # csv and markdown keep their inf cell
    assert main(argv + ["csv"]) == 0
    assert capsysbinary.readouterr().out.splitlines()[1] == b"documents,0,1,inf,1,0,0"
    assert main(argv + ["markdown"]) == 0
    assert b"| documents | 0 | 1 | inf% | 1 | 0 | 0 |" in capsysbinary.readouterr().out


def test_diff_self_is_identity(tmp_path, capsys):
    config, _ = write_cli_fixture(tmp_path)
    assert main(["diff", "--config", str(config), "--from", "t0", "--to", "t0"]) == 0
    out = capsys.readouterr().out
    assert "documents,30,30,0.0000,0,0,0" in out


def test_diff_unknown_label_exits_2(tmp_path, capsys):
    config, _ = write_cli_fixture(tmp_path)
    assert main(["diff", "--config", str(config), "--from", "t0", "--to", "t9"]) == 2
    err = capsys.readouterr().err
    assert "t9" in err and "t0" in err and "t1" in err


def _add_broken_t2(config):
    entries = json.loads(config.read_text())
    entries.append({"label": "t2", "manifest": "absent.jsonl", "qrels": "t1.qrels.txt"})
    config.write_text(json.dumps(entries))


def test_diff_reads_only_the_compared_environments(tmp_path, capsys):
    config, _ = write_cli_fixture(tmp_path)
    assert main(["diff", "--config", str(config), "--from", "t0", "--to", "t1"]) == 0
    expected = capsys.readouterr().out
    _add_broken_t2(config)  # its manifest does not exist
    assert main(["diff", "--config", str(config), "--from", "t0", "--to", "t1"]) == 0
    assert capsys.readouterr().out == expected
    assert main(["diff", "--config", str(config), "--from", "t0", "--to", "t2"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_diff_reports_an_unknown_label_before_a_parse_error(tmp_path, capsys):
    config, _ = write_cli_fixture(tmp_path)
    _add_broken_t2(config)
    assert main(["diff", "--config", str(config), "--from", "t2", "--to", "t9"]) == 2
    err = capsys.readouterr().err
    assert "unknown environment label 't9'; known labels: t0, t1, t2" in err


def test_evaluate_reads_only_its_environment_unless_topics_are_common(tmp_path, capsys):
    config, runs = write_cli_fixture(tmp_path)
    argv = ["evaluate", "--config", str(config), "--ee", "t0", "--run", runs[("alpha", "t0")]]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    entries = json.loads(config.read_text())
    # t2 judges t1's documents but lists only t0's, so validating it warns
    entries.append({"label": "t2", "manifest": "t0.manifest.jsonl", "qrels": "t1.qrels.txt"})
    config.write_text(json.dumps(entries))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert capsys.readouterr().out == expected
    with pytest.warns(UserWarning, match="absent from the corpus snapshot"):
        assert main(argv + ["--topics", "common"]) == 0


def test_evaluate_reports_an_unknown_label_before_a_parse_error(tmp_path, capsys):
    config, runs = write_cli_fixture(tmp_path)
    _add_broken_t2(config)
    argv = ["evaluate", "--config", str(config), "--run", runs[("alpha", "t0")]]
    assert main(argv + ["--ee", "t0"]) == 0
    capsys.readouterr()
    for topics in ([], ["--topics", "common"]):
        assert main(argv + ["--ee", "t9"] + topics) == 2
        err = capsys.readouterr().err
        assert "unknown environment label 't9'; known labels: t0, t1, t2" in err
    assert main(argv + ["--ee", "t0", "--topics", "common"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_evaluate_three_measures(tmp_path, capsys):
    config, runs = write_cli_fixture(tmp_path)
    code = main(
        [
            "evaluate",
            "--config",
            str(config),
            "--ee",
            "t0",
            "--run",
            runs[("alpha", "t0")],
            "--measures",
            "p@10,bpref,ndcg",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    all_rows = [l for l in lines if ",all," in l]
    assert len(all_rows) == 3
    assert {r.split(",")[2] for r in all_rows} == {"p@10", "bpref", "ndcg"}


def test_evaluate_per_topic_rows(tmp_path, capsys):
    config, runs = write_cli_fixture(tmp_path)
    code = main(
        [
            "evaluate",
            "--config",
            str(config),
            "--ee",
            "t0",
            "--run",
            runs[("alpha", "t0")],
            "--measures",
            "p@10",
            "--per-topic",
            "--topics",
            "common",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert sum(1 for l in lines if ",all," in l) == 1
    assert sum(1 for l in lines if ",all," not in l) >= 2


def test_evaluate_markdown_escapes_a_pipe_in_a_run_tag(tmp_path, capsys):
    config, runs = write_cli_fixture(tmp_path, systems=("bm25|rm3",))
    argv = ["evaluate", "--config", str(config), "--ee", "t0", "--run", runs[("bm25|rm3", "t0")]]
    assert main(argv + ["--measures", "p@10", "--format", "markdown"]) == 0
    header, _, row = capsys.readouterr().out.splitlines()
    assert header == "| system | ee | measure | topic | score |"
    assert row.startswith(r"| bm25\|rm3 | t0 | p@10 | all | ")
    assert row.replace(r"\|", "").count("|") == header.count("|")


def test_evaluate_topic_list_ignores_spaces_around_ids(tmp_path, capsys):
    config, runs = write_cli_fixture(tmp_path)
    base = ["evaluate", "--config", str(config), "--ee", "t1", "--per-topic"]
    base += ["--run", runs[("alpha", "t1")], "--topics"]
    outputs = []
    for spec in ("q1,q2", "q1, q2", " q1 ,q2 ,"):
        assert main(base + [spec]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[2] == outputs[0]
    assert main(base + ["q1,q 2"]) == 2
    assert capsys.readouterr().err == (
        "error: --topics 'q1,q 2': TopicId must not contain whitespace: 'q 2'\n"
    )


@pytest.mark.parametrize("spec", [" , ", ""])
def test_evaluate_rejects_a_topic_list_without_ids_before_any_file_is_read(
    tmp_path, capsys, spec
):
    absent = str(tmp_path / "absent")
    argv = ["evaluate", "--config", absent, "--ee", "t0", "--run", absent, "--topics", spec]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --topics {spec!r}: no topic ids given\n"


def test_evaluate_perfect_run_scores_one(tmp_path, capsys):
    corpus = synth_corpus(10)
    ids = sorted(corpus)
    (tmp_path / "m.jsonl").write_text(format_manifest(corpus))
    qrels_lines = [f"q1 0 {ids[0]} 1", f"q1 0 {ids[1]} 1", f"q1 0 {ids[2]} 0"]
    (tmp_path / "q.txt").write_text("\n".join(qrels_lines) + "\n")
    (tmp_path / "ees.json").write_text(
        json.dumps([{"label": "t0", "manifest": "m.jsonl", "qrels": "q.txt"}])
    )
    run_lines = [
        f"q1 Q0 {ids[0]} 1 3.0 perfect",
        f"q1 Q0 {ids[1]} 2 2.0 perfect",
        f"q1 Q0 {ids[2]} 3 1.0 perfect",
    ]
    (tmp_path / "run.txt").write_text("\n".join(run_lines) + "\n")
    code = main(
        [
            "evaluate",
            "--config",
            str(tmp_path / "ees.json"),
            "--ee",
            "t0",
            "--run",
            str(tmp_path / "run.txt"),
            "--measures",
            "p@2,bpref,ndcg",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    for line in out.splitlines()[1:]:
        assert line.endswith("1.0000")


def test_evaluate_run_without_judged_topics_exits_2(tmp_path, capsys):
    config, _ = write_cli_fixture(tmp_path)
    (tmp_path / "stray.run.txt").write_text("zz Q0 d00001 1 1.0 stray\n")
    code = main(
        [
            "evaluate",
            "--config",
            str(config),
            "--ee",
            "t0",
            "--run",
            str(tmp_path / "stray.run.txt"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: --run {str(tmp_path / 'stray.run.txt')!r}: no evaluated topics "
        "for bpref in environment 't0'\n"
    )


def test_evaluate_names_the_run_measure_environment_and_filter_when_no_topic_is_left(
    tmp_path, capsys
):
    config, runs = write_cli_fixture(tmp_path)
    argv = ["evaluate", "--config", str(config), "--ee", "t1", "--run", runs[("alpha", "t1")]]
    assert main(argv + ["--measures", "ndcg@5", "--topics", "nope"]) == 2
    assert capsys.readouterr().err == (
        f"error: --run {runs[('alpha', 't1')]!r}: no evaluated topics "
        "for ndcg@5 in environment 't1' with --topics 'nope'\n"
    )


PINNED = Path(__file__).resolve().parent / "change_stdout"


@pytest.mark.parametrize("fmt, ext", [("csv", "csv"), ("markdown", "md"), ("json", "json")])
@pytest.mark.parametrize("case", ["dtq", "dtq-prime-pivot"])
def test_change_stdout_matches_its_pin(tmp_path, capsysbinary, monkeypatch, case, fmt, ext):
    if case == "dtq":
        config, runs = write_cli_fixture(tmp_path)
        argv = change_argv(config, runs, "dtq")
    else:
        config, runs = write_cli_fixture(tmp_path, systems=("alpha", "beta", "zpivot"))
        argv = pivot_argv(config, runs)
    # every task in this process, then one system in a forked worker
    for cpus in cpu_masks():
        monkeypatch.setattr(_workers, "_cpus", lambda: cpus)
        assert main(argv + ["--format", fmt]) == 0
        # the whole output, byte for byte, as first recorded
        assert capsysbinary.readouterr().out == (PINNED / f"{case}.{ext}").read_bytes()


EVALUATE_PINNED = Path(__file__).resolve().parent / "evaluate_stdout"


@pytest.mark.parametrize("fmt, ext", [("csv", "csv"), ("markdown", "md"), ("json", "json")])
def test_evaluate_stdout_matches_its_pin(tmp_path, capsysbinary, fmt, ext):
    config, runs = write_cli_fixture(tmp_path)
    argv = ["evaluate", "--config", str(config), "--ee", "t1", "--per-topic"]
    argv += ["--run", runs[("beta", "t1")], "--run", runs[("alpha", "t1")]]
    assert main(argv + ["--format", fmt]) == 0
    # the whole output, byte for byte, as first recorded
    assert capsysbinary.readouterr().out == (EVALUATE_PINNED / f"per-topic.{ext}").read_bytes()


DIFF_PINNED = Path(__file__).resolve().parent / "diff_stdout"


@pytest.mark.parametrize(
    "pair, fmt, ext",
    [
        (("t0", "t1"), "csv", "csv"),
        (("t0", "t1"), "markdown", "md"),
        (("t0", "t1"), "json", "json"),
        (("t1", "t2"), "csv", "csv"),
    ],
)
def test_diff_stdout_matches_its_pin(tmp_path, capsysbinary, pair, fmt, ext):
    config = write_churn_fixture(tmp_path)
    argv = ["diff", "--config", str(config), "--from", pair[0], "--to", pair[1]]
    assert main(argv + ["--format", fmt]) == 0
    # the whole output, byte for byte, as first recorded
    assert capsysbinary.readouterr().out == (DIFF_PINNED / f"{'-'.join(pair)}.{ext}").read_bytes()


def test_simulate_files_match_their_pin(tmp_path, capsysbinary):
    (tmp_path / "m.jsonl").write_text(DATED_MANIFEST, encoding="utf-8")
    (tmp_path / "q.txt").write_text(DATED_QRELS, encoding="utf-8")
    out_dir = tmp_path / "slices"
    argv = ["simulate", "--manifest", str(tmp_path / "m.jsonl"), "--qrels",
            str(tmp_path / "q.txt"), "--slices", "3", "--out-dir", str(out_dir)]
    assert main(argv) == 0
    pinned = DIFF_PINNED / "simulate"
    stdout = capsysbinary.readouterr().out.replace(str(out_dir).encode(), b"OUT")
    assert stdout == (pinned / "stdout.txt").read_bytes()
    written = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert written == {
        p.name: p.read_bytes() for p in pinned.iterdir() if p.name != "stdout.txt"
    }


def test_change_dtq_matrix_shape_and_ideal_t0(tmp_path, capsys):
    config, runs = write_cli_fixture(tmp_path)
    assert main(change_argv(config, runs, "dtq")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5  # header + 2 systems x 2 environments
    header = lines[0].split(",")
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        if cells["ee"] == "t0":
            assert cells["rbo_mean"] == "1.0000"
            assert cells["rmse_p@10"] == "0.0000"
            assert cells["rmse_bpref"] == "0.0000"
            assert cells["rmse_ndcg"] == "0.0000"
        assert cells["arp_p@10"] == ""  # ARP columns stay empty in dtq rows


def test_change_dtq_prime_with_pivot(tmp_path, capsys):
    config, runs = write_cli_fixture(tmp_path, systems=("alpha", "beta", "zpivot"))
    assert main(pivot_argv(config, runs)) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    assert len(rows) == 6  # alpha, beta, zpivot x t0, t1
    for cells in rows:
        if cells["system"] == "zpivot":
            assert cells["delta_ri_p@10"] == ""
            assert cells["significant_p@10"] == ""
        else:
            if cells["ee"] == "t0":
                assert cells["re_delta_p@10"] == "0.0000"
                assert cells["delta_ri_p@10"] == "0.0000"
            assert cells["significant_p@10"] in {"true", "false"}
        assert cells["rbo_mean"] == ""
        assert cells["rmse_p@10"] == ""


@pytest.mark.parametrize(
    "flag", ["--alpha=0", "--alpha=1.5", "--family-size=0", "--family-size=-3"]
)
def test_change_rejects_invalid_alpha_or_family_size(tmp_path, capsys, flag):
    config, runs = write_cli_fixture(tmp_path, systems=("alpha", "beta", "zpivot"))
    assert main(pivot_argv(config, runs) + [flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --alpha/--family-size:")
    assert "significance skipped" not in err
    # checked before any file is read
    absent = ["change", "--config", str(tmp_path / "absent.json"), "--scenario", "dtq"]
    assert main(absent + [flag]) == 2
    assert capsys.readouterr().err.startswith("error: --alpha/--family-size:")


@pytest.mark.parametrize(
    "flag, message",
    [
        (
            "--measures=map",
            "--measures 'map': unknown measure 'map' (expected p@K, ndcg[@K], bpref)",
        ),
        ("--measures=,", "--measures ',': no measures given"),
        ("--measures=p@0", "--measures 'p@0': precision measure requires cutoff >= 1"),
        ("--phi=1.5", "--phi: phi must lie strictly between 0 and 1, got 1.5"),
        ("--rbo-depth=0", "--rbo-depth: depth must be >= 1, got 0"),
    ],
)
def test_change_rejects_bad_measures_or_rbo_flags(tmp_path, capsys, flag, message):
    config, runs = write_cli_fixture(tmp_path)
    assert main(change_argv(config, runs, "dtq") + [flag]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # checked before any file is read
    absent = ["change", "--config", str(tmp_path / "absent.json"), "--scenario", "dtq"]
    assert main(absent + [flag]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("subcommand", ["evaluate", "change"])
def test_a_measure_named_twice_exits_2_before_any_file_is_read(tmp_path, capsys, subcommand):
    config, runs = write_cli_fixture(tmp_path)
    if subcommand == "evaluate":
        argv = ["evaluate", "--config", str(config), "--ee", "t0", "--run", runs[("alpha", "t0")]]
    else:
        argv = change_argv(config, runs, "dtq")
    # the same measure by canonical name, whatever its spelling
    flag = ["--measures", "p@10,bpref,P@10"]
    message = "error: --measures 'p@10,bpref,P@10': duplicate measure 'p@10'\n"
    assert main(argv + flag) == 2
    assert capsys.readouterr().err == message
    absent = [str(tmp_path / "absent.json") if arg == str(config) else arg for arg in argv]
    assert main(absent + flag) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "argv",
    [
        ["diff", "--config", "{absent}", "--from", "t0", "--to", "t1"],
        ["evaluate", "--config", "{absent}", "--ee", "t0", "--run", "{absent}"],
        ["change", "--config", "{absent}", "--scenario", "dtq"],
        ["report", "--matrix", "{absent}"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("output_format", ["csv", "markdown", "json"])
def test_negative_places_exits_2_before_any_file_is_read(tmp_path, capsys, argv, output_format):
    argv = [arg.format(absent=tmp_path / "absent") for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", output_format, "--places", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"irdrift {argv[0]}: error: argument --places: must be >= 0, got -1\n")


def test_non_integer_places_keeps_the_int_message(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--matrix", str(tmp_path / "absent"), "--places", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --places: invalid int value: 'x'\n")


def test_change_t_tail_non_convergence_is_internal_error(tmp_path, capsys, monkeypatch):
    config, runs = write_cli_fixture(tmp_path, systems=("alpha", "beta", "zpivot"))
    monkeypatch.setattr(_numeric, "_MAX_ITERATIONS", 1)
    assert main(pivot_argv(config, runs)) == 1
    assert "internal error: ArithmeticError" in capsys.readouterr().err


def test_config_with_non_string_label_exits_2(tmp_path, capsys):
    config, runs = write_cli_fixture(tmp_path)
    entries = json.loads(config.read_text())
    entries[1]["label"] = ["t1"]
    config.write_text(json.dumps(entries))
    assert main(["diff", "--config", str(config), "--from", "t0", "--to", "t0"]) == 2
    assert "entry 1: 'label' must be a string, got list" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["config", "manifest", "qrels", "topics", "run"])
def test_an_input_file_that_is_not_utf8_is_named_and_exits_2(tmp_path, capsys, kind):
    config, runs = write_cli_fixture(tmp_path)
    entries = json.loads(config.read_text())
    (tmp_path / "t0.topics.jsonl").write_text(format_topics(dict.fromkeys(CLI_TOPICS)))
    entries[0]["topics"] = "t0.topics.jsonl"
    config.write_text(json.dumps(entries))
    path = {
        "config": config,
        "manifest": tmp_path / "t0.manifest.jsonl",
        "qrels": tmp_path / "t0.qrels.txt",
        "topics": tmp_path / "t0.topics.jsonl",
        "run": Path(runs[("alpha", "t0")]),
    }[kind]
    size = path.stat().st_size
    with open(path, "ab") as handle:
        handle.write(b"\xff\n")
    argv = ["evaluate", "--config", str(config), "--ee", "t0", "--run", runs[("alpha", "t0")]]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position {size}: "
        f"invalid start byte\n"
    )


def test_change_dtq_rejects_qrels_override(tmp_path, capsys):
    config, runs = write_cli_fixture(tmp_path)
    args = change_argv(config, runs, "dtq")
    args += ["--qrels", f"t1={tmp_path / 't1.qrels.txt'}"]
    assert main(args) == 2
    assert "conflict" in capsys.readouterr().err


def _drop_manifests(tmp_path):
    """Delete every manifest, so a command that loads an environment fails."""
    for manifest in tmp_path.glob("*.manifest.jsonl"):
        manifest.unlink()


@pytest.mark.parametrize(
    "tag, message", [("", "must be non-empty"), (" alpha", "must not contain whitespace: ' alpha'")]
)
def test_change_rejects_a_system_tag_no_run_file_can_carry(tmp_path, capsys, tag, message):
    config, runs = write_cli_fixture(tmp_path)
    _drop_manifests(tmp_path)  # checked before any environment is loaded
    flag = f"{tag}:t0:{runs[('alpha', 't0')]}"
    argv = ["change", "--config", str(config), "--scenario", "dtq", "--run", flag]
    assert main(argv + ["--run", f"{tag}:t1:{runs[('alpha', 't1')]}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --run {flag!r}: system tag {message}\n"


@pytest.mark.parametrize(
    "flag, message",
    [
        (["--run", "alpha:t9:x.run"], "--run 'alpha:t9:x.run': unknown environment label 't9'"),
        (["--pivot-run", "t9=x.run"], "--pivot-run 't9=x.run': unknown environment label 't9'"),
        (["--qrels", "t9=x.txt"], "--qrels 't9=x.txt': unknown environment label 't9'"),
        (["--qrels", "t1"], "--qrels expects EE_LABEL=PATH, got 't1'"),
    ],
)
def test_change_checks_its_flags_before_loading_any_environment(tmp_path, capsys, flag, message):
    config, runs = write_cli_fixture(tmp_path)
    _drop_manifests(tmp_path)
    assert main(change_argv(config, runs, "dtq-prime") + flag) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_change_dtq_prime_reads_a_qrels_override_in_place_of_the_config_qrels(
    tmp_path, capsysbinary
):
    config, runs = write_cli_fixture(tmp_path)
    argv = change_argv(config, runs, "dtq-prime")
    assert main(argv) == 0
    clean = capsysbinary.readouterr().out
    # the configured t1 qrels gain a judgment that changes q1's recall base
    configured = tmp_path / "t1.qrels.txt"
    override = tmp_path / "t1.override.qrels.txt"
    override.write_bytes(configured.read_bytes())
    configured.write_text(configured.read_text() + "q1 0 ghost 1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert capsysbinary.readouterr().out != clean
    assert [(w.category, str(w.message)) for w in caught] == [
        (IngestWarning, "environment t1: judged document ghost is absent from the corpus snapshot")
    ]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--qrels", f"t1={override}"]) == 0
    assert capsysbinary.readouterr().out == clean
    # the replaced file is never read, so none of its findings is warned
    assert not any("ghost" in str(w.message) for w in caught)

    # the override is checked against the environment's manifest
    override.write_text(override.read_text() + "q2 0 phantom 0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--qrels", f"t1={override}"]) == 0
    capsysbinary.readouterr()
    assert [str(w.message) for w in caught if "phantom" in str(w.message)] == [
        "environment t1: judged document phantom is absent from the corpus snapshot"
    ]


def test_change_missing_system_run_exits_2(tmp_path, capsys):
    config, runs = write_cli_fixture(tmp_path)
    args = [
        "change",
        "--config",
        str(config),
        "--scenario",
        "dtq",
        "--run",
        f"alpha:t0:{runs[('alpha', 't0')]}",
    ]
    assert main(args) == 2
    assert "missing runs" in capsys.readouterr().err


def _list_topics(config, topic_sets):
    """Give each configured environment a topic file of its own ids."""
    entries = json.loads(config.read_text())
    for entry, topic_ids in zip(entries, topic_sets):
        name = f"{entry['label']}.topics.jsonl"
        (config.parent / name).write_text(format_topics(dict.fromkeys(topic_ids)))
        entry["topics"] = name
    config.write_text(json.dumps(entries))


@pytest.mark.filterwarnings("ignore:.*does not appear in the topic set")
@pytest.mark.parametrize("command", ["dtq", "dtq-prime", "evaluate"])
def test_no_common_topic_is_reported_before_any_run_is_read(tmp_path, capsys, command):
    config, runs = write_cli_fixture(tmp_path)
    _list_topics(config, (["q1"], ["q2"]))
    missing = str(tmp_path / "missing.run")
    if command == "evaluate":
        args = ["evaluate", "--config", str(config), "--ee", "t0", "--run", missing,
                "--topics", "common"]
    else:
        args = change_argv(config, {**runs, ("alpha", "t0"): missing}, command)
    assert main(args) == 2
    assert capsys.readouterr().err == "error: no topic is common to every environment\n"


@pytest.mark.parametrize(
    "pivot_tags, topic_sets, message",
    [
        (("zpivot", "beta"), None, "pivot runs carry mixed system tags: beta, zpivot"),
        (("alpha", "alpha"), None,
         "pivot system 'alpha' also given via --run; supply it only as --pivot-run"),
        (("zpivot", "zpivot"), (["q1"], ["q2"]), "no topic is common to every environment"),
    ],
)
def test_change_matrix_errors_exit_2(tmp_path, capsys, pivot_tags, topic_sets, message):
    config, runs = write_cli_fixture(tmp_path, systems=("alpha", "beta", "zpivot"))
    if topic_sets is not None:
        _list_topics(config, topic_sets)
    args = change_argv(config, runs, "dtq-prime")
    for tag, label in zip(pivot_tags, ("t0", "t1")):
        args += ["--pivot-run", f"{label}={runs[(tag, label)]}"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # a topic file leaves out qrels topics, each of them a finding
    assert {w.category for w in caught} <= {IngestWarning}
    assert [str(w.message) for w in caught] == [
        f"environment {label}: qrels topic {topic} does not appear in the topic set"
        for label, topic_ids in zip(("t0", "t1"), topic_sets or ())
        for topic in sorted(load_qrels(tmp_path / f"{label}.qrels.txt").topics() - {*topic_ids})
    ]
    assert len(caught) == (13 if topic_sets else 0)


@pytest.mark.parametrize(
    "scenario, unjudged, named",
    [
        ("dtq-prime", "t1", "t1"),
        # dtq scores every environment against t0's qrels
        ("dtq", "t0", "t0"),
        ("dtq", "t1", None),
    ],
)
def test_change_names_the_environment_whose_qrels_judge_no_common_topic_relevant(
    tmp_path, capsys, scenario, unjudged, named
):
    # one topic, q1, which the qrels of `unjudged` judge all non-relevant
    entries = []
    runs = {}
    for label in ("t0", "t1"):
        (tmp_path / f"{label}.manifest.jsonl").write_text(
            '{"doc_id": "d1", "length": 1}\n{"doc_id": "d2", "length": 1}\n'
        )
        grade = 0 if label == unjudged else 1
        (tmp_path / f"{label}.qrels.txt").write_text(f"q1 0 d1 {grade}\nq1 0 d2 0\n")
        runs["a", label] = tmp_path / f"a.{label}.run.txt"
        runs["a", label].write_text("q1 Q0 d1 1 2.0 a\nq1 Q0 d2 2 1.0 a\n")
        entries.append(
            {"label": label, "manifest": f"{label}.manifest.jsonl", "qrels": f"{label}.qrels.txt"}
        )
    config = tmp_path / "ees.json"
    config.write_text(json.dumps(entries))
    code = main(change_argv(config, runs, scenario, systems=("a",)))
    captured = capsys.readouterr()
    if named is None:
        assert code == 0 and captured.err == ""
        return
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: no common topic has a relevant document in the qrels of environment {named!r}\n"
    )


def test_change_squared_deviation_underflow_gives_false_significance(
    tmp_path, capsys, monkeypatch
):
    config, runs = write_cli_fixture(tmp_path, systems=("alpha", "beta", "zpivot"))
    for cpus in cpu_masks():
        monkeypatch.setattr(_workers, "_cpus", lambda: cpus)
        stand_in = UnderflowingScores()
        monkeypatch.setattr(effectiveness, "_score_judged", stand_in)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            assert main(pivot_argv(config, runs)) == 0
        if len(cpus) == 1:
            assert stand_in.calls == 6  # one per run: alpha, beta and the pivot at t0 and t1
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        cells = [dict(zip(header, line.split(","))) for line in lines[1:]]
        # the pivot rows are not tested against themselves
        assert {c["system"]: c["significant_p@10"] for c in cells} == {
            "alpha": "false",
            "beta": "false",
            "zpivot": "",
        }


def test_change_missing_pivot_ee_warns_and_continues(tmp_path, capsys):
    config, runs = write_cli_fixture(tmp_path, systems=("alpha", "zpivot"))
    args = [
        "change",
        "--config",
        str(config),
        "--scenario",
        "dtq-prime",
        "--run",
        f"alpha:t0:{runs[('alpha', 't0')]}",
        "--run",
        f"alpha:t1:{runs[('alpha', 't1')]}",
        "--pivot-run",
        f"t0={runs[('zpivot', 't0')]}",
    ]
    with pytest.warns(UserWarning, match="pivot"):
        assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    assert {r["system"] for r in rows} == {"alpha"}  # incomplete pivot: no pivot rows
    for cells in rows:
        if cells["ee"] == "t1":  # pivot run missing here
            assert cells["delta_ri_p@10"] == ""
        else:
            assert cells["delta_ri_p@10"] == "0.0000"


def test_change_output_is_byte_identical_across_runs(tmp_path, capsys):
    config, runs = write_cli_fixture(tmp_path)
    args = change_argv(config, runs, "dtq") + ["--format", "csv"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def _drop_manifest_docs(config, label, keep):
    """Keep the first `keep` lines of an environment's manifest, so that
    its qrels judge documents the manifest no longer lists."""
    manifest = config.parent / f"{label}.manifest.jsonl"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(lines[:keep]))


def _full_parse_warnings(config, labels):
    """The findings of each environment loaded with its full corpus."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for cfg in load_config(config):
            if cfg.label in labels:
                assert load_environment(cfg).corpus is not None
    return [str(w.message) for w in caught]


def test_change_and_evaluate_build_no_document_metadata(tmp_path, capsysbinary, monkeypatch):
    config, runs = write_cli_fixture(tmp_path)
    _drop_manifest_docs(config, "t0", 12)  # run and qrels files are untouched
    t0_warnings = _full_parse_warnings(config, ("t0",))
    assert t0_warnings and all("absent from the corpus" in w for w in t0_warnings)
    all_warnings = _full_parse_warnings(config, ("t0", "t1"))
    evaluate = ["evaluate", "--config", str(config), "--ee", "t0", "--per-topic",
                "--run", runs[("alpha", "t0")], "--run", runs[("beta", "t0")]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(evaluate) == 0
    evaluate_out = capsysbinary.readouterr().out
    assert {w.category for w in caught} == {IngestWarning}
    assert [str(w.message) for w in caught] == t0_warnings and len(t0_warnings) == 10

    monkeypatch.setattr(ingest, "DocMeta", NoDocMeta)
    for argv, pin, expected_warnings in [
        (change_argv(config, runs, "dtq"), (PINNED / "dtq.csv").read_bytes(), all_warnings),
        (evaluate, evaluate_out, t0_warnings),
        (evaluate + ["--topics", "common"], evaluate_out, all_warnings),
    ]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert capsysbinary.readouterr().out == pin
        assert [str(w.message) for w in caught] == expected_warnings
    # the full parse does build it
    assert main(["diff", "--config", str(config), "--from", "t0", "--to", "t1"]) == 1


@pytest.mark.parametrize(
    "line",
    [
        '{"doc_id": "zz", "length": -1}',
        '{"doc_id": "zz", "length": 1.5}',
        '{"doc_id": "z z", "length": 1}',
        '{"doc_id": "zz", "length": 1, "timestamp": "2022-13-01"}',
        '{"doc_id": "zz", "length": 1, "hash": 7}',
        '{"doc_id": "zz"}',
        "[1]",
        "{",
    ],
)
def test_change_reports_a_malformed_manifest_line_as_the_full_parse_does(
    tmp_path, capsys, line
):
    config, runs = write_cli_fixture(tmp_path)
    manifest = tmp_path / "t1.manifest.jsonl"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join([*lines[:4], line + "\n", *lines[4:]]))
    with pytest.raises(ParseError) as full:
        load_manifest(manifest)
    assert str(full.value).startswith(f"{manifest}: line 5: ")
    assert main(change_argv(config, runs, "dtq")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {full.value}\n"


def test_evaluate_rejects_two_runs_with_one_system_tag(tmp_path, capsys):
    config, runs = write_cli_fixture(tmp_path)
    first = runs[("alpha", "t0")]
    second = tmp_path / "alpha-again.run.txt"
    second.write_text(Path(runs[("beta", "t0")]).read_text().replace(" beta\n", " alpha\n"))
    argv = ["evaluate", "--config", str(config), "--ee", "t0", "--measures", "p@1",
            "--run", runs[("beta", "t0")], "--run", first, "--run", str(second)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --run {str(second)!r}: system tag 'alpha' is also the tag of "
        f"--run {first!r}; each run needs its own tag\n"
    )
    # one path given twice is rejected the same way
    assert main(argv[:-2] + ["--run", first]) == 2
    assert "is also the tag of" in capsys.readouterr().err


def test_evaluate_scores_each_run_as_it_reads_it(tmp_path, capsys, monkeypatch):
    config, runs = write_cli_fixture(tmp_path, systems=("alpha", "beta", "gamma"))
    calls = []
    load_run, judge, score_judged = cli.load_run, effectiveness._judge, effectiveness._score_judged

    def loading(path):
        calls.append(("load", Path(path).name))
        return load_run(path)

    def judging(*args):
        calls.append(("judge",))
        return judge(*args)

    def scoring(run, *args):
        calls.append(("score", [run.system_tag]))
        return score_judged(run, *args)

    monkeypatch.setattr(cli, "load_run", loading)
    monkeypatch.setattr(effectiveness, "_judge", judging)
    monkeypatch.setattr(effectiveness, "_score_judged", scoring)
    argv = ["evaluate", "--config", str(config), "--ee", "t0", "--measures", "p@5"]
    for tag in ("gamma", "alpha", "beta"):
        argv += ["--run", runs[(tag, "t0")]]
    assert main(argv) == 0
    # the qrels are judged once, before the first run is read
    assert calls == [("judge",)] + [
        step
        for tag in ("gamma", "alpha", "beta")
        for step in (("load", f"{tag}.t0.run.txt"), ("score", [tag]))
    ]
    # the rows still come in system tag order
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["alpha", "beta", "gamma"]


def _unread(*args, **kwargs):
    raise AssertionError("a file was read")


EMPTY_PATHS = [
    (["diff", "--config", "", "--from", "t0", "--to", "t1"], "--config"),
    (["diff", "--config", "{config}", "--from", "t0", "--to", "t1", "--out", ""], "--out"),
    (["evaluate", "--config", "", "--ee", "t0", "--run", "{run}"], "--config"),
    (["evaluate", "--config", "{config}", "--ee", "t0", "--run", ""], "--run"),
    (["change", "--config", "", "--scenario", "dtq", "--run", "alpha:t0:{run}"], "--config"),
    (["change", "--config", "{config}", "--scenario", "dtq", "--run", "alpha:t0:"],
     "--run expects TAG:EE_LABEL:PATH, got 'alpha:t0:'"),
    (["simulate", "--manifest", "", "--qrels", "q", "--slices", "3", "--out-dir", "o"],
     "--manifest"),
    (["simulate", "--manifest", "m", "--qrels", "", "--slices", "3", "--out-dir", "o"],
     "--qrels"),
    (["simulate", "--manifest", "m", "--qrels", "q", "--slices", "3", "--out-dir", ""],
     "--out-dir"),
    (["report", "--matrix", ""], "--matrix"),
]


@pytest.mark.parametrize(
    "argv, named",
    EMPTY_PATHS,
    ids=[f"{argv[0]} {named.split()[0]}" for argv, named in EMPTY_PATHS],
)
def test_an_empty_path_is_a_usage_error_before_any_file_is_read(
    tmp_path, capsys, monkeypatch, argv, named
):
    config, runs = write_cli_fixture(tmp_path)
    for reader in ("_load_sequence", "load_manifest", "load_qrels", "load_run"):
        monkeypatch.setattr(cli, reader, _unread)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    argv = [arg.format(config=config, run=runs[("alpha", "t0")]) for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the flag while parsing
        code = exc.code
    assert code == 2
    assert named in capsys.readouterr().err
    assert list(cwd.iterdir()) == []  # nothing was written


def test_simulate_writes_slices_and_config(tmp_path, capsys):
    corpus = synth_corpus(9)
    ids = sorted(corpus)
    (tmp_path / "m.jsonl").write_text(format_manifest(corpus))
    (tmp_path / "q.txt").write_text(format_qrels(synth_qrels(ids, ["q1", "q2"])))
    out_dir = tmp_path / "slices"
    args = [
        "simulate",
        "--manifest",
        str(tmp_path / "m.jsonl"),
        "--qrels",
        str(tmp_path / "q.txt"),
        "--slices",
        "3",
        "--out-dir",
        str(out_dir),
    ]
    assert main(args) == 0
    capsys.readouterr()
    for label, n in (("t0", 3), ("t1", 6), ("t2", 9)):
        lines = (out_dir / f"{label}.manifest.jsonl").read_text().splitlines()
        assert len(lines) == n
    config = json.loads((out_dir / "ees.json").read_text())
    assert [e["label"] for e in config] == ["t0", "t1", "t2"]
    # rerun writes identical bytes
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert main(args) == 0
    after = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert before == after


def test_simulate_too_many_slices_exits_2(tmp_path, capsys):
    corpus = synth_corpus(3)
    (tmp_path / "m.jsonl").write_text(format_manifest(corpus))
    (tmp_path / "q.txt").write_text("q1 0 d00000 1\n")
    args = [
        "simulate",
        "--manifest",
        str(tmp_path / "m.jsonl"),
        "--qrels",
        str(tmp_path / "q.txt"),
        "--slices",
        "5",
        "--out-dir",
        str(tmp_path / "out"),
    ]
    assert main(args) == 2
    assert "distinct" in capsys.readouterr().err


def test_simulate_checks_slices_before_any_file_is_read(tmp_path, capsys):
    args = [
        "simulate",
        "--manifest",
        str(tmp_path / "absent.jsonl"),
        "--qrels",
        str(tmp_path / "absent.txt"),
        "--slices",
        "1",
        "--out-dir",
        str(tmp_path / "out"),
    ]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: --slices: num_slices must be >= 2, got 1\n"
    assert not (tmp_path / "out").exists()


def _set(path, value):
    """A change to the pinned dtq matrix: set the field at `path` to `value`."""

    def change(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value

    return change


@pytest.mark.parametrize(
    "change, reason",
    [
        (_set(["rows", 0, "rmse"], [0.0]), "rows[0].rmse must be an object, got list"),
        (_set(["rows", 1, "significant"], []), "rows[1].significant must be an object, got list"),
        (_set(["rows", 0, "rbo_mean"], "0.5"),
         "rows[0].rbo_mean must be a finite number or null, got '0.5'"),
        (_set(["rows", 0, "rbo_mean"], True),
         "rows[0].rbo_mean must be a finite number or null, got True"),
        (_set(["rows", 0, "rbo_mean"], float("nan")),
         "rows[0].rbo_mean must be a finite number or null, got nan"),
        (_set(["rows", 1, "rmse", "ndcg"], "0.1"),
         "rows[1].rmse.ndcg must be a finite number or null, got '0.1'"),
        (_set(["rows", 1, "rmse", "ndcg"], float("-inf")),
         "rows[1].rmse.ndcg must be a finite number or null, got -inf"),
        (_set(["rows", 1, "rmse", "ndcg"], 10**400),
         f"rows[1].rmse.ndcg must be a finite number or null, got {10**400!r}"),
        # "P@10" beside "p@10" names one measure twice
        (_set(["rows", 0, "rmse", "P@10"], 0.5), "rows[0].rmse: duplicate measure 'p@10'"),
        (_set(["rows", 0, "significant"], {"p@10": "yes"}),
         "rows[0].significant.p@10 must be true, false or null, got 'yes'"),
        (_set(["rows", 0, "significant"], {"p@10": 1}),
         "rows[0].significant.p@10 must be true, false or null, got 1"),
        (_set(["rows"], {}), "rows must be a list, got dict"),
        (_set(["rows", 2], "row"), "rows[2] must be an object, got str"),
        (_set(["rows", 0, "system"], 7), "rows[0].system must be a string, got int"),
        (_set(["collection"], None), "collection must be a string, got NoneType"),
        (_set(["rows", 0, "scenario"], "dtq2"), "'dtq2' is not a valid Scenario"),
        (lambda doc: doc.pop("rows"), "'rows'"),
        (b"[]", "the document must be an object, got list"),
        (b'{"rows": [}', "Expecting value: line 1 column 11 (char 10)"),
        (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ],
)
def test_report_rejects_a_malformed_matrix_naming_the_file(tmp_path, capsys, change, reason):
    if isinstance(change, bytes):
        data = change
    else:
        doc = json.loads((PINNED / "dtq.json").read_bytes())
        change(doc)
        data = json.dumps(doc).encode()
    path = tmp_path / "matrix.json"
    path.write_bytes(data)
    assert main(["report", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: not a rendered matrix JSON ({reason})\n"


@pytest.mark.parametrize(
    "name, reason", [("absent.json", "No such file or directory"), (".", "Is a directory")]
)
def test_report_names_an_unreadable_matrix_as_other_inputs_do(tmp_path, capsys, name, reason):
    path = tmp_path / name
    assert main(["report", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {path}: {reason}\n"


SIMULATE_ARGV = ["simulate", "--manifest", str(DIFF_PINNED / "simulate" / "t2.manifest.jsonl"),
                 "--qrels", str(DIFF_PINNED / "simulate" / "t2.qrels.txt"), "--slices", "2"]


# "afile" is a regular file in the test's directory, "adir" a directory
@pytest.mark.parametrize(
    "argv, message",
    [
        (["diff", "--config", "nope.json", "--from", "t0", "--to", "t1"],
         "cannot read nope.json: No such file or directory"),
        (["change", "--config", "adir", "--scenario", "dtq", "--run", "a:t0:x"],
         "cannot read adir: Is a directory"),
        (["report", "--matrix", str(PINNED / "dtq.json"), "--out", "afile/x.csv"],
         "cannot write afile/x.csv: Not a directory"),
        (["report", "--matrix", str(PINNED / "dtq.json"), "--out", "adir"],
         "cannot write adir: Is a directory"),
        (SIMULATE_ARGV + ["--out-dir", "afile"], "cannot write afile: File exists"),
        (SIMULATE_ARGV + ["--out-dir", "afile/out"], "cannot write afile/out: Not a directory"),
        # a directory where the topic file would go
        (SIMULATE_ARGV + ["--out-dir", "."], "cannot write topics.jsonl: Is a directory"),
    ],
)
def test_an_unusable_path_is_named_as_other_inputs_do(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("x")
    (tmp_path / "adir").mkdir()
    (tmp_path / "topics.jsonl").mkdir()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_report_rerenders_matrix_json(tmp_path, capsys):
    config, runs = write_cli_fixture(tmp_path)
    args = change_argv(config, runs, "dtq")
    assert main(args + ["--format", "json", "--out", str(tmp_path / "matrix.json")]) == 0
    assert main(args + ["--format", "csv"]) == 0
    direct_csv = capsys.readouterr().out
    assert (
        main(["report", "--matrix", str(tmp_path / "matrix.json"), "--format", "csv"])
        == 0
    )
    rerendered = capsys.readouterr().out
    assert rerendered == direct_csv


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["diff", "--config", "x", "--from", "a", "--to", "b", "--bogus"])
    assert exc.value.code == 2


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("kind, where", [
    ("config", "invalid JSON"),
    ("manifest", "line 7: invalid JSON"),
    ("topics", "line 5: invalid JSON"),
    ("matrix", "not a rendered matrix JSON"),
])
def test_deeply_nested_json_is_a_usage_error_naming_its_file(tmp_path, capsys, kind, where):
    # the decoder gives up on such nesting at a depth that differs by
    # Python version; every JSON reader reports it as invalid input
    config = write_churn_fixture(tmp_path)
    path = {
        "config": config,
        "manifest": tmp_path / "t0.manifest.jsonl",
        "topics": tmp_path / "t0.topics.jsonl",
        "matrix": tmp_path / "matrix.json",
    }[kind]
    if kind in ("config", "matrix"):
        path.write_text(DEEP)
    else:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(DEEP + "\n")
    if kind == "matrix":
        argv = ["report", "--matrix", str(path)]
    else:
        argv = ["diff", "--config", str(config), "--from", "t0", "--to", "t1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {where} (")
    assert "internal error" not in err
