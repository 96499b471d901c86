"""Deterministic rendering: CSV/Markdown cells, JSON round-trip, ordering."""

import json

import pytest

from irdrift.diff import ComponentDiff, ChangeSummary
from irdrift.model import MeasureSpec
from irdrift.report import (
    ChangeReport,
    LongitudinalMatrix,
    Scenario,
    matrix_from_json,
    render,
    render_change_summary,
    render_table,
)

P10 = MeasureSpec.parse("p@10")
BPREF = MeasureSpec.parse("bpref")


def _dtq_row(system="sysA", ee="t0", rbo=1.0, rmse_val=0.0):
    return ChangeReport(
        system_tag=system,
        ee_label=ee,
        scenario=Scenario.DTQ,
        rbo_mean=rbo,
        rmse={P10: rmse_val, BPREF: rmse_val},
    )


def _prime_row(system="sysA", ee="t0", arp=0.5, red=0.0, dri=0.0, sig=False):
    return ChangeReport(
        system_tag=system,
        ee_label=ee,
        scenario=Scenario.DTQ_PRIME,
        arp={P10: arp},
        re_delta={P10: red},
        delta_ri={P10: dri},
        significant={P10: sig},
    )


def test_empty_matrix_renders_header_only_csv():
    matrix = LongitudinalMatrix(collection_label="c", rows=())
    text = render(matrix, "csv").decode()
    assert text == "collection,system,ee,scenario,rbo_mean\n"


def test_pivot_delta_ri_renders_empty_not_zero():
    row = ChangeReport(
        system_tag="pivot",
        ee_label="t1",
        scenario=Scenario.DTQ_PRIME,
        arp={P10: 0.5},
        re_delta={P10: 0.1},
        delta_ri={P10: None},
        significant={P10: None},
    )
    matrix = LongitudinalMatrix(collection_label="c", rows=(row,))
    lines = render(matrix, "csv").decode().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    dri_idx = header.index("delta_ri_p@10")
    sig_idx = header.index("significant_p@10")
    assert cells[dri_idx] == ""
    assert cells[sig_idx] == ""
    assert cells[header.index("arp_p@10")] == "0.5000"


def test_rendering_is_deterministic():
    matrix = LongitudinalMatrix(
        collection_label="c",
        rows=(_dtq_row("a", "t0"), _dtq_row("a", "t1", rbo=0.7, rmse_val=0.1)),
    )
    for fmt in ("csv", "markdown", "json"):
        assert render(matrix, fmt) == render(matrix, fmt)


def test_json_round_trip_reconstructs_matrix():
    rows = (
        _prime_row("a", "t0"),
        _prime_row("a", "t1", arp=0.123456789, red=-0.370370370371, dri=None, sig=True),
        _prime_row("b", "t0", arp=0.9),
        _prime_row("b", "t1", arp=0.8, red=0.1111111, dri=0.014014, sig=None),
    )
    matrix = LongitudinalMatrix(collection_label="col", rows=rows)
    assert matrix_from_json(render(matrix, "json")) == matrix


def test_matrix_ordering_invariants():
    with pytest.raises(ValueError, match="ascending"):
        LongitudinalMatrix("c", rows=(_dtq_row("b", "t0"), _dtq_row("a", "t0")))
    with pytest.raises(ValueError, match="contiguous"):
        LongitudinalMatrix(
            "c", rows=(_dtq_row("a", "t0"), _dtq_row("b", "t0"), _dtq_row("a", "t1"))
        )
    with pytest.raises(ValueError, match="sequence"):
        LongitudinalMatrix(
            "c",
            rows=(
                _dtq_row("a", "t0"),
                _dtq_row("a", "t1"),
                _dtq_row("b", "t0"),
            ),
        )
    with pytest.raises(ValueError, match="same scenario"):
        LongitudinalMatrix("c", rows=(_dtq_row("a", "t0"), _prime_row("a", "t1")))


def test_prime_scenario_rejects_rank_cells():
    with pytest.raises(ValueError, match="document-only"):
        ChangeReport(
            system_tag="a",
            ee_label="t0",
            scenario=Scenario.DTQ_PRIME,
            rbo_mean=1.0,
        )


def test_markdown_table_shape():
    matrix = LongitudinalMatrix("c", rows=(_dtq_row(),))
    lines = render(matrix, "markdown").decode().splitlines()
    assert lines[0].startswith("| collection |")
    assert set(lines[1].replace("|", "").split()) == {"---"}
    assert len(lines) == 3


def _summary(doc_from=10, created=0, deleted=0):
    ids = [f"d{i}" for i in range(max(created, deleted))]
    docs = ComponentDiff(
        frozenset(ids[:created]), frozenset(), frozenset(ids[:deleted]), doc_from
    )
    empty = ComponentDiff(frozenset(), frozenset(), frozenset(), 5)
    return ChangeSummary(
        from_label="t0", to_label="t1", documents=docs, topics=empty, qrels=empty
    )


def test_summary_identity_renders_zero_percent():
    text = render_change_summary(_summary(), "csv").decode()
    lines = text.splitlines()
    assert lines[0] == "component,total_from,total_to,delta_pct,created,updated,deleted"
    assert lines[1] == "documents,10,10,0.0000,0,0,0"


def test_summary_append_only_create_equals_delta():
    summary = _summary(doc_from=10, created=3)
    row = render_change_summary(summary, "csv").decode().splitlines()[1].split(",")
    assert int(row[4]) == int(row[2]) - int(row[1])


def test_summary_negative_percent_has_leading_minus():
    summary = _summary(doc_from=10, deleted=3)
    row = render_change_summary(summary, "csv").decode().splitlines()[1]
    assert ",-30.0000," in row
    md = render_change_summary(summary, "markdown").decode()
    assert "-30.0000%" in md


def test_summary_json_shape():
    doc = json.loads(render_change_summary(_summary(10, created=3), "json"))
    assert doc["from"] == "t0"
    assert doc["documents"]["created"] == 3
    assert doc["documents"]["relative_delta"] == pytest.approx(0.3)


def test_places_flag_controls_precision():
    matrix = LongitudinalMatrix("c", rows=(_dtq_row(rbo=0.123456),))
    assert b"0.123" in render(matrix, "csv", places=3)
    assert b"0.12346" in render(matrix, "csv", places=5)


def test_unknown_format_rejected():
    matrix = LongitudinalMatrix("c", rows=())
    with pytest.raises(ValueError, match="format"):
        render(matrix, "xml")
    with pytest.raises(ValueError, match="format"):
        render_change_summary(_summary(), "xml")


def test_render_table_json_records():
    data = render_table(["a", "b"], [["1", "2"]], "json")
    assert json.loads(data) == [{"a": "1", "b": "2"}]


def test_markdown_escapes_a_pipe_in_a_cell():
    # a run tag is any whitespace-free token, so it may hold a |
    lines = render_table(["system", "score"], [["bm25|rm3", "0.5"]], "markdown").splitlines()
    assert lines[2] == rb"| bm25\|rm3 | 0.5 |"
    matrix = LongitudinalMatrix("web|news", rows=(_dtq_row(system="bm25|rm3"),))
    header, _, row = render(matrix, "markdown").decode().splitlines()
    assert row.startswith(r"| web\|news | bm25\|rm3 | t0 |")
    # an escaped | is no cell border, so each row has the header's cells
    assert row.replace(r"\|", "").count("|") == header.count("|")
    # csv writes the tag as it is
    assert b"bm25|rm3,0.5" in render_table(["system", "score"], [["bm25|rm3", "0.5"]], "csv")
