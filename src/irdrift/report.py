"""Deterministic rendering of change matrices and diff summaries.

Output is byte-stable across runs and platforms: fixed column order,
reals printed with a fixed number of decimal places (round-half-even) in
CSV and Markdown, UTF-8, LF line endings. JSON output keeps full float
precision so it parses back to exactly the rendered matrix. One private
writer knows the three formats; each renderer builds only the header
and rows that csv and markdown write, or the value that json writes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from collections.abc import Callable
from typing import TYPE_CHECKING, NamedTuple

from .model import MeasureSpec, Scenario, _Checked

if TYPE_CHECKING:  # an annotation only, so change and evaluate never load diff
    from .diff import ChangeSummary


class _ChangeReportFields(NamedTuple):
    system_tag: str
    ee_label: str
    scenario: Scenario
    # the defaults are ChangeReport.__new__'s, which gives each report its own maps
    rbo_mean: float | None
    rmse: dict[MeasureSpec, float]
    arp: dict[MeasureSpec, float]
    re_delta: dict[MeasureSpec, float]
    delta_ri: dict[MeasureSpec, float | None]
    significant: dict[MeasureSpec, bool | None]


class ChangeReport(_Checked, _ChangeReportFields):
    """One system x environment cell set of a longitudinal result matrix.

    Document-only rows carry rank overlap and score RMSE; rows that also
    track qrels changes carry ARP, the relative ARP delta, the
    pivot-relative margin shift, and significance flags. ``None`` values
    render as empty cells (e.g. the margin shift for the pivot system
    itself, which has no pivot to compare against). A per-measure map left
    out is a new empty dict, never one shared with another report.
    """

    __slots__ = ()

    def __new__(
        cls,
        system_tag: str,
        ee_label: str,
        scenario: Scenario,
        rbo_mean: float | None = None,
        rmse: dict[MeasureSpec, float] | None = None,
        arp: dict[MeasureSpec, float] | None = None,
        re_delta: dict[MeasureSpec, float] | None = None,
        delta_ri: dict[MeasureSpec, float | None] | None = None,
        significant: dict[MeasureSpec, bool | None] | None = None,
    ) -> "ChangeReport":
        maps = [{} if m is None else m for m in (rmse, arp, re_delta, delta_ri, significant)]
        return super().__new__(cls, system_tag, ee_label, scenario, rbo_mean, *maps)

    def _check(self) -> None:
        if self.scenario is Scenario.DTQ_PRIME and (
            self.rbo_mean is not None or self.rmse
        ):
            raise ValueError(
                "rank overlap and RMSE belong to document-only rows; qrels-change "
                "rows compare against a moving recall base"
            )


class _LongitudinalMatrixFields(NamedTuple):
    collection_label: str
    rows: tuple[ChangeReport, ...]


class LongitudinalMatrix(_Checked, _LongitudinalMatrixFields):
    """Ordered report rows of one scenario: system tags ascending, then
    environment order."""

    __slots__ = ()

    def _check(self) -> None:
        blocks: dict[str, list[str]] = {}
        order: list[str] = []
        for row in self.rows:
            if row.system_tag not in blocks:
                blocks[row.system_tag] = []
                order.append(row.system_tag)
            elif order[-1] != row.system_tag:
                raise ValueError(
                    f"rows of system {row.system_tag!r} are not contiguous"
                )
            blocks[row.system_tag].append(row.ee_label)
        if order != sorted(order):
            raise ValueError("system blocks must be ordered by ascending tag")
        sequences = {tuple(labels) for labels in blocks.values()}
        if len(sequences) > 1:
            raise ValueError("every system must report the same environment sequence")
        if len({row.scenario for row in self.rows}) > 1:
            raise ValueError("every row must report the same scenario")

    def measures(self) -> list[MeasureSpec]:
        """All measures any row mentions, ordered by canonical name."""
        found: set[MeasureSpec] = set()
        for row in self.rows:
            found.update(row.rmse, row.arp, row.re_delta, row.delta_ri, row.significant)
        return sorted(found, key=lambda m: m.name)


def _fmt_real(value: float | None, places: int) -> str:
    if value is None:
        return ""
    if value == 0.0:
        value = 0.0  # fold -0.0
    return format(value, f".{places}f")


def _fmt_flag(value: bool | None) -> str:
    if value is None:
        return ""
    return "true" if value else "false"


def _matrix_cells(
    matrix: LongitudinalMatrix, places: int
) -> tuple[list[str], list[list[str]]]:
    measures = matrix.measures()
    header = ["collection", "system", "ee", "scenario", "rbo_mean"]
    for m in measures:
        header += [
            f"arp_{m.name}",
            f"rmse_{m.name}",
            f"re_delta_{m.name}",
            f"delta_ri_{m.name}",
            f"significant_{m.name}",
        ]
    rows: list[list[str]] = []
    for row in matrix.rows:
        cells = [
            matrix.collection_label,
            row.system_tag,
            row.ee_label,
            row.scenario.value,
            _fmt_real(row.rbo_mean, places),
        ]
        for m in measures:
            cells += [
                _fmt_real(row.arp.get(m), places),
                _fmt_real(row.rmse.get(m), places),
                _fmt_real(row.re_delta.get(m), places),
                _fmt_real(row.delta_ri.get(m), places),
                _fmt_flag(row.significant.get(m)),
            ]
        rows.append(cells)
    return header, rows


def _write(
    format: str,
    table: Callable[[], tuple[list[str], list[list[str]]]],
    document: Callable[[], object],
) -> bytes:
    """One output as csv, markdown, or json bytes: csv and markdown write
    the header and rows that ``table()`` returns, json the value that
    ``document()`` returns. Only what the format writes is built."""
    if format == "json":
        return (json.dumps(document(), indent=2, ensure_ascii=False) + "\n").encode("utf-8")
    if format == "csv":
        header, rows = table()
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buffer.getvalue().encode("utf-8")
    if format == "markdown":
        header, rows = table()
        lines = [header, ["---"] * len(header), *rows]
        # a bare | in a cell would split its row (GFM escapes it as \|)
        return "".join(
            "| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |\n"
            for cells in lines
        ).encode("utf-8")
    raise ValueError(f"unknown format {format!r} (expected csv, markdown, or json)")


# the per-measure fields of a ChangeReport, in the json row's key order
_MEASURE_FIELDS = ("rmse", "arp", "re_delta", "delta_ri", "significant")


def _measure_map(values: dict) -> dict[str, object]:
    return {m.name: v for m, v in sorted(values.items(), key=lambda kv: kv[0].name)}


def render(matrix: LongitudinalMatrix, format: str, places: int = 4) -> bytes:
    """Serialize a matrix as csv, markdown, or json bytes."""

    def document() -> dict[str, object]:
        return {
            "collection": matrix.collection_label,
            "rows": [
                {
                    "system": row.system_tag,
                    "ee": row.ee_label,
                    "scenario": row.scenario.value,
                    "rbo_mean": row.rbo_mean,
                    **{f: _measure_map(getattr(row, f)) for f in _MEASURE_FIELDS},
                }
                for row in matrix.rows
            ],
        }

    return _write(format, lambda: _matrix_cells(matrix, places), document)


def render_table(header: list[str], rows: list[list], format: str, places: int = 4) -> bytes:
    """Render a plain header-plus-rows table as csv, markdown, or json records.

    Each cell is a string or a real: csv and markdown print a float cell
    with `places` decimal places, and json keeps its every digit, as
    :func:`render` does.
    """

    def table() -> tuple[list[str], list[list[str]]]:
        text = [[_fmt_real(c, places) if isinstance(c, float) else c for c in r] for r in rows]
        return header, text

    return _write(format, table, lambda: [dict(zip(header, cells)) for cells in rows])


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _read(value: object, kind: type, where: str):
    if not isinstance(value, kind):
        raise ValueError(f"{where} must be {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


def _read_real(value: object, where: str) -> float | None:
    # the bound rejects NaN, the infinities and ints past the float range
    if value is None or (type(value) in (int, float) and abs(value) <= sys.float_info.max):
        return value
    raise ValueError(f"{where} must be a finite number or null, got {value!r}")


def _read_flag(value: object, where: str) -> bool | None:
    if value is None or type(value) is bool:
        return value
    raise ValueError(f"{where} must be true, false or null, got {value!r}")


def matrix_from_json(data: bytes | str) -> LongitudinalMatrix:
    """Parse :func:`render`'s json output back into a matrix.

    Every field's type is checked (labels strings, measure fields
    objects naming each measure once, reals finite numbers or null, flags
    bools or null), so a malformed document raises ``ValueError`` naming
    the field, or ``KeyError`` for a missing one, instead of rendering
    wrongly.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    doc = _read(json.loads(data), dict, "the document")
    rows = []
    for i, value in enumerate(_read(doc["rows"], list, "rows")):
        where = f"rows[{i}]"
        row = _read(value, dict, where)
        measure_maps = {}
        for f in _MEASURE_FIELDS:
            read = _read_flag if f == "significant" else _read_real
            values = _read(row[f], dict, f"{where}.{f}")
            by_measure = {}
            for k, v in values.items():
                measure = MeasureSpec.parse(k)
                if measure in by_measure:
                    raise ValueError(f"{where}.{f}: duplicate measure {measure.name!r}")
                by_measure[measure] = read(v, f"{where}.{f}.{k}")
            measure_maps[f] = by_measure
        rows.append(
            ChangeReport(
                system_tag=_read(row["system"], str, f"{where}.system"),
                ee_label=_read(row["ee"], str, f"{where}.ee"),
                scenario=Scenario(row["scenario"]),
                rbo_mean=_read_real(row["rbo_mean"], f"{where}.rbo_mean"),
                **measure_maps,
            )
        )
    collection = _read(doc["collection"], str, "collection")
    return LongitudinalMatrix(collection_label=collection, rows=tuple(rows))


def render_change_summary(
    summary: ChangeSummary, format: str, places: int = 4
) -> bytes:
    """Serialize a diff summary as csv, markdown, or json bytes.

    A component that grows from empty has an infinite relative delta:
    json writes it as ``null``, csv and markdown as ``inf``.
    """
    components = {
        "documents": summary.documents,
        "topics": summary.topics,
        "qrels": summary.qrels,
    }

    def table() -> tuple[list[str], list[list[str]]]:
        header = [
            "component",
            "total_from",
            "total_to",
            "delta_pct",
            "created",
            "updated",
            "deleted",
        ]
        # markdown marks the delta as a percentage
        pct = "%" if format == "markdown" else ""
        rows = [
            [
                name,
                str(diff.total_from),
                str(diff.total_to),
                _fmt_real(diff.relative_delta * 100.0, places) + pct,
                str(len(diff.created)),
                str(len(diff.updated)),
                str(len(diff.deleted)),
            ]
            for name, diff in components.items()
        ]
        return header, rows

    def document() -> dict[str, object]:
        doc: dict[str, object] = {"from": summary.from_label, "to": summary.to_label}
        for name, diff in components.items():
            doc[name] = {
                "total_from": diff.total_from,
                "total_to": diff.total_to,
                # +inf (growth from empty) is not JSON; null, as for an
                # undefined real in the matrix JSON
                "relative_delta": (
                    diff.relative_delta if math.isfinite(diff.relative_delta) else None
                ),
                "created": len(diff.created),
                "updated": len(diff.updated),
                "deleted": len(diff.deleted),
            }
        return doc

    return _write(format, table, document)
