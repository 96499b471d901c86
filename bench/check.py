"""Independent output checker for the irdrift benchmark.

It reads the generator's ``inputs.json`` and input files and re-derives
what each CLI step must print. It never imports irdrift: every measure is
recomputed here from its textbook definition, so a fault in the package
(or in a faster rewrite of it) cannot hide behind shared code.

Checked, on every row of the output:

* ``change``: the exact header, the rows in (system, environment) order
  with one row per system and environment, the collection and scenario
  cells, the number format, the value range of every cell kind, and the
  ideal t0 cells. Rank-biased overlap, and the RMSE, ARP, relative ARP
  delta and pivot margin shift of P@k, nDCG@k and bpref are recomputed by
  brute force and must match to the rendered places.
* ``simulate``: the listing on stdout and every written file byte for
  byte against slices recomputed from the input manifest and qrels.
* ``diff``: the CRUD counts and totals of every component equal the
  counts the generator applied, and the relative delta matches.

Left unchecked, and why:

* nDCG without a cutoff (``*_ndcg`` cells): its ideal vector is cut to
  the ranking's length today, and an open roadmap item will normalise by
  all judged documents instead. The inputs are not shaped to avoid the
  difference (``change-judged`` has more relevant documents per topic than
  its run depth); only the range of these cells is checked.
* ``significant_*`` cells: recomputing the paired t-test p value needs
  the t distribution, and a second implementation of it would be larger
  than the rest of this checker. Only the cell vocabulary is checked.
* stderr: warnings are diagnostics, not part of the byte-stable output.

Byte identity across repetitions is checked by the runner, which hashes
every output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import defaultdict
from pathlib import Path

PLACES = 4
TOLERANCE = 0.5 * 10**-PLACES + 1e-9
REAL = re.compile(r"-?\d+\.\d{%d}" % PLACES)


def read_run(path: Path) -> dict[str, list[str]]:
    """Topic -> doc ids in canonical order: score descending, doc id ascending."""
    by_topic: dict[str, list[tuple[float, str]]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            topic, _q0, doc, _rank, score, _tag = line.split()
            by_topic[topic].append((-float(score), doc))
    return {topic: [doc for _, doc in sorted(entries)] for topic, entries in by_topic.items()}


def read_qrels(path: Path) -> dict[str, dict[str, int]]:
    judged: dict[str, dict[str, int]] = defaultdict(dict)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            topic, _iteration, doc, grade = line.split()
            judged[topic][doc] = max(0, int(grade))
    return judged


def read_topic_ids(path: Path) -> set[str]:
    with open(path, encoding="utf-8") as handle:
        return {json.loads(line)["topic_id"] for line in handle if line.strip()}


# --- measures, from their definitions --------------------------------------


def precision(ranking: list[str], grades: dict[str, int], k: int) -> float:
    return sum(1 for doc in ranking[:k] if grades.get(doc, 0) >= 1) / k


def ndcg_at(ranking: list[str], grades: dict[str, int], k: int) -> float:
    dcg = sum(grades.get(doc, 0) / math.log2(i + 2) for i, doc in enumerate(ranking[:k]))
    ideal = sorted(grades.values(), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 2) for i, g in enumerate(ideal))
    return dcg / idcg if idcg > 0 else 0.0


def bpref(ranking: list[str], grades: dict[str, int]) -> float:
    big_r = sum(1 for g in grades.values() if g >= 1)
    big_n = sum(1 for g in grades.values() if g == 0)
    if big_r == 0:
        return 0.0
    total = 0.0
    nonrel_above = 0
    for doc in ranking:
        if doc not in grades:
            continue
        if grades[doc] == 0:
            nonrel_above += 1
        elif big_n == 0:
            total += 1.0
        else:
            total += 1.0 - min(nonrel_above, big_r) / min(big_r, big_n)
    return total / big_r


def rbo(a: list[str], b: list[str], phi: float, depth: int) -> float:
    """Normalised truncated RBO: sum_d phi^(d-1) |a[:d] & b[:d]| / d over
    d = 1..D, divided by sum_d phi^(d-1), with D = min(depth, longest)."""
    n = min(depth, max(len(a), len(b)))
    if n == 0:
        return 1.0
    pos_b = {doc: i for i, doc in enumerate(b[:n])}
    # a doc is in both depth-d prefixes from d = max(pos_a, pos_b) + 1 on
    shared_from = [0] * (n + 1)
    for i, doc in enumerate(a[:n]):
        if doc in pos_b:
            shared_from[max(i, pos_b[doc]) + 1] += 1
    overlap = 0
    total = norm = 0.0
    for d in range(1, n + 1):
        overlap += shared_from[d]
        weight = phi ** (d - 1)
        total += weight * overlap / d
        norm += weight
    return total / norm


def _measure(name: str):
    """Scoring function for a checked measure name, or None if unchecked."""
    base, _, cut = name.partition("@")
    if base == "p":
        return lambda ranking, grades: precision(ranking, grades, int(cut))
    if base == "ndcg" and cut:
        return lambda ranking, grades: ndcg_at(ranking, grades, int(cut))
    if base == "bpref":
        return bpref
    return None


def per_topic(run, qrels, score, topics) -> dict[str, float]:
    """Scores over the topics with a relevant judgment; an unanswered topic scores 0."""
    out = {}
    for topic in topics:
        grades = qrels.get(topic, {})
        if any(g >= 1 for g in grades.values()):
            out[topic] = score(run[topic], grades) if topic in run else 0.0
    return out


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


# --- per-step checks -------------------------------------------------------


def _close(cell: str, value: float | None) -> bool:
    if value is None:
        return cell == ""
    return cell != "" and abs(float(cell) - value) <= TOLERANCE


def check_change(inputs: dict, text: str) -> list[str]:
    p = inputs["params"]
    root = Path(inputs["dir"])
    labels = inputs["labels"]
    tags = sorted(inputs["systems"])
    pivot = "bm25" if p["pivot"] else None
    measures = sorted(p["measures"].split(","))
    kinds = ("arp", "rmse", "re_delta", "delta_ri", "significant")
    header = ["collection", "system", "ee", "scenario", "rbo_mean"]
    header += [f"{kind}_{m}" for m in measures for kind in kinds]
    table = list(csv.reader(io.StringIO(text)))
    if not table or table[0] != header:
        return [f"change: header {table[0] if table else None} != {header}"]
    keys = [tuple(row[1:3]) for row in table[1:]]
    expected_keys = [(tag, label) for tag in tags for label in labels]
    if keys != expected_keys:
        return [f"change: rows {keys} != {expected_keys}"]
    if any(len(row) != len(header) for row in table[1:]):
        return ["change: a row has the wrong number of cells"]
    rows = {(row[1], row[2]): dict(zip(header, row)) for row in table[1:]}

    dtq = p["scenario"] == "dtq"
    errors: list[str] = []

    def want(key, column, value):
        cell = rows[key][column]
        if not _close(cell, value):
            errors.append(f"change: {key} {column}={cell!r}, brute force {value!r}")

    for key, cells in rows.items():
        if cells["collection"] != "ees" or cells["scenario"] != p["scenario"]:
            errors.append(f"change: {key} collection/scenario cells {cells}")
        for column, cell in cells.items():
            if column.startswith("significant_"):
                if cell not in ("", "true", "false"):
                    errors.append(f"change: {key} {column}={cell!r}")
            elif column not in ("collection", "system", "ee", "scenario") and cell:
                if not REAL.fullmatch(cell):
                    errors.append(f"change: {key} {column}={cell!r} is not a {PLACES}-place real")
                elif column.startswith(("rbo_", "arp_", "rmse_")) and not 0 <= float(cell) <= 1:
                    errors.append(f"change: {key} {column}={cell!r} outside [0, 1]")
                elif column.startswith("re_delta_") and float(cell) > 1:
                    errors.append(f"change: {key} {column}={cell!r} above 1")
        if dtq:
            filled = {"rbo_mean"} | {f"rmse_{m}" for m in measures}
        else:
            # pivot-relative cells stay empty on the pivot's own rows
            kinds_filled = ("arp", "re_delta")
            if pivot is not None and key[0] != pivot:
                kinds_filled += ("delta_ri", "significant")
            filled = {f"{kind}_{m}" for m in measures for kind in kinds_filled}
        for column in header[4:]:
            if (column in filled) != bool(cells[column]):
                errors.append(f"change: {key} {column}={cells[column]!r} should "
                              f"{'' if column in filled else 'not '}be filled")
    if errors:
        return errors

    runs = {(tag, label): read_run(root / f"{tag}.{label}.run") for tag in tags for label in labels}
    qrels = {label: read_qrels(root / f"{label}.qrels.txt") for label in labels}
    common = sorted(set.intersection(*(read_topic_ids(root / f"{label}.topics.jsonl") for label in labels)))
    t0 = labels[0]
    checked = [(m, _measure(m)) for m in measures if _measure(m) is not None]
    if dtq:
        for tag in tags:
            for label in labels:
                a, b = runs[(tag, t0)], runs[(tag, label)]
                overlap = _mean(rbo(a[t], b[t], 0.9, p["rbo_depth"]) if t in a and t in b else 0.0
                                for t in common)
                want((tag, label), "rbo_mean", overlap)
                for name, score in checked:
                    s0 = per_topic(a, qrels[t0], score, common)
                    s1 = per_topic(b, qrels[t0], score, common)
                    value = math.sqrt(_mean((s0[t] - s1[t]) ** 2 for t in s0))
                    want((tag, label), f"rmse_{name}", value)
        return errors
    for name, score in checked:
        arp = {key: _mean(per_topic(runs[key], qrels[key[1]], score, common).values()) for key in runs}
        for tag, label in runs:
            initial, now = arp[(tag, t0)], arp[(tag, label)]
            want((tag, label), f"arp_{name}", now)
            want((tag, label), f"re_delta_{name}", (initial - now) / initial if initial else None)
            if pivot is not None and tag != pivot:
                base0, base = arp[(pivot, t0)], arp[(pivot, label)]
                shift = None
                if base0 and base:
                    shift = (initial - base0) / base0 - (now - base) / base
                want((tag, label), f"delta_ri_{name}", shift)
    return errors


def check_simulate(inputs: dict, step: dict, text: str) -> list[str]:
    argv = step["argv"]
    out_dir = Path(argv[argv.index("--out-dir") + 1])
    slices = int(argv[argv.index("--slices") + 1])
    labels = [f"t{i}" for i in range(slices)]
    with open(argv[argv.index("--manifest") + 1], encoding="utf-8") as handle:
        docs = [json.loads(line) for line in handle]
    qrels = read_qrels(Path(argv[argv.index("--qrels") + 1]))

    expected: dict[str, str] = {
        "topics.jsonl": "".join(json.dumps({"topic_id": t}) + "\n" for t in sorted(qrels))
    }
    ordered = sorted(docs, key=lambda obj: (obj["timestamp"], obj["doc_id"]))
    size, extra = divmod(len(ordered), slices)
    count = 0
    for i, label in enumerate(labels):
        count += size + (1 if i < extra else 0)
        present = sorted(ordered[:count], key=lambda obj: obj["doc_id"])
        lines = []
        for obj in present:
            line = {"doc_id": obj["doc_id"], "length": obj["length"],
                    "timestamp": obj["timestamp"] + "T00:00:00+00:00"}
            if "hash" in obj:
                line["hash"] = obj["hash"]
            lines.append(json.dumps(line) + "\n")
        expected[f"{label}.manifest.jsonl"] = "".join(lines)
        ids = {obj["doc_id"] for obj in present}
        expected[f"{label}.qrels.txt"] = "".join(
            f"{t} 0 {d} {qrels[t][d]}\n" for t in sorted(qrels) for d in sorted(qrels[t]) if d in ids
        )
    entries = [{"label": label, "manifest": f"{label}.manifest.jsonl",
                "qrels": f"{label}.qrels.txt", "topics": "topics.jsonl"} for label in labels]
    expected["ees.json"] = json.dumps(entries, indent=2) + "\n"

    names = ["topics.jsonl"] + [f"{label}.{kind}" for label in labels
                                for kind in ("manifest.jsonl", "qrels.txt")] + ["ees.json"]
    errors = []
    listing = "".join(f"wrote {out_dir / name}\n" for name in names)
    if text != listing:
        errors.append(f"simulate: stdout {text[:200]!r} != {listing[:200]!r}")
    for name in names:
        path = out_dir / name
        if not path.is_file() or path.read_text(encoding="utf-8") != expected[name]:
            errors.append(f"simulate: {path} differs from the recomputed slice")
    return errors


def check_diff(inputs: dict, step: dict, text: str) -> list[str]:
    argv = step["argv"]
    pair = f"{argv[argv.index('--from') + 1]}->{argv[argv.index('--to') + 1]}"
    expected = inputs["expected_diffs"][pair]
    table = list(csv.reader(io.StringIO(text)))
    header = ["component", "total_from", "total_to", "delta_pct", "created", "updated", "deleted"]
    if not table or table[0] != header or [row[0] for row in table[1:]] != list(expected):
        return [f"diff {pair}: unexpected table layout {table[:1]}"]
    errors = []
    for row in table[1:]:
        cells = dict(zip(header, row))
        counts = expected[cells["component"]]
        for column in ("total_from", "total_to", "created", "updated", "deleted"):
            if cells[column] != str(counts[column]):
                errors.append(f"diff {pair}: {cells['component']} {column}={cells[column]!r}, "
                              f"built with {counts[column]}")
        delta = (counts["total_to"] - counts["total_from"]) / counts["total_from"] * 100
        if not REAL.fullmatch(cells["delta_pct"]) or not _close(cells["delta_pct"], delta):
            errors.append(f"diff {pair}: {cells['component']} delta_pct={cells['delta_pct']!r}")
    return errors


def check_step(inputs: dict, step: dict, stdout: bytes) -> list[str]:
    """Every way the step's stdout (and written files) disagree with the inputs."""
    try:
        text = stdout.decode("utf-8")
    except UnicodeDecodeError:
        return [f"{step['name']}: stdout is not UTF-8"]
    command = step["argv"][0]
    if command == "change":
        return check_change(inputs, text)
    if command == "simulate":
        return check_simulate(inputs, step, text)
    return check_diff(inputs, step, text)
