"""Seeded generator of LongEval-shaped inputs for the irdrift benchmark.

Every file is derived from ``(workload, seed)`` through one local
``random.Random`` instance consumed in a fixed order, so the same seed
writes byte-identical files and another seed writes different ones. No
data is downloaded. The generator also writes ``inputs.json``: the
parameters, the CLI steps of the workload's job, the line count of every
file and the CRUD counts the churn environments were built with. The
output checker reads that file; it never imports irdrift.

Two input kinds exist:

* ``change`` — environments t0..tn over one doc-id space, per-topic
  candidate pools, graded qrels, and one TREC run per system and
  environment (plus a pivot system when asked). Runs carry score ties
  (written in an order that canonicalisation must repair) and leave some
  topics unanswered.
* ``churn`` — a dated, partly hashed corpus evolved step by step with
  document, topic and qrels creates, updates and deletes whose counts are
  recorded by construction.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import asdict, dataclass, replace
from datetime import date, timedelta
from pathlib import Path


@dataclass(frozen=True)
class Params:
    """Size and shape of one workload's inputs.

    Churn rates are per environment step: each of create, update and
    delete touches ``round(rate * size)`` items of that component.
    """

    kind: str  # "change" or "churn"
    docs: int  # corpus size at t0
    topics: int
    ees: int
    systems: int  # experimental systems (the pivot is extra)
    pivot: bool
    depth: int  # run depth
    judged: int  # judged docs per topic
    rel_share: float  # share of judged docs with grade >= 1
    doc_churn: float
    topic_churn: float
    qrels_churn: float
    hashed_share: float  # share of docs whose manifest line carries a hash
    tie_share: float  # share of run entries whose score ties the one above
    unanswered_share: float  # share of topics a system leaves out of a run
    dangling: int = 3  # judgments per environment on docs absent from the corpus
    scenario: str = ""
    measures: str = ""
    rbo_depth: int = 100
    slices: int = 3


WORKLOADS: dict[str, Params] = {
    # run ingest and RBO: few topics, deep runs, sparse qrels
    "change-deep": Params(
        kind="change", docs=8000, topics=24, ees=3, systems=2, pivot=False,
        depth=1000, judged=30, rel_share=0.3, doc_churn=0.05, topic_churn=0.0,
        qrels_churn=0.02, hashed_share=0.5, tie_share=0.1, unanswered_share=0.05,
        scenario="dtq", measures="p@10,ndcg@10,bpref", rbo_depth=1000,
    ),
    # scoring, qrels ingest and significance: many topics, shallow runs,
    # dense re-graded qrels with more relevant docs than the run depth
    "change-judged": Params(
        kind="change", docs=8000, topics=100, ees=3, systems=3, pivot=True,
        depth=100, judged=250, rel_share=0.5, doc_churn=0.05, topic_churn=0.0,
        qrels_churn=0.1, hashed_share=0.5, tie_share=0.1, unanswered_share=0.02,
        scenario="dtq-prime", measures="p@10,ndcg@10,ndcg,bpref",
    ),
    # manifest ingest, diff, simulate and the writers; no run files
    "churn": Params(
        kind="churn", docs=15000, topics=200, ees=3, systems=0, pivot=False,
        depth=0, judged=100, rel_share=0.3, doc_churn=0.05, topic_churn=0.05,
        qrels_churn=0.05, hashed_share=0.7, tie_share=0.0, unanswered_share=0.0,
        dangling=0, slices=3,
    ),
}

# smoke sizes for the harness self-check: same shapes, a few seconds in all
SMOKE: dict[str, Params] = {
    "change-deep": replace(WORKLOADS["change-deep"], docs=2000, topics=8, depth=200, judged=20, rbo_depth=200),
    "change-judged": replace(WORKLOADS["change-judged"], docs=2000, topics=20, depth=30, judged=50),
    "churn": replace(WORKLOADS["churn"], docs=2000, topics=20, judged=20),
}

START = date(2022, 6, 1)
WORDS = ("climate", "vaccine", "election", "recipe", "football", "housing",
         "energy", "travel", "museum", "software", "river", "festival")


def _label(i: int) -> str:
    return f"t{i}"


def _doc(i: int) -> str:
    return f"doc{i:07d}"


def _topic(i: int) -> str:
    return f"q{i:05d}"


def _hash(rng: random.Random) -> str:
    return f"{rng.getrandbits(64):016x}"


def _write(path: Path, lines: list[str]) -> int:
    path.write_text("".join(lines), encoding="utf-8")
    return len(lines)


class _Corpus:
    """Doc id -> [length, day offset, hash or None], evolved in place."""

    def __init__(self, rng: random.Random, p: Params, days: int):
        self.rng = rng
        self.p = p
        self.days = days
        self.next_id = 0
        self.docs: dict[str, list] = {}
        for _ in range(p.docs):
            self._create(0)

    def _create(self, step: int) -> str:
        rng = self.rng
        doc = _doc(self.next_id)
        self.next_id += 1
        day = step * self.days + rng.randrange(self.days)
        hashed = rng.random() < self.p.hashed_share
        self.docs[doc] = [rng.randrange(200, 20000), day, _hash(rng) if hashed else None]
        return doc

    def evolve(self, step: int, protected: set[str]) -> dict[str, int]:
        """One step of creates, updates and deletes; returns the CRUD counts.

        Protected docs (judged or pooled) are never deleted. Besides the
        counted updates, some hashed docs change length but keep their
        hash, which a diff must not count as an update.
        """
        rng = self.rng
        n = round(self.p.doc_churn * len(self.docs))
        ids = sorted(self.docs)
        deletable = [d for d in ids if d not in protected]
        deleted = rng.sample(deletable, n)
        for doc in deleted:
            del self.docs[doc]
        survivors = sorted(self.docs)
        touched = rng.sample(survivors, n + n // 4)
        for doc in touched[:n]:
            meta = self.docs[doc]
            if meta[2] is not None:
                meta[2] = _hash(rng)
                if rng.random() < 0.5:
                    meta[0] += rng.randrange(1, 500)
            else:
                meta[0] += rng.randrange(1, 500)
        for doc in touched[n:]:
            if self.docs[doc][2] is not None:
                self.docs[doc][0] += rng.randrange(1, 500)
        for _ in range(n):
            self._create(step)
        return {"created": n, "updated": n, "deleted": n}

    def write(self, path: Path) -> int:
        lines = []
        for doc in sorted(self.docs):
            length, day, content_hash = self.docs[doc]
            obj = {"doc_id": doc, "length": length,
                   "timestamp": (START + timedelta(days=day)).isoformat()}
            if content_hash is not None:
                obj["hash"] = content_hash
            lines.append(json.dumps(obj) + "\n")
        return _write(path, lines)


def _grade(rng: random.Random, rel_share: float) -> int:
    if rng.random() < rel_share:
        return 1 if rng.random() < 0.6 else 2
    return 0


def _write_qrels(path: Path, qrels: dict[tuple[str, str], int], dangling: int) -> int:
    lines = [f"{t} 0 {d} {g}\n" for (t, d), g in sorted(qrels.items())]
    # judgments on docs that no manifest lists: validation findings
    lines += [f"{_topic(i)} 0 gone{i:04d} 1\n" for i in range(dangling)]
    return _write(path, lines)


def _write_topics(path: Path, topics: dict[str, str]) -> int:
    lines = [json.dumps({"topic_id": t, "text": text}) + "\n" for t, text in sorted(topics.items())]
    return _write(path, lines)


def _topic_text(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(3))


def _config(out: Path, labels: list[str]) -> Path:
    entries = [
        {"label": label, "manifest": f"{label}.manifest.jsonl",
         "qrels": f"{label}.qrels.txt", "topics": f"{label}.topics.jsonl"}
        for label in labels
    ]
    path = out / "ees.json"
    path.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
    return path


def _evolve_qrels(rng, p: Params, qrels, topic_ids, corpus_ids, pools=None):
    """Re-grade, delete and create judgments; returns the new qrels and
    the counts by construction (topic deletions handled by the caller)."""
    n = round(p.qrels_churn * len(qrels))
    pairs = sorted(qrels)
    touched = rng.sample(pairs, 2 * n)
    new = dict(qrels)
    for pair in touched[:n]:
        new[pair] = (new[pair] + 1 + rng.randrange(2)) % 3
    for pair in touched[n:]:
        del new[pair]
    created = 0
    while created < n:
        topic = rng.choice(topic_ids)
        doc = rng.choice(pools[topic] if pools else corpus_ids)
        # a new pair, and never one deleted this step
        if (topic, doc) not in qrels and (topic, doc) not in new:
            new[(topic, doc)] = _grade(rng, p.rel_share)
            created += 1
    return new, {"created": n, "updated": n, "deleted": n}


# --- change inputs --------------------------------------------------------


def _gen_change(rng: random.Random, p: Params, out: Path) -> dict:
    labels = [_label(i) for i in range(p.ees)]
    corpus = _Corpus(rng, p, days=30)
    initial = set(corpus.docs)
    # pools and judgments draw from 70% of the t0 corpus, which is never
    # deleted; the rest churns without touching the runs
    pooled = sorted(initial)[: len(initial) * 7 // 10]
    topic_ids = [_topic(i) for i in range(p.topics)]
    topics = {t: _topic_text(rng) for t in topic_ids}
    pool_size = max(p.depth + p.depth // 4, p.judged + p.depth // 2)
    pools = {t: rng.sample(pooled, pool_size) for t in topic_ids}
    qrels = {}
    for t in topic_ids:
        for d in pools[t][: p.judged]:
            qrels[(t, d)] = _grade(rng, p.rel_share)
    # doc prior: a relevance-driven signal shared by every system
    prior = {(t, d): 0.8 * qrels.get((t, d), 0) + rng.gauss(0.0, 1.0)
             for t in topic_ids for d in pools[t]}
    tags = [f"sys{chr(ord('A') + i)}" for i in range(p.systems)]
    if p.pivot:
        tags.append("bm25")
    system_noise = {tag: {key: rng.gauss(0.0, 0.6) for key in prior} for tag in tags}

    files: dict[str, int] = {}
    new_docs: list[str] = []
    for step, label in enumerate(labels):
        if step > 0:
            corpus.evolve(step, set(pooled))
            new_docs = [d for d in sorted(corpus.docs) if d not in initial]
            qrels, _ = _evolve_qrels(rng, p, qrels, topic_ids, pooled, pools)
        files[f"{label}.manifest.jsonl"] = corpus.write(out / f"{label}.manifest.jsonl")
        files[f"{label}.qrels.txt"] = _write_qrels(out / f"{label}.qrels.txt", qrels, p.dangling)
        files[f"{label}.topics.jsonl"] = _write_topics(out / f"{label}.topics.jsonl", topics)
        for tag in tags:
            name = f"{tag}.{label}.run"
            files[name] = _write(out / name, _run_lines(rng, p, tag, topic_ids, pools,
                                                        prior, system_noise[tag], new_docs))
    config = _config(out, labels)

    argv = ["change", "--config", str(config), "--scenario", p.scenario,
            "--measures", p.measures, "--rbo-depth", str(p.rbo_depth)]
    for tag in tags:
        for label in labels:
            path = out / f"{tag}.{label}.run"
            if tag == "bm25":
                argv += ["--pivot-run", f"{label}={path}"]
            else:
                argv += ["--run", f"{tag}:{label}:{path}"]
    return {
        "labels": labels,
        "systems": tags,
        "files": files,
        # input size: every file written here is named by the argv or its config
        "steps": [{"name": "change", "argv": argv, "input_lines": sum(files.values())}],
    }


def _run_lines(rng, p: Params, tag, topic_ids, pools, prior, noise, new_docs) -> list[str]:
    lines = []
    for t in topic_ids:
        if rng.random() < p.unanswered_share:
            continue
        scored = [(prior[(t, d)] + noise[(t, d)] + rng.gauss(0.0, 0.3), d) for d in pools[t]]
        # documents created after t0 compete for a few slots
        for d in rng.sample(new_docs, min(len(new_docs), p.depth // 20)):
            scored.append((rng.gauss(0.0, 1.0), d))
        scored.sort(reverse=True)
        previous = None
        for rank, (score, d) in enumerate(scored[: p.depth], start=1):
            text = f"{score:.4f}"
            if previous is not None and rng.random() < p.tie_share:
                text = previous  # a tie the file lists in no doc-id order
            previous = text
            lines.append(f"{t} Q0 {d} {rank} {text} {tag}\n")
    return lines


# --- churn inputs ---------------------------------------------------------


def _gen_churn(rng: random.Random, p: Params, out: Path) -> dict:
    labels = [_label(i) for i in range(p.ees)]
    corpus = _Corpus(rng, p, days=max(p.slices, p.docs // 40))
    topic_count = p.topics
    topics = {_topic(i): _topic_text(rng) for i in range(topic_count)}
    corpus_ids = sorted(corpus.docs)
    qrels = {}
    for t in sorted(topics):
        for d in rng.sample(corpus_ids, p.judged):
            qrels[(t, d)] = _grade(rng, p.rel_share)

    files: dict[str, int] = {}
    expected: dict[str, dict] = {}
    for step, label in enumerate(labels):
        if step > 0:
            before = {"documents": len(corpus.docs), "topics": len(topics), "qrels": len(qrels)}
            judged_docs = {d for (_, d) in qrels}
            docs_counts = corpus.evolve(step, judged_docs)
            # topics: delete (with their judgments), re-word, create
            n = round(p.topic_churn * len(topics))
            picked = rng.sample(sorted(topics), 2 * n)
            deleted_topics = set(picked[:n])
            for t in deleted_topics:
                del topics[t]
            qrels_gone = {pair for pair in qrels if pair[0] in deleted_topics}
            for t in picked[n:]:
                topics[t] = topics[t] + " " + rng.choice(WORDS)
            created_topics = []
            for _ in range(n):
                t = _topic(topic_count)
                topic_count += 1
                topics[t] = _topic_text(rng)
                created_topics.append(t)
            kept = {pair: g for pair, g in qrels.items() if pair not in qrels_gone}
            corpus_ids = sorted(corpus.docs)
            older_topics = sorted(set(topics) - set(created_topics))
            kept, qrels_counts = _evolve_qrels(rng, p, kept, older_topics, corpus_ids)
            for t in created_topics:
                for d in rng.sample(corpus_ids, p.judged):
                    kept[(t, d)] = _grade(rng, p.rel_share)
            qrels_counts["created"] += p.judged * len(created_topics)
            qrels_counts["deleted"] += len(qrels_gone)
            qrels = kept
            after = {"documents": len(corpus.docs), "topics": len(topics), "qrels": len(qrels)}
            counts = {"documents": docs_counts,
                      "topics": {"created": n, "updated": n, "deleted": n},
                      "qrels": qrels_counts}
            for component in counts:
                counts[component]["total_from"] = before[component]
                counts[component]["total_to"] = after[component]
            expected[f"{labels[step - 1]}->{label}"] = counts
        files[f"{label}.manifest.jsonl"] = corpus.write(out / f"{label}.manifest.jsonl")
        files[f"{label}.qrels.txt"] = _write_qrels(out / f"{label}.qrels.txt", qrels, p.dangling)
        files[f"{label}.topics.jsonl"] = _write_topics(out / f"{label}.topics.jsonl", topics)
    config = _config(out, labels)
    env_lines = sum(files.values())
    sim_dir = out / "slices"
    steps = [{
        "name": "simulate",
        "argv": ["simulate", "--manifest", str(out / "t0.manifest.jsonl"),
                 "--qrels", str(out / "t0.qrels.txt"), "--slices", str(p.slices),
                 "--out-dir", str(sim_dir)],
        "input_lines": files["t0.manifest.jsonl"] + files["t0.qrels.txt"],
    }]
    for step in range(1, p.ees):
        steps.append({
            "name": f"diff-{labels[step - 1]}-{labels[step]}",
            "argv": ["diff", "--config", str(config), "--from", labels[step - 1],
                     "--to", labels[step]],
            "input_lines": env_lines,  # input size: the config names every environment
        })
    return {"labels": labels, "files": files, "expected_diffs": expected, "steps": steps}


def generate(workload: str, seed: int, out: Path, params: Params | None = None) -> dict:
    """Write the inputs of one workload into ``out`` (emptied first) and
    return their description, also saved as ``out/inputs.json``. Paths in
    the description are relative when ``out`` is."""
    p = params or WORKLOADS[workload]
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    rng = random.Random(f"irdrift-bench|{workload}|{seed}")
    body = _gen_change(rng, p, out) if p.kind == "change" else _gen_churn(rng, p, out)
    inputs = {"workload": workload, "seed": seed, "dir": str(out), "params": asdict(p), **body}
    (out / "inputs.json").write_text(json.dumps(inputs, indent=1) + "\n", encoding="utf-8")
    return inputs
